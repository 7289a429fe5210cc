"""The benchmark's trace contract with the package.

``bench/spans.py`` wraps the functions it names in ``TRACED`` by
rebinding them from outside and counts ``Operator`` construction through
``Operator.__post_init__``.  A refactor of ``src/`` that renames or
removes one of them breaks ``bench/run.py --trace 1``; these tests make
that a test failure instead.
"""

import importlib.util
import json
from pathlib import Path

import mpi_lab
import mpi_lab.cli  # noqa: F401  (the trace rebinds names in every module)
from mpi_lab import corpus
from mpi_lab.context import Fixture
from mpi_lab.runner import run_suite

ROOT = Path(__file__).resolve().parents[1]


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


spans = _load_spans()


def test_every_traced_name_resolves():
    for name, (modname, path) in spans.TRACED.items():
        obj = getattr(mpi_lab, modname)
        for attr in path.split("."):
            obj = getattr(obj, attr)
        assert callable(obj), name


def test_traced_suite_records_spans_and_bytes():
    w = corpus.group_mpu(corpus.cyclic_table(2))
    tracer = spans.Tracer()
    with tracer.installed():
        # looked up at call time, as the benchmark does: the trace rebinds
        # the package's names, not this module's
        rep = mpi_lab.runner.run_suite(w, level="all", fixture_id="group_z2")
    assert rep.overall_pass
    calls = tracer.self_times()
    assert calls["runner.run_suite"][0] == 1
    for name in ("axioms.check_mpi_axioms", "base_algebra.kappa_map",
                 "antipode.check_antipode", "coalgebra.coassociativity_residual"):
        assert calls[name][0] >= 1, name
    assert tracer.operators_constructed > 0
    metrics = tracer.metrics({"group_z2": rep.to_dict()}, 1.0, 1.0, 0.5)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert list(metrics) == [m["name"] for m in declared]
    # leaving the context restores every traced name
    assert mpi_lab.runner.run_suite is run_suite


def test_traced_exact_coassociativity_records_chain_bytes():
    # a passing suite takes coassociativity from the axioms' bound; called
    # with W alone it takes the exact path, whose products chain fills
    w = corpus.group_mpu(corpus.cyclic_table(2))
    tracer = spans.Tracer()
    with tracer.installed():
        mpi_lab.coalgebra.coassociativity_residual(Fixture(w))
    assert tracer.self_times()["tensor.chain"][0] >= 1
    metrics = tracer.metrics({}, 1.0, 1.0, 0.5)
    assert metrics["tensor.chain.bytes"][0] > 0
