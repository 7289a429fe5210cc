"""Span tracing of mpi_lab's public functions, installed from outside.

``Tracer.installed()`` wraps each function in ``TRACED`` and rebinds
every name that refers to it in the ``mpi_lab`` modules' namespaces (or
the class attribute, for methods), so calls made inside the package go
through the wrapper too.  Nothing under ``src/`` is edited; leaving the
context restores the originals.  Spans are kept in memory and written
once by ``write``.
"""

from __future__ import annotations

import functools
import json
import sys
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

MODULES = ("cli", "runner", "corpus", "axioms", "coalgebra", "base_algebra",
           "manageability", "antipode", "tensor", "report")

# metric name -> (defining module, attribute path).  builtin_corpus is
# defined in runner but belongs to the corpus layer.  KappaSolver is timed
# by its construction (the SVD of the kappa map).
TRACED = {
    "cli.main": ("cli", "main"),
    "runner.run_suite": ("runner", "run_suite"),
    "runner.corpus_suite": ("runner", "corpus_suite"),
    "corpus.builtin_corpus": ("runner", "builtin_corpus"),
    "corpus.group_mpu": ("corpus", "group_mpu"),
    "corpus.groupoid_mpi": ("corpus", "groupoid_mpi"),
    "corpus.conjugate_fixture": ("corpus", "conjugate_fixture"),
    "axioms.check_mpi_axioms": ("axioms", "check_mpi_axioms"),
    "axioms.projection_residuals": ("axioms", "projection_residuals"),
    "axioms.assess_fullness": ("axioms", "assess_fullness"),
    "coalgebra.leg_algebra": ("coalgebra", "leg_algebra"),
    "coalgebra.coassociativity_residual": ("coalgebra", "coassociativity_residual"),
    "coalgebra.check_canonical_idempotent": ("coalgebra", "check_canonical_idempotent"),
    "coalgebra.check_delta_range_and_density": (
        "coalgebra", "check_delta_range_and_density"),
    "coalgebra.duality_consistency": ("coalgebra", "duality_consistency"),
    "base_algebra.base_spans": ("base_algebra", "base_spans"),
    "base_algebra.KappaSolver": ("base_algebra", "KappaSolver.__init__"),
    "base_algebra.kappa_map": ("base_algebra", "kappa_map"),
    "base_algebra.find_distinguished_weight": ("base_algebra", "find_distinguished_weight"),
    "base_algebra.gamma_and_rtilde": ("base_algebra", "gamma_and_rtilde"),
    "base_algebra.check_separability_triple": ("base_algebra", "check_separability_triple"),
    "base_algebra.c_star_bases": ("base_algebra", "c_star_bases"),
    "manageability.suggest_q": ("manageability", "suggest_q"),
    "manageability.check_manageability": ("manageability", "check_manageability"),
    "manageability.check_hash_identities": ("manageability", "check_hash_identities"),
    "manageability.dual_manageability": ("manageability", "dual_manageability"),
    "manageability.inclusion_consequences": ("manageability", "inclusion_consequences"),
    "antipode.check_antipode": ("antipode", "check_antipode"),
    "antipode.check_duality": ("antipode", "check_duality"),
    "antipode.check_base_restrictions": ("antipode", "check_base_restrictions"),
    "tensor.embed": ("tensor", "embed"),
    "tensor.embedded_mul": ("tensor", "embedded_mul"),
    "tensor.chain": ("tensor", "chain"),
    "tensor.span_matrices": ("tensor", "span_matrices"),
    "tensor.pos_power": ("tensor", "pos_power"),
    "tensor.lsq_solve": ("tensor", "lsq_solve"),
    "report.reports_to_json": ("report", "reports_to_json"),
    "report.CheckReport.to_json": ("report", "CheckReport.to_json"),
}

# Functions whose returned Operator's matrix size is summed (computed from
# the array shape, not measured allocation).
OUTPUT_BYTES = ("tensor.chain", "tensor.embedded_mul")

MIB = float(2**20)


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "child_s", "mem0", "peak")

    def __init__(self, sid, parent, name, mem0):
        self.id, self.parent, self.name = sid, parent, name
        self.mem0 = self.peak = mem0
        self.child_s = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.output_bytes: dict[str, int] = defaultdict(int)
        self.operators_constructed = 0
        self._open: list[Span] = []

    def _fold_peak(self) -> int:
        """Credit the tracemalloc peak since the last event to every open
        span, then restart peak tracking; returns current traced bytes."""
        cur, peak = tracemalloc.get_traced_memory()
        for s in self._open:
            if peak > s.peak:
                s.peak = peak
        tracemalloc.reset_peak()
        return cur

    def _wrap(self, name, fn):
        count_bytes = name in OUTPUT_BYTES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            span = Span(len(self.spans), parent.id if parent else None, name,
                        self._fold_peak())
            self.spans.append(span)
            self._open.append(span)
            span.start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._fold_peak()
                self._open.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
            if count_bytes:
                self.output_bytes[name] += out.matrix.size * out.matrix.itemsize
            return out

        return traced

    def _count_operator(self, post_init):
        @functools.wraps(post_init)
        def counted(op):
            self.operators_constructed += 1
            post_init(op)

        return counted

    @contextmanager
    def installed(self):
        """Rebind every traced name, start tracemalloc; undo both on exit."""
        pkg = {name: mod for name, mod in sys.modules.items()
               if name == "mpi_lab" or name.startswith("mpi_lab.")}
        undo = []

        def rebind_class_attr(cls, attr, new):
            undo.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, new)

        for name, (modname, path) in TRACED.items():
            mod = pkg[f"mpi_lab.{modname}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                rebind_class_attr(cls, attr, self._wrap(name, cls.__dict__[attr]))
                continue
            orig = getattr(mod, path)
            wrapper = self._wrap(name, orig)
            for m in pkg.values():
                for key, val in list(vars(m).items()):
                    if val is orig:
                        undo.append((m, key, orig))
                        setattr(m, key, wrapper)
        op_cls = pkg["mpi_lab.tensor"].Operator
        rebind_class_attr(op_cls, "__post_init__",
                          self._count_operator(op_cls.__dict__["__post_init__"]))
        tracemalloc.start()
        try:
            yield self
        finally:
            tracemalloc.stop()
            for owner, key, orig in reversed(undo):
                setattr(owner, key, orig)

    def self_times(self) -> dict[str, tuple[int, float]]:
        """metric name -> (calls, self seconds) for every traced function."""
        out = {name: [0, 0.0] for name in TRACED}
        for s in self.spans:
            entry = out[s.name]
            entry[0] += 1
            entry[1] += (s.end - s.start) - s.child_s
        return {name: (c, t) for name, (c, t) in out.items()}

    def module_peaks_mb(self) -> dict[str, float]:
        """Highest traced memory above the level at span entry, per module."""
        out = dict.fromkeys(MODULES, 0.0)
        for s in self.spans:
            mod = s.name.split(".")[0]
            out[mod] = max(out[mod], (s.peak - s.mem0) / MIB)
        return out

    def covered_s(self) -> float:
        """Wall time inside at least one span (the root spans' total)."""
        return sum(s.end - s.start for s in self.spans if s.parent is None)

    def metrics(self, reports: dict, window_s: float, pass_s: float,
                untraced_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, name -> (value, unit), in BENCHMARK.json order.

        `reports` are the traced pass's report dicts (for the Q-candidate
        counts); `window_s` and `pass_s` are the traced window's and the
        traced pass's wall times, `untraced_s` the untraced median pass.
        """
        m = {}
        module_time = dict.fromkeys(MODULES, 0.0)
        for name, (calls, self_s) in self.self_times().items():
            m[f"{name}.calls"] = (calls, "count")
            m[f"{name}.self_s"] = (self_s, "s")
            module_time[name.split(".")[0]] += self_s
        peaks = self.module_peaks_mb()
        for mod in MODULES:
            m[f"{mod}.time_s"] = (module_time[mod], "s")
            m[f"{mod}.peak_mb"] = (peaks[mod], "MB")
        m["tensor.Operator.constructed"] = (self.operators_constructed, "count")
        for name in OUTPUT_BYTES:
            m[f"{name}.bytes"] = (self.output_bytes[name], "bytes")
        tested = certified = 0
        for rep in reports.values():
            q = (rep or {}).get("properties", {}).get("q_candidates")
            if q:
                tested += q["tested"]
                certified += len(q["certified"])
        m["manageability.q_certified_ratio"] = (certified / tested if tested else 0.0, "ratio")
        m["manageability.q_tested"] = (tested, "count")
        m["trace.wall_s"] = (window_s, "s")
        m["trace.uncovered_s"] = (window_s - self.covered_s(), "s")
        m["trace.overhead_s"] = (pass_s - untraced_s, "s")
        return m

    def write(self, path, t0: float) -> None:
        rows = [[s.id, s.parent, s.name, s.start - t0, s.end - t0] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start_s", "end_s"],
                       "spans": rows}, fh)
