"""run_suite as a whole: the pinned corpus check list, and one context
per call computing each shared quantity once."""

import functools
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from mpi_lab import antipode, base_algebra, coalgebra, context, corpus, runner, tensor
from mpi_lab.axioms import check_mpi_axioms
from mpi_lab.context import Fixture
from mpi_lab.manageability import build_wtilde
from mpi_lab.runner import builtin_corpus, corpus_suite, run_suite

# Ordered check ids with pass flags, and ordered skips, of every corpus
# report for seed 7, recorded before the runner was rebuilt on the
# fixture context.  No residuals are stored, so the file holds at any
# BLAS thread count.
VERDICTS = Path(__file__).parent / "data" / "corpus_verdicts.json"


def test_corpus_check_ids_and_verdicts_pinned():
    expected = json.loads(VERDICTS.read_text())
    got = {
        rep.fixture_id: {
            "checks": [[e.check_id, e.passed] for e in rep.entries],
            "skips": [[s["level"], s["reason"]] for s in rep.skips],
        }
        for rep in corpus_suite(seed=7)
    }
    assert list(got) == list(expected)
    for fixture, want in expected.items():
        assert got[fixture]["checks"] == want["checks"], fixture
        assert got[fixture]["skips"] == want["skips"], fixture


def test_every_axioms_entry_can_fail():
    # no axioms-level entry holds for every W: each one fails on a dense
    # random W
    rng = np.random.default_rng(0)
    z = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    rep = run_suite(tensor.Operator(tensor.space(3, 3), z), level="axioms")
    assert len(rep.entries) == 13
    assert [e.check_id for e in rep.entries if e.passed] == []


def test_every_span_and_antipode_entry_can_fail():
    # no entry of base_spans, c_star_bases, check_antipode or check_duality
    # holds for every W: each one exceeds 0.1 on one of two candidates that
    # are not MPIs, W = sqrt(E) for a positive E close to 1 (x) 1, and
    # pair_groupoid(2) skewed by four unitaries, each with a random
    # positive Q
    def gauss(rng, n):
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    rng = np.random.default_rng(5)
    x, y = gauss(rng, 3), gauss(rng, 3)
    e = np.eye(9) + 0.1 * (np.kron(x, y) + np.kron(x.conj().T, y.conj().T))
    vals, vecs = np.linalg.eigh(e)
    assert vals.min() > 0.05
    rng = np.random.default_rng(7)
    u1, u2, u3, u4 = (corpus.random_unitary(4, rng).matrix for _ in range(4))
    pair = corpus.groupoid_mpi(corpus.pair_groupoid(2)).matrix
    candidates = (
        ((vecs * np.sqrt(vals)) @ vecs.conj().T, 3),
        (np.kron(u1, u2) @ pair @ np.kron(u3, u4), 4),
    )
    largest = Counter()
    for i, (m, n) in enumerate(candidates):
        fx = Fixture(tensor.Operator(tensor.space(n, n), m))
        z = gauss(np.random.default_rng(11 + i), n)
        q = tensor.Operator(tensor.space(n), z @ z.conj().T + np.eye(n))
        wt = build_wtilde(fx, q)
        for res in (base_algebra.base_spans(fx), base_algebra.c_star_bases(fx),
                    antipode.check_antipode(fx, q, wt), antipode.check_duality(fx, q, wt)):
            for key, value in res.items():
                largest[key] = max(largest[key], value)
    assert {k: v for k, v in largest.items() if not v > 0.1} == {}
    assert len(largest) == 35


def test_what_without_the_flip_fails_a_report(w_pair2, monkeypatch):
    # W-hat is built in one place, the fixture context, and no entry
    # compares it with an independent Sigma W* Sigma; taking W* for it
    # still fails entries of the coalgebra, manageability and antipode
    # levels
    monkeypatch.setattr(context, "what", lambda v: v.adj)
    rep = run_suite(w_pair2)
    failed = {e.check_id for e in rep.entries if not e.passed}
    assert {"E_legs_product_form_dual", "dual_certificate", "antipode_S_well_defined"} <= failed


BUILTIN = builtin_corpus()


def test_projection_entries_judged_at_the_run_tolerance():
    # E^2 = E and G^2 = G restate W W* W = W: on seeded complex Gaussian
    # perturbations of the corpus fixtures with n <= 4, near and far from
    # tolerance, no report passes partial_isometry and fails either one
    wrong = []
    for i, (name, w) in enumerate(BUILTIN.items()):
        if w.space.legs[0].dim > 4:
            continue
        for j, eps in enumerate((5e-10, 1e-9, 2e-9, 5e-9, 1e-7, 1e-3)):
            rng = np.random.default_rng(1000 * i + j)
            z = rng.standard_normal(w.matrix.shape) + 1j * rng.standard_normal(w.matrix.shape)
            m = w.matrix + eps * np.linalg.norm(w.matrix) * z / np.linalg.norm(z)
            rep = run_suite(tensor.Operator(w.space, m), level="axioms")
            verdicts = {e.check_id: e.passed for e in rep.entries}
            if verdicts["partial_isometry"] and not (
                verdicts["projection_E_idempotent"] and verdicts["projection_G_idempotent"]
            ):
                wrong.append((name, eps))
    assert wrong == []


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="span ranks are cut at RANK_TOL whatever the run's tolerance, so "
    "a perturbation that passes the axioms at a loose tol turns A into M_3",
)
def test_loose_tolerance_checks_the_same_algebra():
    # Z_3 within 1e-6 of an MPI passes every axiom at tol = 1e-3; the leg
    # algebra it is judged on should then be Z_3's, of dimension 3
    w = corpus.group_mpu(corpus.cyclic_table(3))
    rng = np.random.default_rng(1)
    z = rng.standard_normal(w.matrix.shape) + 1j * rng.standard_normal(w.matrix.shape)
    m = w.matrix + 1e-6 * np.linalg.norm(w.matrix) * z / np.linalg.norm(z)
    p = tensor.Operator(w.space, m)
    if not check_mpi_axioms(p, 1e-3).passed:  # not an AssertionError: a real failure
        pytest.fail("the perturbed Z_3 no longer passes the axioms at tol 1e-3")
    assert run_suite(p, tol=1e-3).properties["coalgebra_dims_primal"]["A"] == 3


@pytest.mark.parametrize("name", list(BUILTIN))
def test_conjugated_fixture_same_report_at_every_level(name):
    # a seeded unitary conjugation (u (x) u) W (u (x) u)* makes W dense and
    # complex; every level must reach the same verdicts through the same
    # checks and skips
    w = BUILTIN[name]
    u = corpus.random_unitary(w.space.legs[0].dim, np.random.default_rng(11))
    plain = run_suite(w, level="all", fixture_id=name)
    conj = run_suite(corpus.conjugate_fixture(w, u), level="all", fixture_id=name)
    assert conj.overall_pass, [(e.check_id, e.residual) for e in conj.entries if not e.passed]
    assert [e.check_id for e in conj.entries] == [e.check_id for e in plain.entries]
    assert conj.skips == plain.skips


COUNTED = (
    (base_algebra, "base_spans"),
    (base_algebra, "check_separability_triple"),
    (base_algebra, "c_star_bases"),
    (antipode, "antipode_map"),
    (coalgebra, "leg_algebra"),
    (tensor, "span_matrices"),
    (tensor, "tensor_fit"),
)


@pytest.fixture
def calls(monkeypatch):
    """Counts calls of the COUNTED functions, of np.linalg.svd, of
    KappaSolver, PositiveEig and TensorSquare construction, and of
    span_matrices inside c_star_bases.

    Each function is rebound wherever an mpi_lab module holds it, so
    calls through imported names are counted too."""
    counts = Counter()
    running = []

    def counting(name, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            counts[name] += 1
            if name == "span_matrices" and "c_star_bases" in running:
                counts["span_matrices in c_star_bases"] += 1
            running.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                running.pop()

        return wrapped

    modules = [m for k, m in sys.modules.items() if k.startswith("mpi_lab.")]
    for owner, name in COUNTED:
        fn = getattr(owner, name)
        wrapper = counting(name, fn)
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is fn:
                    monkeypatch.setattr(mod, key, wrapper)
    monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
    for cls in (base_algebra.KappaSolver, tensor.PositiveEig, coalgebra.TensorSquare):
        monkeypatch.setattr(cls, "__init__", counting(cls.__name__, cls.__init__))
    return counts


def test_shared_quantities_computed_once(w_pair2, calls):
    run_suite(w_pair2, level="all")
    first = dict(calls)
    assert first["KappaSolver"] == 1
    assert first["base_spans"] == 1
    # S of W, and S-hat as the antipode of the dual context
    assert first["antipode_map"] == 2
    assert first["check_separability_triple"] == 1
    # A and A-hat of W and of W-hat
    assert first["leg_algebra"] == 4
    # B, C, B-hat and C-hat are the context's N, L, N-hat and L-hat
    assert first["c_star_bases"] == 1
    assert "span_matrices in c_star_bases" not in first
    # the certified Q = 1 (the powers of Q^T are transposes of Q's), and
    # the padded nu and mu densities
    assert first["PositiveEig"] == 3
    # the A (x) A data once per side: E(b (x) c), (b (x) c)E and the four
    # multiplier families fitted once each, by one TensorSquare a side;
    # then E(b (x) c) and (b (x) c)E in B (x) C
    assert first["TensorSquare"] == 2
    assert first["tensor_fit"] == 12 + 2
    # each slice stack is factored once: the five antipode maps reuse the
    # SVDs of the four leg algebras, and no span of Rtilde's images is taken
    assert first["svd"] == 42
    # nothing survives the call: a second run on the same W does it all again
    calls.clear()
    run_suite(w_pair2, level="all")
    assert dict(calls) == first


def test_density_spans_of_a_fixture_not_full_refit_nothing(w_example, monkeypatch):
    # the density spans of a fixture that is not full are not reported, so
    # no family is refit for them: after the level, each side's square
    # holds dense fits only for the families its membership entries
    # escalate (example's range entries escalate none), and the density
    # ranks in coalgebra_dims_* are those of the escalated fits
    squares = []

    class Recorded(coalgebra.TensorSquare):
        def __init__(self, w):
            super().__init__(w)
            squares.append(self)

    monkeypatch.setattr(runner, "TensorSquare", Recorded)
    rep = run_suite(w_example, level="coalgebra")
    assert rep.properties["nondegenerately_full"] is False
    assert not any(e.check_id.startswith("density_") for e in rep.entries)
    for side, sq in zip(("primal", "dual"), squares, strict=True):
        fresh = coalgebra.TensorSquare(sq.fx)
        coalgebra.check_canonical_idempotent(fresh)
        for key in ("a1_deltab", "deltaa_1b", "deltaa_b1", "1a_deltab"):
            fresh.membership(key, tensor.RESIDUAL_TOL)
        assert sq._dense == fresh._dense, side
        escalated = coalgebra.check_delta_range_and_density(coalgebra.TensorSquare(sq.fx))
        assert rep.properties[f"coalgebra_dims_{side}"] == escalated.dims, side
    assert squares[0]._dense == {"bc_E", "a1_deltab", "1a_deltab"}
