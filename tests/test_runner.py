"""run_suite as a whole: the pinned corpus check list, and one context
per call computing each shared quantity once."""

import functools
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from mpi_lab import (
    antipode,
    base_algebra,
    coalgebra,
    context,
    corpus,
    manageability,
    runner,
    tensor,
)
from mpi_lab.axioms import check_mpi_axioms
from mpi_lab.context import Fixture
from mpi_lab.manageability import build_wtilde, check_manageability, dual_manageability
from mpi_lab.runner import builtin_corpus, corpus_suite, run_suite

from test_coalgebra import homomorphism_bound, perturbed

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


def test_unknown_level_refused(w_z2):
    with pytest.raises(ValueError, match="unknown level 'coalgebras'"):
        run_suite(w_z2, level="coalgebras")


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
    # compares it with an independent Sigma W* Sigma (test_context.py's
    # TestWhat does); the dual E-leg entries take W's own bounds, yet
    # taking W* for W-hat still fails entries of the manageability and
    # antipode levels
    monkeypatch.setattr(context, "what", lambda v: v.adj)
    rep = run_suite(w_pair2)
    failed = {e.check_id for e in rep.entries if not e.passed}
    assert {"dual_certificate", "antipode_S_well_defined"} <= failed


def test_every_bound_is_an_entry():
    # a passing W whose bounds are not 0, at the certified Q = 1 (kappa 1):
    # each bound that the axioms hand on is the residual of the entry it
    # bounds, on W's side where the entry has one, so no bound goes unread.
    # delta_homomorphism adds its per-commutator coefficient times the
    # largest ||[G, 1 (x) c]||_F over A's basis; the coefficient of W-hat's
    # cond3a and cond3b multiplies the formula gap, 0 at Q = 1, and
    # tests/test_manageability.py::TestDualComposabilityBound reads it
    z4 = corpus.group_mpu(corpus.cyclic_table(4))
    w = corpus.conjugate_fixture(z4, corpus.random_unitary(4, np.random.default_rng(5)))
    fx = Fixture(w)
    bounds = check_mpi_axioms(fx).bounds
    rep = run_suite(w)
    assert rep.overall_pass and rep.properties["q_candidates"]["tested"] == 1
    res = {e.check_id: e.residual for e in rep.entries}
    assert min(bounds.values()) > 0.0
    hom = homomorphism_bound(bounds, fx, fx.A.stack)
    assert res["delta_homomorphism_primal"] == pytest.approx(hom, rel=1e-12)
    del bounds["delta_homomorphism"], bounds["delta_homomorphism_per_commutator"]
    assert bounds.pop("dual_cond3_per_wtilde_gap") == pytest.approx(1.0)
    for key, bound in bounds.items():
        assert res.get(key, res.get(f"{key}_primal")) == bound, key


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


def near_z3():
    """Z_3 plus a seeded complex perturbation of relative size 1e-6."""
    w = corpus.group_mpu(corpus.cyclic_table(3))
    rng = np.random.default_rng(1)
    z = rng.standard_normal(w.matrix.shape) + 1j * rng.standard_normal(w.matrix.shape)
    m = w.matrix + 1e-6 * np.linalg.norm(w.matrix) * z / np.linalg.norm(z)
    return tensor.Operator(w.space, m)


def test_dual_certificate_judged_at_the_context_tolerance():
    # the dual context inherits the tolerance, so the certificate of W-hat
    # is judged at the run's tol: near Z_3 with Q = 1 its largest residual
    # is about 2e-6, which passes at tol = 1e-3 (where the axioms pass and
    # W-hat's cond3a and cond3b take their bounds) and fails at
    # RESIDUAL_TOL (where there are no bounds and every word is evaluated)
    p, q = near_z3(), tensor.identity(tensor.space(3))
    for t in (1e-3, tensor.RESIDUAL_TOL, np.inf):
        assert Fixture(p, t).dual.tol == t
    cert = check_manageability(Fixture(p), q)
    largest = {t: max(dual_manageability(Fixture(p, t), cert,
                                         check_mpi_axioms(Fixture(p, t)).bounds)[0].values())
               for t in (1e-3, tensor.RESIDUAL_TOL)}
    assert 1e-6 < largest[1e-3] < 1e-3 and largest[tensor.RESIDUAL_TOL] > 1e-6


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="span ranks are cut at RANK_TOL whatever the run's tolerance, so "
    "a perturbation that passes the axioms at tol, loose or the default, "
    "widens A: Z_3 at tol 1e-3 into M_3, pair_groupoid_2 at 1e-9 to dim 8",
)
@pytest.mark.parametrize("near, tol, dim_a", [
    (near_z3, 1e-3, 3),
    (lambda: perturbed(BUILTIN["pair_groupoid_2"], 2e-10, 402), tensor.RESIDUAL_TOL, 4),
], ids=["group_z3_at_1e-3", "pair_groupoid_2_at_the_default_tol"])
def test_loose_tolerance_checks_the_same_algebra(near, tol, dim_a):
    # W near an MPI passes every axiom at tol; the leg algebra it is judged
    # on should then be the MPI's
    p = near()
    if not check_mpi_axioms(Fixture(p, tol)).passed:  # not an AssertionError: a real failure
        pytest.fail(f"the perturbed W no longer passes the axioms at tol {tol}")
    assert run_suite(p, tol=tol).properties["coalgebra_dims_primal"]["A"] == dim_a


#: the kappa solves and the hash identities, whose gaps near an MPI are of
#: the axioms' size (at Q = 1 hash1 and hash2 restate mpi2 and mpi4)
RESTATEMENTS = {"kappa_solves", "hash1", "hash2", "hash3"}


def test_no_report_fails_a_restatement_alone():
    # each small corpus fixture perturbed by 5e-11, 1e-10 and 2e-10 relative,
    # at the default tol: every entry is judged at the run's tol, so these
    # fail only beside an entry that is no restatement
    alone = []
    for i, (name, w) in enumerate(BUILTIN.items()):
        if w.space.legs[0].dim > 4:
            continue
        for j, eps in enumerate((5e-11, 1e-10, 2e-10)):
            rep = run_suite(perturbed(w, eps, 100 * i + j), fixture_id=name)
            failed = {e.check_id for e in rep.entries if not e.passed}
            if failed and failed <= RESTATEMENTS:
                alone.append((name, eps, sorted(failed)))
    assert alone == []


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


#: the ids that W <-> W-hat exchanges, besides the *_primal and *_dual pairs
EXCHANGED = {
    "nu_found": "nuhat_found",
    "subalgebra_N": "subalgebra_Nhat",
    "subalgebra_L": "subalgebra_Lhat",
    "NL_commutation": "NhatLhat_commutation",
}
EXCHANGED.update({v: k for k, v in EXCHANGED.items()})


def exchanged(check_id):
    for side, other in (("_primal", "_dual"), ("_dual", "_primal")):
        if check_id.endswith(side):
            return check_id[: -len(side)] + other
    return EXCHANGED.get(check_id, check_id)


@pytest.mark.parametrize("name", list(BUILTIN))
def test_duality_relation(name):
    # W and W-hat = Sigma W* Sigma have the same overall verdict, and their
    # FAIL sets agree once primal and dual ids are exchanged; so too for a
    # seeded unitary conjugation of each fixture with n <= 4
    w = BUILTIN[name]
    n = w.space.legs[0].dim
    cases = [w]
    if n <= 4:
        cases.append(corpus.conjugate_fixture(w, corpus.random_unitary(n, np.random.default_rng(13))))
    for v in cases:
        rep, rep_hat = run_suite(v), run_suite(context.what(v))
        assert rep.overall_pass == rep_hat.overall_pass
        assert ({exchanged(e.check_id) for e in rep.entries if not e.passed}
                == {e.check_id for e in rep_hat.entries if not e.passed})


def verdict_shape(rep):
    """The ids with their pass flags, and the skips, of a report."""
    return [(e.check_id, e.passed) for e in rep.entries], rep.skips


@pytest.mark.parametrize("name", ["pair_groupoid_2", "pair_groupoid_3", "two_z2",
                                  "z3_plus_trivial"])
def test_q_freedom(name):
    # Q is not unique where the commutant of A and A-hat is not trivial
    # (Soltan-Woronowicz): every diagonal candidate of suggest_q certifies
    # on these fixtures, and a run with any of them supplied gives the
    # ids, pass flags and skips of the run that certifies Q = 1 itself.
    # So the Q != 1 paths of the manageability and antipode levels run on
    # passing W; a runner that drops the supplied Q reports it suggested
    w = BUILTIN[name]
    fx = Fixture(w)
    candidates = [q for q in manageability.suggest_q(fx) if check_manageability(fx, q).passed]
    assert len(candidates) == len(manageability.suggest_q(fx)) >= 5
    want = verdict_shape(run_suite(w))
    for i, q in enumerate(candidates):
        rep = run_suite(w, q)
        assert rep.properties["q_source"] == "supplied", (name, i)
        assert verdict_shape(rep) == want, (name, i)


COUNTED = (
    (base_algebra, "base_spans"),
    (base_algebra, "check_separability_triple"),
    (base_algebra, "c_star_bases"),
    (base_algebra, "gamma_n_stack"),
    (antipode, "antipode_map"),
    (coalgebra, "leg_algebra"),
    (tensor, "span_matrices"),
    (tensor, "tensor_fit"),
)


@pytest.fixture
def calls(monkeypatch):
    """Counts calls of the COUNTED functions, of numpy's SVD, of
    KappaSolver, PositiveEig, TensorSquare and LegWords construction, and
    of span_matrices inside c_star_bases.

    Each function is rebound wherever an mpi_lab module holds it, so
    calls through imported names are counted too.  The SVD is counted
    through both of numpy's bindings: np.linalg.svd, and the one in
    numpy.linalg._linalg that np.linalg.norm(x, 2) calls."""
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
    svd = counting("svd", np.linalg.svd)
    monkeypatch.setattr(np.linalg, "svd", svd)
    monkeypatch.setattr(np.linalg._linalg, "svd", svd)
    for cls in (base_algebra.KappaSolver, tensor.PositiveEig, coalgebra.TensorSquare,
                tensor.LegWords):
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
    # gamma_N of N's basis and of sigma_{-i/2} of it in the base structure,
    # which the polar, S_B and anti-multiplicativity entries read; of the
    # basis' pair products in the anti-multiplicativity entry
    assert first["gamma_n_stack"] == 3
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
    # one leg-word engine per ambient space that a check evaluates words
    # on: the axioms of W; one for cond3a and one for cond3b of W; and one
    # for hash3.  The E-leg entries of W and of W-hat, hash1 and hash2 take
    # their bounds from the axiom gaps, and W-hat's cond3a and cond3b from
    # W's, so neither side of the coalgebra level builds one, nor W-hat's
    # certificate
    assert first["LegWords"] == 4
    assert first["tensor_fit"] == 12 + 2
    # each slice stack is factored once: fullness and the five antipode
    # maps read the SVDs of the four leg algebras, and no span of Rtilde's
    # images is taken; 6 of the SVDs are spectral norms, ||W||_2 in the
    # axioms and one in each antipode map.  ||Wtilde||_2 enters the bounds
    # on W-hat's cond3a and cond3b only through the formula gap D, which
    # is 0 here, so it is not taken
    assert first["svd"] == 46
    # nothing survives the call: a second run on the same W does it all again
    calls.clear()
    run_suite(w_pair2, level="all")
    assert dict(calls) == first


def test_failing_axioms_factor_nothing(calls):
    # fullness gates only the levels after the axioms, so a W that fails
    # them builds no leg algebra, takes one SVD (||W||_2, singular values
    # only) and reports no fullness
    w = corpus.group_mpu(corpus.cyclic_table(4))
    z = np.random.default_rng(2).standard_normal(w.matrix.shape)
    rep = run_suite(tensor.Operator(w.space, w.matrix + 1e-3 * z), level="all")
    assert not rep.overall_pass
    assert [s["level"] for s in rep.skips] == list(runner.LEVELS[1:])
    assert calls["leg_algebra"] == 0 and calls["svd"] == 1
    assert "fullness" not in rep.properties and "nondegenerately_full" not in rep.properties


def test_axioms_only_run_assesses_no_fullness(calls):
    # fullness gates only the levels after the axioms, so a W that passes
    # them in a run at level "axioms" builds no leg algebra, takes one SVD
    # (||W||_2, singular values only) and reports no fullness; a run that
    # goes on reports it
    z4 = corpus.group_mpu(corpus.cyclic_table(4))
    w = corpus.conjugate_fixture(z4, corpus.random_unitary(4, np.random.default_rng(2)))
    rep = run_suite(w, level="axioms")
    assert rep.overall_pass and rep.skips == []
    assert calls["leg_algebra"] == 0 and calls["svd"] == 1
    assert "fullness" not in rep.properties and "nondegenerately_full" not in rep.properties
    rep = run_suite(w, level="coalgebra")
    assert rep.properties["nondegenerately_full"] is True
    assert rep.properties["fullness"]["nondeg_A_range"] is True


def test_density_spans_of_a_fixture_not_full_refit_nothing(w_example, monkeypatch):
    # the density spans of a fixture that is not full are not reported, so
    # no family is refit for them: after the level, each side's square
    # holds dense fits only for the families its membership entries
    # escalate (example's range entries escalate none), and the density
    # ranks in coalgebra_dims_* are those of the escalated fits
    squares = []

    class Recorded(coalgebra.TensorSquare):
        def __init__(self, fx):
            super().__init__(fx)
            squares.append(self)

    monkeypatch.setattr(runner, "TensorSquare", Recorded)
    rep = run_suite(w_example, level="coalgebra")
    assert rep.properties["nondegenerately_full"] is False
    assert not any(e.check_id.startswith("density_") for e in rep.entries)
    for side, sq in zip(("primal", "dual"), squares, strict=True):
        fresh = coalgebra.TensorSquare(sq.fx)
        coalgebra.check_canonical_idempotent(fresh)
        for key in ("a1_deltab", "deltaa_1b", "deltaa_b1", "1a_deltab"):
            fresh.membership(key)
        assert sq._dense == fresh._dense, side
        escalated = coalgebra.check_delta_range_and_density(coalgebra.TensorSquare(sq.fx))
        assert rep.properties[f"coalgebra_dims_{side}"] == escalated.dims, side
    assert squares[0]._dense == {"bc_E", "a1_deltab", "1a_deltab"}
