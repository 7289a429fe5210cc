import math

import numpy as np
import pytest

from mpi_lab import axioms, corpus, tensor
from mpi_lab.axioms import IDENTITY_WORDS, check_mpi_axioms
from mpi_lab.coalgebra import (
    E_LEG_WORDS,
    TensorSquare,
    check_canonical_idempotent,
    check_delta_range_and_density,
    coassociativity_residual,
    duality_consistency,
    leg_algebra,
    _coassoc_residuals,
    _comul_stack,
    _homomorphism_gap,
)
from mpi_lab.context import Fixture
from mpi_lab.runner import run_suite
from mpi_lab.tensor import (
    RESIDUAL_TOL,
    LegWords,
    Operator,
    identity,
    space,
    span_matrices,
)
from word_references import complex_storage, kron_word


def unit(n, i, j):
    m = np.zeros((n, n))
    m[i - 1, j - 1] = 1.0
    return m


class TestLegAlgebra:
    def test_example_A(self, w_example):
        alg = leg_algebra(Fixture(w_example), "A")
        assert alg.dim == 2
        assert not alg.unital
        assert alg.stack_residual(unit(2, 2, 1)[None]) < RESIDUAL_TOL
        assert alg.stack_residual(unit(2, 2, 2)[None]) < RESIDUAL_TOL
        # A is an algebra but not star-closed for this fixture
        assert alg.product_residual < 1e-12
        assert not alg.star_closed

    def test_example_Ahat(self, w_example):
        alg = leg_algebra(Fixture(w_example), "Ahat")
        assert alg.unital
        res = alg.equals(
            # span{e11, e22}
            __import__("mpi_lab.tensor", fromlist=["span"]).span(
                [
                    Operator(space(2), unit(2, 1, 1)),
                    Operator(space(2), unit(2, 2, 2)),
                ]
            )
        )
        assert res < 1e-13

    def test_identity_w(self):
        alg = leg_algebra(Fixture(identity(space(2, 2))), "A")
        assert alg.dim == 1 and alg.unital

    def test_astar_is_adjoint_span(self, w_example):
        # the slices of W* are those of W-hat = Sigma W* Sigma with the
        # sides swapped: A* is the dual context's A-hat, A-hat* its A
        fx = Fixture(w_example)
        for alg, star in ((fx.A, fx.dual.Ahat), (fx.Ahat, fx.dual.A)):
            adj_span = span_matrices(alg.space, alg.stack.conj().transpose(0, 2, 1))
            assert star.equals(adj_span) < RESIDUAL_TOL


class TestComul:
    def test_primal_unit_gives_E(self, w_example):
        e = _comul_stack(Fixture(w_example), np.eye(2)[None])[0]
        expected = np.kron(unit(2, 1, 1), unit(2, 1, 1)) + np.kron(
            unit(2, 2, 2), unit(2, 2, 2)
        )
        np.testing.assert_allclose(e, expected)

    def test_primal_identity_operator(self):
        w = identity(space(2, 2))
        x = np.array([[1.0, 2.0], [0.5, -1.0]])
        got = _comul_stack(Fixture(w), x[None])[0]
        np.testing.assert_allclose(got, np.kron(np.eye(2), x))

    def test_star_map(self):
        # Delta(x*) = Delta(x)* for every W, so the report does not measure
        # it; here it pins that Delta conjugates by W* and W, on a dense W
        rng = np.random.default_rng(0)
        z = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        xs = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
        fx = Fixture(Operator(space(3, 3), z))
        got = _comul_stack(fx, xs.conj().transpose(0, 2, 1))
        want = _comul_stack(fx, xs).conj().transpose(0, 2, 1)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-12)
        np.testing.assert_allclose(
            got[0], z.conj().T @ np.kron(np.eye(3), xs[0].conj().T) @ z, atol=1e-12
        )

    def test_dual_unit_gives_flipped_G(self, w_example):
        e = _comul_stack(Fixture(w_example).dual, np.eye(2)[None])[0]
        expected = np.kron(np.eye(2), unit(2, 2, 2))  # Sigma G Sigma = 1 (x) e22
        np.testing.assert_allclose(e, expected)

    def test_duality_consistency(self, corpus_fixtures):
        for w in corpus_fixtures.values():
            assert duality_consistency(Fixture(w)) < 1e-12

    def test_duality_consistency_detects_dropped_flip(self, w_z3, monkeypatch):
        # W-hat is built once, in the fixture context; taking W* for it
        # (no flip) must show against the independent Sigma W(x (x) 1)W* Sigma
        from mpi_lab import context

        monkeypatch.setattr(context, "what", lambda v: v.adj)
        assert duality_consistency(Fixture(w_z3)) > 1e-3


def entrywise_coassoc_residuals(w):
    """Reference: the relative gap of (Delta (x) id)Delta(e_kl) and
    (id (x) Delta)Delta(e_kl) for every (k, l), from plain kron products,
    as D_kl = A_k^H A_l - B_k^H B_l with A_k, B_k the rows (m, k) of
    U = W23 W12 and V = W13 W23."""
    n = w.space.legs[0].dim
    wm, eye = w.matrix, np.eye(n)
    w12 = np.kron(wm, eye)
    w23 = np.kron(eye, wm)
    w13 = np.einsum("acbd,ef->aecbfd", wm.reshape(n, n, n, n), eye).reshape(n**3, n**3)
    a = (w23 @ w12).reshape(n * n, n, -1)
    b = (w13 @ w23).reshape(n * n, n, -1)
    out = np.empty((n, n))
    for k in range(n):
        for l in range(n):
            lhs = a[:, k].conj().T @ a[:, l]
            diff = lhs - b[:, k].conj().T @ b[:, l]
            out[k, l] = np.linalg.norm(diff) / max(1.0, np.linalg.norm(lhs))
    return out


def generic_unitary(seed=99):
    # a generic two-leg unitary is not multiplicative and fails
    # coassociativity by O(1)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return Operator(space(2, 2), np.linalg.qr(z)[0])


def generic_operator(seed=5):
    # not even a partial isometry: the denominators ||A_k^H A_l|| exceed 1
    # and differ from one (k, l) to the next
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    return Operator(space(3, 3), z)


def assert_matches_reference(w):
    fx = Fixture(w)
    for side in (fx, fx.dual):
        want = entrywise_coassoc_residuals(side.w)
        np.testing.assert_allclose(_coassoc_residuals(side), want, rtol=0, atol=1e-14)
        assert abs(coassociativity_residual(side) - want.max()) < 1e-14


class TestCoassociativity:
    def test_example_matrix_units(self, w_example):
        assert coassociativity_residual(Fixture(w_example)) < 1e-14

    def test_example_oracle_direct_eight_by_eight(self, w_example):
        # oracle: plain kron products, no leg machinery
        wm = w_example.matrix
        w12 = np.kron(wm, np.eye(2))
        w23 = np.kron(np.eye(2), wm)
        for i in (1, 2):
            for j in (1, 2):
                x = unit(2, i, j)
                dx = wm.conj().T @ np.kron(np.eye(2), x) @ wm
                lhs = w12.conj().T @ np.kron(np.eye(2), dx) @ w12
                rhs = w23.conj().T @ w13_embed(dx) @ w23
                assert np.linalg.norm(lhs - rhs) < 1e-14

    def test_identity_w(self):
        assert coassociativity_residual(Fixture(identity(space(2, 2)))) < 1e-15

    def test_z3_small_residual(self, w_z3):
        assert coassociativity_residual(Fixture(w_z3)) < 1e-12

    def test_matches_entrywise_reference(self, w_example, w_z3, w_pair2):
        for w in (w_example, w_z3, w_pair2, generic_unitary(), generic_operator()):
            assert_matches_reference(w)

    def test_detects_violation_like_reference(self):
        u = generic_unitary()
        assert coassociativity_residual(Fixture(u)) > 1e-3
        assert_matches_reference(u)

    def test_dense_conjugated_fixtures_exact(self):
        # unitary conjugation makes W dense; a squared-norm (Gram)
        # evaluation floors near 3e-8 there and FAILs at tol 1e-9
        rng = np.random.default_rng(7)
        for w in (
            corpus.group_mpu(corpus.cyclic_table(7)),
            corpus.groupoid_mpi(corpus.pair_groupoid(3)),
        ):
            wc = corpus.conjugate_fixture(w, corpus.random_unitary(w.space.legs[0].dim, rng))
            fx = Fixture(wc)
            both = max(coassociativity_residual(fx), coassociativity_residual(fx.dual))
            assert both < 1e-13
            assert_matches_reference(wc)

    def test_both_sides(self, w_pair2):
        fx = Fixture(w_pair2)
        assert max(coassociativity_residual(fx), coassociativity_residual(fx.dual)) < 1e-12

    def test_real_w_matches_complex_storage(self, monkeypatch):
        # a real W gives real U, V and R factors, whose conj() is the array
        # itself, so R_k J must not be formed in place: a real orthogonal W
        # on C^2 (x) C^2 and a real Gaussian on C^3 (x) C^3 fail
        # coassociativity by O(1) and give the gaps of complex storage
        rng = np.random.default_rng(17)
        for m in (np.linalg.qr(rng.standard_normal((4, 4)))[0], rng.standard_normal((9, 9))):
            n = math.isqrt(len(m))
            w = Operator(space(n, n), m)
            assert w.matrix.dtype == np.float64
            with monkeypatch.context() as patch:
                complex_storage(patch)
                want = _coassoc_residuals(Fixture(Operator(space(n, n), m)))
            assert want.max() > 0.1
            np.testing.assert_allclose(_coassoc_residuals(Fixture(w)), want,
                                       rtol=1e-12, atol=1e-14)

    def test_traced_peak_on_z10(self):
        # chain fills U and V from column blocks in W's dtype, float64 for
        # the 0/1 W of Z_10, and U, V go once the R factors exist: the peak
        # is U, V (2 n^6 real entries), the n R factors (4 n^5) and one QR
        # input with numpy's copy of it (4 n^5), 21.5 MiB; 42.9 MiB when U
        # and V were complex
        import tracemalloc

        w = corpus.group_mpu(corpus.cyclic_table(10))
        tracemalloc.start()
        try:
            coassociativity_residual(Fixture(w))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 25 * 2**20, peak / 2**20


def perturbed(w, eps, seed):
    """W plus a complex Gaussian perturbation of relative Frobenius size eps."""
    rng = np.random.default_rng(seed)
    m = w.matrix
    z = rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape)
    return Operator(w.space, m + eps * np.linalg.norm(m) / np.linalg.norm(z) * z)


def random_partial_isometry(n, rank, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((2, n * n, n * n)) + 1j * rng.standard_normal((2, n * n, n * n))
    u, v = np.linalg.qr(z)[0]
    return Operator(space(n, n), u @ np.diag([1.0] * rank + [0.0] * (n * n - rank)) @ v)


def bound_cases(w_z4, w_pair2):
    """Candidates off the axioms by 1e-16 to O(1): perturbed, scaled, random
    partial isometries, and W cut by a projection on one leg, which for
    some projections leaves the mpi6 gap the only nonzero one."""
    cases = {f"{name}_eps{eps:g}": perturbed(w, eps, seed)
             for seed, (name, w) in enumerate((("z4", w_z4), ("pair2", w_pair2)))
             for eps in (1e-1, 1e-3)}
    cases["z4_conj"] = corpus.conjugate_fixture(
        w_z4, corpus.random_unitary(4, np.random.default_rng(3)))
    cases.update({f"pair2_times_{c}": Operator(w_pair2.space, c * w_pair2.matrix)
                  for c in (0.5, 0.9, 1.1, 1.5)})
    cases.update({f"random_pi_{n}_{r}": random_partial_isometry(n, r, seed)
                  for seed, (n, r) in enumerate(((2, 1), (2, 3), (3, 4)))})
    eye = np.eye(4)
    for diag in ((1, 0, 0, 0), (1, 0, 1, 0), (1, 1, 1, 0)):
        p = np.diag(np.array(diag, float))
        cases[f"pair2_W_P1_{diag}"] = Operator(w_pair2.space, w_pair2.matrix @ np.kron(p, eye))
        cases[f"pair2_1P_W_{diag}"] = Operator(w_pair2.space, np.kron(eye, p) @ w_pair2.matrix)
    return cases


def absolute_gaps(w):
    """The exact Frobenius gaps of W W* W = W, mpi5 and mpi6 that the
    coassociativity bound covers, both sides of each identity taken as
    dense matrices."""
    fx = Fixture(w)
    m = w.matrix
    out = {"pi": np.linalg.norm(m @ m.conj().T @ m - m)}
    for name in ("mpi5", "mpi6"):
        left, right = (kron_word(fx.three_leg, {"W": fx.w, "W*": fx.ws}, word)
                       for word in IDENTITY_WORDS[name])
        out[name] = np.linalg.norm(left - right)
    return out


class TestCoassociativityBound:
    def test_bound_covers_exact_on_both_sides(self, w_z4, w_pair2):
        # at tol = inf every verdict passes and no identity stops early, so
        # each carries its bound, which must cover the exact residual of
        # W and of W-hat alike
        for name, w in bound_cases(w_z4, w_pair2).items():
            fx = Fixture(w, tol=np.inf)
            beta = check_mpi_axioms(fx).bounds["coassociativity"]
            assert math.isfinite(beta), name
            for side in (fx, fx.dual):
                assert _coassoc_residuals(side).max() <= beta, name

    def test_mpi6_term_is_needed(self, w_pair2):
        # W (P (x) 1) for a rank-one P: mpi5 and W W* W = W hold exactly,
        # and only the mpi6 gap carries the dual side's O(1) failure
        p = np.diag([1.0, 0.0, 0.0, 0.0])
        w = Operator(w_pair2.space, w_pair2.matrix @ np.kron(p, np.eye(4)))
        gaps = absolute_gaps(w)
        assert gaps["pi"] == gaps["mpi5"] == 0.0 < gaps["mpi6"]
        loose = Fixture(w, tol=np.inf)
        assert _coassoc_residuals(loose.dual).max() == pytest.approx(1.0)
        assert check_mpi_axioms(loose).bounds["coassociativity"] >= 1.0

    def test_dual_has_the_same_gaps(self, w_z4):
        w = perturbed(w_z4, 1e-3, 11)
        primal, dual = absolute_gaps(w), absolute_gaps(Fixture(w).dual.w)
        for name in primal:
            assert primal[name] > 1e-5, name
            assert dual[name] == pytest.approx(primal[name], rel=1e-10), name
        loose = Fixture(w, tol=np.inf)
        assert check_mpi_axioms(loose.dual).bounds["coassociativity"] == (
            pytest.approx(check_mpi_axioms(loose).bounds["coassociativity"], rel=1e-10))

    def test_bound_below_tol_is_the_entry(self, w_z3):
        fx = Fixture(w_z3, tol=1e-9)
        exact = _coassoc_residuals(fx).max()
        assert coassociativity_residual(fx, 1e-12) == 1e-12
        for bound in (1e-9, 1e-3, math.inf, math.nan):
            assert coassociativity_residual(fx, bound) == exact

    def test_escalates_when_bound_reaches_tol(self, w_z3):
        # a tol between the worst axiom residual and the bound: the axioms
        # pass, the bound does not decide, and both entries are exact
        w = perturbed(w_z3, 1e-6, 5)
        v = check_mpi_axioms(Fixture(w, tol=np.inf))
        worst = max(v.pi_residual, *v.mpi_residuals.values())
        tol = math.sqrt(worst * v.bounds["coassociativity"])
        fx = Fixture(w, tol=tol)
        at_tol = check_mpi_axioms(fx)
        assert at_tol.passed and tol <= at_tol.bounds["coassociativity"] < math.inf
        rep = run_suite(w, level="coalgebra", tol=tol)
        res = {e.check_id: e.residual for e in rep.entries}
        for side, sfx in (("primal", fx), ("dual", fx.dual)):
            assert res[f"coassociativity_{side}"] == _coassoc_residuals(sfx).max()
            assert res[f"coassociativity_{side}"] < at_tol.bounds["coassociativity"]

    def test_escalates_when_mpi5_or_mpi6_stopped_early(self, w_z3, monkeypatch):
        # with no margin, every identity whose first column block shows a
        # gap stops there; its lower bound passes at tol, but the partial
        # mpi5 and mpi6 gaps bound nothing, so both sides are taken exactly
        monkeypatch.setattr(tensor, "BLOCK_ENTRIES", 7 * 27)
        monkeypatch.setattr(axioms, "FAIL_MARGIN", 0.0)
        w = perturbed(w_z3, 1e-12, 2)
        fx = Fixture(w)
        v = check_mpi_axioms(fx)
        assert v.passed and {"mpi5", "mpi6"} <= set(v.lower_bounds)
        assert "coassociativity" not in v.bounds
        res = {e.check_id: e.residual for e in run_suite(w, level="coalgebra").entries}
        for side, sfx in (("primal", fx), ("dual", fx.dual)):
            assert res[f"coassociativity_{side}"] == _coassoc_residuals(sfx).max()

    @pytest.mark.parametrize("stopped", ["mpi1", "mpi2", "mpi3", "mpi4"])
    def test_no_bound_when_an_axiom_stopped_early(self, w_z3, monkeypatch, stopped):
        # with no margin, and every identity but one given an infinite norm
        # bound, only that axiom stops after the first column block that
        # shows its gap; its lower bound passes at tol, but a partial axiom
        # gap bounds nothing, so no bound is formed and every derived,
        # coassociativity and E-leg entry is exact
        monkeypatch.setattr(tensor, "BLOCK_ENTRIES", 7 * 27)
        monkeypatch.setattr(axioms, "FAIL_MARGIN", 0.0)
        norm_bounds = axioms.lhs_norm_bounds
        monkeypatch.setattr(axioms, "lhs_norm_bounds", lambda m, s: {
            name: b if name == stopped else math.inf for name, b in norm_bounds(m, s).items()})
        w = perturbed(w_z3, 1e-12, 2)
        fx = Fixture(w)
        v = check_mpi_axioms(fx)
        assert v.passed and v.lower_bounds == (stopped,)
        assert v.bounds == {}
        exact = LegWords(fx.three_leg, {"W": fx.w, "W*": fx.ws, "E": fx.e},
                         {**IDENTITY_WORDS, **E_LEG_WORDS}).residuals()
        for name in axioms.DERIVED_IDENTITIES:
            assert v.derived_residuals[name] == exact[name], name
        res = {e.check_id: e.residual for e in run_suite(w, level="coalgebra").entries}
        for name in E_LEG_WORDS:
            assert res[f"{name}_primal"] == exact[name], name
        for side, sfx in (("primal", fx), ("dual", fx.dual)):
            assert res[f"coassociativity_{side}"] == _coassoc_residuals(sfx).max()


def w13_embed(two_leg_matrix):
    """Embed a 4x4 two-leg matrix on legs (1,3) of a 2,2,2 space."""
    t = two_leg_matrix.reshape(2, 2, 2, 2)
    out = np.einsum("imjp,kl->ikmjlp", t, np.eye(2))
    return out.reshape(8, 8)


class TestCanonicalIdempotent:
    def test_refits_when_the_reduced_entry_is_within_the_margin(self, w_z3, monkeypatch):
        # a tol between a reduced entry and twice it: the entry comes in
        # below tol but not FAIL_MARGIN below, so its family is refit member
        # by member; a margin-free rule would keep the reduced bound
        reduced = TensorSquare(Fixture(w_z3, tol=np.inf)).membership("E_bc")
        assert reduced > 0.0
        tol = 1.5 * reduced

        def refits() -> bool:
            sq = TensorSquare(Fixture(w_z3, tol=tol))
            sq.membership("E_bc")
            return sq._dense == {"E_bc"}

        assert refits()
        monkeypatch.setattr(axioms, "FAIL_MARGIN", 1.0)  # the margin-free mutant
        assert not refits()

    def test_example_all_zero(self, w_example):
        res = check_canonical_idempotent(TensorSquare(Fixture(w_example)))
        assert max(res.values()) < 1e-13, res

    def test_identity_w(self):
        res = check_canonical_idempotent(TensorSquare(Fixture(identity(space(2, 2)))))
        assert max(res.values()) < 1e-14

    def test_pair_groupoid(self, w_pair2):
        res = check_canonical_idempotent(TensorSquare(Fixture(w_pair2)))
        assert max(res.values()) < 1e-11, res

    def test_e_legs_oracle(self, w_z2):
        # direct evaluation of (E (x) 1)(1 (x) E) vs W12*W23*W23W12
        e = (w_z2.adj @ w_z2).matrix
        lhs = np.kron(e, np.eye(2)) @ np.kron(np.eye(2), e)
        wm = w_z2.matrix
        w12 = np.kron(wm, np.eye(2))
        w23 = np.kron(np.eye(2), wm)
        rhs = w12.conj().T @ w23.conj().T @ w23 @ w12
        assert np.linalg.norm(lhs - rhs) < 1e-13

    def test_e_legs_match_dense_reference(self):
        # a generic W is no MPI, so both E-leg residuals are O(1); the leg
        # words must reproduce the dense (E (x) 1)(1 (x) E) evaluation
        rng = np.random.default_rng(5)
        n = 3
        w = Operator(
            space(n, n),
            rng.standard_normal((n * n, n * n)) + 1j * rng.standard_normal((n * n, n * n)),
        )
        wm, eye = w.matrix, np.eye(n)
        e = wm.conj().T @ wm
        e1, e2 = np.kron(e, eye), np.kron(eye, e)
        w12, w23 = np.kron(wm, eye), np.kron(eye, wm)
        form = w12.conj().T @ w23.conj().T @ w23 @ w12

        def rel(lhs, rhs):
            return np.linalg.norm(lhs - rhs) / max(1.0, np.linalg.norm(lhs))

        want = {
            "E_legs_commute": rel(e1 @ e2, e2 @ e1),
            "E_legs_product_form": rel(e1 @ e2, form),
        }
        got = check_canonical_idempotent(TensorSquare(Fixture(w)))
        for key, ref in want.items():
            assert ref > 0.1, (key, ref)
            np.testing.assert_allclose(got[key], ref, rtol=1e-12, err_msg=key)

    def test_traced_peak_on_z8(self):
        # the E-leg words run on column blocks and each fit subtracts its
        # projection in place; the tracemalloc peak of one call, context
        # prepared, stays below the 34.6 MiB it took with dense words
        import tracemalloc

        fx = Fixture(corpus.group_mpu(corpus.cyclic_table(8)))
        fx.A, fx.Ahat, fx.e, fx.g  # built before tracing: they belong to the context
        tracemalloc.start()
        try:
            check_canonical_idempotent(TensorSquare(fx))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 34 * 2**20, peak / 2**20


def homomorphism_cases():
    """(name, W, the unperturbed fixture's W): example, Z_3,
    pair_groupoid(2) and pair_groupoid(3), each perturbed by 1e-7, 1e-4 and
    0.1, and each scaled by 0.5 and 1.1 (an MPI times c, whose G commutes
    with 1 (x) A, so that its whole gap is the W W* W - W term)."""
    bases = {"example": corpus.matrix_unit_example(),
             "z3": corpus.group_mpu(corpus.cyclic_table(3)),
             "pair2": corpus.groupoid_mpi(corpus.pair_groupoid(2)),
             "pair3": corpus.groupoid_mpi(corpus.pair_groupoid(3))}
    for i, (name, w0) in enumerate(bases.items()):
        for j, eps in enumerate((1e-7, 1e-4, 0.1)):
            yield f"{name}+{eps:g}", perturbed(w0, eps, 10 * i + j), w0
        for c in (0.5, 1.1):
            yield f"{name}*{c:g}", Operator(w0.space, c * w0.matrix), w0


def commutator_norms(fx, basis):
    """||[G, 1 (x) c]||_F for each c of a basis, G = W W*, dense."""
    g = fx.g.matrix
    return [np.linalg.norm(x @ g - g @ x) for x in np.kron(np.eye(fx.n), basis)]


def homomorphism_bound(bounds, fx, basis):
    """The delta_homomorphism bound from MpiVerdict.bounds and the dense
    commutators with 1 (x) A over ``basis``."""
    return (bounds["delta_homomorphism"]
            + bounds["delta_homomorphism_per_commutator"]
            * max(commutator_norms(fx, basis), default=0.0))


class TestHomomorphismBound:
    """Delta(b)Delta(c) - Delta(bc) = W*(1 (x) b)[G, 1 (x) c]W + W*(1 (x) bc)(W W* W - W),
    so on an HS-orthonormal basis of A the entry is at most
    s^2 max_c ||[G, 1 (x) c]||_F + s ||W W* W - W||_F, s = ||W||_2, on W's
    side and, with W-hat's G and basis, on W-hat's."""

    @pytest.mark.parametrize("name, w, w0", list(homomorphism_cases()),
                             ids=[case[0] for case in homomorphism_cases()])
    def test_bound_covers_the_gap(self, name, w, w0):
        # A's basis from the unperturbed fixture and from W's own A; the
        # own basis of a perturbed pair_groupoid(3) is all of M_9 (81
        # members, 1.1 s a side), so it takes the unperturbed basis only
        bounds = check_mpi_axioms(Fixture(w, tol=np.inf)).bounds
        fx, fx0 = Fixture(w), Fixture(w0)
        for sfx, sfx0 in ((fx, fx0), (fx.dual, fx0.dual)):
            own = sfx.A.stack if sfx.A.dim <= 16 else None
            for basis in (sfx0.A.stack, own):
                if basis is None:
                    continue
                gap = _homomorphism_gap(sfx, basis)
                assert gap <= homomorphism_bound(bounds, sfx, basis) * (1 + 1e-12) + 1e-13, name

    def test_the_pi_term_is_needed(self):
        # an MPI times 0.5 has G commuting with 1 (x) A, so only the
        # W W* W - W term carries its gap
        w0 = corpus.groupoid_mpi(corpus.pair_groupoid(2))
        fx = Fixture(Operator(w0.space, 0.5 * w0.matrix))
        assert max(commutator_norms(fx, fx.A.stack)) < 1e-15
        assert _homomorphism_gap(fx, fx.A.stack) > 0.1

    @pytest.mark.parametrize("name", ["z3+1e-07", "pair2+0.0001", "example+0.1", "z3*1.1"])
    def test_entry_is_the_bound(self, name):
        # at tol = inf every finite bound decides: the entry of each side is
        # the bound on that side's own basis, from W's s and W W* W - W gap
        w = next(case[1] for case in homomorphism_cases() if case[0] == name)
        fx = Fixture(w, tol=np.inf)
        bounds = check_mpi_axioms(fx).bounds
        for sfx in (fx, fx.dual):
            got = check_canonical_idempotent(TensorSquare(sfx), bounds)["delta_homomorphism"]
            assert got == pytest.approx(homomorphism_bound(bounds, sfx, sfx.A.stack),
                                        rel=1e-12), name

    def test_undecided_bound_evaluates_the_gap(self, monkeypatch):
        # without bounds, or with one that does not come in FAIL_MARGIN
        # below tol, the entry is the exact gap
        w = perturbed(corpus.group_mpu(corpus.cyclic_table(3)), 1e-4, 3)
        fx = Fixture(w)
        bounds = check_mpi_axioms(Fixture(w, tol=np.inf)).bounds
        want = _homomorphism_gap(fx, fx.A.stack)
        for b in (None, bounds):
            assert check_canonical_idempotent(TensorSquare(fx), b)["delta_homomorphism"] == want


class TestRangeAndDensity:
    def test_example(self, w_example):
        # Oracle (by hand): Delta(e21) = e21 (x) e21, Delta(e22) = e22 (x) e22.
        # The two right-multiplied density families collapse because
        # Delta(e21) kills A (x) A from the right: span{e22}, dim 1.  The
        # fixture is not full, so the density statement does not apply; the
        # frozen dims below are the oracle values, not dim A across the board.
        rep = check_delta_range_and_density(TensorSquare(Fixture(w_example)))
        non_density = {
            k: v for k, v in rep.residuals.items() if not k.startswith("density_")
        }
        assert max(non_density.values()) < 1e-12, non_density
        assert rep.dims["A"] == 2
        assert rep.dims["range_span"] == 4 and rep.dims["E_A2_span"] == 4
        assert rep.dims["density_left_a1_db"] == 2
        assert rep.dims["density_right_da_1b"] == 1
        assert rep.dims["density_left_db_a1"] == 1
        assert rep.dims["density_right_1b_da"] == 2

    def test_example_density_oracle(self, w_example):
        # independent span computation for the collapsing family:
        # (Delta a)(1 (x) b) over a, b in {e21, e22} leaves only e22-slices
        e21, e22 = unit(2, 2, 1), unit(2, 2, 2)
        wm = w_example.matrix
        members = []
        for a in (e21, e22):
            da = wm.conj().T @ np.kron(np.eye(2), a) @ wm
            for b in (e21, e22):
                prod = da @ np.kron(np.eye(2), b)
                t = prod.reshape(2, 2, 2, 2)
                for p in range(2):
                    for q in range(2):
                        members.append(t[:, q, :, p].ravel())  # right slices
        rank = np.linalg.matrix_rank(np.array(members), tol=1e-10)
        assert rank == 1

    def test_identity_w(self):
        rep = check_delta_range_and_density(TensorSquare(Fixture(identity(space(2, 2)))))
        assert max(rep.residuals.values()) < 1e-13
        assert rep.dims["A"] == 1
        assert rep.dims["density_left_a1_db"] == 1

    def test_z2_density_dims(self, w_z2):
        rep = check_delta_range_and_density(TensorSquare(Fixture(w_z2)))
        assert max(rep.residuals.values()) < 1e-12
        assert rep.dims["A"] == 2
        assert all(
            rep.dims[k] == 2
            for k in rep.dims
            if k.startswith("density_")
        )

    def test_pair_groupoid(self, w_pair2):
        rep = check_delta_range_and_density(TensorSquare(Fixture(w_pair2)))
        assert max(rep.residuals.values()) < 1e-11, rep.residuals

    def test_traced_peak_on_z8(self):
        # the coordinates never form the dim(A)^3 products Delta(a)(b (x) c)
        # as n^4-entry matrices (138 MiB at Z_8 when they did); the
        # tracemalloc peak of one call, context prepared, stays below 64 MiB
        import tracemalloc

        fx = Fixture(corpus.group_mpu(corpus.cyclic_table(8)))
        fx.A, fx.e  # built before tracing: they belong to the context
        tracemalloc.start()
        try:
            check_delta_range_and_density(TensorSquare(fx))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, peak / 2**20
