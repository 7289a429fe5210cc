from functools import cache

import numpy as np
import pytest

from mpi_lab import corpus
from mpi_lab.antipode import (
    antipode_map,
    check_antipode,
    check_base_restrictions,
    check_duality,
    extend,
    tau,
)
from mpi_lab.context import Fixture, what
from mpi_lab.manageability import build_wtilde, check_manageability, dual_manageability
from mpi_lab.runner import builtin_corpus
from mpi_lab.tensor import (
    RANK_TOL,
    RESIDUAL_TOL,
    Operator,
    adjoint,
    all_left_slices,
    all_right_slices,
    identity,
    max_gap,
    rel_residual,
    rows,
    slice_matrix,
    space,
    spectral_norm,
    transpose_grid,
)
from test_coalgebra import perturbed, skewed_candidates
from word_references import _assemble, w_transpose_rhat


def ra_map(fx, wt):
    """R_A on the dual context's A-hat, spanned by the right slices of W*,
    as check_antipode builds it."""
    return extend(fx.dual.Ahat, all_right_slices(wt).transpose(0, 2, 1))


def dual_maps(fx, wt):
    """(S-hat^{-1}, R_Ahat) on A-hat, as the dual-only entries that
    restated W-hat's antipode level built them (``deleted_dual_entries``)."""
    rahat_outs = transpose_grid(all_left_slices(wt.adj))
    return extend(fx.Ahat, fx.dual.right_slices), extend(fx.Ahat, rahat_outs)


def unit(n, i, j):
    m = np.zeros((n, n))
    m[i - 1, j - 1] = 1.0
    return Operator(space(n), m)


def q_eye(n):
    return identity(space(n))


class TestTau:
    def test_identity_q(self, w_example):
        a = unit(2, 1, 2)
        got = tau(Fixture(w_example), q_eye(2), 0.37 - 0.2j, a.matrix)
        np.testing.assert_allclose(got, a.matrix, atol=1e-12)

    def test_diagonal_q_real_t(self, w_example):
        q = Operator(space(2), np.diag([1.0, 2.0]))
        a = unit(2, 1, 2)
        t = 0.7
        got = tau(Fixture(w_example), q, t, a.matrix)
        # tau_t(e12) = (q1/q2)^{2it} e12 = 2^{-2it} e12
        phase = np.exp(-2j * t * np.log(2.0))
        np.testing.assert_allclose(got, phase * a.matrix, atol=1e-12)

    def test_diagonal_q_analytic_point(self, w_example):
        q = Operator(space(2), np.diag([1.0, 2.0]))
        a = unit(2, 1, 2)
        got = tau(Fixture(w_example), q, -0.5j, a.matrix)
        # tau_{-i/2}(a) = Q a Q^{-1} = (1/2) e12
        np.testing.assert_allclose(got, 0.5 * a.matrix, atol=1e-12)


class TestAntipodeGenerators:
    def test_z3_group_inversion(self, w_z3):
        # S(sum c_g e_gg) = sum c_{-g} e_gg, exactly
        n = 3
        # the generator pairs ((id (x) w)(W), (id (x) w)(W*)), w = w_{e_h,e_h'}
        gens = zip(all_right_slices(w_z3), all_right_slices(w_z3.adj))
        for (h, hp), (a, s_a) in zip(np.ndindex(n, n), gens):
            # a = e_{c,c} with c = hp - h; S(a) = e_{-c,-c}
            c = (hp - h) % n
            expected_a = np.zeros((n, n))
            expected_a[c, c] = 1.0
            expected_s = np.zeros((n, n))
            expected_s[(-c) % n, (-c) % n] = 1.0
            np.testing.assert_allclose(a, expected_a, atol=1e-14)
            np.testing.assert_allclose(s_a, expected_s, atol=1e-14)

    def test_identity_w(self):
        w = identity(space(2, 2))
        f = np.outer([1.0, 0.5], [0.2, 1.0])  # density of w_{a,b}, b real
        a, s_a = (slice_matrix(m, 2, 2, "right", f) for m in (w.matrix, w.adj.matrix))
        np.testing.assert_allclose(a, s_a)

    def test_z2_self_inverse(self, w_z2):
        # every element of Z/2 is its own inverse, so S = id on A
        s_map = antipode_map(Fixture(w_z2))
        bs = s_map.domain.stack
        np.testing.assert_allclose(s_map.apply(bs), bs, atol=1e-12)

    def test_assembled_s_z3_matches_inversion(self, w_z3):
        s_map = antipode_map(Fixture(w_z3))
        assert s_map.inconsistency < 1e-12
        rng = np.random.default_rng(5)
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        inv = np.diag([c[0], c[2], c[1]])  # g -> -g
        got = s_map.apply(np.diag(c)[None])[0]
        np.testing.assert_allclose(got, inv, atol=1e-12)


class TestUnitaryAntipode:
    def test_z2_equals_s(self, w_z2):
        # trivial scaling: R_A = S on generators
        fx = Fixture(w_z2)
        wt = build_wtilde(fx, q_eye(2))
        ra = ra_map(fx, wt)
        s_map = antipode_map(fx)
        a = all_right_slices(w_z2)
        np.testing.assert_allclose(ra.apply(a), s_map.apply(a), atol=1e-12)

    def test_identity_w(self):
        fx = Fixture(identity(space(2, 2)))
        wt = build_wtilde(fx, q_eye(2))
        ra = ra_map(fx, wt)
        x = np.array([[1.0, 2.0], [3.0, 4.0]]) * (1 / 5.0)
        # domain is span{1}: projection of x is (tr x / 2) * 1
        got = ra.apply(x[None])[0]
        np.testing.assert_allclose(got, np.trace(x) / 2 * np.eye(2))

    def test_z3_group_inversion(self, w_z3):
        fx = Fixture(w_z3)
        wt = build_wtilde(fx, q_eye(3))
        ra = ra_map(fx, wt)
        assert ra.inconsistency < 1e-12
        c = np.array([1.0, 2.0, 3.0])
        got = ra.apply(np.diag(c)[None])[0]
        np.testing.assert_allclose(got, np.diag([1.0, 3.0, 2.0]), atol=1e-12)


@pytest.mark.parametrize(
    "name", ["group_z2", "group_z3", "group_z4", "pair_groupoid_2", "two_z2", "z3_plus_trivial"]
)
class TestCheckAntipode:
    def test_all_residuals(self, corpus_fixtures, name):
        fx = Fixture(corpus_fixtures[name])
        wt = build_wtilde(fx, q_eye(fx.n))
        res = check_antipode(fx, q_eye(fx.n), wt)
        assert max(res.values()) < 1e-11, (name, res)

    def test_duality(self, corpus_fixtures, name):
        fx = Fixture(corpus_fixtures[name])
        wt_hat = build_wtilde(fx.dual, q_eye(fx.n))
        res = check_duality(fx, q_eye(fx.n), wt_hat)
        assert res == check_antipode(fx.dual, q_eye(fx.n), wt_hat)
        assert max(res.values()) < 1e-11, (name, res)

    def test_base_restrictions(self, corpus_fixtures, name):
        fx = Fixture(corpus_fixtures[name])
        res = check_base_restrictions(fx, q_eye(fx.n))
        assert max(res.values()) < 1e-9, (name, res)


class TestDualAntipode:
    def test_double_dual_exact(self, corpus_fixtures):
        for w in corpus_fixtures.values():
            np.testing.assert_array_equal(what(what(w)).matrix, w.matrix)

    def test_shat_inverse_pairs(self, w_z3):
        # S-hat is the dual context's antipode: the map assembled from the
        # right slices of W-hat = Sigma W* Sigma, sent to W's left slices
        fx = Fixture(w_z3)
        wt = build_wtilde(fx, q_eye(3))
        shat = fx.dual.s_map
        shat_inv, _ = dual_maps(fx, wt)
        direct = _assemble(space(3), fx.dual.right_slices, fx.left_slices)
        np.testing.assert_allclose(shat.matrix, direct.matrix, rtol=0, atol=1e-14)
        assert shat.inconsistency < 1e-12
        assert shat_inv.inconsistency < 1e-12
        ys = shat.domain.stack
        np.testing.assert_allclose(shat_inv.apply(shat.apply(ys)), ys, atol=1e-11)

    def test_unitary_case_inverse_via_star(self, w_z3, w_z4):
        # multiplicative unitaries (E = G = 1): S(a*)* = S^{-1}(a)
        for w in (w_z3, w_z4):
            n = w.space.legs[0].dim
            e = (w.adj @ w).matrix
            assert np.linalg.norm(e - np.eye(n * n)) < 1e-12
            fx = Fixture(w)
            s_map = antipode_map(fx)
            s_inv = extend(fx.dual.Ahat, all_right_slices(w))
            a = s_map.domain.stack
            lhs = adjoint(s_map.apply(adjoint(a)))
            assert np.all(np.linalg.norm(lhs - s_inv.apply(a), axis=(1, 2)) < 1e-10)


class TestAssemblyFromSliceStacks:
    # the maps are extended on the context's leg algebras; maps assembled
    # through their own SVD of slices taken one basis functional at a time
    # are the reference
    @pytest.mark.parametrize("name", ["example", "group_z3", "pair_groupoid_2"])
    def test_matches_per_functional_pairs(self, corpus_fixtures, name):
        w = corpus_fixtures[name]
        fx = Fixture(w)
        n = fx.n
        wt = build_wtilde(fx, Operator(space(n), np.diag(np.arange(1.0, n + 1))))
        # densities of w_{e_a,e_b}, index a*n + b, and of their transposes
        fs = [np.outer(np.eye(n)[a], np.eye(n)[b]) for a, b in np.ndindex(n, n)]

        def slices(x, side, densities):
            return np.array([slice_matrix(x.matrix, n, n, side, f) for f in densities])

        right = (slices(w, "right", fs), slices(w.adj, "right", fs))
        left = (slices(w.adj, "left", fs), slices(w, "left", fs))
        ra = (right[1], slices(wt, "right", fs).transpose(0, 2, 1))
        # W-hat's R_A, on A-hat: W's left slices to W-hat's Wtilde's
        # transposed right slices
        wt_hat = build_wtilde(fx.dual, Operator(space(n), np.diag(np.arange(1.0, n + 1))))
        ra_hat = (left[1], slices(wt_hat, "right", fs).transpose(0, 2, 1))
        rahat = (left[1], slices(wt.adj, "left", [f.T for f in fs]))
        shat_inv, rahat_map = dual_maps(fx, wt)
        for got, (ins, outs) in (
            (antipode_map(fx), right),
            (ra_map(fx, wt), ra),
            (fx.dual.s_map, left),
            (ra_map(fx.dual, wt_hat), ra_hat),
            (shat_inv, left[::-1]),
            (rahat_map, rahat),
        ):
            want = _assemble(space(n), ins, outs)
            np.testing.assert_allclose(got.matrix, want.matrix, rtol=0, atol=1e-14)
            np.testing.assert_allclose(
                got.domain.basis_matrix, want.domain.basis_matrix, rtol=0, atol=1e-14
            )


class TestWellDefinedness:
    def test_zero_nullity_on_certified(self, corpus_fixtures):
        # no null combination of the generators has an output above
        # RESIDUAL_TOL: each map is well defined on its leg algebra
        for name, w in corpus_fixtures.items():
            if name == "example":
                continue  # not full; antipode level is gated off for it
            n = w.space.legs[0].dim
            fx = Fixture(w)
            wt, wt_hat = build_wtilde(fx, q_eye(n)), build_wtilde(fx.dual, q_eye(n))
            for m in (fx.s_map, ra_map(fx, wt), fx.dual.s_map, ra_map(fx.dual, wt_hat),
                      *dual_maps(fx, wt)):
                assert m.inconsistency <= RESIDUAL_TOL, name
                assert m.inconsistency < 1e-11, name

    def test_inconsistency_is_the_largest_null_output(self, w_pair2):
        # with a Q that is not certified R_A is not well defined; the
        # largest output of a unit null combination of its inputs is the
        # spectral norm of the outputs' null-space part, which no choice
        # of basis of that space changes: a random rotation of the null
        # columns of the inputs' own SVD leaves it as it is
        g = np.random.default_rng(30).standard_normal((4, 4))
        fx = Fixture(w_pair2)
        wt = build_wtilde(fx, Operator(space(4), g @ g.T + np.eye(4)))
        ins, outs = rows(fx.dual.left_slices), rows(all_right_slices(wt).transpose(0, 2, 1))
        null = np.linalg.svd(ins)[0][:, fx.dual.Ahat.dim:]
        rotation = np.linalg.qr(np.random.default_rng(31).standard_normal((null.shape[1],) * 2))[0]
        part = (null @ rotation).conj().T @ outs
        want = np.linalg.norm(part, 2) / max(1.0, np.linalg.norm(outs))
        assert want > 0.1
        assert ra_map(fx, wt).inconsistency == pytest.approx(want, rel=1e-12)


def deleted_dual_entries(fx, q, wtilde):
    """The four entries that only W-hat's side once reported, as the
    antipode level computed them from W's Wtilde: S-hat^{-1} and R_Ahat on
    A-hat (``dual_maps``), and W^{T (x) Rhat} reassembled from R_Ahat's
    values on W's left slices y, the blocks of W over the first-leg matrix
    units."""
    n = fx.n
    y_star, y = fx.dual.right_slices, fx.left_slices
    shat_inv, rahat = dual_maps(fx, wtilde)
    out = rahat.apply(y).reshape(n, n, n, n).transpose(0, 2, 1, 3)
    return {
        "Shat_inv_well_defined": shat_inv.inconsistency,
        "Shat_inv_polar": max_gap(y_star, rahat.apply(tau(fx, q, 0.5j, y))),
        "Shat_roundtrip": max_gap(shat_inv.apply(fx.dual.s_map.apply(y_star)), y_star),
        "W_transpose_Rhat_eq_Wtilde_star": rel_residual(wtilde.adj.matrix,
                                                        out.reshape(n * n, n * n)),
    }


def random_q(n, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return Operator(space(n), z @ z.conj().T + np.eye(n))


def dual_only_cases():
    """(W, Q) from 0 to O(1) off: group_z3, pair_groupoid_2 and
    z3_plus_trivial exact and perturbed by 1e-10 and 1e-9 relative (their
    entries near tol), example perturbed by 1e-9 (whose A-hat generators
    have a condition number near 4e9), and the two skewed candidates;
    each at Q = 1 and at a seeded random positive Q."""
    fixtures = builtin_corpus()
    ws = {f"{name}+{eps:g}": perturbed(fixtures[name], eps, 10 * i + j) if eps else fixtures[name]
          for i, name in enumerate(("group_z3", "pair_groupoid_2", "z3_plus_trivial"))
          for j, eps in enumerate((0.0, 1e-10, 1e-9))}
    ws["example+1e-09"] = perturbed(corpus.matrix_unit_example(), 1e-9, 40)
    ws.update(skewed_candidates())
    return {f"{name}/{q_name}": (w, q)
            for i, (name, w) in enumerate(ws.items())
            for q_name, q in (("q1", q_eye(w.space.legs[0].dim)),
                              ("qrand", random_q(w.space.legs[0].dim, 60 + i)))}


DUAL_ONLY_CASES = dual_only_cases()


@cache
def dual_only_case(name):
    """The context, W-hat's Wtilde, the formula gap, W-hat's antipode
    entries (``check_duality``) and the deleted entries of one case."""
    w, q = DUAL_ONLY_CASES[name]
    fx = Fixture(w)
    cert = check_manageability(fx, q)
    _, formula_gap, wt_hat = dual_manageability(fx, cert)
    return (fx, q, cert.wtilde, wt_hat, formula_gap, check_duality(fx, q, wt_hat),
            deleted_dual_entries(fx, q, cert.wtilde))


def rounding(fx):
    """4 eps kappa, kappa the condition number of the A-hat generators
    that S-hat^{-1} and R_Ahat are extended from: the deleted maps divide
    by their singular values, so their values on the generators carry
    that much rounding where exact arithmetic gives 0."""
    return 4 * np.finfo(float).eps * fx.Ahat.s[0] / fx.Ahat.s[-1]


def bounds(name, weaker=False):
    """Each deleted entry's bound from W-hat's kept entries (README,
    "statements that hold for every input"); with ``weaker``, a weaker
    form of each: the round trip without max(1, ||W||_F), the transpose
    identity without sqrt(nullity), and the inverse polar form by the sum
    of four kept entries, with no constant of (W, Q)."""
    fx, q, wt, wt_hat, formula_gap, kept, _ = dual_only_case(name)
    n, d = fx.n, fx.Ahat.dim
    wt_norm = max(1.0, np.linalg.norm(wt.matrix))
    rho = max(1.0, spectral_norm(ra_map(fx.dual, wt_hat).matrix))
    t = max(1.0, np.linalg.norm(tau(fx.dual, q, -0.5j, fx.dual.right_slices), axis=(1, 2)).max())
    d_norm = formula_gap * wt_norm  # ||D||_F, as ||C||_F = ||Wt||_F
    w_norm, nullity = max(1.0, np.linalg.norm(fx.w.matrix)), n * n - d
    if weaker:
        w_norm = nullity = 1.0
    polar = kept["polar_S_eq_RA_tau"] + t * (
        rho * (np.sqrt(d) * kept["RA_star"] + kept["polar_domain_membership"])
        + d_norm / fx.Ahat.s[-1])
    if weaker:
        polar = (kept["polar_S_eq_RA_tau"] + kept["RA_star"] + kept["polar_domain_membership"]
                 + kept["S_star_involution"])
    return {
        "Shat_roundtrip": w_norm * (kept["S_well_defined"] + RANK_TOL),
        "W_transpose_Rhat_eq_Wtilde_star": (
            np.sqrt(nullity) * kept["RA_well_defined"]
            * max(1.0, np.linalg.norm(wt_hat.matrix)) / wt_norm + formula_gap),
        "Shat_inv_polar": polar,
    }


class TestDualOnlyRestatements:
    """W-hat's antipode level is check_antipode on the dual context.  The
    four entries only W-hat's side had restate its entries: each deleted
    formula (``deleted_dual_entries``) is at most a bound from W-hat's kept
    entries and constants of (W, Q), plus ``rounding``.  Each test of a
    bound runs over ``DUAL_ONLY_CASES``; a weaker bound fails on one."""

    @pytest.mark.parametrize("name", list(DUAL_ONLY_CASES))
    def test_shat_inv_well_defined_is_s_well_defined_dual(self, name):
        # a unit null combination of S-hat's inputs y*, conjugated and
        # reindexed (a, b) -> (b, a), is one of S-hat^{-1}'s inputs y, and
        # its output is the adjoint of S-hat's; ||y|| = ||y*||
        fx, *_, kept, deleted = dual_only_case(name)
        assert deleted["Shat_inv_well_defined"] == pytest.approx(
            kept["S_well_defined"], rel=1e-12, abs=1e-15), name

    @pytest.mark.parametrize("name", list(DUAL_ONLY_CASES))
    @pytest.mark.parametrize("key", ["Shat_roundtrip", "W_transpose_Rhat_eq_Wtilde_star",
                                     "Shat_inv_polar"])
    def test_bound_covers_the_deleted_entry(self, name, key):
        fx, *_, deleted = dual_only_case(name)
        assert deleted[key] <= bounds(name)[key] * (1 + 1e-12) + rounding(fx), (name, key)

    def test_cases_reach_near_tol_and_far(self):
        deleted = [dual_only_case(name)[-1] for name in DUAL_ONLY_CASES]
        for key in deleted[0]:
            values = [d[key] for d in deleted]
            assert any(1e-11 < v < 1e-8 for v in values) and max(values) > 0.4, key

    @pytest.mark.parametrize("name", ["sqrt_E/qrand", "pair2_skewed/q1", "pair2_skewed/qrand"])
    def test_dense_transpose_identity_is_the_deleted_formula(self, name):
        # tests/test_acceptance.py states W^{T (x) Rhat} = Wt* on the corpus
        # through word_references.w_transpose_rhat; on these cases the two
        # evaluations read the same O(1) residual, or both 0
        fx, _, wt, *_, deleted = dual_only_case(name)
        got = rel_residual(wt.adj.matrix, w_transpose_rhat(fx, wt))
        assert got == pytest.approx(deleted["W_transpose_Rhat_eq_Wtilde_star"], rel=1e-10, abs=1e-13)

    def test_weaker_bounds_fail(self):
        # each weaker bound fails on some case, and so does W's own
        # S_well_defined for W-hat's
        killed = set()
        for name in DUAL_ONLY_CASES:
            fx, q, wt, *_, deleted = dual_only_case(name)
            own = check_antipode(fx, q, wt)["S_well_defined"]
            if deleted["Shat_inv_well_defined"] != pytest.approx(own, rel=1e-6, abs=1e-12):
                killed.add("Shat_inv_well_defined")
            for key, bound in bounds(name, weaker=True).items():
                if deleted[key] > bound * (1 + 1e-12) + rounding(fx):
                    killed.add(key)
        assert killed == {"Shat_inv_well_defined", "Shat_roundtrip",
                          "W_transpose_Rhat_eq_Wtilde_star", "Shat_inv_polar"}

    def test_rounding_on_ill_conditioned_generators(self):
        # example + 1e-9 at Q = 1: W-hat's consistency entries read 0, as
        # its A-hat generators span all of M_2 (n^2 = 4 generators), yet the
        # round trip and the transpose identity read rounding of the
        # condition number's size, far above 1e-12 and below the allowance
        fx, *_, kept, deleted = dual_only_case("example+1e-09/q1")
        assert kept["S_well_defined"] == kept["RA_well_defined"] == 0.0
        assert fx.Ahat.s[0] / fx.Ahat.s[-1] > 1e9
        for key in ("Shat_roundtrip", "W_transpose_Rhat_eq_Wtilde_star"):
            assert 1e-8 < deleted[key] < rounding(fx), key
