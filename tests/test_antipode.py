import numpy as np
import pytest

from mpi_lab.antipode import (
    antipode_map,
    check_antipode,
    check_base_restrictions,
    check_duality,
    extend,
    tau,
)
from mpi_lab.context import Fixture, what
from mpi_lab.manageability import build_wtilde
from mpi_lab.tensor import (
    RESIDUAL_TOL,
    Operator,
    adjoint,
    all_left_slices,
    all_right_slices,
    identity,
    rows,
    slice_matrix,
    space,
    transpose_grid,
)
from word_references import _assemble


def ra_map(fx, wt):
    """R_A on the dual context's A-hat, spanned by the right slices of W*,
    as check_antipode builds it."""
    return extend(fx.dual.Ahat, all_right_slices(wt).transpose(0, 2, 1))


def dual_maps(fx, wt):
    """(S-hat^{-1}, R_Ahat) on A-hat, as check_duality builds them."""
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
        wt = build_wtilde(fx, q_eye(fx.n))
        res = check_duality(fx, q_eye(fx.n), wt)
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
        rahat = (left[1], slices(wt.adj, "left", [f.T for f in fs]))
        shat_inv, rahat_map = dual_maps(fx, wt)
        for got, (ins, outs) in (
            (antipode_map(fx), right),
            (ra_map(fx, wt), ra),
            (fx.dual.s_map, left),
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
            wt = build_wtilde(fx, q_eye(n))
            for m in (fx.s_map, ra_map(fx, wt), fx.dual.s_map, *dual_maps(fx, wt)):
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
