import numpy as np
import pytest

from mpi_lab.antipode import (
    antipode_generator,
    antipode_map,
    check_antipode,
    check_base_restrictions,
    check_duality,
    dual_antipode_maps,
    tau,
    unitary_antipode_map,
)
from mpi_lab.axioms import what
from mpi_lab.base_algebra import build_base_structure
from mpi_lab.manageability import build_wtilde
from mpi_lab.tensor import (
    Operator,
    basis_functionals,
    identity,
    space,
    vector_functional,
)


def unit(n, i, j):
    m = np.zeros((n, n))
    m[i - 1, j - 1] = 1.0
    return Operator(space(n), m)


def q_eye(n):
    return identity(space(n))


class TestTau:
    def test_identity_q(self, w_example):
        a = unit(2, 1, 2)
        got = tau(w_example, q_eye(2), 0.37 - 0.2j, a)
        np.testing.assert_allclose(got.matrix, a.matrix, atol=1e-12)

    def test_diagonal_q_real_t(self, w_example):
        q = Operator(space(2), np.diag([1.0, 2.0]))
        a = unit(2, 1, 2)
        t = 0.7
        got = tau(w_example, q, t, a)
        # tau_t(e12) = (q1/q2)^{2it} e12 = 2^{-2it} e12
        phase = np.exp(-2j * t * np.log(2.0))
        np.testing.assert_allclose(got.matrix, phase * a.matrix, atol=1e-12)

    def test_diagonal_q_analytic_point(self, w_example):
        q = Operator(space(2), np.diag([1.0, 2.0]))
        a = unit(2, 1, 2)
        got = tau(w_example, q, -0.5j, a)
        # tau_{-i/2}(a) = Q a Q^{-1} = (1/2) e12
        np.testing.assert_allclose(got.matrix, 0.5 * a.matrix, atol=1e-12)


class TestAntipodeGenerators:
    def test_z3_group_inversion(self, w_z3):
        # S(sum c_g e_gg) = sum c_{-g} e_gg, exactly
        n = 3
        for h in range(n):
            for hp in range(n):
                f = vector_functional(np.eye(n)[h], np.eye(n)[hp])
                a, s_a = antipode_generator(w_z3, f)
                # a = e_{c,c} with c = hp - h; S(a) = e_{-c,-c}
                c = (hp - h) % n
                expected_a = np.zeros((n, n))
                expected_a[c, c] = 1.0
                expected_s = np.zeros((n, n))
                expected_s[(-c) % n, (-c) % n] = 1.0
                np.testing.assert_allclose(a.matrix, expected_a, atol=1e-14)
                np.testing.assert_allclose(s_a.matrix, expected_s, atol=1e-14)

    def test_identity_w(self):
        w = identity(space(2, 2))
        f = vector_functional([1.0, 0.5], [0.2, 1.0])
        a, s_a = antipode_generator(w, f)
        np.testing.assert_allclose(a.matrix, s_a.matrix)

    def test_z2_self_inverse(self, w_z2):
        # every element of Z/2 is its own inverse, so S = id on A
        s_map = antipode_map(w_z2)
        for b in s_map.domain.basis:
            np.testing.assert_allclose(s_map.apply(b).matrix, b.matrix, atol=1e-12)

    def test_assembled_s_z3_matches_inversion(self, w_z3):
        s_map = antipode_map(w_z3)
        assert s_map.inconsistency < 1e-12
        rng = np.random.default_rng(5)
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        a = Operator(space(3), np.diag(c))
        inv = Operator(space(3), np.diag([c[0], c[2], c[1]]))  # g -> -g
        got = s_map.apply(a)
        np.testing.assert_allclose(got.matrix, inv.matrix, atol=1e-12)


class TestUnitaryAntipode:
    def test_z2_equals_s(self, w_z2):
        # trivial scaling: R_A = S on generators
        wt = build_wtilde(w_z2, q_eye(2))
        ra = unitary_antipode_map(w_z2, wt)
        s_map = antipode_map(w_z2)
        for f in basis_functionals(space(2).legs[0]):
            a, s_a = antipode_generator(w_z2, f)
            np.testing.assert_allclose(
                ra.apply(a).matrix, s_map.apply(a).matrix, atol=1e-12
            )

    def test_identity_w(self):
        w = identity(space(2, 2))
        wt = build_wtilde(w, q_eye(2))
        ra = unitary_antipode_map(w, wt)
        x = Operator(space(2), np.array([[1.0, 2.0], [3.0, 4.0]])) * (1 / 5.0)
        # domain is span{1}: projection of x is (tr x / 2) * 1
        got = ra.apply(x)
        np.testing.assert_allclose(got.matrix, np.trace(x.matrix) / 2 * np.eye(2))

    def test_z3_group_inversion(self, w_z3):
        wt = build_wtilde(w_z3, q_eye(3))
        ra = unitary_antipode_map(w_z3, wt)
        assert ra.inconsistency < 1e-12
        c = np.array([1.0, 2.0, 3.0])
        a = Operator(space(3), np.diag(c))
        got = ra.apply(a)
        np.testing.assert_allclose(got.matrix, np.diag([1.0, 3.0, 2.0]), atol=1e-12)


@pytest.mark.parametrize(
    "name", ["group_z2", "group_z3", "group_z4", "pair_groupoid_2", "two_z2", "z3_plus_trivial"]
)
class TestCheckAntipode:
    def test_all_residuals(self, corpus_fixtures, name):
        w = corpus_fixtures[name]
        n = w.space.legs[0].dim
        wt = build_wtilde(w, q_eye(n))
        res = check_antipode(w, q_eye(n), wt)
        assert max(res.values()) < 1e-11, (name, res)

    def test_duality(self, corpus_fixtures, name):
        w = corpus_fixtures[name]
        n = w.space.legs[0].dim
        wt = build_wtilde(w, q_eye(n))
        res = check_duality(w, q_eye(n), wt)
        assert max(res.values()) < 1e-11, (name, res)

    def test_base_restrictions(self, corpus_fixtures, name):
        w = corpus_fixtures[name]
        n = w.space.legs[0].dim
        wt = build_wtilde(w, q_eye(n))
        st = build_base_structure(w)
        res = check_base_restrictions(w, q_eye(n), st, wt)
        assert max(res.values()) < 1e-9, (name, res)


class TestDualAntipode:
    def test_double_dual_exact(self, corpus_fixtures):
        for w in corpus_fixtures.values():
            np.testing.assert_array_equal(what(what(w)).matrix, w.matrix)

    def test_shat_inverse_pairs(self, w_z3):
        wt = build_wtilde(w_z3, q_eye(3))
        shat, shat_inv, _ = dual_antipode_maps(w_z3, wt)
        assert shat.inconsistency < 1e-12
        assert shat_inv.inconsistency < 1e-12
        for y in shat.domain.basis:
            np.testing.assert_allclose(
                shat_inv.apply(shat.apply(y)).matrix, y.matrix, atol=1e-11
            )

    def test_unitary_case_inverse_via_star(self, w_z3, w_z4):
        # multiplicative unitaries (E = G = 1): S(a*)* = S^{-1}(a)
        for w in (w_z3, w_z4):
            n = w.space.legs[0].dim
            e = (w.adj @ w).matrix
            assert np.linalg.norm(e - np.eye(n * n)) < 1e-12
            s_map = antipode_map(w)
            pairs = [
                antipode_generator(w, f) for f in basis_functionals(w.space.legs[1])
            ]
            from mpi_lab.antipode import assemble_map

            s_inv = assemble_map([(b, a) for a, b in pairs])
            for a in s_map.domain.basis:
                lhs = s_map.apply(a.adj).adj
                rhs = s_inv.apply(a)
                assert np.linalg.norm(lhs.matrix - rhs.matrix) < 1e-10


class TestAssemblyFromSliceStacks:
    # the maps are assembled from the context's slice stacks; the
    # per-functional slice_op pairs are the reference
    @pytest.mark.parametrize("name", ["example", "group_z3", "pair_groupoid_2"])
    def test_matches_per_functional_pairs(self, corpus_fixtures, name):
        from mpi_lab.antipode import assemble_map
        from mpi_lab.tensor import slice_op, transpose_op

        w = corpus_fixtures[name]
        n = w.space.legs[0].dim
        wt = build_wtilde(w, Operator(space(n), np.diag(np.arange(1.0, n + 1))))
        fs = basis_functionals(w.space.legs[0])
        right = [(slice_op(w, "right", f), slice_op(w.adj, "right", f)) for f in fs]
        left = [(slice_op(w.adj, "left", f), slice_op(w, "left", f)) for f in fs]
        ra = [(b, transpose_op(slice_op(wt, "right", f))) for (_, b), f in zip(right, fs)]
        rahat = [(y, slice_op(wt.adj, "left", f.transpose)) for (_, y), f in zip(left, fs)]
        shat, shat_inv, rahat_map = dual_antipode_maps(w, wt)
        for got, pairs in (
            (antipode_map(w), right),
            (unitary_antipode_map(w, wt), ra),
            (shat, left),
            (shat_inv, [(b, a) for a, b in left]),
            (rahat_map, rahat),
        ):
            want = assemble_map(pairs)
            np.testing.assert_allclose(got.matrix, want.matrix, rtol=0, atol=1e-14)
            np.testing.assert_allclose(
                got.domain.basis_matrix, want.domain.basis_matrix, rtol=0, atol=1e-14
            )


class TestWellDefinedness:
    def test_zero_nullity_on_certified(self, corpus_fixtures):
        for name, w in corpus_fixtures.items():
            if name == "example":
                continue  # not full; antipode level is gated off for it
            n = w.space.legs[0].dim
            wt = build_wtilde(w, q_eye(n))
            s_map = antipode_map(w)
            ra = unitary_antipode_map(w, wt)
            shat, shat_inv, rahat = dual_antipode_maps(w, wt)
            for m in (s_map, ra, shat, shat_inv, rahat):
                assert m.nullity == 0, name
                assert m.inconsistency < 1e-11, name
