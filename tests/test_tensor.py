import numpy as np
import pytest

from mpi_lab.tensor import (
    H,
    HBAR,
    LegMismatchError,
    LegSpec,
    Operator,
    all_left_slices,
    all_right_slices,
    basis_functionals,
    chain,
    embed,
    embedded_mul,
    flip,
    identity,
    kron,
    lsq_solve,
    pos_power,
    slice_op,
    space,
    span,
    swap_legs,
    tensor_subspace,
    transpose_op,
    vector_functional,
)


def unit(n, i, j, flavor=H):
    """Matrix unit e_{ij} (1-based indices, like e21 etc.)."""
    m = np.zeros((n, n))
    m[i - 1, j - 1] = 1.0
    return Operator(space(n, flavors=[flavor]), m)


def random_op(rng, sp):
    d = sp.total_dim
    return Operator(sp, rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))


E11 = unit(2, 1, 1)
E12 = unit(2, 1, 2)
E21 = unit(2, 2, 1)
E22 = unit(2, 2, 2)
I2 = identity(space(2))


def w_example():
    """e21 (x) e11 + e22 (x) e22 on C^2 (x) C^2."""
    return kron(E21, E11) + kron(E22, E22)


class TestKron:
    def test_rank_one_placement(self):
        k = kron(E11, E11)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        np.testing.assert_array_equal(k.matrix, expected)

    def test_identity(self):
        k = kron(I2, I2)
        np.testing.assert_array_equal(k.matrix, np.eye(4))

    def test_example_operator_entries(self):
        w = w_example()
        expected = np.zeros((4, 4))
        expected[2, 0] = 1.0
        expected[3, 3] = 1.0
        np.testing.assert_array_equal(w.matrix, expected)

    def test_leg_bookkeeping(self):
        k = kron(E21, unit(3, 1, 1))
        assert k.space.dims == (2, 3)


class TestEmbed:
    def setup_method(self):
        self.amb = space(2, 2, 2)
        self.w = w_example()

    def test_trailing_identity(self):
        got = embed(self.w, [1, 2], self.amb)
        np.testing.assert_allclose(got.matrix, np.kron(self.w.matrix, np.eye(2)))

    def test_leading_identity(self):
        got = embed(self.w, [2, 3], self.amb)
        np.testing.assert_allclose(got.matrix, np.kron(np.eye(2), self.w.matrix))

    def test_skipping_middle_leg_against_brute_force(self):
        # oracle: <W13 (a (x) b (x) c), a' (x) b' (x) c'> =
        #         <W (a (x) c), a' (x) c'> <b, b'>
        w13 = embed(self.w, [1, 3], self.amb)
        wm = self.w.matrix
        eye = np.eye(2)
        expected = np.zeros((8, 8), dtype=complex)
        for i in range(2):
            for k in range(2):
                for m in range(2):
                    for j in range(2):
                        for l in range(2):
                            for p in range(2):
                                row = i * 4 + k * 2 + m
                                col = j * 4 + l * 2 + p
                                expected[row, col] = wm[i * 2 + m, j * 2 + p] * eye[k, l]
        np.testing.assert_allclose(w13.matrix, expected, atol=1e-15)

    def test_permuted_legs(self):
        # embed with legs [2, 1] swaps the roles of the two factors
        rng = np.random.default_rng(5)
        x = random_op(rng, space(2, 3))
        amb = space(3, 2)
        got = embed(x, [2, 1], amb)
        # oracle: conjugate by the (typed) swap
        direct = swap_legs(x)
        np.testing.assert_allclose(got.matrix, direct.matrix, atol=1e-14)

    def test_flavor_mismatch_rejected(self):
        xbar = Operator(space(2, flavors=[HBAR]), np.eye(2))
        with pytest.raises(LegMismatchError):
            embed(xbar, [1], space(2, 2))

    def test_dimension_mismatch_rejected(self):
        x = unit(3, 1, 1)
        with pytest.raises(LegMismatchError):
            embed(x, [1], space(2, 2))

    def test_embed_coherence_brute_force(self):
        # X12 Y23 via embed equals the triple-index contraction oracle
        rng = np.random.default_rng(7)
        x = random_op(rng, space(2, 2))
        y = random_op(rng, space(2, 2))
        amb = space(2, 2, 2)
        got = (embed(x, [1, 2], amb) @ embed(y, [2, 3], amb)).matrix
        xt, yt = x.tensor(), y.tensor()
        expected = np.einsum("ikjm,mlpq->ikljpq", xt, yt).reshape(8, 8)
        np.testing.assert_allclose(got, expected, atol=1e-13)


class TestEmbeddedMul:
    @pytest.mark.parametrize("legs", [[1, 2], [2, 3], [1, 3], [3, 1]])
    # embedded_mul multiplies from the left only
    @pytest.mark.parametrize("side", ["left"])
    def test_matches_full_product(self, legs, side):
        rng = np.random.default_rng(11)
        amb = space(2, 3, 2)
        dims = [amb.legs[p - 1].dim for p in legs]
        x = random_op(rng, space(*dims))
        m = random_op(rng, amb)
        expected = embed(x, legs, amb) @ m
        got = embedded_mul(x, legs, m)
        np.testing.assert_allclose(got.matrix, expected.matrix, atol=1e-12)

    def test_chain(self):
        rng = np.random.default_rng(13)
        amb = space(2, 2, 2)
        x = random_op(rng, space(2, 2))
        y = random_op(rng, space(2, 2))
        got = chain(amb, (x, [1, 2]), (y, [2, 3]))
        expected = embed(x, [1, 2], amb) @ embed(y, [2, 3], amb)
        np.testing.assert_allclose(got.matrix, expected.matrix, atol=1e-12)


class TestFlip:
    def test_n1(self):
        np.testing.assert_array_equal(flip(1).matrix, np.eye(1))

    def test_n2_transposition(self):
        m = flip(2).matrix
        expected = np.eye(4)[[0, 2, 1, 3]]
        np.testing.assert_array_equal(m, expected)

    def test_involution(self):
        s = flip(3)
        np.testing.assert_allclose((s @ s).matrix, np.eye(9), atol=1e-15)

    def test_swap_legs_matches_conjugation(self):
        rng = np.random.default_rng(3)
        x = random_op(rng, space(3, 3))
        s = flip(3).matrix
        np.testing.assert_allclose(swap_legs(x).matrix, s @ x.matrix @ s, atol=1e-13)


class TestSlice:
    def test_right_slice_e1(self):
        w = w_example()
        got = slice_op(w, "right", vector_functional([1, 0], [1, 0]))
        np.testing.assert_allclose(got.matrix, E21.matrix)   # hand contraction

    def test_right_slice_e2(self):
        w = w_example()
        got = slice_op(w, "right", vector_functional([0, 1], [0, 1]))
        np.testing.assert_allclose(got.matrix, E22.matrix)

    def test_left_slice_vanishes(self):
        # W(e1 (x) v) has first leg e2, so pairing against e1 gives 0
        w = w_example()
        got = slice_op(w, "left", vector_functional([1, 0], [1, 0]))
        np.testing.assert_allclose(got.matrix, np.zeros((2, 2)))

    def test_defining_pairing(self):
        # <(id (x) w_{a,b})(X) xi, eta> = <X (xi (x) a), eta (x) b>
        rng = np.random.default_rng(17)
        x = random_op(rng, space(3, 3))
        a, b = rng.standard_normal(3) + 1j * rng.standard_normal(3), rng.standard_normal(3)
        xi, eta = rng.standard_normal(3), rng.standard_normal(3) + 1j * rng.standard_normal(3)
        y = slice_op(x, "right", vector_functional(a, b))
        lhs = np.vdot(eta, y.matrix @ xi)
        rhs = np.vdot(np.kron(eta, b), x.matrix @ np.kron(xi, a))
        assert abs(lhs - rhs) < 1e-12

    def test_slice_duality(self):
        # w'(slice(X, right, w)) = (w' (x) w)(X) by direct double contraction
        rng = np.random.default_rng(19)
        x = random_op(rng, space(2, 3))
        f2 = vector_functional(rng.standard_normal(3), rng.standard_normal(3))
        f1 = vector_functional(rng.standard_normal(2), rng.standard_normal(2))
        lhs = f1(slice_op(x, "right", f2))
        rhs = complex(np.trace(x.matrix @ np.kron(f1.density, f2.density)))
        assert abs(lhs - rhs) < 1e-12

    def test_all_slices_match_loop(self):
        rng = np.random.default_rng(23)
        x = random_op(rng, space(2, 3))
        rights = all_right_slices(x)
        for k, f in enumerate(basis_functionals(LegSpec(3))):
            np.testing.assert_allclose(rights[k], slice_op(x, "right", f).matrix)
        lefts = all_left_slices(x)
        for k, f in enumerate(basis_functionals(LegSpec(2))):
            np.testing.assert_allclose(lefts[k], slice_op(x, "left", f).matrix)

    def test_leg_mismatch(self):
        w = w_example()
        with pytest.raises(LegMismatchError):
            slice_op(w, "right", vector_functional([1, 0, 0], [1, 0, 0]))


class TestTranspose:
    def test_matrix_unit(self):
        t = transpose_op(E21)
        np.testing.assert_array_equal(t.matrix, E12.matrix)
        assert t.space.legs[0].flavor == HBAR

    def test_identity(self):
        np.testing.assert_array_equal(transpose_op(I2).matrix, np.eye(2))

    def test_involution_with_flavor(self):
        rng = np.random.default_rng(29)
        x = random_op(rng, space(3))
        tt = transpose_op(transpose_op(x))
        np.testing.assert_array_equal(tt.matrix, x.matrix)
        assert tt.space == x.space

    def test_anti_homomorphism(self):
        rng = np.random.default_rng(31)
        m, n = random_op(rng, space(3)), random_op(rng, space(3))
        lhs = transpose_op(m @ n)
        rhs = transpose_op(n) @ transpose_op(m)
        assert np.linalg.norm(lhs.matrix - rhs.matrix) < 1e-12

    def test_conjugate_action(self):
        # m^T xi-bar = (m* xi)-bar in the concrete coordinates
        rng = np.random.default_rng(37)
        m = random_op(rng, space(3))
        xi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        lhs = transpose_op(m).matrix @ xi.conj()
        rhs = (m.matrix.conj().T @ xi).conj()
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)


class TestPosPower:
    def test_diag_sqrt(self):
        p = Operator(space(2), np.diag([1.0, 4.0]))
        got = pos_power(p, 0.5)
        np.testing.assert_allclose(got.matrix, np.diag([1.0, 2.0]), atol=1e-14)

    def test_identity_any_exponent(self):
        for z in [2.0, -1.0, 0.5j, 1 - 2j]:
            got = pos_power(I2, z)
            np.testing.assert_allclose(got.matrix, np.eye(2), atol=1e-13)

    def test_imaginary_power_unitary(self):
        rng = np.random.default_rng(41)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        p = Operator(space(4), a @ a.conj().T + 0.5 * np.eye(4))
        u = pos_power(p, 0.7j).matrix
        assert np.linalg.norm(u @ u.conj().T - np.eye(4)) < 1e-10

    def test_group_law(self):
        rng = np.random.default_rng(43)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        p = Operator(space(3), a @ a.conj().T + 0.3 * np.eye(3))
        for z1, z2 in [(0.5, 0.25), (1.2j, -0.4j), (1 + 0.5j, -2 + 0.1j)]:
            lhs = pos_power(p, z1) @ pos_power(p, z2)
            rhs = pos_power(p, z1 + z2)
            assert np.linalg.norm(lhs.matrix - rhs.matrix) < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            pos_power(E21, 0.5)

    def test_rejects_indefinite(self):
        p = Operator(space(2), np.diag([1.0, -1.0]))
        with pytest.raises(ValueError):
            pos_power(p, 0.5)


class TestSpan:
    def test_two_matrix_units(self):
        s = span([E21, E22])
        assert s.dim == 2

    def test_collinear(self):
        s = span([I2, 2 * I2])
        assert s.dim == 1

    def test_slices_of_example(self):
        # slice formula gives (id (x) w)(W) = w(e11) e21 + w(e22) e22
        w = w_example()
        slices = [
            slice_op(w, "right", f) for f in basis_functionals(LegSpec(2))
        ]
        s = span(slices)
        assert s.dim == 2
        eq, res = s.equals(span([E21, E22]))
        assert eq and res < 1e-13

    def test_idempotence(self):
        rng = np.random.default_rng(47)
        fam = [random_op(rng, space(3)) for _ in range(5)]
        s = span(fam)
        s2 = span(s.basis)
        assert s2.dim == s.dim

    def test_orthonormality(self):
        rng = np.random.default_rng(53)
        fam = [random_op(rng, space(3)) for _ in range(4)]
        s = span(fam)
        g = s.basis_matrix @ s.basis_matrix.conj().T
        np.testing.assert_allclose(g, np.eye(s.dim), atol=1e-12)

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            span([])


class TestContains:
    def test_member(self):
        s = span([E21, E22])
        ok, res = s.contains(E22)
        assert ok and res < 1e-14

    def test_non_member_residual(self):
        # projection of I keeps only the e22 component, leaving e11
        s = span([E21, E22])
        ok, res = s.contains(I2)
        assert not ok
        assert abs(res - 1 / np.sqrt(2)) < 1e-12

    def test_scaled_member(self):
        s = span([I2])
        ok, res = s.contains(5 * I2)
        assert ok and res < 1e-14

    def test_space_mismatch(self):
        s = span([I2])
        with pytest.raises(LegMismatchError):
            s.contains(identity(space(3)))

    def test_tensor_subspace(self):
        a = span([E21, E22])
        t = tensor_subspace(a, a)
        assert t.dim == 4
        ok, _ = t.contains(kron(E21, E22))
        assert ok

    def test_tensor_subspace_matches_kron_loop(self):
        # reference: the Kronecker products of the two bases, x-major
        a = span([E21, E22])
        b = span([E22, identity(space(2))])
        rows = [np.kron(x.matrix, y.matrix).ravel() for x in a.basis for y in b.basis]
        np.testing.assert_array_equal(tensor_subspace(a, b).basis_matrix, np.array(rows))


class TestLsqSolve:
    def test_identity_map(self):
        v = np.array([1.0, 2.0, -1.0])
        x, res, nullity = lsq_solve(np.eye(3), v)
        np.testing.assert_allclose(x, v, atol=1e-14)
        assert res < 1e-14 and nullity == 0

    def test_rank_deficient(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        x, res, nullity = lsq_solve(a, np.array([1.0, 0.0]))
        np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-14)
        assert res < 1e-14 and nullity == 1

    def test_inconsistent_projection(self):
        a = np.array([[1.0], [1.0]])
        x, res, nullity = lsq_solve(a, np.array([1.0, 0.0]))
        assert abs(res - 1 / np.sqrt(2)) < 1e-13
        assert nullity == 0
