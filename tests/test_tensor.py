import numpy as np
import pytest

from mpi_lab.tensor import (
    H,
    HBAR,
    RESIDUAL_TOL,
    LegMismatchError,
    LstsqSolver,
    Operator,
    all_left_slices,
    all_right_slices,
    chain,
    embed,
    embedded_mul,
    factor,
    flip,
    identity,
    kron,
    lsq_solve,
    pos_power,
    range_basis,
    slice_matrix,
    space,
    span,
    span_matrices,
    spectral_norm,
    swap_legs,
    tensor_fit,
    transpose_op,
)
from word_references import kron_subspace


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

    def test_leg_outside_rejected(self):
        # a leg is checked before it is spelled as a digit in a word
        x, amb = unit(2, 1, 1), space(2, 2)
        for legs in ([0], [3], [-1]):
            with pytest.raises(LegMismatchError):
                embed(x, legs, amb)
            with pytest.raises(LegMismatchError):
                embedded_mul(x, legs, identity(amb))

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

    @pytest.mark.parametrize("legs", [[1, 2], [2, 3], [1, 3], [3, 1]])
    def test_complex_x_on_real_m(self, legs):
        # the product is written in the result dtype, complex here
        rng = np.random.default_rng(12)
        amb = space(2, 3, 2)
        x = random_op(rng, space(*[amb.legs[p - 1].dim for p in legs]))
        m = Operator(amb, rng.standard_normal((12, 12)))
        got = embedded_mul(x, legs, m)
        np.testing.assert_allclose(got.matrix, (embed(x, legs, amb) @ m).matrix, atol=1e-12)

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
    # the vector functional w_{a,b}(t) = <t a, b> has density a b*; every
    # b below is real
    def test_right_slice_e1(self):
        w = w_example()
        got = slice_matrix(w.matrix, 2, 2, "right", np.outer([1, 0], [1, 0]))
        np.testing.assert_allclose(got, E21.matrix)   # hand contraction

    def test_right_slice_e2(self):
        w = w_example()
        got = slice_matrix(w.matrix, 2, 2, "right", np.outer([0, 1], [0, 1]))
        np.testing.assert_allclose(got, E22.matrix)

    def test_left_slice_vanishes(self):
        # W(e1 (x) v) has first leg e2, so pairing against e1 gives 0
        w = w_example()
        got = slice_matrix(w.matrix, 2, 2, "left", np.outer([1, 0], [1, 0]))
        np.testing.assert_allclose(got, np.zeros((2, 2)))

    def test_defining_pairing(self):
        # <(id (x) w_{a,b})(X) xi, eta> = <X (xi (x) a), eta (x) b>
        rng = np.random.default_rng(17)
        x = random_op(rng, space(3, 3))
        a, b = rng.standard_normal(3) + 1j * rng.standard_normal(3), rng.standard_normal(3)
        xi, eta = rng.standard_normal(3), rng.standard_normal(3) + 1j * rng.standard_normal(3)
        y = slice_matrix(x.matrix, 3, 3, "right", np.outer(a, b))
        lhs = np.vdot(eta, y @ xi)
        rhs = np.vdot(np.kron(eta, b), x.matrix @ np.kron(xi, a))
        assert abs(lhs - rhs) < 1e-12

    def test_slice_duality(self):
        # w'(slice(X, right, w)) = (w' (x) w)(X) by direct double contraction
        rng = np.random.default_rng(19)
        x = random_op(rng, space(2, 3))
        f2 = np.outer(rng.standard_normal(3), rng.standard_normal(3))
        f1 = np.outer(rng.standard_normal(2), rng.standard_normal(2))
        lhs = np.trace(slice_matrix(x.matrix, 2, 3, "right", f2) @ f1)
        rhs = complex(np.trace(x.matrix @ np.kron(f1, f2)))
        assert abs(lhs - rhs) < 1e-12

    def test_all_slices_match_loop(self):
        rng = np.random.default_rng(23)
        x = random_op(rng, space(2, 3))
        rights = all_right_slices(x)
        for k, (a, b) in enumerate(np.ndindex(3, 3)):
            want = slice_matrix(x.matrix, 2, 3, "right", np.outer(np.eye(3)[a], np.eye(3)[b]))
            np.testing.assert_allclose(rights[k], want)
        lefts = all_left_slices(x)
        for k, (a, b) in enumerate(np.ndindex(2, 2)):
            want = slice_matrix(x.matrix, 2, 3, "left", np.outer(np.eye(2)[a], np.eye(2)[b]))
            np.testing.assert_allclose(lefts[k], want)

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_density_stack_matches_each_density(self, dtype, side):
        # a stack of densities gives the per-density slices bit for bit
        rng = np.random.default_rng(29)

        def draw(*shape):
            x = rng.standard_normal(shape)
            return x + 1j * rng.standard_normal(shape) if dtype is complex else x

        for n in (2, 3, 5):
            m, densities = draw(n * n, n * n), draw(4, n, n)
            want = np.array([slice_matrix(m, n, n, side, f) for f in densities])
            np.testing.assert_array_equal(slice_matrix(m, n, n, side, densities), want)


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
        s = span_matrices(space(2), all_right_slices(w))
        assert s.dim == 2
        assert s.equals(span([E21, E22])) < 1e-13

    def test_idempotence(self):
        rng = np.random.default_rng(47)
        fam = [random_op(rng, space(3)) for _ in range(5)]
        s = span(fam)
        s2 = span_matrices(s.space, s.stack)
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


class TestFactor:
    def test_zero_matrix_and_empty_stack_have_rank_zero(self):
        assert factor(np.zeros((3, 4)))[3] == 0
        empty = span_matrices(space(2), np.zeros((0, 2, 2)))
        assert empty.dim == 0 and empty.basis_matrix.shape == (0, 4)
        assert range_basis(empty.stack).shape == (2, 0)

    def test_cutoff_is_relative_to_the_largest_singular_value(self):
        # a singular value at 2e-10 sigma_max is kept, one at 5e-11 dropped
        rng = np.random.default_rng(61)
        u, v = (np.linalg.qr(rng.standard_normal((4, 4)))[0] for _ in range(2))
        for ratio, rank in ((2e-10, 3), (5e-11, 2)):
            m = u @ np.diag([3.0, 1.0, 3.0 * ratio, 0.0]) @ v
            assert factor(m)[3] == rank, ratio

    def test_full_gives_the_null_rows_of_a_wide_matrix(self):
        m = np.random.default_rng(67).standard_normal((2, 5))
        assert factor(m)[2].shape == (2, 5)
        _, _, vh, rank = factor(m, full=True)
        assert vh.shape == (5, 5) and rank == 2
        null = vh[rank:]
        np.testing.assert_allclose(m @ null.T, 0.0, atol=1e-14)
        np.testing.assert_allclose(null @ null.T, np.eye(3), atol=1e-14)


class TestSpectralNorm:
    def test_largest_singular_value(self):
        # numpy's matrix 2-norm, bit for bit, on real, complex, wide and
        # empty matrices; infinite for a non-finite entry
        rng = np.random.default_rng(71)
        for m in (rng.standard_normal((5, 5)), rng.standard_normal((3, 7))
                  + 1j * rng.standard_normal((3, 7)), np.zeros((0, 4))):
            assert spectral_norm(m) == np.linalg.norm(m, 2)
        for bad in (np.nan, np.inf):
            assert spectral_norm(np.array([[1.0, bad]])) == np.inf


class TestContains:
    def test_member(self):
        s = span([E21, E22])
        res = s.stack_residual(E22.matrix[None])
        assert res < RESIDUAL_TOL and res < 1e-14

    def test_non_member_residual(self):
        # projection of I keeps only the e22 component, leaving e11
        s = span([E21, E22])
        res = s.stack_residual(I2.matrix[None])
        assert not res < RESIDUAL_TOL
        assert abs(res - 1 / np.sqrt(2)) < 1e-12

    def test_scaled_member(self):
        s = span([I2])
        res = s.stack_residual((5 * I2).matrix[None])
        assert res < RESIDUAL_TOL and res < 1e-14

    def test_tensor_fit(self):
        # E21 (x) E22 lies in a (x) a; I (x) E22 is E11 (x) E22 off it
        a = span([E21, E22])
        fit = tensor_fit(np.stack([kron(E21, E22).matrix, kron(I2, E22).matrix]), a, a)
        assert fit.coords.shape == (2, 2, 2)
        assert fit.off[0] < 1e-15 and fit.off[1] == pytest.approx(1.0)
        np.testing.assert_allclose(fit.scale, [1.0, np.sqrt(2)])
        assert fit.membership == pytest.approx(1 / np.sqrt(2))
        assert tensor_fit(kron(E21, E22).matrix[None], a, a).membership < RESIDUAL_TOL

    def test_tensor_fit_matches_kron_basis(self):
        # legs of dimension 2 and 3, spans of dimension 3 and 4, and
        # random members whose distances from a (x) b are O(1), against
        # the projection on the Kronecker basis, x-major
        rng = np.random.default_rng(29)

        def gaussian(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        a, b = span_matrices(space(2), gaussian(3, 2, 2)), span_matrices(space(3), gaussian(4, 3, 3))
        stack = gaussian(5, 6, 6)
        basis = kron_subspace(a, b).basis_matrix
        flat = stack.reshape(5, 36)
        coords = flat @ basis.conj().T
        off = np.linalg.norm(flat - coords @ basis, axis=1)
        assert off.min() > 0.1
        fit = tensor_fit(stack, a, b)
        np.testing.assert_allclose(fit.coords, coords.reshape(5, 3, 4), rtol=0, atol=1e-12)
        np.testing.assert_allclose(fit.off, off, rtol=1e-12)
        np.testing.assert_allclose(fit.scale, np.linalg.norm(flat, axis=1), rtol=1e-12)


    def test_tensor_fit_real_stack_complex_span(self):
        # a real stack against a complex span is fitted in complex
        # arithmetic: the fit of the same stack stored complex
        rng = np.random.default_rng(31)
        a = span_matrices(space(3), rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3)))
        stack = rng.standard_normal((4, 9, 9))
        got, want = tensor_fit(stack, a, a), tensor_fit(stack.astype(complex), a, a)
        assert want.off.min() > 0.1
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)


class TestLsqSolve:
    def test_identity_map(self):
        v = np.array([1.0, 2.0, -1.0])
        x, res = lsq_solve(np.eye(3), v)
        np.testing.assert_allclose(x, v, atol=1e-14)
        assert res < 1e-14 and LstsqSolver(np.eye(3)).nullity == 0

    def test_rank_deficient(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        x, res = lsq_solve(a, np.array([1.0, 0.0]))
        np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-14)
        assert res < 1e-14 and LstsqSolver(a).nullity == 1

    def test_inconsistent_projection(self):
        a = np.array([[1.0], [1.0]])
        x, res = lsq_solve(a, np.array([1.0, 0.0]))
        assert abs(res - 1 / np.sqrt(2)) < 1e-13
        assert LstsqSolver(a).nullity == 0
