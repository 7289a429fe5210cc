import numpy as np
import pytest

from mpi_lab.base_algebra import (
    KappaSolver,
    base_spans,
    c_star_bases,
    check_separability_triple,
    find_distinguished_weight,
    gamma_and_rtilde,
    gamma_n_stack,
    kappa_map,
    kappa_q_checks,
    modular_conjugate,
)
from mpi_lab import corpus
from mpi_lab.context import Fixture
from mpi_lab.manageability import build_wtilde
from mpi_lab.tensor import RESIDUAL_TOL, Operator, factor, identity, range_basis, span, space


def unit(n, i, j):
    m = np.zeros((n, n))
    m[i - 1, j - 1] = 1.0
    return Operator(space(n), m)


class TestBaseSpans:
    def test_example_diagonal(self, w_example):
        # Oracle: E = e11 (x) e11 + e22 (x) e22 gives N = L = diag;
        # G = e22 (x) 1 gives Nhat = span{1} and Lhat = span{e22}, so
        # L != Lhat here (the identification needs fullness, which this
        # fixture lacks -- its A acts degenerately).
        fx = Fixture(w_example)
        spans = base_spans(fx)
        diag = span([unit(2, 1, 1), unit(2, 2, 2)])
        assert fx.N.equals(diag) < RESIDUAL_TOL
        assert fx.L.equals(diag) < RESIDUAL_TOL
        assert fx.dual.N.dim == 1 and fx.dual.L.dim == 1
        assert fx.dual.N.stack_residual(np.eye(2)[None]) < RESIDUAL_TOL
        assert fx.dual.L.stack_residual(unit(2, 2, 2).matrix[None]) < RESIDUAL_TOL
        assert spans["L_eq_Lhat"] > RESIDUAL_TOL
        assert spans["NL_commutation"] < 1e-14

    def test_z2_scalar(self, w_z2):
        fx = Fixture(w_z2)
        assert fx.N.dim == 1 and fx.L.dim == 1
        assert fx.N.stack_residual(np.eye(2)[None]) < RESIDUAL_TOL

    def test_identity_w(self):
        fx = Fixture(identity(space(2, 2)))
        assert all(s.dim == 1 for s in (fx.N, fx.L, fx.dual.N, fx.dual.L))

    def test_groupoid_unit_count(self, w_pair2, w_pair3, w_two_z2, w_z3_plus_triv):
        assert Fixture(w_pair2).N.dim == 2
        assert Fixture(w_pair3).N.dim == 3
        assert Fixture(w_two_z2).N.dim == 2
        assert Fixture(w_z3_plus_triv).N.dim == 2

    def test_corpus_structure(self, corpus_fixtures):
        for name, w in corpus_fixtures.items():
            spans = base_spans(Fixture(w))
            if name == "example":  # L = Lhat needs fullness; see oracle above
                del spans["L_eq_Lhat"]
            assert list(spans)[:2] == ["NL_commutation", "NhatLhat_commutation"], name
            assert all(v < 1e-10 for v in spans.values()), (name, spans)


class TestKappa:
    def test_example_diagonal_fixed(self, w_example):
        # E(b (x) 1) = b1 e11 (x) e11 + b2 e22 (x) e22 = E(1 (x) b)
        b = np.diag([2.0, -0.5])
        solver = KappaSolver(Fixture(w_example))
        vals, res = solver.solve_stack(b[None])
        np.testing.assert_allclose(vals[0], b, atol=1e-12)
        assert res[0] < 1e-13
        assert solver.nullity == 0

    def test_z2_scalar(self, w_z2):
        vals, res = KappaSolver(Fixture(w_z2)).solve_stack(3.0 * np.eye(2)[None])
        np.testing.assert_allclose(vals[0], 3.0 * np.eye(2), atol=1e-12)
        assert res[0] < 1e-13

    def test_uniqueness_under_perturbation(self, w_example):
        # nullity 0: re-solving from a perturbed right-hand side target b
        # returns kappa-values that track b linearly, same solution each run
        b = np.diag([1.0, 2.0])[None]
        solver = KappaSolver(Fixture(w_example))
        v1, _ = solver.solve_stack(b)
        v2, _ = KappaSolver(Fixture(w_example)).solve_stack(b)
        assert solver.nullity == 0
        np.testing.assert_allclose(v1, v2, atol=1e-10)

    def test_pair_groupoid_brute_force(self, w_pair2):
        # oracle: independent dense lstsq on the vectorized system
        fx = Fixture(w_pair2)
        basis = fx.N.stack
        e = (w_pair2.adj @ w_pair2).matrix
        n = 4
        vals, residuals = KappaSolver(fx).solve_stack(basis)
        for b, val, res in zip(basis, vals, residuals):
            assert res < 1e-10
            cols = []
            for m in range(n):
                for l in range(n):
                    u = np.zeros((n, n))
                    u[m, l] = 1.0
                    cols.append((e @ np.kron(np.eye(n), u)).ravel())
            a = np.array(cols).T
            rhs = (e @ np.kron(b, np.eye(n))).ravel()
            x, *_ = np.linalg.lstsq(a, rhs, rcond=None)
            np.testing.assert_allclose(val, x.reshape(n, n), atol=1e-9)

    def test_factored_solver_matches_dense_map(self):
        # reference: the dense n^4 x n^2 map x -> E(1 (x) x) built column by
        # column, for a rank-deficient E (W = e11 (x) e11, nullity 2)
        from mpi_lab.tensor import LstsqSolver, lsq_solve

        w = Operator(space(2, 2), np.kron(unit(2, 1, 1).matrix, unit(2, 1, 1).matrix))
        e = (w.adj @ w).matrix
        n = 2
        cols = []
        for m in range(n):
            for l in range(n):
                cols.append((e @ np.kron(np.eye(n), unit(n, m + 1, l + 1).matrix)).ravel())
        dense = np.array(cols).T
        solver = KappaSolver(Fixture(w))
        for b in (unit(2, 1, 1), unit(2, 1, 2), identity(space(2))):
            vals, res = solver.solve_stack(b.matrix[None])
            rhs = (e @ np.kron(b.matrix, np.eye(n))).ravel()
            x, res_dense = lsq_solve(dense, rhs)
            np.testing.assert_allclose(vals[0], x.reshape(n, n), atol=1e-14)
            assert abs(res[0] - res_dense) < 1e-14
        assert solver.nullity == LstsqSolver(dense).nullity == 2

    def test_antimultiplicative_on_corpus(self, corpus_fixtures):
        for name, w in corpus_fixtures.items():
            if w.space.legs[0].dim > 4:
                continue
            kap = kappa_map(Fixture(w))
            assert max(kap.residuals) < 1e-10, name
            assert kap.antimultiplicativity < 1e-9, name


class TestDistinguishedWeight:
    def test_example_trace(self, w_example):
        nu = find_distinguished_weight(Fixture(w_example))
        assert nu.found
        np.testing.assert_allclose(nu.density.matrix, np.eye(2), atol=1e-10)
        for x in (unit(2, 1, 1), unit(2, 2, 2)):
            assert abs(np.trace(x.matrix @ nu.density.matrix) - 1.0) < 1e-10

    def test_z2_half_identity(self, w_z2):
        # E = I forces trace(D) = 1 inside N = span{I}
        nu = find_distinguished_weight(Fixture(w_z2))
        assert nu.found
        np.testing.assert_allclose(nu.density.matrix, np.eye(2) / 2.0, atol=1e-10)

    def test_trivial(self):
        nu = find_distinguished_weight(Fixture(identity(space(1, 1))))
        np.testing.assert_allclose(nu.density.matrix, np.eye(1), atol=1e-12)

    def test_pair2_quarter(self, w_pair2):
        # each unit has 2 outgoing arrows: D = diag(1/2)
        nu = find_distinguished_weight(Fixture(w_pair2))
        assert nu.found
        np.testing.assert_allclose(nu.density.matrix, np.eye(4) / 2.0, atol=1e-10)

    def test_found_on_corpus_and_dual(self, corpus_fixtures):
        for name, w in corpus_fixtures.items():
            fx = Fixture(w)
            for base in ("N", "Nhat"):
                wd = find_distinguished_weight(fx if base == "N" else fx.dual)
                if name == "example" and base == "Nhat":
                    # (nu-hat (x) id)(E-hat) = 1 is unsolvable here:
                    # E-hat = 1 (x) e22, so every slice is a multiple of e22
                    assert not wd.found
                    continue
                assert wd.found, (name, base)
                assert wd.normalization_residual < 1e-10, (name, base)


class TestModularConjugate:
    def test_identity_density(self, w_example):
        nu = find_distinguished_weight(Fixture(w_example))
        x = unit(2, 1, 2).matrix
        got = modular_conjugate(nu, -0.5j, x)
        np.testing.assert_allclose(got, x, atol=1e-12)

    def test_diag_density_direct(self):
        # sigma_z(x) = D^{iz} x D^{-iz}: at z = -i/2 this is D^{1/2} x D^{-1/2}
        from mpi_lab.base_algebra import WeightData

        d = Operator(space(2), np.diag([1.0, 4.0]))
        wd = WeightData(d, 1.0, 0.0, np.eye(2, dtype=complex), True)
        x = unit(2, 1, 2).matrix
        got = modular_conjugate(wd, -0.5j, x)
        np.testing.assert_allclose(got, 0.5 * x, atol=1e-12)
        # t = 0 leaves x alone
        got0 = modular_conjugate(wd, 0.0, x)
        np.testing.assert_allclose(got0, x, atol=1e-12)


class TestGammaAndRtilde:
    def test_example_identity_chain(self, w_example):
        fx = Fixture(w_example)
        st = gamma_and_rtilde(fx)
        # gamma_N is the identity on the diagonal algebra, Rtilde likewise,
        # and mu = nu (density I)
        bs = fx.N.stack
        np.testing.assert_allclose(st.gamma_n, bs, atol=1e-10)
        np.testing.assert_allclose(st.mu.density.matrix, np.eye(2), atol=1e-10)
        np.testing.assert_allclose(st.rtilde.apply(bs), bs, atol=1e-10)

    def test_z2_scalar_base(self, w_z2):
        fx = Fixture(w_z2)
        st = fx.structure
        np.testing.assert_allclose(
            gamma_n_stack(fx, fx.nu, np.eye(2)[None])[0], np.eye(2), atol=1e-12
        )
        assert abs(complex(np.trace(st.mu.density.matrix)) - 1.0) < 1e-10

    def test_gamma_equals_kappa_on_corpus(self, corpus_fixtures):
        # two independent routes: weight slice vs least-squares solve
        for name, w in corpus_fixtures.items():
            fx = Fixture(w)
            gammas = gamma_n_stack(fx, fx.nu, fx.N.stack)
            for g, val, res in zip(gammas, fx.kappa.value_stack, fx.kappa.residuals):
                assert res < 1e-10, name
                assert np.linalg.norm(g - val) < 1e-9, name


class TestSeparabilityTriple:
    def test_example_all_zero(self, w_example):
        res = check_separability_triple(Fixture(w_example))
        assert max(res.values()) < 1e-9, res

    def test_z2_with_q(self, w_z2):
        fx = Fixture(w_z2)
        q = identity(space(2))
        wt = build_wtilde(fx, q)
        res = {**check_separability_triple(fx), **kappa_q_checks(fx, q, wt)}
        assert max(res.values()) < 1e-9, res

    def test_pair2_with_q(self, w_pair2):
        fx = Fixture(w_pair2)
        q = identity(space(4))
        wt = build_wtilde(fx, q)
        res = {**check_separability_triple(fx), **kappa_q_checks(fx, q, wt)}
        assert max(res.values()) < 1e-9, res

    def test_corpus(self, corpus_fixtures):
        for name, w in corpus_fixtures.items():
            res = check_separability_triple(Fixture(w))
            assert max(res.values()) < 1e-9, (name, res)

    def test_without_weight_names_the_reason(self, w_example):
        # the example's dual has no distinguished weight, so no base
        # structure: the checks that read one say why, and c_star_bases,
        # which reads none, reports the same entries as with one
        fx = Fixture(w_example)
        dual = fx.dual
        assert dual.structure_reason == "no distinguished weight at tolerance"
        with pytest.raises(ValueError, match="no distinguished weight"):
            check_separability_triple(dual)
        assert list(c_star_bases(dual)) == list(c_star_bases(fx))

    def test_indefinite_mu_names_mu(self):
        # candidate 19, a random rank-2 W at n = 2, has a weight nu whose
        # mu = nu o Rtilde^-1 is indefinite on L: the reason names mu and
        # its smallest eigenvalue, not Rtilde
        fx = Fixture(list(weight_candidates())[19])
        assert fx.nu.found
        reason = fx.structure_reason
        assert reason.startswith("mu ") and "(min eig -" in reason
        assert "anti-isomorphism" not in reason and "Rtilde" not in reason


class TestCStarBases:
    def test_example(self, w_example):
        fx = Fixture(w_example)
        res = c_star_bases(fx)
        diag = span([unit(2, 1, 1), unit(2, 2, 2)])
        assert fx.N.equals(diag) < RESIDUAL_TOL and fx.L.equals(diag) < RESIDUAL_TOL
        assert max(res.values()) < 1e-10, res

    def test_group_scalar_bases(self, w_z3):
        fx = Fixture(w_z3)
        res = c_star_bases(fx)
        assert fx.N.dim == 1 and fx.L.dim == 1
        assert max(res.values()) < 1e-10

    def test_corpus_memberships(self, corpus_fixtures):
        for name, w in corpus_fixtures.items():
            res = c_star_bases(Fixture(w))
            assert max(res.values()) < 1e-9, (name, res)

    def test_r_onto_c_sees_images_off_l(self, w_z3, monkeypatch):
        # Push every gamma_N image off L = span{1} by an off-diagonal unit.
        # Rtilde's coordinates on L do not change, so Rtilde is still built;
        # the slices of E cannot leave L, and the mutant shows against
        # kappa and against the polar identity through Rtilde
        import mpi_lab.base_algebra as ba
        from mpi_lab.runner import run_suite

        original = ba.gamma_n_stack
        off_l = unit(3, 1, 2).matrix
        monkeypatch.setattr(
            ba, "gamma_n_stack", lambda w, nu, bs: original(w, nu, bs) + off_l
        )
        entries = {e.check_id: e for e in run_suite(w_z3, level="base").entries}
        assert not entries["gamma_N_eq_kappa"].passed
        assert not entries["gamma_N_polar"].passed

    def test_b_bhat_isomorphic_dims(self, corpus_fixtures):
        # B and B-hat agree in dimension (composed anti-isomorphisms),
        # but equality as spans is not asserted; the non-full example is
        # the known exception (dim N = 2, dim N-hat = 1)
        for name, w in corpus_fixtures.items():
            fx = Fixture(w)
            if name == "example":
                assert (fx.N.dim, fx.dual.N.dim) == (2, 1)
            else:
                assert fx.N.dim == fx.dual.N.dim


def weight_candidates():
    """Z_3, pair_groupoid_2 and the example, each conjugated by a seeded
    unitary and then perturbed at relative sizes 0 and 1e-1 ... 1e-5, and
    random W of rank 1, 2 and 5 at n = 2 ... 4: MPIs and non-MPIs alike."""
    rng = np.random.default_rng(31)
    for w in (
        corpus.group_mpu(corpus.cyclic_table(3)),
        corpus.groupoid_mpi(corpus.pair_groupoid(2)),
        corpus.matrix_unit_example(),
    ):
        n = w.space.legs[0].dim
        wc = corpus.conjugate_fixture(w, corpus.random_unitary(n, rng)).matrix
        for eps in (0.0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5):
            g = rng.standard_normal(wc.shape) + 1j * rng.standard_normal(wc.shape)
            yield Operator(space(n, n), wc + eps * np.linalg.norm(wc) / np.linalg.norm(g) * g)
    for n in (2, 3, 4):
        for rank in (1, 2, 5)[: 2 + (n > 2)]:
            a, b = (rng.standard_normal(sh) + 1j * rng.standard_normal(sh)
                    for sh in ((n * n, rank), (rank, n * n)))
            yield Operator(space(n, n), a @ b)


class TestWeightSystemsHaveNullityZero:
    # E = E* makes N and L *-closed, so over real-orthonormal Hermitian
    # bases nu's system has N's singular values (those of E's Schmidt
    # span) and mu's trace system is an isometry: each weight is the one
    # solution of its system.  The slack is relative to the largest
    # singular value, the scale of the rounding.
    def test_on_seeded_candidates(self, monkeypatch):
        import mpi_lab.base_algebra as ba

        systems = []
        original = ba.lsq_solve

        def capture(a, rhs):
            systems.append(a)
            return original(a, rhs)

        monkeypatch.setattr(ba, "lsq_solve", capture)
        mu_systems = 0
        for w in weight_candidates():
            fx = Fixture(w)
            for side in (fx, fx.dual):  # nu, then nu-hat
                systems.clear()
                find_distinguished_weight(side)
                a, = systems
                sv, top = np.linalg.svd(a, compute_uv=False), side.N.s[0]
                assert factor(a)[3] == a.shape[1] == len(sv)
                assert sv.min() >= side.N.s[-1] - 1e-12 * top
                assert sv.max() <= top * (1 + 1e-12)
            if fx.structure_reason is None:  # mu's system is solved last
                a = systems[-1]
                assert factor(a)[3] == a.shape[1]
                np.testing.assert_allclose(np.linalg.svd(a, compute_uv=False), 1.0, atol=1e-12)
                mu_systems += 1
        assert mu_systems == 8


class TestModularConventionCalibration:
    def test_polar_identity_under_both_signs(self, corpus_fixtures):
        # The suite fixes sigma_z(x) = D^{iz} x D^{-iz}.  On this corpus
        # every base algebra is commutative with D inside it, so the
        # opposite sign satisfies the polar identity as well; this test
        # records that fact (the convention is untestable at desk scale)
        # and guards against a regression that would break both.
        satisfied = {"fixed": 0, "opposite": 0}
        for name, w in corpus_fixtures.items():
            fx = Fixture(w)
            bs = fx.N.stack
            g = gamma_n_stack(fx, fx.nu, bs)
            for key, z in (("fixed", 0.5j), ("opposite", -0.5j)):
                images = fx.structure.rtilde.apply(modular_conjugate(fx.nu, z, bs))
                gaps = np.linalg.norm(g - images, axis=(1, 2))
                satisfied[key] += int(np.sum(gaps < 1e-9))
        assert satisfied["fixed"] > 0
        # commutative bases: both conventions coincide on the corpus
        assert satisfied["fixed"] == satisfied["opposite"]


class TestSupportProjection:
    def test_full_support(self, w_example):
        p = range_basis(Fixture(w_example).N.stack)
        assert p.shape == (2, 2)
        np.testing.assert_allclose(p @ p.conj().T, np.eye(2), atol=1e-12)

    def test_proper_support(self):
        sub = span([unit(2, 1, 1)])
        p = range_basis(sub.stack)
        assert p.shape == (2, 1)
        np.testing.assert_allclose((p @ p.conj().T), np.diag([1.0, 0.0]), atol=1e-12)
