import numpy as np
import pytest

from mpi_lab import corpus
from mpi_lab.axioms import check_mpi_axioms, pi_gaps
from mpi_lab.context import Fixture
from mpi_lab.runner import builtin_corpus
from mpi_lab.tensor import Operator, space

BUILTIN = builtin_corpus()


class TestMatrixUnitExample:
    def test_entries(self):
        m = corpus.matrix_unit_example().matrix
        assert m[2, 0] == 1.0
        assert m[3, 3] == 1.0
        other = m.copy()
        other[2, 0] = other[3, 3] = 0.0
        assert np.all(other == 0.0)


class TestGroupOperators:
    def test_trivial_group(self):
        w = corpus.group_mpu(corpus.cyclic_table(1))
        np.testing.assert_array_equal(w.matrix, np.eye(1))

    def test_z2_is_permutation_with_full_projections(self, w_z2):
        m = w_z2.matrix
        assert np.all((m == 0.0) | (m == 1.0))
        assert np.all(m.sum(axis=0) == 1.0) and np.all(m.sum(axis=1) == 1.0)
        np.testing.assert_array_equal((w_z2.adj @ w_z2).matrix, np.eye(4))
        np.testing.assert_array_equal((w_z2 @ w_z2.adj).matrix, np.eye(4))

    def test_z2_action_oracle(self, w_z2):
        # W(d_g (x) d_h) = d_g (x) d_{g+h}
        for g in range(2):
            for h in range(2):
                vec = np.zeros(4)
                vec[g * 2 + h] = 1.0
                out = np.zeros(4)
                out[g * 2 + (g + h) % 2] = 1.0
                np.testing.assert_array_equal(w_z2.matrix @ vec, out)

    def test_z3_axiom_residuals_zero(self, w_z3):
        v = check_mpi_axioms(Fixture(w_z3))
        assert all(r == 0.0 for r in v.mpi_residuals.values())

    def test_invalid_table_rejected(self):
        with pytest.raises(ValueError):
            corpus.group_mpu([[0, 1], [1, 1]])
        # non-associative latin square (order 5 quasigroup)
        t = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 3, 4, 0, 1],
            [3, 4, 1, 2, 0],
            [4, 2, 0, 1, 3],
        ]
        with pytest.raises(ValueError):
            corpus.group_mpu(t)


class TestGeneratorOutputsAreMpis:
    # the generators build their operators without checking them; the
    # multiplicativity axioms of every output are checked here
    @pytest.mark.parametrize("name", list(BUILTIN))
    def test_builtin_corpus(self, name):
        verdict = check_mpi_axioms(Fixture(BUILTIN[name]))
        assert verdict.passed, verdict

    @pytest.mark.parametrize("k", range(1, 9))
    def test_cyclic_groups(self, k):
        verdict = check_mpi_axioms(Fixture(corpus.group_mpu(corpus.cyclic_table(k))))
        assert verdict.passed, verdict


class TestGroupoidSpec:
    def test_pair_groupoid_shape(self):
        g = corpus.pair_groupoid(2)
        assert len(g.units) == 2
        assert len(g.arrows) == 4

    def test_one_arrow_groupoid(self):
        g = corpus.group_as_groupoid(corpus.cyclic_table(1))
        w = corpus.groupoid_mpi(g)
        np.testing.assert_array_equal(w.matrix, np.eye(1))

    def test_broken_composition_rejected(self):
        g = corpus.pair_groupoid(2)
        bad = dict(g.compose)
        # break associativity-compatible structure: misroute one composite
        (k, v), = [(k, v) for k, v in bad.items() if k == ("u0>u1", "u1>u0")]
        bad[k] = "u0>u1"  # wrong target
        with pytest.raises(ValueError):
            corpus.GroupoidSpec(g.units, g.arrows, bad, dict(g.inverse))

    def test_wrong_inverses_rejected(self):
        # Z_2 = {e, a} with each arrow named the inverse of the other: the
        # identities are found from the composition, never taken from the
        # caller, so a claim that a is the identity cannot be made
        compose = {("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a", ("a", "a"): "e"}
        args = (("u",), (("e", "u", "u"), ("a", "u", "u")), compose, {"e": "a", "a": "e"})
        with pytest.raises(ValueError, match=r"g g\^-1 != id at"):
            corpus.GroupoidSpec(*args)
        with pytest.raises(TypeError):
            corpus.GroupoidSpec(*args, {"u": "a"})

    def test_missing_inverse_rejected(self):
        g = corpus.pair_groupoid(2)
        inv = dict(g.inverse)
        inv["u0>u1"] = "u0>u1"
        with pytest.raises(ValueError):
            corpus.GroupoidSpec(g.units, g.arrows, dict(g.compose), inv)


class TestGroupoidOperators:
    def test_pair2_partial_isometry_and_idempotent(self, w_pair2):
        assert pi_gaps(w_pair2.matrix)[1] < 1e-14
        # E = sum over composable pairs of rank-one projections
        g = corpus.pair_groupoid(2)
        ids = g.arrow_ids
        n = len(ids)
        e = np.zeros((n * n, n * n))
        for i, a in enumerate(ids):
            for j, b in enumerate(ids):
                if g.composable(a, b):
                    e[i * n + j, i * n + j] = 1.0
        np.testing.assert_allclose((w_pair2.adj @ w_pair2).matrix, e, atol=1e-14)
        assert not np.allclose(e, np.eye(n * n))  # a proper projection

    def test_pair2_axioms_by_basis_action(self, w_pair2):
        # oracle for mpi1 acting on basis vectors, straight from the
        # composition table
        g = corpus.pair_groupoid(2)
        ids = g.arrow_ids
        n = len(ids)
        idx = {a: i for i, a in enumerate(ids)}

        def w_act(a, b):
            if g.composable(a, b):
                return (a, g.compose[(a, b)], 1.0)
            return (a, b, 0.0)

        from word_references import identity_sides

        lhs, rhs = identity_sides(Fixture(w_pair2), "mpi1")
        for a in ids:
            for b in ids:
                for c in ids:
                    vec = np.zeros(n**3)
                    vec[(idx[a] * n + idx[b]) * n + idx[c]] = 1.0
                    # RHS = W12 W13: first W13 on (a,c), then W12 on (a,b')
                    a1, c1, s1 = w_act(a, c)
                    a2, b2, s2 = w_act(a1, b)
                    out = np.zeros(n**3)
                    out[(idx[a2] * n + idx[b2]) * n + idx[c1]] += s1 * s2
                    np.testing.assert_allclose(rhs @ vec, out, atol=1e-14)
                    np.testing.assert_allclose(lhs @ vec, out, atol=1e-14)

    def test_disjoint_union_proper_projection(self, w_two_z2):
        e = (w_two_z2.adj @ w_two_z2).matrix
        assert np.linalg.norm(e @ e - e) < 1e-14
        assert not np.allclose(e, np.eye(16))

    def test_disjoint_union_refuses_shared_ids(self):
        a = corpus.group_as_groupoid(corpus.cyclic_table(2), tag="a")
        with pytest.raises(ValueError, match=r"ids must be disjoint, shared: \['a0', 'a1'\]"):
            corpus.disjoint_union(a, a)

    def test_generator_entries_are_binary(self, corpus_fixtures):
        for w in corpus_fixtures.values():
            m = w.matrix
            assert np.all((m == 0.0) | (m == 1.0))
            assert pi_gaps(w.matrix)[1] < 1e-14


class TestConjugation:
    def test_identity_conjugation(self, w_example):
        u = Operator(space(2), np.eye(2))
        np.testing.assert_array_equal(
            corpus.conjugate_fixture(w_example, u).matrix, w_example.matrix
        )

    def test_swap_conjugation_keeps_verdicts(self, w_example):
        u = Operator(space(2), np.array([[0.0, 1.0], [1.0, 0.0]]))
        wc = corpus.conjugate_fixture(w_example, u)
        assert check_mpi_axioms(Fixture(wc)).passed == check_mpi_axioms(Fixture(w_example)).passed

    def test_nonunitary_rejected(self, w_example):
        u = Operator(space(2), np.diag([1.0, 2.0]))
        with pytest.raises(ValueError):
            corpus.conjugate_fixture(w_example, u)

    def test_random_unitary_is_unitary(self):
        rng = np.random.default_rng(7)
        u = corpus.random_unitary(5, rng).matrix
        assert np.linalg.norm(u @ u.conj().T - np.eye(5)) < 1e-12
