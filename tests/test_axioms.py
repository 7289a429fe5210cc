import itertools
import json

import numpy as np
import pytest

from mpi_lab import corpus
from mpi_lab.axioms import (
    DERIVED_IDENTITIES,
    IDENTITY_WORDS,
    MPI_AXIOMS,
    assess_fullness,
    check_mpi_axioms,
    pi_gaps,
    projection_residuals,
)
from mpi_lab.coalgebra import E_LEG_WORDS, _coassoc_residuals
from mpi_lab.context import Fixture, what
from mpi_lab.manageability import COMPOSABILITY_WORDS, build_wtilde, check_hash_identities
from mpi_lab.runner import run_suite
from mpi_lab.tensor import (
    RESIDUAL_TOL,
    LegSpec,
    LegWords,
    Operator,
    TensorSpace,
    embed,
    flip,
    identity,
    space,
    transpose_op,
)
from word_references import identity_sides, kron_word


def perm_matrix(perm, n):
    """Matrix of the basis permutation i -> perm[i]."""
    m = np.zeros((n, n))
    for i, j in enumerate(perm):
        m[j, i] = 1.0
    return m


class TestPartialIsometry:
    def test_example(self, w_example):
        assert pi_gaps(w_example.matrix) == (0.0, 0.0)

    def test_non_example(self):
        w = Operator(space(2, 2), np.diag([0.5, 1.0, 0.0, 0.0]))
        assert pi_gaps(w.matrix)[1] > 1e-2

    def test_permutation_matrix(self):
        w = Operator(space(2, 2), np.eye(4)[[2, 0, 3, 1]])
        assert pi_gaps(w.matrix)[1] < 1e-15

    def test_corrupted_entry(self, w_example):
        m = np.array(w_example.matrix)
        m[2, 0] = 0.9
        assert pi_gaps(m)[1] > 1e-2


class TestMpiAxioms:
    def test_example_passes_exactly(self, w_example):
        v = check_mpi_axioms(Fixture(w_example))
        assert v.passed
        for name in MPI_AXIOMS:
            assert v.mpi_residuals[name] == 0.0

    def test_identity_operator(self):
        v = check_mpi_axioms(Fixture(identity(space(2, 2))))
        assert v.passed

    def test_flip_fails_mpi1(self):
        s = Fixture(flip(2))
        v = check_mpi_axioms(s)
        assert not v.passed
        assert v.mpi_residuals["mpi1"] > 0.1
        # oracle: left side is the leg transposition (13), right side the
        # 3-cycle (12)(13), as permutations of the 8 basis vectors
        lhs, rhs = identity_sides(s, "mpi1")

        def leg_perm(sigma):
            # sigma permutes leg positions; basis (i1,i2,i3) -> reordered
            out = np.zeros((8, 8))
            for i in range(2):
                for j in range(2):
                    for k in range(2):
                        src = (i, j, k)
                        dst = tuple(src[sigma[p]] for p in range(3))
                        out[dst[0] * 4 + dst[1] * 2 + dst[2], i * 4 + j * 2 + k] = 1.0
            return out

        np.testing.assert_allclose(lhs, leg_perm([2, 1, 0]))  # (13)
        # (12)(13) composed right-to-left: (i,j,k) -> (k,j,i) -> (j,k,i)
        np.testing.assert_allclose(rhs, leg_perm([1, 2, 0]))

    def test_example_against_hand_expansion(self, w_example):
        # mpi1 for the example: both sides equal
        # e21 (x) e22 (x) e11 + e22 (x) e22 (x) e22, computed by hand
        def unit(i, j):
            m = np.zeros((2, 2))
            m[i - 1, j - 1] = 1.0
            return m

        expected = np.kron(unit(2, 1), np.kron(unit(2, 2), unit(1, 1))) + np.kron(
            unit(2, 2), np.kron(unit(2, 2), unit(2, 2))
        )
        lhs, rhs = identity_sides(Fixture(w_example), "mpi1")
        np.testing.assert_allclose(lhs, expected)
        np.testing.assert_allclose(rhs, expected)

    def test_non_finite_entry_stops_nothing_early(self):
        # one inf or NaN entry of Z_2 (one column block) or Z_6 (two), exact
        # or perturbed, in a column of W that W_12 applies in the first or
        # in the last block: every block's partial gap is NaN, so no
        # identity stops early on any bound of lhs_norm_bounds; the report
        # carries null residuals and fails
        for n, blocks in ((2, 1), (6, 2)):
            base = corpus.group_mpu(corpus.cyclic_table(n))
            noise = np.random.default_rng(n).standard_normal(base.matrix.shape)
            for m0, col, value in itertools.product(
                    (base.matrix, base.matrix + 1e-3 * noise), (0, n * n - 1), (np.inf, np.nan)):
                m = m0.copy()
                m[np.argmax(base.matrix[:, col]), col] = value
                w = Operator(base.space, m)
                fx = Fixture(w)
                with np.errstate(invalid="ignore", over="ignore"):
                    words = LegWords(fx.three_leg, {"W": fx.w, "W*": fx.ws}, IDENTITY_WORDS)
                    assert len(words.column_blocks) == blocks
                    for cols in words.column_blocks:
                        gaps = words.block_norms(cols, IDENTITY_WORDS)
                        assert all(np.isnan(gap) for gap, _ in gaps.values()), (n, col, cols)
                    verdict = check_mpi_axioms(fx)
                    rep = json.loads(run_suite(w, level="axioms").to_json())
                assert not verdict.passed and verdict.lower_bounds == ()
                assert all(c == {"id": c["id"], "pass": False, "residual": None}
                           for c in rep["checks"])
                assert rep["overall"] == "fail"

    def test_traced_peak_on_z10(self):
        # the ten identities run on column blocks: the tracemalloc peak of
        # one call, context prepared, stays below one n^6-entry array
        # (15.3 MiB at n = 10; 61 MiB when each word was a dense matrix)
        import tracemalloc

        fx = Fixture(corpus.group_mpu(corpus.cyclic_table(10)))
        fx.ws  # built before tracing: it belongs to the context
        tracemalloc.start()
        try:
            assert check_mpi_axioms(fx).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6 * 16, peak / 2**20


class TestDerivedIdentities:
    def test_example_all_zero(self, w_example):
        derived = check_mpi_axioms(Fixture(w_example)).derived_residuals
        # oracle below recomputes each side with plain embedded products
        amb = space(2, 2, 2)
        w12 = embed(w_example, [1, 2], amb).matrix
        w13 = embed(w_example, [1, 3], amb).matrix
        w23 = embed(w_example, [2, 3], amb).matrix
        h = lambda m: m.conj().T
        oracle = {
            "mpi5": (w12 @ w13 @ w23, w23 @ w12),
            "mpi6": (h(w12) @ w12 @ w13, w13 @ w23 @ h(w23)),
            "mpi7": (w12 @ h(w23), h(w23) @ w12 @ w13),
            "mpi8": (h(w12) @ w23, w13 @ w23 @ h(w12)),
            "mpi9": (h(w13) @ w13 @ w23, w23 @ h(w12) @ w12),
            "mpi10": (w12 @ w13 @ h(w13), w23 @ h(w23) @ w12),
        }
        for name in DERIVED_IDENTITIES:
            lhs, rhs = oracle[name]
            assert np.linalg.norm(lhs - rhs) == 0.0
            assert derived[name] == 0.0

    def test_identity_operator(self):
        derived = check_mpi_axioms(Fixture(identity(space(3, 3)))).derived_residuals
        assert all(v == 0.0 for v in derived.values())

    def test_z2_pentagon_by_basis_action(self, w_z2):
        # oracle: evaluate mpi5 on every basis vector from the group law
        n = 2
        lhs, rhs = identity_sides(Fixture(w_z2), "mpi5")
        for g in range(n):
            for h in range(n):
                for k in range(n):
                    vec = np.zeros(n**3)
                    vec[g * n * n + h * n + k] = 1.0
                    # W23 W12: (g,h,k) -> (g, gh, k) -> (g, gh, (gh)k)
                    out = np.zeros(n**3)
                    out[g * n * n + ((g + h) % n) * n + ((g + h + k) % n)] = 1.0
                    np.testing.assert_allclose(rhs @ vec, out)
                    np.testing.assert_allclose(lhs @ vec, out)
        assert check_mpi_axioms(Fixture(w_z2)).derived_residuals["mpi5"] == 0.0


class TestProjectionInvariants:
    @pytest.mark.parametrize(
        "name",
        ["example", "group_z2", "group_z3", "pair_groupoid_2", "two_z2"],
    )
    def test_projections(self, corpus_fixtures, name):
        res = projection_residuals(Fixture(corpus_fixtures[name]))
        assert all(v < 1e-10 for v in res.values()), res

    def test_what_closure(self, corpus_fixtures):
        # if W passes, so does W-hat = Sigma W* Sigma
        for w in corpus_fixtures.values():
            assert check_mpi_axioms(Fixture(w).dual).passed

    def test_double_dual_exact(self, corpus_fixtures):
        for w in corpus_fixtures.values():
            np.testing.assert_array_equal(what(what(w)).matrix, w.matrix)


class TestFullness:
    def test_example(self, w_example):
        f = assess_fullness(Fixture(w_example))
        # A = span{e21, e22}: range is span{e2} only, but kernel is trivial
        assert not f.literal_right
        assert not f.nondeg_A_range
        assert f.nondeg_A_kernel
        assert f.nondeg_Ahat_range

    def test_identity_operator(self):
        f = assess_fullness(Fixture(identity(space(2, 2))))
        assert not f.literal_right and not f.literal_left
        assert f.right_slice_rank == 1  # slices are multiples of I

    def test_scalar_case(self):
        f = assess_fullness(Fixture(identity(space(1, 1))))
        assert f.literal_right and f.literal_left
        assert f.nondeg_A_range and f.nondeg_A_kernel
        assert f.nondeg_Ahat_range and f.nondeg_Ahat_kernel

    def test_annihilator_duality(self, corpus_fixtures):
        # literal_right iff left slices span all of B(H), independently
        from mpi_lab.tensor import all_left_slices

        for w in corpus_fixtures.values():
            n = w.space.legs[0].dim
            f = assess_fullness(Fixture(w))
            stack = all_left_slices(w).reshape(n * n, n * n)
            rank = np.linalg.matrix_rank(stack, tol=1e-10)
            assert f.literal_right == (rank == n * n)

    def test_groups_nondegenerate(self, w_z2, w_z3):
        for w in (w_z2, w_z3):
            f = assess_fullness(Fixture(w))
            assert f.nondeg_A_range and f.nondeg_A_kernel
            assert f.nondeg_Ahat_range and f.nondeg_Ahat_kernel


class TestConjugationInvariance:
    def test_verdicts_stable(self, small_corpus):
        rng = np.random.default_rng(123)
        for w in small_corpus.values():
            n = w.space.legs[0].dim
            u = corpus.random_unitary(n, rng)
            wc = corpus.conjugate_fixture(w, u)
            fx0, fx1 = Fixture(w), Fixture(wc)
            v0, v1 = check_mpi_axioms(fx0), check_mpi_axioms(fx1)
            assert v0.passed == v1.passed
            r0, r1 = pi_gaps(w.matrix)[1], pi_gaps(wc.matrix)[1]
            assert (r0 < RESIDUAL_TOL) == (r1 < RESIDUAL_TOL)
            f0, f1 = assess_fullness(fx0), assess_fullness(fx1)
            assert f0 == f1


def bound_candidates():
    """Z_3, pair_groupoid_2 and example, each plain and under a seeded
    unitary conjugation, plus a seeded complex Gaussian of relative
    Frobenius size 1e-9 to 0.3; and, with W-hat of each, Z_3 and
    pair_groupoid_2 scaled by 0.5 and 0.9 (the mpi3 and mpi4 gaps vanish,
    that of W W* W = W does not) and pair_groupoid_2 cut by a projection
    on its second leg, (1 (x) P)W (the mpi4 gap of W-hat is not that of
    mpi3)."""
    bases = {"z3": corpus.group_mpu(corpus.cyclic_table(3)),
             "pair2": corpus.groupoid_mpi(corpus.pair_groupoid(2)),
             "example": corpus.matrix_unit_example()}
    out = {}
    for i, (name, w) in enumerate(bases.items()):
        u = corpus.random_unitary(w.space.legs[0].dim, np.random.default_rng(i))
        for kind, v in (("plain", w), ("conj", corpus.conjugate_fixture(w, u))):
            for j, eps in enumerate((1e-9, 1e-6, 1e-3, 3e-2, 0.3)):
                rng = np.random.default_rng(100 * i + 10 * j + (kind == "conj"))
                m = v.matrix
                z = rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape)
                out[f"{name}_{kind}_{eps:g}"] = Operator(
                    v.space, m + eps * np.linalg.norm(m) / np.linalg.norm(z) * z)
    z3, pair2 = bases["z3"], bases["pair2"]
    structured = {f"{name}_times_{c}": Operator(w.space, c * w.matrix)
                  for name, w in (("z3", z3), ("pair2", pair2)) for c in (0.5, 0.9)}
    cut = np.kron(np.eye(4), np.diag([1.0, 1.0, 1.0, 0.0]))
    structured["pair2_1P_W"] = Operator(pair2.space, cut @ pair2.matrix)
    for name, w in structured.items():
        out[name], out[f"{name}_hat"] = w, what(w)
    return out


BOUND_CANDIDATES = bound_candidates()


def hash_gaps(fx, wt):
    """Frobenius gaps of hash1 and hash2 for W and its Wtilde, each side a
    dense matrix."""
    wtop = transpose_op(fx.w)
    ops = {"Wt": wt, "Wt*": wt.adj, "WT": wtop, "WT*": wtop.adj}
    out = {}
    for key in ("hash1", "hash2"):
        flavors, left, right = COMPOSABILITY_WORDS[key]
        amb = TensorSpace(tuple(LegSpec(fx.n, f) for f in flavors))
        out[key] = np.linalg.norm(kron_word(amb, ops, left) - kron_word(amb, ops, right))
    return out


def random_positive_q(n, kappa, rng):
    """A positive Q on C^n with eigenvalues spread from 1 to kappa, in a
    random eigenbasis."""
    u = corpus.random_unitary(n, rng).matrix
    m = (u * np.geomspace(1.0, kappa, n)) @ u.conj().T
    return Operator(space(n), (m + m.conj().T) / 2)


#: the bound keys that are no entry's bound alone: the term of the
#: delta_homomorphism bound that does not depend on the commutators, and
#: the coefficients that the later levels multiply their own norms by
PER_UNIT = ("delta_homomorphism", "delta_homomorphism_per_commutator",
            "dual_cond3_per_wtilde_gap")


def covers(value, bound):
    # the product-form bounds are tight: allow the dense evaluation's
    # rounding, which the program's FAIL_MARGIN covers
    return value <= bound * (1.0 + 1e-12) + 1e-13


class TestDependentBounds:
    """axioms.dependent_bounds against the exact gaps: every identity that
    takes a bound, each side a dense matrix (word_references.kron_word),
    the E-leg gaps of W-hat, hash1 and hash2 at Q = 1 and at Q != 1, and
    the exact coassociativity maximum of W and of W-hat."""

    @pytest.mark.parametrize("name", list(BOUND_CANDIDATES))
    def test_bounds_cover_the_exact_gaps(self, name):
        w = BOUND_CANDIDATES[name]
        # at tol = inf the axioms pass and none stops early, so the
        # verdict carries its bounds
        bounds = check_mpi_axioms(Fixture(w, tol=np.inf)).bounds
        words = {**{k: IDENTITY_WORDS[k] for k in DERIVED_IDENTITIES}, **E_LEG_WORDS}
        dual_words = {f"{k}_dual": pair for k, pair in E_LEG_WORDS.items()}
        assert sorted(bounds) == sorted([*words, *dual_words, "hash1", "hash2",
                                         "coassociativity", *PER_UNIT])
        fx = Fixture(w)
        exact = {}
        for sfx, table in ((fx, words), (fx.dual, dual_words)):
            ops = {"W": sfx.w, "W*": sfx.ws, "E": sfx.e}
            exact.update((key, np.linalg.norm(kron_word(fx.three_leg, ops, left)
                                              - kron_word(fx.three_leg, ops, right)))
                         for key, (left, right) in table.items())
        # at Q = 1, kappa(Q) = 1
        exact.update(hash_gaps(fx, build_wtilde(fx, identity(fx.leg_space))))
        exact["coassociativity"] = max(_coassoc_residuals(fx).max(),
                                       _coassoc_residuals(fx.dual).max())
        for key, value in exact.items():
            assert covers(value, bounds[key]), (key, value / bounds[key])

    @pytest.mark.parametrize("name", list(BOUND_CANDIDATES))
    def test_bound_coefficients(self, name):
        # the keys that later levels combine with quantities of their own
        # (coalgebra.check_canonical_idempotent, manageability.dual_manageability)
        # are s ||W W* W - W||_F and s^2, s = ||W||_2, each from numpy here
        m = BOUND_CANDIDATES[name].matrix
        bounds = check_mpi_axioms(Fixture(BOUND_CANDIDATES[name], tol=np.inf)).bounds
        s = np.linalg.svd(m, compute_uv=False)[0]
        want = {"delta_homomorphism": s * np.linalg.norm(m @ m.conj().T @ m - m),
                "delta_homomorphism_per_commutator": s * s, "dual_cond3_per_wtilde_gap": s * s}
        assert sorted(want) == sorted(PER_UNIT)
        for key, value in want.items():
            assert bounds[key] == pytest.approx(value, rel=1e-12, abs=1e-300), key

    @pytest.mark.parametrize("kappa", [2.0, 6.0, 40.0])
    def test_hash_entries_cover_the_gaps_at_q_not_one(self, kappa):
        # the entries check_hash_identities reports from the bounds (at
        # tol = inf every finite bound decides) cover the exact gaps for a
        # random positive Q of condition number kappa; on some candidate a
        # gap exceeds its bound per unit kappa(Q), so the factor is needed
        per_unit = []
        for i, (name, w) in enumerate(BOUND_CANDIDATES.items()):
            fx = Fixture(w, tol=np.inf)
            q = random_positive_q(fx.n, kappa, np.random.default_rng(i))
            wt = build_wtilde(fx, q)
            bounds = check_mpi_axioms(fx).bounds
            got = check_hash_identities(fx, q, wt, bounds)
            for key, gap in hash_gaps(fx, wt).items():
                assert got[key] == pytest.approx(kappa * bounds[key], rel=1e-10), (name, key)
                assert covers(gap, got[key]), (name, key, gap / got[key])
                if bounds[key] > 0.0:
                    per_unit.append(gap / bounds[key])
        assert max(per_unit) > 1.0

    def test_no_bound_for_a_failing_w(self, w_z3):
        w = Operator(w_z3.space, w_z3.matrix + 1e-3)
        assert check_mpi_axioms(Fixture(w)).bounds == {}
        assert check_mpi_axioms(Fixture(w, tol=1.0)).bounds != {}
