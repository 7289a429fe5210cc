"""The leg-word engine (tensor.LegWords) against the dense evaluation, and
the certified early FAIL of check_mpi_axioms.

The engine fuses runs of same-leg factors and evaluates words on column
blocks; the references multiply n^3 x n^3 matrices,
embedded by np.kron (``kron_word``) or by ``tensor.embed`` and
``tensor.embedded_mul`` (``chain_word``).  The comparisons run on seeded
dense non-MPI candidates, where every residual is O(1), with blocks of
one and two rows of the last leg, so that a word spans several blocks of
unequal length.  Words of exactly real factors run in float64; they are
compared with the same engine fed every factor as a complex tensor.
"""

from collections import Counter

import numpy as np
import pytest

from mpi_lab import corpus, tensor
from mpi_lab.axioms import (
    DERIVED_IDENTITIES,
    FAIL_MARGIN,
    IDENTITY_WORDS,
    check_mpi_axioms,
    lhs_norm_bounds,
)
from mpi_lab.coalgebra import check_canonical_idempotent
from mpi_lab.context import Fixture
from mpi_lab.manageability import (
    COMPOSABILITY_WORDS,
    build_wtilde,
    check_hash_identities,
    check_manageability,
)
from mpi_lab.runner import run_suite
from mpi_lab.tensor import (
    RESIDUAL_TOL,
    LegSpec,
    LegWords,
    Operator,
    TensorSpace,
    embed,
    embedded_mul,
    rel_residual,
    space,
    transpose_op,
)
from word_references import engine_word, kron_word

E_LEG_WORDS = {
    "E_legs_commute": ("E12 E23", "E23 E12"),
    "E_legs_product_form": ("E12 E23", "W*12 W*23 W23 W12"),
}


def dense_candidate(n, seed, scale=1.0):
    """A seeded complex Gaussian W on C^n (x) C^n with ||W||_2 = scale."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n * n, n * n)) + 1j * rng.standard_normal((n * n, n * n))
    return Operator(space(n, n), scale * z / np.linalg.norm(z, 2))


@pytest.fixture
def row_blocks(monkeypatch):
    # at n = 3, k <= 7 columns: one or two rows of the last leg, split
    # evenly within each slab of the first leg, so blocks of 3 and 6
    monkeypatch.setattr(tensor, "BLOCK_ENTRIES", 7 * 27)


def word_sets(w):
    """(ambient, ops, pairs) of every group of words the checks evaluate."""
    fx = Fixture(w)
    q = Operator(space(fx.n), np.diag(np.resize([1.0, 2.0, 0.5], fx.n)))
    wt, wtop = build_wtilde(fx, q), transpose_op(fx.w)
    comp_ops = {"W": fx.w, "W*": fx.ws, "Wt": wt, "Wt*": wt.adj, "WT": wtop, "WT*": wtop.adj}
    sets = [
        (fx.three_leg, {"W": fx.w, "W*": fx.ws}, IDENTITY_WORDS),
        (fx.three_leg, {"W": fx.w, "W*": fx.ws, "E": fx.e}, E_LEG_WORDS),
    ]
    for name, (flavors, left, right) in COMPOSABILITY_WORDS.items():
        amb = TensorSpace(tuple(LegSpec(fx.n, f) for f in flavors))
        sets.append((amb, comp_ops, {name: (left, right)}))
    return sets


def dense_residuals(ambient, ops, pairs, evaluate=kron_word):
    out = {}
    for name, (left, right) in pairs.items():
        lhs, rhs = evaluate(ambient, ops, left), evaluate(ambient, ops, right)
        out[name] = rel_residual(lhs, rhs)
    return out


def chain_word(ambient, ops, word):
    """A word's matrix through the dense products of embed and embedded_mul,
    one factor at a time, right to left."""
    *left, last = [(ops[f[:-2]], [int(f[-2]), int(f[-1])]) for f in word.split()]
    out = embed(*last, ambient)
    for op, legs in reversed(left):
        out = embedded_mul(op, legs, out)
    return out.matrix


class TestAgainstDense:
    @pytest.mark.usefixtures("row_blocks")
    def test_every_word_entrywise(self):
        for ambient, ops, pairs in word_sets(dense_candidate(3, 0)):
            for name, words in pairs.items():
                for word in words:
                    want = kron_word(ambient, ops, word)
                    got = engine_word(ambient, ops, word)
                    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13,
                                               err_msg=f"{name}: {word}")

    @pytest.mark.usefixtures("row_blocks")
    def test_every_pair_residual(self):
        for ambient, ops, pairs in word_sets(dense_candidate(3, 1)):
            words = LegWords(ambient, ops, pairs)
            assert [len(cols) for cols in words.column_blocks] == [3, 6] * 3
            got, want = words.residuals(), dense_residuals(ambient, ops, pairs)
            for name in pairs:
                assert want[name] > 0.05, name  # O(1): the comparison can fail
                assert got[name] == pytest.approx(want[name], rel=1e-12), name

    @pytest.mark.usefixtures("row_blocks")
    def test_check_entry_points(self):
        w = dense_candidate(3, 2)
        fx = Fixture(w)
        ((amb, ops, ids), (_, e_ops, e_legs), *_) = word_sets(w)
        want = dense_residuals(amb, ops, ids)
        # tol = inf: no identity stops early, every residual is over all columns
        derived = check_mpi_axioms(fx, np.inf).derived_residuals
        assert list(derived) == list(DERIVED_IDENTITIES)
        for name in DERIVED_IDENTITIES:
            assert derived[name] == pytest.approx(want[name], rel=1e-12), name
        want_e = dense_residuals(amb, e_ops, e_legs)
        can = check_canonical_idempotent(fx).residuals
        for name in E_LEG_WORDS:
            assert can[name] == pytest.approx(want_e[name], rel=1e-12), name
        q = Operator(space(3), np.diag([1.0, 2.0, 0.5]))
        got = {**check_hash_identities(fx, build_wtilde(fx, q)),
               **check_manageability(fx, q).residuals}
        for ambient, ops, pairs in word_sets(w)[2:]:
            for name, value in dense_residuals(ambient, ops, pairs).items():
                assert got[name] == pytest.approx(value, rel=1e-12), name

    def test_axioms_in_one_block_are_exact(self):
        # n = 3 fits one block: nothing stops early, every residual is exact
        w = dense_candidate(3, 3)
        v = check_mpi_axioms(w)
        want = dense_residuals(*word_sets(w)[0])
        assert v.lower_bounds == () and not v.passed
        for name, value in {**v.mpi_residuals, **v.derived_residuals}.items():
            assert value == pytest.approx(want[name], rel=1e-12), name


class TestFusionAndBlocks:
    @pytest.mark.usefixtures("row_blocks")
    def test_same_leg_runs_entrywise(self):
        # a run of three same-leg factors, a run at the left end, a run
        # that fills the word, and (1, 2) next to (2, 1), which is not a run
        ambient, ops, _ = word_sets(dense_candidate(3, 7))[1]
        for word in ("W12 W*23 W23 W*23 W13", "W*12 W12 W13 W23", "W*23 W23",
                     "W21 W*12 W23", "E13 W31 W*13 W12"):
            np.testing.assert_allclose(engine_word(ambient, ops, word),
                                       kron_word(ambient, ops, word),
                                       rtol=1e-12, atol=1e-13, err_msg=word)

    def test_partial_rows_entrywise(self, monkeypatch):
        # k = 2 < n: blocks of one and two columns within each row
        monkeypatch.setattr(tensor, "BLOCK_ENTRIES", 2 * 27)
        ambient, ops, pairs = word_sets(dense_candidate(3, 8))[0]
        words = LegWords(ambient, ops, pairs)
        assert [len(cols) for cols in words.column_blocks] == [1, 2] * 9
        for word in ("W12 W13 W23", "W*23 W23 W12", "W*12", "W21 W*12 W23"):
            np.testing.assert_allclose(engine_word(ambient, ops, word),
                                       kron_word(ambient, ops, word),
                                       rtol=1e-12, atol=1e-13, err_msg=word)

    @pytest.mark.parametrize("dims", [(3, 3, 3), (2, 3, 4), (10, 10, 10), (16, 16, 16)])
    @pytest.mark.parametrize("entries", [1, 2 * 27, 7 * 27, 18 * 27, 2**15])
    def test_blocks_are_product_sets(self, monkeypatch, dims, entries):
        monkeypatch.setattr(tensor, "BLOCK_ENTRIES", entries)
        d = int(np.prod(dims))
        blocks = LegWords(space(*dims), {}, {}).column_blocks
        assert [c for cols in blocks for c in cols] == list(range(d))
        sizes = [len(cols) for cols in blocks]
        assert max(sizes) <= max(1, entries // d)
        for cols in blocks:
            idx = np.array(np.unravel_index(np.asarray(cols), dims))
            ranges = [np.unique(leg) for leg in idx]
            # a product of contiguous leg ranges: single indices, then one
            # range, then whole legs, so that no block crosses its group
            lengths = [len(r) for r in ranges]
            assert np.prod(lengths) == len(cols)
            assert all(np.array_equal(r, np.arange(r[0], r[-1] + 1)) for r in ranges)
            wide = [i for i, m in enumerate(lengths) if m > 1]
            assert all(lengths[i] == dims[i] for i in wide[1:])
        # split evenly: sizes within a factor 2 of each other
        assert max(sizes) <= 2 * min(sizes)

    def test_factor_applications_per_block(self, monkeypatch):
        # fused runs make every E- or G-leg word a two-factor start, and
        # each side of each pair is one start: per block the axioms take
        # 20 starts and 5 tensordots, the E-leg words 4 and 1, the five
        # composability pairs 10 and 2
        counts = Counter()
        first, apply = LegWords._first, tensor._apply

        def counted_first(self, factors, cols):
            counts["first"] += 1
            return first(self, factors, cols)

        def counted_apply(*args):
            counts["apply"] += 1
            return apply(*args)

        monkeypatch.setattr(LegWords, "_first", counted_first)
        monkeypatch.setattr(tensor, "_apply", counted_apply)
        ids, e_legs, *comp = word_sets(dense_candidate(3, 9))
        want = [(20, 5), (4, 1)] + [(2, 0), (2, 0), (2, 1), (2, 0), (2, 1)]
        for (ambient, ops, pairs), (starts, applies) in zip([ids, e_legs, *comp], want):
            words = LegWords(ambient, ops, pairs)
            counts.clear()
            words.block_norms(words.column_blocks[0], pairs)
            assert (counts["first"], counts["apply"]) == (starts, applies), list(pairs)


def complex_residuals(ambient, ops, pairs):
    """The engine's residuals with every fused factor tensor cast to
    complex: the reference for words evaluated in real arithmetic."""
    words = LegWords(ambient, ops, pairs)
    words._tensors = {names: t.astype(complex) for names, t in words._tensors.items()}
    return words.residuals()


def fused_dtypes(words):
    return {t.dtype for t in words._tensors.values()}


REAL, COMPLEX = np.dtype(float), np.dtype(complex)


class TestRealArithmetic:
    """A fused factor is kept in float64 exactly when its matrix has a
    zero imaginary part; the residuals are those of complex arithmetic."""

    def test_real_candidates_match_complex_reference(self):
        # Z_4 under a real orthogonal conjugation, and that W plus a real
        # Gaussian, where every residual is O(1); residuals are relative
        # to max(1, ||L||), so abs=1e-13 is a 1e-13 relative gap
        z4 = corpus.group_mpu(corpus.cyclic_table(4))
        o, _ = np.linalg.qr(np.random.default_rng(12).standard_normal((4, 4)))
        conj = corpus.conjugate_fixture(z4, Operator(space(4), o))
        g = np.random.default_rng(13).standard_normal(conj.matrix.shape)
        bumped = Operator(conj.space, conj.matrix + 0.5 * g / np.linalg.norm(g, 2))
        for w, floor in ((conj, 0.0), (bumped, 0.05)):
            assert not w.matrix.imag.any()
            for ambient, ops, pairs in word_sets(w):
                words = LegWords(ambient, ops, pairs)
                assert fused_dtypes(words) == {REAL}
                got = words.residuals()
                want = complex_residuals(ambient, ops, pairs)
                for name in pairs:
                    assert want[name] >= floor, name
                    assert got[name] == pytest.approx(want[name], rel=1e-13, abs=1e-13), name

    def test_mixed_word_turns_complex(self):
        # a real W with a complex factor between its own: the word is
        # complex from the complex factor on, and matches the reference
        w = Operator(space(3, 3), dense_candidate(3, 15).matrix.real)
        ops = {"W": w, "W*": w.adj, "U": dense_candidate(3, 16)}
        pairs = {"mixed": ("W12 U23 W*13", "U13 W23")}
        words = LegWords(space(3, 3, 3), ops, pairs)
        assert fused_dtypes(words) == {REAL, COMPLEX}
        got = words.residuals()["mixed"]
        want = complex_residuals(space(3, 3, 3), ops, pairs)["mixed"]
        assert want > 0.05
        assert got == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("defect", [False, True])
    def test_zero_one_w_is_exact(self, defect):
        # every product and squared norm of 0/1 (and, with Q, dyadic)
        # matrices is exact, so real and complex arithmetic agree bit for
        # bit; one entry zeroed makes W a 0/1 non-MPI that fails axioms
        m = np.array(corpus.group_mpu(corpus.cyclic_table(8)).matrix)
        if defect:
            m[tuple(np.argwhere(m)[9])] = 0.0
        nonzero = []
        for ambient, ops, pairs in word_sets(Operator(space(8, 8), m)):
            words = LegWords(ambient, ops, pairs)
            assert fused_dtypes(words) == {REAL}
            got = words.residuals()
            assert got == complex_residuals(ambient, ops, pairs)
            nonzero += [name for name, value in got.items() if value > 0]
        assert "cond3a" in nonzero and ("mpi1" in nonzero) == defect

    def test_complex_w_keeps_complex_tensors(self):
        z8 = corpus.group_mpu(corpus.cyclic_table(8))
        w = corpus.conjugate_fixture(z8, corpus.random_unitary(8, np.random.default_rng(14)))
        for ambient, ops, pairs in word_sets(w):
            assert fused_dtypes(LegWords(ambient, ops, pairs)) == {COMPLEX}


class TestEarlyFail:
    def test_norm_bounds_are_upper_bounds(self):
        # unitary, partial isometry, and dense W with ||W||_2 above and below 1
        for w in (corpus.group_mpu(corpus.cyclic_table(3)),
                  corpus.groupoid_mpi(corpus.pair_groupoid(2)),
                  dense_candidate(3, 4, scale=3.0), dense_candidate(3, 5, scale=0.5)):
            fx = Fixture(w)
            bounds = lhs_norm_bounds(w.matrix, np.linalg.norm(w.matrix, 2))
            for name, (left, _) in IDENTITY_WORDS.items():
                lhs = kron_word(fx.three_leg, {"W": fx.w, "W*": fx.ws}, left)
                assert bounds[name] >= max(1.0, np.linalg.norm(lhs)), name

    def test_norm_bounds_count_every_factor(self):
        # for W = 3 U with U unitary every left word is 3^m times a unitary,
        # so the bound is attained only if it counts all m factors of the
        # paper's word, fused or not
        u = corpus.group_mpu(corpus.cyclic_table(3))
        w = Operator(u.space, 3.0 * u.matrix)
        fx = Fixture(w)
        bounds = lhs_norm_bounds(w.matrix, np.linalg.norm(w.matrix, 2))
        for name, (left, _) in IDENTITY_WORDS.items():
            lhs = kron_word(fx.three_leg, {"W": fx.w, "W*": fx.ws}, left)
            assert bounds[name] == pytest.approx(np.linalg.norm(lhs), rel=1e-12), name

    @pytest.mark.usefixtures("row_blocks")
    def test_lower_bounds_below_dense_residuals(self):
        w = dense_candidate(3, 6)
        v = check_mpi_axioms(w)
        want = dense_residuals(*word_sets(w)[0])
        got = {**v.mpi_residuals, **v.derived_residuals}
        assert set(v.lower_bounds) == set(IDENTITY_WORDS)
        for name in IDENTITY_WORDS:
            assert FAIL_MARGIN * RESIDUAL_TOL < got[name] <= want[name], name

    def test_single_entry_defect_fails(self):
        # one perturbed entry of Z_8 reaches few columns of each word; for
        # mpi4 and mpi9 they all lie in the last block, where no identity
        # stops early, so those two are decided by their exact residuals
        w = corpus.group_mpu(corpus.cyclic_table(8))
        m = np.array(w.matrix)
        m[63, 63] += 1e-6
        bad = Operator(w.space, m)
        v = check_mpi_axioms(bad)
        assert not v.passed
        fx = Fixture(bad)
        ops = {"W": fx.w, "W*": fx.ws}
        failing = [name for name in IDENTITY_WORDS
                   if {**v.mpi_residuals, **v.derived_residuals}[name] >= RESIDUAL_TOL]
        assert set(v.lower_bounds) <= set(failing)
        assert {"mpi1", "mpi2", "mpi4", "mpi9"} <= set(failing)
        assert {"mpi1", "mpi2"} <= set(v.lower_bounds)
        assert not {"mpi4", "mpi9"} & set(v.lower_bounds)
        want = dense_residuals(fx.three_leg, ops, {n: IDENTITY_WORDS[n] for n in failing},
                               evaluate=chain_word)
        got = {**v.mpi_residuals, **v.derived_residuals}
        for name in failing:
            if name in v.lower_bounds:
                assert FAIL_MARGIN * RESIDUAL_TOL < got[name] <= want[name], name
            else:
                assert got[name] == pytest.approx(want[name], rel=1e-10), name

    @pytest.mark.parametrize("eps", [1e-3, 1e-7])
    @pytest.mark.parametrize("base", ["group_z4", "Z_8", "pair_groupoid_3", "Z_10"])
    def test_reject_bases(self, base, eps):
        # perturbed as the reject workload perturbs them: every early-FAIL
        # residual lies in (FAIL_MARGIN tol, dense residual], every other
        # one is the dense residual
        w = {
            "group_z4": lambda: corpus.group_mpu(corpus.cyclic_table(4)),
            "Z_8": lambda: corpus.group_mpu(corpus.cyclic_table(8)),
            "pair_groupoid_3": lambda: corpus.groupoid_mpi(corpus.pair_groupoid(3)),
            "Z_10": lambda: corpus.group_mpu(corpus.cyclic_table(10)),
        }[base]()
        rng = np.random.default_rng(17)
        m = w.matrix
        g = rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape)
        bad = Operator(w.space, m + eps * np.linalg.norm(m) * g / np.linalg.norm(g))
        v = check_mpi_axioms(bad)
        assert not v.passed
        fx = Fixture(bad)
        want = dense_residuals(fx.three_leg, {"W": fx.w, "W*": fx.ws}, IDENTITY_WORDS,
                               evaluate=chain_word)
        got = {**v.mpi_residuals, **v.derived_residuals}
        # n = 4 is one block; the larger bases stop before their last one
        assert bool(v.lower_bounds) == (base != "group_z4")
        for name in IDENTITY_WORDS:
            if name in v.lower_bounds:
                assert FAIL_MARGIN * RESIDUAL_TOL < got[name] <= want[name], name
            else:
                assert got[name] == pytest.approx(want[name], rel=1e-10), name

    def test_runner_lists_lower_bound_checks(self):
        w = corpus.group_mpu(corpus.cyclic_table(8))
        rng = np.random.default_rng(3)
        g = rng.standard_normal(w.matrix.shape)
        bad = Operator(w.space, w.matrix + 1e-3 * g)
        rep = run_suite(bad, level="axioms")
        listed = rep.properties["lower_bound_checks"]
        assert listed and set(listed) <= set(IDENTITY_WORDS)
        assert all(not e.passed for e in rep.entries if e.check_id in listed)
        # a PASS report keeps its schema: no such property
        assert "lower_bound_checks" not in run_suite(w, level="axioms").properties
