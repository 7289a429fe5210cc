"""Acceptance suite: one criterion per test class, stated tolerances.

Each criterion prints a single PASS line when it holds (run with -s to
see them); failures surface as ordinary assertion errors.  Two
sub-items are provably false for the non-full matrix-unit example
(density spans equal to dim A, and L = L-hat); those are encoded as
strict xfail tests right next to tests that pin the oracle-computed
truth, so the stated criterion stays visible and its failure expected.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from mpi_lab import corpus
from mpi_lab.antipode import antipode_map, check_antipode, check_base_restrictions, check_duality
from mpi_lab.axioms import (
    assess_fullness,
    check_mpi_axioms,
    pi_gaps,
)
from mpi_lab.base_algebra import base_spans, check_separability_triple
from mpi_lab.coalgebra import (
    TensorSquare,
    _comul_stack,
    check_canonical_idempotent,
    check_delta_range_and_density,
    coassociativity_residual,
    leg_algebra,
)
from mpi_lab.context import Fixture, what
from mpi_lab.manageability import (
    build_wtilde,
    check_hash_identities,
    check_manageability,
    dual_manageability,
)
from mpi_lab.tensor import RESIDUAL_TOL, Operator, flip, identity, rel_residual, space


FULL_FIXTURES = (
    "group_z2",
    "group_z3",
    "group_z4",
    "pair_groupoid_2",
    "pair_groupoid_3",
    "two_z2",
    "z3_plus_trivial",
)

GROUPOID_UNIT_COUNTS = {
    "pair_groupoid_2": 2,
    "pair_groupoid_3": 3,
    "two_z2": 2,
    "z3_plus_trivial": 2,
}

# 200 seeded conjugations for criterion 2, spread over the small full
# fixtures (n <= 4); the n = 9 fixture is checked directly once.
CONJUGATION_PLAN = {
    "group_z2": 60,
    "group_z3": 40,
    "group_z4": 30,
    "pair_groupoid_2": 30,
    "two_z2": 20,
    "z3_plus_trivial": 20,
}
assert sum(CONJUGATION_PLAN.values()) == 200


@pytest.fixture(scope="session")
def contexts(corpus_fixtures):
    return {name: Fixture(w) for name, w in corpus_fixtures.items()}


def comultiplication_residuals(fx: Fixture, full: bool) -> dict[str, float]:
    """The criterion-2 comultiplication identity set; density equalities only when full."""
    both = max(coassociativity_residual(fx), coassociativity_residual(fx.dual))
    res = {"coassociativity": both}
    res["E_eq_delta_unit"] = rel_residual(_comul_stack(fx, np.eye(fx.n)[None])[0], fx.e.matrix)
    sq = TensorSquare(fx)
    can = check_canonical_idempotent(sq)
    res["E_legs_commute"] = can["E_legs_commute"]
    res["E_multiplier"] = can["E_multiplier"]
    rng = check_delta_range_and_density(sq)
    for key in ("mult_a1_deltab", "mult_deltaa_1b", "mult_deltaa_b1", "mult_1a_deltab"):
        res[key] = rng.residuals[key]
    res["range_in_EA2"] = rng.residuals["range_in_EA2"]
    res["EA2_in_range"] = rng.residuals["EA2_in_range"]
    if full:
        for key, val in rng.residuals.items():
            if key.startswith("density_"):
                res[key] = val
    return res


class TestCriterion1MatrixUnitExample:
    def test_example_reproduction(self, w_example):
        assert pi_gaps(w_example.matrix)[1] < 1e-12
        fx = Fixture(w_example)
        verdict = check_mpi_axioms(fx)
        assert verdict.passed
        assert all(r < 1e-12 for r in verdict.mpi_residuals.values())
        alg_a = leg_algebra(fx, "A")
        assert alg_a.dim == 2
        assert alg_a.unital is False
        alg_ahat = leg_algebra(fx, "Ahat")
        assert alg_ahat.unital is True
        print("\nACCEPTANCE 1: PASS - example is a multiplicative partial "
              "isometry, A non-unital (dim 2), A-hat unital")


class TestCriterion2IdentityImplication:
    def test_corpus_direct(self, corpus_fixtures):
        for name, w in corpus_fixtures.items():
            fx = Fixture(w)
            verdict = check_mpi_axioms(fx)
            assert all(r < 1e-11 for r in verdict.mpi_residuals.values()), name
            assert all(r < 1e-9 for r in verdict.derived_residuals.values()), name
            full = name in FULL_FIXTURES
            res = comultiplication_residuals(fx, full=full)
            assert max(res.values()) < 1e-9, (name, res)
            # mirrored statements for (A-hat, Delta-hat, E-hat)
            res_dual = comultiplication_residuals(fx.dual, full=full)
            assert max(res_dual.values()) < 1e-9, (name, res_dual)

    def test_seeded_conjugations(self, corpus_fixtures):
        rng = np.random.default_rng(20260810)
        total = 0
        for name, count in CONJUGATION_PLAN.items():
            w = corpus_fixtures[name]
            n = w.space.legs[0].dim
            for _ in range(count):
                u = corpus.random_unitary(n, rng)
                fx = Fixture(corpus.conjugate_fixture(w, u))
                verdict = check_mpi_axioms(fx)
                assert all(r < 1e-11 for r in verdict.mpi_residuals.values()), name
                assert all(r < 1e-9 for r in verdict.derived_residuals.values()), name
                res = comultiplication_residuals(fx, full=True)
                assert max(res.values()) < 1e-9, (name, res)
                total += 1
        assert total == 200
        print("\nACCEPTANCE 2: PASS - mpi1-4 => mpi5-10 and the "
              "comultiplication identities on the corpus + 200 conjugations")

    @pytest.mark.xfail(
        strict=True,
        reason="provably false on the non-full example: two density "
        "families collapse to dim 1 (see decisions ledger)",
    )
    def test_density_dims_as_stated_on_example(self, w_example):
        rng = check_delta_range_and_density(TensorSquare(Fixture(w_example)))
        density = {k: v for k, v in rng.residuals.items() if k.startswith("density_")}
        assert max(density.values()) < 1e-9

    def test_density_dims_oracle_truth_on_example(self, w_example):
        rng = check_delta_range_and_density(TensorSquare(Fixture(w_example)))
        assert rng.dims["density_left_a1_db"] == 2
        assert rng.dims["density_right_da_1b"] == 1
        assert rng.dims["density_left_db_a1"] == 1
        assert rng.dims["density_right_1b_da"] == 2


class TestCriterion3BaseStructure:
    def test_base_structure(self, contexts):
        for name, fx in contexts.items():
            spans = base_spans(fx)
            if name in FULL_FIXTURES:
                assert spans["L_eq_Lhat"] < 1e-10, name
            assert spans["NL_commutation"] < 1e-10, name
            if name in GROUPOID_UNIT_COUNTS:
                assert fx.N.dim == GROUPOID_UNIT_COUNTS[name], name
            assert max(fx.kappa.residuals) < 1e-10, name
            assert fx.kappa.antimultiplicativity < 1e-9, name
            assert fx.nu.found, name
            assert fx.nu.normalization_residual < 1e-10, name
            gamma_kappa = max(
                float(np.linalg.norm(g - v))
                for g, v in zip(fx.structure.gamma_n, fx.kappa.value_stack)
            )
            assert gamma_kappa < 1e-9, name
            sep = check_separability_triple(fx)
            assert sep["nu_normalization"] < 1e-10, name
            assert sep["gamma_N_polar"] < 1e-9, name
            assert sep["mu_normalization"] < 1e-9, name
            assert sep["gamma_L_characterization"] < 1e-9, name
        print("\nACCEPTANCE 3: PASS - base spans, kappa, distinguished "
              "weight, polar identity, and mu identities on the corpus")

    @pytest.mark.xfail(
        strict=True,
        reason="provably false on the non-full example: L-hat = span{e22} "
        "while L is the diagonal algebra (see decisions ledger)",
    )
    def test_L_eq_Lhat_as_stated_on_example(self, w_example):
        assert base_spans(Fixture(w_example))["L_eq_Lhat"] < 1e-10

    def test_L_eq_Lhat_oracle_truth_on_example(self, w_example):
        fx = Fixture(w_example)
        lhat = fx.dual.L
        assert lhat.dim == 1
        e22 = np.zeros((2, 2))
        e22[1, 1] = 1.0
        assert lhat.stack_residual(e22[None]) < RESIDUAL_TOL
        # one-sided inclusion does hold
        assert fx.L.stack_residual(lhat.stack) < 1e-12


class TestCriterion4Manageability:
    def test_group_groupoid_fixtures_with_identity_q(self, corpus_fixtures):
        for name in FULL_FIXTURES:
            w = corpus_fixtures[name]
            fx = Fixture(w)
            q = identity(space(fx.n))
            cert = check_manageability(fx, q)
            assert cert.residuals["cond1_commutation"] < 1e-10, name
            assert cert.residuals["cond3a"] < 1e-10, name
            assert cert.residuals["cond3b"] < 1e-10, name
            assert cert.passed, name
            hashes = check_hash_identities(fx, q, cert.wtilde)
            assert max(hashes.values()) < 1e-10, (name, hashes)
            _, formula_gap = dual_manageability(fx, cert)
            assert formula_gap < 1e-12, name
        print("\nACCEPTANCE 4: PASS - manageability certificates, "
              "composability identities, and the dual formula with Q = 1")


class TestCriterion5Antipode:
    def test_antipode_suite(self, contexts):
        for name in FULL_FIXTURES:
            fx = contexts[name]
            q = identity(space(fx.n))
            wt = build_wtilde(fx, q)
            ant = check_antipode(fx, q, wt)
            assert ant["polar_S_eq_RA_tau"] < 1e-9, name
            assert ant["S_antimultiplicative"] < 1e-9, name
            assert ant["S_star_involution"] < 1e-9, name
            dua = check_duality(fx, q, wt)
            assert dua["W_transpose_Rhat_eq_Wtilde_star"] < 1e-9, name
            assert dua["wtilde_partial_isometry"] < 1e-9, name
            base = check_base_restrictions(fx, q)
            assert base["tau_B_eq_sigma_nu_minus_t"] < 1e-9, name
            assert base["tau_C_eq_sigma_mu_t"] < 1e-9, name
        print("\nACCEPTANCE 5: PASS - polar decomposition, duality, and "
              "base restrictions of the antipode on certified fixtures")

    def test_z3_antipode_is_group_inversion(self, w_z3):
        s_map = antipode_map(Fixture(w_z3))
        rng = np.random.default_rng(11)
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        expected = np.diag([c[0], c[2], c[1]])
        got = s_map.apply(np.diag(c)[None])[0]
        assert np.linalg.norm(got - expected) < 1e-12


class TestCriterion6MetamorphicAndNegative:
    def test_conjugation_invariance_200_trials(self, small_corpus):
        rng = np.random.default_rng(77)
        names = sorted(small_corpus)
        trials = 0
        baselines = {}
        for name in names:
            fx = Fixture(small_corpus[name])
            v = check_mpi_axioms(fx)
            baselines[name] = (v.pi_residual < RESIDUAL_TOL, v.passed, assess_fullness(fx))
        while trials < 200:
            name = names[trials % len(names)]
            w = small_corpus[name]
            n = w.space.legs[0].dim
            u = corpus.random_unitary(n, rng)
            fx = Fixture(corpus.conjugate_fixture(w, u))
            v = check_mpi_axioms(fx)
            got = (v.pi_residual < RESIDUAL_TOL, v.passed, assess_fullness(fx))
            assert got == baselines[name], (name, trials)
            trials += 1
        assert trials == 200

    def test_double_dual_exact(self, corpus_fixtures):
        for w in corpus_fixtures.values():
            assert np.array_equal(what(what(w)).matrix, w.matrix)

    def test_flip_fails_mpi1(self):
        verdict = check_mpi_axioms(Fixture(flip(2)))
        assert not verdict.passed
        assert verdict.mpi_residuals["mpi1"] > 1e-2

    def test_half_singular_value_not_partial_isometry(self):
        w = Operator(space(2, 2), np.diag([0.5, 1.0, 0.0, 0.0]))
        assert pi_gaps(w.matrix)[1] >= RESIDUAL_TOL

    def test_corrupted_example_fails(self, w_example):
        m = np.array(w_example.matrix)
        m[2, 0] = 0.9
        assert pi_gaps(m)[1] > 1e-2
        print("\nACCEPTANCE 6: PASS - conjugation invariance (200 trials), "
              "exact double dual, and all negative controls")


class TestCriterion7Determinism:
    def test_suite_corpus_byte_identical(self):
        cmd = [
            sys.executable, "-m", "mpi_lab", "suite", "--corpus",
            "--seed", "7", "--report", "json",
        ]
        r1 = subprocess.run(cmd, capture_output=True, text=True)
        r2 = subprocess.run(cmd, capture_output=True, text=True)
        assert r1.returncode == 0 and r2.returncode == 0
        assert r1.stdout == r2.stdout and len(r1.stdout) > 0
        body = json.loads(r1.stdout)
        assert body["summary"]["passed"] == body["summary"]["total"]
        print("\nACCEPTANCE 7: PASS - `suite --corpus --seed 7 --report json` "
              "is byte-identical across runs")
