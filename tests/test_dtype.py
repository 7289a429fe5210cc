"""The dtype rule: a matrix whose imaginary part is exactly zero is stored
as float64, any other as complex128, and numpy's promotion carries the
dtype through every quantity of the fixture context.  On real data the
checks give the entries of complex storage."""

import numpy as np
import pytest

from mpi_lab import antipode, axioms, base_algebra, coalgebra, corpus, manageability, tensor
from mpi_lab.context import Fixture
from mpi_lab.tensor import Operator, real_if_exact, space
from word_references import complex_storage

REAL, COMPLEX = np.dtype(float), np.dtype(complex)


def orthogonal(n, seed):
    return np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))[0]


def level_entries(m, q):
    """Every residual the five levels compute for W = m and the positive
    Q = q, from the check functions called directly (a W that fails the
    axioms still reaches every level), keyed by level."""
    n = q.shape[0]
    fx = Fixture(Operator(space(n, n), m))
    q = Operator(space(n), q)
    verdict = axioms.check_mpi_axioms(fx)
    out = {"axioms": {"partial_isometry": verdict.pi_residual, **verdict.mpi_residuals,
                      **verdict.derived_residuals, **axioms.projection_residuals(fx)}}
    coalg = {}
    for side, sfx in (("primal", fx), ("dual", fx.dual)):
        coalg[f"coassociativity_{side}"] = coalgebra.coassociativity_residual(sfx)
        square = coalgebra.TensorSquare(sfx)
        for res in (coalgebra.check_canonical_idempotent(square),
                    coalgebra.check_delta_range_and_density(square, True).residuals):
            coalg.update({f"{key}_{side}": value for key, value in res.items()})
    out["coalgebra"] = coalg
    base = {**base_algebra.base_spans(fx), **base_algebra.c_star_bases(fx),
            "kappa_solves": max(fx.kappa.residuals),
            "kappa_antimultiplicative": fx.kappa.antimultiplicativity,
            "nu": fx.nu.normalization_residual, "nuhat": fx.dual.nu.normalization_residual}
    cert = manageability.check_manageability(fx, q)
    wt = cert.wtilde
    dual_res, formula_gap, wt_hat = manageability.dual_manageability(fx, cert)
    manage = {**cert.residuals,
              **manageability.check_hash_identities(fx, q, wt),
              **{f"dual_{k}": v for k, v in dual_res.items()},
              "dual_wtilde_formula": formula_gap,
              **manageability.inclusion_consequences(fx, q)}
    anti = {"wtilde_partial_isometry": axioms.pi_gaps(wt.matrix)[1]}
    for side, res in (("primal", antipode.check_antipode(fx, q, wt)),
                      ("dual", antipode.check_duality(fx, q, wt_hat))):
        anti.update({f"{key}_{side}": value for key, value in res.items()})
    if fx.structure_reason is None:
        base.update(base_algebra.check_separability_triple(fx))
        manage.update(base_algebra.kappa_q_checks(fx, q, wt))
        anti.update(antipode.check_base_restrictions(fx, q))
    out.update(base=base, manageability=manage, antipode=anti)
    return fx, out


def real_candidates():
    """Real W with their real positive Q: Z_4 conjugated by a real
    orthogonal O (an MPI; Q = 1 is certified), and pair_groupoid(2) skewed
    as (G1 (x) G2) W (G3 (x) G4) by real G_i = 1 + 0.5 Gaussian (not an
    MPI).  Most entries are maxima over an SVD basis of A, which is unique
    up to signs and phases only where its singular values are distinct:
    they coincide for a W skewed by orthogonal matrices, whose residuals
    would then depend on the basis LAPACK returns, not on the storage."""
    z4 = corpus.group_mpu(corpus.cyclic_table(4)).matrix
    o = np.kron(*2 * [orthogonal(4, 12)])
    g1, g2, g3, g4 = (np.eye(4) + 0.5 * np.random.default_rng(44 + i).standard_normal((4, 4))
                      for i in range(4))
    pair = corpus.groupoid_mpi(corpus.pair_groupoid(2)).matrix
    g = np.random.default_rng(30).standard_normal((4, 4))
    return {"Z_4_orthogonal": (o @ z4 @ o.T, np.eye(4)),
            "pair_groupoid_2_skewed": (np.kron(g1, g2) @ pair @ np.kron(g3, g4), g @ g.T + np.eye(4))}


def test_zero_one_context_is_real():
    fx = Fixture(corpus.group_mpu(corpus.cyclic_table(8)))
    stored = {"W": fx.w.matrix, "W*": fx.ws.matrix, "E": fx.e.matrix, "G": fx.g.matrix,
              "right_slices": fx.right_slices, "left_slices": fx.left_slices,
              "A": fx.A.basis_matrix, "Ahat": fx.Ahat.basis_matrix,
              "N": fx.N.basis_matrix, "L": fx.L.basis_matrix}
    assert {name: m.dtype for name, m in stored.items()} == dict.fromkeys(stored, REAL)


def test_real_data_matches_complex_storage(monkeypatch):
    # every entry of every level equals that of complex storage to 1e-12,
    # relative to max(1, |entry|) as the residuals themselves are; the
    # skewed W fails each level by O(1), so the entries compared are not
    # all near 0.  The maps' inconsistency entries are included: they are
    # spectral norms on the slices' null space, so LAPACK's choice of a
    # basis of that space does not move them
    largest = {}
    for name, (m, q) in real_candidates().items():
        fx, got = level_entries(m, q)
        assert fx.w.matrix.dtype == REAL and fx.e.matrix.dtype == REAL, name
        with monkeypatch.context() as patch:
            complex_storage(patch)
            ref_fx, want = level_entries(m, q)
            assert ref_fx.w.matrix.dtype == COMPLEX
        for level, entries in want.items():
            assert list(got[level]) == list(entries), (name, level)
            for key, value in entries.items():
                assert got[level][key] == pytest.approx(value, rel=1e-12, abs=1e-12), (name, key)
            largest[level] = max(largest.get(level, 0.0), *entries.values())
    assert list(largest) == ["axioms", "coalgebra", "base", "manageability", "antipode"]
    assert {level: v for level, v in largest.items() if not v > 0.1} == {}


def test_complex_data_stays_complex():
    z8 = corpus.group_mpu(corpus.cyclic_table(8))
    w = corpus.conjugate_fixture(z8, corpus.random_unitary(8, np.random.default_rng(14)))
    fx = Fixture(w)
    assert {m.dtype for m in (fx.w.matrix, fx.e.matrix, fx.right_slices)} == {COMPLEX}
    for bad in (np.nan, np.inf):
        m = np.eye(4, dtype=complex)
        m[0, 1] = complex(0.0, bad)
        assert real_if_exact(m).dtype == COMPLEX
        assert Operator(space(2, 2), m).matrix.dtype == COMPLEX


def test_real_input_is_not_widened():
    m = np.arange(16.0).reshape(4, 4)
    assert Operator(space(2, 2), m).matrix.dtype == REAL
    assert Operator(space(2, 2), m + 0j).matrix.dtype == REAL
    assert tensor.identity(space(2, 2)).matrix.dtype == REAL
