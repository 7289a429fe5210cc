"""Scaling group, antipode, unitary antipode, and their duals.

The antipode is pinned on generators: S((id (x) w)(W)) = (id (x) w)(W*),
and the unitary antipode by R_A((id (x) w)(W*)) = [(id (x) w)(Wt)]^T.
Both are assembled as linear maps on the HS coordinates of the
generator span by least squares over the full functional grid; the
consistency of that extension is a rank condition reported explicitly,
not assumed.  The polar decomposition S = R_A o tau_{-i/2} with
tau_t = Q^{2it}(.)Q^{-2it} is then a checkable identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .axioms import is_partial_isometry
from .base_algebra import BaseStructure, gamma_n_stack, modular_conjugate
from .context import Fixture, as_fixture
from .tensor import (
    RESIDUAL_TOL,
    T_SAMPLES,
    Operator,
    OperatorSubspace,
    SpanMap,
    TensorSpace,
    adjoint,
    all_left_slices,
    all_right_slices,
    antimultiplicativity,
    max_gap,
    numerical_rank,
    rel_residual,
    slice_op,
    star_preservation,
    transpose_grid,
)


def tau(
    w: Operator | Fixture, q: Operator, z: complex, a: Operator | np.ndarray
) -> Operator | np.ndarray:
    """Scaling group tau_z(a) = Q^{2iz} a Q^{-2iz}, for an Operator or each
    matrix of a stack."""
    return as_fixture(w).q_data(q).eig.conjugate(2j * z, a)


@dataclass(frozen=True)
class AssembledMap(SpanMap):
    """A linear map assembled from (input, output) generator pairs.

    The grid may overdetermine the map; ``inconsistency`` is the largest
    output that a null combination of inputs produces (zero iff the map
    is well defined on the span), and ``nullity`` counts the
    inconsistent directions.
    """

    inconsistency: float
    nullity: int


def assemble_map(pairs: list[tuple[Operator, Operator]]) -> AssembledMap:
    """Least-squares linear extension of input -> output pairs."""
    if not pairs:
        raise ValueError("no generator pairs")
    return _assemble(
        pairs[0][0].space,
        np.array([p[0].matrix for p in pairs]),
        np.array([p[1].matrix for p in pairs]),
    )


def _assemble(sp: TensorSpace, ins: np.ndarray, outs: np.ndarray) -> AssembledMap:
    """assemble_map on stacks of input and output matrices, from one SVD
    U S V* of the inputs (rank at the RANK_TOL cutoff): the domain basis
    is V*'s leading rows, and the inputs' domain coordinates are U S."""
    m_in = ins.reshape(ins.shape[0], -1)
    m_out = outs.reshape(outs.shape[0], -1)
    u, s, vh = np.linalg.svd(m_in, full_matrices=True)
    rank = numerical_rank(s)
    domain = OperatorSubspace(sp, np.ascontiguousarray(vh[:rank]))
    # well-definedness: null combinations of inputs must kill the outputs
    scale = max(1.0, float(np.linalg.norm(m_out)))
    gaps = np.linalg.norm(u[:, rank:].conj().T @ m_out, axis=1) / scale
    coeffs = (u[:, :rank].conj().T @ m_out) / s[:rank, None]
    return AssembledMap(
        domain, coeffs.T, float(gaps.max(initial=0.0)), int(np.sum(gaps > RESIDUAL_TOL))
    )


def antipode_generator(w: Operator | Fixture, omega) -> tuple[Operator, Operator]:
    """One generator pair ((id (x) w)(W), (id (x) w)(W*))."""
    fx = as_fixture(w)
    return slice_op(fx.w, "right", omega), slice_op(fx.ws, "right", omega)


def antipode_map(w: Operator | Fixture) -> AssembledMap:
    """S on span A, assembled from the full basis-functional grid."""
    fx = as_fixture(w)
    return _assemble(fx.leg_space, fx.right_slices, fx.dual.left_slices)


def _transposed_right_slices(wtilde: Operator) -> np.ndarray:
    """[(id (x) w_{e_a,e_b})(Wt)]^T over the grid, as plain matrices on H."""
    return all_right_slices(wtilde).transpose(0, 2, 1)


def unitary_antipode_map(w: Operator | Fixture, wtilde: Operator) -> AssembledMap:
    """R_A: (id (x) w)(W*) -> [(id (x) w)(Wt)]^T on span A* (= A once
    the slice algebra is star-closed)."""
    fx = as_fixture(w)
    outs = _transposed_right_slices(wtilde)
    return _assemble(fx.leg_space, fx.dual.left_slices, outs)


def dual_antipode_maps(
    w: Operator | Fixture, wtilde: Operator
) -> tuple[AssembledMap, AssembledMap, AssembledMap]:
    """(S-hat, S-hat^{-1}, R_Ahat) on span A-hat.

    S-hat: (w (x) id)(W*) -> (w (x) id)(W); its inverse swaps the pairs;
    R_Ahat: (w (x) id)(W) -> (w^T (x) id)(Wt*).
    """
    fx = as_fixture(w)
    leg = fx.leg_space
    y_star, y = fx.dual.right_slices, fx.left_slices
    wt_star = transpose_grid(all_left_slices(wtilde.adj))  # w^T = w_{e_b,e_a}
    return (
        _assemble(leg, y_star, y),
        _assemble(leg, y, y_star),
        _assemble(leg, y, wt_star),
    )


def check_antipode(
    w: Operator | Fixture, q: Operator, wtilde: Operator
) -> dict[str, float]:
    """Polar decomposition and algebraic identities of S and R_A on the
    generator grid."""
    fx = as_fixture(w)
    s_map = fx.s_map
    # the slices of Wt, built once: the outputs of R_A and the tau target
    wt_slices = _transposed_right_slices(wtilde)
    ra_map = _assemble(fx.leg_space, fx.dual.left_slices, wt_slices)
    res: dict[str, float] = {}
    res["S_well_defined"] = s_map.inconsistency
    res["RA_well_defined"] = ra_map.inconsistency

    a, s_a = fx.right_slices, fx.dual.left_slices
    tau_a = tau(fx, q, -0.5j, a)
    res["polar_S_eq_RA_tau"] = max_gap(s_a, ra_map.apply(tau_a))
    res["polar_domain_membership"] = ra_map.domain.stack_residual(tau_a)
    # tau_{-i/2}((id (x) w_{v,u})(W)) = [(id (x) w_{v,u})(Wt)]^T
    res["tau_slice_identity"] = max_gap(tau_a, wt_slices)
    # S(S(a)*)* = a
    res["S_star_involution"] = max_gap(adjoint(s_map.apply(adjoint(s_a))), a)
    # S(S(a)) = tau_{-i}(a)
    res["S_squared_eq_tau_minus_i"] = max_gap(s_map.apply(s_a), tau(fx, q, -1.0j, a))

    basis = s_map.domain.stack
    res["S_antimultiplicative"] = antimultiplicativity(s_map.apply, basis)
    ra_basis = ra_map.domain.stack
    res["RA_involutive"] = max_gap(ra_map.apply(ra_map.apply(ra_basis)), ra_basis)
    res["RA_star"] = star_preservation(ra_map.apply, ra_basis)
    res["RA_antimultiplicative"] = antimultiplicativity(ra_map.apply, ra_basis)
    # tau_t preserves span A at sampled real t
    res["tau_preserves_A"] = max(
        s_map.domain.stack_residual(tau(fx, q, t, basis)) for t in T_SAMPLES
    )
    return res


def check_duality(
    w: Operator | Fixture, q: Operator, wtilde: Operator
) -> dict[str, float]:
    """Dual antipode characterizations, W^{T (x) Rhat} = Wt*, and the
    partial-isometry property of Wt."""
    fx = as_fixture(w)
    shat, shat_inv, rahat = dual_antipode_maps(fx, wtilde)
    res: dict[str, float] = {}
    res["Shat_well_defined"] = shat.inconsistency
    res["Shat_inv_well_defined"] = shat_inv.inconsistency
    res["RAhat_well_defined"] = rahat.inconsistency

    y_star, y = fx.dual.right_slices, fx.left_slices
    # S-hat = R_Ahat o tau-hat_{-i/2}; S-hat^{-1} = R_Ahat o tau-hat_{i/2}
    res["Shat_polar"] = max_gap(y, rahat.apply(tau(fx, q, -0.5j, y_star)))
    res["Shat_inv_polar"] = max_gap(y_star, rahat.apply(tau(fx, q, 0.5j, y)))
    res["Shat_roundtrip"] = max_gap(shat_inv.apply(shat.apply(y_star)), y_star)

    # W^{T (x) Rhat} = Wt*: expand W over first-leg matrix units, push the
    # blocks (which span A-hat) through R_Ahat, transpose the units
    n = fx.n
    blocks = fx.w.tensor().transpose(0, 2, 1, 3).reshape(n * n, n, n)
    res["W_blocks_in_Ahat"] = rahat.domain.stack_residual(blocks)
    # transpose of e_ij is e_ji: the image of block (i, j) goes to entry (j, i)
    out = rahat.apply(blocks).reshape(n, n, n, n).transpose(1, 2, 0, 3)
    res["W_transpose_Rhat_eq_Wtilde_star"] = rel_residual(
        wtilde.adj.matrix, out.reshape(n * n, n * n)
    )
    res["wtilde_partial_isometry"] = is_partial_isometry(wtilde)[1]
    return res


def check_base_restrictions(
    w: Operator | Fixture, q: Operator, structure: BaseStructure, wtilde: Operator
) -> dict[str, float]:
    """tau_t restricted to B and C against the modular groups at
    t in T_SAMPLES, and S restricted to B and C against the gamma maps."""
    fx = as_fixture(w)
    nu, mu = structure.nu, structure.mu
    bs, cs = nu.algebra.stack, mu.algebra.stack
    s_map = fx.s_map
    res: dict[str, float] = {}
    res["tau_B_eq_sigma_nu_minus_t"] = max(
        max_gap(tau(fx, q, t, bs), modular_conjugate(nu, -t, bs)) for t in T_SAMPLES
    )
    res["tau_C_eq_sigma_mu_t"] = max(
        max_gap(tau(fx, q, t, cs), modular_conjugate(mu, t, cs)) for t in T_SAMPLES
    )
    res["S_B_eq_gamma_B"] = max_gap(s_map.apply(bs), gamma_n_stack(fx, nu, bs))
    res["B_in_A_membership"] = s_map.domain.stack_residual(bs)
    res["S_C_eq_gamma_C"] = max_gap(s_map.apply(cs), structure.gamma_l)
    res["C_in_A_membership"] = s_map.domain.stack_residual(cs)
    return res
