"""Scaling group, antipode, unitary antipode, and their duals.

The antipode is pinned on generators: S((id (x) w)(W)) = (id (x) w)(W*),
and the unitary antipode by R_A((id (x) w)(W*)) = [(id (x) w)(Wt)]^T.
Each map is extended linearly from the full functional grid, through the
SVD of the context's leg algebra that its generators span (``extend``);
the consistency of that extension is a rank condition reported
explicitly, not assumed.  The polar decomposition S = R_A o tau_{-i/2}
with tau_t = Q^{2it}(.)Q^{-2it} is then a checkable identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .axioms import pi_gaps
from .base_algebra import modular_conjugate
from .context import Fixture
from .tensor import (
    T_SAMPLES,
    Operator,
    OperatorSubspace,
    SpanMap,
    adjoint,
    all_left_slices,
    all_right_slices,
    antimultiplicativity,
    max_gap,
    rel_residual,
    rows,
    spectral_norm,
    star_preservation,
    transpose_grid,
)


def tau(fx: Fixture, q: Operator, z: complex, a: np.ndarray) -> np.ndarray:
    """Scaling group tau_z(a) = Q^{2iz} a Q^{-2iz} for each matrix of a stack."""
    return fx.q_data(q).conjugate(2j * z, a)


@dataclass(frozen=True)
class AssembledMap(SpanMap):
    """A linear map assembled from (input, output) generator pairs.

    The grid may overdetermine the map; ``inconsistency`` is the largest
    output that a null combination of inputs produces (zero iff the map
    is well defined on the span).
    """

    inconsistency: float


def extend(span: OperatorSubspace, outs: np.ndarray) -> AssembledMap:
    """The least-squares linear extension on a span of the map sending
    each member of the stack the span was cut from to the output matrix
    at the same index: the members' coordinates are U S in its SVD."""
    m_out = rows(outs)
    u, rank = span.u, span.dim
    # well-definedness: the largest output of a unit null combination of the
    # inputs, the spectral norm of the outputs' part on U's null columns
    scale = max(1.0, float(np.linalg.norm(m_out)))
    gap = spectral_norm(u[:, rank:].conj().T @ m_out) / scale
    coeffs = (u[:, :rank].conj().T @ m_out) / span.s[:, None]
    return AssembledMap(span, coeffs.T, gap)


def antipode_map(fx: Fixture) -> AssembledMap:
    """S on A, extended from the full basis-functional grid."""
    return extend(fx.A, fx.dual.left_slices)


def check_antipode(fx: Fixture, q: Operator, wtilde: Operator) -> dict[str, float]:
    """Polar decomposition and algebraic identities of S and R_A on the
    generator grid."""
    s_map = fx.s_map
    # R_A: (id (x) w)(W*) -> [(id (x) w)(Wt)]^T on span A* (= A once the
    # slice algebra is star-closed); the slices of Wt, built once, are its
    # outputs and the tau target
    wt_slices = all_right_slices(wtilde).transpose(0, 2, 1)
    ra_map = extend(fx.dual.Ahat, wt_slices)
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


def check_duality(fx: Fixture, q: Operator, wtilde: Operator) -> dict[str, float]:
    """Dual antipode characterizations, W^{T (x) Rhat} = Wt*, and the
    partial-isometry property of Wt."""
    y_star, y = fx.dual.right_slices, fx.left_slices
    # S-hat: y* -> y is the dual context's antipode; on A-hat, spanned by
    # the y, S-hat^{-1}: y -> y* and R_Ahat: (w (x) id)(W) -> (w^T (x) id)(Wt*)
    shat = fx.dual.s_map
    shat_inv = extend(fx.Ahat, y_star)
    rahat = extend(fx.Ahat, transpose_grid(all_left_slices(wtilde.adj)))
    res: dict[str, float] = {}
    res["Shat_well_defined"] = shat.inconsistency
    res["Shat_inv_well_defined"] = shat_inv.inconsistency
    res["RAhat_well_defined"] = rahat.inconsistency

    # S-hat = R_Ahat o tau-hat_{-i/2}; S-hat^{-1} = R_Ahat o tau-hat_{i/2}
    res["Shat_polar"] = max_gap(y, rahat.apply(tau(fx, q, -0.5j, y_star)))
    res["Shat_inv_polar"] = max_gap(y_star, rahat.apply(tau(fx, q, 0.5j, y)))
    res["Shat_roundtrip"] = max_gap(shat_inv.apply(shat.apply(y_star)), y_star)

    # W^{T (x) Rhat} = Wt*: expand W over first-leg matrix units, push the
    # blocks through R_Ahat, transpose the units; the block at e_ba is the
    # left slice y at (a, b), so its image goes to entry (a, b)
    n = fx.n
    out = rahat.apply(y).reshape(n, n, n, n).transpose(0, 2, 1, 3)
    res["W_transpose_Rhat_eq_Wtilde_star"] = rel_residual(
        wtilde.adj.matrix, out.reshape(n * n, n * n)
    )
    res["wtilde_partial_isometry"] = pi_gaps(wtilde.matrix)[1]
    return res


def check_base_restrictions(fx: Fixture, q: Operator) -> dict[str, float]:
    """tau_t restricted to B and C against the modular groups of the
    context's nu and mu at t in T_SAMPLES, and S restricted to B and C
    against the gamma maps."""
    nu, structure = fx.nu, fx.structure
    mu, bs, cs = structure.mu, fx.N.stack, fx.L.stack
    s_map = fx.s_map
    res: dict[str, float] = {}
    res["tau_B_eq_sigma_nu_minus_t"] = max(
        max_gap(tau(fx, q, t, bs), modular_conjugate(nu, -t, bs)) for t in T_SAMPLES
    )
    res["tau_C_eq_sigma_mu_t"] = max(
        max_gap(tau(fx, q, t, cs), modular_conjugate(mu, t, cs)) for t in T_SAMPLES
    )
    res["S_B_eq_gamma_B"] = max_gap(s_map.apply(bs), structure.gamma_n)
    res["B_in_A_membership"] = s_map.domain.stack_residual(bs)
    res["S_C_eq_gamma_C"] = max_gap(s_map.apply(cs), structure.gamma_l)
    res["C_in_A_membership"] = s_map.domain.stack_residual(cs)
    return res
