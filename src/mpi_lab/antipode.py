"""Scaling group, antipode and unitary antipode, one implementation for
both sides.

The antipode is pinned on generators: S((id (x) w)(W)) = (id (x) w)(W*),
and the unitary antipode by R_A((id (x) w)(W*)) = [(id (x) w)(Wt)]^T.
Each map is extended linearly from the full functional grid, through the
SVD of the context's leg algebra that its generators span (``extend``);
the consistency of that extension is a rank condition reported
explicitly, not assumed.  The polar decomposition S = R_A o tau_{-i/2}
with tau_t = Q^{2it}(.)Q^{-2it} is then a checkable identity.  W-hat's
S-hat, R_Ahat and scaling group are the same statements on the dual
context with W-hat's Wtilde (``check_duality``); S-hat^{-1}, the inverse
form of its polar decomposition and W^{T (x) Rhat} = Wt* restate them,
and tau_{-i/2} of the generators against the transposed slices of Wt
restates cond1 (README, "statements that hold for every input").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base_algebra import modular_conjugate
from .context import Fixture
from .tensor import (
    T_SAMPLES,
    Operator,
    OperatorSubspace,
    SpanMap,
    adjoint,
    all_right_slices,
    antimultiplicativity,
    max_gap,
    rows,
    spectral_norm,
    star_preservation,
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
    # slice algebra is star-closed)
    ra_map = extend(fx.dual.Ahat, all_right_slices(wtilde).transpose(0, 2, 1))
    res: dict[str, float] = {}
    res["S_well_defined"] = s_map.inconsistency
    res["RA_well_defined"] = ra_map.inconsistency

    a, s_a = fx.right_slices, fx.dual.left_slices
    tau_a = tau(fx, q, -0.5j, a)
    res["polar_S_eq_RA_tau"] = max_gap(s_a, ra_map.apply(tau_a))
    res["polar_domain_membership"] = ra_map.domain.stack_residual(tau_a)
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


def check_duality(fx: Fixture, q: Operator, wtilde_hat: Operator) -> dict[str, float]:
    """W-hat's antipode level: ``check_antipode`` on the dual context, with
    W-hat's Wtilde for Q."""
    return check_antipode(fx.dual, q, wtilde_hat)


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
