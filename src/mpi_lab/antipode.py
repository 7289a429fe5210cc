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
from .base_algebra import BaseStructure, gamma_n_apply, modular_conjugate
from .context import Fixture, as_fixture
from .tensor import (
    RANK_TOL,
    RESIDUAL_TOL,
    Operator,
    OperatorSubspace,
    TensorSpace,
    all_left_slices,
    all_right_slices,
    antimultiplicativity,
    numerical_rank,
    op_residual,
    rel_residual,
    slice_op,
    star_preservation,
    transpose_grid,
)


def tau(w: Operator | Fixture, q: Operator, z: complex, a: Operator) -> Operator:
    """Scaling group tau_z(a) = Q^{2iz} a Q^{-2iz}."""
    eig = as_fixture(w).q_data(q).eig
    return Operator(a.space, eig.power(2j * z) @ a.matrix @ eig.power(-2j * z))


@dataclass(frozen=True)
class AssembledMap:
    """A linear map assembled from (input, output) generator pairs.

    ``matrix`` maps domain HS coordinates to vectorized outputs.  The
    grid may overdetermine the map; ``inconsistency`` is the largest
    output that a null combination of inputs produces (zero iff the map
    is well defined on the span), and ``nullity`` counts the
    inconsistent directions.
    """

    domain: OperatorSubspace
    matrix: np.ndarray  # (D*D, domain.dim)
    inconsistency: float
    nullity: int

    def apply(self, x: Operator) -> Operator:
        c = self.domain.coefficients(x)
        d = self.domain.space.total_dim
        return Operator(self.domain.space, (self.matrix @ c).reshape(d, d))

    def apply_with_membership(self, x: Operator) -> tuple[Operator, float]:
        _, res = self.domain.contains(x)
        return self.apply(x), res


def assemble_map(
    pairs: list[tuple[Operator, Operator]], rank_tol: float = RANK_TOL
) -> AssembledMap:
    """Least-squares linear extension of input -> output pairs."""
    if not pairs:
        raise ValueError("no generator pairs")
    return _assemble(
        pairs[0][0].space,
        np.array([p[0].matrix for p in pairs]),
        np.array([p[1].matrix for p in pairs]),
        rank_tol,
    )


def _assemble(
    sp: TensorSpace, ins: np.ndarray, outs: np.ndarray, rank_tol: float = RANK_TOL
) -> AssembledMap:
    """assemble_map on stacks of input and output matrices, from one SVD
    U S V* of the inputs: the domain basis is V*'s leading rows, and the
    inputs' domain coordinates are U S."""
    m_in = ins.reshape(ins.shape[0], -1)
    m_out = outs.reshape(outs.shape[0], -1)
    u, s, vh = np.linalg.svd(m_in, full_matrices=True)
    rank = numerical_rank(s, rank_tol)
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
    return _assemble(fx.leg_space, fx.right_slices, all_right_slices(fx.ws))


def _transposed_right_slices(wtilde: Operator) -> np.ndarray:
    """[(id (x) w_{e_a,e_b})(Wt)]^T over the grid, as plain matrices on H."""
    return all_right_slices(wtilde).transpose(0, 2, 1)


def unitary_antipode_map(w: Operator | Fixture, wtilde: Operator) -> AssembledMap:
    """R_A: (id (x) w)(W*) -> [(id (x) w)(Wt)]^T on span A* (= A once
    the slice algebra is star-closed)."""
    fx = as_fixture(w)
    outs = _transposed_right_slices(wtilde)
    return _assemble(fx.leg_space, all_right_slices(fx.ws), outs)


def dual_antipode_maps(
    w: Operator | Fixture, wtilde: Operator
) -> tuple[AssembledMap, AssembledMap, AssembledMap]:
    """(S-hat, S-hat^{-1}, R_Ahat) on span A-hat.

    S-hat: (w (x) id)(W*) -> (w (x) id)(W); its inverse swaps the pairs;
    R_Ahat: (w (x) id)(W) -> (w^T (x) id)(Wt*).
    """
    fx = as_fixture(w)
    leg = fx.leg_space
    y_star, y = all_left_slices(fx.ws), fx.left_slices
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
    ra_map = unitary_antipode_map(fx, wtilde)
    leg = fx.leg_space
    res: dict[str, float] = {}
    res["S_well_defined"] = s_map.inconsistency
    res["RA_well_defined"] = ra_map.inconsistency

    polar = 0.0
    membership = 0.0
    tau_slice = 0.0
    invol = 0.0
    s_sq = 0.0
    grid = zip(
        fx.right_slices, all_right_slices(fx.ws), _transposed_right_slices(wtilde)
    )
    for a_m, s_m, wt_m in grid:
        a, s_a = Operator(leg, a_m), Operator(leg, s_m)
        tau_a = tau(fx, q, -0.5j, a)
        img, mem = ra_map.apply_with_membership(tau_a)
        membership = max(membership, mem)
        polar = max(polar, op_residual(s_a, img))
        # tau_{-i/2}((id (x) w_{v,u})(W)) = [(id (x) w_{v,u})(Wt)]^T
        tau_slice = max(tau_slice, op_residual(tau_a, Operator(leg, wt_m)))
        # S(S(a)*)* = a
        inner = s_map.apply(s_a.adj)
        invol = max(invol, op_residual(inner.adj, a))
        # S(S(a)) = tau_{-i}(a)
        s_sq = max(s_sq, op_residual(s_map.apply(s_a), tau(fx, q, -1.0j, a)))
    res["polar_S_eq_RA_tau"] = polar
    res["polar_domain_membership"] = membership
    res["tau_slice_identity"] = tau_slice
    res["S_star_involution"] = invol
    res["S_squared_eq_tau_minus_i"] = s_sq

    basis = s_map.domain.basis
    res["S_antimultiplicative"] = antimultiplicativity(s_map.apply, basis)
    ra_basis = ra_map.domain.basis
    res["RA_involutive"] = max(
        op_residual(ra_map.apply(ra_map.apply(a)), a) for a in ra_basis
    )
    res["RA_star"] = star_preservation(ra_map.apply, ra_basis)
    res["RA_antimultiplicative"] = antimultiplicativity(ra_map.apply, ra_basis)
    # tau_t preserves span A at sampled real t
    tau_mem = 0.0
    for t in (1.0, -1.0, 0.3, -0.3):
        for a in basis:
            _, mem = s_map.domain.contains(tau(fx, q, t, a))
            tau_mem = max(tau_mem, mem)
    res["tau_preserves_A"] = tau_mem
    return res


def check_duality(
    w: Operator | Fixture, q: Operator, wtilde: Operator
) -> dict[str, float]:
    """Dual antipode characterizations, W^{T (x) Rhat} = Wt*, and the
    partial-isometry property of Wt."""
    fx = as_fixture(w)
    w, leg = fx.w, fx.leg_space
    shat, shat_inv, rahat = dual_antipode_maps(fx, wtilde)
    res: dict[str, float] = {}
    res["Shat_well_defined"] = shat.inconsistency
    res["Shat_inv_well_defined"] = shat_inv.inconsistency
    res["RAhat_well_defined"] = rahat.inconsistency

    polar = 0.0
    polar_inv = 0.0
    roundtrip = 0.0
    for ys_m, y_m in zip(all_left_slices(fx.ws), fx.left_slices):
        y_star, y = Operator(leg, ys_m), Operator(leg, y_m)
        # S-hat = R_Ahat o tau-hat_{-i/2}; S-hat^{-1} = R_Ahat o tau-hat_{i/2}
        polar = max(
            polar, op_residual(y, rahat.apply(tau(fx, q, -0.5j, y_star)))
        )
        polar_inv = max(
            polar_inv, op_residual(y_star, rahat.apply(tau(fx, q, 0.5j, y)))
        )
        roundtrip = max(roundtrip, op_residual(shat_inv.apply(shat.apply(y_star)), y_star))
    res["Shat_polar"] = polar
    res["Shat_inv_polar"] = polar_inv
    res["Shat_roundtrip"] = roundtrip

    # W^{T (x) Rhat} = Wt*: expand W over first-leg matrix units, push the
    # blocks (which span A-hat) through R_Ahat, transpose the units
    n = fx.n
    t = w.tensor()
    blocks_in_ahat = 0.0
    out = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            block = Operator(leg, t[i, :, j, :])
            img, mem = rahat.apply_with_membership(block)
            blocks_in_ahat = max(blocks_in_ahat, mem)
            # transpose of e_ij is e_ji: place img at first-leg entry (j, i)
            ot = out.reshape(n, n, n, n)
            ot[j, :, i, :] += img.matrix
    res["W_blocks_in_Ahat"] = blocks_in_ahat
    res["W_transpose_Rhat_eq_Wtilde_star"] = rel_residual(wtilde.adj.matrix, out)
    res["wtilde_partial_isometry"] = is_partial_isometry(wtilde)[1]
    return res


def check_base_restrictions(
    w: Operator | Fixture,
    q: Operator,
    structure: BaseStructure,
    wtilde: Operator,
    t_samples=(1.0, -1.0, 0.3, -0.3),
) -> dict[str, float]:
    """tau_t restricted to B and C against the modular groups, and S
    restricted to B and C against the gamma maps."""
    fx = as_fixture(w)
    nu, mu = structure.nu, structure.mu
    b_basis = nu.algebra.basis
    c_basis = mu.algebra.basis
    s_map = fx.s_map
    res: dict[str, float] = {}
    res["tau_B_eq_sigma_nu_minus_t"] = max(
        op_residual(tau(fx, q, t, b), modular_conjugate(nu, -t, b))
        for t in t_samples
        for b in b_basis
    )
    res["tau_C_eq_sigma_mu_t"] = max(
        op_residual(tau(fx, q, t, c), modular_conjugate(mu, t, c))
        for t in t_samples
        for c in c_basis
    )
    s_b = 0.0
    mem_b = 0.0
    for b in b_basis:
        img, mem = s_map.apply_with_membership(b)
        mem_b = max(mem_b, mem)
        s_b = max(s_b, op_residual(img, gamma_n_apply(fx, nu, b)))
    res["S_B_eq_gamma_B"] = s_b
    res["B_in_A_membership"] = mem_b
    s_c = 0.0
    mem_c = 0.0
    for c, gc in zip(c_basis, structure.gamma_l_values):
        img, mem = s_map.apply_with_membership(c)
        mem_c = max(mem_c, mem)
        s_c = max(s_c, op_residual(img, gc))
    res["S_C_eq_gamma_C"] = s_c
    res["C_in_A_membership"] = mem_c
    return res
