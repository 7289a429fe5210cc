"""Base algebras N, L (and duals), the distinguished weight, and the
maps built from the canonical idempotent.

N and L are spanned by the slices of E = W*W; a distinguished weight is
a positive density D in N with (nu (x) id)(E) = 1.  From it come the
slice map gamma_N, the anti-isomorphism Rtilde = gamma_N o sigma_{-i/2},
the weight mu = nu o Rtilde^{-1} on L, and gamma_L.  kappa is recovered
independently as the minimum-norm solution of E(b (x) 1) = E(1 (x) x),
which gives a second route to gamma_N.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .context import Fixture, as_fixture
from .tensor import (
    PD_TOL,
    RANK_TOL,
    RESIDUAL_TOL,
    LstsqSolver,
    Operator,
    OperatorSubspace,
    PositiveEig,
    all_left_slices,
    all_right_slices,
    antimultiplicativity,
    kron,
    lsq_solve,
    numerical_rank,
    op_residual,
    rel_residual,
    slice_matrix,
    span_matrices,
    star_preservation,
    tensor_subspace,
    transpose_grid,
)


@dataclass(frozen=True)
class BaseSpans:
    N: OperatorSubspace
    L: OperatorSubspace
    Nhat: OperatorSubspace
    Lhat: OperatorSubspace
    commutation_residual: float
    hat_commutation_residual: float
    L_equals_Lhat: bool
    L_Lhat_residual: float
    E_in_N_tensor_L: bool
    E_membership_residual: float
    Ehat_membership_residual: float
    star_residuals: dict[str, float]
    product_residuals: dict[str, float]


@dataclass(frozen=True)
class WeightData:
    """A positive functional x -> trace(D x) on a base algebra."""

    algebra: OperatorSubspace
    density: Operator
    min_eigenvalue: float
    solution_space_dim: int
    normalization_residual: float
    support: np.ndarray  # orthonormal columns spanning the algebra's range
    found: bool

    def value(self, x: Operator) -> complex:
        return complex(np.trace(x.matrix @ self.density.matrix))

    @cached_property
    def modular(self) -> PositiveEig:
        """Eigendecomposition of D padded by the identity off the
        algebra's support (positive definiteness is only required on
        the support); every sigma_z of this weight is taken from it."""
        d = self.density.matrix
        supp = self.support
        full = np.eye(d.shape[0], dtype=complex)
        pad = d + (full - supp @ supp.conj().T) if supp.shape[1] < d.shape[0] else d
        return PositiveEig(pad)


@dataclass(frozen=True)
class BaseAntiIso:
    """A linear map between base spans, stored on HS coordinates."""

    domain: OperatorSubspace
    codomain: OperatorSubspace
    matrix: np.ndarray  # (codomain.dim, domain.dim)
    inverse: np.ndarray
    membership_residual: float  # of the unprojected images in the codomain
    image_span: OperatorSubspace  # span of the unprojected images

    def apply(self, x: Operator) -> Operator:
        return _transport(self.matrix, self.domain, self.codomain, x)

    def apply_inverse(self, y: Operator) -> Operator:
        return _transport(self.inverse, self.codomain, self.domain, y)


def _transport(
    m: np.ndarray, src: OperatorSubspace, dst: OperatorSubspace, x: Operator
) -> Operator:
    d = dst.space.total_dim
    out = (m @ src.coefficients(x)) @ dst.basis_matrix
    return Operator(dst.space, out.reshape(d, d))


def base_spans(w: Operator | Fixture) -> BaseSpans:
    """N, L from slices of E; N-hat, L-hat from slices of E-hat (the
    dual's N and L, i.e. the left and right slices of G)."""
    fx = as_fixture(w)
    n_sub, l_sub, nhat_sub, lhat_sub = fx.N, fx.L, fx.dual.N, fx.dual.L

    def max_comm(a_sub, b_sub):
        return max(
            (
                rel_residual((x @ y).matrix, (y @ x).matrix)
                for x in a_sub.basis
                for y in b_sub.basis
            ),
            default=0.0,
        )

    comm = max_comm(n_sub, l_sub)
    hat_comm = max_comm(nhat_sub, lhat_sub)
    _, l_res = l_sub.equals(lhat_sub)
    _, e_res = tensor_subspace(n_sub, l_sub).contains(fx.e)
    _, ehat_res = tensor_subspace(nhat_sub, lhat_sub).contains(fx.dual.e)
    subs = {"N": n_sub, "L": l_sub, "Nhat": nhat_sub, "Lhat": lhat_sub}
    star = {name: sub.star_residual() for name, sub in subs.items()}
    prod = {name: sub.products_residual(sub.basis, sub.basis) for name, sub in subs.items()}
    return BaseSpans(
        N=n_sub,
        L=l_sub,
        Nhat=nhat_sub,
        Lhat=lhat_sub,
        commutation_residual=comm,
        hat_commutation_residual=hat_comm,
        L_equals_Lhat=l_res < RESIDUAL_TOL,
        L_Lhat_residual=l_res,
        E_in_N_tensor_L=e_res < RESIDUAL_TOL,
        E_membership_residual=e_res,
        Ehat_membership_residual=ehat_res,
        star_residuals=star,
        product_residuals=prod,
    )


# ---------------------------------------------------------------------------
# kappa: E(b (x) 1) = E(1 (x) kappa(b))
# ---------------------------------------------------------------------------


class KappaSolver:
    """Reusable minimum-norm solver for E(b (x) 1) = E(1 (x) x).

    E(1 (x) x)[r, (i, l)] = sum_m E[r, (i, m)] x[m, l], so the n^4 x n^2
    map x -> E(1 (x) x) is T (x) 1 for the n^3 x n matrix
    T[(r, i), m] = E[r, (i, m)]: its singular values are T's, each n
    times, and the minimum-norm solve is T^+ applied column by column.
    T is factored once; each solve is then two small products.  Nullity 0
    means solutions are unique; a residual above tolerance flags b as
    outside the solvable domain.
    """

    def __init__(self, w: Operator | Fixture, rank_tol: float = RANK_TOL):
        fx = as_fixture(w)
        self.leg, self.n, self.e = fx.leg_space, fx.n, fx.e.matrix
        self._solver = LstsqSolver(self.e.reshape(self.n**3, self.n), rank_tol)
        self.nullity = self.n * self._solver.nullity

    def solve(self, b: Operator) -> tuple[Operator, float, int]:
        if b.space.nlegs != 1 or b.space.legs[0].dim != self.n:
            raise ValueError("b must be a single-leg operator matching W's legs")
        n = self.n
        rhs = (self.e @ np.kron(b.matrix, np.eye(n))).reshape(n**3, n)
        x, residual = self._solver.solve(rhs)
        return Operator(self.leg, x), residual, self.nullity


def kappa_solve(
    w: Operator | Fixture, b: Operator, rank_tol: float = RANK_TOL
) -> tuple[Operator, float, int]:
    """Minimum-norm solution x of E(b (x) 1) = E(1 (x) x)."""
    return KappaSolver(w, rank_tol).solve(b)


@dataclass(frozen=True)
class KappaMap:
    domain_basis: list[Operator]
    values: list[Operator]
    residuals: list[float]
    nullity: int
    antimultiplicativity: float


def kappa_map(
    w: Operator | Fixture,
    n_sub: OperatorSubspace,
    solver: KappaSolver | None = None,
) -> KappaMap:
    """kappa on a basis of N, plus the anti-multiplicativity residual
    over basis pairs (products solved independently)."""
    solver = solver or as_fixture(w).kappa_solver
    basis = n_sub.basis
    values, residuals = [], []
    for b in basis:
        v, r, _ = solver.solve(b)
        values.append(v)
        residuals.append(r)
    anti = 0.0
    for i, b1 in enumerate(basis):
        for j, b2 in enumerate(basis):
            v12, r12, _ = solver.solve(b1 @ b2)
            if r12 < RESIDUAL_TOL and residuals[i] < RESIDUAL_TOL and residuals[j] < RESIDUAL_TOL:
                anti = max(anti, op_residual(v12, values[j] @ values[i]))
    return KappaMap(basis, values, residuals, solver.nullity, anti)


# ---------------------------------------------------------------------------
# Distinguished weight
# ---------------------------------------------------------------------------


def _hermitian_basis(sub: OperatorSubspace) -> list[np.ndarray]:
    """Real-orthonormal basis of the Hermitian part of a *-closed span."""
    cands = []
    for row in sub.basis_matrix:
        d = sub.space.total_dim
        b = row.reshape(d, d)
        cands.append((b + b.conj().T) / 2.0)
        cands.append((b - b.conj().T) / 2.0j)
    stack = np.array([np.concatenate([c.real.ravel(), c.imag.ravel()]) for c in cands])
    _, s, vh = np.linalg.svd(stack, full_matrices=False)
    rank = numerical_rank(s)
    d = sub.space.total_dim
    out = []
    for row in vh[:rank]:
        m = row[: d * d].reshape(d, d) + 1j * row[d * d :].reshape(d, d)
        out.append((m + m.conj().T) / 2.0)  # exact Hermitization
    return out


def support_projection(sub: OperatorSubspace) -> np.ndarray:
    """Orthonormal columns spanning sum of ranges of the basis elements.

    For a finite-dimensional *-closed algebra this spans the range of
    its unit.
    """
    d = sub.space.total_dim
    if sub.dim == 0:
        return np.zeros((d, 0), dtype=complex)
    stacked = np.hstack([row.reshape(d, d) for row in sub.basis_matrix])
    u, s, _ = np.linalg.svd(stacked, full_matrices=False)
    return u[:, : numerical_rank(s)]


def find_distinguished_weight(
    w: Operator | Fixture,
    base: str = "N",
    pd_tol: float = PD_TOL,
    rank_tol: float = RANK_TOL,
) -> WeightData:
    """Solve (nu (x) id)(E) = 1 for a positive density D in the base span.

    base="N" works with E = W*W; base="Nhat" runs the same construction
    for the dual side (E-hat = Sigma G Sigma).  The minimal-norm
    solution of the real linear system is taken; if it is not positive
    definite on the support and the solution space has positive
    dimension, an alternating-projection repair onto the positive cone
    is attempted before reporting failure.
    """
    if base not in ("N", "Nhat"):
        raise ValueError("base must be 'N' or 'Nhat'")
    fx = as_fixture(w)
    if base == "Nhat":
        fx = fx.dual
    sub, e, n = fx.N, fx.e.matrix, fx.n
    herm = _hermitian_basis(sub)
    if not herm:
        raise ValueError("base span is empty")
    # real system: sum_j t_j leftslice_{h_j}(E) = I
    cols = []
    for h in herm:
        sl = slice_matrix(e, n, n, "left", h)
        cols.append(np.concatenate([sl.real.ravel(), sl.imag.ravel()]))
    rhs = np.concatenate([np.eye(n).ravel(), np.zeros(n * n)])
    return _weight(sub, herm, np.array(cols).T, rhs, pd_tol, rank_tol, repair=True)


def _weight(
    sub: OperatorSubspace,
    herm: list[np.ndarray],
    a: np.ndarray,
    rhs: np.ndarray,
    pd_tol: float = PD_TOL,
    rank_tol: float = RANK_TOL,
    repair: bool = False,
) -> WeightData:
    """The density sum_j t_j h_j for the minimum-norm real solution t of
    a t = rhs, with its smallest eigenvalue on the support of ``sub``.
    With ``repair``, an indefinite density is moved along the solution
    space towards the positive cone, leaving the residual unchanged."""
    t, residual, nullity = lsq_solve(a, rhs, rank_tol)
    t = t.real
    d_mat = sum(tj * hj for tj, hj in zip(t, herm))
    supp = support_projection(sub)

    def min_eig(mat):
        if supp.shape[1] == 0:
            return 0.0
        return float(np.linalg.eigvalsh(supp.conj().T @ mat @ supp).min())

    me = min_eig(d_mat)
    if repair and me <= pd_tol and nullity > 0:
        d_mat = _positivity_repair(a, rhs, t, herm, supp, rank_tol)
        me = min_eig(d_mat)
    found = residual < 1e-7 and me > pd_tol
    return WeightData(
        sub, Operator(sub.space, d_mat), me, nullity, residual, supp, found
    )


def _positivity_repair(a, rhs, t0, herm, supp, rank_tol, iters: int = 300):
    """Alternate between the affine solution set of the normalization
    system and the positive cone on the support."""
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    rank = numerical_rank(s, rank_tol)
    null_basis = vh[rank:]  # rows span the solution-space directions
    t = t0.copy()
    floor = 1e-6
    for _ in range(iters):
        d_mat = sum(tj * hj for tj, hj in zip(t, herm))
        if supp.shape[1]:
            core = supp.conj().T @ d_mat @ supp
            vals, vecs = np.linalg.eigh(core)
            if vals.min() > floor:
                break
            repaired = vecs @ np.diag(np.maximum(vals, floor)) @ vecs.conj().T
            d_rep = d_mat + supp @ (repaired - core) @ supp.conj().T
        else:
            d_rep = d_mat
        # project the repaired density back to the affine solution set
        t_rep = np.array(
            [np.real(np.vdot(h.ravel(), d_rep.ravel())) for h in herm]
        )
        t = t0 + null_basis.T @ (null_basis @ (t_rep - t0))
    return sum(tj * hj for tj, hj in zip(t, herm))


def modular_conjugate(weight: WeightData, z: complex, x: Operator) -> Operator:
    """sigma_z(x) = D^{iz} x D^{-iz}, D padded as in WeightData.modular."""
    eig = weight.modular
    return Operator(x.space, eig.power(1j * z) @ x.matrix @ eig.power(-1j * z))


# ---------------------------------------------------------------------------
# gamma_N, Rtilde, mu, gamma_L
# ---------------------------------------------------------------------------


def gamma_n_apply(w: Operator | Fixture, nu: WeightData, b: Operator) -> Operator:
    """gamma_N(b) = (nu (x) id)(E (b (x) 1))."""
    fx = as_fixture(w)
    n = fx.n
    prod = fx.e.matrix @ np.kron(b.matrix, np.eye(n))
    return Operator(b.space, slice_matrix(prod, n, n, "left", nu.density.matrix))


@dataclass(frozen=True)
class BaseStructure:
    spans: BaseSpans
    nu: WeightData
    mu: WeightData
    rtilde: BaseAntiIso
    gamma_n_values: list[Operator]
    gamma_l_values: list[Operator]
    kappa: KappaMap
    kappa_solver: KappaSolver


def gamma_and_rtilde(
    w: Operator | Fixture, nu: WeightData, l_sub: OperatorSubspace
) -> tuple[list[Operator], BaseAntiIso, WeightData, list[Operator]]:
    """Assemble gamma_N on the N basis, Rtilde = gamma_N o sigma_{-i/2},
    the weight mu = nu o Rtilde^{-1} on L, and gamma_L."""
    fx = as_fixture(w)
    n_sub = nu.algebra
    leg_sp = n_sub.space
    gamma_vals = [gamma_n_apply(fx, nu, b) for b in n_sub.basis]
    rt_vals = [
        gamma_n_apply(fx, nu, modular_conjugate(nu, -0.5j, b)) for b in n_sub.basis
    ]
    membership = l_sub.contains_all(rt_vals)
    images = span_matrices(leg_sp, np.array([v.matrix.ravel() for v in rt_vals]))
    mat = np.array([l_sub.coefficients(v) for v in rt_vals]).T  # (dimL, dimN)
    sv = np.linalg.svd(mat, compute_uv=False)
    invertibility = float(sv.min()) if sv.size else 0.0
    if mat.shape[0] != mat.shape[1] or invertibility <= RANK_TOL * (sv.max() if sv.size else 1.0):
        raise ValueError("Rtilde is not invertible between the base spans")
    inv = np.linalg.inv(mat)
    rtilde = BaseAntiIso(n_sub, l_sub, mat, inv, membership, images)

    # mu = nu o Rtilde^{-1}: density inside L solving trace(l_j D) = mu(l_j)
    herm = _hermitian_basis(l_sub)
    targets = np.array(
        [complex(np.trace((rtilde.apply_inverse(lj)).matrix @ nu.density.matrix)) for lj in l_sub.basis]
    )
    cols = []
    for h in herm:
        vals = np.array([np.trace(lj.matrix @ h) for lj in l_sub.basis])
        cols.append(np.concatenate([vals.real, vals.imag]))
    mu = _weight(l_sub, herm, np.array(cols).T, np.concatenate([targets.real, targets.imag]))
    gamma_l_vals = [
        rtilde.apply_inverse(modular_conjugate(mu, -0.5j, c)) for c in l_sub.basis
    ]
    return gamma_vals, rtilde, mu, gamma_l_vals


def build_base_structure(w: Operator | Fixture) -> BaseStructure:
    """The weight-dependent base data of W; raises ValueError when the
    anti-isomorphism cannot be built."""
    fx = as_fixture(w)
    gamma_vals, rtilde, mu, gamma_l_vals = gamma_and_rtilde(fx, fx.nu, fx.L)
    return BaseStructure(
        fx.spans, fx.nu, mu, rtilde, gamma_vals, gamma_l_vals, fx.kappa, fx.kappa_solver
    )


def gamma_kappa_residual(structure: BaseStructure) -> float:
    """gamma_N = kappa on the N basis: the weight slice against the
    least-squares solve, two independent routes."""
    return max(
        float(np.linalg.norm(g.matrix - v.matrix))
        for g, v in zip(structure.gamma_n_values, structure.kappa.values)
    )


# ---------------------------------------------------------------------------
# Separability-triple checks
# ---------------------------------------------------------------------------


def check_separability_triple(
    w: Operator | Fixture,
    structure: BaseStructure,
    q: Operator | None = None,
    wtilde: Operator | None = None,
    t_samples=(1.0, -1.0, 0.3, -0.3),
) -> dict[str, float]:
    """Residuals for the weight/anti-isomorphism identities; the
    kappa-vs-Q checks run only when a manageability pair is supplied."""
    fx = as_fixture(w)
    nu, mu, rtilde = structure.nu, structure.mu, structure.rtilde
    e = fx.e.matrix
    n = fx.n
    eye = np.eye(n)
    res: dict[str, float] = {}

    res["nu_normalization"] = rel_residual(
        slice_matrix(e, n, n, "left", nu.density.matrix), eye
    )
    res["mu_normalization"] = rel_residual(
        slice_matrix(e, n, n, "right", mu.density.matrix), eye
    )
    # (1 (x) c) E = (gamma_L(c) (x) 1) E over the L basis
    res["gamma_L_characterization"] = max(
        rel_residual(
            np.kron(eye, c.matrix) @ e, np.kron(gc.matrix, eye) @ e
        )
        for c, gc in zip(mu.algebra.basis, structure.gamma_l_values)
    )
    # (id (x) mu)((1 (x) c)E) = gamma_L(c)
    res["gamma_L_slice_formula"] = max(
        rel_residual(
            slice_matrix(np.kron(eye, c.matrix) @ e, n, n, "right", mu.density.matrix),
            gc.matrix,
        )
        for c, gc in zip(mu.algebra.basis, structure.gamma_l_values)
    )
    res["gamma_N_antimultiplicative"] = antimultiplicativity(
        lambda b: gamma_n_apply(fx, nu, b), nu.algebra.basis
    )
    # polar identity gamma_N = Rtilde o sigma^nu_{i/2}
    res["gamma_N_polar"] = max(
        op_residual(
            gamma_n_apply(fx, nu, b),
            rtilde.apply(modular_conjugate(nu, 0.5j, b)),
        )
        for b in nu.algebra.basis
    )
    # mu = nu o Rtilde^{-1}: trace(D_mu Rtilde(b)) = trace(D_nu b)
    res["mu_consistency"] = max(
        abs(
            complex(np.trace(mu.density.matrix @ rtilde.apply(b).matrix))
            - complex(np.trace(nu.density.matrix @ b.matrix))
        )
        / max(1.0, abs(complex(np.trace(nu.density.matrix @ b.matrix))))
        for b in nu.algebra.basis
    )
    # sigma^mu_t = Rtilde o sigma^nu_{-t} o Rtilde^{-1} at sampled t
    sig = 0.0
    for t in t_samples:
        for c in mu.algebra.basis:
            lhs = modular_conjugate(mu, t, c)
            rhs = rtilde.apply(modular_conjugate(nu, -t, rtilde.apply_inverse(c)))
            sig = max(sig, op_residual(lhs, rhs))
    res["sigma_mu_conjugation"] = sig
    # Rtilde is a *-anti-isomorphism
    res["rtilde_star"] = star_preservation(rtilde.apply, nu.algebra.basis)
    res["rtilde_antimultiplicative"] = antimultiplicativity(rtilde.apply, nu.algebra.basis)

    if q is not None and wtilde is not None:
        res.update(kappa_q_checks(fx, structure, q, wtilde))
    return res


def kappa_q_checks(
    w: Operator | Fixture, structure: BaseStructure, q: Operator, wtilde: Operator
) -> dict[str, float]:
    """R_kappa = Q^{-1} kappa(.) Q is a *-anti-homomorphism with
    kappa = T o R_kappa = R_kappa o T, and kappa has the slice formula
    through Wtilde Wtilde*."""
    fx = as_fixture(w)
    res: dict[str, float] = {}
    kap = structure.kappa
    solver = structure.kappa_solver
    qm = q.matrix
    qinv = fx.q_data(q).qinv
    leg = structure.nu.algebra.space

    def rk(val: Operator) -> Operator:
        return Operator(leg, qinv @ val.matrix @ qm)

    pairs = list(zip(kap.domain_basis, kap.values))
    # R_kappa(b*) = R_kappa(b)*, with kappa(b*) solved afresh
    star = 0.0
    for b, v in pairs:
        v_adj, r_adj, _ = solver.solve(b.adj)
        if r_adj < RESIDUAL_TOL:
            star = max(star, op_residual(rk(v_adj), rk(v).adj))
    res["rkappa_star"] = star
    anti = 0.0
    for b1, v1 in pairs:
        for b2, v2 in pairs:
            v12, r12, _ = solver.solve(b1 @ b2)
            if r12 < RESIDUAL_TOL:
                anti = max(anti, op_residual(rk(v12), rk(v2) @ rk(v1)))
    res["rkappa_antimultiplicative"] = anti
    # kappa = T o R_kappa and = R_kappa o T, T = Q(.)Q^{-1}
    tr_res = 0.0
    rt_res = 0.0
    for b, v in pairs:
        t_rk = Operator(leg, qm @ rk(v).matrix @ qinv)
        tr_res = max(tr_res, op_residual(v, t_rk))
        tb = Operator(leg, qm @ b.matrix @ qinv)
        v_tb, r_tb, _ = solver.solve(tb)
        if r_tb < RESIDUAL_TOL:
            rt_res = max(rt_res, op_residual(v, Operator(leg, qinv @ v_tb.matrix @ qm)))
    res["kappa_eq_T_Rkappa"] = tr_res
    res["kappa_eq_Rkappa_T"] = rt_res
    # slice formula: kappa(b_omega) = Q (omega^T (x) id)(Wt Wt*) Q^{-1}
    ww_slices = transpose_grid(all_left_slices(wtilde @ wtilde.adj))
    slice_form = 0.0
    for b, y in zip(all_right_slices(fx.e), ww_slices):
        val, r, _ = solver.solve(Operator(leg, b))
        if r < RESIDUAL_TOL:
            expected = Operator(leg, qm @ y @ qinv)
            slice_form = max(slice_form, op_residual(val, expected))
    res["kappa_wtilde_formula"] = slice_form
    return res


# ---------------------------------------------------------------------------
# C*-bases B and C
# ---------------------------------------------------------------------------


def c_star_bases(
    w: Operator | Fixture,
    a_space: OperatorSubspace,
    ahat_space: OperatorSubspace,
    rtilde: BaseAntiIso | None = None,
) -> tuple[OperatorSubspace, OperatorSubspace, dict[str, float]]:
    """B = N and C = L (with B-hat = N-hat, C-hat = L-hat), the multiplier
    memberships of the base elements against A and A-hat, E as a
    multiplier of B (x) C, and the range of Rtilde's unprojected images."""
    fx = as_fixture(w)
    e_op = fx.e
    b_sub, c_sub, bhat_sub, chat_sub = fx.N, fx.L, fx.dual.N, fx.dual.L
    a, ahat = a_space, ahat_space
    bc = tensor_subspace(b_sub, c_sub)
    pairs = [kron(x, y) for x in b_sub.basis for y in c_sub.basis]
    res = {
        "b_x_in_A": a.products_residual(b_sub.basis, a.basis),
        "y_bhat_in_Ahat": ahat.products_residual(ahat.basis, bhat_sub.basis),
        "x_c_in_A": a.products_residual(a.basis, c_sub.basis),
        "c_y_in_Ahat": ahat.products_residual(c_sub.basis, ahat.basis),
        "x_chat_in_A": a.products_residual(a.basis, chat_sub.basis),
        "chat_y_in_Ahat": ahat.products_residual(chat_sub.basis, ahat.basis),
        "E_mult_BC_left": bc.products_residual([e_op], pairs),
        "E_mult_BC_right": bc.products_residual(pairs, [e_op]),
    }
    if rtilde is not None:
        res["R_onto_C"] = rtilde.membership_residual
        res["R_range_covers_C"] = rtilde.image_span.equals(c_sub)[1]
    return b_sub, c_sub, res
