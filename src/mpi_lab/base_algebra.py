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
from functools import cached_property, partial

import numpy as np

from .context import Fixture, as_fixture
from .tensor import (
    PD_TOL,
    RESIDUAL_TOL,
    T_SAMPLES,
    LstsqSolver,
    Operator,
    OperatorSubspace,
    PositiveEig,
    SpanMap,
    adjoint,
    all_left_slices,
    all_right_slices,
    antimultiplicativity,
    kron_stack,
    lsq_solve,
    max_gap,
    numerical_rank,
    pair_products,
    rel_residual,
    reversed_products,
    rows,
    slice_matrix,
    star_preservation,
    tensor_fit,
    transpose_grid,
)

#: iteration cap of the positivity repair of an indefinite weight density
REPAIR_ITERS = 300


@dataclass(frozen=True)
class WeightData:
    """A positive functional x -> trace(D x) on a base algebra (N for nu,
    L for mu)."""

    density: Operator
    min_eigenvalue: float
    solution_space_dim: int
    normalization_residual: float
    support: np.ndarray  # orthonormal columns spanning the algebra's range
    found: bool

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
class BaseAntiIso(SpanMap):
    """A linear bijection between base spans, with its inverse."""

    inverse: SpanMap


def base_spans(w: Operator | Fixture) -> dict[str, float]:
    """Residuals of the base spans, keyed by check id: [N, L] = 0 for the
    context and for its dual (N-hat and L-hat are the dual's N and L); each
    of the four spans closed under products; and L = L-hat.  E and G are
    self-adjoint, so each slice set is closed under *, and E lies in
    N (x) L (its minimal sums have their legs among its slices)."""
    fx = as_fixture(w)
    res = {}
    for label, f in (("NL", fx), ("NhatLhat", fx.dual)):
        n, l = f.N.stack, f.L.stack
        res[f"{label}_commutation"] = max_gap(pair_products(n, l), reversed_products(n, l))
    for name, sub in (("N", fx.N), ("L", fx.L), ("Nhat", fx.dual.N), ("Lhat", fx.dual.L)):
        res[f"subalgebra_{name}"] = sub.stack_residual(pair_products(sub.stack, sub.stack))
    res["L_eq_Lhat"] = fx.L.equals(fx.dual.L)
    return res


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

    def __init__(self, w: Operator | Fixture):
        fx = as_fixture(w)
        self.n, self.e = fx.n, fx.e.matrix
        self._solver = LstsqSolver(self.e.reshape(self.n**3, self.n))
        self.nullity = self.n * self._solver.nullity

    def solve_stack(self, bs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """kappa of each matrix b of a (K, n, n) stack, solved on matrix
        right-hand sides of at most n members each, so that no more than
        O(n^5) entries live: (values (K, n, n), residuals (K,))."""
        n, e = self.n, self.e.reshape(self.n * self.n, self.n, self.n)
        values, residuals = [], []
        for block in np.split(bs, range(n, len(bs), n)):
            k = len(block)
            # E(b (x) 1)[r, (j, l)] = sum_i E[r, (i, l)] b[i, j], as n^3 x n per b
            rhs = np.einsum("ril,kij->rjkl", e, block, optimize=True)
            x, col_res = self._solver.solve(rhs.reshape(n**3, k * n))
            values.append(x.reshape(n, k, n).transpose(1, 0, 2))
            residuals.append(np.sqrt(np.sum(col_res.reshape(k, n) ** 2, axis=1)))
        return np.concatenate(values), np.concatenate(residuals)


@dataclass(frozen=True)
class KappaMap:
    """kappa on the basis of N and on the products of basis pairs (pair
    (i, j) at index i * dim + j), with the solve residuals."""

    domain: OperatorSubspace
    value_stack: np.ndarray
    residuals: np.ndarray
    product_values: np.ndarray
    product_residuals: np.ndarray
    nullity: int
    antimultiplicativity: float


def kappa_map(
    w: Operator | Fixture,
    n_sub: OperatorSubspace,
    solver: KappaSolver | None = None,
) -> KappaMap:
    """kappa on a basis of N and on the products of basis pairs, solved
    independently in one stacked solve, plus the anti-multiplicativity
    residual over the pairs whose three solves succeed."""
    solver = solver or as_fixture(w).kappa_solver
    bs = n_sub.stack
    m = len(bs)
    vals, res = solver.solve_stack(np.concatenate([bs, pair_products(bs, bs)]))
    solved = res[:m] < RESIDUAL_TOL
    ok = (res[m:] < RESIDUAL_TOL) & np.repeat(solved, m) & np.tile(solved, m)
    anti = max_gap(vals[m:][ok], reversed_products(vals[:m], vals[:m])[ok])
    return KappaMap(n_sub, vals[:m], res[:m], vals[m:], res[m:], solver.nullity, anti)


# ---------------------------------------------------------------------------
# Distinguished weight
# ---------------------------------------------------------------------------


def _hermitian_basis(sub: OperatorSubspace) -> np.ndarray:
    """Real-orthonormal basis of the Hermitian part of a *-closed span,
    as a stack."""
    b, d = sub.stack, sub.space.total_dim
    # the Hermitian and the anti-Hermitian part of each basis element
    cands = np.stack([(b + adjoint(b)) / 2.0, (b - adjoint(b)) / 2.0j], axis=1)
    cands = cands.reshape(-1, d * d)
    _, s, vh = np.linalg.svd(np.hstack([cands.real, cands.imag]), full_matrices=False)
    vh = vh[: numerical_rank(s)]
    m = (vh[:, : d * d] + 1j * vh[:, d * d :]).reshape(-1, d, d)
    return (m + adjoint(m)) / 2.0  # exact Hermitization


def support_projection(sub: OperatorSubspace) -> np.ndarray:
    """Orthonormal columns spanning sum of ranges of the basis elements.

    For a finite-dimensional *-closed algebra this spans the range of
    its unit.
    """
    if sub.dim == 0:
        return np.zeros((sub.space.total_dim, 0), dtype=complex)
    u, s, _ = np.linalg.svd(np.hstack(list(sub.stack)), full_matrices=False)
    return u[:, : numerical_rank(s)]


def find_distinguished_weight(w: Operator | Fixture) -> WeightData:
    """Solve (nu (x) id)(E) = 1 for a positive density D in the base span N.

    The dual weight on N-hat is the same construction on the dual
    context: ``find_distinguished_weight(fx.dual)``.  The minimal-norm
    solution of the real linear system is taken; if it is not positive
    definite on the support and the solution space has positive
    dimension, an alternating-projection repair onto the positive cone
    is attempted before reporting failure.
    """
    fx = as_fixture(w)
    sub, e, n = fx.N, fx.e.matrix, fx.n
    herm = _hermitian_basis(sub)
    if not len(herm):
        raise ValueError("base span is empty")
    # real system: sum_j t_j leftslice_{h_j}(E) = I
    cols = rows(np.array([slice_matrix(e, n, n, "left", h) for h in herm]))
    rhs = np.concatenate([np.eye(n).ravel(), np.zeros(n * n)])
    a = np.hstack([cols.real, cols.imag]).T
    return _weight(sub, herm, a, rhs, repair=True)


def _weight(
    sub: OperatorSubspace,
    herm: np.ndarray,
    a: np.ndarray,
    rhs: np.ndarray,
    repair: bool = False,
) -> WeightData:
    """The density sum_j t_j h_j for the minimum-norm real solution t of
    a t = rhs, with its smallest eigenvalue on the support of ``sub``;
    found when that eigenvalue exceeds PD_TOL.  With ``repair``, an
    indefinite density is moved along the solution space towards the
    positive cone, leaving the residual unchanged."""
    t, residual, nullity = lsq_solve(a, rhs)
    t = t.real
    d_mat = sum(tj * hj for tj, hj in zip(t, herm))
    supp = support_projection(sub)

    def min_eig(mat):
        if supp.shape[1] == 0:
            return 0.0
        return float(np.linalg.eigvalsh(supp.conj().T @ mat @ supp).min())

    me = min_eig(d_mat)
    if repair and me <= PD_TOL and nullity > 0:
        d_mat = _positivity_repair(a, t, herm, supp)
        me = min_eig(d_mat)
    found = residual < 1e-7 and me > PD_TOL
    return WeightData(Operator(sub.space, d_mat), me, nullity, residual, supp, found)


def _positivity_repair(a, t0, herm, supp):
    """Alternate, at most REPAIR_ITERS times, between the affine solution
    set {t0 + null(a)} of the normalization system and the positive cone
    on the support."""
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    null_basis = vh[numerical_rank(s) :]  # rows span the solution-space directions
    t = t0.copy()
    floor = 1e-6
    for _ in range(REPAIR_ITERS):
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


def modular_conjugate(weight: WeightData, z: complex, x: np.ndarray) -> np.ndarray:
    """sigma_z(x) = D^{iz} x D^{-iz}, D padded as in WeightData.modular, for
    each matrix of a stack."""
    return weight.modular.conjugate(1j * z, x)


# ---------------------------------------------------------------------------
# gamma_N, Rtilde, mu, gamma_L
# ---------------------------------------------------------------------------


def gamma_n_stack(w: Operator | Fixture, nu: WeightData, bs: np.ndarray) -> np.ndarray:
    """gamma_N(b) = (nu (x) id)(E (b (x) 1)) for each matrix b of a stack."""
    fx = as_fixture(w)
    n = fx.n
    # the slice is sum_{i, m} E[(i, k), (m, l)] (b D)[m, i] at entry (k, l)
    e4 = fx.e.matrix.reshape(n, n, n, n)
    return np.einsum("ikml,smi->skl", e4, bs @ nu.density.matrix)


@dataclass(frozen=True)
class BaseStructure:
    """The base data that the weight nu of the context determines."""

    mu: WeightData
    rtilde: BaseAntiIso
    gamma_n: np.ndarray  # gamma_N on the N basis, a stack
    gamma_l: np.ndarray  # gamma_L on the L basis, a stack


def gamma_and_rtilde(
    w: Operator | Fixture,
) -> tuple[WeightData, BaseAntiIso, np.ndarray, np.ndarray]:
    """Assemble, from the context's nu on N, the weight mu = nu o Rtilde^{-1}
    on L, Rtilde = gamma_N o sigma_{-i/2}, gamma_N on the N basis and
    gamma_L on the L basis."""
    fx = as_fixture(w)
    nu, n_sub, l_sub = fx.nu, fx.N, fx.L
    gamma_vals = gamma_n_stack(fx, nu, n_sub.stack)
    # the values are left slices of E, so they lie in L; invertible
    # coordinates on L make them span it
    rt_vals = gamma_n_stack(fx, nu, modular_conjugate(nu, -0.5j, n_sub.stack))
    mat = l_sub.coordinates(rt_vals).T  # (dimL, dimN)
    rank = numerical_rank(np.linalg.svd(mat, compute_uv=False))
    if mat.shape[0] != mat.shape[1] or rank < max(1, len(mat)):
        raise ValueError("Rtilde is not invertible between the base spans")
    rtilde = BaseAntiIso(
        n_sub,
        l_sub.basis_matrix.T @ mat,
        SpanMap(l_sub, n_sub.basis_matrix.T @ np.linalg.inv(mat)),
    )

    # mu = nu o Rtilde^{-1}: density inside L solving trace(l_j D) = mu(l_j)
    herm = _hermitian_basis(l_sub)
    ls = l_sub.stack
    targets = np.einsum("kij,ji->k", rtilde.inverse.apply(ls), nu.density.matrix)
    traces = np.einsum("kij,hji->kh", ls, herm)  # trace(l_k h)
    a = np.concatenate([traces.real, traces.imag])
    mu = _weight(l_sub, herm, a, np.concatenate([targets.real, targets.imag]))
    gamma_l_vals = rtilde.inverse.apply(modular_conjugate(mu, -0.5j, ls))
    return mu, rtilde, gamma_vals, gamma_l_vals


def build_base_structure(w: Operator | Fixture) -> BaseStructure:
    """The weight-dependent base data of W; raises ValueError when the
    anti-isomorphism cannot be built."""
    return BaseStructure(*gamma_and_rtilde(w))


def gamma_kappa_residual(w: Operator | Fixture) -> float:
    """gamma_N = kappa on the N basis: the weight slice against the
    least-squares solve, two independent routes."""
    fx = as_fixture(w)
    return max_gap(fx.structure.gamma_n, fx.kappa.value_stack)


# ---------------------------------------------------------------------------
# Separability-triple checks
# ---------------------------------------------------------------------------


def check_separability_triple(w: Operator | Fixture) -> dict[str, float]:
    """Residuals for the weight/anti-isomorphism identities of the
    context's nu and base structure, with the modular groups sampled at
    T_SAMPLES.  The checks that need a manageability pair (Q, Wtilde) are
    kappa_q_checks."""
    fx = as_fixture(w)
    nu, structure = fx.nu, fx.structure
    mu, rtilde = structure.mu, structure.rtilde
    e, n = fx.e.matrix, fx.n
    eye = np.eye(n)
    bs, cs, gamma_l = fx.N.stack, fx.L.stack, structure.gamma_l
    res: dict[str, float] = {}

    res["nu_normalization"] = rel_residual(
        slice_matrix(e, n, n, "left", nu.density.matrix), eye
    )
    res["mu_normalization"] = rel_residual(
        slice_matrix(e, n, n, "right", mu.density.matrix), eye
    )
    # (1 (x) c) E = (gamma_L(c) (x) 1) E over the L basis
    one_c_e = kron_stack(eye[None], cs) @ e
    res["gamma_L_characterization"] = max_gap(
        one_c_e, kron_stack(gamma_l, eye[None]) @ e
    )
    # (id (x) mu)((1 (x) c)E) = gamma_L(c)
    res["gamma_L_slice_formula"] = max_gap(
        slice_matrix(one_c_e, n, n, "right", mu.density.matrix), gamma_l
    )

    gamma = partial(gamma_n_stack, fx, nu)
    res["gamma_N_antimultiplicative"] = antimultiplicativity(gamma, bs)
    # polar identity gamma_N = Rtilde o sigma^nu_{i/2}
    res["gamma_N_polar"] = max_gap(
        gamma(bs), rtilde.apply(modular_conjugate(nu, 0.5j, bs))
    )
    # mu = nu o Rtilde^{-1}: trace(D_mu Rtilde(b)) = trace(D_nu b)
    nu_b = np.einsum("ij,kji->k", nu.density.matrix, bs)
    mu_rb = np.einsum("ij,kji->k", mu.density.matrix, rtilde.apply(bs))
    res["mu_consistency"] = max_gap(nu_b[:, None], mu_rb[:, None])
    # sigma^mu_t = Rtilde o sigma^nu_{-t} o Rtilde^{-1} at sampled t
    res["sigma_mu_conjugation"] = max(
        max_gap(
            modular_conjugate(mu, t, cs),
            rtilde.apply(modular_conjugate(nu, -t, rtilde.inverse.apply(cs))),
        )
        for t in T_SAMPLES
    )
    # Rtilde is a *-anti-isomorphism
    res["rtilde_star"] = star_preservation(rtilde.apply, bs)
    res["rtilde_antimultiplicative"] = antimultiplicativity(rtilde.apply, bs)
    return res


def kappa_q_checks(w: Operator | Fixture, q: Operator, wtilde: Operator) -> dict[str, float]:
    """R_kappa = Q^{-1} kappa(.) Q is a *-anti-homomorphism with
    kappa = R_kappa o T for T = Q(.)Q^{-1}, and kappa has the slice
    formula through Wtilde Wtilde*.  kappa = T o R_kappa holds for every
    kappa by the definition of R_kappa, so it is not measured."""
    fx = as_fixture(w)
    kap = fx.kappa
    qm, qinv = q.matrix, fx.q_data(q).qinv

    def rk(vals: np.ndarray) -> np.ndarray:
        return qinv @ vals @ qm

    bs, v = kap.domain.stack, kap.value_stack
    m = len(bs)
    # kappa(b*), kappa(T(b)) with T = Q(.)Q^{-1}, and kappa of the right
    # slices of E (the slice-formula domain), in one stacked solve
    vals, residuals = fx.kappa_solver.solve_stack(
        np.concatenate([adjoint(bs), qm @ bs @ qinv, all_right_slices(fx.e)])
    )
    solved = residuals < RESIDUAL_TOL
    v_adj, v_tb, v_e = vals[:m], vals[m : 2 * m], vals[2 * m :]
    ok_adj, ok_tb, ok_e = solved[:m], solved[m : 2 * m], solved[2 * m :]
    ok_prod = kap.product_residuals < RESIDUAL_TOL
    res: dict[str, float] = {}
    res["rkappa_star"] = max_gap(rk(v_adj)[ok_adj], adjoint(rk(v))[ok_adj])
    res["rkappa_antimultiplicative"] = max_gap(
        rk(kap.product_values)[ok_prod], reversed_products(rk(v), rk(v))[ok_prod]
    )
    res["kappa_eq_Rkappa_T"] = max_gap(v[ok_tb], rk(v_tb)[ok_tb])
    # slice formula: kappa(b_omega) = Q (omega^T (x) id)(Wt Wt*) Q^{-1}
    ww_slices = transpose_grid(all_left_slices(wtilde @ wtilde.adj))
    res["kappa_wtilde_formula"] = max_gap(v_e[ok_e], (qm @ ww_slices @ qinv)[ok_e])
    return res


# ---------------------------------------------------------------------------
# C*-bases B and C
# ---------------------------------------------------------------------------


def c_star_bases(w: Operator | Fixture) -> dict[str, float]:
    """B = N and C = L (with B-hat = N-hat, C-hat = L-hat): the multiplier
    memberships of the base elements against A and A-hat, and E as a
    multiplier of B (x) C.  Rtilde maps onto C whenever it is built
    (gamma_and_rtilde), so its range is not measured."""
    fx = as_fixture(w)
    b, c, bhat, chat = fx.N.stack, fx.L.stack, fx.dual.N.stack, fx.dual.L.stack
    a_space, ahat_space = fx.A.space, fx.Ahat.space
    a, ahat = a_space.stack, ahat_space.stack
    pairs = kron_stack(b, c)
    e = fx.e.matrix
    return {
        "b_x_in_A": a_space.stack_residual(pair_products(b, a)),
        "y_bhat_in_Ahat": ahat_space.stack_residual(pair_products(ahat, bhat)),
        "x_c_in_A": a_space.stack_residual(pair_products(a, c)),
        "c_y_in_Ahat": ahat_space.stack_residual(pair_products(c, ahat)),
        "x_chat_in_A": a_space.stack_residual(pair_products(a, chat)),
        "chat_y_in_Ahat": ahat_space.stack_residual(pair_products(chat, ahat)),
        "E_mult_BC_left": tensor_fit(e @ pairs, fx.N, fx.L).membership,
        "E_mult_BC_right": tensor_fit(pairs @ e, fx.N, fx.L).membership,
    }
