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

from .context import Fixture
from .tensor import (
    PD_TOL,
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
    factor,
    kron_stack,
    lsq_solve,
    max_gap,
    pair_products,
    range_basis,
    rel_residual,
    reversed_products,
    rows,
    slice_matrix,
    star_preservation,
    tensor_fit,
    transpose_grid,
)

@dataclass(frozen=True)
class WeightData:
    """A positive functional x -> trace(D x) on a base algebra (N for nu,
    L for mu)."""

    density: Operator
    min_eigenvalue: float
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


def base_spans(fx: Fixture) -> dict[str, float]:
    """Residuals of the base spans, keyed by check id: [N, L] = 0 for the
    context and for its dual (N-hat and L-hat are the dual's N and L); each
    of the four spans closed under products; and L = L-hat.  E and G are
    self-adjoint, so each slice set is closed under *, and E lies in
    N (x) L (its minimal sums have their legs among its slices)."""
    res = {}
    for label, f in (("NL", fx), ("NhatLhat", fx.dual)):
        n, l = f.N.stack, f.L.stack
        res[f"{label}_commutation"] = max_gap(pair_products(n, l), reversed_products(n, l))
    for name, sub in (("N", fx.N), ("L", fx.L), ("Nhat", fx.dual.N), ("Lhat", fx.dual.L)):
        res[f"subalgebra_{name}"] = sub.product_residual
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

    def __init__(self, fx: Fixture):
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
    """kappa on the basis of the context's N and on the products of basis
    pairs (pair (i, j) at index i * dim + j), with the solve residuals."""

    value_stack: np.ndarray
    residuals: np.ndarray
    product_values: np.ndarray
    product_residuals: np.ndarray
    antimultiplicativity: float


def kappa_map(fx: Fixture) -> KappaMap:
    """kappa on the basis of the context's N and on the products of basis
    pairs, solved independently in one stacked solve, plus the
    anti-multiplicativity residual over the pairs whose three solves succeed."""
    solver, bs = fx.kappa_solver, fx.N.stack
    m = len(bs)
    vals, res = solver.solve_stack(np.concatenate([bs, pair_products(bs, bs)]))
    solved = res[:m] < fx.tol
    ok = (res[m:] < fx.tol) & np.repeat(solved, m) & np.tile(solved, m)
    anti = max_gap(vals[m:][ok], reversed_products(vals[:m], vals[:m])[ok])
    return KappaMap(vals[:m], res[:m], vals[m:], res[m:], anti)


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
    _, _, vh, rank = factor(np.hstack([cands.real, cands.imag]))
    vh = vh[:rank]
    m = (vh[:, : d * d] + 1j * vh[:, d * d :]).reshape(-1, d, d)
    return (m + adjoint(m)) / 2.0  # exact Hermitization


def find_distinguished_weight(fx: Fixture) -> WeightData:
    """Solve (nu (x) id)(E) = 1 for a positive density D in the base span N.

    The dual weight on N-hat is the same construction on the dual
    context: ``find_distinguished_weight(fx.dual)``.  The real system
    t -> (sum_j t_j h_j (x) id)(E) over the Hermitian basis h of N has
    nullity 0: N is *-closed, as E is, so its singular values are N's own
    (those of E's Schmidt span) and the solution is unique.
    """
    sub, e, n = fx.N, fx.e.matrix, fx.n
    herm = _hermitian_basis(sub)
    if not len(herm):
        raise ValueError("base span is empty")
    # real system: sum_j t_j leftslice_{h_j}(E) = I
    cols = rows(slice_matrix(e, n, n, "left", herm))
    rhs = np.concatenate([np.eye(n).ravel(), np.zeros(n * n)])
    a = np.hstack([cols.real, cols.imag]).T
    return _weight(sub, herm, a, rhs)


def _weight(sub: OperatorSubspace, herm: np.ndarray, a: np.ndarray, rhs: np.ndarray) -> WeightData:
    """The density sum_j t_j h_j for the solution t of the real system
    a t = rhs, with its smallest eigenvalue on the support of ``sub``;
    found when the residual is below 1e-7 and that eigenvalue exceeds
    PD_TOL.  This one rule decides nu, nu-hat and mu.  Both systems solved
    here, nu's and mu's, have nullity 0, so t is unique."""
    t, residual = lsq_solve(a, rhs)
    d_mat = sum(tj * hj for tj, hj in zip(t.real, herm))
    supp = range_basis(sub.stack)
    me = float(np.linalg.eigvalsh(supp.conj().T @ d_mat @ supp).min())
    found = residual < 1e-7 and me > PD_TOL
    return WeightData(Operator(sub.space, d_mat), me, residual, supp, found)


def modular_conjugate(weight: WeightData, z: complex, x: np.ndarray) -> np.ndarray:
    """sigma_z(x) = D^{iz} x D^{-iz}, D padded as in WeightData.modular, for
    each matrix of a stack."""
    return weight.modular.conjugate(1j * z, x)


# ---------------------------------------------------------------------------
# gamma_N, Rtilde, mu, gamma_L
# ---------------------------------------------------------------------------


def gamma_n_stack(fx: Fixture, nu: WeightData, bs: np.ndarray) -> np.ndarray:
    """gamma_N(b) = (nu (x) id)(E (b (x) 1)) for each matrix b of a stack:
    the left slice of E at the density b D."""
    return slice_matrix(fx.e.matrix, fx.n, fx.n, "left", bs @ nu.density.matrix)


@dataclass(frozen=True)
class BaseStructure:
    """The base data that the weight nu of the context determines."""

    mu: WeightData
    rtilde: BaseAntiIso
    gamma_n: np.ndarray  # gamma_N on the N basis, a stack
    gamma_l: np.ndarray  # gamma_L on the L basis, a stack


def gamma_and_rtilde(fx: Fixture) -> BaseStructure:
    """Assemble, from the context's nu on N, the weight mu = nu o Rtilde^{-1}
    on L, Rtilde = gamma_N o sigma_{-i/2}, gamma_N on the N basis and
    gamma_L on the L basis; raises ValueError, naming Rtilde or mu, when
    Rtilde is not invertible between the base spans or mu is no weight."""
    nu, n_sub, l_sub = fx.nu, fx.N, fx.L
    gamma_vals = gamma_n_stack(fx, nu, n_sub.stack)
    # the values are left slices of E, so they lie in L; invertible
    # coordinates on L make them span it
    rt_vals = gamma_n_stack(fx, nu, modular_conjugate(nu, -0.5j, n_sub.stack))
    mat = l_sub.coordinates(rt_vals).T  # (dimL, dimN)
    rank = factor(mat)[3]
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
    # trace(l_k h): over orthonormal bases of the *-closed L, an isometry
    traces = np.einsum("kij,hji->kh", ls, herm)
    a = np.concatenate([traces.real, traces.imag])
    mu = _weight(l_sub, herm, a, np.concatenate([targets.real, targets.imag]))
    if not mu.found:
        raise ValueError(f"mu is no weight on L (min eig {mu.min_eigenvalue:.3e})")
    gamma_l_vals = rtilde.inverse.apply(modular_conjugate(mu, -0.5j, ls))
    return BaseStructure(mu, rtilde, gamma_vals, gamma_l_vals)


# ---------------------------------------------------------------------------
# Separability-triple checks
# ---------------------------------------------------------------------------


def check_separability_triple(fx: Fixture) -> dict[str, float]:
    """Residuals for the weight/anti-isomorphism identities of the
    context's nu and base structure, gamma_N = kappa first, with the
    modular groups sampled at T_SAMPLES.  The checks that need a manageability pair (Q, Wtilde) are
    kappa_q_checks."""
    nu, structure = fx.nu, fx.structure
    mu, rtilde = structure.mu, structure.rtilde
    e, n = fx.e.matrix, fx.n
    eye = np.eye(n)
    bs, cs, gamma_l = fx.N.stack, fx.L.stack, structure.gamma_l
    res: dict[str, float] = {}

    # gamma_N = kappa on the N basis: the weight slice against the
    # least-squares solve, two independent routes
    res["gamma_N_eq_kappa"] = max_gap(structure.gamma_n, fx.kappa.value_stack)
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

    g = structure.gamma_n
    res["gamma_N_antimultiplicative"] = max_gap(
        gamma_n_stack(fx, nu, pair_products(bs, bs)), reversed_products(g, g)
    )
    # polar identity gamma_N = Rtilde o sigma^nu_{i/2}
    res["gamma_N_polar"] = max_gap(
        structure.gamma_n, rtilde.apply(modular_conjugate(nu, 0.5j, bs))
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


def kappa_q_checks(fx: Fixture, q: Operator, wtilde: Operator) -> dict[str, float]:
    """R_kappa = Q^{-1} kappa(.) Q is a *-anti-homomorphism with
    kappa = R_kappa o T for T = Q(.)Q^{-1}, and kappa has the slice
    formula through Wtilde Wtilde*.  kappa = T o R_kappa holds for every
    kappa by the definition of R_kappa, so it is not measured."""
    kap = fx.kappa
    qm, qinv = q.matrix, fx.q_data(q).power(-1)

    def rk(vals: np.ndarray) -> np.ndarray:
        return qinv @ vals @ qm

    bs, v = fx.N.stack, kap.value_stack
    m = len(bs)
    # kappa(b*), kappa(T(b)) with T = Q(.)Q^{-1}, and kappa of the right
    # slices of E (the slice-formula domain), in one stacked solve
    vals, residuals = fx.kappa_solver.solve_stack(
        np.concatenate([adjoint(bs), qm @ bs @ qinv, all_right_slices(fx.e)])
    )
    solved = residuals < fx.tol
    v_adj, v_tb, v_e = vals[:m], vals[m : 2 * m], vals[2 * m :]
    ok_adj, ok_tb, ok_e = solved[:m], solved[m : 2 * m], solved[2 * m :]
    ok_prod = kap.product_residuals < fx.tol
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


def c_star_bases(fx: Fixture) -> dict[str, float]:
    """B = N and C = L (with B-hat = N-hat, C-hat = L-hat): the multiplier
    memberships of the base elements against A and A-hat, and E as a
    multiplier of B (x) C.  Rtilde maps onto C whenever it is built
    (gamma_and_rtilde), so its range is not measured."""
    b, c, bhat, chat = fx.N.stack, fx.L.stack, fx.dual.N.stack, fx.dual.L.stack
    a, ahat = fx.A.stack, fx.Ahat.stack
    pairs = kron_stack(b, c)
    e = fx.e.matrix
    return {
        "b_x_in_A": fx.A.stack_residual(pair_products(b, a)),
        "y_bhat_in_Ahat": fx.Ahat.stack_residual(pair_products(ahat, bhat)),
        "x_c_in_A": fx.A.stack_residual(pair_products(a, c)),
        "c_y_in_Ahat": fx.Ahat.stack_residual(pair_products(c, ahat)),
        "x_chat_in_A": fx.A.stack_residual(pair_products(a, chat)),
        "chat_y_in_Ahat": fx.Ahat.stack_residual(pair_products(chat, ahat)),
        "E_mult_BC_left": tensor_fit(e @ pairs, fx.N, fx.L).membership,
        "E_mult_BC_right": tensor_fit(pairs @ e, fx.N, fx.L).membership,
    }
