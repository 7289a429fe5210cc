"""Slice algebras, comultiplications, and the canonical idempotent.

A and A-hat are the spans of the right/left slices of W; the
comultiplications are Delta(x) = W*(1 (x) x)W and
Delta-hat(x) = Sigma W (x (x) 1) W* Sigma.  E = W*W plays the role of
Delta(1) and is checked to behave as a multiplier of A (x) A, with the
range and density statements read as exact span equalities (the only
faithful finite-dimensional reading of the norm-density statements).
Coassociativity has one evaluation for every n: over all matrix units
at once, in O(n^8), from QR-reduced blocks of the three-leg products,
so no difference of squared norms can cancel and the residual of a
dense W stays at rounding level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .context import Fixture, as_fixture, three_leg_space, what
from .tensor import (
    RESIDUAL_TOL,
    Operator,
    OperatorSubspace,
    TensorSpace,
    adjoint,
    chain,
    identity,
    kron_stack,
    leg_word,
    max_gap,
    numerical_rank,
    pair_products,
    rel_residual,
    span_matrices,
    stack_left_slices,
    stack_right_slices,
    tensor_subspace,
)

SIDES = ("A", "Ahat", "Astar", "Ahatstar")


@dataclass(frozen=True)
class LegAlgebra:
    side: str
    space: OperatorSubspace
    unital: bool
    unit_residual: float
    star_closed: bool
    star_residual: float
    product_residual: float


@dataclass(frozen=True)
class CoalgebraReport:
    """Named residuals and span dimensions for one comultiplication side."""

    residuals: dict[str, float]
    dims: dict[str, int]

    def max_residual(self) -> float:
        return max(self.residuals.values(), default=0.0)


def identity_leg(w: Operator) -> Operator:
    return identity(TensorSpace((w.space.legs[0],)))


def leg_algebra(w: Operator | Fixture, side: str = "A") -> LegAlgebra:
    """Span of slices of W (or W*) over all basis functionals, with
    unital / star-closed / subalgebra diagnostics."""
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}")
    fx = as_fixture(w)
    # W-hat = Sigma W* Sigma, so the slices of W* are the dual context's
    # slices with the sides swapped
    owner = fx.dual if side.endswith("star") else fx
    stack = owner.right_slices if side in ("A", "Ahatstar") else owner.left_slices
    sub = span_matrices(fx.leg_space, stack)
    unit_res = sub.stack_residual(np.eye(fx.n)[None])
    star_res, prod_res = sub.closure_residuals()
    return LegAlgebra(
        side=side,
        space=sub,
        unital=unit_res < RESIDUAL_TOL,
        unit_residual=unit_res,
        star_closed=star_res < RESIDUAL_TOL,
        star_residual=star_res,
        product_residual=prod_res,
    )


def comul(w: Operator | Fixture, x: Operator, side: str = "primal") -> Operator:
    """Delta(x) = W*(1 (x) x)W, or the dual
    Delta-hat(x) = W-hat*(1 (x) x)W-hat = Sigma W(x (x) 1)W* Sigma."""
    fx = as_fixture(w)
    if x.space.nlegs != 1 or x.space.legs[0] != fx.w.space.legs[0]:
        raise ValueError("x must be a single-leg operator matching W's legs")
    if side not in ("primal", "dual"):
        raise ValueError("side must be 'primal' or 'dual'")
    if side == "dual":
        fx = fx.dual
    return Operator(fx.w.space, _comul_stack(fx, x.matrix[None])[0])


def _comul_stack(fx: Fixture, xs: np.ndarray) -> np.ndarray:
    """Delta applied to a stack of single-leg matrices."""
    sandwiched = kron_stack(np.eye(fx.n)[None], xs)
    return fx.ws.matrix[None] @ sandwiched @ fx.w.matrix[None]


# ---------------------------------------------------------------------------
# Coassociativity
# ---------------------------------------------------------------------------


def coassociativity_residual(w: Operator) -> float:
    """Max relative gap of (Delta (x) id)Delta(x) = (id (x) Delta)Delta(x)
    over the matrix units x = e_kl, which span every x."""
    return float(np.max(_coassoc_residuals(w)))


def _coassoc_residuals(w: Operator) -> np.ndarray:
    """Relative coassociativity gap for every matrix unit e_kl, as (n, n).

    Both sides are conjugations of 1 (x) 1 (x) e_kl by U = W23 W12 and
    V = W13 W23, so with the n^2 x n^3 blocks A_k = U[(m,k),:] and
    B_k = V[(m,k),:] the gap for e_kl is D_kl = A_k^H A_l - B_k^H B_l.
    One QR factorization [A_k^H B_k^H] = Q_k R_k per k gives
    D_kl = Q_k R_k J R_l^H Q_l^H with J = diag(1, -1).  Q_k has
    orthonormal columns, so ||D_kl|| = ||R_k J R_l^H|| exactly: no
    difference of squared norms is taken, and the residual keeps full
    precision on dense W.  D_lk = D_kl^H, so only l >= k is formed.  The
    denominators ||A_k^H A_l||, which need no such precision, come from
    the Grams A_k A_k^H = T_k^H T_k of the leading n^2 x n^2 blocks T_k
    of the triangular R_k.  Cost O(n^8): n QRs of n^3 x 2n^2 blocks and
    n^2/2 products of 2n^2-square factors.
    """
    amb = three_leg_space(w)
    n = w.space.legs[0].dim
    p = n * n
    # [A_k^T B_k^T] over k, shape (n, n^3, 2n^2): its R factor is the
    # conjugate of R_k, which leaves every norm below unchanged
    blocks = np.concatenate([
        chain(amb, (w, [2, 3]), (w, [1, 2])).matrix.reshape(p, n, -1),  # U
        chain(amb, (w, [1, 3]), (w, [2, 3])).matrix.reshape(p, n, -1),  # V
    ])
    r = np.linalg.qr(blocks.transpose(1, 2, 0), mode="r")
    rh = r.conj().transpose(0, 2, 1)
    r[..., p:] *= -1.0  # R_k J
    t = r[:, :p, :p]
    grams = (t.conj().transpose(0, 2, 1) @ t).reshape(n, -1)
    # ||A_k^H A_l||^2 = tr(A_k A_k^H A_l A_l^H)
    lhs = np.sqrt(np.maximum((grams @ grams.conj().T).real, 0.0))
    gap = np.zeros((n, n))
    for k in range(n):
        gap[k, k:] = np.linalg.norm(r[k] @ rh[k:], axis=(1, 2))
    gap += np.triu(gap, 1).T
    return gap / np.maximum(1.0, lhs)


def check_coassociativity(w: Operator) -> float:
    """Residual for both Delta and Delta-hat (max of the two sides)."""
    return max(coassociativity_residual(w), coassociativity_residual(what(w)))


# ---------------------------------------------------------------------------
# Canonical idempotent and multiplier structure
# ---------------------------------------------------------------------------


def check_canonical_idempotent(w: Operator | Fixture) -> CoalgebraReport:
    """E = Delta(1), commuting legs of E, multiplier membership of E in
    A (x) A, Delta a *-homomorphism on A, and the leg commutation
    identities with A and A-hat."""
    fx = as_fixture(w)
    e, g = fx.e.matrix, fx.g.matrix
    n = fx.n
    eye = np.eye(n)
    res: dict[str, float] = {}

    res["E_eq_comul_unit"] = rel_residual(_comul_stack(fx, eye[None])[0], e)

    ops = {"W": fx.w, "W*": fx.ws, "E": fx.e}
    e12_e23, e23_e12, form = (
        leg_word(fx.three_leg, ops, word).matrix
        for word in ("E12 E23", "E23 E12", "W*12 W*23 W23 W12")
    )
    res["E_legs_commute"] = rel_residual(e12_e23, e23_e12)
    # E12 E23 also equals (W23 W12)* (W23 W12); the reversed product
    # form fails for non-full fixtures, so only this one is checked
    res["E_legs_product_form"] = rel_residual(e12_e23, form)

    alg, alg_hat = fx.A, fx.Ahat
    bst = alg.space.stack
    hat_bst = alg_hat.space.stack
    a2 = tensor_subspace(alg.space, alg.space)

    deltas = _comul_stack(fx, bst)
    res["delta_star_map"] = max_gap(_comul_stack(fx, adjoint(bst)), adjoint(deltas))
    res["delta_homomorphism"] = max_gap(
        _comul_stack(fx, pair_products(bst, bst)), pair_products(deltas, deltas)
    )

    pairs = kron_stack(bst, bst)
    left = e[None] @ pairs
    right = pairs @ e[None]
    res["E_multiplier"] = max(a2.stack_residual(left), a2.stack_residual(right))
    one_a = kron_stack(eye[None], bst)
    res["commute_G_with_1A"] = max_gap(one_a @ g[None], g[None] @ one_a)
    ahat_one = kron_stack(hat_bst, eye[None])
    res["commute_E_with_Ahat1"] = max_gap(ahat_one @ e[None], e[None] @ ahat_one)
    res["product_stability_A"] = alg.product_residual
    res["product_stability_Ahat"] = alg_hat.product_residual
    dims = {"A": alg.space.dim, "Ahat": alg_hat.space.dim}
    return CoalgebraReport(res, dims)


def check_delta_range_and_density(w: Operator | Fixture) -> CoalgebraReport:
    """Span equality Delta(A)(A (x) A) = E(A (x) A), the four multiplier
    memberships, and the four density spans against dim A."""
    fx = as_fixture(w)
    sub = fx.A.space
    bst = sub.stack
    n = fx.n
    a2 = tensor_subspace(sub, sub)
    e = fx.e.matrix
    eye = np.eye(n)[None]
    res: dict[str, float] = {}
    dims: dict[str, int] = {"A": sub.dim}

    deltas = _comul_stack(fx, bst)
    pairs = kron_stack(bst, bst)
    a_one = kron_stack(bst, eye)  # a (x) 1
    one_a = kron_stack(eye, bst)  # 1 (x) a

    fam1 = pair_products(a_one, deltas)
    fam2 = pair_products(deltas, one_a)
    fam3 = pair_products(deltas, a_one)
    fam4 = pair_products(one_a, deltas)
    res["mult_a1_deltab"] = a2.stack_residual(fam1)
    res["mult_deltaa_1b"] = a2.stack_residual(fam2)
    res["mult_deltaa_b1"] = a2.stack_residual(fam3)
    res["mult_1a_deltab"] = a2.stack_residual(fam4)

    # range equality: span{Delta(a)(b (x) c)} = span{E(b (x) c)}
    e_family = e[None] @ pairs
    e_span = span_matrices(fx.w.space, e_family)
    range_members = pair_products(deltas, pairs)
    res["range_in_EA2"] = e_span.stack_residual(range_members)
    # reverse inclusion, computed in E(A (x) A)-coordinates (the members
    # already lie in that span, so coordinates capture them exactly)
    rev = 0.0
    range_rank = 0
    if e_span.dim:
        coords = range_members.reshape(range_members.shape[0], -1) @ e_span.basis_matrix.conj().T
        _, sv, vh = np.linalg.svd(coords, full_matrices=False)
        range_rank = numerical_rank(sv)
        proj = vh[:range_rank]
        e_coords = e_family.reshape(e_family.shape[0], -1) @ e_span.basis_matrix.conj().T
        rev = max_gap(e_coords, (e_coords @ proj.conj().T) @ proj)
    res["EA2_in_range"] = rev
    dims["range_span"] = range_rank
    dims["E_A2_span"] = e_span.dim

    # density spans: slices of the four multiplier families, vs span A
    for key, fam, slices in (
        ("density_left_a1_db", fam1, stack_left_slices),
        ("density_right_da_1b", fam2, stack_right_slices),
        ("density_left_db_a1", fam3, stack_left_slices),
        ("density_right_1b_da", fam4, stack_right_slices),
    ):
        dspan = span_matrices(sub.space, slices(fam, n, n).reshape(-1, n * n))
        _, r = dspan.equals(sub)
        res[f"{key}_eq_A"] = r
        dims[key] = dspan.dim
    return CoalgebraReport(res, dims)


def duality_consistency(w: Operator | Fixture) -> float:
    """The dual comultiplication against an independent evaluation of
    Delta-hat(x) = Sigma W(x (x) 1)W* Sigma, over the A-hat basis and 1."""
    fx = as_fixture(w)
    n = fx.n
    xs = np.concatenate([fx.Ahat.space.stack, np.eye(n)[None]])
    direct = fx.w.matrix @ kron_stack(xs, np.eye(n)[None]) @ fx.ws.matrix
    # Sigma X Sigma swaps the two legs of both the rows and the columns
    flipped = direct.reshape(-1, n, n, n, n).transpose(0, 2, 1, 4, 3)
    return max_gap(_comul_stack(fx.dual, xs), flipped.reshape(direct.shape))
