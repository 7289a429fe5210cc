"""Slice algebras, comultiplications, and the canonical idempotent.

A and A-hat are the spans of the right/left slices of W; the
comultiplications are Delta(x) = W*(1 (x) x)W and
Delta-hat(x) = Sigma W (x (x) 1) W* Sigma.  E = W*W is Delta(1) by
definition and is checked to be a multiplier of A (x) A.  The range and
density statements, read as exact span equalities (the only faithful
finite-dimensional reading of the norm-density statements), are decided
in coordinates on the HS-orthonormal basis e_p (x) e_q of A (x) A,
d = dim A.  Coordinates see only the part of a member inside A (x) A, so
the memberships stay exact, and each span entry adds, through the
coefficients of its fit, a bound on the rest, so it bounds the exact
distance from above: E(b (x) c) and each density member lie within
their exact distance of A (x) A, and Delta(a)(b (x) c) = y (1 (x) c),
y = Delta(a)(b (x) 1), within dist(y) + sqrt(d) eps_A ||y||, with
eps_A = product_stability_A, ||c||_2 <= 1 and ||e_q c|| <= 1.
Coassociativity has one evaluation for every n: over all matrix units
at once, in O(n^8), from QR-reduced blocks of the three-leg products,
so no difference of squared norms can cancel and the residual of a
dense W stays at rounding level.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .context import Fixture, as_fixture, three_leg_space
from .tensor import (
    RESIDUAL_TOL,
    LegWords,
    Operator,
    OperatorSubspace,
    chain,
    kron_stack,
    max_gap,
    numerical_rank,
    pair_products,
    rows,
    span_matrices,
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


def _comul_stack(fx: Fixture, xs: np.ndarray) -> np.ndarray:
    """Delta(x) = W*(1 (x) x)W for each matrix x of a stack; the dual
    Delta-hat(x) = Sigma W(x (x) 1)W* Sigma is ``_comul_stack(fx.dual, xs)``."""
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
    n^2/2 products of 2n^2-square factors.  Memory: U and V (2 n^6
    entries, each filled by ``chain`` from column blocks) live until the
    R factors (4 n^5) exist.
    """
    amb = three_leg_space(w)
    n = w.space.legs[0].dim
    p = n * n
    u = chain(amb, (w, [2, 3]), (w, [1, 2])).matrix.reshape(p, n, -1)
    v = chain(amb, (w, [1, 3]), (w, [2, 3])).matrix.reshape(p, n, -1)
    # R of [A_k^T B_k^T], shape (n^3, 2n^2), one k at a time: it is the
    # conjugate of R_k, which leaves every norm below unchanged
    r = np.stack([np.linalg.qr(np.concatenate([u[:, k], v[:, k]]).T, mode="r")
                  for k in range(n)])
    del u, v  # the R factors carry all that is left
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


# ---------------------------------------------------------------------------
# Canonical idempotent and multiplier structure
# ---------------------------------------------------------------------------


class TensorSquare:
    """The A (x) A data shared by check_canonical_idempotent and
    check_delta_range_and_density: Delta(a), a (x) 1 and 1 (x) a over the A
    basis, and on first use the fits of E(b (x) c) and (b (x) c)E, b-major.
    One per side, dropped when the side ends: the context stays at n^4."""

    def __init__(self, w: Operator | Fixture):
        self.fx = as_fixture(w)
        self.basis, eye = self.fx.A.space.stack, np.eye(self.fx.n)[None]
        self.deltas = _comul_stack(self.fx, self.basis)
        self.a_one, self.one_a = kron_stack(self.basis, eye), kron_stack(eye, self.basis)

    @cached_property
    def e_fits(self) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        pairs, e = kron_stack(self.basis, self.basis), self.fx.e.matrix[None]
        return self.fit(e @ pairs), self.fit(pairs @ e)

    def fit(self, stack: np.ndarray) -> tuple[np.ndarray, ...]:
        """P_A (x) P_A leg by leg on each member X realigned as
        x[(i,j),(k,l)] = X[(i,k),(j,l)]: for B the (d, n^2) basis rows, the
        first-leg coordinates h = conj(B) x, the coordinates c = h B^H on
        e_p (x) e_q, the exact distance ||x - B^T c B|| and the norm ||X||."""
        n, b = self.fx.n, rows(self.basis)
        x = stack.reshape(-1, n, n, n, n).transpose(0, 1, 3, 2, 4).reshape(-1, n * n, n * n)
        if np.shares_memory(x, stack):  # n = 1: the realignment is a view
            x = x.copy()
        half = b.conj() @ x
        coords = half @ b.conj().T
        x -= b.T @ coords @ b  # in place: the projection is the only other copy
        return half, coords, np.linalg.norm(x, axis=(1, 2)), np.linalg.norm(rows(stack), axis=1)


def _membership(fit: tuple[np.ndarray, ...]) -> float:
    """Max distance over max(1, norm) of a fit, as in stack_residual."""
    return float(np.max(fit[2] / np.maximum(1.0, fit[3]), initial=0.0))


def check_canonical_idempotent(w: Operator | Fixture | TensorSquare) -> CoalgebraReport:
    """Commuting legs of E, multiplier membership of E in A (x) A, Delta
    multiplicative on A, and the leg commutation identities with A and
    A-hat.  E = Delta(1) and Delta(x*) = Delta(x)* hold for every W by
    the definition Delta(x) = W*(1 (x) x)W, so they are not measured."""
    sq = w if isinstance(w, TensorSquare) else TensorSquare(w)
    fx, bst = sq.fx, sq.basis
    e, g = fx.e.matrix, fx.g.matrix
    ops = {"W": fx.w, "W*": fx.ws, "E": fx.e}
    res = LegWords(fx.three_leg, ops, {
        "E_legs_commute": ("E12 E23", "E23 E12"),
        # E12 E23 also equals (W23 W12)* (W23 W12); the reversed product
        # form fails for non-full fixtures, so only this one is checked
        "E_legs_product_form": ("E12 E23", "W*12 W*23 W23 W12"),
    }).residuals()

    res["delta_homomorphism"] = max_gap(
        _comul_stack(fx, pair_products(bst, bst)), pair_products(sq.deltas, sq.deltas)
    )
    res["E_multiplier"] = max(_membership(fit) for fit in sq.e_fits)
    res["commute_G_with_1A"] = max_gap(sq.one_a @ g[None], g[None] @ sq.one_a)
    ahat_one = kron_stack(fx.Ahat.space.stack, np.eye(fx.n)[None])
    res["commute_E_with_Ahat1"] = max_gap(ahat_one @ e[None], e[None] @ ahat_one)
    res["product_stability_A"] = fx.A.product_residual
    res["product_stability_Ahat"] = fx.Ahat.product_residual
    return CoalgebraReport(res, {"A": fx.A.space.dim, "Ahat": fx.Ahat.space.dim})


def _span_fit(
    span: np.ndarray, span_off: np.ndarray, targets: np.ndarray, targets_off=0.0
) -> tuple[float, int]:
    """(residual, rank) of coordinate rows ``targets`` against the row
    space of ``span`` at the RANK_TOL cutoff: each fit's gap plus the
    target's off-A (x) A bound plus the span rows' bounds weighted by the
    fit coefficients, over max(1, ||target||)."""
    u, s, vh = np.linalg.svd(span, full_matrices=False)
    r = numerical_rank(s)
    u, s, vh = u[:, :r], s[:r], vh[:r]
    proj = targets @ vh.conj().T
    bound = np.linalg.norm(targets - proj @ vh, axis=1) + targets_off
    bound += np.abs((proj / s) @ u.conj().T) @ span_off
    return float(np.max(bound / np.maximum(1.0, np.linalg.norm(targets, axis=1)), initial=0.0)), r


def check_delta_range_and_density(w: Operator | Fixture | TensorSquare) -> CoalgebraReport:
    """Span equality Delta(A)(A (x) A) = E(A (x) A), the four exact multiplier
    memberships and the four density spans against A, in O(d^3 n^4 + d^5 n^2).
    A left slice (w (x) id)(sum c_pq e_p (x) e_q) = sum w(e_p) c_pq e_q, with
    w(e_p) ranging over C^d: a left density span is the row space of the c's,
    a right one their column space, and it lies in A up to the memberships'
    distances, as slicing by a functional of norm 1 adds none."""
    sq = w if isinstance(w, TensorSquare) else TensorSquare(w)
    d, n = len(sq.basis), sq.fx.n
    fits = {  # members (a, b), a-major
        "a1_deltab": sq.fit(pair_products(sq.a_one, sq.deltas)),
        "deltaa_1b": sq.fit(pair_products(sq.deltas, sq.one_a)),
        "deltaa_b1": sq.fit(pair_products(sq.deltas, sq.a_one)),
        "1a_deltab": sq.fit(pair_products(sq.one_a, sq.deltas)),
    }
    res = {f"mult_{key}": _membership(fit) for key, fit in fits.items()}

    # Delta(a)(b (x) c) = y (1 (x) c) for y = Delta(a)(b (x) 1): its
    # coordinates are y's first-leg ones against conj(e_q) c^T
    y_half, _, y_dist, y_norm = fits["deltaa_b1"]
    members = np.einsum("xpkm,qkl,cml->xcpq", y_half.reshape(d * d, d, n, n), sq.basis.conj(),
                        sq.basis, optimize=True).reshape(d**3, d * d)
    members_off = np.repeat(y_dist + np.sqrt(d) * sq.fx.A.product_residual * y_norm, d)
    e_coords, e_off = sq.e_fits[0][1].reshape(d * d, d * d), sq.e_fits[0][2]
    res["range_in_EA2"], e_rank = _span_fit(e_coords, e_off, members, members_off)
    res["EA2_in_range"], range_rank = _span_fit(members, members_off, e_coords, e_off)
    dims = {"A": d, "range_span": range_rank, "E_A2_span": e_rank}
    for key, (_, coords, off, _), left in (
        ("density_left_a1_db", fits["a1_deltab"], True),
        ("density_right_da_1b", fits["deltaa_1b"], False),
        ("density_left_db_a1", fits["deltaa_b1"], True),
        ("density_right_1b_da", fits["1a_deltab"], False),
    ):
        slices = (coords if left else coords.transpose(0, 2, 1)).reshape(d**3, d)
        res[f"{key}_eq_A"], dims[key] = _span_fit(slices, np.repeat(off, d), np.eye(d))
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
