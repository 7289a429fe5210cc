"""Slice algebras, comultiplications, and the canonical idempotent.

A and A-hat are the spans of the right/left slices of W; the
comultiplications are Delta(x) = W*(1 (x) x)W and
Delta-hat(x) = Sigma W (x (x) 1) W* Sigma.  E = W*W is Delta(1) by
definition and is checked to be a multiplier of A (x) A.  Each side
states only its own (A, Delta, G): A-hat's on W-hat's side.  The multiplier,
range and density statements, read as exact span equalities (the only
faithful finite-dimensional reading of the norm-density statements),
are decided in coordinates on the HS-orthonormal basis e_p (x) e_q of
A (x) A, d = dim A.  Each family of members (E(b (x) c), Delta(a)(b (x) 1),
...) comes from d members, fitted leg by leg (tensor.tensor_fit), through
a one-sided unit u of A and A's structure constants (TensorSquare), in
O(d n^6 + d^6) and a few d n^4 entries.  Each member carries a bound on
its distance from its coordinate expansion: the fitted distance, plus
||Delta(a)|| times the unit residual max_b ||u b - b||, plus
sqrt(d) eps_A ||c|| for each factor of A, eps_A = product_stability_A.
A membership entry is that bound over max(1, a lower bound on the
member's norm); a span entry adds, through the coefficients of its fit,
the bounds of the rows it uses.
So every entry bounds the exact distance from above.  An entry whose
bound ``axioms.takes_bound`` rejects is taken again from the d^2-member
fits of the families it reads, whose coordinates and distances are exact
(O(d^2 n^6)): a PASS may rest on a bound, a FAIL does not.
Coassociativity, the E-leg identities and the homomorphism entry follow
the same rule.
The coassociativity gap for x is D(x) = U* x3 U - V* x3 V, with
U = W23 W12 and V = W13 W23, and D(x) is a sum of terms each carrying the
gap of mpi5, of mpi6 or of W W* W = W, which ``axioms.dependent_bounds``
bounds from the axiom gaps: so those bounds and ||W||_2 bound every
matrix unit's residual (``MpiVerdict.bounds["coassociativity"]``; the
derivation is at ``coassociativity_residual``).  W-hat has the same
three gaps and the same ||W||_2, so one bound serves both sides.  The
E-leg gaps of W are products with the mpi3 gap, bounded alike, and those
of W-hat with W-hat's mpi3 gap, which is W's mpi4 gap with legs 1 and 3
exchanged; W-hat itself is ``context.what``, Sigma W* Sigma.  Only a
bound that ``axioms.takes_bound`` rejects sends an entry to the exact
evaluation: for coassociativity over all matrix units at once, in O(n^8),
from QR-reduced blocks of the three-leg products, so no difference of
squared norms can cancel and the residual of a dense W stays at rounding
level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .axioms import takes_bound
from .context import Fixture
from .tensor import (
    Fit,
    LegWords,
    OperatorSubspace,
    chain,
    factor,
    kron_stack,
    lsq_solve,
    max_gap,
    pair_products,
    rows,
    span_matrices,
    tensor_fit,
)

SIDES = ("A", "Ahat")
#: least value of a span entry.  The entries are upper bounds, and below
#: this one they are rounding in an SVD whose order of sums follows the
#: BLAS thread count (up to 2e-14 on the corpus), so a bound that low is
#: reported as the floor and the report bytes do not depend on the threads
SPAN_FLOOR = 5e-14


@dataclass(frozen=True)
class CoalgebraReport:
    """Named residuals and span dimensions for one comultiplication side."""

    residuals: dict[str, float]
    dims: dict[str, int]


def leg_algebra(fx: Fixture, side: str = "A") -> OperatorSubspace:
    """Span of the right (A) or left (A-hat) slices of W over all basis
    functionals, which keeps the slice stack's SVD for the antipode maps.
    The slices of W* span the dual context's A-hat and A, W-hat = Sigma W* Sigma."""
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}")
    return span_matrices(fx.leg_space, fx.right_slices if side == "A" else fx.left_slices)


def _comul_stack(fx: Fixture, xs: np.ndarray) -> np.ndarray:
    """Delta(x) = W*(1 (x) x)W for each matrix x of a stack; the dual
    Delta-hat(x) = Sigma W(x (x) 1)W* Sigma is ``_comul_stack(fx.dual, xs)``."""
    sandwiched = kron_stack(np.eye(fx.n)[None], xs)
    return fx.ws.matrix[None] @ sandwiched @ fx.w.matrix[None]


# ---------------------------------------------------------------------------
# Coassociativity
# ---------------------------------------------------------------------------


def coassociativity_residual(fx: Fixture, bound: float = np.inf) -> float:
    """Max relative gap of (Delta (x) id)Delta(x) = (id (x) Delta)Delta(x)
    over the matrix units x = e_kl, which span every x: ``bound`` when
    ``takes_bound`` accepts it at the context's tol, else the exact maximum
    of ``_coassoc_residuals``, so a FAIL never rests on the bound.

    The bound is ``check_mpi_axioms(fx).bounds["coassociativity"]``.  With
    U = W23 W12, V = W13 W23 and x3 = 1 (x) 1 (x) x the gap is
    D(x) = U* x3 U - V* x3 V.  Write D5 = W12 V - U (the mpi5 gap),
    D6 = E12 W13 - W13 G23 (mpi6, E = W*W, G = WW*) and Dpi = W W* W - W.
    Then U = W12 V - D5, and W12* x3 W12 = x3 E12 since x3 commutes with W12,
    while E12 V = (W13 G23 + D6) W23 = V + W13 (Dpi)23 + D6 W23; so
    D(x) = V* x3 [W13 (Dpi)23 + D6 W23] - V* W12* x3 D5 - D5* x3 W12 V
    + D5* x3 D5.  For a matrix unit (||x||_2 = 1), with ||V||_2 <= ||W||_2^2
    and ||(Dpi)23||_F = sqrt(n) ||Dpi||_F,
    ||D(x)||_F <= ||W||_2^3 (sqrt(n) ||Dpi||_F + ||D6||_F + 2 ||D5||_F) + ||D5||_F^2,
    and the relative gap, over max(1, .), is at most that;
    ``axioms.dependent_bounds`` takes it on the bounds of the mpi5 and mpi6
    gaps, which the axiom gaps give.  The same bound
    holds for W-hat = Sigma W* Sigma: its mpi5, mpi6 and partial-isometry
    gaps are the adjoints of those of W (the mpi6 one negated) with legs
    1 and 3 exchanged, which keeps Frobenius norms, and ||W-hat||_2 = ||W||_2.
    Called without a bound, it is the exact maximum."""
    if takes_bound(bound, fx):
        return float(bound)
    return float(np.max(_coassoc_residuals(fx)))


def _coassoc_residuals(fx: Fixture) -> np.ndarray:
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
    entries in W's dtype, each filled by ``chain`` from column blocks)
    live until the R factors (4 n^5) exist.  ``coassociativity_residual``
    runs it only when the bound from the axiom gaps does not decide the
    entry.
    """
    n, p, amb = fx.n, fx.n * fx.n, fx.three_leg
    u = chain(amb, (fx.w, [2, 3]), (fx.w, [1, 2])).matrix.reshape(p, n, -1)
    v = chain(amb, (fx.w, [1, 3]), (fx.w, [2, 3])).matrix.reshape(p, n, -1)
    # R of [A_k^T B_k^T], shape (n^3, 2n^2), one k at a time: it is the
    # conjugate of R_k, which leaves every norm below unchanged
    r = np.stack([np.linalg.qr(np.concatenate([u[:, k], v[:, k]]).T, mode="r")
                  for k in range(n)])
    del u, v  # the R factors carry all that is left
    rh = r.conj().transpose(0, 2, 1)  # r itself when r is real
    rj = np.concatenate([r[..., :p], -r[..., p:]], axis=-1)  # R_k J
    t = r[:, :p, :p]
    grams = (t.conj().transpose(0, 2, 1) @ t).reshape(n, -1)
    # ||A_k^H A_l||^2 = tr(A_k A_k^H A_l A_l^H)
    lhs = np.sqrt(np.maximum((grams @ grams.conj().T).real, 0.0))
    gap = np.zeros((n, n))
    for k in range(n):
        gap[k, k:] = np.linalg.norm(rj[k] @ rh[k:], axis=(1, 2))
    gap += np.triu(gap, 1).T
    return gap / np.maximum(1.0, lhs)


# ---------------------------------------------------------------------------
# Canonical idempotent and multiplier structure
# ---------------------------------------------------------------------------


#: family -> (operator, side of the A factors, legs they act on); members
#: are ordered A-factor-major on the left, operator-major on the right
FAMILIES = {
    "E_bc": ("E", "right", (0, 1)),  # E(b (x) c)
    "bc_E": ("E", "left", (0, 1)),  # (b (x) c)E
    "a1_deltab": ("delta", "left", (0,)),  # (a (x) 1)Delta(b)
    "deltaa_1b": ("delta", "right", (1,)),  # Delta(a)(1 (x) b)
    "deltaa_b1": ("delta", "right", (0,)),  # Delta(a)(b (x) 1)
    "1a_deltab": ("delta", "left", (1,)),  # (1 (x) a)Delta(b)
}

_STEPS = {  # c'[.., s, t] for one A factor e_b on a leg of each member
    ("right", 0): "kpt,pbs->kbst",
    ("right", 1): "kst,tbu->kbsu",
    ("left", 0): "bps,kpt->bkst",
    ("left", 1): "btu,kst->bksu",
}


class TensorSquare:
    """The A (x) A families of one side, fitted through one-sided units of A.

    With u a left unit (u b = b on A), Delta(a)(b (x) 1) = [Delta(a)(u (x) 1)](b (x) 1),
    so each family follows from the fit of d members (one for E(u (x) u) and
    (u (x) u)E; a right unit serves the families whose A factors sit on the
    left) and A's structure constants m[p, q, s] = <e_s, e_p e_q>: the
    coordinates of Delta(a)(e_r (x) 1) are sum_p C^a[p, t] m[p, r, s].  Each
    member's ``off`` adds to the fitted distance ||Delta(a)|| times the unit
    residual max_b ||u b - b|| (for both legs, (1 + it)^2 - 1) and, for each
    A factor, sqrt(d) eps_A ||c||, eps_A = product_stability_A: the basis
    has ||e_b|| <= ||e_b||_2 = 1 and ||e_p e_b - P_A(e_p e_b)|| <= eps_A.  That
    costs O(d n^6 + d^6) and a few d n^4 entries, against the d^2 n^6 and
    d^2 n^4 of the d^2-member fits, which ``decide`` runs for a family only
    when an entry it reads does not come in below tol.  One per side,
    dropped when the side ends: the context stays at n^4."""

    def __init__(self, fx: Fixture):
        self.fx = fx
        self.space = fx.A
        self.basis = self.space.stack
        d = len(self.basis)
        self.ops = {"delta": _comul_stack(fx, self.basis), "E": fx.e.matrix[None]}
        products = pair_products(self.basis, self.basis)  # e_p e_q at p * d + q
        self.mult = self.space.coordinates(products).reshape(d, d, d)
        self.eps = np.sqrt(d) * fx.A.product_residual
        self.units = {side: self._unit(products, side) for side in ("right", "left")}
        self._fits: dict[str, Fit] = {}
        self._dense: set[str] = set()

    def _unit(self, products: np.ndarray, side: str) -> tuple[np.ndarray, float]:
        """The unit for the families with A factors on ``side``: the
        least-squares u in A with u b = b on the basis (b u = b for side
        "left"), and max_b ||u b - b||."""
        b, d = self.basis, len(self.basis)
        if d == 0:
            return np.zeros((self.fx.n, self.fx.n)), 0.0
        p = rows(products).reshape(d, d, -1)  # p[q, r] = e_q e_r
        cols = p.transpose(1, 0, 2) if side == "right" else p  # [r, q]: e_q e_r or e_r e_q
        x, _ = lsq_solve(cols.transpose(0, 2, 1).reshape(-1, d), b.ravel())
        u = np.tensordot(x, b, axes=1)
        gap = u @ b - b if side == "right" else b @ u - b
        return u, float(np.max(np.linalg.norm(gap, axis=(1, 2))))

    def _on_legs(self, xs: np.ndarray, legs: tuple[int, ...]) -> np.ndarray:
        """x (x) 1, 1 (x) x or x (x) y over a stack, as ``legs`` says."""
        eye = np.eye(self.fx.n)[None]
        return kron_stack(xs if 0 in legs else eye, xs if 1 in legs else eye)

    def _members(self, key: str, xs: np.ndarray) -> np.ndarray:
        """The members of family ``key`` with the stack xs for the A basis."""
        op, side, legs = FAMILIES[key]
        factors = self._on_legs(xs, legs)
        if side == "right":
            return pair_products(self.ops[op], factors)
        return pair_products(factors, self.ops[op])

    def family(self, key: str) -> Fit:
        """The family's fit: reduced, or dense once ``decide`` escalated it."""
        if key not in self._fits:
            op, side, legs = FAMILIES[key]
            u, gap = self.units[side]
            fit = tensor_fit(self._members(key, u[None]), self.space, self.space)
            fit = fit._replace(off=fit.off + np.linalg.norm(rows(self.ops[op]), axis=1)
                               * ((1.0 + gap) ** len(legs) - 1.0))
            for leg in legs if side == "right" else legs[::-1]:
                fit = self.times(fit, leg, side)
            self._fits[key] = fit
        return self._fits[key]

    def times(self, fit: Fit, leg: int, side: str) -> Fit:
        """Every member times each basis element e_b on ``leg``, from
        ``side``: d times the members, each one adding sqrt(d) eps_A ||c||."""
        d = len(self.basis)
        args = (fit.coords, self.mult) if side == "right" else (self.mult, fit.coords)
        coords = np.einsum(_STEPS[side, leg], *args, optimize=True).reshape(len(fit.off) * d, d, d)
        off = fit.off + self.eps * np.linalg.norm(fit.coords, axis=(1, 2))
        off = np.repeat(off, d) if side == "right" else np.tile(off, d)
        return Fit(coords, off, np.linalg.norm(coords, axis=(1, 2)) - off)

    def decide(self, keys: tuple[str, ...], entry) -> tuple[dict, dict]:
        """entry(*fits) -> (residuals, dims) on the reduced fits of the
        families ``keys``.  Those residuals are upper bounds formed from
        fitted distances, norms and the unit and product residuals, each
        with a relative rounding error far below a factor 2, so the entry
        stands only when ``axioms.takes_bound`` accepts its largest
        residual, FAIL_MARGIN below tol.  Otherwise the families are refit
        member by member and the entry taken again, so a FAIL never rests
        on a bound."""
        res, dims = entry(*map(self.family, keys))
        if not takes_bound(max(res.values()), self.fx) and not self._dense.issuperset(keys):
            for key in keys:
                self._fits[key] = tensor_fit(self._members(key, self.basis), self.space, self.space)
                self._dense.add(key)
            res, dims = entry(*map(self.family, keys))
        return res, dims

    def membership(self, key: str) -> float:
        """The family's membership entry, decided as ``decide`` says."""
        return self.decide((key,), lambda f: ({key: f.membership}, {}))[0][key]


def _homomorphism_gap(fx: Fixture, basis: np.ndarray) -> float:
    """Max over basis pairs of ||Delta(b)Delta(c) - Delta(bc)|| / max(1, ||Delta(bc)||).

    For every W the gap is the product W*(1 (x) b)(G - 1)(1 (x) c)W, so no
    difference of two O(1) matrices is taken: K_c = (G - 1)(1 (x) c)W is
    formed once (d n^4 entries) and W*(1 (x) b) applied to all K_c, one b at
    a time, in O(d^2 n^6).  ||Delta(x)||^2 = tr((1 (x) x*)G(1 (x) x)G) =
    sum conj(x_ki) x_jl H[k, j, l, i], where
    H[k, j, l, i] = sum_ab G[(a,k),(b,j)] G[(b,l),(a,i)] is taken once in O(n^6)."""
    n = fx.n
    g = fx.g.matrix

    def times_one_x(m: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """m (1 (x) x) for each x of a stack, in O(n^5) each."""
        return (m.reshape(-1, n) @ xs).reshape(-1, n * n, n * n)

    k = times_one_x(g - np.eye(n * n), basis) @ fx.w.matrix
    gaps = [np.linalg.norm(times_one_x(fx.ws.matrix, b[None])[0] @ k, axis=(1, 2))
            for b in basis]
    g4 = g.reshape(n, n, n, n)
    form = np.einsum("akbj,blai->kjli", g4, g4, optimize=True)
    prods = pair_products(basis, basis)
    sqnorms = np.einsum("xki,xjl,kjli->x", prods.conj(), prods, form, optimize=True).real
    scales = np.maximum(1.0, np.sqrt(np.maximum(sqnorms, 0.0)))
    return float(np.max(np.ravel(gaps) / scales, initial=0.0))


#: the commuting legs of E as leg words; E12 E23 also equals
#: (W23 W12)* (W23 W12), and the reversed product form fails for non-full
#: fixtures, so only this one is checked
E_LEG_WORDS = {
    "E_legs_commute": ("E12 E23", "E23 E12"),
    "E_legs_product_form": ("E12 E23", "W*12 W*23 W23 W12"),
}


def check_canonical_idempotent(sq: TensorSquare,
                               bounds: dict[str, float] | None = None) -> dict[str, float]:
    """Commuting legs of E, multiplier membership of E in A (x) A, Delta
    multiplicative on A, G commuting with 1 (x) A, and A closed under
    products.  E = Delta(1) and Delta(x*) = Delta(x)* hold for every W by
    the definition Delta(x) = W*(1 (x) x)W, and A-hat's two statements
    (E commuting with A-hat (x) 1, A-hat closed under products) are W-hat's
    side's last two, as G-hat = Sigma E Sigma and W-hat's A is the adjoint
    span of A-hat (README), so none of these is measured here.
    ``bounds`` holds certified bounds on E_LEG_WORDS gaps (W's
    ``MpiVerdict.bounds``, its ``_dual`` ones on W-hat's side): an E-leg
    entry whose bound ``takes_bound`` accepts reports it, and every other
    one is evaluated.  The homomorphism entry is at most
    bounds["delta_homomorphism"] plus bounds["delta_homomorphism_per_commutator"]
    times the largest ||[G, 1 (x) c]||_F over A's basis, which the
    commute_G_with_1A entry forms (``axioms.dependent_bounds``); it reports
    that bound when ``takes_bound`` accepts it, and ``_homomorphism_gap``
    otherwise."""
    fx, bst, g = sq.fx, sq.basis, sq.fx.g.matrix
    bounds = bounds or {}
    rest = {name: pair for name, pair in E_LEG_WORDS.items()
            if not takes_bound(bounds.get(name, np.inf), fx)}
    ops = {"W": fx.w, "W*": fx.ws, "E": fx.e}
    exact = LegWords(fx.three_leg, ops, rest).residuals() if rest else {}
    res = {name: exact[name] if name in rest else bounds[name] for name in E_LEG_WORDS}
    # the largest relative gap of x G = G x and ||[G, x]||_F over x = 1 (x) c,
    # one member at a time (n^4 entries live); each norm is taken over one
    # row, as ``max_gap`` takes it, so the relative gap has its bits
    gaps = np.zeros((len(bst), 2))
    for row, x in zip(gaps, kron_stack(np.eye(fx.n)[None], bst)[:, None]):
        lhs = x @ g
        row[1] = np.linalg.norm(rows(lhs - g @ x), axis=1)[0]
        row[0] = row[1] / max(1.0, np.linalg.norm(rows(lhs), axis=1)[0])
    g_relative, g_commutator = map(float, gaps.max(axis=0, initial=0.0))
    hom = (bounds.get("delta_homomorphism", math.inf)
           + bounds.get("delta_homomorphism_per_commutator", math.inf) * g_commutator)
    res["delta_homomorphism"] = hom if takes_bound(hom, fx) else _homomorphism_gap(fx, bst)
    res["E_multiplier"] = max(sq.membership("E_bc"), sq.membership("bc_E"))
    res["commute_G_with_1A"] = g_relative
    res["product_stability_A"] = fx.A.product_residual
    return res


def _span_fit(
    span: np.ndarray, span_off: np.ndarray, targets: np.ndarray, targets_off=0.0
) -> tuple[float, int]:
    """(residual, rank) of coordinate rows ``targets`` against the row
    space of ``span`` at the RANK_TOL cutoff: each fit's gap plus the
    target's off-A (x) A bound plus the span rows' bounds weighted by the
    fit coefficients, over max(1, ||target|| - its bound), and at least
    SPAN_FLOOR."""
    u, s, vh, r = factor(span)
    u, s, vh = u[:, :r], s[:r], vh[:r]
    proj = targets @ vh.conj().T
    bound = np.linalg.norm(targets - proj @ vh, axis=1) + targets_off
    bound += np.abs((proj / s) @ u.conj().T) @ span_off
    scale = np.linalg.norm(targets, axis=1) - targets_off
    return max(SPAN_FLOOR, float(np.max(bound / np.maximum(1.0, scale), initial=0.0))), r


def check_delta_range_and_density(sq: TensorSquare, full: bool = True) -> CoalgebraReport:
    """Span equality Delta(A)(A (x) A) = E(A (x) A), the four multiplier
    memberships and the four density spans against A, in O(d n^6 + d^7).
    A left slice (w (x) id)(sum c_pq e_p (x) e_q) = sum w(e_p) c_pq e_q, with
    w(e_p) ranging over C^d: a left density span is the row space of the c's,
    a right one their column space, and it lies in A up to the members'
    bounds, as slicing by a functional of norm 1 adds none.  The density
    spans equal A only under fullness: for a fixture that is not ``full``
    only their ranks are reported, from the fits at hand, and no family is
    refit for them."""
    d = len(sq.basis)
    res, dims = {}, {"A": d}

    def take(keys: tuple[str, ...], entry) -> None:
        got, got_dims = sq.decide(keys, entry)
        res.update(got)
        dims.update(got_dims)

    for key in ("a1_deltab", "deltaa_1b", "deltaa_b1", "1a_deltab"):
        res[f"mult_{key}"] = sq.membership(key)

    def range_spans(e_fit: Fit, y_fit: Fit) -> tuple[dict, dict]:
        # Delta(a)(b (x) c) = y (1 (x) c) for y = Delta(a)(b (x) 1)
        members = sq.times(y_fit, 1, "right")
        m_coords, e_coords = members.coords.reshape(d**3, d * d), e_fit.coords.reshape(d * d, d * d)
        fwd, e_rank = _span_fit(e_coords, e_fit.off, m_coords, members.off)
        back, range_rank = _span_fit(m_coords, members.off, e_coords, e_fit.off)
        return ({"range_in_EA2": fwd, "EA2_in_range": back},
                {"range_span": range_rank, "E_A2_span": e_rank})

    take(("E_bc", "deltaa_b1"), range_spans)
    for key, fam, left in (
        ("density_left_a1_db", "a1_deltab", True),
        ("density_right_da_1b", "deltaa_1b", False),
        ("density_left_db_a1", "deltaa_b1", True),
        ("density_right_1b_da", "1a_deltab", False),
    ):
        def density(f: Fit) -> tuple[dict, dict]:
            slices = (f.coords if left else f.coords.transpose(0, 2, 1)).reshape(d**3, d)
            value, rank = _span_fit(slices, np.repeat(f.off, d), np.eye(d))
            return {f"{key}_eq_A": value}, {key: rank}

        if full:
            take((fam,), density)
        else:
            dims.update(density(sq.family(fam))[1])
    return CoalgebraReport(res, dims)


def duality_consistency(fx: Fixture) -> float:
    """The dual comultiplication against an independent evaluation of
    Delta-hat(x) = Sigma W(x (x) 1)W* Sigma, over the A-hat basis and 1."""
    n = fx.n
    xs = np.concatenate([fx.Ahat.stack, np.eye(n)[None]])
    direct = fx.w.matrix @ kron_stack(xs, np.eye(n)[None]) @ fx.ws.matrix
    # Sigma X Sigma swaps the two legs of both the rows and the columns
    flipped = direct.reshape(-1, n, n, n, n).transpose(0, 2, 1, 4, 3)
    return max_gap(_comul_stack(fx.dual, xs), flipped.reshape(direct.shape))
