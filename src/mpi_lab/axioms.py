"""Multiplicativity axioms and derived identities for a candidate W.

A partial isometry W on H (x) H is multiplicative when the four leg
identities mpi1-mpi4 hold on H (x) H (x) H; mpi5-mpi10 then follow.
mpi5 is the pentagon equation; mpi3/mpi4 are trivial for unitaries but
carry the base-algebra commutation in the general case.

The identities are leg words evaluated on column blocks by one
tensor.LegWords engine, which fuses the same-leg runs of the paper's
words: mpi3 is evaluated as E_23 W_12 = W_12 E_23 with E = W*W, formed
once.  ``check_mpi_axioms`` sums mpi1-mpi4 first.  It stops an identity
as FAIL as soon as the blocks so far certify it: its residual is then a
lower bound on the full residual, above FAIL_MARGIN * tol, and its id is
listed in ``MpiVerdict.lower_bounds``.  When the axioms pass with every
block summed, ``dependent_bounds`` turns their exact Frobenius gaps,
that of W W* W = W and ||W||_2 into certified bounds on mpi5-mpi10, on
the E-leg identities of the coalgebra level on both sides, on every
coassociativity residual and on hash1 and hash2 of the manageability
level, and into what the homomorphism bound of both coalgebra sides and
W-hat's cond3a and cond3b bounds read (``MpiVerdict.bounds``).  An entry takes its
bound when ``takes_bound`` says the bound decides it; every other
derived identity is evaluated on the same engine, so a PASS may rest on
a bound and a FAIL never does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .context import Fixture
from .tensor import (
    LegWords,
    adjoint,
    range_basis,
    rel_residual,
    spectral_norm,
)

MPI_AXIOMS = ("mpi1", "mpi2", "mpi3", "mpi4")
DERIVED_IDENTITIES = ("mpi5", "mpi6", "mpi7", "mpi8", "mpi9", "mpi10")


@dataclass(frozen=True)
class MpiVerdict:
    pi_residual: float
    mpi_residuals: dict[str, float]
    derived_residuals: dict[str, float]
    passed: bool
    #: ids whose residual is a certified lower bound (an early FAIL)
    lower_bounds: tuple[str, ...] = ()
    #: ``dependent_bounds``: a certified bound on the gap of each identity
    #: that follows from the axioms, on the E-leg gaps of W and of W-hat,
    #: on every coassociativity residual of both and, per unit kappa(Q), on
    #: the hash1 and hash2 gaps; and the terms and coefficients from which
    #: the delta_homomorphism and W-hat's cond3a and cond3b bounds are
    #: formed; empty unless the verdict passed with mpi1-mpi4 summed over
    #: every block
    bounds: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class AxiomGaps:
    """What the dependent identities are bounded from: the exact Frobenius
    gaps of mpi1-mpi4 and of W W* W = W, sqrt(n) (so that the latter gap on
    any two of three legs is sqrt(n) ||W W* W - W||_F) and s = ||W||_2.
    Only ``dependent_bounds`` reads it, so each dependent identity has one
    bound."""

    gap1: float
    gap2: float
    gap3: float
    gap4: float
    gap_pi: float
    sqrt_n: float
    norm2: float


@dataclass(frozen=True)
class FullnessVerdict:
    """Both readings of fullness: the literal slice-injectivity and the
    nondegeneracy of the slice algebras (dense range / trivial kernel)."""

    literal_right: bool
    literal_left: bool
    nondeg_A_range: bool
    nondeg_A_kernel: bool
    nondeg_Ahat_range: bool
    nondeg_Ahat_kernel: bool
    right_slice_rank: int
    left_slice_rank: int


def pi_gaps(m: np.ndarray) -> tuple[float, float]:
    """||W W* W - W||_F, and over max(1, ||W W* W||_F) as rel_residual takes it."""
    lhs = m @ m.conj().T @ m
    gap = np.linalg.norm(lhs - m)
    return float(gap), float(gap / max(1.0, np.linalg.norm(lhs)))


# The ten leg identities as (left, right) words on H (x) H (x) H, in the
# notation of tensor.LegWords: "W23 W12 W*23" is W_23 W_12 W*_23.  They are
# the paper's words verbatim; the engine fuses "W*23 W23" into E_23.
IDENTITY_WORDS = {
    "mpi1": ("W23 W12 W*23", "W12 W13"),
    "mpi2": ("W*12 W23 W12", "W13 W23"),
    "mpi3": ("W*23 W23 W12", "W12 W*23 W23"),
    "mpi4": ("W12 W*12 W23", "W23 W12 W*12"),
    "mpi5": ("W12 W13 W23", "W23 W12"),
    "mpi6": ("W*12 W12 W13", "W13 W23 W*23"),
    "mpi7": ("W12 W*23", "W*23 W12 W13"),
    "mpi8": ("W*12 W23", "W13 W23 W*12"),
    "mpi9": ("W*13 W13 W23", "W23 W*12 W12"),
    "mpi10": ("W12 W13 W*13", "W23 W*23 W12"),
}

#: an identity stops as FAIL once its certified lower bound exceeds
#: FAIL_MARGIN * tol.  The block sums and ||W||_2 carry a relative
#: rounding error near n^3 * 1e-16, far below a factor 2, so a stopped
#: identity cannot be one that the full evaluation would pass; a larger
#: margin would only postpone the stop.
FAIL_MARGIN = 2.0


def lhs_norm_bounds(w: np.ndarray, norm2: float) -> dict[str, float]:
    """Upper bound on max(1, ||L||_F) for the left word L of each identity,
    m factors W or W* on two of three legs: ||X Y||_F <= ||X||_2 ||Y||_F,
    ||W_ij||_2 = ||W||_2 and ||W_ij||_F = sqrt(n) ||W||_F.  m counts the
    paper's factors, before LegWords fuses a same-leg run such as
    W*_23 W_23 into E_23 (||E||_2 <= ||W||_2^2), so the bound holds for the
    fused evaluation too.  ``norm2`` is ||W||_2, infinite for a W with a
    non-finite entry.  No identity of such a W stops early: an inf entry
    makes every bound inf, and a NaN entry makes it max(1, NaN) = 1 but
    every block's partial gap NaN, which passes no stop test.  Each
    identity has a word with a fused E or G factor, or whose leftmost
    factor is applied to the whole block by one tensordot, and either
    carries the NaN into every column of the block."""
    frob = math.sqrt(math.isqrt(len(w))) * np.linalg.norm(w)
    return {name: max(1.0, norm2 ** (len(left.split()) - 1) * frob)
            for name, (left, _) in IDENTITY_WORDS.items()}


def takes_bound(bound: float, fx: Fixture) -> bool:
    """Whether an entry of the context fx is decided by its certified upper
    bound: the bound comes in below fx.tol with the rounding margin that
    FAIL_MARGIN argues, as the gaps it is formed from carry a relative
    rounding error far below a factor 2.  A NaN or infinite bound decides
    nothing."""
    return FAIL_MARGIN * bound < fx.tol


def dependent_bounds(gaps: AxiomGaps) -> dict[str, float]:
    """Certified bounds on the Frobenius gap L - R of each identity that
    follows from mpi1-mpi4 and W W* W = W, after Baaj-Skandalis' leg
    calculus, and on every coassociativity residual.

    Write D_k for the gap of mpi_k as IDENTITY_WORDS states it (so
    D3 = E23 W12 - W12 E23 and D4 = G12 W23 - W23 G12, E = W*W, G = WW*),
    g_k = ||D_k||_F, Dpi = W W* W - W, p = ||(Dpi)_ij||_F = sqrt(n) ||Dpi||_F
    and s = ||W_ij||_2 = ||W||_2.  With W E = G W = W + Dpi,
    W* G = E W* = W* + Dpi* and mpi1-mpi4 solved for one side,
      mpi5:  (Dpi)23 W12 - W23 D3 - D1 W23 = W23 (Dpi)12 + D4 W12 - W12 D2,
      mpi6:  D2 W*23 - W*12 D1,
      mpi7:  W*23 D1 - D3 W*23 - W12 (Dpi*)23,
      mpi8:  D2 W*12 + W*12 D4 - (Dpi*)12 W23,
      mpi9:  -D7* W12 - W*13 D2 (W*13 W*12 W23 = W23 W*12 - D7*),
      mpi10: -W23 D8* - D1 W*13 (W12 W*23 W*13 = W*23 W12 - D8*),
      E_legs_commute:      E12 E23 - E23 E12 = D3* W12 - W*12 D3,
      E_legs_product_form: E12 E23 - W*12 E23 W12 = -W*12 D3,
    and ||X Y||_F <= ||X||_2 ||Y||_F bounds each term.  W-hat = Sigma W* Sigma
    has E-hat = Sigma G Sigma and the same s, and its mpi3 gap is -D4* with
    legs 1 and 3 exchanged, so the ``_dual`` E-leg bounds take g4 for g3.
    With Wtilde the leg-1 partial transpose of (1 (x) Q^-1) W (1 (x) Q), the
    hash1 and hash2 gaps are T12(Q3^-1 D2 Q3) and T12(Q3^-1 D4 Q3), T12 the
    partial transpose on legs 1 and 2 (it reverses the order of the factors
    on those legs and permutes entries); so they are at most kappa(Q) g2 and
    kappa(Q) g4, and their bounds here are per unit kappa(Q).  A relative
    residual, the gap over max(1, ||L||_F), is at most its gap.  The
    coassociativity bound is beta of ``coalgebra.coassociativity_residual``
    on the bounds of mpi5 and mpi6, as beta grows with both gaps.
    Delta(b)Delta(c) - Delta(bc) = W*(1 (x) b)[G, 1 (x) c]W + W*(1 (x) bc) Dpi,
    so on an HS-orthonormal basis of A (||b||_2, ||bc||_2 <= 1) the
    delta_homomorphism gap is at most s^2 max_c ||[G, 1 (x) c]||_F + s ||Dpi||_F:
    "delta_homomorphism" is the second term and
    "delta_homomorphism_per_commutator" the coefficient s^2, which
    ``coalgebra.check_canonical_idempotent`` combines with its commutators.
    W-hat has the same s and ||Dpi||_F, so they serve both sides.
    "dual_cond3_per_wtilde_gap" is s^2 = ||W-hat^T||_2^2, the share of
    W-hat's W^T factors in the move of W-hat's cond3a and cond3b per unit
    sqrt(n) ||D||_F (``manageability.dual_manageability``)."""
    g1, g2, g3, g4 = gaps.gap1, gaps.gap2, gaps.gap3, gaps.gap4
    p, s = gaps.sqrt_n * gaps.gap_pi, gaps.norm2
    b = {
        "mpi5": s * (p + min(g1 + g3, g2 + g4)),
        "mpi6": s * (g1 + g2),
        "mpi7": s * (p + g1 + g3),
        "mpi8": s * (p + g2 + g4),
    }
    b["mpi9"] = s * b["mpi7"] + s * g2
    b["mpi10"] = s * b["mpi8"] + s * g1
    b["E_legs_commute"] = 2.0 * s * g3
    b["E_legs_product_form"] = s * g3
    b["E_legs_commute_dual"] = 2.0 * s * g4
    b["E_legs_product_form_dual"] = s * g4
    b["hash1"], b["hash2"] = g2, g4
    b["delta_homomorphism"] = s * gaps.gap_pi
    b["delta_homomorphism_per_commutator"] = s**2
    b["dual_cond3_per_wtilde_gap"] = s**2
    b["coassociativity"] = s**3 * (p + b["mpi6"] + 2.0 * b["mpi5"]) + b["mpi5"] ** 2
    return {name: float(value) for name, value in b.items()}


def _evaluate(fx: Fixture, words: LegWords, names,
              lhs_bounds: dict[str, float]) -> tuple[dict, dict, dict]:
    """Residual and Frobenius gap of each named identity, summed over the
    column blocks, and the block after which each early-stopped one
    stopped.  After each block but the last, an identity whose partial gap
    over its ``lhs_norm_bounds`` exceeds FAIL_MARGIN * fx.tol is not evaluated
    further, and that certified lower bound is its residual."""
    sums = {name: np.zeros(2) for name in names}
    stops = {}
    last = len(words.column_blocks) - 1
    for i, cols in enumerate(words.column_blocks):
        active = [name for name in names if name not in stops]
        for name, norms in words.block_norms(cols, active).items():
            sums[name] += norms
            if i < last and np.sqrt(sums[name][0]) / lhs_bounds[name] > FAIL_MARGIN * fx.tol:
                stops[name] = i
    gaps = {name: float(np.sqrt(gap)) for name, (gap, _) in sums.items()}
    res = {name: gaps[name] / (lhs_bounds[name] if name in stops
                               else max(1.0, float(np.sqrt(lhs))))
           for name, (_, lhs) in sums.items()}
    return res, gaps, stops


def check_mpi_axioms(fx: Fixture) -> MpiVerdict:
    """Full multiplicativity verdict at the context's tol: partial isometry
    plus mpi1-mpi4, with the derived residuals mpi5-mpi10 reported alongside.

    mpi1-mpi4 are evaluated first, block of columns by block
    (``_evaluate``).  An identity that stops early reports its certified
    lower bound in place of the residual (the ids are in ``lower_bounds``).
    When the axioms pass with none stopped, the verdict carries
    ``dependent_bounds``, and a derived entry whose bound ``takes_bound``
    reports that bound.  Every other derived identity, each one of a W
    that fails the axioms among them, is then evaluated on the same engine
    with the same early stop, so the residuals and ``lower_bounds`` of a
    failing W are those of evaluating all ten together."""
    m = fx.w.matrix
    gap_pi, res_pi = pi_gaps(m)
    words = LegWords(fx.three_leg, {"W": fx.w, "W*": fx.ws}, IDENTITY_WORDS)
    norm2 = spectral_norm(m)
    lhs_bounds = lhs_norm_bounds(m, norm2)
    res, gaps, stops = _evaluate(fx, words, MPI_AXIOMS, lhs_bounds)
    passed = res_pi < fx.tol and all(r < fx.tol for r in res.values())
    bounds = {}
    if passed and not stops:
        bounds = dependent_bounds(AxiomGaps(*(gaps[name] for name in MPI_AXIOMS),
                                            gap_pi, math.sqrt(fx.n), norm2))
    res.update((name, bounds[name]) for name in DERIVED_IDENTITIES
               if takes_bound(bounds.get(name, math.inf), fx))
    derived, _, more_stops = _evaluate(
        fx, words, [name for name in DERIVED_IDENTITIES if name not in res], lhs_bounds)
    res.update(derived)
    stops.update(more_stops)
    order = list(IDENTITY_WORDS)  # the order in which evaluating all ten stops them
    lower_bounds = tuple(sorted(stops, key=lambda name: (stops[name], order.index(name))))
    return MpiVerdict(res_pi, {name: res[name] for name in MPI_AXIOMS},
                      {name: res[name] for name in DERIVED_IDENTITIES}, passed,
                      lower_bounds, bounds)


def projection_residuals(fx: Fixture) -> dict[str, float]:
    """E = W*W and G = WW* idempotent.

    E and G are self-adjoint for every W, and WE = W = GW restate
    W W* W = W (``MpiVerdict.pi_residual``), so neither is measured here.
    """
    e, g = fx.e.matrix, fx.g.matrix
    return {
        "E_idempotent": rel_residual(e @ e, e),
        "G_idempotent": rel_residual(g @ g, g),
    }


def assess_fullness(fx: Fixture) -> FullnessVerdict:
    """Evaluate both fullness readings on the slice algebras A and A-hat.

    The literal flags ask whether w -> (id (x) w)(W) (resp. the left
    slice map) is injective; by annihilator duality that is the same as
    the opposite-side slices spanning all of B(H), dim A = n^2.  The
    nondegeneracy flags ask whether the slice spaces act with dense range
    (the ranges of a basis sum to H) and trivial common kernel (so do
    those of the adjoint basis).
    """
    n = fx.n

    def acts_fully(stack):
        return range_basis(stack).shape[1] == n

    a, ahat = fx.A, fx.Ahat
    return FullnessVerdict(
        literal_right=a.dim == n * n,
        literal_left=ahat.dim == n * n,
        nondeg_A_range=acts_fully(a.stack),
        nondeg_A_kernel=acts_fully(adjoint(a.stack)),
        nondeg_Ahat_range=acts_fully(ahat.stack),
        nondeg_Ahat_kernel=acts_fully(adjoint(ahat.stack)),
        right_slice_rank=a.dim,
        left_slice_rank=ahat.dim,
    )
