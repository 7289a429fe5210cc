"""Multiplicativity axioms and derived identities for a candidate W.

A partial isometry W on H (x) H is multiplicative when the four leg
identities mpi1-mpi4 hold on H (x) H (x) H; mpi5-mpi10 then follow.
mpi5 is the pentagon equation; mpi3/mpi4 are trivial for unitaries but
carry the base-algebra commutation in the general case.

The ten identities are leg words evaluated together on column blocks
(tensor.LegWords), which fuses the same-leg runs of the paper's words:
mpi3 is evaluated as E_23 W_12 = W_12 E_23 with E = W*W, formed once.
``check_mpi_axioms`` stops an identity as FAIL as
soon as the blocks so far certify it: its residual is then a lower bound
on the full residual, above FAIL_MARGIN * tol, and its id is listed in
``MpiVerdict.lower_bounds``.  A PASS always reports the full residual.
A passing verdict also carries a bound on every coassociativity residual,
from the exact Frobenius gaps of mpi5, mpi6 and W W* W = W that the
evaluation has summed and from ||W||_2 (``coassociativity_bound``, derived
at ``coalgebra.coassociativity_residual``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .context import Fixture, as_fixture, what  # noqa: F401 (re-exports what)
from .tensor import (
    RESIDUAL_TOL,
    LegWords,
    Operator,
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
    #: bound on every coassociativity residual of W and of W-hat; infinite
    #: unless the verdict passed with mpi5 and mpi6 evaluated in full
    coassociativity_bound: float = math.inf


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


def is_partial_isometry(w: Operator, tol: float = RESIDUAL_TOL) -> tuple[bool, float]:
    """Residual of W W* W = W."""
    res = _pi_gaps(w.matrix)[1]
    return res < tol, res


def _pi_gaps(m: np.ndarray) -> tuple[float, float]:
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
    fused evaluation too.  ``norm2`` is ||W||_2, taken as infinite for a W
    with a non-finite entry: then so is every bound, and no identity of
    that W stops early."""
    if not np.isfinite(norm2):
        return dict.fromkeys(IDENTITY_WORDS, np.inf)
    frob = math.sqrt(math.isqrt(len(w))) * np.linalg.norm(w)
    return {name: max(1.0, norm2 ** (len(left.split()) - 1) * frob)
            for name, (left, _) in IDENTITY_WORDS.items()}


def check_mpi_axioms(w: Operator | Fixture) -> MpiVerdict:
    """Full multiplicativity verdict at the context's tol: partial isometry
    plus mpi1-mpi4, with the derived residuals mpi5-mpi10 reported alongside.

    The ten identities are evaluated together, block of columns by block.
    After each block but the last, an identity whose partial gap over
    ``lhs_norm_bounds`` exceeds FAIL_MARGIN * tol stops: the partial gap
    is a lower bound on ||L - R||_F, so that ratio is a certified lower
    bound on the residual, and it is reported in place of the residual
    (the ids are in ``lower_bounds``).  Every other identity, each PASS
    among them, reports its exact residual over all columns.  A passing
    verdict whose mpi5 and mpi6 ran in full carries their gaps as a
    ``coassociativity_bound``."""
    fx = as_fixture(w)
    m, tol = fx.w.matrix, fx.tol
    gap_pi, res_pi = _pi_gaps(m)
    words = LegWords(fx.three_leg, {"W": fx.w, "W*": fx.ws}, IDENTITY_WORDS)
    norm2 = spectral_norm(m)
    bounds = lhs_norm_bounds(m, norm2)
    sums = {name: np.zeros(2) for name in IDENTITY_WORDS}
    lower_bounds = []
    last = words.column_blocks[-1]
    for cols in words.column_blocks:
        active = [name for name in IDENTITY_WORDS if name not in lower_bounds]
        for name, norms in words.block_norms(cols, active).items():
            sums[name] += norms
            if cols is not last and np.sqrt(sums[name][0]) / bounds[name] > FAIL_MARGIN * tol:
                lower_bounds.append(name)
    res = {
        name: float(np.sqrt(gap) / (bounds[name] if name in lower_bounds
                                    else max(1.0, np.sqrt(lhs))))
        for name, (gap, lhs) in sums.items()
    }
    axioms = {name: res[name] for name in MPI_AXIOMS}
    derived = {name: res[name] for name in DERIVED_IDENTITIES}
    passed = res_pi < tol and all(r < tol for r in axioms.values())
    beta = math.inf  # the bound coalgebra.coassociativity_residual derives
    if passed and not {"mpi5", "mpi6"} & set(lower_bounds):
        gap5, gap6 = (math.sqrt(sums[name][0]) for name in ("mpi5", "mpi6"))
        beta = float(norm2**3 * (math.sqrt(fx.n) * gap_pi + gap6 + 2.0 * gap5) + gap5**2)
    return MpiVerdict(res_pi, axioms, derived, passed, tuple(lower_bounds), beta)


def projection_residuals(w: Operator | Fixture) -> dict[str, float]:
    """E = W*W and G = WW* idempotent.

    E and G are self-adjoint for every W, and WE = W = GW restate
    W W* W = W (``is_partial_isometry``), so neither is measured here.
    """
    fx = as_fixture(w)
    e, g = fx.e.matrix, fx.g.matrix
    return {
        "E_idempotent": rel_residual(e @ e, e),
        "G_idempotent": rel_residual(g @ g, g),
    }


def assess_fullness(w: Operator | Fixture) -> FullnessVerdict:
    """Evaluate both fullness readings on the slice algebras A and A-hat.

    The literal flags ask whether w -> (id (x) w)(W) (resp. the left
    slice map) is injective; by annihilator duality that is the same as
    the opposite-side slices spanning all of B(H), dim A = n^2.  The
    nondegeneracy flags ask whether the slice spaces act with dense range
    (the ranges of a basis sum to H) and trivial common kernel (so do
    those of the adjoint basis).
    """
    fx = as_fixture(w)
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
