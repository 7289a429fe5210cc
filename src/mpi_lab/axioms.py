"""Multiplicativity axioms and derived identities for a candidate W.

A partial isometry W on H (x) H is multiplicative when the four leg
identities mpi1-mpi4 hold on H (x) H (x) H; mpi5-mpi10 then follow.
mpi5 is the pentagon equation; mpi3/mpi4 are trivial for unitaries but
carry the base-algebra commutation in the general case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .context import Fixture, as_fixture, what  # noqa: F401 (re-exports what)
from .tensor import (
    RESIDUAL_TOL,
    LegMismatchError,
    Operator,
    leg_word,
    numerical_rank,
    rel_residual,
)

MPI_AXIOMS = ("mpi1", "mpi2", "mpi3", "mpi4")
DERIVED_IDENTITIES = ("mpi5", "mpi6", "mpi7", "mpi8", "mpi9", "mpi10")


@dataclass(frozen=True)
class MpiVerdict:
    is_partial_isometry: bool
    pi_residual: float
    mpi_residuals: dict[str, float]
    derived_residuals: dict[str, float]
    passed: bool


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


def _two_h_legs(w: Operator) -> int:
    legs = w.space.legs
    if len(legs) != 2 or legs[0] != legs[1] or legs[0].flavor != "H":
        raise LegMismatchError("expected an operator on H (x) H with equal legs")
    return legs[0].dim


def is_partial_isometry(w: Operator, tol: float = RESIDUAL_TOL) -> tuple[bool, float]:
    """Residual of W W* W = W."""
    m = w.matrix
    res = rel_residual(m @ m.conj().T @ m, m)
    return res < tol, res


# The ten leg identities as (left, right) words on H (x) H (x) H, in the
# notation of tensor.leg_word: "W23 W12 W*23" is W_23 W_12 W*_23.
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


def mpi_identity_sides(w: Operator | Fixture, name: str) -> tuple[Operator, Operator]:
    """Left and right side of one of the ten leg identities."""
    if name not in IDENTITY_WORDS:
        raise KeyError(f"unknown identity {name!r}")
    fx = as_fixture(w)
    ops = {"W": fx.w, "W*": fx.ws}
    lhs, rhs = (leg_word(fx.three_leg, ops, word) for word in IDENTITY_WORDS[name])
    return lhs, rhs


def identity_residual(w: Operator | Fixture, name: str) -> float:
    lhs, rhs = mpi_identity_sides(w, name)
    return rel_residual(lhs.matrix, rhs.matrix)


def check_derived_identities(w: Operator | Fixture) -> dict[str, float]:
    """Residuals of mpi5-mpi10 (not enforced, just measured)."""
    fx = as_fixture(w)
    return {name: identity_residual(fx, name) for name in DERIVED_IDENTITIES}


def check_mpi_axioms(w: Operator | Fixture, tol: float = RESIDUAL_TOL) -> MpiVerdict:
    """Full multiplicativity verdict: partial isometry plus mpi1-mpi4,
    with the derived residuals mpi5-mpi10 reported alongside."""
    fx = as_fixture(w)
    _two_h_legs(fx.w)
    ok_pi, res_pi = is_partial_isometry(fx.w, tol)
    axioms = {name: identity_residual(fx, name) for name in MPI_AXIOMS}
    derived = check_derived_identities(fx)
    passed = ok_pi and all(r < tol for r in axioms.values())
    return MpiVerdict(ok_pi, res_pi, axioms, derived, passed)


def projection_residuals(w: Operator | Fixture) -> dict[str, float]:
    """E, G idempotent/self-adjoint and the initial/final space relations."""
    fx = as_fixture(w)
    e, g, m = fx.e.matrix, fx.g.matrix, fx.w.matrix
    return {
        "E_idempotent": rel_residual(e @ e, e),
        "E_selfadjoint": rel_residual(e.conj().T, e),
        "G_idempotent": rel_residual(g @ g, g),
        "G_selfadjoint": rel_residual(g.conj().T, g),
        "WE_eq_W": rel_residual(m @ e, m),
        "GW_eq_W": rel_residual(g @ m, m),
    }


def _matrix_rank(stack: np.ndarray) -> int:
    s = np.linalg.svd(stack.reshape(stack.shape[0], -1), compute_uv=False)
    return numerical_rank(s)


def assess_fullness(w: Operator | Fixture) -> FullnessVerdict:
    """Evaluate both fullness readings, with ranks at the RANK_TOL cutoff.

    The literal flags ask whether w -> (id (x) w)(W) (resp. the left
    slice map) is injective; by annihilator duality that is the same as
    the opposite-side slices spanning all of B(H).  The nondegeneracy
    flags ask whether the slice spaces act with dense range and trivial
    common kernel.
    """
    fx = as_fixture(w)
    n = _two_h_legs(fx.w)
    rights = fx.right_slices  # span A
    lefts = fx.left_slices  # span A-hat
    right_rank = _matrix_rank(rights)
    left_rank = _matrix_rank(lefts)
    # injectivity of the right slice map = rank n^2 of its image
    literal_right = right_rank == n * n
    literal_left = left_rank == n * n

    def range_full(stack):
        return _matrix_rank(np.hstack(list(stack))) == n

    def kernel_trivial(stack):
        return _matrix_rank(np.vstack(list(stack))) == n

    return FullnessVerdict(
        literal_right=literal_right,
        literal_left=literal_left,
        nondeg_A_range=range_full(rights),
        nondeg_A_kernel=kernel_trivial(rights),
        nondeg_Ahat_range=range_full(lefts),
        nondeg_Ahat_kernel=kernel_trivial(lefts),
        right_slice_rank=right_rank,
        left_slice_rank=left_rank,
    )
