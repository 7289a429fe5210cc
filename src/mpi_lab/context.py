"""One fixture context per W: every shared quantity computed once, on demand.

A ``Fixture`` holds W, which it accepts only on H (x) H with two equal
legs, the tolerance ``tol`` that every check of the run is judged at,
and, as cached properties read on first use, what the checks share: W*,
E = W*W, G = WW*, the slice stacks, the leg algebras A and A-hat, the
base spans N and L, kappa, the weight nu, the base structure and the
antipode S.  The checks read these inputs from the context; no check
result repeats them.  ``dual`` is the context of W-hat, whose dual is
this context again (N-hat is ``dual.N``, S-hat is ``dual.s_map``); as
W-hat = Sigma W* Sigma, the right and left slices of W* are
``dual.left_slices`` and ``dual.right_slices``.  The dual shares ``tol``
and the Q data: ``q_data(Q)`` is the eigendecomposition of Q, whose
powers are every power of Q the checks take, Q^{-1} among them; the
powers of Q^T are the transposes of those of Q.  Every check takes
the run's context, built once from W at the run's tol, and reads W from
it.  A context serves one suite run and holds nothing larger than
n^4 entries; three-leg matrices stay local to the checks that build
them, and the A (x) A data (Delta of the A basis, d n^4 entries, and the
coordinates of each family, d^4 each) to one side of the coalgebra level
(coalgebra.TensorSquare).
"""

from __future__ import annotations

import weakref
from functools import cached_property

import numpy as np

from .tensor import (
    RESIDUAL_TOL,
    H,
    LegMismatchError,
    Operator,
    OperatorSubspace,
    PositiveEig,
    TensorSpace,
    all_left_slices,
    all_right_slices,
    span_matrices,
    swap_legs,
)


def what(w: Operator) -> Operator:
    """The dual candidate W-hat = Sigma W* Sigma."""
    return swap_legs(w.adj)


class Fixture:
    """Immutable, lazily evaluated context of one candidate W."""

    def __init__(self, w: Operator, tol: float = RESIDUAL_TOL, dual_of: Fixture | None = None):
        legs = w.space.legs
        if len(legs) != 2 or legs[0] != legs[1] or legs[0].flavor != H:
            raise LegMismatchError("expected an operator on H (x) H with equal legs")
        leg = legs[0]
        self.__dict__.update(
            w=w,
            tol=tol,
            n=leg.dim,
            leg_space=TensorSpace((leg,)),
            three_leg=TensorSpace((leg, leg, leg)),
            _q_data={} if dual_of is None else dual_of._q_data,  # Q data is W-free
            _dual_of=None if dual_of is None else weakref.ref(dual_of),
        )

    def __setattr__(self, name, value):
        raise AttributeError("a Fixture is immutable")

    @property
    def dual(self) -> Fixture:
        """Context of W-hat at the same tol.  Its dual is this context, held
        weakly so that the pair is freed as soon as a suite run drops it."""
        primal = self._dual_of and self._dual_of()
        if primal is not None:
            return primal
        if "_dual" not in self.__dict__:
            self.__dict__["_dual"] = Fixture(what(self.w), self.tol, self)
        return self.__dict__["_dual"]

    @cached_property
    def ws(self) -> Operator:
        return self.w.adj

    @cached_property
    def e(self) -> Operator:
        return self.ws @ self.w

    @cached_property
    def g(self) -> Operator:
        return self.w @ self.ws

    @cached_property
    def right_slices(self) -> np.ndarray:
        return all_right_slices(self.w)

    @cached_property
    def left_slices(self) -> np.ndarray:
        return all_left_slices(self.w)

    @cached_property
    def N(self) -> OperatorSubspace:
        return span_matrices(self.leg_space, all_right_slices(self.e))

    @cached_property
    def L(self) -> OperatorSubspace:
        return span_matrices(self.leg_space, all_left_slices(self.e))

    # The structures below are built by the level modules, which import
    # this one; hence the function-level imports.
    @cached_property
    def A(self) -> OperatorSubspace:
        from .coalgebra import leg_algebra
        return leg_algebra(self, "A")

    @cached_property
    def Ahat(self) -> OperatorSubspace:
        from .coalgebra import leg_algebra
        return leg_algebra(self, "Ahat")

    @cached_property
    def kappa_solver(self):
        from .base_algebra import KappaSolver
        return KappaSolver(self)

    @cached_property
    def kappa(self):
        from .base_algebra import kappa_map
        return kappa_map(self)

    @cached_property
    def nu(self):
        from .base_algebra import find_distinguished_weight
        return find_distinguished_weight(self)

    @cached_property
    def _structure(self):
        from .base_algebra import gamma_and_rtilde
        if not self.nu.found:
            return None, "no distinguished weight at tolerance"
        try:
            return gamma_and_rtilde(self), None
        except ValueError as exc:
            return None, str(exc)

    @property
    def structure(self):
        """The BaseStructure; a ValueError with ``structure_reason`` when
        there is none."""
        structure, reason = self._structure
        if structure is None:
            raise ValueError(reason)
        return structure

    @property
    def structure_reason(self) -> str | None:
        """Why there is no BaseStructure, or None when there is one."""
        return self._structure[1]

    @cached_property
    def s_map(self):
        from .antipode import antipode_map
        return antipode_map(self)

    def q_data(self, q: Operator) -> PositiveEig:
        """The eigendecomposition of a positive Q on W's leg, from which
        every power of Q is taken, Q^{-1} included."""
        key = (q.space, q.matrix.tobytes())
        if key not in self._q_data:
            if q.space != self.leg_space:
                raise ValueError("Q must be a single-leg positive operator on W's leg")
            self._q_data[key] = PositiveEig(q.matrix, name="Q")
        return self._q_data[key]
