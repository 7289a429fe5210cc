"""One fixture context per W: every shared quantity computed once, on demand.

A ``Fixture`` holds W and, as cached properties read on first use, what
the checks share: W*, E = W*W, G = WW*, the slice stacks, the leg
algebras A and A-hat, the base spans N and L, kappa, the weight nu, the
base structure and the antipode S.  ``dual`` is the context of W-hat,
whose dual is this context again (N-hat is ``dual.N``); as
W-hat = Sigma W* Sigma, the right and left slices of W* are
``dual.left_slices`` and ``dual.right_slices``.  ``q_data(Q)``
holds Q^{-1} and the eigendecompositions of Q and Q^T.  Public checks
accept an ``Operator`` (given a fresh context) or a context.  A context
serves one suite run and holds nothing larger than n^4 entries;
three-leg matrices and the A (x) A stacks stay local to the checks that
build them.
"""

from __future__ import annotations

import weakref
from functools import cached_property

import numpy as np

from .tensor import (
    LegSpec,
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


def three_leg_space(w: Operator) -> TensorSpace:
    leg = w.space.legs[0]
    return TensorSpace((leg, leg, leg))


class QData:
    """A positive Q on W's leg: Q^{-1}, and the eigendecompositions of Q
    and Q^T from which every power is taken."""

    def __init__(self, q: Operator, leg: LegSpec):
        if q.space.nlegs != 1 or q.space.legs[0] != leg:
            raise ValueError("Q must be a single-leg positive operator on W's leg")
        self.q = q
        self.eig = PositiveEig(q.matrix, name="Q")

    @cached_property
    def qinv(self) -> np.ndarray:
        return np.linalg.inv(self.q.matrix)

    @cached_property
    def eig_t(self) -> PositiveEig:
        return PositiveEig(self.q.matrix.T, name="Q^T")


class Fixture:
    """Immutable, lazily evaluated context of one candidate W."""

    def __init__(self, w: Operator, dual_of: Fixture | None = None):
        leg = w.space.legs[0]
        self.__dict__.update(
            w=w,
            n=leg.dim,
            leg_space=TensorSpace((leg,)),
            three_leg=three_leg_space(w),
            _q_data={} if dual_of is None else dual_of._q_data,  # Q data is W-free
            _dual_of=None if dual_of is None else weakref.ref(dual_of),
        )

    def __setattr__(self, name, value):
        raise AttributeError("a Fixture is immutable")

    @property
    def dual(self) -> Fixture:
        """Context of W-hat.  Its dual is this context, held weakly so that
        the pair is freed as soon as a suite run drops it."""
        primal = self._dual_of and self._dual_of()
        if primal is not None:
            return primal
        if "_dual" not in self.__dict__:
            self.__dict__["_dual"] = Fixture(what(self.w), self)
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
    def A(self):
        from .coalgebra import leg_algebra
        return leg_algebra(self, "A")

    @cached_property
    def Ahat(self):
        from .coalgebra import leg_algebra
        return leg_algebra(self, "Ahat")

    @cached_property
    def spans(self):
        from .base_algebra import base_spans
        return base_spans(self)

    @cached_property
    def kappa_solver(self):
        from .base_algebra import KappaSolver
        return KappaSolver(self)

    @cached_property
    def kappa(self):
        from .base_algebra import kappa_map
        return kappa_map(self, self.N, self.kappa_solver)

    @cached_property
    def nu(self):
        from .base_algebra import find_distinguished_weight
        return find_distinguished_weight(self)

    @cached_property
    def _structure(self):
        from .base_algebra import build_base_structure
        if not self.nu.found:
            return None, "no distinguished weight at tolerance"
        try:
            return build_base_structure(self), None
        except ValueError as exc:
            return None, f"anti-isomorphism unavailable: {exc}"

    @property
    def structure(self):
        """The BaseStructure, or None with the reason in structure_reason."""
        return self._structure[0]

    @property
    def structure_reason(self) -> str | None:
        return self._structure[1]

    @cached_property
    def s_map(self):
        from .antipode import antipode_map
        return antipode_map(self)

    def q_data(self, q: Operator) -> QData:
        key = (q.space, q.matrix.tobytes())
        if key not in self._q_data:
            self._q_data[key] = QData(q, self.w.space.legs[0])
        return self._q_data[key]


def as_fixture(w: Operator | Fixture) -> Fixture:
    """The context itself, or a fresh one for a bare operator."""
    return w if isinstance(w, Fixture) else Fixture(w)
