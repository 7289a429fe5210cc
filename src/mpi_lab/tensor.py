"""Typed tensor-space linear algebra.

Operators live on an ordered list of legs, each a copy of C^d flavored
either ``H`` or ``Hbar`` (the conjugate space).  The conjugate space is
stored concretely as C^d with entrywise-conjugated coordinates, so the
transpose of an operator is the plain matrix transpose with the flavor
tag flipped.  Basis vectors of a multi-leg space are flattened C-order:
e_i (x) e_k maps to index i*n2 + k, first leg most significant, 0-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

H = "H"
HBAR = "Hbar"

#: default relative-residual tolerance (Frobenius, denominator max(1, ||lhs||))
RESIDUAL_TOL = 1e-9
#: singular values below RANK_TOL * sigma_max are treated as zero
RANK_TOL = 1e-10
#: eigenvalues below this are not accepted as positive
PD_TOL = 1e-12
#: the real t at which identities in a one-parameter group are sampled
T_SAMPLES = (1.0, -1.0, 0.3, -0.3)


class LegMismatchError(ValueError):
    """Raised when leg dimensions or flavors do not line up."""


@dataclass(frozen=True)
class LegSpec:
    """One tensor leg: a copy of C^dim, flavored H or Hbar."""

    dim: int
    flavor: str = H

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"leg dimension must be >= 1, got {self.dim}")
        if self.flavor not in (H, HBAR):
            raise ValueError(f"flavor must be '{H}' or '{HBAR}', got {self.flavor!r}")

    @property
    def conjugate(self) -> "LegSpec":
        return LegSpec(self.dim, HBAR if self.flavor == H else H)


@dataclass(frozen=True)
class TensorSpace:
    """Ordered tensor product of legs."""

    legs: tuple[LegSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "legs", tuple(self.legs))

    @property
    def total_dim(self) -> int:
        d = 1
        for leg in self.legs:
            d *= leg.dim
        return d

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(leg.dim for leg in self.legs)

    @property
    def nlegs(self) -> int:
        return len(self.legs)

    def conjugate(self) -> "TensorSpace":
        return TensorSpace(tuple(leg.conjugate for leg in self.legs))


def space(*dims: int, flavors: Sequence[str] | None = None) -> TensorSpace:
    """Build a TensorSpace from dimensions, all legs flavor H by default."""
    if flavors is None:
        flavors = [H] * len(dims)
    if len(flavors) != len(dims):
        raise ValueError("flavors and dims must have equal length")
    return TensorSpace(tuple(LegSpec(d, f) for d, f in zip(dims, flavors)))


@dataclass(frozen=True, eq=False)
class Operator:
    """A square complex matrix on a typed tensor space."""

    space: TensorSpace
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        d = self.space.total_dim
        if m.shape != (d, d):
            raise ValueError(f"matrix shape {m.shape} does not match space dim {d}")
        m = np.ascontiguousarray(m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    # -- arithmetic -------------------------------------------------------
    def _check_same_space(self, other: "Operator"):
        if self.space != other.space:
            raise LegMismatchError("operators live on different tensor spaces")

    def __matmul__(self, other: "Operator") -> "Operator":
        self._check_same_space(other)
        return Operator(self.space, self.matrix @ other.matrix)

    def __add__(self, other: "Operator") -> "Operator":
        self._check_same_space(other)
        return Operator(self.space, self.matrix + other.matrix)

    def __sub__(self, other: "Operator") -> "Operator":
        self._check_same_space(other)
        return Operator(self.space, self.matrix - other.matrix)

    def __mul__(self, scalar: complex) -> "Operator":
        return Operator(self.space, self.matrix * scalar)

    __rmul__ = __mul__

    @property
    def adj(self) -> "Operator":
        """Adjoint (conjugate transpose); flavors unchanged."""
        return Operator(self.space, self.matrix.conj().T)

    def tensor(self) -> np.ndarray:
        """View of the matrix as a tensor: row legs then column legs."""
        dims = self.space.dims
        return self.matrix.reshape(dims + dims)


def identity(sp: TensorSpace) -> Operator:
    return Operator(sp, np.eye(sp.total_dim, dtype=complex))


def operators(sp: TensorSpace, stack: np.ndarray) -> list[Operator]:
    """A (K, D, D) stack of matrices as K Operators on sp."""
    return [Operator(sp, m) for m in stack]


def rel_residual(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """Relative Frobenius gap ||lhs - rhs|| / max(1, ||lhs||)."""
    return float(np.linalg.norm(lhs - rhs) / max(1.0, np.linalg.norm(lhs)))


def rows(stack: np.ndarray) -> np.ndarray:
    """A stack flattened to one row per member (empty stacks included)."""
    return stack.reshape(len(stack), math.prod(stack.shape[1:]))


def max_gap(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """Max of rel_residual over a stack of (lhs, rhs) pairs, along the
    first axis; 0 for an empty stack."""
    return _max_relative(rows(lhs - rhs), lhs)


def _max_relative(gaps: np.ndarray, lhs: np.ndarray) -> float:
    """max_k ||gaps_k|| / max(1, ||lhs_k||) for the rows of a gap stack."""
    scales = np.maximum(1.0, np.linalg.norm(rows(lhs), axis=1))
    return float(np.max(np.linalg.norm(gaps, axis=1) / scales, initial=0.0))


def adjoint(stack: np.ndarray) -> np.ndarray:
    """Adjoint of every matrix of a stack."""
    return np.conj(np.swapaxes(stack, -1, -2))


def pair_products(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """All products x y of two stacks: (K, d, d) x (L, d, d) -> (K*L, d, d),
    ordered K-major."""
    return (xs[:, None] @ ys[None]).reshape(-1, *xs.shape[1:])


def reversed_products(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The products y x, in the order of pair_products(xs, ys)."""
    return (ys[None] @ xs[:, None]).reshape(-1, *xs.shape[1:])


# ---------------------------------------------------------------------------
# Functionals
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Functional:
    """Linear functional on one leg, w(T) = trace(T . density)."""

    leg: LegSpec
    density: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.density, dtype=complex)
        if f.shape != (self.leg.dim, self.leg.dim):
            raise ValueError("density shape does not match leg dimension")
        f = np.ascontiguousarray(f)
        f.setflags(write=False)
        object.__setattr__(self, "density", f)

    def __call__(self, t: np.ndarray | Operator) -> complex:
        m = t.matrix if isinstance(t, Operator) else np.asarray(t)
        return complex(np.trace(m @ self.density))

    @property
    def transpose(self) -> "Functional":
        """w^T on the conjugate leg: w^T(m^T) = w(m); density F^t."""
        return Functional(self.leg.conjugate, self.density.T)


def vector_functional(a: np.ndarray, b: np.ndarray, flavor: str = H) -> Functional:
    """The functional w_{a,b}(T) = <Ta, b>; density a b^*."""
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    if a.shape != b.shape:
        raise ValueError("vectors must share a dimension")
    return Functional(LegSpec(len(a), flavor), np.outer(a, b.conj()))


def basis_functionals(leg: LegSpec) -> list[Functional]:
    """All n^2 functionals w_{e_a, e_b}, ordered (a, b) C-order."""
    n = leg.dim
    eye = np.eye(n)
    return [
        Functional(leg, np.outer(eye[a], eye[b]))
        for a in range(n)
        for b in range(n)
    ]


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------


def kron(x: Operator, y: Operator) -> Operator:
    """Kronecker product; result legs are x's legs followed by y's."""
    sp = TensorSpace(x.space.legs + y.space.legs)
    return Operator(sp, np.kron(x.matrix, y.matrix))


def flip(n: int, flavor: str = H) -> Operator:
    """The flip Sigma on leg (x) leg sending e_i (x) e_k to e_k (x) e_i."""
    if n < 1:
        raise ValueError("n must be >= 1")
    leg = LegSpec(n, flavor)
    sp = TensorSpace((leg, leg))
    m = np.zeros((n * n, n * n))
    for i in range(n):
        for k in range(n):
            m[k * n + i, i * n + k] = 1.0
    return Operator(sp, m)


def swap_legs(x: Operator) -> Operator:
    """Conjugate a two-leg operator by the flip: Sigma X Sigma, legs swapped.

    Valid for any flavor combination (Sigma here is the typed flip
    H1 (x) H2 -> H2 (x) H1), so the result lives on the swapped space.
    """
    if x.space.nlegs != 2:
        raise LegMismatchError("swap_legs needs a two-leg operator")
    t = x.tensor()
    # [Sigma X Sigma]_{(k,i),(l,j)} = X_{(i,k),(j,l)}
    swapped = t.transpose(1, 0, 3, 2)
    sp = TensorSpace((x.space.legs[1], x.space.legs[0]))
    d = sp.total_dim
    return Operator(sp, swapped.reshape(d, d))


def transpose_op(m: Operator) -> Operator:
    """Transpose in the fixed basis; every leg flavor flips H <-> Hbar.

    On a single leg this is the conjugate-space transpose m^T with
    m^T(xi-bar) = (m* xi)-bar; on several legs it is the leg-wise
    transpose (an anti-homomorphism, involutive).
    """
    return Operator(m.space.conjugate(), m.matrix.T)


def embed(x: Operator, legs: Sequence[int], ambient: TensorSpace) -> Operator:
    """Embed x into ambient acting on the listed legs, identity elsewhere.

    Legs are numbered from 1 in ambient order (standard leg notation:
    ``embed(w, [1, 3], ...)`` is W_13).  Flavors and dimensions of x's
    legs must match the ambient legs at the listed positions.
    """
    legs = list(legs)
    _check_embedding(x, legs, ambient)
    L = ambient.nlegs
    dims = ambient.dims
    rest = [p for p in range(1, L + 1) if p not in legs]
    order = legs + rest
    rest_dim = 1
    for p in rest:
        rest_dim *= dims[p - 1]
    big = np.kron(x.matrix, np.eye(rest_dim, dtype=complex))
    # big acts with leg ordering `order`; permute axes back to ambient order
    ordered_dims = tuple(dims[p - 1] for p in order)
    t = big.reshape(ordered_dims + ordered_dims)
    pos = {p: k for k, p in enumerate(order)}
    out_axes = [pos[p] for p in range(1, L + 1)]
    in_axes = [L + a for a in out_axes]
    d = ambient.total_dim
    return Operator(ambient, t.transpose(out_axes + in_axes).reshape(d, d))


def _check_embedding(x: Operator, legs: Sequence[int], ambient: TensorSpace):
    if len(set(legs)) != len(legs):
        raise LegMismatchError("target legs must be distinct")
    if len(legs) != x.space.nlegs:
        raise LegMismatchError("number of target legs must match operator legs")
    for xleg, p in zip(x.space.legs, legs):
        if not 1 <= p <= ambient.nlegs:
            raise LegMismatchError(f"target leg {p} outside ambient space")
        if ambient.legs[p - 1] != xleg:
            raise LegMismatchError(
                f"leg {p}: ambient {ambient.legs[p - 1]} != operator {xleg}"
            )


def embedded_mul(x: Operator, legs: Sequence[int], m: Operator) -> Operator:
    """embed(x, legs) @ m.

    Contracts directly on the tensor indices, avoiding the full
    D x D x D matrix product; equals the embedded matrix product exactly.
    """
    legs = list(legs)
    _check_embedding(x, legs, m.space)
    dims = m.space.dims
    L = m.space.nlegs
    d = m.space.total_dim
    k = len(legs)
    xdims = x.space.dims
    xt = x.matrix.reshape(xdims + xdims)
    mt = m.matrix.reshape(dims + (d,))
    # contract x column axes with m row axes at `legs`
    res = np.tensordot(xt, mt, axes=(list(range(k, 2 * k)), [p - 1 for p in legs]))
    # res axes: x-out legs (order `legs`), remaining m row legs, col
    rest = [p for p in range(1, L + 1) if p not in legs]
    axis_of = {p: i for i, p in enumerate(legs)}
    axis_of.update({p: k + i for i, p in enumerate(rest)})
    res = res.transpose([axis_of[p] for p in range(1, L + 1)] + [L])
    return Operator(m.space, np.ascontiguousarray(res.reshape(d, d)))


def leg_word(ambient: TensorSpace, ops: dict[str, Operator], word: str) -> Operator:
    """The product of a word of embedded operators, leftmost first.  Each
    factor is a name from ``ops`` followed by the two ambient legs it
    acts on: with ops {"W": w, "W*": w.adj}, "W23 W*12" is W_23 W*_12."""
    factors = [(ops[f[:-2]], [int(f[-2]), int(f[-1])]) for f in word.split()]
    return chain(ambient, *factors)


def chain(ambient: TensorSpace, *factors: tuple[Operator, Sequence[int]]) -> Operator:
    """Product of embedded operators, right-to-left: chain(sp, (A,[1,2]), (B,[2,3]))
    is embed(A,[1,2]) @ embed(B,[2,3])."""
    if not factors:
        return identity(ambient)
    op, legs = factors[-1]
    acc = embed(op, legs, ambient)
    for op, legs in reversed(factors[:-1]):
        acc = embedded_mul(op, list(legs), acc)
    return acc


def slice_op(x: Operator, side: str, w: Functional) -> Operator:
    """Slice a two-leg operator against a functional on one leg.

    right: (id (x) w)(X), the partial trace over leg 2 of X (1 (x) F);
    left: (w (x) id)(X), the partial trace over leg 1 of X (F (x) 1).
    """
    if x.space.nlegs != 2:
        raise LegMismatchError("slice_op needs a two-leg operator")
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    sliced, kept = (1, 0) if side == "right" else (0, 1)
    if w.leg != x.space.legs[sliced]:
        raise LegMismatchError(f"functional leg does not match leg {sliced + 1}")
    out = slice_matrix(x.matrix, *x.space.dims, side, w.density)
    return Operator(TensorSpace((x.space.legs[kept],)), out)


def slice_matrix(
    m: np.ndarray, n1: int, n2: int, side: str, density: np.ndarray
) -> np.ndarray:
    """slice_op on a raw two-leg matrix, or on each matrix of a stack:
    (id (x) w)(m) for side='right', (w (x) id)(m) for side='left', with w
    the functional of ``density``."""
    t = m.reshape(m.shape[:-2] + (n1, n2, n1, n2))
    if side == "right":
        return np.einsum("...ikjl,lk->...ij", t, density)
    return np.einsum("...ikjl,ji->...kl", t, density)


def kron_stack(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """All Kronecker products of two stacks: (K,n,n) x (L,m,m) ->
    (K*L, n*m, n*m), ordered K-major."""
    k, n, _ = xs.shape
    l, m, _ = ys.shape
    out = np.einsum("aik,bjl->abijkl", xs, ys)
    return out.reshape(k * l, n * m, n * m)


def stack_right_slices(stack: np.ndarray, n1: int, n2: int) -> np.ndarray:
    """Right block-slices of a stack of two-leg operators:
    (K, n1*n2, n1*n2) -> (K, n2*n2, n1, n1), slice order (a, b) C-order."""
    k = stack.shape[0]
    t = stack.reshape(k, n1, n2, n1, n2)
    return np.einsum("sibja->sabij", t).reshape(k, n2 * n2, n1, n1)


def stack_left_slices(stack: np.ndarray, n1: int, n2: int) -> np.ndarray:
    """Left block-slices of a stack of two-leg operators:
    (K, n1*n2, n1*n2) -> (K, n1*n1, n2, n2)."""
    k = stack.shape[0]
    t = stack.reshape(k, n1, n2, n1, n2)
    return np.einsum("sbkal->sabkl", t).reshape(k, n1 * n1, n2, n2)


def all_right_slices(x: Operator) -> np.ndarray:
    """Stack of (id (x) w_{e_a,e_b})(X) over all (a, b), shape (n2^2, n1, n1).

    Row order matches basis_functionals: index a*n2 + b.
    """
    return stack_right_slices(x.matrix[None], *x.space.dims)[0]


def all_left_slices(x: Operator) -> np.ndarray:
    """Stack of (w_{e_a,e_b} (x) id)(X) over all (a, b), shape (n1^2, n2, n2)."""
    return stack_left_slices(x.matrix[None], *x.space.dims)[0]


class PositiveEig:
    """Eigendecomposition of a Hermitian matrix whose eigenvalues exceed
    PD_TOL, taken once; ``power(z)`` is p^z, memoized per exponent."""

    def __init__(self, m: np.ndarray, name: str = "operator"):
        if np.linalg.norm(m - m.conj().T) > 1e-10 * max(1.0, np.linalg.norm(m)):
            raise ValueError(f"{name} must be Hermitian")
        self.vals, self.vecs = np.linalg.eigh(m)
        if self.vals.min() <= PD_TOL:
            raise ValueError(
                f"{name} must be positive definite (min eig {self.vals.min():.3e})"
            )
        self._powers: dict[complex, np.ndarray] = {}

    def power(self, z: complex) -> np.ndarray:
        if z not in self._powers:
            v = self.vecs
            p = v @ np.diag(np.exp(z * np.log(self.vals))) @ v.conj().T
            p.setflags(write=False)
            self._powers[z] = p
        return self._powers[z]

    def conjugate(self, z: complex, x: Operator | np.ndarray) -> Operator | np.ndarray:
        """p^z x p^{-z} for an Operator, or for each matrix of a stack."""
        if isinstance(x, Operator):
            return Operator(x.space, self.conjugate(z, x.matrix))
        return self.power(z) @ x @ self.power(-z)


def transpose_grid(stack: np.ndarray) -> np.ndarray:
    """Reorder a stack over the functionals w_{e_a,e_b} (index a*n + b,
    as in basis_functionals) to the transposed functionals w_{e_b,e_a}."""
    n = int(round(np.sqrt(stack.shape[0])))
    return stack.reshape(n, n, *stack.shape[1:]).swapaxes(0, 1).reshape(stack.shape)


def pos_power(p: Operator, z: complex) -> Operator:
    """p^z for Hermitian positive-definite p, via eigendecomposition."""
    return Operator(p.space, PositiveEig(p.matrix).power(z))


def numerical_rank(s: np.ndarray) -> int:
    """Number of singular values (descending) above RANK_TOL * s[0]."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_TOL * s[0]))


# ---------------------------------------------------------------------------
# Operator subspaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class OperatorSubspace:
    """Hilbert-Schmidt-orthonormal basis of a linear space of operators."""

    space: TensorSpace
    basis_matrix: np.ndarray  # (dim, D*D), rows are vec'd basis elements

    def __post_init__(self):
        object.__setattr__(self, "_basis_conj_t", self.basis_matrix.conj().T)

    @property
    def dim(self) -> int:
        return self.basis_matrix.shape[0]

    @cached_property
    def stack(self) -> np.ndarray:
        """The basis as a (dim, D, D) stack of matrices."""
        d = self.space.total_dim
        return self.basis_matrix.reshape(self.dim, d, d)

    @cached_property
    def basis(self) -> list[Operator]:
        return operators(self.space, self.stack)

    def coordinates(self, stack: np.ndarray) -> np.ndarray:
        """HS inner products <x, b_i> of each matrix x of a stack, (K, dim)."""
        return rows(stack) @ self._basis_conj_t

    def stack_residual(self, stack: np.ndarray) -> float:
        """Max membership residual (of the orthogonal projection, relative
        to max(1, ||x||)) over a (K, D, D) or (K, D*D) stack, one GEMM."""
        flat = rows(stack)
        # the projection is subtracted at once, so no stack-sized copy of
        # it stays alive while the norms are taken
        return _max_relative(flat - self.coordinates(flat) @ self.basis_matrix, flat)

    def closure_residuals(self) -> tuple[float, float]:
        """Membership residuals of the basis adjoints and of the products
        of basis pairs: closure under * and under products."""
        b = self.stack
        return self.stack_residual(adjoint(b)), self.stack_residual(pair_products(b, b))

    def contains(self, x: Operator) -> tuple[bool, float]:
        """Membership test of one operator."""
        res = self.contains_all([x])
        return res < RESIDUAL_TOL, res

    def contains_all(self, ops: Iterable[Operator]) -> float:
        """Max membership residual over a family of operators."""
        ops = list(ops)
        if any(x.space != self.space for x in ops):
            raise LegMismatchError("operator lives on a different space")
        flat = np.reshape([x.matrix for x in ops], (len(ops), self.basis_matrix.shape[1]))
        return self.stack_residual(flat)

    def equals(self, other: "OperatorSubspace") -> tuple[bool, float]:
        """Two-sided span inclusion, max residual over both directions."""
        r = max(self.stack_residual(other.stack), other.stack_residual(self.stack))
        return r < RESIDUAL_TOL, r


def span(family: Sequence[Operator]) -> OperatorSubspace:
    """Orthonormalize a family of operators in the HS inner product.

    SVD of the vectorized stack with rank cutoff sigma > RANK_TOL * sigma_max.
    """
    family = list(family)
    if not family:
        raise ValueError("span of an empty family")
    sp = family[0].space
    for f in family[1:]:
        if f.space != sp:
            raise LegMismatchError("family members live on different spaces")
    return span_matrices(sp, np.array([f.matrix.ravel() for f in family]))


def span_matrices(sp: TensorSpace, stack: np.ndarray) -> OperatorSubspace:
    """span() on a stack of operators, (K, D, D) or vectorized (K, D*D)."""
    _, s, vh = np.linalg.svd(rows(stack), full_matrices=False)
    return OperatorSubspace(sp, np.ascontiguousarray(vh[: numerical_rank(s)]))


def tensor_subspace(a: OperatorSubspace, b: OperatorSubspace) -> OperatorSubspace:
    """Span of {x (x) y} for x, y ranging over the bases of a and b.

    Kronecker products of HS-orthonormal bases are HS-orthonormal, so no
    re-orthonormalization is needed.
    """
    sp = TensorSpace(a.space.legs + b.space.legs)
    return OperatorSubspace(sp, rows(kron_stack(a.stack, b.stack)))


def antimultiplicativity(f: Callable[[np.ndarray], np.ndarray], stack: np.ndarray) -> float:
    """Max residual of f(x y) = f(y) f(x) over pairs from a basis stack;
    f maps a stack of matrices to the stack of their images."""
    fx = f(stack)
    return max_gap(f(pair_products(stack, stack)), reversed_products(fx, fx))


def star_preservation(f: Callable[[np.ndarray], np.ndarray], stack: np.ndarray) -> float:
    """Max residual of f(x*) = f(x)* over a basis stack."""
    return max_gap(f(adjoint(stack)), adjoint(f(stack)))


@dataclass(frozen=True)
class SpanMap:
    """A linear map on a span: column j of ``matrix`` is the vectorized
    image of the j-th domain basis element, (D*D, domain.dim)."""

    domain: OperatorSubspace
    matrix: np.ndarray

    def apply(self, x: Operator | np.ndarray) -> Operator | np.ndarray:
        """The image of an Operator, or of each matrix of a (K, D, D)
        stack, through its domain coordinates (the part of x off the
        domain is dropped)."""
        if isinstance(x, Operator):
            return Operator(self.domain.space, self.apply(x.matrix[None])[0])
        return (self.domain.coordinates(x) @ self.matrix.T).reshape(x.shape)


class LstsqSolver:
    """Minimum-norm least-squares solver for a fixed map A: the SVD is
    taken once, each solve is two small products.  ``nullity`` is the
    dimension of the kernel of A at the rank cutoff."""

    def __init__(self, map_matrix: np.ndarray):
        self.a = np.asarray(map_matrix, dtype=complex)
        u, s, vh = np.linalg.svd(self.a, full_matrices=False)
        rank = numerical_rank(s)
        self._u, self._s, self._vh = u[:, :rank], s[:rank], vh[:rank]
        self.nullity = self.a.shape[1] - rank

    def solve(self, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(solution x, residual ||Ax - b||) for a vector b; for a matrix b,
        column by column, with one residual per column."""
        b = np.asarray(rhs, dtype=complex)
        x = self._vh.conj().T @ ((self._u.conj().T @ b).T / self._s).T
        return x, np.linalg.norm(self.a @ x - b, axis=0)


def lsq_solve(map_matrix: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, float, int]:
    """Minimum-norm least-squares solve at the RANK_TOL cutoff:
    (solution, residual, nullity)."""
    solver = LstsqSolver(map_matrix)
    x, residual = solver.solve(np.ravel(rhs))
    return x, float(residual), solver.nullity
