"""Typed tensor-space linear algebra.

Operators live on an ordered list of legs, each a copy of C^d flavored
either ``H`` or ``Hbar`` (the conjugate space).  The conjugate space is
stored concretely as C^d with entrywise-conjugated coordinates, so the
transpose of an operator is the plain matrix transpose with the flavor
tag flipped.  Basis vectors of a multi-leg space are flattened C-order:
e_i (x) e_k maps to index i*n2 + k, first leg most significant, 0-based.

Products of embedded operators on three legs ("leg words") are evaluated
by ``LegWords`` one block of columns at a time, never as n^3 x n^3
matrices.  Adjacent factors on the same legs are fused into their
product first (W*_23 W_23 is E_23), so a word of two fused factors costs
n^7 over all columns and only a genuine three-factor word n^8.  Column
blocks are products of leg-index ranges, so the first two factors of a
word are sliced on them and contracted at once.  ``LegWords`` sums each
pair's squared gap and squared left norm over the blocks, so a partial
sum is a lower bound that a caller may stop on (``axioms.check_mpi_axioms``
does, and reports that bound as the residual of an identity it certifies
as failing).  ``chain`` fills a whole product from the same blocks, for
the coassociativity products of the exact path, which runs only when the
bound from the axiom gaps does not decide (``embed`` is its one-factor
case); ``embedded_mul`` multiplies one embedded factor into a whole matrix.

``Operator`` is always complex, but ``LegWords`` keeps a fused factor in
float64 when its matrix has an exactly zero imaginary part (the 0/1 W of
group and groupoid fixtures): numpy's type promotion turns a word complex
at its first complex factor, so a real word costs a quarter of the flops
and half the bytes of complex arithmetic, and for 0/1 matrices, whose
products and squared norms are exact integers, gives the same bits.

Membership in a tensor product a (x) b of two spans of one-leg operators
(A (x) A, N (x) L) has one evaluation, ``tensor_fit``: the orthogonal
projection taken leg by leg on the realigned members, in coordinates on
the products of the two bases, with no Kronecker basis formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import groupby
from typing import Callable, NamedTuple, Sequence

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
#: most entries of one LegWords column block, n^3 k for k columns (one at
#: least).  2^15 entries are 512 KiB complex and 256 KiB real: the
#: blocks alive at once stay far below one n^6-entry matrix at n = 10
#: (15.3 MiB complex), while each tensordot is still a GEMM with a few
#: hundred columns; larger blocks measured slower at n = 10.
BLOCK_ENTRIES = 2**15


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
    legs must match the ambient legs at the listed positions.  The
    one-factor ``chain``: the entries are written from x's columns, with
    no Kronecker product.
    """
    return chain(ambient, (x, legs))


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

    Contracts x with m's row legs one block of columns at a time, written
    into the product, so no embedded matrix and no second copy of m is
    formed; equals the embedded matrix product exactly.
    """
    legs = list(legs)
    _check_embedding(x, legs, m.space)
    dims, d = m.space.dims, m.space.total_dim
    mt = m.matrix.reshape(dims + (d,))
    xt, out = x.tensor(), np.empty_like(mt)
    step = max(1, BLOCK_ENTRIES // d)
    for s in range(0, d, step):
        out[..., s:s + step] = _apply(xt, legs, mt[..., s:s + step])
    return Operator(m.space, out.reshape(d, d))


class LegWords:
    """Named pairs (L, R) of leg words on one ambient space, evaluated
    together on column blocks, so no matrix of the ambient space is formed.

    A word is a product of embedded operators, leftmost first: each
    factor is a name from ``ops`` followed by the ambient legs it acts
    on, so with ops {"W": w, "W*": w.adj}, "W23 W*12" is W_23 W*_12.  Each
    factor is checked against the ambient legs once per word; then each
    run of adjacent factors on the same legs is fused into one factor,
    their matrix product, formed once per engine: "W*23 W23 W12" is
    evaluated as (W*W)_23 W_12.

    ``column_blocks`` are contiguous ranges of columns, each a product of
    leg-index ranges (whole runs of trailing-leg rows or slabs, none
    crossing its enclosing group) with n1 n2 n3 k <= BLOCK_ENTRIES.  A
    block is the columns S of a word's matrix as a (dims..., k) tensor.
    The product of the two rightmost factors is one contraction of the
    two factors sliced on the block's leg ranges (``_first``), n^4 k
    operations, with no Kronecker product and no gather; each further
    factor is one tensordot, n^5 k.  So a word of two factors costs n^7
    over all columns, and only a three-factor word such as
    W_12 W_13 W_23 costs n^8: per block, the ten axiom identities take 20
    starts and 5 tensordots, the E-leg words 4 and 1, and each
    composability pair 2 starts, plus 1 tensordot for hash1 and hash3.
    ``block`` evaluates one word right to left, and ``block_norms`` gives
    ||(L - R)_S||^2 and ||L_S||^2 per pair from those blocks, with L - R
    formed, so no difference of squared norms is taken; summed over
    ``column_blocks`` they give ``residuals``, the relative Frobenius gaps
    of rel_residual.  A partial sum over some blocks is a lower bound on
    ||L - R||^2, which ``axioms.check_mpi_axioms`` uses to stop a failing
    identity early.
    """

    def __init__(self, ambient: TensorSpace, ops: dict[str, Operator],
                 pairs: dict[str, tuple[str, str]]):
        self.dims, self.pairs = ambient.dims, pairs
        # fused factor (tuple of names) -> its (out legs, in legs) tensor
        self._tensors: dict[tuple[str, ...], np.ndarray] = {}
        self._words = {}
        for word in dict.fromkeys(w for pair in pairs.values() for w in pair):
            factors = []
            for f in word.split():
                name = f.rstrip("0123456789")
                legs = tuple(int(p) for p in f[len(name):])
                _check_embedding(ops[name], legs, ambient)
                factors.append((name, legs))
            self._words[word] = tuple(self._fuse(ops, factors))
        self._plans: dict[tuple, tuple] = {}
        self.column_blocks = _column_blocks(self.dims)

    def _fuse(self, ops: dict[str, Operator], factors: list):
        """Each run of adjacent factors on the same legs as one factor,
        its product kept real when its imaginary part is exactly zero."""
        for legs, run in groupby(factors, key=lambda f: f[1]):
            names = tuple(name for name, _ in run)
            if names not in self._tensors:
                m = reduce(np.matmul, (ops[name].matrix for name in names))
                if not m.imag.any():
                    m = np.ascontiguousarray(m.real)
                self._tensors[names] = m.reshape(ops[names[0]].space.dims * 2)
            yield names, legs

    def residuals(self) -> dict[str, float]:
        """||L - R|| / max(1, ||L||) of every pair, over all columns."""
        sums = {name: np.zeros(2) for name in self.pairs}
        for cols in self.column_blocks:
            for name, norms in self.block_norms(cols, self.pairs).items():
                sums[name] += norms
        return {name: float(np.sqrt(gap) / max(1.0, np.sqrt(lhs)))
                for name, (gap, lhs) in sums.items()}

    def block_norms(self, cols: range, names) -> dict[str, np.ndarray]:
        """[||(L - R)_S||^2, ||L_S||^2] of each named pair on the columns S."""
        out = {}
        for name in names:
            lhs, rhs = (self.block(w, cols) for w in self.pairs[name])
            out[name] = np.array([_sqnorm(lhs - rhs), _sqnorm(lhs)])
        return out

    def block(self, word: str, cols: range) -> np.ndarray:
        """The columns S of one word, a (dims..., k) array: the start of
        its two rightmost factors, then each further factor leftwards."""
        factors = self._words[word]
        i = max(0, len(factors) - 2)
        block = self._first(factors[i:], cols)
        for names, legs in reversed(factors[:i]):
            block = _apply(self._tensors[names], legs, block)
        return block

    def _first(self, factors: tuple, cols: range) -> np.ndarray:
        """The columns S of a product of one or two factors: each factor
        sliced (a view) on S's leg ranges, then one tensordot over the legs
        they share, the identity on legs neither acts on."""
        if factors not in self._plans:
            self._plans[factors] = _start_plan(factors, len(self.dims))
        slicing, contract, rest, perm = self._plans[factors]
        ranges = _leg_ranges(cols, self.dims)
        views = [self._tensors[names][tuple(slice(None) if p is None else ranges[p - 1]
                                            for p in axes)]
                 for (names, _), axes in zip(factors, slicing)]
        block = np.tensordot(*views, axes=contract) if contract else views[0]
        for p in rest:
            block = np.multiply.outer(block, np.eye(self.dims[p - 1])[:, ranges[p - 1]])
        return block.transpose(perm).reshape(self.dims + (len(cols),))


def _start_plan(factors: tuple, nlegs: int) -> tuple:
    """How ``LegWords._first`` evaluates a start of one or two factors:
    per factor, the leg whose range slices each of its axes (None: not
    sliced); the tensordot axes (None for one factor); the legs neither
    factor acts on; and the permutation from the contraction's axes, each
    labelled ("i", p) for an output leg p or ("j", p) for an input
    (column) leg p, to (outputs..., inputs...) in ambient order.  An input
    leg is sliced unless it is contracted."""
    (*left, (_, legs)) = factors
    slicing = [[None] * len(legs) + list(legs)]
    labels = [("i", p) for p in legs] + [("j", p) for p in legs]
    contract = None
    if left:
        (_, xlegs), = left
        free = [p for p in xlegs if p not in legs]
        slicing.insert(0, [None] * len(xlegs) + [p if p in free else None for p in xlegs])
        contract = ([len(xlegs) + xlegs.index(p) for p in xlegs if p in legs],
                    [legs.index(p) for p in xlegs if p in legs])
        labels = ([("i", p) for p in xlegs] + [("j", p) for p in free]
                  + [("i", p) for p in legs if p not in xlegs] + [("j", p) for p in legs])
    rest = [p for p in range(1, nlegs + 1) if ("i", p) not in labels]
    labels += [(side, p) for p in rest for side in ("i", "j")]
    perm = [labels.index((side, p)) for side in ("i", "j") for p in range(1, nlegs + 1)]
    return slicing, contract, rest, perm


def _column_blocks(dims: tuple[int, ...]) -> list[range]:
    """Column ranges with n1...nN k <= BLOCK_ENTRIES (k >= 1), each a
    product of leg-index ranges: the largest groups of trailing legs that
    fit (one column at least), as many per block as fit, split evenly
    within their enclosing group so that no block crosses it."""
    d = math.prod(dims)
    k = max(1, BLOCK_ENTRIES // d)
    t = next(t for t in range(len(dims) + 1) if math.prod(dims[t:]) <= k)
    if t == 0:
        return [range(d)]
    unit, units = math.prod(dims[t:]), dims[t - 1]  # group size, groups per enclosing one
    pieces = -(-units // (k // unit))
    bounds = [units * i // pieces for i in range(pieces + 1)]
    return [range(g + unit * a, g + unit * b)
            for g in range(0, d, unit * units) for a, b in zip(bounds, bounds[1:])]


def _leg_ranges(cols: range, dims: tuple[int, ...]) -> list[slice]:
    """The leg-index ranges whose product is the column block ``cols``."""
    first, last = np.unravel_index(cols.start, dims), np.unravel_index(cols.stop - 1, dims)
    return [slice(a, b + 1) for a, b in zip(first, last)]


def _sqnorm(x: np.ndarray) -> float:
    """||x||^2, summed in row-major order as np.linalg.norm sums it."""
    x = x.ravel()
    if np.isrealobj(x):
        return float(x @ x)
    return float(x.real @ x.real + x.imag @ x.imag)


def _ambient_order(legs: Sequence[int], nlegs: int) -> list[int]:
    """Axis permutation from (legs, other legs in order, column) to
    (ambient legs in order, column)."""
    order = [*legs, *(p for p in range(1, nlegs + 1) if p not in legs)]
    return [order.index(p) for p in range(1, nlegs + 1)] + [nlegs]


def _apply(xt: np.ndarray, legs: Sequence[int], block: np.ndarray) -> np.ndarray:
    """x, as a (out legs, in legs) tensor, applied on ``legs`` to a
    (dims..., k) block of columns."""
    nx = len(legs)
    res = np.tensordot(xt, block, axes=(range(nx, 2 * nx), [p - 1 for p in legs]))
    return res.transpose(_ambient_order(legs, block.ndim - 1))


def chain(ambient: TensorSpace, *factors: tuple[Operator, Sequence[int]]) -> Operator:
    """Product of embedded operators, right-to-left: chain(sp, (A,[1,2]), (B,[2,3]))
    is embed(A,[1,2]) @ embed(B,[2,3]).  Filled from the column blocks of
    LegWords, so the product is the only matrix of the ambient space formed."""
    if not factors:
        return identity(ambient)
    ops = {f"X{chr(97 + i)}": op for i, (op, _) in enumerate(factors)}
    word = " ".join(f"{name}{''.join(map(str, legs))}" for name, (_, legs) in zip(ops, factors))
    words = LegWords(ambient, ops, {"chain": (word, word)})
    d = ambient.total_dim
    out = np.empty((d, d), complex)
    for cols in words.column_blocks:
        out[:, cols.start:cols.stop] = words.block(word, cols).reshape(d, len(cols))
    return Operator(ambient, out)


def slice_matrix(
    m: np.ndarray, n1: int, n2: int, side: str, density: np.ndarray
) -> np.ndarray:
    """Slice a two-leg matrix, or each matrix of a stack, against a
    functional on one leg: (id (x) w)(m), the partial trace over leg 2 of
    m (1 (x) F), for side='right'; (w (x) id)(m), the partial trace over
    leg 1 of m (F (x) 1), for side='left'.  w(t) = trace(t F) with F the
    ``density``; the vector functional w_{a,b}(t) = <t a, b> has F = a b*."""
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


def all_right_slices(x: Operator) -> np.ndarray:
    """Stack of (id (x) w_{e_a,e_b})(X) over all (a, b), shape (n2^2, n1, n1),
    the slice for (a, b) at index a*n2 + b."""
    n1, n2 = x.space.dims
    return np.einsum("ibja->abij", x.matrix.reshape(n1, n2, n1, n2)).reshape(n2 * n2, n1, n1)


def all_left_slices(x: Operator) -> np.ndarray:
    """Stack of (w_{e_a,e_b} (x) id)(X) over all (a, b), shape (n1^2, n2, n2)."""
    n1, n2 = x.space.dims
    return np.einsum("bkal->abkl", x.matrix.reshape(n1, n2, n1, n2)).reshape(n1 * n1, n2, n2)


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

    def conjugate(self, z: complex, x: np.ndarray) -> np.ndarray:
        """p^z x p^{-z} for each matrix of a stack."""
        return self.power(z) @ x @ self.power(-z)


def transpose_grid(stack: np.ndarray) -> np.ndarray:
    """Reorder a stack over the functionals w_{e_a,e_b} (index a*n + b,
    as in all_right_slices) to the transposed functionals w_{e_b,e_a}."""
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

    def equals(self, other: "OperatorSubspace") -> float:
        """Two-sided span inclusion: the max residual over both directions."""
        return max(self.stack_residual(other.stack), other.stack_residual(self.stack))


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


class Fit(NamedTuple):
    """K members X_k of a stack against a tensor product a (x) b of two
    spans: coordinates c_k on the x_p (x) y_q, shape (K, dim a, dim b);
    ``off``, a bound on ||X_k - sum c_k x_p (x) y_q|| (the exact distance
    when c_k are the exact coordinates); and ``scale``, a lower bound on
    ||X_k||."""

    coords: np.ndarray
    off: np.ndarray
    scale: np.ndarray

    @property
    def membership(self) -> float:
        """Max of off over max(1, scale): at least the relative distance
        of stack_residual."""
        return float(np.max(self.off / np.maximum(1.0, self.scale), initial=0.0))


def tensor_fit(stack: np.ndarray, a: OperatorSubspace, b: OperatorSubspace) -> Fit:
    """The orthogonal projection of each two-leg matrix X of a stack on
    a (x) b, leg by leg, with no Kronecker basis formed: X realigned as
    x[(i,j),(k,l)] = X[(i,k),(j,l)], and with A and B the basis rows of a
    and b, the coordinates c = conj(A) x B^H, the exact distance
    ||x - A^T c B|| and the norm ||X||."""
    n1, n2 = a.space.total_dim, b.space.total_dim
    x = stack.reshape(-1, n1, n2, n1, n2).transpose(0, 1, 3, 2, 4).reshape(-1, n1 * n1, n2 * n2)
    if np.shares_memory(x, stack):  # a leg of dimension 1: the realignment is a view
        x = x.copy()
    coords = a.basis_matrix.conj() @ x @ b.basis_matrix.conj().T
    # in place: the projection is the only other copy
    x -= a.basis_matrix.T @ coords @ b.basis_matrix
    return Fit(coords, np.linalg.norm(x, axis=(1, 2)), np.linalg.norm(rows(stack), axis=1))


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

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The image of each matrix of a (K, D, D) stack through its
        domain coordinates (the part of x off the domain is dropped)."""
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
