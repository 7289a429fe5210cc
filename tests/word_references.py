"""Full-matrix forms of leg words and of tensor-product spans, for tests.

``kron_word`` is the dense reference: every factor embedded as an
n^3 x n^3 matrix through ``np.kron`` and a leg permutation, the factors
multiplied as matrices.  ``engine_word`` assembles the same matrix from
the column blocks of ``tensor.LegWords``, so a test can look at what the
engine computes entry by entry.  ``kron_subspace`` is the Kronecker
basis of a (x) b, dim a * dim b rows of n^4 entries, against which the
leg-wise ``tensor.tensor_fit`` is compared.
"""

import numpy as np

from mpi_lab.axioms import IDENTITY_WORDS
from mpi_lab.context import as_fixture
from mpi_lab.tensor import LegWords, OperatorSubspace, TensorSpace, kron_stack, rows


def kron_subspace(a, b):
    """Span of {x (x) y} for x, y over the bases of a and b, x-major:
    Kronecker products of HS-orthonormal bases are HS-orthonormal."""
    sp = TensorSpace(a.space.legs + b.space.legs)
    return OperatorSubspace(sp, rows(kron_stack(a.stack, b.stack)))


def kron_embed(x, legs, dims):
    """x (on two legs of the given dims) acting on ``legs`` of the
    ambient legs ``dims``, identity elsewhere, by np.kron."""
    nlegs = len(dims)
    rest = [p for p in range(1, nlegs + 1) if p not in legs]
    big = np.kron(x, np.eye(int(np.prod([dims[p - 1] for p in rest]))))
    order = list(legs) + rest
    t = big.reshape([dims[p - 1] for p in order] * 2)
    perm = [order.index(p) for p in range(1, nlegs + 1)]
    d = int(np.prod(dims))
    return t.transpose(perm + [nlegs + a for a in perm]).reshape(d, d)


def kron_word(ambient, ops, word):
    """The matrix of a leg word, factor by factor as dense matrices."""
    d = ambient.total_dim
    out = np.eye(d, dtype=complex)
    for f in word.split():
        legs = (int(f[-2]), int(f[-1]))
        out = out @ kron_embed(ops[f[:-2]].matrix, legs, ambient.dims)
    return out


def engine_word(ambient, ops, word):
    """The matrix of a leg word, assembled from LegWords column blocks."""
    words = LegWords(ambient, ops, {"word": (word, word)})
    out = np.zeros((ambient.total_dim,) * 2, complex)
    for cols in words.column_blocks:
        out[:, cols.start:cols.stop] = words.block(word, cols).reshape(-1, len(cols))
    return out


def identity_sides(w, name):
    """Left and right side of one of the ten leg identities, as the
    engine's matrices."""
    fx = as_fixture(w)
    ops = {"W": fx.w, "W*": fx.ws}
    return tuple(engine_word(fx.three_leg, ops, word) for word in IDENTITY_WORDS[name])
