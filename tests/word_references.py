"""Full-matrix forms of leg words, of tensor-product spans and of the
antipode maps, for tests.

``kron_word`` is the dense reference: every factor embedded as an
n^3 x n^3 matrix through ``np.kron`` and a leg permutation, the factors
multiplied as matrices.  ``engine_word`` assembles the same matrix from
the column blocks of ``tensor.LegWords``, so a test can look at what the
engine computes entry by entry.  ``kron_subspace`` is the Kronecker
basis of a (x) b, dim a * dim b rows of n^4 entries, against which the
leg-wise ``tensor.tensor_fit`` is compared.  ``_assemble`` builds a
linear map from its generator pairs through its own SVD of the inputs,
the reference for ``antipode.extend`` on the context's leg algebras;
``w_transpose_rhat`` assembles W^{T (x) Rhat} with R_Ahat through it.
``complex_storage`` stores every matrix as complex128, the reference for
the float64 storage of exactly real matrices.
"""

import numpy as np

from mpi_lab import tensor
from mpi_lab.antipode import AssembledMap
from mpi_lab.axioms import IDENTITY_WORDS
from mpi_lab.tensor import (
    RANK_TOL,
    LegWords,
    OperatorSubspace,
    TensorSpace,
    all_left_slices,
    kron_stack,
    rows,
    transpose_grid,
)


def complex_storage(monkeypatch):
    """Patch the dtype rule to store every matrix as complex128."""
    monkeypatch.setattr(tensor, "real_if_exact", lambda m: np.ascontiguousarray(m, dtype=complex))


def dense_rank(s):
    """The number of singular values (descending) above RANK_TOL * s[0]."""
    return int(np.sum(s > RANK_TOL * s[0])) if s.size and s[0] > 0.0 else 0


def kron_subspace(a, b):
    """Span of {x (x) y} for x, y over the bases of a and b, x-major:
    Kronecker products of HS-orthonormal bases are HS-orthonormal, so
    they are their own SVD with U = 1 and S = 1."""
    sp = TensorSpace(a.space.legs + b.space.legs)
    d = a.dim * b.dim
    return OperatorSubspace(sp, rows(kron_stack(a.stack, b.stack)), np.eye(d), np.ones(d))


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


def identity_sides(fx, name):
    """Left and right side of one of the ten leg identities of the context
    fx, as the engine's matrices."""
    ops = {"W": fx.w, "W*": fx.ws}
    return tuple(engine_word(fx.three_leg, ops, word) for word in IDENTITY_WORDS[name])


def _assemble(sp, ins, outs):
    """The least-squares linear extension of the map sending each input
    matrix of a stack to the output matrix at the same index, from one
    full SVD U S V* of the inputs (rank at the RANK_TOL cutoff): the domain
    basis is V*'s leading rows, and the inputs' domain coordinates are U S.
    The inconsistency is the spectral norm of the outputs' part on U's
    null columns, over max(1, ||outputs||)."""
    m_in, m_out = rows(ins), rows(outs)
    u, s, vh = np.linalg.svd(m_in, full_matrices=True)
    rank = dense_rank(s)
    domain = OperatorSubspace(sp, np.ascontiguousarray(vh[:rank]), u, s[:rank])
    scale = max(1.0, float(np.linalg.norm(m_out)))
    gap = np.linalg.norm(u[:, rank:].conj().T @ m_out, 2) / scale
    coeffs = (u[:, :rank].conj().T @ m_out) / s[:rank, None]
    return AssembledMap(domain, coeffs.T, float(gap))


def w_transpose_rhat(fx, wtilde):
    """W^{T (x) Rhat}: W expanded over the first-leg matrix units e_ij, each
    block W_ij = (w_{e_i,e_j} (x) id)(W) pushed through R_Ahat and each unit
    transposed, so R_Ahat(W_ij) lands at e_ji.  R_Ahat is assembled on span
    A-hat, sending the left slices of W to the transposed-functional left
    slices of Wt*; the paper's identity is W^{T (x) Rhat} = Wt*."""
    n = fx.n
    wt_star = transpose_grid(all_left_slices(wtilde.adj))  # w^T = w_{e_b,e_a}
    rahat = _assemble(fx.leg_space, fx.left_slices, wt_star)
    t = fx.w.tensor()
    out = np.zeros((n, n, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            out[j, :, i, :] += rahat.apply(t[i, :, j, :][None])[0]
    return out.reshape(n * n, n * n)
