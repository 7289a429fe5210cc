"""Manageability: the positive operator Q and the companion Wtilde.

Wtilde on Hbar (x) H is pinned down entrywise by the characterizing
pairing <W(xi (x) v), eta (x) u> = <Wt(eta-bar (x) Q^{-1}v), xi-bar (x) Qu>:
it is the partial transpose on the first leg of (1 (x) Q^{-1}) W (1 (x) Q).
The certificate evaluates what manageability asks of (W, Q): that W
commutes with Q (x) Q (cond1), and the two composability identities on
the typed three-leg spaces (cond3a, cond3b).  The alternative
characterization and the Q^{it} covariances of W and Wtilde restate cond1,
as does cond1 on W-hat, so none is evaluated (README, "statements that
hold for every input").  W-hat's certificate (``dual_manageability``)
takes its composability identities from W's, which they mirror up to the
gap between W-hat's Wtilde and the formula candidate, whenever that
bound decides them; hash1 and hash2 take bounds from the axiom gaps.

``build_wtilde`` solves the characterizing pairing, so that pairing, and
the slice/transpose identity
(id (x) w_{Q^{-1}v, Qu})(Wt) = [(id (x) w_{v,u})(W)]^T that follows from
it, hold by construction for every W and self-adjoint Q.  Neither is
measured here; tests check the construction against both
(``TestBuildWtilde::test_pairing_grid_fixed_random_q`` and
``test_slice_transpose_against_loop``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .axioms import takes_bound
from .context import Fixture
from .tensor import (
    H,
    HBAR,
    LegSpec,
    LegWords,
    Operator,
    TensorSpace,
    factor,
    identity,
    rel_residual,
    relative,
    spectral_norm,
    swap_legs,
    transpose_op,
)

#: the most Q candidates suggest_q returns (the identity included)
MAX_Q_CANDIDATES = 8

# Composability identities as (ambient leg flavors, left word, right word)
# in the notation of tensor.LegWords, over W, Wt = Wtilde on Hbar (x) H
# and WT = W^T on Hbar (x) Hbar.
COMPOSABILITY_WORDS = {
    "cond3a": ((HBAR, HBAR, H), "Wt13 Wt23 Wt*23", "WT12 WT*12 Wt13"),
    "cond3b": ((HBAR, H, H), "W23 W*23 Wt13", "Wt13 Wt12 Wt*12"),
    "hash1": ((HBAR, HBAR, H), "WT12 Wt23 WT*12", "Wt13 Wt23"),
    "hash2": ((HBAR, HBAR, H), "WT*12 WT12 Wt23", "Wt23 WT*12 WT12"),
    "hash3": ((HBAR, HBAR, H), "Wt23 WT*12 Wt*23", "WT*12 Wt13"),
}


def _composability(fx: Fixture, wt: Operator, names: tuple[str, ...]) -> dict[str, np.ndarray]:
    """``LegWords.norms`` of the named identities."""
    wtop = transpose_op(fx.w)
    ops = {"W": fx.w, "W*": fx.ws, "Wt": wt, "Wt*": wt.adj, "WT": wtop, "WT*": wtop.adj}
    out = {}
    # one engine per ambient space, so the identities on one space share
    # their fused factors
    for flavors, group in groupby(names, key=lambda name: COMPOSABILITY_WORDS[name][0]):
        amb = TensorSpace(tuple(LegSpec(fx.n, f) for f in flavors))
        pairs = {name: COMPOSABILITY_WORDS[name][1:] for name in group}
        out.update(LegWords(amb, ops, pairs).norms())
    return out


@dataclass(frozen=True)
class ManageabilityCertificate:
    """Wtilde for Q, and the certificate's residuals keyed by check id."""

    q: Operator
    wtilde: Operator
    residuals: dict[str, float]
    passed: bool
    #: (||L - R||_F, ||R||_F) of cond3a and cond3b, which bound W-hat's
    #: (``dual_manageability``)
    cond3_gaps: dict[str, tuple[float, float]]


def build_wtilde(fx: Fixture, q: Operator) -> Operator:
    """Partial transpose on leg 1 of (1 (x) Q^{-1}) W (1 (x) Q), living
    on Hbar (x) H: the unique bounded solution of the characterizing
    equation in finite dimension."""
    qinv = fx.q_data(q).power(-1)
    n = fx.n
    x = np.kron(np.eye(n), qinv) @ fx.w.matrix @ np.kron(np.eye(n), q.matrix)
    t = x.reshape(n, n, n, n)
    # Wt_{(a,d),(b,c)} = X_{(b,d),(a,c)}
    wt = np.einsum("bdac->adbc", t).reshape(n * n, n * n)
    leg = fx.w.space.legs[0]
    sp = TensorSpace((LegSpec(leg.dim, HBAR), leg))
    return Operator(sp, wt)


def check_manageability(fx: Fixture, q: Operator) -> ManageabilityCertificate:
    """Build Wtilde and evaluate the certificate, cond1 and cond3a/cond3b,
    judged at the context's tol."""
    wt = build_wtilde(fx, q)
    norms = _composability(fx, wt, ("cond3a", "cond3b"))
    qq = np.kron(q.matrix, q.matrix)
    res = {"cond1_commutation": rel_residual(fx.w.matrix @ qq, qq @ fx.w.matrix),
           **relative(norms)}
    passed = all(r < fx.tol for r in res.values())
    return ManageabilityCertificate(q=q, wtilde=wt, residuals=res, passed=passed,
                                    cond3_gaps={name: (float(gap), float(rhs))
                                                for name, (gap, _, rhs) in norms.items()})


def check_hash_identities(fx: Fixture, q: Operator, wt: Operator,
                          bounds: dict[str, float] | None = None) -> dict[str, float]:
    """The three composability identities on Hbar (x) Hbar (x) H.  The gaps
    of hash1 and hash2 are at most kappa(Q) = lambda_max/lambda_min times
    ``bounds`` (``MpiVerdict.bounds``; derived at ``axioms.dependent_bounds``):
    an entry whose bound ``takes_bound`` accepts reports it, and every other
    one, hash3 among them, is evaluated."""
    vals = fx.q_data(q).vals
    kappa = vals.max() / vals.min()
    names, bounds = ("hash1", "hash2", "hash3"), bounds or {}
    bound = {name: float(kappa * bounds.get(name, np.inf)) for name in names}
    exact = relative(_composability(fx, wt, tuple(name for name in names
                                                  if not takes_bound(bound[name], fx))))
    return {name: exact.get(name, bound[name]) for name in names}


def dual_manageability(fx: Fixture, cert: ManageabilityCertificate,
                       bounds: dict[str, float] | None = None) -> tuple[dict[str, float], float]:
    """W-hat's cond3a and cond3b with W's Q (``cert.q``), and the residual
    between the formula candidate C = (Sigma Wt* Sigma)^{T (x) T} and the
    direct construction of W-hat's Wtilde.

    cond3a and cond3b of W-hat follow from W's.  W-hat^T = Sigma conj(W) Sigma
    and C = Sigma conj(Wt) Sigma, so with C for W-hat's Wtilde each word of
    W-hat's cond3a is the entrywise conjugate of a word of W's cond3b with
    legs 1 and 3 exchanged, its left word of W's right one and the other way
    round, and so for cond3b and cond3a: the gap is W's (``cert.cond3_gaps``)
    and the left norm W's right norm.  W-hat's Wtilde is C + D,
    D = 0 under cond1, and ||D||_F is the formula gap taken here.  A word
    with three factors X changes by at most sum ||X - Y||_F ||other||_2 when
    Y = C stands for X, with ||D_ij||_F = sqrt(n) ||D||_F, ||W-hat^T||_2 = s
    = ||W||_2, ||C||_2 = t = ||Wt||_2 and ||C + D||_2 <= t' = t + ||D||_F; so
    each gap moves by at most sqrt(n) ||D||_F (s^2 + t^2 + t t' + t'^2), the
    left norm too, and the residual is at most
    (g + that) / max(1, ||R|| - that).  ``bounds`` is ``MpiVerdict.bounds``,
    whose ``dual_cond3_per_wtilde_gap`` is s^2.  An identity whose bound
    ``takes_bound`` accepts reports it, and every other one is evaluated on
    W-hat.  At D = 0 the move is 0 whatever t is, so t is taken only when
    D is not 0.  W-hat's cond1 gap is W's, since Sigma commutes with
    Q (x) Q, and is not evaluated (README)."""
    q, wt, dual = cert.q, cert.wtilde, fx.dual
    wt_hat = build_wtilde(dual, q)
    candidate = transpose_op(swap_legs(wt.adj)).matrix
    gap = float(np.linalg.norm(candidate - wt_hat.matrix))
    s2 = (bounds or {}).get("dual_cond3_per_wtilde_gap", math.inf)
    t = float(spectral_norm(wt.matrix)) if gap else 0.0
    t1 = t + gap
    move = math.sqrt(fx.n) * gap * (s2 + t * t + t * t1 + t1 * t1)
    bound = {}
    for name, primal in (("cond3a", "cond3b"), ("cond3b", "cond3a")):
        g, rhs = cert.cond3_gaps[primal]
        bound[name] = (g + move) / max(1.0, rhs - move)
    exact = relative(_composability(dual, wt_hat, tuple(name for name in bound
                                                        if not takes_bound(bound[name], fx))))
    return ({name: exact.get(name, bound[name]) for name in bound},
            gap / max(1.0, float(np.linalg.norm(candidate))))


def inclusion_consequences(fx: Fixture, q: Operator) -> dict[str, float]:
    """(Q (x) Q)E = E(Q (x) Q)E and the same for G, consequences of the
    commutation condition."""
    e, g = fx.e.matrix, fx.g.matrix
    qq = np.kron(q.matrix, q.matrix)
    return {
        "QQE_consequence": rel_residual(qq @ e, e @ qq @ e),
        "QQG_consequence": rel_residual(qq @ g, g @ qq @ g),
    }


def suggest_q(fx: Fixture) -> list[Operator]:
    """Heuristic Q candidates, at most MAX_Q_CANDIDATES: the identity, plus
    positive diagonal matrices whose log-diagonals solve the commutation
    constraint.

    Each nonzero entry W_{(i,k),(j,l)} forces
    log q_i + log q_k - log q_j - log q_l = 0; the null space of the
    constraint matrix parametrizes all valid diagonal candidates.
    The caller certifies each candidate via check_manageability.
    """
    n = fx.n
    leg_sp = fx.leg_space
    cands = [identity(leg_sp)]
    # one row e_i + e_k - e_j - e_l per nonzero entry (i, k, j, l)
    entries = np.argwhere(np.abs(fx.w.matrix.reshape(n, n, n, n)) > 1e-12)
    eye = np.eye(n)
    rows = eye[entries[:, 0]] + eye[entries[:, 1]] - eye[entries[:, 2]] - eye[entries[:, 3]]
    rows = rows[np.any(rows != 0, axis=1)]
    if rows.size:
        # the full V* is needed only when rows cannot span all n directions
        _, _, vh, rank = factor(rows, full=len(rows) < n)
        null = vh[rank:]
    else:
        null = np.eye(n)
    for row in null:
        if np.linalg.norm(row - row.mean()) < 1e-12:
            continue  # constant shifts rescale Q, already covered by I
        for scale in (1.0, 0.5):
            d = np.exp(scale * row)
            cands.append(Operator(leg_sp, np.diag(d)))
            if len(cands) >= MAX_Q_CANDIDATES:
                return cands
    return cands
