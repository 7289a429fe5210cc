"""Manageability: the positive operator Q and the companion Wtilde.

Wtilde on Hbar (x) H is pinned down entrywise by the characterizing
pairing <W(xi (x) v), eta (x) u> = <Wt(eta-bar (x) Q^{-1}v), xi-bar (x) Qu>:
it is the partial transpose on the first leg of (1 (x) Q^{-1}) W (1 (x) Q).
The certificate evaluates the commutation condition, both composability
identities on the typed three-leg spaces, the alternative
characterization over the basis grid, and the Q^{it} covariances.

``build_wtilde`` solves the characterizing pairing, so that pairing, and
the slice/transpose identity
(id (x) w_{Q^{-1}v, Qu})(Wt) = [(id (x) w_{v,u})(W)]^T that follows from
it, hold by construction for every W and self-adjoint Q.  Neither is
measured here; tests check the construction against both
(``TestBuildWtilde::test_pairing_grid_fixed_random_q`` and
``test_slice_transpose_against_loop``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .context import Fixture, QData, as_fixture
from .tensor import (
    RESIDUAL_TOL,
    T_SAMPLES,
    H,
    HBAR,
    LegSpec,
    LegWords,
    Operator,
    TensorSpace,
    identity,
    numerical_rank,
    rel_residual,
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


def _composability(fx: Fixture, wt: Operator, names: tuple[str, ...]) -> dict[str, float]:
    wtop = transpose_op(fx.w)
    ops = {"W": fx.w, "W*": fx.ws, "Wt": wt, "Wt*": wt.adj, "WT": wtop, "WT*": wtop.adj}
    out = {}
    for name in names:
        flavors, left, right = COMPOSABILITY_WORDS[name]
        amb = TensorSpace(tuple(LegSpec(fx.n, f) for f in flavors))
        out.update(LegWords(amb, ops, {name: (left, right)}).residuals())
    return out


@dataclass(frozen=True)
class ManageabilityCertificate:
    """Wtilde for Q, and the certificate's residuals keyed by check id."""

    q: Operator
    wtilde: Operator
    residuals: dict[str, float]
    passed: bool


def build_wtilde(w: Operator | Fixture, q: Operator) -> Operator:
    """Partial transpose on leg 1 of (1 (x) Q^{-1}) W (1 (x) Q), living
    on Hbar (x) H: the unique bounded solution of the characterizing
    equation in finite dimension."""
    fx = as_fixture(w)
    qinv = fx.q_data(q).qinv
    n = fx.n
    x = np.kron(np.eye(n), qinv) @ fx.w.matrix @ np.kron(np.eye(n), q.matrix)
    t = x.reshape(n, n, n, n)
    # Wt_{(a,d),(b,c)} = X_{(b,d),(a,c)}
    wt = np.einsum("bdac->adbc", t).reshape(n * n, n * n)
    leg = fx.w.space.legs[0]
    sp = TensorSpace((LegSpec(leg.dim, HBAR), leg))
    return Operator(sp, wt)


def _grid_residual(w: Operator, qd: QData, wt: Operator) -> float:
    """Relative gap of the alternative characterization
    <W(xi (x) v), eta (x) u> = <Wt(Q^{-T}eta- (x) v), Q^T xi- (x) u>
    for xi, eta, v, u running over the standard basis (where the
    conjugation map fixes the coordinates).  All n^4 pairings are
    evaluated at once; the left side is just W's entry grid.
    """
    n = w.space.legs[0].dim
    qm, qinv = qd.q.matrix, qd.qinv
    lhs = w.matrix.reshape(n, n, n, n)  # [eta, u, xi, v]
    t = wt.matrix.reshape(n, n, n, n)
    rhs = np.einsum("aubv,ax,be->euxv", t, qm.T.conj(), qinv.T, optimize=True)
    return rel_residual(lhs, rhs)


def check_manageability(
    w: Operator | Fixture, q: Operator, tol: float = RESIDUAL_TOL
) -> ManageabilityCertificate:
    """Build Wtilde and evaluate the full manageability apparatus."""
    fx = as_fixture(w)
    qd = fx.q_data(q)
    wt = build_wtilde(fx, q)
    w = fx.w
    qq = np.kron(q.matrix, q.matrix)
    res = {"cond1_commutation": rel_residual(w.matrix @ qq, qq @ w.matrix)}
    res.update(_composability(fx, wt, ("cond3a", "cond3b")))
    res["alt_characterization"] = _grid_residual(w, qd, wt)

    qit_w = 0.0
    qit_wt = 0.0
    for t in T_SAMPLES:
        qt = qd.eig.power(1j * t)
        qmt = qd.eig.power(-1j * t)
        qq_t = np.kron(qt, qt)
        qq_mt = np.kron(qmt, qmt)
        qit_w = max(qit_w, rel_residual(qq_t @ w.matrix @ qq_mt, w.matrix))
        # ([Q^T]^{-it} (x) Q^{it}) Wt ([Q^T]^{it} (x) Q^{-it}) = Wt, where
        # [Q^T]^z = [Q^z]^T for a positive Q
        lhs_wt = np.kron(qmt.T, qt) @ wt.matrix @ np.kron(qt.T, qmt)
        qit_wt = max(qit_wt, rel_residual(lhs_wt, wt.matrix))
    res["qit_covariance_W"] = qit_w
    res["qit_covariance_Wtilde"] = qit_wt
    passed = all(r < tol for r in res.values())
    return ManageabilityCertificate(q=q, wtilde=wt, residuals=res, passed=passed)


def check_hash_identities(w: Operator | Fixture, wt: Operator) -> dict[str, float]:
    """The three composability identities on Hbar (x) Hbar (x) H."""
    return _composability(as_fixture(w), wt, ("hash1", "hash2", "hash3"))


def dual_manageability(
    w: Operator | Fixture, q: Operator, wt: Operator
) -> tuple[ManageabilityCertificate, float]:
    """Certificate for W-hat with the same Q, plus the residual between
    the formula candidate (Sigma Wt* Sigma)^{T (x) T} and the direct
    construction (the certificate's Wtilde of W-hat)."""
    cert = check_manageability(as_fixture(w).dual, q)
    candidate = transpose_op(swap_legs(wt.adj))
    return cert, rel_residual(candidate.matrix, cert.wtilde.matrix)


def inclusion_consequences(w: Operator | Fixture, q: Operator) -> dict[str, float]:
    """(Q (x) Q)E = E(Q (x) Q)E and the same for G, consequences of the
    commutation condition."""
    fx = as_fixture(w)
    e, g = fx.e.matrix, fx.g.matrix
    qq = np.kron(q.matrix, q.matrix)
    return {
        "QQE_consequence": rel_residual(qq @ e, e @ qq @ e),
        "QQG_consequence": rel_residual(qq @ g, g @ qq @ g),
    }


def suggest_q(w: Operator | Fixture) -> list[Operator]:
    """Heuristic Q candidates, at most MAX_Q_CANDIDATES: the identity, plus
    positive diagonal matrices whose log-diagonals solve the commutation
    constraint.

    Each nonzero entry W_{(i,k),(j,l)} forces
    log q_i + log q_k - log q_j - log q_l = 0; the null space of the
    constraint matrix parametrizes all valid diagonal candidates.
    The caller certifies each candidate via check_manageability.
    """
    fx = as_fixture(w)
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
        _, s, vh = np.linalg.svd(rows, full_matrices=len(rows) < n)
        null = vh[numerical_rank(s) :]
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
