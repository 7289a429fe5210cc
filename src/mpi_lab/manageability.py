"""Manageability: the positive operator Q and the companion Wtilde.

Wtilde on Hbar (x) H is pinned down entrywise by the characterizing
pairing <W(xi (x) v), eta (x) u> = <Wt(eta-bar (x) Q^{-1}v), xi-bar (x) Qu>:
it is the partial transpose on the first leg of (1 (x) Q^{-1}) W (1 (x) Q).
The certificate evaluates the commutation condition, both composability
identities on the typed three-leg spaces, the characterizing grid, and
the Q^{it} covariances.
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
    Operator,
    TensorSpace,
    identity,
    leg_word,
    max_gap,
    numerical_rank,
    rel_residual,
    swap_legs,
    transpose_op,
)

#: the most Q candidates suggest_q returns (the identity included)
MAX_Q_CANDIDATES = 8

# Composability identities as (ambient leg flavors, left word, right word)
# in the notation of tensor.leg_word, over W, Wt = Wtilde on Hbar (x) H
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
        lhs, rhs = (leg_word(amb, ops, word).matrix for word in (left, right))
        out[name] = rel_residual(lhs, rhs)
    return out


@dataclass(frozen=True)
class ManageabilityCertificate:
    q: Operator
    wtilde: Operator
    residual_cond1: float
    residual_cond2_grid: float
    residual_cond3a: float
    residual_cond3b: float
    residual_alt_char: float
    residual_qit_covariance: float
    residual_qit_covariance_wtilde: float
    passed: bool

    def residuals(self) -> dict[str, float]:
        return {
            "cond1_commutation": self.residual_cond1,
            "cond2_grid": self.residual_cond2_grid,
            "cond3a": self.residual_cond3a,
            "cond3b": self.residual_cond3b,
            "alt_characterization": self.residual_alt_char,
            "qit_covariance_W": self.residual_qit_covariance,
            "qit_covariance_Wtilde": self.residual_qit_covariance_wtilde,
        }


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


def _grid_residual(w: Operator, qd: QData, wt: Operator, alt: bool) -> float:
    """Relative gap of the characterizing pairing over the full basis grid.

    alt=False: <W(xi (x) v), eta (x) u> = <Wt(eta- (x) Q^{-1}v), xi- (x) Qu>
    alt=True:  <W(xi (x) v), eta (x) u> = <Wt(Q^{-T}eta- (x) v), Q^T xi- (x) u>
    for xi, eta, v, u running over the standard basis (where the
    conjugation map fixes the coordinates).  All n^4 pairings are
    evaluated at once; the left side is just W's entry grid.
    """
    n = w.space.legs[0].dim
    qm, qinv = qd.q.matrix, qd.qinv
    lhs = w.matrix.reshape(n, n, n, n)  # [eta, u, xi, v]
    t = wt.matrix.reshape(n, n, n, n)
    if not alt:
        rhs = np.einsum("xdec,du,cv->euxv", t, qm.conj(), qinv)
    else:
        rhs = np.einsum("aubv,ax,be->euxv", t, qm.T.conj(), qinv.T)
    return rel_residual(lhs, rhs)


def check_manageability(
    w: Operator | Fixture, q: Operator, tol: float = RESIDUAL_TOL
) -> ManageabilityCertificate:
    """Build Wtilde and evaluate the full manageability apparatus."""
    fx = as_fixture(w)
    qd = fx.q_data(q)
    wt = build_wtilde(fx, q)
    w, n = fx.w, fx.n
    qq = np.kron(q.matrix, q.matrix)
    cond1 = rel_residual(w.matrix @ qq, qq @ w.matrix)
    cond2 = _grid_residual(w, qd, wt, alt=False)
    alt_char = _grid_residual(w, qd, wt, alt=True)

    cond3 = _composability(fx, wt, ("cond3a", "cond3b"))

    qit_w = 0.0
    qit_wt = 0.0
    for t in T_SAMPLES:
        qt = qd.eig.power(1j * t)
        qmt = qd.eig.power(-1j * t)
        qq_t = np.kron(qt, qt)
        qq_mt = np.kron(qmt, qmt)
        qit_w = max(qit_w, rel_residual(qq_t @ w.matrix @ qq_mt, w.matrix))
        # ([Q^T]^{-it} (x) Q^{it}) Wt ([Q^T]^{it} (x) Q^{-it}) = Wt
        qt_t = qd.eig_t.power(1j * t)
        qt_mt = qd.eig_t.power(-1j * t)
        lhs_wt = np.kron(qt_mt, qt) @ wt.matrix @ np.kron(qt_t, qmt)
        qit_wt = max(qit_wt, rel_residual(lhs_wt, wt.matrix))

    passed = all(
        r < tol for r in (cond1, cond2, *cond3.values(), alt_char, qit_w, qit_wt)
    )
    return ManageabilityCertificate(
        q=q,
        wtilde=wt,
        residual_cond1=cond1,
        residual_cond2_grid=cond2,
        residual_cond3a=cond3["cond3a"],
        residual_cond3b=cond3["cond3b"],
        residual_alt_char=alt_char,
        residual_qit_covariance=qit_w,
        residual_qit_covariance_wtilde=qit_wt,
        passed=passed,
    )


def check_hash_identities(
    w: Operator | Fixture, q: Operator, wt: Operator
) -> dict[str, float]:
    """The three composability identities on Hbar (x) Hbar (x) H and the
    slice/transpose identity over the basis grid."""
    fx = as_fixture(w)
    n = fx.n
    res = _composability(fx, wt, ("hash1", "hash2", "hash3"))

    # (id (x) w_{Q^{-1}e_v, Qe_u})(Wt) = [(id (x) w_{e_v,e_u})(W)]^T over the
    # grid; w_{a,b} has density a b*, so the left side at (v, u) is
    # sum_{k,l} Wt[(i,k),(j,l)] Q^{-1}[l,v] conj(Q[k,u])
    qm, qinv = q.matrix, fx.q_data(q).qinv
    lhs = np.einsum("ikjl,lv,ku->vuij", wt.tensor(), qinv, qm.conj())
    rhs = np.swapaxes(fx.right_slices, 1, 2)  # slice (v, u) at index v*n + u
    res["slice_transpose_identity"] = max_gap(lhs.reshape(n * n, n, n), rhs)
    return res


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
