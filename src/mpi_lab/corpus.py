"""Deterministic fixture generators.

The corpus mixes the 2x2 matrix-unit example, regular representations of
finite groups (the unitary case), finite-groupoid operators (the
genuinely non-unitary case), and metamorphic variants obtained by
unitary conjugation of verified fixtures.  Every generated operator is
checked against the multiplicativity axioms at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .axioms import check_mpi_axioms
from .tensor import RESIDUAL_TOL, Operator, kron, space


def _op2(n: int, matrix: np.ndarray) -> Operator:
    return Operator(space(n, n), matrix)


def matrix_unit_example() -> Operator:
    """The 4x4 operator e21 (x) e11 + e22 (x) e22 on C^2 (x) C^2."""
    m = np.zeros((4, 4))
    m[2, 0] = 1.0
    m[3, 3] = 1.0
    return _op2(2, m)


# ---------------------------------------------------------------------------
# Groups
# ---------------------------------------------------------------------------


def cyclic_table(n: int) -> list[list[int]]:
    """Multiplication table of Z/n (entry [g][h] = g+h mod n)."""
    return [[(g + h) % n for h in range(n)] for g in range(n)]


def _validate_group_table(table: list[list[int]]) -> int:
    n = len(table)
    rng_n = range(n)
    for row in table:
        if len(row) != n or sorted(row) != list(rng_n):
            raise ValueError("not a Latin square")
    for col in zip(*table):
        if sorted(col) != list(rng_n):
            raise ValueError("not a Latin square")
    # find identity
    idents = [g for g in rng_n if all(table[g][h] == h for h in rng_n)]
    if len(idents) != 1 or any(table[g][idents[0]] != g for g in rng_n):
        raise ValueError("no two-sided identity element")
    return n  # associativity is checked by GroupoidSpec (group_as_groupoid)


def group_mpu(table: list[list[int]]) -> Operator:
    """The regular-representation operator W(d_g (x) d_h) = d_g (x) d_{gh}:
    the groupoid operator of the group as a one-unit groupoid, with arrow
    i the element i.  Unitary, and multiplicative by the pentagon
    equation; the axioms are still verified at construction.
    """
    return groupoid_mpi(group_as_groupoid(table))


# ---------------------------------------------------------------------------
# Groupoids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupoidSpec:
    """A finite groupoid: arrows with partial composition.

    ``arrows`` maps arrow id -> (source, target); ``compose[(g, h)]``
    is defined exactly when source(g) == target(h).  Identity arrows
    and inverses are required; the axioms are validated on construction.
    """

    units: tuple[str, ...]
    arrows: tuple[tuple[str, str, str], ...]  # (id, source, target)
    compose: dict[tuple[str, str], str]
    inverse: dict[str, str]
    identity_arrows: dict[str, str] = field(default_factory=dict)  # unit -> arrow

    def __post_init__(self):
        object.__setattr__(self, "units", tuple(self.units))
        object.__setattr__(self, "arrows", tuple(tuple(a) for a in self.arrows))
        self._validate()

    @property
    def arrow_ids(self) -> list[str]:
        return [a[0] for a in self.arrows]

    def source(self, g: str) -> str:
        return self._st()[g][0]

    def target(self, g: str) -> str:
        return self._st()[g][1]

    def _st(self) -> dict[str, tuple[str, str]]:
        return {a: (s, t) for a, s, t in self.arrows}

    def composable(self, g: str, h: str) -> bool:
        return self.source(g) == self.target(h)

    def _validate(self):
        st = self._st()
        ids = set(st)
        if len(ids) != len(self.arrows):
            raise ValueError("duplicate arrow ids")
        for a, s, t in self.arrows:
            if s not in self.units or t not in self.units:
                raise ValueError(f"arrow {a} has unknown source/target")
        # composition defined exactly on composable pairs, with coherent
        # source/target
        for g in ids:
            for h in ids:
                defined = (g, h) in self.compose
                if defined != self.composable(g, h):
                    raise ValueError(f"composition domain wrong at ({g}, {h})")
                if defined:
                    gh = self.compose[(g, h)]
                    if gh not in ids:
                        raise ValueError(f"composite {gh} is not an arrow")
                    if st[gh] != (st[h][0], st[g][1]):
                        raise ValueError(f"source/target broken at ({g}, {h})")
        # associativity where defined
        for g in ids:
            for h in ids:
                if not self.composable(g, h):
                    continue
                for k in ids:
                    if not self.composable(h, k):
                        continue
                    if self.compose[(self.compose[(g, h)], k)] != self.compose[
                        (g, self.compose[(h, k)])
                    ]:
                        raise ValueError("composition not associative")
        # identities
        ident = dict(self.identity_arrows)
        if not ident:
            for u in self.units:
                cands = [
                    a
                    for a in ids
                    if st[a] == (u, u)
                    and all(
                        self.compose[(a, h)] == h for h in ids if st[h][1] == u
                    )
                    and all(
                        self.compose[(g, a)] == g for g in ids if st[g][0] == u
                    )
                ]
                if len(cands) != 1:
                    raise ValueError(f"unit {u} lacks a unique identity arrow")
                ident[u] = cands[0]
            object.__setattr__(self, "identity_arrows", ident)
        # inverses
        for g in ids:
            gi = self.inverse.get(g)
            if gi is None or gi not in ids:
                raise ValueError(f"arrow {g} lacks an inverse")
            if self.compose.get((g, gi)) != ident[st[g][1]]:
                raise ValueError(f"g g^-1 != id at {g}")
            if self.compose.get((gi, g)) != ident[st[g][0]]:
                raise ValueError(f"g^-1 g != id at {g}")


def pair_groupoid(n_units: int) -> GroupoidSpec:
    """The pair groupoid on n units: arrows (u, v), composition
    (u, v)(v, w) = (u, w)."""
    units = tuple(f"u{i}" for i in range(n_units))
    arrows = []
    for u in units:
        for v in units:
            arrows.append((f"{u}>{v}", v, u))  # arrow u>v goes v -> u
    compose = {}
    inverse = {}
    for u in units:
        for v in units:
            inverse[f"{u}>{v}"] = f"{v}>{u}"
            for w in units:
                compose[(f"{u}>{v}", f"{v}>{w}")] = f"{u}>{w}"
    return GroupoidSpec(units, tuple(arrows), compose, inverse)


def group_as_groupoid(table: list[list[int]], tag: str = "g") -> GroupoidSpec:
    """A finite group viewed as a one-unit groupoid."""
    n = _validate_group_table(table)
    e = next(g for g in range(n) if all(table[g][h] == h for h in range(n)))
    unit = f"{tag}*"
    arrows = tuple((f"{tag}{i}", unit, unit) for i in range(n))
    compose = {
        (f"{tag}{i}", f"{tag}{j}"): f"{tag}{table[i][j]}"
        for i in range(n)
        for j in range(n)
    }
    inverse = {
        f"{tag}{i}": f"{tag}{next(j for j in range(n) if table[i][j] == e)}"
        for i in range(n)
    }
    return GroupoidSpec((unit,), arrows, compose, inverse)


def disjoint_union(a: GroupoidSpec, b: GroupoidSpec) -> GroupoidSpec:
    """Disjoint union of two groupoids (no cross composition)."""
    overlap = set(a.arrow_ids) & set(b.arrow_ids) or set(a.units) & set(b.units)
    if overlap:
        raise ValueError(f"ids must be disjoint, shared: {sorted(overlap)}")
    return GroupoidSpec(
        a.units + b.units,
        a.arrows + b.arrows,
        {**a.compose, **b.compose},
        {**a.inverse, **b.inverse},
        {**a.identity_arrows, **b.identity_arrows},
    )


def groupoid_mpi(g: GroupoidSpec) -> Operator:
    """The groupoid operator on l2(arrows) (x) l2(arrows):
    W(d_g (x) d_h) = d_g (x) d_{gh} when source(g) = target(h), else 0.
    """
    ids = g.arrow_ids
    n = len(ids)
    index = {a: i for i, a in enumerate(ids)}
    m = np.zeros((n * n, n * n))
    for gg in ids:
        for hh in ids:
            if g.composable(gg, hh):
                m[index[gg] * n + index[g.compose[(gg, hh)]], index[gg] * n + index[hh]] = 1.0
    w = _op2(n, m)
    verdict = check_mpi_axioms(w)
    if not (verdict.is_partial_isometry and verdict.passed):
        raise AssertionError("groupoid operator failed the multiplicativity axioms")
    return w


# ---------------------------------------------------------------------------
# Metamorphic variants
# ---------------------------------------------------------------------------


def random_unitary(n: int, rng: np.random.Generator) -> Operator:
    """Haar-ish unitary: QR of a complex Gaussian with phase fix."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return Operator(space(n), q)


def conjugate_fixture(w: Operator, u: Operator) -> Operator:
    """(u (x) u) W (u (x) u)*; preserves every axiom-level verdict.  u must
    be unitary to RESIDUAL_TOL (absolute Frobenius gap of u u* from 1)."""
    if u.space.nlegs != 1 or u.space.legs[0] != w.space.legs[0]:
        raise ValueError("u must be a single-leg operator matching W's legs")
    um = u.matrix
    if np.linalg.norm(um @ um.conj().T - np.eye(um.shape[0])) > RESIDUAL_TOL:
        raise ValueError("u is not unitary at tolerance")
    uu = kron(u, u)
    return uu @ w @ uu.adj
