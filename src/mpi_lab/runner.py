"""Suite orchestration: run the check levels in dependency order.

``run_suite`` builds one ``Fixture`` context for W and hands it to every
level, so each shared quantity is computed once per call and nothing
outlives the call.  Levels run cumulatively (axioms -> coalgebra ->
base -> manageability -> antipode); each level function adds its own
entries and skip reasons and returns whether later levels may run.
Statements that hold only under the fullness hypothesis (density spans
equal A, L = L-hat, the dual weight) are emitted as checks only for
fixtures whose slice algebras act nondegenerately; otherwise their data
lands in the report properties.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .axioms import assess_fullness, check_mpi_axioms, projection_residuals
from .antipode import check_antipode, check_base_restrictions, check_duality
from .base_algebra import (
    c_star_bases,
    check_separability_triple,
    gamma_kappa_residual,
    kappa_q_checks,
)
from .coalgebra import (
    check_canonical_idempotent,
    check_delta_range_and_density,
    coassociativity_residual,
    duality_consistency,
)
from .context import Fixture
from .manageability import (
    ManageabilityCertificate,
    check_hash_identities,
    check_manageability,
    dual_manageability,
    inclusion_consequences,
    suggest_q,
)
from .report import CheckReport
from .tensor import Operator, RESIDUAL_TOL

LEVELS = ("axioms", "coalgebra", "base", "manageability", "antipode")
#: seeded unitary conjugations of each corpus fixture with n <= 4
CONJUGATIONS_PER_FIXTURE = 2


def _levels_upto(level: str) -> tuple[str, ...]:
    if level == "all":
        return LEVELS
    if level not in LEVELS:
        raise ValueError(f"unknown level {level!r}")
    return LEVELS[: LEVELS.index(level) + 1]


def _timed(fn, *args):
    """fn(*args) and its wall time in ms."""
    t0 = time.perf_counter()
    out = fn(*args)
    return out, (time.perf_counter() - t0) * 1000.0


@dataclass
class _Run:
    """One run_suite call: the context, the report and what the levels
    pass on to later ones."""

    fx: Fixture
    rep: CheckReport
    wanted: tuple[str, ...]
    tol: float
    q: Operator | None
    full: bool = False
    cert: ManageabilityCertificate | None = None

    def add(self, results: dict, ms: float, prefix: str = "", suffix: str = "", **kw):
        for key, val in results.items():
            self.rep.add(f"{prefix}{key}{suffix}", val, wall_time_ms=ms, **kw)

    def add_weight(self, check_id: str, fx: Fixture) -> None:
        """Entry for fx's distinguished weight, passing iff one was found."""
        nu, ms = _timed(getattr, fx, "nu")
        self.rep.add(
            check_id,
            nu.normalization_residual,
            tol=1e-10,
            passed=nu.found,
            wall_time_ms=ms,
        )


def _axioms(run: _Run) -> bool:
    fx, rep = run.fx, run.rep
    verdict, ms = _timed(check_mpi_axioms, fx, run.tol)
    run.add({"partial_isometry": verdict.pi_residual}, ms)
    run.add(verdict.mpi_residuals, ms)
    run.add(verdict.derived_residuals, ms)
    proj, ms = _timed(projection_residuals, fx)
    run.add(proj, ms, prefix="projection_", tol=1e-10)
    fullness = assess_fullness(fx)
    rep.properties["fullness"] = asdict(fullness)
    run.full = (
        fullness.nondeg_A_range
        and fullness.nondeg_A_kernel
        and fullness.nondeg_Ahat_range
        and fullness.nondeg_Ahat_kernel
    )
    rep.properties["nondegenerately_full"] = run.full
    if not verdict.passed:
        for lv in run.wanted[1:]:
            rep.skip(lv, "multiplicativity axioms failed")
    return verdict.passed


def _coalgebra(run: _Run) -> bool:
    fx, rep = run.fx, run.rep
    for name, alg in (("A", fx.A), ("Ahat", fx.Ahat)):
        rep.properties[name] = {
            "dim": alg.space.dim,
            "unital": alg.unital,
            "star_closed": alg.star_closed,
        }
    for side, sfx in (("primal", fx), ("dual", fx.dual)):
        coassoc, ms = _timed(coassociativity_residual, sfx.w)
        rep.add(f"coassociativity_{side}", coassoc, wall_time_ms=ms)
        can, ms = _timed(check_canonical_idempotent, sfx)
        run.add(can.residuals, ms, suffix=f"_{side}")
        rng, ms = _timed(check_delta_range_and_density, sfx)
        # density spans are meaningful only under fullness; dims still reported
        kept = {
            k: v
            for k, v in rng.residuals.items()
            if run.full or not k.startswith("density_")
        }
        run.add(kept, ms, suffix=f"_{side}")
        rep.properties[f"coalgebra_dims_{side}"] = rng.dims
    cons, ms = _timed(duality_consistency, fx)
    rep.add("comul_duality_consistency", cons, wall_time_ms=ms)
    return True


def _base(run: _Run) -> bool:
    fx, rep = run.fx, run.rep
    if fx.N.dim == 0:  # E = 0: there is no base algebra to check
        for lv in run.wanted[run.wanted.index("base"):]:
            rep.skip(lv, "base span N is empty (E = W*W = 0)")
        return False
    spans, ms = _timed(getattr, fx, "spans")
    rep.properties["base_dims"] = {
        "N": spans.N.dim,
        "L": spans.L.dim,
        "Nhat": spans.Nhat.dim,
        "Lhat": spans.Lhat.dim,
    }
    run.add(
        {
            "NL_commutation": spans.commutation_residual,
            "NhatLhat_commutation": spans.hat_commutation_residual,
            "E_in_N_tensor_L": spans.E_membership_residual,
            "Ehat_in_Nhat_tensor_Lhat": spans.Ehat_membership_residual,
        },
        ms,
    )
    run.add(spans.star_residuals, ms, prefix="star_closed_")
    run.add(spans.product_residuals, ms, prefix="subalgebra_")
    if run.full:
        rep.add("L_eq_Lhat", spans.L_Lhat_residual, wall_time_ms=ms)
    else:
        rep.properties["L_eq_Lhat_residual"] = spans.L_Lhat_residual
        rep.skip("base", "L = L-hat requires fullness; residual in properties")
    kappa, ms = _timed(getattr, fx, "kappa")
    rep.add("kappa_solves", max(kappa.residuals), tol=1e-10, wall_time_ms=ms)
    rep.add("kappa_antimultiplicative", kappa.antimultiplicativity, wall_time_ms=ms)
    rep.properties["kappa_nullity"] = kappa.nullity
    run.add_weight("nu_found", fx)
    rep.properties["nu"] = {
        "min_eigenvalue": fx.nu.min_eigenvalue,
        "solution_space_dim": fx.nu.solution_space_dim,
    }
    structure = fx.structure
    if structure is None:
        rep.skip("base", fx.structure_reason)
    else:
        gap, ms = _timed(gamma_kappa_residual, structure)
        rep.add("gamma_N_eq_kappa", gap, wall_time_ms=ms)
        run.add(*_timed(check_separability_triple, fx, structure))
    rtilde = structure.rtilde if structure else None
    (_, _, bc_res), ms = _timed(c_star_bases, fx, fx.A.space, fx.Ahat.space, rtilde)
    run.add(bc_res, ms, prefix="cstar_")
    if run.full:
        run.add_weight("nuhat_found", fx.dual)
    else:
        rep.skip("base", "dual distinguished weight requires fullness")
    return True


def _manageability(run: _Run) -> bool:
    fx, rep = run.fx, run.rep
    if run.q is not None:
        cert, ms = _timed(check_manageability, fx, run.q, run.tol)
        rep.properties["q_source"] = "supplied"
    else:
        t0 = time.perf_counter()
        candidates = suggest_q(fx)
        outcomes = []
        cert = None
        for cand in candidates:
            c = check_manageability(fx, cand, run.tol)
            outcomes.append(c.passed)
            if c.passed:
                cert = c
                break  # later candidates stay untested
        ms = (time.perf_counter() - t0) * 1000.0
        rep.properties["q_source"] = "suggested"
        rep.properties["q_candidates"] = {
            "count": len(candidates),
            "tested": len(outcomes),
            "certified": [i for i, ok in enumerate(outcomes) if ok],
        }
    if cert is None:
        rep.skip("manageability", "no certified Q among candidates")
        rep.skip("antipode", "no certified Q")
        return False
    run.cert = cert
    q, wt = cert.q, cert.wtilde
    run.add(cert.residuals(), ms, prefix="manageability_")
    hash_res, ms = _timed(check_hash_identities, fx, q, wt)
    run.add(hash_res, ms, tol=1e-10)
    (dual_cert, formula_gap), ms = _timed(dual_manageability, fx, q, wt)
    rep.add("dual_certificate", max(dual_cert.residuals().values()), wall_time_ms=ms)
    rep.add("dual_wtilde_formula", formula_gap, tol=1e-12, wall_time_ms=ms)
    run.add(*_timed(inclusion_consequences, fx, q))
    if fx.structure is not None:
        run.add(*_timed(kappa_q_checks, fx, fx.structure, q, wt))
    return True


def _antipode(run: _Run) -> bool:
    fx, rep, cert = run.fx, run.rep, run.cert
    if not cert.passed:
        rep.skip("antipode", "manageability certificate failed")
        return False
    if not (fx.A.star_closed and fx.Ahat.star_closed):
        rep.skip(
            "antipode",
            "slice algebras not star-closed (fullness prerequisites unmet)",
        )
        return False
    q, wt = cert.q, cert.wtilde
    run.add(*_timed(check_antipode, fx, q, wt), prefix="antipode_")
    run.add(*_timed(check_duality, fx, q, wt), prefix="duality_")
    if fx.structure is not None:
        bres, ms = _timed(check_base_restrictions, fx, q, fx.structure, wt)
        run.add(bres, ms, prefix="base_restriction_")
    else:
        rep.skip("antipode", "base restrictions unavailable without a weight")
    return True


_LEVEL_FUNCTIONS = {
    "axioms": _axioms,
    "coalgebra": _coalgebra,
    "base": _base,
    "manageability": _manageability,
    "antipode": _antipode,
}


def run_suite(
    w: Operator,
    q: Operator | None = None,
    level: str = "all",
    tol: float = RESIDUAL_TOL,
    fixture_id: str = "operator",
) -> CheckReport:
    """Execute the selected levels on one fixture and build its report."""
    wanted = _levels_upto(level)
    rep = CheckReport(fixture_id=fixture_id, tolerance=tol, version=__version__)
    run = _Run(Fixture(w), rep, wanted, tol, q)
    for lv in wanted:
        if not _LEVEL_FUNCTIONS[lv](run):
            break
    return rep


def builtin_corpus() -> dict[str, Operator]:
    """The named fixtures exercised by `suite --corpus`."""
    from . import corpus as cp

    return {
        "example": cp.matrix_unit_example(),
        "group_z2": cp.group_mpu(cp.cyclic_table(2)),
        "group_z3": cp.group_mpu(cp.cyclic_table(3)),
        "group_z4": cp.group_mpu(cp.cyclic_table(4)),
        "pair_groupoid_2": cp.groupoid_mpi(cp.pair_groupoid(2)),
        "pair_groupoid_3": cp.groupoid_mpi(cp.pair_groupoid(3)),
        "two_z2": cp.groupoid_mpi(
            cp.disjoint_union(
                cp.group_as_groupoid(cp.cyclic_table(2), tag="a"),
                cp.group_as_groupoid(cp.cyclic_table(2), tag="b"),
            )
        ),
        "z3_plus_trivial": cp.groupoid_mpi(
            cp.disjoint_union(
                cp.group_as_groupoid(cp.cyclic_table(3), tag="c"),
                cp.group_as_groupoid(cp.cyclic_table(1), tag="t"),
            )
        ),
    }


def corpus_suite(tol: float = RESIDUAL_TOL, seed: int = 0) -> list[CheckReport]:
    """Run the full level chain on the built-in corpus plus
    CONJUGATIONS_PER_FIXTURE seeded unitary-conjugation variants (axioms
    level) of each small fixture."""
    from . import corpus as cp

    reports = []
    rng = np.random.default_rng(seed)
    for name, w in builtin_corpus().items():
        reports.append(run_suite(w, level="all", tol=tol, fixture_id=name))
        n = w.space.legs[0].dim
        if n > 4:
            continue
        for k in range(CONJUGATIONS_PER_FIXTURE):
            u = cp.random_unitary(n, rng)
            wc = cp.conjugate_fixture(w, u)
            reports.append(
                run_suite(wc, level="axioms", tol=tol, fixture_id=f"{name}_conj{k}")
            )
    return reports
