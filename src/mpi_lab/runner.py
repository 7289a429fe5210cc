"""Suite orchestration: run the check levels in dependency order.

``run_suite`` builds one ``Fixture`` context for W at the run's tol and
hands it to every level, so each shared quantity is computed once per
call and nothing outlives the call.  Levels run cumulatively (axioms ->
coalgebra -> base -> manageability -> antipode); each level function adds
its own entries and skip reasons and returns whether later levels may run.
Statements that hold only under the fullness hypothesis (density spans
equal A, L = L-hat, the distinguished weights nu and nu-hat) are emitted
as checks only for fixtures whose slice algebras act nondegenerately;
otherwise their data lands in the report properties.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .axioms import assess_fullness, check_mpi_axioms, pi_gaps, projection_residuals
from .antipode import check_antipode, check_base_restrictions, check_duality
from .base_algebra import (
    base_spans,
    c_star_bases,
    check_separability_triple,
    kappa_q_checks,
)
from .coalgebra import (
    TensorSquare,
    check_canonical_idempotent,
    check_delta_range_and_density,
    coassociativity_residual,
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


@dataclass
class _Run:
    """One run_suite call: the context, the report and what the levels
    pass on to later ones."""

    fx: Fixture
    rep: CheckReport
    wanted: tuple[str, ...]
    q: Operator | None
    full: bool = False
    #: MpiVerdict.bounds: certified bounds on what follows from the axioms
    bounds: dict = field(default_factory=dict)
    cert: ManageabilityCertificate | None = None
    #: W-hat's Wtilde for the certified Q, built by dual_manageability
    wtilde_hat: Operator | None = None

    def add(self, results: dict, prefix: str = "", suffix: str = ""):
        for key, val in results.items():
            self.rep.add(f"{prefix}{key}{suffix}", val)

    def skip_from(self, level: str, reason: str) -> None:
        """Skip ``level`` and every later level this run wants."""
        for lv in self.wanted[LEVELS.index(level):]:
            self.rep.skip(lv, reason)

    def add_if_full(self, check_id: str, residual: float, passed: bool | None = None) -> None:
        """An entry that holds only under fullness; without fullness its
        residual goes to the properties as ``<check_id>_residual``."""
        if self.full:
            self.rep.add(check_id, residual, passed=passed)
        else:
            self.rep.properties[f"{check_id}_residual"] = residual


def _axioms(run: _Run) -> bool:
    fx, rep = run.fx, run.rep
    verdict = check_mpi_axioms(fx)
    run.add({"partial_isometry": verdict.pi_residual, **verdict.mpi_residuals,
             **verdict.derived_residuals})
    run.bounds = verdict.bounds
    if verdict.lower_bounds:  # these residuals are certified lower bounds
        rep.properties["lower_bound_checks"] = list(verdict.lower_bounds)
    run.add(projection_residuals(fx), prefix="projection_")
    if not verdict.passed:
        run.skip_from("coalgebra", "multiplicativity axioms failed")
        return False
    if len(run.wanted) == 1:  # fullness gates only the later levels
        return True
    fullness = assess_fullness(fx)
    rep.properties["fullness"] = asdict(fullness)
    run.full = (
        fullness.nondeg_A_range
        and fullness.nondeg_A_kernel
        and fullness.nondeg_Ahat_range
        and fullness.nondeg_Ahat_kernel
    )
    rep.properties["nondegenerately_full"] = run.full
    return True


def _coalgebra(run: _Run) -> bool:
    fx, rep = run.fx, run.rep
    for name, alg in (("A", fx.A), ("Ahat", fx.Ahat)):
        rep.properties[name] = {
            "dim": alg.dim,
            "unital": alg.unital,
            "star_closed": alg.star_closed,
        }
    for side, sfx in (("primal", fx), ("dual", fx.dual)):
        # W-hat has the coassociativity gaps of W, its ||W||_2 and its
        # W W* W = W gap, so those bounds serve both sides; its E-leg gaps
        # are W's with g4 for g3, the "_dual" bounds
        rep.add(f"coassociativity_{side}",
                coassociativity_residual(sfx, run.bounds.get("coassociativity", np.inf)))
        square = TensorSquare(sfx)  # this side's A (x) A data, shared by two checks
        e_bounds = run.bounds if side == "primal" else {**run.bounds, **{
            k.removesuffix("_dual"): b for k, b in run.bounds.items() if k.endswith("_dual")}}
        run.add(check_canonical_idempotent(square, e_bounds), suffix=f"_{side}")
        # density spans are meaningful only under fullness; dims still reported
        rng = check_delta_range_and_density(square, run.full)
        del square
        run.add(rng.residuals, suffix=f"_{side}")
        rep.properties[f"coalgebra_dims_{side}"] = rng.dims
    return True


def _base(run: _Run) -> bool:
    fx, rep = run.fx, run.rep
    if fx.N.dim == 0:  # E = 0: there is no base algebra to check
        run.skip_from("base", "base span N is empty (E = W*W = 0)")
        return False
    spans = base_spans(fx)
    rep.properties["base_dims"] = {
        "N": fx.N.dim,
        "L": fx.L.dim,
        "Nhat": fx.dual.N.dim,
        "Lhat": fx.dual.L.dim,
    }
    l_res = spans.pop("L_eq_Lhat")
    run.add(spans)
    run.add_if_full("L_eq_Lhat", l_res)
    if not run.full:
        rep.skip("base", "L = L-hat requires fullness; residual in properties")
    rep.add("kappa_solves", max(fx.kappa.residuals))
    rep.add("kappa_antimultiplicative", fx.kappa.antimultiplicativity)
    rep.properties["kappa_nullity"] = fx.kappa_solver.nullity
    # a weight passes iff found, whatever tol; W <-> W-hat exchanges nu and
    # nu-hat and keeps fullness, so both are judged under fullness alone
    run.add_if_full("nu_found", fx.nu.normalization_residual, fx.nu.found)
    if not run.full:
        rep.skip("base", "distinguished weights require fullness; residuals in properties")
    rep.properties["nu"] = {"min_eigenvalue": fx.nu.min_eigenvalue}
    if fx.structure_reason is not None:
        rep.skip("base", fx.structure_reason)
    else:
        run.add(check_separability_triple(fx))
    run.add(c_star_bases(fx), prefix="cstar_")
    run.add_if_full("nuhat_found", fx.dual.nu.normalization_residual, fx.dual.nu.found)
    return True


def _manageability(run: _Run) -> bool:
    fx, rep = run.fx, run.rep
    if run.q is not None:
        cert = check_manageability(fx, run.q)
        rep.properties["q_source"] = "supplied"
    else:
        candidates = suggest_q(fx)
        outcomes = []
        cert = None
        for cand in candidates:
            c = check_manageability(fx, cand)
            outcomes.append(c.passed)
            if c.passed:
                cert = c
                break  # later candidates stay untested
        rep.properties["q_source"] = "suggested"
        rep.properties["q_candidates"] = {
            "count": len(candidates),
            "tested": len(outcomes),
            "certified": [i for i, ok in enumerate(outcomes) if ok],
        }
    if cert is None:
        run.skip_from("manageability", "no certified Q among candidates")
        return False
    run.cert = cert
    q, wt = cert.q, cert.wtilde
    run.add(cert.residuals, prefix="manageability_")
    run.add(check_hash_identities(fx, q, wt, run.bounds))
    dual_res, formula_gap, run.wtilde_hat = dual_manageability(fx, cert, run.bounds)
    rep.add("dual_certificate", max(dual_res.values()))
    rep.add("dual_wtilde_formula", formula_gap)
    run.add(inclusion_consequences(fx, q))
    if fx.structure_reason is None:
        run.add(kappa_q_checks(fx, q, wt))
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
    run.add(check_antipode(fx, q, wt), prefix="antipode_", suffix="_primal")
    run.add(check_duality(fx, q, run.wtilde_hat), prefix="antipode_", suffix="_dual")
    rep.add("antipode_wtilde_partial_isometry", pi_gaps(wt.matrix)[1])
    if fx.structure_reason is None:
        run.add(check_base_restrictions(fx, q), prefix="base_restriction_")
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
    """Execute the selected levels on one fixture, judged at tol, and build
    its report with the wall time of each level that ran."""
    wanted = _levels_upto(level)
    rep = CheckReport(fixture_id=fixture_id, tolerance=tol, version=__version__)
    run = _Run(Fixture(w, tol), rep, wanted, q)
    if q is not None:
        run.fx.q_data(q)  # a malformed Q is refused before any level runs
    for lv in wanted:
        t0 = time.perf_counter()
        go_on = _LEVEL_FUNCTIONS[lv](run)
        rep.level_ms[lv] = (time.perf_counter() - t0) * 1000.0
        if not go_on:
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
