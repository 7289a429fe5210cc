"""The three benchmark workloads and their program-independent references.

Each workload builds its inputs from the seed through the public
``mpi_lab.corpus`` generators (``build``), runs one verification pass
over them (``run_pass``) and turns a pass's raw output into one report
dict per fixture (``collect``).  ``reference`` states what each fixture's
verdict must be, derived from how the fixture was made and, where a
numpy residual can decide it, confirmed by that residual.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from mpi_lab import cli, runner
from mpi_lab import corpus as cp
from mpi_lab.tensor import RESIDUAL_TOL, Operator

LATER_LEVELS = ("coalgebra", "base", "manageability", "antipode")
AXIOM_CHECK_PREFIXES = ("partial_isometry", "mpi", "projection_")

# Verdict errors that the program is known to make on these inputs.  A
# mismatch listed here still counts in verdict_error_frac and is printed;
# it only keeps the run from being marked incorrect.  The entry maps the
# fixture id to the prefix every failed check id must carry.
KNOWN_DEFECTS = {
    "ladder": {
        # The Gram-path coassociativity residual floors near 3e-8 on dense
        # non-0/1 W (cancellation), above the 1e-9 tolerance.
        "Z_8_conj": "coassociativity_",
    },
}


def own_pi_residual(w: Operator) -> float:
    """||W W* W - W|| / max(1, ||W W* W||), computed here with numpy."""
    m = w.matrix
    lhs = m @ m.conj().T @ m
    return float(np.linalg.norm(lhs - m) / max(1.0, np.linalg.norm(lhs)))


def canonical(report: dict) -> str:
    """Report JSON without timings, in the program's canonical form."""
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


class Corpus:
    """``mpi-lab suite --corpus --report json`` through ``cli.main``."""

    name = "corpus"
    # 8 fixtures at all levels, plus two axioms-level conjugations of each
    # fixture with n <= 4 (every fixture but pair_groupoid_3).
    BASE = ("example", "group_z2", "group_z3", "group_z4", "pair_groupoid_2",
            "pair_groupoid_3", "two_z2", "z3_plus_trivial")
    EXPECTED = BASE + tuple(
        f"{b}_conj{k}" for b in BASE if b != "pair_groupoid_3" for k in (0, 1)
    )

    def build(self, seed: int, rng: np.random.Generator) -> dict:
        return {"seed": seed}

    def run_pass(self, inputs: dict, workdir) -> bytes | None:
        out = workdir / "corpus.json"
        code = cli.main(["suite", "--corpus", "--seed", str(inputs["seed"]),
                         "--report", "json", "--out", str(out)])
        if code not in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED):
            return None
        data = out.read_bytes()
        out.unlink()
        return data

    def collect(self, raw: bytes | None) -> dict[str, dict | None]:
        found = {}
        if raw is not None:
            found = {r["fixture"]: r for r in json.loads(raw)["reports"]}
        ids = list(self.EXPECTED) + [f for f in found if f not in self.EXPECTED]
        return {f: found.get(f) for f in ids}

    def reference(self, inputs: dict) -> dict[str, str]:
        # Group and groupoid operators and their unitary conjugates are MPIs.
        return {f: "pass" for f in self.EXPECTED}

    def confirm(self, inputs: dict) -> list[str]:
        return []


class _FixtureList:
    """``run_suite(w, level="all")`` over a dict of fixture operators."""

    def run_pass(self, inputs: dict, workdir) -> dict:
        out = {}
        for fid, w in inputs["fixtures"].items():
            try:
                out[fid] = runner.run_suite(w, level="all", fixture_id=fid)
            except (ValueError, ArithmeticError) as exc:  # LinAlgError is a ValueError
                out[fid] = exc
        return out

    def collect(self, raw: dict) -> dict[str, dict | None]:
        return {
            fid: None if isinstance(rep, Exception) else rep.to_dict()
            for fid, rep in raw.items()
        }


class Ladder(_FixtureList):
    """Dense three-leg regime: Z_8, pair_groupoid_3 (n = 9), Z_10 and one
    seeded unitary conjugation of Z_8 (a dense, non-0/1 W)."""

    name = "ladder"

    def build(self, seed: int, rng: np.random.Generator) -> dict:
        z8 = cp.group_mpu(cp.cyclic_table(8))
        fixtures = {
            "Z_8": z8,
            "pair_groupoid_3": cp.groupoid_mpi(cp.pair_groupoid(3)),
            "Z_10": cp.group_mpu(cp.cyclic_table(10)),
            "Z_8_conj": cp.conjugate_fixture(z8, cp.random_unitary(8, rng)),
        }
        return {"fixtures": fixtures}

    def reference(self, inputs: dict) -> dict[str, str]:
        return {fid: "pass" for fid in inputs["fixtures"]}

    def confirm(self, inputs: dict) -> list[str]:
        return [
            f"{fid}: own partial-isometry residual {r:.2e} >= tol"
            for fid, w in inputs["fixtures"].items()
            if (r := own_pi_residual(w)) >= RESIDUAL_TOL
        ]


class Reject(_FixtureList):
    """Non-MPI candidates: four genuine MPIs, each under a seeded complex
    Gaussian perturbation of relative Frobenius size 1e-3 and 1e-7."""

    name = "reject"
    EPSILONS = (("1e-3", 1e-3), ("1e-7", 1e-7))

    def build(self, seed: int, rng: np.random.Generator) -> dict:
        bases = {
            "group_z4": cp.group_mpu(cp.cyclic_table(4)),
            "Z_8": cp.group_mpu(cp.cyclic_table(8)),
            "pair_groupoid_3": cp.groupoid_mpi(cp.pair_groupoid(3)),
            "Z_10": cp.group_mpu(cp.cyclic_table(10)),
        }
        fixtures = {}
        for name, w in bases.items():
            m = w.matrix
            for label, eps in self.EPSILONS:
                g = rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape)
                p = m + eps * np.linalg.norm(m) * g / np.linalg.norm(g)
                fixtures[f"{name}_eps{label}"] = Operator(w.space, p)
        return {"fixtures": fixtures}

    def reference(self, inputs: dict) -> dict[str, str]:
        return {fid: "fail_at_axioms" for fid in inputs["fixtures"]}

    def confirm(self, inputs: dict) -> list[str]:
        return [
            f"{fid}: own partial-isometry residual {r:.2e} < tol, not a reject"
            for fid, w in inputs["fixtures"].items()
            if (r := own_pi_residual(w)) <= RESIDUAL_TOL
        ]


WORKLOADS = {w.name: w for w in (Corpus(), Ladder(), Reject())}


def verdict(report: dict) -> str:
    """The program's verdict on one fixture, in the reference's terms."""
    if report["overall"] == "pass":
        return "pass"
    failed = [c["id"] for c in report["checks"] if not c["pass"]]
    skipped = {s["level"] for s in report["skips"]}
    at_axioms = all(c["id"].startswith(AXIOM_CHECK_PREFIXES) for c in report["checks"])
    if failed and at_axioms and skipped == set(LATER_LEVELS):
        return "fail_at_axioms"
    return "fail"


def failed_checks(report: dict | None) -> list[str]:
    if report is None:
        return []
    return [c["id"] for c in report["checks"] if not c["pass"]]


def is_known_defect(workload: str, fid: str, report: dict | None) -> bool:
    prefix = KNOWN_DEFECTS.get(workload, {}).get(fid)
    failed = failed_checks(report)
    return prefix is not None and bool(failed) and all(
        c.startswith(prefix) for c in failed
    )


def judge(wl, inputs: dict, passes: list[dict]) -> dict:
    """Compare every fixture verdict with the reference and every fixture
    report with the first pass's; returns counts, mismatches, digests."""
    reference = wl.reference(inputs)
    first = {fid: canonical(r) for fid, r in passes[0].items() if r is not None}
    wrong, errored, mismatches, digests = 0, 0, [], []
    for i, reports in enumerate(passes):
        texts = {fid: canonical(r) for fid, r in reports.items() if r is not None}
        digests.append(hashlib.sha256(
            "\n".join(texts[f] for f in sorted(texts)).encode()).hexdigest())
        for fid in sorted(set(reports) | set(reference)):
            rep = reports.get(fid)
            want = reference.get(fid, "absent")
            got = "error" if rep is None else verdict(rep)
            errored += rep is None and fid in reference
            drift = rep is not None and texts[fid] != first.get(fid)
            if got == want and not drift:
                continue
            wrong += 1
            known = not drift and is_known_defect(wl.name, fid, rep)
            mismatches.append({"pass": i, "fixture": fid, "expected": want, "got": got,
                               "digest_drift": drift, "known_defect": known,
                               "failed_checks": failed_checks(rep)})
    attempted = len(passes) * len(reference)
    return {"attempted": attempted, "wrong": wrong, "errored": errored,
            "mismatches": mismatches, "digests": digests,
            "verdict_error_frac": wrong / attempted}
