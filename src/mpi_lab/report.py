"""Structured check reports with deterministic serialization.

A report is an ordered list of (check id, pass flag, residual) entries
plus free-form properties (dimensions, flags), explicit skip records and
each level's wall time.  The canonical JSON form excludes the wall times
so that identical inputs and seed produce byte-identical reports; they
are available in the text rendering and behind an explicit flag.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field


@dataclass
class CheckEntry:
    check_id: str
    passed: bool
    residual: float


@dataclass
class CheckReport:
    fixture_id: str
    tolerance: float
    version: str
    entries: list[CheckEntry] = field(default_factory=list)
    skips: list[dict[str, str]] = field(default_factory=list)
    properties: dict = field(default_factory=dict)
    #: level -> wall time in ms, for each level that ran
    level_ms: dict[str, float] = field(default_factory=dict)

    def add(self, check_id: str, residual: float, passed: bool | None = None) -> CheckEntry:
        if any(e.check_id == check_id for e in self.entries):
            raise ValueError(f"duplicate check id {check_id!r}")
        residual = float(residual)
        if residual < 0.0:
            raise ValueError(f"residual for {check_id} is negative")
        if passed is None:
            passed = residual < self.tolerance
        # a non-finite residual (overflow) is a failed check, never a pass
        passed = bool(passed) and math.isfinite(residual)
        entry = CheckEntry(check_id, passed, residual)
        self.entries.append(entry)
        return entry

    def skip(self, level: str, reason: str) -> None:
        self.skips.append({"level": level, "reason": reason})

    @property
    def overall_pass(self) -> bool:
        return all(e.passed for e in self.entries)

    def to_dict(self, include_timings: bool = False) -> dict:
        # JSON has no NaN or infinity: a non-finite residual is null
        entries = [
            {"id": e.check_id, "pass": e.passed,
             "residual": e.residual if math.isfinite(e.residual) else None}
            for e in self.entries
        ]
        out = {
            "fixture": self.fixture_id,
            "tolerance": self.tolerance,
            "version": self.version,
            "checks": entries,
            "skips": self.skips,
            "properties": self.properties,
            "overall": "pass" if self.overall_pass else "fail",
        }
        if include_timings:
            out["level_wall_ms"] = self.level_ms
        return out

    def to_json(self, include_timings: bool = False) -> str:
        return json.dumps(
            self.to_dict(include_timings), sort_keys=True, separators=(",", ":")
        )

    def to_text(self) -> str:
        lines = [f"fixture: {self.fixture_id}   tolerance: {self.tolerance:g}"]
        for e in self.entries:
            mark = "PASS" if e.passed else "FAIL"
            lines.append(f"  [{mark}] {e.check_id:<42s} residual={e.residual:.3e}")
        for s in self.skips:
            lines.append(f"  [SKIP] {s['level']}: {s['reason']}")
        for level, ms in self.level_ms.items():
            lines.append(f"  [TIME] {level}: {ms:.1f} ms")
        lines.append(f"overall: {'pass' if self.overall_pass else 'fail'}")
        return "\n".join(lines)


def reports_to_json(reports: list[CheckReport], include_timings: bool = False) -> str:
    body = {
        "reports": [r.to_dict(include_timings) for r in reports],
        "summary": {
            "total": len(reports),
            "passed": sum(1 for r in reports if r.overall_pass),
        },
    }
    return json.dumps(body, sort_keys=True, separators=(",", ":"))
