"""Smoke test of the benchmark: each workload once at reduced length.

    python3 bench/smoke.py

For every workload it runs bench/run.py with --seconds 1, once untraced
and once traced, and checks that the last output line is a result whose
metrics are exactly the end-to-end (untraced) or per-layer (traced)
metrics named in BENCHMARK.json, each with its unit and a finite value.
It also checks two properties of the traced runs (no coalgebra call on
`reject`; on `ladder` the self times plus the uncovered remainder add up
to the traced wall time) and that the benchmark refuses to run, without
printing a result, in a copy holding only BENCHMARK.json and bench/.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_TIMEOUT_S = 180


class SmokeFailure(Exception):
    pass


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SmokeFailure(what)


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload,
           "--seed", "11", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)


def check_result(workload: str, trace: int) -> dict:
    done = run(workload, trace)
    label = f"{workload} --trace {trace}"
    expect(done.returncode == 0, f"{label}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{label}: result keys {sorted(result)}")
    expect(result["correct"] is True, f"{label}: correct is {result['correct']}")
    expect(result["attempted"] >= 1 and result["failed"] == 0,
           f"{label}: attempted {result['attempted']}, failed {result['failed']}")
    declared = SPEC["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    expect(list(metrics) == [m["name"] for m in declared],
           f"{label}: metric names differ from BENCHMARK.json")
    for m in declared:
        got = metrics[m["name"]]
        expect(got["unit"] == m["unit"], f"{label}: {m['name']} unit {got['unit']}")
        expect(isinstance(got["value"], (int, float)) and math.isfinite(got["value"]),
               f"{label}: {m['name']} value {got['value']!r}")
    return {k: v["value"] for k, v in metrics.items()}


def check_refuses_without_program() -> None:
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = run("corpus", 0, cwd=bare)
    expect(done.returncode != 0, "bare copy: benchmark exited 0")
    expect('"metrics"' not in done.stdout, "bare copy: benchmark printed a result")


def main() -> int:
    check_refuses_without_program()
    for workload in (w["name"] for w in SPEC["workloads"]):
        check_result(workload, 0)
        layer = check_result(workload, 1)
        if workload == "reject":
            calls = {k: v for k, v in layer.items()
                     if k.startswith("coalgebra.") and k.endswith(".calls")}
            expect(calls and not any(calls.values()), f"reject: coalgebra calls {calls}")
        if workload == "ladder":
            modules = sum(v for k, v in layer.items()
                          if k.count(".") == 1 and k.endswith(".time_s"))
            total = modules + layer["trace.uncovered_s"]
            expect(math.isclose(total, layer["trace.wall_s"], rel_tol=1e-9),
                   f"ladder: self times + uncovered {total} != {layer['trace.wall_s']}")
        print(f"smoke ok: {workload}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SmokeFailure as exc:
        sys.exit(f"smoke FAILED: {exc}")
