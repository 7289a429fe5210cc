"""mpi-lab benchmark: one workload per process, closed loop, one caller.

    python3 bench/run.py --workload corpus|ladder|reject --seed N \
        --seconds S --trace 0|1

Runs verification passes over the workload's fixtures back to back for
up to S seconds (at least one pass), checks every fixture verdict against the
benchmark's own reference and every pass's report JSON against the first
pass's digest, and prints a human-readable summary followed, as the last
line, by one JSON object {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
same untraced passes run, then one traced window (input construction
plus one pass) gives the per-layer metrics.  See bench/README.md.
"""

import os
import time

T_START = time.perf_counter()

# Reports are byte-identical only at a fixed BLAS thread count; this must
# happen before numpy is imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 3  # this process plus two fresh ones
SETUP_CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
                    "verdict_agree_frac": "fraction"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("corpus", "ladder", "reject"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the inputs, print the set-up time as JSON and exit")
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def import_program():
    """Import mpi_lab from this checkout's src/; exit non-zero if it is absent."""
    if not (SRC / "mpi_lab" / "__init__.py").is_file():
        sys.exit(f"error: no mpi_lab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mpi_lab

    if Path(mpi_lab.__file__).resolve().parent != (SRC / "mpi_lab").resolve():
        sys.exit(f"error: imported mpi_lab from {mpi_lab.__file__}, not {SRC}")


def environment(np, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        **{v: os.environ[v] for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "seed": seed,
    }


def setup_in_child(args) -> float:
    """One more set-up sample, from a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=SETUP_CHILD_TIMEOUT_S, cwd=ROOT)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def timed_passes(wl, inputs, seconds: float, workdir):
    """Closed loop: start the next pass when the last one returns, while
    another pass as long as the last one still fits in `seconds` (at least
    one pass runs); returns (wall times, raw outputs)."""
    walls, raws = [], []
    t_loop = time.perf_counter()
    while not walls or time.perf_counter() - t_loop + walls[-1] < seconds:
        t0 = time.perf_counter()
        raws.append(wl.run_pass(inputs, workdir))
        walls.append(time.perf_counter() - t0)
    return walls, raws


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import numpy as np

    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.build(args.seed, np.random.default_rng(args.seed))
    setup_here = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_here}))
        return 0

    env = environment(np, args.seed)
    setups = [setup_here] + [setup_in_child(args) for _ in range(SETUP_SAMPLES - 1)]
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        workdir = Path(tmp)
        walls, raws = timed_passes(wl, inputs, args.seconds, workdir)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        passes = [wl.collect(raw) for raw in raws]
        if args.trace:
            tracer = spans.Tracer()
            with tracer.installed():
                t0 = time.perf_counter()
                traced_inputs = wl.build(args.seed, np.random.default_rng(args.seed))
                t1 = time.perf_counter()
                raw = wl.run_pass(traced_inputs, workdir)
                t2 = time.perf_counter()
            passes.append(wl.collect(raw))

    verdicts = workloads.judge(wl, inputs, passes)
    problems = wl.confirm(inputs)
    unknown = [m for m in verdicts["mismatches"] if not m["known_defect"]]
    correct = not problems and not unknown
    wall_s = statistics.median(walls)
    setup_s = statistics.median(setups)
    stem = f"{args.workload}_seed{args.seed}"

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  (closed loop, 1 caller, 1 process)")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"setup_s            {setup_s:.4f} s   median of {len(setups)} set-ups "
          f"{[round(s, 4) for s in setups]}")
    print(f"wall_s             {wall_s:.4f} s   median of {len(walls)} passes, "
          f"{len(passes[0])} fixtures each")
    print(f"peak_rss_mb        {peak_rss_mb:.1f} MB")
    print(f"verdict_error_frac {verdicts['verdict_error_frac']:.4f}   "
          f"{verdicts['wrong']} of {verdicts['attempted']} fixture verdicts wrong")
    for m in verdicts["mismatches"]:
        tag = "known defect" if m["known_defect"] else "NEW"
        print(f"  mismatch pass {m['pass']} {m['fixture']}: expected {m['expected']}, "
              f"got {m['got']}{' (digest drift)' if m['digest_drift'] else ''} "
              f"failed={m['failed_checks']} [{tag}]")
    for p in problems:
        print(f"  reference not confirmed: {p}")
    same = len(set(verdicts["digests"])) == 1
    print(f"digest sha256:{verdicts['digests'][0]}  "
          f"{'identical in' if same else 'DIFFERS across'} {len(passes)} passes  "
          f"(OPENBLAS_NUM_THREADS={env['OPENBLAS_NUM_THREADS']}, {env['blas']}, "
          f"numpy {env['numpy']})")

    if args.trace:
        layer = tracer.metrics(passes[-1], t2 - t0, t2 - t1, wall_s)
        tracer.write(OUT_DIR / f"spans_{stem}.json", t0)
        print(f"traced window {t2 - t0:.4f} s (inputs {t1 - t0:.4f} s, pass {t2 - t1:.4f} s), "
              f"{len(tracer.spans)} spans; byte counts are computed from output shapes")
        for name, (value, unit) in layer.items():
            print(f"  {name:<52s} {value:>16.6g} {unit}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        values = {"wall_s": wall_s, "peak_rss_mb": peak_rss_mb, "setup_s": setup_s,
                  "verdict_agree_frac": 1.0 - verdicts["verdict_error_frac"]}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    if not all(math.isfinite(m["value"]) for m in metrics.values()):
        correct = False
    result = {"correct": correct, "attempted": verdicts["attempted"],
              "failed": verdicts["errored"], "metrics": metrics}
    with open(OUT_DIR / f"BENCH_{stem}_trace{args.trace}.json", "w") as fh:
        json.dump({**result, "env": env, "pass_walls_s": walls, "setups_s": setups,
                   "verdict_error_frac": verdicts["verdict_error_frac"],
                   "mismatches": verdicts["mismatches"],
                   "digests": verdicts["digests"]}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
