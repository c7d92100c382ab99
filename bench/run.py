#!/usr/bin/env python3
"""Run one benchmark workload of tempest in this process.

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Builds nothing: it imports tempest from ``src/`` next to this directory.
Set-up runs SETUP_REPS times, then the workload's round runs again and
again until the rounds add up to ``--seconds``.  The round's outputs are
checked once against computations made here, and every later round must
reproduce them.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (setup_s, task_s,
peak_rss_mb); with ``--trace 1`` they are the per-layer ones, and the
spans are written to bench_out/.

    python3 bench/run.py --workload certify --seed 1 --repeat 10

runs the workload 10 times, each in a fresh process with seeds 1..10, and
prints the median and quartiles of every end-to-end metric.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402

# One BLAS thread: on a shared 2-core host the figures then measure the
# program, not the scheduler.  Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / "bench_out"
WORKLOADS = ("certify", "iv_protocol", "small_exact")
SETUP_REPS = 3
END_TO_END = (("setup_s", "s"), ("task_s", "s"), ("peak_rss_mb", "MB"))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="run rounds until their times add up to this")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="run N fresh processes (seeds seed..seed+N-1) and summarize")
    return ap.parse_args(argv)


def import_workload(name):
    src = ROOT / "src"
    if not (src / "tempest" / "__init__.py").is_file():
        sys.exit(f"error: tempest sources not found under {src}")
    sys.path.insert(0, str(src))
    workload = importlib.import_module(name)
    # First BLAS/LAPACK calls and lazily imported scipy modules belong to set-up.
    import numpy as np
    import scipy.linalg  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401
    a = np.random.default_rng(0).random((64, 64))
    np.linalg.eigvalsh(a + a.T)
    np.linalg.eigvals(a)
    a @ a
    return workload


def same(a, b) -> bool:
    if isinstance(a, list):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, float):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
    return a == b


def run(args) -> int:
    workload = import_workload(args.workload)
    tr = Tracer(bool(args.trace))
    base_s = time.perf_counter() - _START
    reps = []
    for k in range(SETUP_REPS):
        tr.group = f"setup{k}"
        t0 = time.perf_counter()
        inputs = workload.setup(args.seed, tr)
        reps.append(time.perf_counter() - t0)

    rounds, problems, first = [], [], None
    while True:
        tr.group = f"round{len(rounds)}"
        tr.counting = True
        t0 = time.perf_counter()
        out = workload.run_round(inputs, tr)
        rounds.append(time.perf_counter() - t0)
        tr.counting = False
        fp = workload.fingerprint(out)
        if first is None:
            first = fp
        elif not same(first, fp):
            problems.append(f"round {len(rounds) - 1} did not reproduce round 0: {fp} vs {first}")
        if sum(rounds) >= args.seconds:
            break
        del out
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems += workload.check(inputs, out)
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)

    setup_s = base_s + statistics.median(reps)
    task_s = statistics.median(rounds)
    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}  "
          f"round times {[round(t, 3) for t in rounds]}  set-up reps {[round(t, 3) for t in reps]}")
    if args.trace:
        metrics, counts = tr.per_layer()
        print(f"traced task_s = {task_s:.4f} s  setup_s = {setup_s:.4f} s")
        OUT_DIR.mkdir(exist_ok=True)
        tr.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        counts = {}
        metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                   "task_s": {"value": task_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_mb, "unit": "MB"}}
    for name, m in metrics.items():
        basis = ""
        if name in counts:
            work, what, busy = counts[name]
            basis = f"  ({work:.6g} {what} in {busy:.4f} s)"
        print(f"{name} = {m['value']:.6g} {m['unit']}{basis}")
    print(f"attempted {tr.attempted}  failed {tr.failed}")
    print(json.dumps({"correct": not problems, "attempted": tr.attempted,
                      "failed": tr.failed, "metrics": metrics}))
    return 0


def repeat(args) -> int:
    """Run the workload in fresh processes and print the spread of each metric."""
    results = []
    for k in range(args.repeat):
        seed = args.seed + k
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        res = json.loads(lines[-1])
        res["seed"] = seed
        res["rounds"] = next(line for line in lines if line.startswith("workload "))
        results.append(res)
        print(f"seed {seed}: correct {res['correct']}  attempted {res['attempted']}  "
              f"failed {res['failed']}  " + "  ".join(
                  f"{n} {res['metrics'][n]['value']:.4f}" for n, _ in END_TO_END), flush=True)
        print(f"    {res['rounds']}", flush=True)
    summary = {"workload": args.workload, "seconds": args.seconds, "runs": results}
    print(f"{args.workload}: {len(results)} runs")
    for name, unit in END_TO_END:
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}
        print(f"  {name}: median {med:.4f} {unit}  quartiles {q1:.4f} .. {q3:.4f}  "
              f"spread {(q3 - q1) / med:.2%}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"  all correct: {all(r['correct'] for r in results)}  failed shares: {sorted(shares)}")
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"repeat-{args.workload}-seed{args.seed}x{args.repeat}.json", "w") as fh:
        json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    ARGS = parse_args(sys.argv[1:])
    sys.exit(repeat(ARGS) if ARGS.repeat else run(ARGS))
