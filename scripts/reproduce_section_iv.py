#!/usr/bin/env python3
"""Reproduce the 500-node discrete-time experiment end to end.

Runs `tempest figure456` on the Section IV instance, with graph seed s and
protocol seed 1000 s + 7, and prints from its fig5.json the aggregated-network
spectral abscissa, the static and certified thresholds, the z* grid with its
standard errors and the empirical threshold beta* with the z* = 1 crossing.
fig4.csv, fig5.csv, fig5.json and fig6.csv land under --out.  Exit code 0
when certified < beta* < static holds, 1 otherwise (the CLI's code if it
fails).  Full scale (500 paths, k = 1000) takes a while; the defaults here
use 100 paths, matching the reduced acceptance protocol.

Usage:
    python scripts/reproduce_section_iv.py [--seed 1] [--paths 100]
        [--steps 1000] [--threads N] [--gauss-std] [--out DIR]
"""

import argparse
import json
import os
import sys

from tempest import cli


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--n", type=int, default=500)
    ap.add_argument("--er-prob", type=float, default=0.2)
    ap.add_argument("--paths", type=int, default=100)
    ap.add_argument("--steps", type=int, default=1000)
    ap.add_argument("--threads", type=int, default=None,
                    help="worker processes (default: TEMPEST_THREADS, else the CPU count)")
    ap.add_argument("--gauss-std", action="store_true",
                    help="read the Gaussian dispersion 1/8 as a standard deviation")
    ap.add_argument("--out", default="section_iv_out")
    args = ap.parse_args(argv)

    mode = "std" if args.gauss_std else "variance"
    if args.threads is None and not os.environ.get("TEMPEST_THREADS"):
        args.threads = os.cpu_count() or 1
    threads = [] if args.threads is None else ["--threads", str(args.threads)]
    code = cli.main(["figure456", "--preset", "iv", "--graph-param", f"n={args.n}",
                     "--graph-param", f"er_prob={args.er_prob!r}",
                     "--graph-param", f"graph_seed={args.seed}",
                     "--graph-param", f"gauss_mode={mode}",
                     "--seed", str(1000 * args.seed + 7), "--paths", str(args.paths),
                     "--steps", str(args.steps), *threads, "--out", args.out])
    if code:
        return code
    with open(os.path.join(args.out, "fig5.json")) as fh:
        doc = json.load(fh)
    res = doc["result"]
    print(f"n={res['n']} ER(p={args.er_prob}) instance, seed={args.seed}, gauss_mode={mode}, "
          f"config hash {doc['config_hash']}")
    print(f"  edges: {res['edges']} (+{res['dead_pairs']} dead pairs)")
    print(f"  eta(Abar) = {res['eta_abar']:.3f}")
    static = float(res["threshold_static"])  # JSON writes an infinite threshold as "inf"
    print(f"  static threshold  delta/eta(Abar) = {static:.4e}")
    print(f"  certified threshold (discrete-time certificate) = {res['threshold_t4']:.4e}")
    print(f"re-infection protocol: {res['paths']} paths x {res['steps']} steps")
    for b, y, z, se in zip(res["beta_grid"], res["y_star"], res["z_star"], res["z_stderr"]):
        se = float("nan") if se is None else se  # one path has no standard error
        print(f"  beta={b:.3e}  y*={y:7.3f}  z*={z:7.3f} +- {se:.3f}")
    bracket = res["beta_bracket"]
    if res["beta_star"] is None:
        print("  no crossing: z* >= 1 at every grid beta, so beta* is undefined")
    elif bracket is None:
        print(f"  empirical threshold beta* = {res['beta_star']:.4e}, the last grid beta: "
              f"no crossing inside the grid")
    else:
        print(f"  empirical threshold beta* = {res['beta_star']:.4e}; crossing bracket: "
              f"z* < 1 at {bracket[0]:.4e}, next grid beta {bracket[1]:.4e}")
    print(f"  ordering certified < beta* < static: {'OK' if res['ordered'] else 'VIOLATED'}")
    return 0 if res["ordered"] else 1


if __name__ == "__main__":
    sys.exit(main())
