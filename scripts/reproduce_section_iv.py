#!/usr/bin/env python3
"""Reproduce the 500-node discrete-time experiment end to end.

Builds the truncated-Gaussian ER instance, prints the aggregated-network
spectral abscissa, the static and certified infection-rate thresholds, then
runs the re-infection protocol over a beta grid and reports the empirical
threshold beta*.  Full scale (500 paths, k = 1000) takes a while; the
defaults here use 100 paths, matching the reduced acceptance protocol.

Usage:
    python scripts/reproduce_section_iv.py [--seed 1] [--paths 100]
        [--steps 1000] [--threads N] [--gauss-std] [--out DIR]
"""

import argparse
import json
import os
import sys
import time

import numpy as np

from tempest import empirical_threshold, graph_er_iv, mean_matrix, threshold_in_beta
from tempest.thresholds import _jsonable

DELTA = 0.05


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--n", type=int, default=500)
    ap.add_argument("--er-prob", type=float, default=0.2)
    ap.add_argument("--paths", type=int, default=100)
    ap.add_argument("--steps", type=int, default=1000)
    ap.add_argument("--threads", type=int,
                    default=int(os.environ.get("TEMPEST_THREADS", os.cpu_count() or 1)))
    ap.add_argument("--gauss-std", action="store_true",
                    help="read the Gaussian dispersion 1/8 as a standard deviation")
    ap.add_argument("--out", default="section_iv_out")
    args = ap.parse_args()

    mode = "std" if args.gauss_std else "variance"
    print(f"building n={args.n} ER(p={args.er_prob}) instance, seed={args.seed}, "
          f"gauss_mode={mode}")
    graph = graph_er_iv(args.n, args.er_prob, args.seed, gauss_mode=mode)
    mean = mean_matrix(graph)
    eta = mean.eta_abar()
    static_thr = DELTA / eta
    print(f"  edges: {graph.m} (+{len(graph.metadata['dead_pairs'])} dead pairs)")
    print(f"  eta(Abar) = {eta:.3f}")
    print(f"  static threshold  delta/eta(Abar) = {static_thr:.4e}")

    t0 = time.time()
    t4_thr = threshold_in_beta(mean, DELTA, "t4", (1e-8, 2 * static_thr))
    print(f"  certified threshold (discrete-time certificate) = {t4_thr:.4e}"
          f"   [{time.time() - t0:.1f}s]")

    grid = np.linspace(5e-4, 10e-4, 12)
    print(f"running re-infection protocol: {grid.size} beta values x {args.paths} paths "
          f"x {args.steps} steps on {args.threads} workers")
    t0 = time.time()
    rep = empirical_threshold(graph, DELTA, grid, paths=args.paths, steps=args.steps,
                              seed=args.seed * 1000 + 7, threads=args.threads)
    print(f"  done in {time.time() - t0:.0f}s")
    for b, y, z, se in zip(rep.beta_grid, rep.y_star, rep.z_star, rep.z_stderr):
        print(f"  beta={b:.3e}  y*={y:7.3f}  z*={z:7.3f} +- {se:.3f}")
    print(f"  empirical threshold beta* = {rep.beta_star:.4e}")
    if rep.beta_bracket is None:
        print("  z* = 1 is not crossed inside the grid")
    else:
        print(f"  crossing bracket: z* < 1 at {rep.beta_bracket[0]:.4e}, "
              f"next grid beta {rep.beta_bracket[1]:.4e}")
    ordered = t4_thr < rep.beta_star < static_thr
    print(f"  ordering certified < beta* < static: {'OK' if ordered else 'VIOLATED'}")

    os.makedirs(args.out, exist_ok=True)
    summary = {
        "seed": args.seed, "n": args.n, "er_prob": args.er_prob, "gauss_mode": mode,
        "eta_abar": eta, "static_threshold": static_thr, "certified_threshold": t4_thr,
        "beta_grid": rep.beta_grid.tolist(), "y_star": rep.y_star.tolist(),
        "z_star": rep.z_star.tolist(), "z_stderr": rep.z_stderr.tolist(),
        "beta_star": rep.beta_star, "beta_bracket": rep.beta_bracket,
        "paths": args.paths, "steps": args.steps,
    }
    path = os.path.join(args.out, f"summary_seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump(_jsonable(summary), fh, indent=2, allow_nan=False)
    print(f"wrote {path}")
    return 0 if ordered else 1


if __name__ == "__main__":
    sys.exit(main())
