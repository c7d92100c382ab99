"""iv_protocol: the Section IV re-infection protocol.

Set-up builds the n=500 instance.  One round is one ``empirical_threshold``
call (single thread) over a beta grid that runs from far below the
certified threshold to twice the static one, with a few 1000-step paths
per beta; nearly all of it is the discrete-time kernel in ``simulate``.
"""

from __future__ import annotations

import numpy as np

import reference
from tempest import empirical_threshold, graph_er_iv, graph_to_json

N, ER_PROB, DELTA = 500, 0.2, 0.05
BETA_GRID = np.array([5e-5, 3e-4, 7e-4, 1.5e-3, 2e-3])
PATHS, STEPS = 4, 1000
# z* < 1 is required where beta * eta(Abar) / delta <= LOW: mean-field
# re-infection then holds about 1/(1 - LOW) nodes, so z* is about 0.11, and
# a mean of PATHS final counts reaches 2 only if their sum reaches 2 * PATHS.
LOW = 0.1
# z* >= HIGH_LEVEL * n is required where beta >= HIGH * delta / eta(Abar):
# the mean-field endemic level there is n (1 - 1/HIGH) = n / 3.
HIGH, HIGH_LEVEL = 1.5, 0.05


def setup(seed: int, tr) -> dict:
    with tr.span("graphs.build"):
        graph = graph_er_iv(N, ER_PROB, seed)
    return {"graph": graph, "seed": seed}


def run_round(inp: dict, tr) -> dict:
    graph = inp["graph"]
    with tr.span("simulate.empirical_threshold", count=BETA_GRID.size * PATHS * STEPS * graph.m):
        report = empirical_threshold(graph, DELTA, BETA_GRID, paths=PATHS, steps=STEPS,
                                     seed=inp["seed"], threads=1)
    return {"report": report}


def fingerprint(out: dict) -> dict:
    return {"final_counts": out["report"].final_counts.ravel().tolist()}


def check(inp: dict, out: dict) -> list:
    bad = []
    rep = out["report"]
    eta = float(np.linalg.eigvalsh(reference.own_mean(graph_to_json(inp["graph"])))[-1])
    static = DELTA / eta
    if not np.array_equal(rep.beta_grid, BETA_GRID):
        bad.append(f"beta grid {rep.beta_grid} is not the grid asked for")
    finals = rep.final_counts
    if finals.shape != (BETA_GRID.size, PATHS) or finals.min() < 1 or finals.max() > N:
        bad.append("final counts must be one per path and lie in [1, n] under re-infection")
    if not np.allclose(rep.z_star, finals.mean(axis=1) - 1.0, rtol=0, atol=1e-12):
        bad.append("z* is not the mean final count minus one")
    low = BETA_GRID <= LOW * static
    high = BETA_GRID >= HIGH * static
    if not low.any() or not high.any():
        bad.append(f"grid does not reach below {LOW} and above {HIGH} x static {static:.3e}")
    for beta, z in zip(BETA_GRID, rep.z_star):
        if z < 0:
            bad.append(f"z*={z} < 0 at beta={beta}")
    for beta, z in zip(BETA_GRID[low], rep.z_star[low]):
        if not z < 1:
            bad.append(f"z*={z} not below 1 at beta={beta} <= {LOW} x static")
    for beta, z in zip(BETA_GRID[high], rep.z_star[high]):
        if not z >= HIGH_LEVEL * N:
            bad.append(f"z*={z} not above {HIGH_LEVEL * N} at beta={beta} >= {HIGH} x static")
    return bad
