"""small_exact: ground truth on small instances and the continuous-time code.

One round runs, on seeded inputs:

* four connected 8-node CT AMEI graphs with 8, 12, 13 and 14 two-state
  edges (exact generators of dimension 2,048 to 131,072): T2, assembly of
  the exact generator, the exact condition, and the exhaustive E[eta(M2)].
  The 14-edge graph is the same on every seed: the power iteration's cost
  depends on the instance, and on seeded 14-edge graphs it ranged over
  1.8-3.3 s, more than the rest of the round varies;
* the exact condition on a fixed graph whose union graph has an isolated
  node, which fails today (the one failed operation of this workload);
* the Chung tail check on the M2 family of a complete 20-node graph;
* exact CT simulation on a complete edge-Markovian graph with n=40, and
  800 short runs on a 2-node, 1-edge graph;
* 20 sampled paths of a T2-certified 8-node graph, each propagated with
  rk45, and the decay-rate estimate over them.
"""

from __future__ import annotations

import numpy as np

import reference
from tempest import (AMEI, DynamicGraphModel, EpidemicParams, RandomMatrixSampler,
                     assemble_exponential_generator, build_edge_markovian,
                     certify_amei_ct, chung_tail_check, decay_rate_estimate,
                     expected_certificate, exponential_condition,
                     graph_complete_edge_markovian, mean_matrix, propagate_linear,
                     sample_graph_path, simulate_ct_exact, threshold_in_beta)
from tempest.errors import ConvergenceFailure

N = 8
SEEDED_EDGES = (8, 12, 13)
FIXED_EDGES = 14
ORACLE_Q, ORACLE_R, ORACLE_BETA, ORACLE_DELTA = 1.0, 0.5, 0.3, 1.0
DENSE_CHECK_DIM = 2048
MC_DRAWS = 4000
# Union graph: a 7-node component and the isolated node 7 (dimension 4,096).
FAULT_PAIRS = ((0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 6), (4, 5), (4, 6), (5, 6))
CHUNG_N, CHUNG_DRAWS = 20, 20_000
CHUNG_S = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0)
CT_N, CT_Q, CT_R, CT_BETA, CT_DELTA, CT_HORIZON, CT_RUNS = 40, 0.2, 0.2, 0.1, 1.0, 5.0, 3
PAIR_Q, PAIR_R, PAIR_BETA, PAIR_DELTA, PAIR_HORIZON, PAIR_RUNS = 1.0, 1.0, 1.0, 1.0, 1.0, 800
DECAY_EDGES, DECAY_Q, DECAY_R, DECAY_DELTA = 10, 0.2, 2.0, 1.0
DECAY_PATHS, DECAY_HORIZON, DECAY_CHECKED_PATHS = 20, 25.0, 2


def _connected_pairs(rng, n: int, m: int) -> list:
    """m distinct pairs i < j, drawn uniformly until they connect all n nodes."""
    iu, ju = np.triu_indices(n, k=1)
    while True:
        pick = rng.choice(iu.size, m, replace=False)
        pairs = sorted(zip(iu[pick].tolist(), ju[pick].tolist()))
        if len(_components(n, pairs)) == 1:
            return pairs


def _components(n: int, pairs) -> list:
    parent = list(range(n))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in pairs:
        parent[root(i)] = root(j)
    groups: dict = {}
    for i in range(n):
        groups.setdefault(root(i), []).append(i)
    return list(groups.values())


def _graph(tr, n, pairs, q, r):
    with tr.span("graphs.build"):
        return DynamicGraphModel(n, AMEI, {p: build_edge_markovian(q, r) for p in pairs})


def setup(seed: int, tr) -> dict:
    rng = np.random.default_rng([seed, 3])
    oracle_params = EpidemicParams.homogeneous(ORACLE_BETA, ORACLE_DELTA, N)
    edge_sets = [_connected_pairs(rng, N, m) for m in SEEDED_EDGES]
    edge_sets.append(_connected_pairs(np.random.default_rng(0), N, FIXED_EDGES))
    oracle = [{"pairs": pairs, "graph": _graph(tr, N, pairs, ORACLE_Q, ORACLE_R)}
              for pairs in edge_sets]
    chung_q, chung_r = rng.uniform(0.5, 1.5, size=2)
    with tr.span("graphs.build"):
        chung_graph = graph_complete_edge_markovian(CHUNG_N, chung_q, chung_r)
    with tr.span("graphs.mean_matrix", count=chung_graph.m):
        chung_mean = mean_matrix(chung_graph)
    with tr.span("graphs.build"):
        ct_graph = graph_complete_edge_markovian(CT_N, CT_Q, CT_R)

    decay_pairs = _connected_pairs(rng, N, DECAY_EDGES)
    decay_graph = _graph(tr, N, decay_pairs, DECAY_Q, DECAY_R)
    with tr.span("graphs.mean_matrix", count=decay_graph.m):
        decay_mean = mean_matrix(decay_graph)
    with tr.span("thresholds.search_t2"):
        t2 = threshold_in_beta(decay_mean, DECAY_DELTA, "t2", (1e-6, 10.0))
    # Between the support graph's own threshold and T2's, only the T2 route
    # itself can certify.
    support = np.zeros((N, N))
    for i, j in decay_pairs:
        support[i, j] = support[j, i] = 1.0
    decay_beta = 0.5 * (DECAY_DELTA / np.linalg.eigvalsh(support)[-1] + t2)
    return {
        "seed": seed,
        "oracle": oracle,
        "oracle_params": oracle_params,
        "fault_graph": _graph(tr, N, FAULT_PAIRS, ORACLE_Q, ORACLE_R),
        "chung_sampler": RandomMatrixSampler.from_mean(
            "M2", chung_mean, EpidemicParams.homogeneous(ORACLE_BETA, ORACLE_DELTA, CHUNG_N)),
        "ct_graph": ct_graph,
        "pair_graph": _graph(tr, 2, [(0, 1)], PAIR_Q, PAIR_R),
        "decay_pairs": decay_pairs,
        "decay_graph": decay_graph,
        "decay_mean": decay_mean,
        "decay_beta": float(decay_beta),
        "run_seed": int(rng.integers(2**31)),
    }


def _oracle(tr, graph, params) -> dict:
    with tr.span("graphs.mean_matrix", count=graph.m):
        mean = mean_matrix(graph)
    with tr.span("thresholds.certify_t2"):
        report = certify_amei_ct(mean, params)
    with tr.span("oracle.assemble"):
        mat = assemble_exponential_generator(graph, params)
    with tr.span("oracle.exponential_condition", count=mat.shape[0]):
        stable, eta = exponential_condition(graph, params)
    with tr.span("oracle.expected_certificate"):
        expected = expected_certificate(RandomMatrixSampler.from_mean("M2", mean, params))
    return {"report": report, "matrix": mat, "stable": stable, "eta": eta,
            "expected": expected.value}


def _ct_run(tr, graph, rates, horizon, seed):
    with tr.span("simulate.ct_exact") as span:
        trace = simulate_ct_exact(graph, rates, horizon, seed=seed)
        span.count = trace.times.size - 1
    return trace


def run_round(inp: dict, tr) -> dict:
    params = inp["oracle_params"]
    out = {"oracle": [_oracle(tr, case["graph"], params) for case in inp["oracle"]]}

    fault_dim = N << len(FAULT_PAIRS)
    try:
        with tr.span("oracle.exponential_condition", count=fault_dim):
            out["fault"] = exponential_condition(inp["fault_graph"], params)
    except ConvergenceFailure:
        out["fault"] = None

    with tr.span("oracle.chung_tail_check"):
        out["chung"] = chung_tail_check(inp["chung_sampler"], CHUNG_S, draws=CHUNG_DRAWS,
                                        seed=inp["run_seed"])

    seed = inp["run_seed"]
    out["ct"] = [_ct_run(tr, inp["ct_graph"], (CT_BETA, CT_DELTA), CT_HORIZON, seed + k)
                 for k in range(CT_RUNS)]
    out["pair_extinct"] = sum(
        _ct_run(tr, inp["pair_graph"], (PAIR_BETA, PAIR_DELTA), PAIR_HORIZON, seed + k).extinct
        for k in range(PAIR_RUNS))

    decay_params = EpidemicParams.homogeneous(inp["decay_beta"], DECAY_DELTA, N)
    with tr.span("thresholds.certify_t2"):
        out["decay_report"] = certify_amei_ct(inp["decay_mean"], decay_params)
    paths, trajectories = [], []
    for k in range(DECAY_PATHS):
        with tr.span("graphs.sample_graph_path"):
            path = sample_graph_path(inp["decay_graph"], horizon=DECAY_HORIZON, seed=seed + k)
        with tr.span("simulate.propagate_linear", count=path.times.size - 1):
            trajectories.append(propagate_linear(path, decay_params))
        paths.append(path)
    with tr.span("simulate.decay_rate_estimate"):
        out["decay"] = decay_rate_estimate(trajectories)
    out["decay_paths"] = list(zip(paths[:DECAY_CHECKED_PATHS], trajectories))
    return out


def fingerprint(out: dict) -> dict:
    return {
        "oracle_eta": [case["eta"] for case in out["oracle"]],
        "oracle_expected": [case["expected"] for case in out["oracle"]],
        "fault_failed": out["fault"] is None,
        "chung": out["chung"].empirical.tolist(),
        "ct_events": [trace.times.size for trace in out["ct"]],
        "ct_final": [trace.final_count for trace in out["ct"]],
        "pair_extinct": out["pair_extinct"],
        "decay_rate": out["decay"].rate,
    }


def _fault_reference() -> float:
    """Largest abscissa over the fault graph's components; -delta if isolated."""
    best = -np.inf
    for nodes in _components(N, FAULT_PAIRS):
        index = {v: k for k, v in enumerate(nodes)}
        pairs = [(index[i], index[j]) for i, j in FAULT_PAIRS if i in index]
        if not pairs:
            best = max(best, -ORACLE_DELTA)
            continue
        mat = reference.exact_generator(len(nodes), pairs, ORACLE_Q, ORACLE_R,
                                        ORACLE_BETA, ORACLE_DELTA)
        best = max(best, reference.rightmost_eigenvalue(mat))
    return best


def check(inp: dict, out: dict) -> list:
    bad = []

    def expect(ok, what):
        if not ok:
            bad.append(what)

    rng = np.random.default_rng([inp["seed"], 5])
    p_on = ORACLE_Q / (ORACLE_Q + ORACLE_R)
    for case, res in zip(inp["oracle"], out["oracle"]):
        pairs, mat = case["pairs"], res["matrix"]
        tag = f"{len(pairs)} edges"
        arpack = reference.rightmost_eigenvalue(mat)
        expect(abs(res["eta"] - arpack) <= 1e-8,
               f"{tag}: exact-condition eta {res['eta']!r} vs ARPACK {arpack!r}")
        expect(res["stable"] == (res["eta"] < 0), f"{tag}: verdict disagrees with eta")
        if mat.shape[0] <= DENSE_CHECK_DIM:
            own = reference.exact_generator(N, pairs, ORACLE_Q, ORACLE_R,
                                            ORACLE_BETA, ORACLE_DELTA).toarray()
            err = float(np.abs(mat.toarray() - own).max())
            expect(err <= 1e-12, f"{tag}: assembled generator differs by {err:.3e}")
        if res["report"].stable:
            expect(res["expected"] < 0,
                   f"{tag}: T2 stable but exhaustive E[eta(M2)] = {res['expected']!r}")
        ii, jj = np.array(pairs).T
        h = rng.random((MC_DRAWS, len(pairs))) < p_on
        m2 = np.broadcast_to(-ORACLE_DELTA * np.eye(N), (MC_DRAWS, N, N)).copy()
        m2[:, ii, jj] += ORACLE_BETA * h
        m2[:, jj, ii] += ORACLE_BETA * h
        etas = np.linalg.eigvalsh(m2)[:, -1]
        se = etas.std(ddof=1) / np.sqrt(MC_DRAWS)
        expect(abs(res["expected"] - etas.mean()) <= 4 * se,
               f"{tag}: E[eta(M2)] {res['expected']!r} vs Monte-Carlo "
               f"{etas.mean()!r} +- {se:.2e}")

    if out["fault"] is not None:
        stable, eta = out["fault"]
        ref = _fault_reference()
        expect(abs(eta - ref) <= 1e-8, f"fault graph: eta {eta!r} vs components {ref!r}")

    chung = out["chung"]
    for s, freq, bound, se in chung.rows():
        expect(freq <= bound + 3 * se, f"Chung tail at s={s}: {freq} > bound {bound} + 3 SE")

    for trace in out["ct"]:
        steps = np.diff(trace.infected_counts)
        expect(bool(np.all(np.diff(trace.times) > 0)) and trace.times[-1] < CT_HORIZON
               and bool(np.all(np.abs(steps) == 1))
               and 0 <= trace.infected_counts.min() and trace.infected_counts.max() <= CT_N,
               f"CT run {trace.seed}: times must rise and counts move by one within [0, n]")
    exact = reference.pair_extinction(PAIR_Q, PAIR_R, PAIR_BETA, PAIR_DELTA, PAIR_HORIZON)
    freq = out["pair_extinct"] / PAIR_RUNS
    se = np.sqrt(exact * (1 - exact) / PAIR_RUNS)
    expect(abs(freq - exact) <= 4 * se,
           f"2-node extinction frequency {freq} vs exact {exact:.5f} +- {se:.4f}")

    report = out["decay_report"]
    expect(report.stable and report.certificate == "T2",
           f"decay instance not certified by the T2 route: {report.certificate} "
           f"stable={report.stable}")
    for path, traj in out["decay_paths"]:
        own = reference.expm_log_norms(path.times, path.adjacency, inp["decay_beta"],
                                       DECAY_DELTA)
        err = float(np.abs(traj.log_norms - own).max())
        expect(err <= 1e-8, f"rk45 log-norms differ from the expm product by {err:.3e}")
    decay = out["decay"]
    if report.stable:
        expect(decay.rate >= report.decay_rate_bound - 3 * decay.stderr,
               f"decay estimate {decay.rate} +- {decay.stderr} below the T2 bound "
               f"{report.decay_rate_bound}")
    return bad
