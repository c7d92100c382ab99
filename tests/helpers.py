"""Shared test utilities: instance generators and independent oracles.

The grid-oracle functions re-implement every certificate formula from
scratch (direct kappa evaluation, own bisection, dense eigensolvers, and a
uniform 10^7-point grid maximizer) so the package implementation can be
cross-checked end to end.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from tempest import AMAI, AMEI, DynamicGraphModel, EdgeTable, build_coxian_edge, \
    build_edge_markovian, build_static_edge, stationary_distribution
from tempest import rng as rngmod
from tempest.errors import BracketError, DivergenceDetected, EmptyInterval, NumericalFailure
from tempest.markov import CT, DT
from tempest.spectral import _DIVERGENCE_CAP, _REFINE_BRACKETS, ScalarMaximizeResult, _log_kappa, \
    c_minus, kappa, kappa_inv_at_one, maximize_on_interval
from tempest.graphs import CHAIN0, MARKOV2, STATIC_OFF, STATIC_ON, GraphPath, \
    _two_state_table, arcs
from tempest.simulate import SimulationTrace, _init_mask, _rates
from tempest.thresholds import SUPPORT_TRIVIAL, T1, T2, EpidemicParams, ThresholdReport, \
    _as_mean, _check, _mix, _static_report, certify, kappa_params


# ---------------------------------------------------------------------------
# Random instance generators
# ---------------------------------------------------------------------------

def random_amei_ct(rng, n, p_edge=0.5, rate_lo=0.3, rate_hi=1.5):
    edges = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p_edge:
                edges[(i, j)] = build_edge_markovian(rng.uniform(rate_lo, rate_hi),
                                                     rng.uniform(rate_lo, rate_hi))
    return DynamicGraphModel(n, AMEI, edges)


def random_amai_ct(rng, n, p_edge=0.4, rate_lo=0.3, rate_hi=1.5):
    edges = {}
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < p_edge:
                edges[(i, j)] = build_edge_markovian(rng.uniform(rate_lo, rate_hi),
                                                     rng.uniform(rate_lo, rate_hi))
    return DynamicGraphModel(n, AMAI, edges)


def random_amei_dt(rng, n, p_edge=0.5, prob_lo=0.1, prob_hi=0.9):
    edges = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p_edge:
                edges[(i, j)] = build_edge_markovian(rng.uniform(prob_lo, prob_hi),
                                                     rng.uniform(prob_lo, prob_hi),
                                                     time="dt")
    return DynamicGraphModel(n, AMEI, edges)


def reference_graph_er_iv(n: int, er_prob: float, seed: int,
                          gauss_mode: str = "variance") -> DynamicGraphModel:
    """The Section IV ER builder drawn all at once over ``np.triu_indices``.

    Every pair's uniform, then every pair's Gaussian, in one call each;
    ``metadata`` holds the ER skeleton ``er_pairs`` and the ``dead_pairs``
    as lists of (i, j) tuples.
    """
    sigma = float(np.sqrt(1.0 / 8.0)) if gauss_mode == "variance" else 1.0 / 8.0
    rng = rngmod.generator(seed, rngmod.TAG_INSTANCE)
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < er_prob
    r_all = np.clip(rng.normal(0.5, sigma, size=iu.size), 0.0, 1.0)
    i, j, r = iu[keep], ju[keep], r_all[keep]
    dead = r >= 1.0
    er_pairs = list(zip(i.tolist(), j.tolist()))
    dead_pairs = list(zip(i[dead].tolist(), j[dead].tolist()))
    i, j, r = i[~dead], j[~dead], r[~dead]
    table = _two_state_table(i, j, r <= 0.0, 1.0 - r, r, DT)
    meta = {"er_pairs": er_pairs, "dead_pairs": dead_pairs}
    return DynamicGraphModel(n, AMEI, table, metadata=meta)


def random_metzler(rng, n, density=0.6, scale=1.0):
    m = np.where(rng.random((n, n)) < density, rng.uniform(0, scale, (n, n)), 0.0)
    np.fill_diagonal(m, rng.uniform(-scale, scale, n))
    return m


def random_metzler_pair(rng, n):
    """Metzler A <= B entrywise (both Metzler)."""
    b = random_metzler(rng, n)
    cut = rng.random((n, n)) * np.where(b > 0, b, 0.0)
    off = ~np.eye(n, dtype=bool)
    a = b.copy()
    a[off] = b[off] - cut[off]
    a[np.diag_indices(n)] -= rng.random(n)
    return a, b


# ---------------------------------------------------------------------------
# Per-edge references for the edge-table kernels
# ---------------------------------------------------------------------------

def table_edge(table, k: int):
    """The process of edge k of an edge table as an EdgeProcessModel."""
    t = int(table.template[k])
    if t >= CHAIN0:
        return table.chains[t - CHAIN0]
    if t == MARKOV2:
        return build_edge_markovian(table.q[k], table.r[k], table.time)
    return build_static_edge(t == STATIC_ON, table.time)


def edge_objects(graph) -> dict:
    """``{(i, j): EdgeProcessModel}`` of a graph, rebuilt from its edge table."""
    return {key: table_edge(graph.table, k) for k, key in enumerate(graph.edge_keys())}


def reference_from_edges(edges) -> EdgeTable:
    """Table of a ``{(i, j): EdgeProcessModel}`` mapping, object by object."""
    keys = sorted(edges)
    times = {edges[key].time for key in keys}
    if len(times) > 1:
        raise ValueError("all edge processes must share one time base")
    template, q, r, chains = [], [], [], {}
    for key in keys:
        edge, chain = edges[key], edges[key].chain
        if edge.is_static:
            template.append(STATIC_ON if edge.static_value else STATIC_OFF)
        elif edge.builder == "markov2":
            template.append(MARKOV2)
        else:  # equal chains share one template, whatever object carries them
            ident = (edge.builder, repr(edge.params), chain.time, chain.states,
                     chain.initial_state, chain.matrix.tobytes(), edge.output.tobytes())
            template.append(CHAIN0 + chains.setdefault(ident, (len(chains), edge))[0])
        q.append(chain.matrix[0, 1] if template[-1] == MARKOV2 else np.nan)
        r.append(chain.matrix[1, 0] if template[-1] == MARKOV2 else np.nan)
    ij = np.array(keys, dtype=np.intp).reshape(-1, 2)
    return EdgeTable(ij[:, 0], ij[:, 1], template, q, r, times.pop() if times else CT,
                     tuple(edge for _, edge in chains.values()))


def assert_tables_equal(got, ref):
    """Equal edge tables: every column bit for bit (NaN included), the time
    base, and the chains in count and order."""
    for column in ("i", "j", "template", "q", "r"):
        a, b = getattr(got, column), getattr(ref, column)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), column
    assert got.time == ref.time
    assert len(got.chains) == len(ref.chains)
    for a, b in zip(got.chains, ref.chains):
        assert (a.builder, repr(a.params)) == (b.builder, repr(b.params))  # [1] is not [1.0]
        np.testing.assert_array_equal(a.chain.matrix, b.chain.matrix)
        np.testing.assert_array_equal(a.output, b.output)


def reference_edge_from_json(model: dict):
    kind, params, time = model["type"], model.get("params", {}), model.get("time", CT)
    if kind == "markov2":
        return build_edge_markovian(params["q"], params["r"], time)
    if kind == "coxian":
        if time != CT:
            raise ValueError("coxian edges are continuous-time")
        return build_coxian_edge(params["up_rates"], params["exit_rates"],
                                 params["down_rates"], params["return_rates"])
    if kind == "static":
        if not isinstance(params["on"], bool):
            raise ValueError(f"static edge needs 'on' true or false, got {params['on']!r}")
        return build_static_edge(params["on"], time)
    raise ValueError(f"unknown edge model type {kind!r}")


def reference_graph_from_json(doc) -> DynamicGraphModel:
    """``graph_from_json`` edge object by edge object: every JSON model
    becomes an EdgeProcessModel, and the objects a table."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    edges = {}
    for e in doc["edges"]:
        key = (int(e["i"]), int(e["j"]))
        if key in edges:
            raise ValueError(f"edge {key} is listed twice")
        edges[key] = reference_edge_from_json(e["model"])
    return DynamicGraphModel(int(doc["n"]), doc["kind"], reference_from_edges(edges))

def edge_on_probability(edge):
    """Stationary probability that the edge is present: pi(f^{-1}({1}))."""
    if edge.is_static:
        return float(edge.output[0])
    pi = stationary_distribution(edge.chain)
    return float(pi[edge.output == 1].sum())


def reference_mean_matrix(n, kind, edges):
    """Mean matrix edge by edge: one stationary solve per EdgeProcessModel."""
    a = np.zeros((n, n))
    for (i, j), edge in edges.items():
        pi = stationary_distribution(edge.chain)
        a[i, j] = pi[edge.output == 1].sum()
        if kind == AMEI:
            a[j, i] = a[i, j]
    return a


def jump_tables(q: np.ndarray):
    """Per-state jump targets of a generator and their cumulative weights
    (no targets and None for an absorbing state)."""
    targets, cum = [], []
    for s in range(q.shape[0]):
        row = q[s].copy()
        row[s] = 0.0
        idx = np.flatnonzero(row > 0)
        targets.append(idx)
        cum.append(np.cumsum(row[idx]) / row[idx].sum() if idx.size else None)
    return targets, cum


def sample_chain_path_ct(chain, horizon: float, rng: np.random.Generator, init_idx: int):
    """Exact CT chain trajectory on [0, horizon].

    Returns (jump_times, state_indices); state_indices[i] holds on
    [jump_times[i], jump_times[i+1]), with jump_times[0] == 0.
    """
    exit_rate = -np.diag(chain.matrix)
    targets, cum = jump_tables(chain.matrix)
    times = [0.0]
    states = [init_idx]
    t, s = 0.0, init_idx
    while True:
        rate = exit_rate[s]
        if rate <= 0:
            break  # absorbing: stays forever
        t += rng.exponential(1.0 / rate)
        if t >= horizon:
            break
        s = int(targets[s][np.searchsorted(cum[s], rng.random())])
        times.append(t)
        states.append(s)
    return np.asarray(times), np.asarray(states, dtype=np.intp)


def sample_chain_path_dt(chain, steps: int, rng: np.random.Generator,
                         init_idx: int) -> np.ndarray:
    """DT chain trajectory: state indices at k = 0..steps (length steps+1)."""
    p = chain.matrix
    cum = np.cumsum(p, axis=1)
    out = np.empty(steps + 1, dtype=np.intp)
    out[0] = init_idx
    s = init_idx
    u = rng.random(steps)
    for k in range(steps):
        s = int(np.searchsorted(cum[s], u[k], side="right"))
        if s >= p.shape[0]:  # guard against cum[-1] = 1 - eps round-off
            s = p.shape[0] - 1
        out[k + 1] = s
    return out


def initial_index(edge, rng: np.random.Generator) -> int:
    """Initial chain-state index: fixed if declared, else stationary draw."""
    if edge.chain.initial_state is not None:
        return edge.chain.index(edge.chain.initial_state)
    pi = stationary_distribution(edge.chain)
    return int(rng.choice(len(pi), p=pi))


@dataclass
class EdgePath:
    """Piecewise-constant {0,1} trajectory of a single edge process.

    CT: ``values[k]`` holds on [times[k], times[k+1]), with times[0] == 0 and
    an implicit final breakpoint at ``horizon``.  DT: ``times`` is 0..steps
    and ``values[k]`` is the edge state at step k.
    """

    times: np.ndarray
    values: np.ndarray
    horizon: float
    time_base: str


def sample_edge_path(edge, horizon, seed_or_rng, init_index: int | None = None) -> EdgePath:
    """Exact trajectory of one edge over [0, horizon] (CT) or `horizon` steps (DT)."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    rng, _ = rngmod.stream(seed_or_rng)
    if init_index is None:
        init_index = initial_index(edge, rng)
    if edge.time == CT:
        times, states = sample_chain_path_ct(edge.chain, float(horizon), rng, init_index)
        sigma = edge.output[states]
        keep = np.concatenate([[True], sigma[1:] != sigma[:-1]])
        return EdgePath(times[keep], sigma[keep], float(horizon), CT)
    steps = int(horizon)
    states = sample_chain_path_dt(edge.chain, steps, rng, init_index)
    return EdgePath(np.arange(steps + 1), edge.output[states], steps, DT)


def reference_graph_path(n, kind, edges, *, horizon=None, steps=None, seed=0):
    """Graph path edge by edge, each edge walking its own (seed, TAG_EDGE, i, j)
    stream with the per-edge samplers above."""
    keys = sorted(edges)
    length = horizon if steps is None else steps
    paths = {(i, j): sample_edge_path(edges[(i, j)], length,
                                      rngmod.generator(seed, rngmod.TAG_EDGE, i, j))
             for (i, j) in keys}
    if steps is None:
        cuts = {0.0, float(horizon)}
        for p in paths.values():
            cuts.update(p.times.tolist())
        times = np.array(sorted(t for t in cuts if t < horizon) + [float(horizon)])
    else:
        times = np.arange(steps + 1)
    adj = np.zeros((len(times) - 1, n, n))
    for (i, j), p in paths.items():
        if steps is None:
            vals = p.values[np.searchsorted(p.times, times[:-1], side="right") - 1]
        else:
            vals = p.values[:steps]
        adj[:, i, j] = vals
        if kind == AMEI:
            adj[:, j, i] = vals
    return GraphPath(times, adj, "ct" if steps is None else "dt")


# ---------------------------------------------------------------------------
# Continuous-time simulation reference
# ---------------------------------------------------------------------------

def reference_simulate_ct_exact(graph: DynamicGraphModel, params, horizon: float,
                                init_infected="all", seed=0,
                                record_states: bool = False) -> SimulationTrace:
    """``simulate_ct_exact`` as it was before its event-driven kernel: a
    Gillespie step over the joint (edges + epidemic) Markov process.

    Every enabled transition carries an exponential clock: chain jumps at
    the current state's exit rates, recovery at delta_i for infected i,
    infection at beta_i times the number of currently-connected infected
    in-neighbors for susceptible i.  Clocks are refreshed after every event.
    Stops early at extinction (the all-susceptible state is absorbing for
    the epidemic).  ``seed`` is an int, which seeds the untagged stream
    (seed,), or a Generator.
    """
    if graph.m and graph.time != CT:
        raise ValueError("simulate_ct_exact needs a continuous-time graph")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    n = graph.n
    beta, delta = _rates(params, n)
    rng, seed = rngmod.stream(seed)

    table, lay = graph.table, graph.table.layout()
    edges = np.arange(table.m)
    # exit rate, output and cut points (initial law, jump law per chain state)
    # of every edge; static edges never jump
    width = lay.output.shape[1]
    exit_rate, output = np.zeros((table.m, width)), np.zeros((table.m, width))
    cuts = np.full((table.m, width + 1, width - 1), np.inf)
    exit_rate[lay.rows] = -np.diagonal(lay.matrix, axis1=1, axis2=2)
    output[lay.rows] = lay.output
    output[table.template == STATIC_ON, 0] = 1.0
    cuts[lay.rows] = lay.cuts()
    # initial states: one uniform, in row order, per chain without a declared one
    u = np.zeros(table.m)
    drawn = lay.rows[~lay.declared]
    u[drawn] = rng.random(drawn.size)
    state_idx = (cuts[:, 0] <= u[:, None]).sum(axis=1)
    adj = np.zeros((n, n))
    for i, j in arcs(graph.kind, table.i, table.j):
        adj[i, j] = output[edges, state_idx]

    x = _init_mask(init_infected, n)
    t = 0.0
    times = [0.0]
    counts = [int(x.sum())]
    states_log = [x.copy()] if record_states else None

    while True:
        edge_rates = exit_rate[edges, state_idx]
        rec_rates = delta * x
        inf_rates = beta * (adj @ x) * (~x)
        r_edge, r_rec, r_inf = edge_rates.sum(), rec_rates.sum(), inf_rates.sum()
        total = r_edge + r_rec + r_inf
        if total <= 0:
            break
        t += rng.exponential(1.0 / total)
        if t >= horizon:
            break
        u = rng.random() * total
        if u < r_edge:
            e = int(np.searchsorted(np.cumsum(edge_rates), u))
            nxt = int((cuts[e, 1 + state_idx[e]] <= rng.random()).sum())
            state_idx[e] = nxt
            for i, j in arcs(graph.kind, table.i[e], table.j[e]):
                adj[i, j] = output[e, nxt]
            continue  # infected count unchanged
        if u < r_edge + r_rec:
            i = int(np.searchsorted(np.cumsum(rec_rates), u - r_edge))
            x[i] = False
        else:
            i = int(np.searchsorted(np.cumsum(inf_rates), u - r_edge - r_rec))
            x[i] = True
        times.append(t)
        counts.append(int(x.sum()))
        if record_states:
            states_log.append(x.copy())
        if counts[-1] == 0:
            break  # epidemic extinct; edge dynamics no longer matter

    return SimulationTrace(np.asarray(times), np.asarray(counts, dtype=np.int64),
                           seed, CT, 0,
                           np.asarray(states_log) if record_states else None)


def pair_extinction_probability(q, r, beta, delta, t):
    """P(extinct by t) for 2 nodes, both infected at 0, joined by one CT
    2-state edge that starts in its stationary law: the 8-state joint chain
    (edge, x0, x1), index 4 e + 2 x0 + x1, solved by a matrix exponential."""
    gen = np.zeros((8, 8))
    for e in (0, 1):
        for x0 in (0, 1):
            for x1 in (0, 1):
                s = 4 * e + 2 * x0 + x1
                gen[s, 4 * (1 - e) + 2 * x0 + x1] += r if e else q
                if x0:
                    gen[s, 4 * e + x1] += delta
                elif e and x1:
                    gen[s, 4 * e + 2 + x1] += beta
                if x1:
                    gen[s, 4 * e + 2 * x0] += delta
                elif e and x0:
                    gen[s, 4 * e + 2 * x0 + 1] += beta
    gen -= np.diag(gen.sum(axis=1))
    p0 = np.zeros(8)
    p0[3], p0[7] = r / (q + r), q / (q + r)
    pt = p0 @ scipy.linalg.expm(gen * t)
    return float(pt[0] + pt[4])


@functools.lru_cache(maxsize=16)
def _edge_laws(graph, stepped):
    """Endpoints, first law row, on-state count and laws of the switching rows
    (none unless ``stepped``), laid out as ``_SwitchingEdges`` reads them."""
    table = graph.table
    rows = np.flatnonzero(table.template >= MARKOV2) if stepped else np.zeros(0, dtype=int)
    laws, first, n_on = [], [], []
    for k in rows:
        edge = table_edge(table, k)
        chain = edge.chain
        order = np.concatenate([np.flatnonzero(edge.output == 1), np.flatnonzero(edge.output == 0)])
        if chain.initial_state is not None:
            init = (order == chain.index(chain.initial_state)).astype(float)
        elif table.template[k] == MARKOV2:
            init = np.array([table.q[k], table.r[k]]) / (table.q[k] + table.r[k])
        else:
            init = stationary_distribution(chain)[order]
        first.append(len(laws))
        n_on.append(int(edge.output.sum()))
        laws += [np.cumsum(init)] + list(np.cumsum(chain.matrix[np.ix_(order, order)], axis=1))
    keys = np.concatenate([np.zeros(0, dtype=complex)]
                          + [row_id + 1j * law for row_id, law in enumerate(laws)])
    size = np.array([law.size for law in laws], dtype=int)
    start = np.concatenate([[0], np.cumsum(size)[:-1]]).astype(int)
    return (table.i[rows], table.j[rows], np.array(first, dtype=int), np.array(n_on, dtype=int),
            keys, start, size)


class _SwitchingEdges:
    """The switching rows of an edge table, stepped edge by edge.  Each edge
    has a cumulative initial law and one cumulative transition row per state,
    its chain's states listed on-states first.  The rows lie end to end as
    complex keys (row id + 1j * cumulative value), so one ``np.searchsorted``
    finds, inside every edge's own row, the first state whose cumulative law
    exceeds the edge's uniform (the last state if round-off leaves the law
    short of 1)."""

    def __init__(self, graph, stepped=True):
        (self.i, self.j, self.first, self.n_on, self.keys, self.start,
         self.size) = _edge_laws(graph, stepped)
        self.state = None

    def draw(self, rng):
        """One uniform per edge: initial states on the first call, then one step."""
        u = rng.random(self.first.size)
        rows = self.first if self.state is None else self.first + 1 + self.state
        pos = np.searchsorted(self.keys, rows + 1j * u, side="right") - self.start[rows]
        self.state = np.minimum(pos, self.size[rows] - 1)

    @property
    def on(self):
        return self.state < self.n_on


def _static_on_rows(graph):
    from tempest.graphs import STATIC_ON
    table = graph.table
    return table.i[table.template == STATIC_ON], table.j[table.template == STATIC_ON]


def _bincount_contacts(graph, ei, ej, s_on, si, sj, x):
    """Infected in-neighbours of every node, one bincount per edge group."""
    n, undirected = graph.n, graph.kind == AMEI
    c = np.zeros(n)
    if ei.size:
        c += np.bincount(ei[s_on & x[ej]], minlength=n)
        if undirected:
            c += np.bincount(ej[s_on & x[ei]], minlength=n)
    if si.size:
        c += np.bincount(si[x[sj]], minlength=n)
        if undirected:
            c += np.bincount(sj[x[si]], minlength=n)
    return c


def reference_dt_run(graph, beta, delta, steps, x0, reinfect, rng, record_states,
                     edge_path=None):
    """One DT run at one beta vector: the per-beta bincount runner the
    lane-batched kernel replaced, its switching edges stepped one at a time.
    The edges draw their initial states, then once at the end of every step:
    the kernel's sequence of draws, which has each step's edges draw first.
    Returns (x, counts, reinfections, states)."""
    edges, (si, sj) = _SwitchingEdges(graph, edge_path is None), _static_on_rows(graph)
    edges.draw(rng)
    n, x = x0.size, x0.copy()
    with np.errstate(divide="ignore"):
        log1m_beta = np.log1p(-beta)
    counts = np.empty(steps + 1, dtype=np.int64)
    counts[0] = x.sum()
    states = [x.copy()] if record_states else None
    reinfections = 0
    for k in range(steps):
        if edge_path is not None:
            c = edge_path.adjacency[k] @ x
        else:
            c = _bincount_contacts(graph, edges.i, edges.j, edges.on, si, sj, x)
        with np.errstate(invalid="ignore"):
            p_inf = np.where(c > 0, -np.expm1(c * log1m_beta), 0.0)
        new_inf = (~x) & (rng.random(n) < p_inf)
        recov = x & (rng.random(n) < delta)
        x = (x & ~recov) | new_inf
        if reinfect and not x.any():
            x[int(rng.integers(n))] = True
            reinfections += 1
        edges.draw(rng)
        counts[k + 1] = x.sum()
        if record_states:
            states.append(x.copy())
    return x, counts, reinfections, np.asarray(states) if record_states else None


def naive_lane_run(graph, beta, delta, steps, x0, reinfect, rng, record_states):
    """G lanes (columns of ``beta``) stepped one lane at a time with the
    lane kernel's shared draws: per step one infection and one recovery
    uniform per node, one re-infection node per extinct lane in lane order,
    then the edges.  Returns (counts, reinfections, states) shaped like the
    kernel's."""
    edges, (si, sj) = _SwitchingEdges(graph), _static_on_rows(graph)
    edges.draw(rng)
    n, lanes = beta.shape
    xs = [x0.copy() for _ in range(lanes)]
    counts = np.empty((steps + 1, lanes), dtype=np.int64)
    counts[0] = [x.sum() for x in xs]
    states = [np.stack(xs, axis=1)] if record_states else None
    reinfections = np.zeros(lanes, dtype=np.int64)
    for k in range(steps):
        u_inf, u_rec = rng.random(n), rng.random(n)
        for g in range(lanes):
            c = _bincount_contacts(graph, edges.i, edges.j, edges.on, si, sj, xs[g])
            with np.errstate(divide="ignore", invalid="ignore"):
                p_inf = np.where(c > 0, -np.expm1(c * np.log1p(-beta[:, g])), 0.0)
            xs[g] = (xs[g] & ~(u_rec < delta)) | (~xs[g] & (u_inf < p_inf))
        for g in range(lanes):
            if reinfect and not xs[g].any():
                xs[g][int(rng.integers(n))] = True
                reinfections[g] += 1
        edges.draw(rng)
        counts[k + 1] = [x.sum() for x in xs]
        if record_states:
            states.append(np.stack(xs, axis=1))
    return counts, reinfections, np.asarray(states) if record_states else None


# ---------------------------------------------------------------------------
# References for the certificate random matrices and the tail check
# ---------------------------------------------------------------------------

def reference_from_bits(sampler, bits):
    """Support configurations to matrices by fancy-indexed += over the last two axes."""
    bits = np.asarray(bits, dtype=float)
    out = np.broadcast_to(sampler._base, bits.shape[:-1] + (sampler.n, sampler.n)).copy()
    w = sampler._rw * bits
    # index pairs are unique, so fancy-indexed += accumulates correctly
    out[..., sampler._ri, sampler._rj] += w
    if sampler.symmetric:
        out[..., sampler._rj, sampler._ri] += w
    return out


def reference_tail_counts(sampler, s_grid, draws, seed, batch=2048):
    """Exceedance counts of chung_tail_check with eigvalsh on every draw."""
    s_grid = np.atleast_1d(np.asarray(s_grid, dtype=float))
    eta_mean = float(np.linalg.eigvalsh(sampler.expectation())[-1])
    rng = rngmod.generator(seed, rngmod.TAG_DRAW)
    exceed = np.zeros(s_grid.size, dtype=np.int64)
    for start in range(0, draws, batch):
        k = min(batch, draws - start)
        h = rng.random((k, sampler.n_random_pairs)) < sampler._rp
        etas = np.linalg.eigvalsh(reference_from_bits(sampler, h))[:, -1]
        exceed += (etas[:, None] > eta_mean + s_grid[None, :]).sum(axis=0)
    return exceed


# ---------------------------------------------------------------------------
# Dense reference for the exact oracle
# ---------------------------------------------------------------------------

def reference_exact_generator(graph, beta, delta):
    """Dense Pi (x) I_n + blockdiag_l (B F_l - D), edge object by edge object.

    Pi is the Kronecker sum of the switching edges' chain generators, built
    with np.kron in (i, j) order, edge 0 the fastest-varying factor; F_l
    holds the static-on edges and every switching edge whose output map is 1
    at its digit of label l.
    """
    n = graph.n
    edges = sorted(edge_objects(graph).items())
    switching = [(key, e) for key, e in edges if not e.is_static]
    static_on = [key for key, e in edges if e.is_static and e.static_value == 1]
    sizes = [e.chain.n_states for _, e in switching]
    big_l = int(np.prod(sizes, dtype=np.int64))
    pi = np.zeros((big_l, big_l))
    for k, (_, e) in enumerate(switching):
        before, after = int(np.prod(sizes[:k])), int(np.prod(sizes[k + 1:]))
        pi += np.kron(np.eye(after), np.kron(e.chain.matrix, np.eye(before)))
    out = np.kron(pi, np.eye(n))
    for ell in range(big_l):
        digits = np.unravel_index(ell, sizes[::-1])[::-1] if sizes else ()
        on = static_on + [key for (key, e), d in zip(switching, digits) if e.output[d] == 1]
        f = np.zeros((n, n))
        for i, j in on:
            f[i, j] = 1.0
            if graph.kind == AMEI:
                f[j, i] = 1.0
        block = slice(ell * n, (ell + 1) * n)
        out[block, block] += np.asarray(beta)[:, None] * f - np.diag(delta)
    return out


def reference_modes(graph, beta, delta):
    """Dense (U, lam, s, sigma) of a block whose switching edges are 2-state
    chains, edge by edge in ``reference_exact_generator``'s order.

    With q and r edge k's rates 0 -> 1 and 1 -> 0, U = kron(.., U_1, U_0),
    U_k = [[sqrt r, sqrt q], [sqrt q, -sqrt r]] / sqrt(q + r); lam is the
    diagonal of the Kronecker sum of the diag(0, -(q + r)); s = 1/sqrt(pi)
    (x) sqrt(beta), pi the product of the laws (r, q) / (q + r); and
    sigma = max(eta(B^1/2 F B^1/2 - D), 0) + max delta, with F the
    adjacency of every static-on and switching edge, by dense eigvalsh.
    """
    n = graph.n
    f, u, lam, pi = np.zeros((n, n)), np.ones((1, 1)), np.zeros(1), np.ones(1)
    for (i, j), e in sorted(edge_objects(graph).items()):
        f[i, j] = f[j, i] = float(not e.is_static or e.static_value == 1)
    for basis, (q, r) in zip(*reference_edge_bases(graph)):
        u = np.kron(basis, u)
        lam = np.kron([0.0, -(q + r)], np.ones(lam.size)) + np.kron(np.ones(2), lam)
        pi = np.kron(np.array([r, q]) / (q + r), pi)
    root = np.sqrt(beta)
    top = np.linalg.eigvalsh(root[:, None] * f * root - np.diag(delta))[-1]
    return u, lam, np.kron(1.0 / np.sqrt(pi), root), max(top, 0.0) + delta.max()


def reference_edge_bases(graph):
    """([U_k], [(q_k, r_k)]) of a block's 2-state switching edges in
    ``reference_exact_generator``'s order (see ``reference_modes``)."""
    bases, rates = [], []
    for _, e in sorted(edge_objects(graph).items()):
        if not e.is_static:
            q, r = e.chain.matrix[0, 1], e.chain.matrix[1, 0]
            basis = np.array([[math.sqrt(r), math.sqrt(q)], [math.sqrt(q), -math.sqrt(r)]])
            bases.append(basis / math.sqrt(q + r))
            rates.append((q, r))
    return bases, rates


def reference_transform(bases, x, n):
    """(kron(.., U_1, U_0) (x) I_n) x without forming the product: x read as
    a (2,) * m + (n,) tensor, edge k's digit on axis m - 1 - k, and each
    U_k applied to its axis by tensordot."""
    t = x.reshape((2,) * len(bases) + (n,))
    for k, basis in enumerate(bases):
        axis = len(bases) - 1 - k
        t = np.moveaxis(np.tensordot(basis, t, axes=([1], [axis])), 0, axis)
    return t.ravel()


def reference_contact(enum, beta, delta):
    """blockdiag_l (B F_l - D) as ``oracle._contact`` wrote it before it held
    its cells as arrays: a dict of cells, a float32 membership product for
    the row counts and an int64 flat index of the present cells.

    The cells a block can hold, in row-major order, are a nonzero cell of
    the base, present in every label, and a switching arc with a nonzero
    beta, present where its edge is on; an (L, cells) table marks them, and
    the present cells read row by row are the CSR entries.
    """
    n, big_l = enum.n, enum.n_labels
    base = beta[:, None] * enum.static_base - np.diag(delta)
    cells = {(i, j): (base[i, j], None) for i, j in zip(*np.nonzero(base))}
    for k, key in enumerate(enum.edge_keys):
        for i, j in arcs(enum.kind, *key):  # row node i is infected at beta_i
            if beta[i] != 0:
                cells[i, j] = (beta[i], k)
    keys = sorted(cells)
    present = np.ones((big_l, len(keys)), dtype=bool)
    for c, key in enumerate(keys):
        k = cells[key][1]
        if k is not None:  # digit k steps through edge k's states every stride_k labels
            on = np.repeat(enum.output[k, :enum.size[k]] > 0, enum.stride[k])
            present[:, c] = np.tile(on, big_l // on.size)
    node, column = np.array(keys, dtype=np.int32).reshape(-1, 2).T
    member = np.zeros((len(keys), n), dtype=np.float32)  # the row node of each cell
    member[np.arange(len(keys)), node] = 1.0
    count = (present.astype(np.float32) @ member).astype(np.int64)  # exact below 2**24
    at = np.flatnonzero(present)
    values = np.array([cells[key][0] for key in keys], dtype=float)
    cols = np.arange(big_l, dtype=np.int32)[:, None] * np.int32(n) + column
    return sp.csr_matrix((np.broadcast_to(values, present.shape).ravel().take(at),
                          cols.ravel().take(at), np.concatenate([[0], np.cumsum(count)])),
                         shape=(big_l * n, big_l * n))


def block_eta(dense):
    """Dense eigvals of each irreducible diagonal block of a matrix.

    The blocks are the strongly connected components of the matrix's own
    sparsity pattern.  Each Perron root is then a simple eigenvalue, which
    dense eigvals resolves to round-off; on the whole matrix, two blocks with
    equal roots coupled one way make a defective eigenvalue that eigvals
    resolves only to about sqrt(machine epsilon).
    """
    count, labels = connected_components(dense != 0, directed=True, connection="strong")
    return max(float(np.linalg.eigvals(dense[np.ix_(idx, idx)]).real.max())
               for idx in (np.flatnonzero(labels == c) for c in range(count)))


# ---------------------------------------------------------------------------
# Dense reference for linear propagation
# ---------------------------------------------------------------------------

def reference_segment_propagation(path, beta, delta):
    """``propagate_linear`` on a CT path from p = 1 as it was before its
    exponentials were stacked: one ``expm`` call per segment.  Returns the
    log norms and the unit vectors."""
    n = path.adjacency.shape[1]
    p = np.ones(n)
    norm = float(np.linalg.norm(p))
    p /= norm
    log_norm = np.log(norm)
    logs, units = [log_norm], [p]
    d = np.diag(delta)
    for k in range(path.adjacency.shape[0]):
        m = beta[:, None] * path.adjacency[k] - d
        p = scipy.linalg.expm(m * (path.times[k + 1] - path.times[k])) @ p
        norm = float(np.linalg.norm(p))
        log_norm += np.log(norm)
        p = p / norm
        logs.append(log_norm)
        units.append(p)
    return np.asarray(logs), np.asarray(units)


def reference_linear_propagation(path, beta, delta, p0):
    """log ||p(t_k)|| of dp/dt = (B A(t) - D) p along a CT path: the product of
    the segment propagators expm(M_k dt_k) ... expm(M_0 dt_0), applied to p0."""
    n = path.adjacency.shape[1]
    prop = np.eye(n)
    logs = [np.log(np.linalg.norm(p0))]
    for k, a in enumerate(path.adjacency):
        m = np.diag(beta) @ a - np.diag(delta)
        prop = scipy.linalg.expm(m * (path.times[k + 1] - path.times[k])) @ prop
        logs.append(np.log(np.linalg.norm(prop @ p0)))
    return np.asarray(logs)


# ---------------------------------------------------------------------------
# Bisection reference for the threshold search
# ---------------------------------------------------------------------------

def reference_threshold_in_beta(graph_or_mean, delta: float, certificate: str,
                                search_bounds, tol: float = 1e-7) -> float:
    """Largest homogeneous beta certified stable, by bisection.

    Requires the verdict to be monotone over the bracket, verified at the
    endpoints: raises BracketError if the lower endpoint is not stable;
    returns the upper bound when even it is stable.
    """
    mean = _as_mean(graph_or_mean)
    lo, hi = float(search_bounds[0]), float(search_bounds[1])
    if not lo < hi:
        raise BracketError(f"need lo < hi, got ({lo}, {hi})")
    stable = lambda b: certify(mean, certificate, b, delta).stable
    if stable(hi):
        return hi
    if not stable(lo):
        raise BracketError(f"certificate {certificate} is already unstable at beta={lo}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if stable(mid):
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# T1 and T2 as two functions: the certificate code before they shared one
# template, kept verbatim (the public two renamed reference_*) so that the
# template's reports can be compared with theirs bit for bit
# ---------------------------------------------------------------------------

def _support_trivial_report(lhs: float, decay: float, inter: dict) -> ThresholdReport:
    inter = dict(inter, trivial_regime=True)
    return ThresholdReport(SUPPORT_TRIVIAL, lhs, math.inf, float("nan"), decay, True, inter)


def _maximized_report(cert, tau_key, lhs, sgn, kp, s0, sbar, objective, decay_at, inter):
    """T1/T2 verdict from the objective on (s0, sbar]: SUPPORT_TRIVIAL when the
    support graph's measure ``sgn`` is negative or the objective diverges,
    no certificate on an empty interval, else the maximum tau as threshold."""
    res = None
    if sgn >= 0.0:
        if sbar <= s0:
            inter.update({tau_key: -math.inf, "s_star": float("nan"), "interval_empty": True})
            return ThresholdReport(cert, lhs, -math.inf, float("nan"), None, False, inter)
        try:
            res = maximize_on_interval(objective, s0, sbar)
        except DivergenceDetected:
            pass
    if res is None:
        inter.update({tau_key: math.inf, "s_star": float("nan"), "decay_bound": -sgn})
        return _support_trivial_report(lhs, -sgn, inter)
    tau, s_star = res.value, res.s_star
    stable = lhs < tau
    k_star = kappa(kp, s_star)
    decay = decay_at(s_star, k_star) if stable else None
    inter.update({tau_key: tau, "s_star": s_star, "kappa_s_star": k_star, "decay_bound": decay})
    return ThresholdReport(cert, lhs, tau, s_star, decay, stable, inter)


def reference_certify_amai_ct(graph_or_mean, params: EpidemicParams) -> ThresholdReport:
    mean = _as_mean(graph_or_mean)
    _check(mean, params, AMAI, CT)
    kp = kappa_params("M1", mean, params.beta)
    if kp.d == 0.0:
        return _static_report(mean, params, mean.time, routed_from=T1, deterministic=True)

    lhs = _mix(mean, params, support=False, measure=True)
    mu_sgn = _mix(mean, params, support=True, measure=True)
    s0 = kappa_inv_at_one(kp)
    c1 = mu_sgn - s0 / 2.0
    sbar1 = 2.0 * params.delta_min + 2.0 * c_minus(c1)
    inter = {"Delta1": kp.d, "c1": c1, "sbar1": sbar1, "kappa_inv_1": s0,
             "mu_BAbar_minus_D": lhs, "mu_Bsgn_minus_D": mu_sgn,
             "beta_max": params.beta_max, "delta_min": params.delta_min}

    def objective(s):
        k = kappa(kp, s)
        return -(s + 2.0 * c1 * k) / (2.0 * (1.0 - k))

    return _maximized_report(T1, "tau_A", lhs, mu_sgn, kp, s0, sbar1, objective,
                             lambda s, k: -lhs * (1.0 - k) - s / 2.0 - c1 * k, inter)


def reference_certify_amei_ct(graph_or_mean, params: EpidemicParams) -> ThresholdReport:
    mean = _as_mean(graph_or_mean)
    _check(mean, params, AMEI, CT)
    kp = kappa_params("M2", mean, params.beta)
    if kp.d == 0.0:
        return _static_report(mean, params, mean.time, routed_from=T2, deterministic=True)

    lhs = _mix(mean, params, support=False)
    eta_sgn = _mix(mean, params, support=True)
    s0 = kappa_inv_at_one(kp)
    c2 = eta_sgn - s0
    sbar2 = params.delta_min + c_minus(c2)
    inter = {"Delta2": kp.d, "c2": c2, "sbar2": sbar2, "kappa_inv_1": s0,
             "eta_BAbar_minus_D": lhs, "eta_Bsgn_minus_D": eta_sgn,
             "beta_max": params.beta_max, "delta_min": params.delta_min}

    def objective(s):
        k = kappa(kp, s)
        return -(s + c2 * k) / (1.0 - k)

    return _maximized_report(T2, "tau_E", lhs, eta_sgn, kp, s0, sbar2, objective,
                             lambda s, k: -lhs * (1.0 - k) - s - c2 * k, inter)


# ---------------------------------------------------------------------------
# Scalar references for the certificate maximizer and the kappa root
# ---------------------------------------------------------------------------

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def reference_maximize_on_interval(objective, lo, hi, budget=4096):
    """Grid plus golden-section refinement of up to 3 brackets, one point a call."""
    if not hi > lo:
        raise EmptyInterval(f"need hi > lo, got ({lo}, {hi}]")
    if budget < 4:
        raise ValueError("grid budget must be at least 4")
    span = hi - lo
    ts = np.geomspace(1e-9, 1.0, budget)
    xs = lo + span * ts
    xs[-1] = hi
    vals = np.asarray(objective(xs), dtype=float)
    if vals.shape != xs.shape:
        raise ValueError("objective must be vectorized over s")
    if np.any(vals > _DIVERGENCE_CAP) or np.any(np.isposinf(vals)):
        raise DivergenceDetected("objective exceeds the divergence cap near lo")
    finite = np.isfinite(vals)
    if not finite.any():
        raise NumericalFailure("objective returned no finite values on the grid")
    vals = np.where(finite, vals, -np.inf)

    def scalar(x):
        return float(np.asarray(objective(np.array([x])), dtype=float)[0])

    order = np.argsort(vals)[::-1]
    best_x = float(xs[order[0]])
    best_v = float(vals[order[0]])
    seen = set()
    for k in order[:_REFINE_BRACKETS]:
        k = int(k)
        if k in seen or not np.isfinite(vals[k]):
            continue
        seen.update((k - 1, k, k + 1))
        a = xs[k - 1] if k > 0 else lo + span * 1e-12
        b = xs[k + 1] if k + 1 < budget else hi
        x, v = _golden_max(scalar, float(a), float(b))
        if v > best_v and lo < x <= hi:
            best_x, best_v = x, v
        if v > _DIVERGENCE_CAP:
            raise DivergenceDetected("objective exceeds the divergence cap near lo")
    return ScalarMaximizeResult(best_x, best_v, (lo, hi))


def _golden_max(f, a, b, iters=80):
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if b - a <= 1e-14 * max(1.0, abs(a), abs(b)):
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return (c, fc) if fc >= fd else (d, fd)


def reference_kappa_inv_at_one(params):
    """kappa's root at 1 by bisection on the numpy log kappa of the package."""
    if params.n == 1:
        return 0.0
    hi = params.b
    while _log_kappa(params, hi) > 0:
        hi *= 2.0
    lo = 0.0
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _log_kappa(params, mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Independent certificate oracles (uniform 1e7-point grid maximizer)
# ---------------------------------------------------------------------------

GRID = 10_000_000


def oracle_kappa(n, b, d, s):
    return n * np.exp(s / b) * ((b * s + d) / d) ** (-(b * s + d) / b ** 2)


def oracle_kappa_inv1(n, b, d):
    lo, hi = 0.0, max(b, 1.0)
    while oracle_kappa(n, b, d, hi) > 1.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if oracle_kappa(n, b, d, mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _eta_dense(m):
    return float(np.linalg.eigvals(m).real.max())


def _mu_dense(m):
    return _eta_dense(0.5 * (m + m.T))


def static_ct_dense(a, beta, delta):
    """CT static condition eta(B A - D) < 0 by a dense eigvals solve: (stable, eta)."""
    eta = _eta_dense(np.asarray(beta)[:, None] * a - np.diag(delta))
    return eta < 0.0, eta


def static_dt_dense(a, beta, delta):
    """DT static condition eta(B A + I - D) < 1 by a dense eigvals solve: (stable, eta)."""
    eta = _eta_dense(np.asarray(beta)[:, None] * a + np.diag(1.0 - np.asarray(delta)))
    return eta < 1.0, eta


def _grid_max(f, lo, hi, grid=GRID):
    ss = np.linspace(lo, hi, grid)[1:]  # exclude the open left endpoint
    vals = f(ss)
    k = int(np.argmax(vals))
    return float(ss[k]), float(vals[k])


def oracle_certify_amai_ct(abar, beta, delta):
    """T1-certificate quantities recomputed independently; returns a dict."""
    n = abar.shape[0]
    w = abar * (1 - abar)
    delta1 = max(
        sum(beta[i] ** 2 * w[i, j] + beta[j] ** 2 * w[j, i] for j in range(n))
        for i in range(n)
    )
    bmax = beta.max()
    big_b = np.diag(beta)
    big_d = np.diag(delta)
    lhs = _mu_dense(big_b @ abar - big_d)
    mu_sgn = _mu_dense(big_b @ (abar > 0).astype(float) - big_d)
    s0 = oracle_kappa_inv1(n, bmax, delta1)
    c1 = mu_sgn - s0 / 2
    sbar1 = 2 * delta.min() + 2 * max(-c1, 0.0)
    out = dict(Delta1=delta1, kappa_inv_1=s0, c1=c1, sbar1=sbar1, lhs=lhs, mu_sgn=mu_sgn)
    if mu_sgn < 0 or sbar1 <= s0:
        return out
    kap = lambda s: oracle_kappa(n, bmax, delta1, s)
    s_star, tau = _grid_max(lambda s: -(s + 2 * c1 * kap(s)) / (2 * (1 - kap(s))), s0, sbar1)
    out.update(tau_A=tau, s_star=s_star, stable=lhs < tau,
               decay=-lhs * (1 - kap(s_star)) - s_star / 2 - c1 * kap(s_star))
    return out


def oracle_certify_amei_ct(abar, beta, delta):
    """T2-certificate quantities recomputed independently."""
    n = abar.shape[0]
    w = abar * (1 - abar)
    delta2 = max(
        sum(beta[i] * beta[j] * w[i, j] for j in range(n)) for i in range(n)
    )
    bmax = beta.max()
    big_b = np.diag(beta)
    big_d = np.diag(delta)
    lhs = _eta_dense(big_b @ abar - big_d)
    eta_sgn = _eta_dense(big_b @ (abar > 0).astype(float) - big_d)
    s0 = oracle_kappa_inv1(n, bmax, delta2)
    c2 = eta_sgn - s0
    sbar2 = delta.min() + max(-c2, 0.0)
    out = dict(Delta2=delta2, kappa_inv_1=s0, c2=c2, sbar2=sbar2, lhs=lhs, eta_sgn=eta_sgn)
    if eta_sgn < 0 or sbar2 <= s0:
        return out
    kap = lambda s: oracle_kappa(n, bmax, delta2, s)
    s_star, tau = _grid_max(lambda s: -(s + c2 * kap(s)) / (1 - kap(s)), s0, sbar2)
    out.update(tau_E=tau, s_star=s_star, stable=lhs < tau,
               decay=-lhs * (1 - kap(s_star)) - s_star - c2 * kap(s_star))
    return out


def oracle_certify_amei_dt(abar, beta, delta):
    """T4-certificate quantities recomputed independently."""
    n = abar.shape[0]
    w = abar * (1 - abar)
    delta2 = max(sum(beta[i] * beta[j] * w[i, j] for j in range(n)) for i in range(n))
    bmax = beta.max()
    big_b = np.diag(beta)
    eye_d = np.eye(n) - np.diag(delta)
    lam4 = _eta_dense(big_b @ abar + eye_d)
    eta_max = _eta_dense(big_b @ (abar > 0).astype(float) + eye_d)
    out = dict(Delta2=delta2, lambda4=lam4, eta_Mmax=eta_max)
    if lam4 >= 1:
        return out
    kap = lambda s: oracle_kappa(n, bmax, delta2, s)
    ss = np.linspace(0.0, 1.0 - lam4, GRID)
    vals = (lam4 / eta_max) ** kap(ss) - ss
    k = int(np.argmax(vals))
    s_star, tau = float(ss[k]), float(vals[k])
    gamma = -np.log(lam4 + s_star) - kap(s_star) * np.log(eta_max / lam4)
    out.update(tau_D=tau, s_star=s_star, stable=lam4 < tau, gamma_D=gamma)
    return out
