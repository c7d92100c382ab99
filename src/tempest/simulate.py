"""Exact stochastic simulation and linear upper-bound propagation.

Continuous time: event-driven joint simulation of all edge chains and node
states, exact by memorylessness: the edges' next jumps wait on a heap, and
the epidemic takes Gillespie steps between them from integer contact
counts, so no event sums over all the edges.
Discrete time: synchronous chain with per-contact infection probabilities
and the re-infection protocol used for empirical thresholds.  The linear
systems dp/dt = (B A(t) - D) p and p(k+1) = (B A(k) + I - D) p(k) take one
exact step, expm(M dt) or M, per segment of a sampled adjacency path.
"""

from __future__ import annotations

import bisect
import heapq
import math
import multiprocessing as mp
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg

from . import rng as rngmod
from .errors import InsufficientData, ParamRange
from .graphs import STATIC_ON, DynamicGraphModel, GraphPath, arcs
from .markov import CT, DT
from .thresholds import EpidemicParams, require_dt


def _rates(params, n: int):
    """Accept EpidemicParams or a (beta, delta) pair; simulation allows zeros,
    and refuses negative and non-finite rates with ParamRange."""
    if isinstance(params, EpidemicParams):
        beta, delta = params.beta, params.delta
    else:
        beta, delta = (np.full(n, rate, dtype=float) for rate in params)
    if beta.shape != (n,) or delta.shape != (n,):
        raise ValueError("rate vectors must have one entry per node")
    if not (0 <= beta.min() and beta.max() < math.inf and 0 <= delta.min()
            and delta.max() < math.inf):
        raise ParamRange("infection and recovery rates must be finite and nonnegative")
    return beta, delta


def _init_mask(init_infected, n: int) -> np.ndarray:
    if isinstance(init_infected, str) and init_infected == "all":
        return np.ones(n, dtype=bool)
    mask = np.zeros(n, dtype=bool)
    ids = np.asarray(list(init_infected))
    if not ids.size:
        raise ValueError("init_infected must be nonempty")
    if ids.dtype.kind not in "iu" or ids.min() < 0 or ids.max() >= n:
        raise ValueError(f"init_infected must hold node ids in [0, {n}), got {ids.tolist()}")
    mask[ids] = True
    return mask


@dataclass
class SimulationTrace:
    """Time-stamped infected counts from one exact stochastic run."""

    times: np.ndarray
    infected_counts: np.ndarray
    seed: int
    time_base: str
    reinfections: int = 0
    states: np.ndarray | None = None
    edge_events: int = 0  #: edge chain jumps a CT run processed; 0 in DT

    @property
    def final_count(self) -> int:
        return int(self.infected_counts[-1])

    @property
    def extinct(self) -> bool:
        return self.final_count == 0


# ---------------------------------------------------------------------------
# Continuous-time exact simulation (edge clocks on a heap, Gillespie SIS steps)
# ---------------------------------------------------------------------------

class _CtEdges(NamedTuple):
    """An edge table as the CT kernel reads it, on n nodes of one kind.

    Per switching edge e, in layout row order: whether its chain declares
    its initial state, ``declared[e]``; the finite cut points of its initial
    law, ``cuts[e][0]``, and of its jump law out of state s, ``cuts[e][1 + s]``
    (``ChainLayout.cuts``); its exit rate ``rate[e][s]`` and output
    ``output[e][s]`` in state s; its arcs ``cells[e]`` (``graphs.arcs``).  Per
    node j, ``watch[j]`` lists the arcs (i, e) that make j a contact of i:
    e is the arc's switching edge, or the number of switching edges for a
    static-on arc.
    """

    declared: list
    cuts: list
    rate: list
    output: list
    cells: list
    watch: list


def _ct_edges(graph: DynamicGraphModel) -> _CtEdges:
    """The graph's ``_CtEdges``, built once per edge table, node count and kind."""
    n, kind = graph.n, graph.kind

    def build(table) -> _CtEdges:
        lay = table.layout()
        cuts = [[[c for c in law if c < math.inf] for law in chain]
                for chain in lay.cuts().tolist()]
        rate = -np.diagonal(lay.matrix, axis1=1, axis2=2)
        cells = list(zip(*(zip(i.tolist(), j.tolist())
                           for i, j in arcs(kind, table.i[lay.rows], table.j[lay.rows]))))
        on = table.template == STATIC_ON
        static = [(i, j) for rows, cols in arcs(kind, table.i[on], table.j[on])
                  for i, j in zip(rows.tolist(), cols.tolist())]
        watch = [[] for _ in range(n)]
        for e, edge in enumerate(cells + [static]):
            for i, j in edge:
                watch[j].append((i, e))
        return _CtEdges(lay.declared.tolist(), cuts, rate.tolist(),
                        lay.output.astype(int).tolist(), cells, watch)

    return graph.table.derived(("ct kernel", n, kind), build)


def _uniforms(rng):
    """The generator's float uniforms, in order, drawn in growing blocks."""
    size = 16
    while True:
        yield from rng.random(size).tolist()
        size = min(2 * size, 4096)


def simulate_ct_exact(graph: DynamicGraphModel, params, horizon: float,
                      init_infected="all", seed=0,
                      record_states: bool = False) -> SimulationTrace:
    """Event-driven simulation of the joint (edges + epidemic) Markov process.

    Each switching edge keeps its next jump time on a heap (the
    next-reaction method, Gibson & Bruck 2000): a holding time at its
    state's exit rate, then a jump by its chain's jump law; an absorbing
    state is never scheduled.  Between jumps the epidemic takes Gillespie
    steps (Vestergaard & Genois 2015): recovery at delta_i for infected i,
    infection at beta_i times the number of currently-connected infected
    in-neighbors for susceptible i, counts kept as integers and updated at
    every event.  The epidemic's clock is drawn afresh after every event,
    which memorylessness makes exact.  Stops at the horizon or early at
    extinction (the all-susceptible state is absorbing for the epidemic).

    ``seed`` is an int, which seeds the stream (seed, TAG_CT), or a
    Generator, used as given.  The run consumes the stream's float
    uniforms u in this order: one per chain without a declared initial
    state, in row order; one per chain whose initial state can be left,
    in row order, its first holding time -log(1 - u)/rate; then per loop
    the epidemic's clock, if any event of it is enabled, and either an
    edge jump's target and, unless the target is absorbing, its next
    holding time, or the epidemic event's pick.  The generator may be
    drawn ahead of the last uniform used.  The horizon must be positive
    and finite.
    """
    if graph.m and graph.time != CT:
        raise ValueError("simulate_ct_exact needs a continuous-time graph")
    if not 0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon!r}")
    n = graph.n
    beta, delta = _rates(params, n)
    x = _init_mask(init_infected, n)
    rng, seed = rngmod.stream(seed, rngmod.TAG_CT)
    plan = _ct_edges(graph)
    cuts, rate, output, cells, watch = plan.cuts, plan.rate, plan.output, plan.cells, plan.watch
    log1p, heappop, heapreplace, bisect_right = math.log1p, heapq.heappop, heapq.heapreplace, \
        bisect.bisect_right
    draw = _uniforms(rng).__next__

    # initial chain states, then the first holding times
    state = [bisect_right(law[0], 0.0 if fixed else draw())
             for law, fixed in zip(cuts, plan.declared)]
    heap = [(-log1p(-draw()) / r[s], e) for e, (r, s) in enumerate(zip(rate, state)) if r[s] > 0]
    heapq.heapify(heap)
    on = [out[s] for out, s in zip(output, state)] + [1]  # static-on arcs read the last

    xs, contacts = x.tolist(), [0] * n
    for j in range(n):
        for i, e in watch[j] if xs[j] else ():
            contacts[i] += on[e]
    beta, delta = beta.tolist(), delta.tolist()

    def sis_rate():
        return sum([d if xi else b * c for b, d, xi, c in zip(beta, delta, xs, contacts)])

    total = sis_rate()
    t, infected, edge_events = 0.0, sum(xs), 0
    times, counts = [0.0], [infected]
    states_log = [xs.copy()] if record_states else None
    while True:
        t_sis = t - log1p(-draw()) / total if total > 0 else math.inf
        if heap and heap[0][0] < t_sis:
            t, e = heap[0]
            if t >= horizon:
                break
            old = state[e]
            new = state[e] = bisect_right(cuts[e][1 + old], draw())
            if rate[e][new] > 0:
                heapreplace(heap, (t - log1p(-draw()) / rate[e][new], e))
            else:
                heappop(heap)
            edge_events += 1
            flip = output[e][new] - on[e]
            if flip:
                on[e] += flip
                for i, j in cells[e]:
                    if xs[j]:
                        contacts[i] += flip
                        if not xs[i]:
                            total += flip * beta[i]
            continue
        if t_sis >= horizon:
            break
        t, target, acc, pick = t_sis, draw() * total, 0.0, -1
        for i in range(n):
            w = delta[i] if xs[i] else beta[i] * contacts[i]
            if w > 0:
                acc, pick = acc + w, i
                if acc > target:
                    break
        if pick < 0:  # every rate is 0; only rounding had left total above it
            total = 0.0
            continue
        flip = -1 if xs[pick] else 1
        xs[pick] = flip > 0
        infected += flip
        for i, e in watch[pick]:
            contacts[i] += flip * on[e]
        total = sis_rate()
        times.append(t)
        counts.append(infected)
        if record_states:
            states_log.append(xs.copy())
        if not infected:
            break  # epidemic extinct; edge dynamics no longer matter

    return SimulationTrace(np.asarray(times), np.asarray(counts, dtype=np.int64),
                           seed, CT, 0,
                           np.asarray(states_log, dtype=bool) if record_states else None,
                           edge_events)


# ---------------------------------------------------------------------------
# Discrete-time exact simulation
# ---------------------------------------------------------------------------

def simulate_dt_exact(graph: DynamicGraphModel, params, steps: int,
                      init_infected="all", reinfect: bool = False, seed=0,
                      edge_path: GraphPath | None = None,
                      record_states: bool = False) -> SimulationTrace:
    """Synchronous discrete-time chain over a sampled dynamic graph.

    Per step k: adjacency A(k) is the current edge configuration; each
    infected node recovers with probability delta_i; each susceptible node i
    becomes infected with probability 1 - prod_j (1 - beta_i A_ij(k) X_j(k));
    then the edge chains advance one step.  With ``reinfect``, a uniformly
    random node is re-seeded whenever the update leaves everyone
    susceptible.  Passing ``edge_path`` runs the epidemic on that fixed
    adjacency trajectory instead of sampling edges; it must be a DT path of
    at least ``steps`` (n, n) adjacencies.  ``seed`` is an int or a
    Generator (for example a tagged stream from ``rng.generator``).
    """
    if graph.m and graph.time != DT:
        raise ValueError("simulate_dt_exact needs a discrete-time graph")
    n = graph.n
    beta, delta = _rates(params, n)
    require_dt(beta, delta)
    x0 = _init_mask(init_infected, n)
    rng, seed = rngmod.stream(seed)
    if edge_path is not None:
        shape = edge_path.adjacency.shape
        if edge_path.time_base != DT or len(shape) != 3 or shape[0] < steps \
                or shape[1:] != (n, n):
            raise ValueError(f"edge path must be a discrete-time path of at least {steps} "
                             f"({n}, {n}) adjacencies, got {edge_path.time_base} {shape}")
    counts, reinf, states = _dt_run(graph, beta[:, None], delta, steps, x0, reinfect, rng,
                                    record_states, edge_path)
    return SimulationTrace(np.arange(steps + 1), counts[:, 0], seed, DT, int(reinf[0]),
                           states[:, :, 0] if record_states else None)


def _cut_points(lay):
    """Integer cut points of the switching rows' chains, states listed
    on-states first, as one (width + 1, width - 1, rows) array: [0] from each
    row's initial law, [1 + s] from its law out of state s; and n_on, each
    row's number of on-states.  Generator.random draws (raw >> 11) 2**-53,
    and k 2**-53 >= c exactly when k >= ceil(c 2**53), so a row moves to the
    count of its integer cut points <= raw >> 11; a cut point past 1 (the
    inf padding) becomes 2**53, above every k."""
    return (_integer_cuts(lay.cuts(on_first=True).transpose(1, 2, 0)),
            lay.output.sum(axis=1).astype(np.min_scalar_type(lay.output.shape[1])))


def _integer_cuts(cuts):
    """ceil(c 2**53) of each cut point c clipped to [0, 1], as C-ordered uint64."""
    cuts = np.clip(cuts, 0.0, 1.0)
    cuts *= 2.0 ** 53
    return np.ceil(cuts, out=cuts).astype(np.uint64, order="C")


def _dt_run(graph: DynamicGraphModel, beta, delta, steps, x0, reinfect, rng, record_states,
            edge_path: GraphPath | None = None):
    """Synchronous SIS steps of G lanes, one per column of the (n, G) ``beta``,
    on one edge trajectory: the graph's edges, one small-integer chain state
    each, kept in a dense float32 adjacency stored transposed (arc (i, j) of
    ``graphs.arcs`` at cell j n + i, exact below 2**24), or the adjacency of
    ``edge_path``.  The lanes are held lanes-major, a (G, n) X, so their
    contacts are one product X @ A^T; a lane with at most n/8 infected nodes
    sums their rows of A^T instead.  Both give the exact integer counts.
    Per step the edges draw first, one raw Philox word each (from their
    initial law at step 0), compared as raw >> 11 with integer cut points:
    the word Generator.random turns into the edge's uniform, so the draws
    are those of float uniforms, in the same order.  The lanes then share
    one infection and then one recovery uniform per node; each extinct lane
    then draws its re-infected node, in lane order.  One lane thus draws as
    a single run.  Returns the (steps + 1, G) infected counts, the
    re-infections per lane and, if recorded, the (steps + 1, n, G) states."""
    n, lanes = beta.shape
    if edge_path is None:
        table, lay = graph.table, graph.table.layout()
        adj = np.zeros((n, n), dtype=np.float32)
        flat = adj.reshape(-1)
        # per arc, its switching cells in ascending order (cheaper to write
        # than scattered ones) and the rows they read
        scatter = []
        for i, j in arcs(graph.kind, table.i, table.j):
            cell = j * n + i
            flat[cell[table.template == STATIC_ON]] = 1.0
            cell = cell[lay.rows]
            order = np.argsort(cell)
            scatter.append((cell[order], slice(None) if (np.diff(order) == 1).all() else order))
        cuts, n_on = _cut_points(lay)
        raw, dtype = rng.bit_generator.random_raw, n_on.dtype
    with np.errstate(divide="ignore"):
        log1m_beta = np.log1p(-beta.T)
    x = np.repeat(x0[None, :], lanes, axis=0)
    counts = np.empty((steps + 1, lanes), dtype=np.int64)
    counts[0] = x.sum(axis=1)
    states = [x] if record_states else None
    reinfections = np.zeros(lanes, dtype=np.int64)
    for k in range(steps):
        if edge_path is None:
            u = raw(n_on.size)
            u >>= 11
            if k:  # each state s moves by its own cut points
                state = sum((state == s) * (u >= cut).sum(axis=0, dtype=dtype)
                            for s, cut in enumerate(cuts[1:]))
            else:
                state = (u >= cuts[0]).sum(axis=0, dtype=dtype)
            on = (state < n_on).astype(np.float32)
            for cell, order in scatter:
                flat[cell] = on[order]
        a = adj if edge_path is None else edge_path.adjacency[k].T
        xa, few = x.astype(a.dtype), counts[k] <= n // 8
        if few.any():
            contacts = np.empty((lanes, n), dtype=a.dtype)
            contacts[~few] = xa[~few] @ a
            for g in np.flatnonzero(few):
                contacts[g] = a[x[g]].sum(axis=0)
        else:
            contacts = xa @ a
        # u < p_inf = -expm1(c log(1 - beta)), i.e. expm1(c log(1 - beta)) < -u;
        # without infected contacts the left side is 0 or NaN and never infects
        u_inf, u_rec = rng.random(n), rng.random(n)
        with np.errstate(invalid="ignore"):
            x = np.where(x, u_rec >= delta, np.expm1(contacts * log1m_beta) < -u_inf)
        counts[k + 1] = x.sum(axis=1)
        for g in np.flatnonzero(counts[k + 1] == 0) if reinfect else ():
            x[g, rng.integers(n)] = True
            counts[k + 1, g] = 1
            reinfections[g] += 1
        if record_states:
            states.append(x)
    return counts, reinfections, np.asarray(states).swapaxes(1, 2) if record_states else None


# ---------------------------------------------------------------------------
# Linear upper-bound systems along sampled paths
# ---------------------------------------------------------------------------

@dataclass
class LinearTrajectory:
    """Renormalized linear-system trajectory with accumulated log norms."""

    times: np.ndarray
    log_norms: np.ndarray
    unit_p: np.ndarray

    def values(self) -> np.ndarray:
        return self.unit_p * np.exp(self.log_norms)[:, None]


def propagate_linear(path: GraphPath, params, p0=None) -> LinearTrajectory:
    """Propagate the linear upper-bound system along a sampled adjacency path.

    The system matrix is constant between switches, so each segment takes
    one exact step.  CT: dp/dt = (B A(t) - D) p, stepped by
    p <- expm(M dt) p with scipy's scaling-and-squaring ``expm``, one call on
    the stacked segments of the path (in chunks of at most 2**20 entries),
    which gives each segment the exponential a call of its own would.
    DT: the recursion p(k+1) = (B A(k) + I - D) p(k).

    The state is renormalized at every breakpoint and the accumulated log
    norm recorded, so arbitrarily long decays never underflow.
    """
    n = path.adjacency.shape[1]
    beta, delta = _rates(params, n)
    mode = path.time_base
    p = np.ones(n) if p0 is None else np.asarray(p0, dtype=float).copy()
    if p.min() < 0:
        raise ValueError("p0 must be nonnegative")
    norm = float(np.linalg.norm(p))
    if norm == 0:
        raise ValueError("p0 must be nonzero")
    p /= norm
    log_norm = np.log(norm)
    times = path.times
    out_p = np.empty((len(times), n))
    out_log = np.empty(len(times))
    out_p[0], out_log[0] = p, log_norm

    d = np.diag(delta if mode == CT else delta - 1.0)  # DT: m = B A(k) + I - D
    segments = path.adjacency.shape[0]
    chunk = max(1, _EXPM_ENTRIES // (n * n))
    for k in range(segments):
        if mode == CT and k % chunk == 0:  # the next chunk's steps, one stacked expm call
            m = beta[:, None] * path.adjacency[k:k + chunk] - d
            m *= np.diff(times[k:k + chunk + 1])[:, None, None]
            steps = scipy.linalg.expm(m)
        m = beta[:, None] * path.adjacency[k] - d if mode == DT else steps[k % chunk]
        p = m @ p
        norm = float(np.linalg.norm(p))
        if norm == 0:
            log_norm = -np.inf
        else:
            log_norm += np.log(norm)
            p = p / norm
        out_p[k + 1], out_log[k + 1] = p, log_norm
    return LinearTrajectory(times.astype(float), out_log, out_p)


_EXPM_ENTRIES = 1 << 20  # matrix entries per stacked expm call in propagate_linear


@dataclass
class DecayEstimate:
    rate: float
    stderr: float
    rates: np.ndarray


_BURN_IN = 0.2  # leading fraction of each trajectory left out of the fit


def decay_rate_estimate(trajectories) -> DecayEstimate:
    """Per-trajectory least-squares slope of log||p|| after burn-in.

    Needs at least 20 independent trajectories; returns the mean decay rate
    (negated slope) with its standard error.
    """
    if len(trajectories) < 20:
        raise InsufficientData(f"need >= 20 trajectories, got {len(trajectories)}")
    rates = []
    for traj in trajectories:
        t, y = traj.times, traj.log_norms
        cutoff = t[0] + _BURN_IN * (t[-1] - t[0])
        mask = (t >= cutoff) & np.isfinite(y)
        if mask.sum() < 2:
            # sparse-switch trajectory: fall back to the final stretch
            finite = np.flatnonzero(np.isfinite(y))
            if finite.size < 2:
                raise InsufficientData("trajectory too short after burn-in")
            mask = np.zeros_like(mask)
            mask[finite[-2:]] = True
        slope = np.polyfit(t[mask], y[mask], 1)[0]
        rates.append(-slope)
    rates = np.asarray(rates)
    return DecayEstimate(float(rates.mean()),
                         float(rates.std(ddof=1) / np.sqrt(len(rates))), rates)


# ---------------------------------------------------------------------------
# Empirical threshold protocol
# ---------------------------------------------------------------------------

@dataclass
class EmpiricalThresholdReport:
    """z* per grid beta with its standard error over paths; ``beta_bracket``
    is the last grid beta with z* < 1 and the next one, None without a
    crossing."""

    beta_grid: np.ndarray
    y_star: np.ndarray
    z_star: np.ndarray
    beta_star: float | None
    paths: int
    horizon: int
    seed: int
    final_counts: np.ndarray = field(repr=False, default=None)
    z_stderr: np.ndarray = field(repr=False, default=None)
    beta_bracket: tuple | None = None


_WORKER_STATE: dict = {}  # a spawned worker's payload; the one-thread path never sets it
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _empirical_init(payload):
    _WORKER_STATE["payload"] = payload


def _empirical_task(pid):
    return _path_final(_WORKER_STATE["payload"], pid)


def _path_final(pl, pid):
    rng = rngmod.generator(pl["seed"], rngmod.TAG_PATH, pid)
    counts, _, _ = _dt_run(pl["graph"], pl["beta"], pl["delta"], pl["steps"], pl["x0"],
                           True, rng, False)
    return pid, counts[-1]


def empirical_threshold(graph: DynamicGraphModel, delta: float, beta_grid,
                        paths: int, steps: int, seed: int = 0,
                        threads: int = 1) -> EmpiricalThresholdReport:
    """Re-infection protocol: metastable infected level over a beta grid.

    Runs ``paths`` independent discrete-time simulations with re-infection,
    each from all nodes infected; y* is the mean infected count at the final
    step, z* = y* - 1 compensates the forced re-infection, and beta* is the
    largest grid value with z* < 1.  Path ``path_id`` draws from the stream (seed,
    TAG_PATH, path_id) and runs every grid beta at once on one edge
    trajectory with shared infection and recovery uniforms (common random
    numbers), so results are identical for any thread count.

    With ``threads > 1`` the paths run on min(threads, paths) spawned
    worker processes, each with one BLAS thread.  Spawned workers import
    the caller's ``__main__`` module, so a script that calls this must keep
    its entry point under ``if __name__ == "__main__":``.
    """
    beta_grid = np.sort(np.asarray(beta_grid, dtype=float))
    if paths < 1 or steps < 1:
        raise ValueError(f"empirical threshold needs paths >= 1 and steps >= 1, "
                         f"got {paths} and {steps}")
    if threads < 1:
        raise ValueError(f"empirical threshold needs threads >= 1, got {threads}")
    if graph.time != DT:
        raise ValueError("empirical threshold needs a discrete-time graph")
    if not (0 <= delta <= 1 and ((beta_grid >= 0) & (beta_grid <= 1)).all()):
        raise ParamRange(f"discrete-time delta and beta grid must lie in [0, 1], "
                         f"got delta {delta!r} and beta grid {beta_grid.tolist()}")
    n = graph.n
    payload = {
        "graph": graph, "beta": np.tile(beta_grid, (n, 1)), "delta": np.full(n, float(delta)),
        "steps": int(steps), "seed": int(seed), "x0": np.ones(n, dtype=bool),
    }
    workers = min(threads, paths)
    if workers > 1:
        # one BLAS thread per worker: the workers already fill the cores
        saved = {var: os.environ.get(var) for var in _BLAS_THREAD_VARS}
        os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
        try:
            pool = mp.get_context("spawn").Pool(workers, _empirical_init, (payload,))
        finally:
            for var, value in saved.items():
                if value is None:
                    os.environ.pop(var, None)
                else:
                    os.environ[var] = value
        with pool:
            results = list(pool.imap_unordered(_empirical_task, range(paths)))
    else:
        results = [_path_final(payload, pid) for pid in range(paths)]
    finals = np.zeros((beta_grid.size, paths), dtype=np.int64)
    for pid, count in results:
        finals[:, pid] = count
    y_star = finals.mean(axis=1)
    z_star = y_star - 1.0
    z_stderr = finals.std(axis=1, ddof=1) / np.sqrt(paths) if paths > 1 \
        else np.full(beta_grid.size, np.nan)
    below = np.flatnonzero(z_star < 1.0)
    beta_star = float(beta_grid[below[-1]]) if below.size else None
    bracket = tuple(float(b) for b in beta_grid[below[-1]:below[-1] + 2]) \
        if below.size and below[-1] + 1 < beta_grid.size else None
    return EmpiricalThresholdReport(beta_grid, y_star, z_star, beta_star, paths, int(steps),
                                    int(seed), finals, z_stderr, bracket)
