"""Aggregated-Markovian dynamic graph models.

An edge process is a finite Markov chain mapped through a {0,1} output map;
a dynamic graph is a sparse collection of such processes, either undirected
(AMEI: one process per unordered pair, mirrored) or directed (AMAI: one
process per ordered pair).  Edge key ``(i, j)`` controls adjacency entry
``A[i, j]``; under the directed convention that entry is the arc from node
j pointing towards node i, so it feeds the infection of node i.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import rng as rngmod
from .errors import InvalidRates, ReducibleChain
from .markov import CT, DT, MarkovChainSpec, finite_rates, stationary_distribution
from .spectral import spectral_abscissa

AMEI = "amei"
AMAI = "amai"


def arcs(kind: str, i, j) -> list:
    """The adjacency cells (row, column) that edge (i, j) writes: (i, j) and
    its mirror (j, i) in an AMEI graph, (i, j) alone in an AMAI graph.  The
    one place that rule lives; ``i`` and ``j`` may be index arrays."""
    return [(i, j), (j, i)] if kind == AMEI else [(i, j)]


@dataclass
class EdgeProcessModel:
    """One aggregated Markov process sigma = f(theta) driving a (di)edge.

    ``output`` maps each chain state (by index) to 0/1.  Constant output
    maps are only allowed for 1-state chains; those are the statically-on /
    statically-off edges.  Multi-state chains must have surjective output.
    """

    chain: MarkovChainSpec
    output: np.ndarray
    #: serialization hint set by the builders ("markov2" | "coxian" | "static")
    builder: str = "generic"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        out = np.array(self.output, dtype=np.int8)
        if out.shape != (self.chain.n_states,):
            raise ValueError("output map length must equal the number of chain states")
        if not np.isin(out, (0, 1)).all():
            raise ValueError("output map must take values in {0, 1}")
        if self.chain.n_states > 1 and (out.min() == out.max()):
            raise ValueError("output map must be surjective onto {0, 1} "
                             "(declare static edges with a 1-state chain)")
        out.setflags(write=False)
        self.output = out

    @property
    def time(self) -> str:
        return self.chain.time

    @property
    def is_static(self) -> bool:
        return self.chain.n_states == 1

    @property
    def static_value(self):
        return int(self.output[0]) if self.is_static else None


def build_static_edge(on: bool, time: str = CT) -> EdgeProcessModel:
    matrix = np.zeros((1, 1)) if time == CT else np.ones((1, 1))
    chain = MarkovChainSpec(("s0",), time, matrix, initial_state="s0")
    return EdgeProcessModel(chain, np.array([1 if on else 0]),
                            builder="static", params={"on": bool(on)})


def _check_markov2(q, r, time: str) -> None:
    if q <= 0 or r <= 0:  # a rate that is not a number raises TypeError here
        raise InvalidRates(f"need q > 0 and r > 0, got q={q}, r={r}")
    finite_rates((q, r), "2-state edge rates q, r")
    if time != CT and (q > 1 or r > 1):
        raise InvalidRates("discrete-time transition probabilities must be <= 1")


def build_edge_markovian(q: float, r: float, time: str = CT) -> EdgeProcessModel:
    """2-state on/off edge: off->on at rate (probability) q, on->off at r."""
    _check_markov2(q, r, time)
    if time == CT:
        m = np.array([[-q, q], [r, -r]], dtype=float)
    else:
        m = np.array([[1 - q, q], [r, 1 - r]], dtype=float)
    chain = MarkovChainSpec(("off", "on"), time, m)
    return EdgeProcessModel(chain, np.array([0, 1]),
                            builder="markov2", params={"q": float(q), "r": float(r)})


def build_coxian_edge(up_rates, exit_rates, down_rates, return_rates) -> EdgeProcessModel:
    """CT edge whose on/off durations are Coxian distributed.

    On-states c_1..c_n: c_i -> c_{i+1} at up_rates[i], c_i -> d_1 at
    exit_rates[i].  Off-states d_1..d_m: d_j -> d_{j+1} at down_rates[j],
    d_j -> c_1 at return_rates[j].
    """
    p, q, r, s = (finite_rates(rates, f"{name} rates") for rates, name in
                  ((up_rates, "up"), (exit_rates, "exit"), (down_rates, "down"),
                   (return_rates, "return")))
    n, m = q.size, s.size
    if n < 1 or m < 1 or p.size != n - 1 or r.size != m - 1:
        raise InvalidRates("need len(exit_rates)=n>=1, len(up_rates)=n-1, "
                           "len(return_rates)=m>=1, len(down_rates)=m-1")
    for arr, name in ((p, "up"), (q, "exit"), (r, "down"), (s, "return")):
        if arr.size and arr.min() < 0:
            raise InvalidRates(f"{name} rates must be nonnegative")
    exit_on = q + np.concatenate([p, [0.0]])
    exit_off = s + np.concatenate([r, [0.0]])
    if exit_on.min() <= 0 or exit_off.min() <= 0:
        raise InvalidRates("a chain state would be absorbing (zero total exit rate)")

    k = n + m
    gen = np.zeros((k, k))
    gen[np.arange(n - 1), np.arange(1, n)] = p          # c_i -> c_{i+1}
    gen[:n, n] = q                                      # every c_i exits to d_1
    gen[np.arange(n, k - 1), np.arange(n + 1, k)] = r   # d_j -> d_{j+1}
    gen[n:, 0] = s                                      # every d_j returns to c_1
    np.fill_diagonal(gen, -gen.sum(axis=1))
    states = tuple(f"c{i+1}" for i in range(n)) + tuple(f"d{j+1}" for j in range(m))
    output = np.array([1] * n + [0] * m)
    chain = MarkovChainSpec(states, CT, gen)
    return EdgeProcessModel(chain, output, builder="coxian",
                            params={"up_rates": p.tolist(), "exit_rates": q.tolist(),
                                    "down_rates": r.tolist(), "return_rates": s.tolist()})


# Template ids of an edge table: how an edge switches.
STATIC_OFF, STATIC_ON, MARKOV2, CHAIN0 = 0, 1, 2, 3


class ChainLayout(NamedTuple):
    """The chains of an edge table's switching rows as arrays, one per row,
    each in its own state order and padded with zeros to the widest chain."""

    time: str
    rows: np.ndarray      #: (k,) table row of each chain
    size: np.ndarray      #: (k,) its number of states
    matrix: np.ndarray    #: (k, w, w) its transition matrix (DT) or generator (CT)
    output: np.ndarray    #: (k, w) its output map, as floats
    law: np.ndarray       #: (k, w) the law ``EdgeTable.layout`` was asked for
    declared: np.ndarray  #: (k,) whether its chain declares an initial state

    def cuts(self, on_first: bool = False) -> np.ndarray:
        """Cumulative laws of every chain as cut points, one (k, w + 1, w - 1)
        array: [:, 0] from ``law``, [:, 1 + s] of the move from state s, to the
        next state in DT and to the jump target in CT (the off-diagonal rates,
        normalized after summing, so a zero-rate target is never picked).  A
        chain moves to the count of its cut points <= its uniform; the last
        state's cut and the padding are inf, so round-off never moves it past
        its last state.  With ``on_first`` states are listed on-states first."""
        law, matrix = self.law, self.matrix
        if on_first:
            order = np.argsort(1.0 - self.output, axis=1, kind="stable")
            law = np.take_along_axis(law, order, 1)
            matrix = np.take_along_axis(np.take_along_axis(matrix, order[:, :, None], 1),
                                        order[:, None, :], 2)
        if self.time == CT:
            matrix = np.where(np.eye(matrix.shape[-1], dtype=bool), 0.0, matrix)
        cum = np.cumsum(np.concatenate([law[:, None], matrix], axis=1), axis=2)
        if self.time == CT:
            with np.errstate(invalid="ignore"):  # absorbing states never jump
                cum[:, 1:] /= cum[:, 1:, -1:]
        last = self.size[:, None, None] - 1
        return np.where(np.arange(cum.shape[-1] - 1) >= last, np.inf, cum[..., :-1])


@dataclass(eq=False)
class EdgeTable:
    """All edge processes of a graph as arrays, one row per edge, sorted by (i, j).

    ``template[k]`` is STATIC_OFF, STATIC_ON, MARKOV2 (the chain of
    ``build_edge_markovian``) or CHAIN0 + t for ``chains[t]``, one
    EdgeProcessModel shared by all edges with that chain (Coxian and other
    multi-state edges), the one kind of edge kept as an object.  ``q`` and
    ``r`` hold the off->on and on->off rates of the MARKOV2 rows.  ``layout``
    gives every switching row's chain.
    """

    i: np.ndarray
    j: np.ndarray
    template: np.ndarray
    q: np.ndarray
    r: np.ndarray
    time: str = CT
    chains: tuple = ()
    _derived: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self.i, self.j, self.template = (np.asarray(a, dtype=np.intp)
                                         for a in (self.i, self.j, self.template))
        self.q, self.r = np.array(self.q, dtype=float), np.array(self.r, dtype=float)
        if self.i.ndim != 1 or any(a.shape != self.i.shape
                                   for a in (self.j, self.template, self.q, self.r)):
            raise ValueError("edge table columns must be 1-D arrays of one length")
        if (np.diff((self.i.astype(np.int64) << 32) | self.j) <= 0).any():
            raise ValueError("edge table rows must be sorted by (i, j), without repeats")
        if self.time not in (CT, DT) or any(edge.time != self.time for edge in self.chains):
            raise ValueError("edge table needs one time base, ct or dt, for itself and its chains")
        if self.m and not 0 <= self.template.min() <= self.template.max() < CHAIN0 + len(self.chains):
            raise ValueError(f"edge template ids must lie in [0, {CHAIN0 + len(self.chains)})")
        q, r = self.q[self.template == MARKOV2], self.r[self.template == MARKOV2]
        top = 1.0 if self.time == DT else np.finfo(float).max  # NaN and inf fail too
        if not ((np.minimum(q, r) > 0) & (np.maximum(q, r) <= top)).all():
            raise InvalidRates("2-state edges need finite rates q, r > 0 (at most 1 in DT)")

    @property
    def m(self) -> int:
        return self.i.size

    def derived(self, key, build):
        """``build(self)``, made on the first call with ``key`` and kept: a
        table is not changed after construction, so what is derived from it
        serves every later call."""
        if key not in self._derived:
            self._derived[key] = build(self)
        return self._derived[key]

    def layout(self, law: str | None = "initial") -> ChainLayout:
        """The chain of every switching row (template >= MARKOV2) as arrays, the
        one place that tells MARKOV2 rows (their closed forms in q and r) from
        chain templates (their own matrix and stationary solve, one per chain).
        ``law`` fills ``ChainLayout.law``: "initial" (a point mass at a declared
        initial state, else the stationary law), "stationary", or None (zeros,
        no solve).  A reducible chain's stationary law raises ReducibleChain
        naming its first edge."""
        rows = np.flatnonzero(self.template >= MARKOV2)
        template, k = self.template[rows], rows.size
        width = max([2] + [edge.output.size for edge in self.chains])
        size, declared = np.full(k, 2), np.zeros(k, dtype=bool)
        matrix, output, pi = np.zeros((k, width, width)), np.zeros((k, width)), np.zeros((k, width))
        # every row as a MARKOV2 row first, in slices; the chain rows, whose q
        # and r are NaN, are overwritten below
        q, r, stay = self.q[rows], self.r[rows], float(self.time == DT)
        matrix[:, 0, 0], matrix[:, 0, 1], matrix[:, 1, 0], matrix[:, 1, 1] = \
            stay - q, q, r, stay - r
        output[:, 1] = 1.0
        if law is not None:
            total = q + r
            pi[:, 0], pi[:, 1] = r / total, q / total
        for t, edge in enumerate(self.chains):
            sel, chain = np.flatnonzero(template == CHAIN0 + t), edge.chain
            if not sel.size:
                continue
            n = chain.n_states
            matrix[sel], output[sel], pi[sel], size[sel] = 0.0, 0.0, 0.0, n
            matrix[sel, :n, :n], output[sel, :n] = chain.matrix, edge.output
            declared[sel] = chain.initial_state is not None
            if law == "initial" and chain.initial_state is not None:
                pi[sel, chain.index(chain.initial_state)] = 1.0
            elif law is not None:
                try:
                    pi[sel, :n] = stationary_distribution(chain)
                except ReducibleChain as exc:
                    e = rows[sel[0]]
                    raise ReducibleChain(f"edge ({self.i[e]},{self.j[e]}): {exc}") from exc
        return ChainLayout(self.time, rows, size, matrix, output, pi, declared)


def _assemble(rows) -> EdgeTable:
    """The table of a ``{(i, j): row}`` mapping, sorted by (i, j).  A row is a
    (template, q, r, time) tuple or an EdgeProcessModel; equal chains share one
    template, numbered in (i, j) order, whatever object carries them."""
    keys, columns, chains = sorted(rows), [], {}
    for key in keys:
        row = edge = rows[key]
        if isinstance(edge, EdgeProcessModel):
            chain = edge.chain
            if edge.is_static:
                row = STATIC_ON if edge.static_value else STATIC_OFF, np.nan, np.nan, edge.time
            elif edge.builder == "markov2":
                row = MARKOV2, chain.matrix[0, 1], chain.matrix[1, 0], edge.time
            else:
                ident = (edge.builder, repr(edge.params), chain.time, chain.states,
                         chain.initial_state, chain.matrix.tobytes(), edge.output.tobytes())
                t = CHAIN0 + chains.setdefault(ident, (len(chains), edge))[0]
                row = t, np.nan, np.nan, edge.time
        columns.append(row)
    template, q, r, time = zip(*columns) if columns else ((), (), (), (CT,))
    if any(t != time[0] for t in time):
        raise ValueError("all edge processes must share one time base")
    ij = np.array(keys, dtype=np.intp).reshape(-1, 2)
    return EdgeTable(ij[:, 0], ij[:, 1], template, q, r, time[0],
                     tuple(edge for _, edge in chains.values()))


class DynamicGraphModel:
    """n nodes plus a table of independent edge processes.

    ``edges`` is an EdgeTable or a ``{(i, j): EdgeProcessModel}`` mapping,
    the one place edge objects enter; the package reads ``graph.table``.
    """

    def __init__(self, n: int, kind: str, edges, metadata: dict | None = None):
        if kind not in (AMEI, AMAI):
            raise ValueError(f"kind must be '{AMEI}' or '{AMAI}'")
        table = edges if isinstance(edges, EdgeTable) else _assemble(edges)
        if (table.i == table.j).any():
            raise ValueError("self-loops are not allowed")
        if table.m and (min(table.i.min(), table.j.min()) < 0
                        or max(table.i.max(), table.j.max()) >= n):
            raise ValueError(f"edge endpoints out of range for n={n}")
        if kind == AMEI and (table.i > table.j).any():
            raise ValueError("AMEI edges must be keyed with i < j")
        self.n, self.kind, self.table = n, kind, table
        self.metadata = {} if metadata is None else metadata

    @property
    def time(self) -> str:
        return self.table.time

    @property
    def m(self) -> int:
        return self.table.m

    def edge_keys(self):
        return list(zip(self.table.i.tolist(), self.table.j.tolist()))


@dataclass
class MeanMatrix:
    """Stationary edge-presence probabilities (the aggregated static network).

    ``periodic_edge``: the first (i, j) of a DT graph with a periodic chain, or None.
    """

    a_bar: np.ndarray
    kind: str
    time: str = CT
    periodic_edge: tuple | None = None

    def __post_init__(self):
        a = np.array(self.a_bar, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("mean matrix must be square")
        if np.diag(a).any():
            raise ValueError("mean matrix must have zero diagonal")
        if not ((a >= 0) & (a <= 1)).all():  # NaN fails too
            raise ValueError("mean matrix entries must lie in [0, 1]")
        if self.kind == AMEI and not np.array_equal(a, a.T):
            raise ValueError("AMEI mean matrix must be symmetric")
        a.setflags(write=False)
        self.a_bar = a
        self._cache = {}

    @property
    def n(self) -> int:
        return self.a_bar.shape[0]

    def support(self) -> np.ndarray:
        """Entry-wise sign of the mean matrix (the {0,1} support graph)."""
        return (self.a_bar > 0).astype(float)

    # Spectra of a_bar and sgn(a_bar) (fn: spectral_abscissa or matrix_measure) are
    # reused heavily by homogeneous-rate certificates; cache them (matrices are read-only).
    def spectrum(self, fn, support: bool) -> float:
        if (fn, support) not in self._cache:
            self._cache[fn, support] = fn(self.support() if support else self.a_bar)
        return self._cache[fn, support]

    def eta_abar(self) -> float:
        return self.spectrum(spectral_abscissa, False)

    def eta_support(self) -> float:
        return self.spectrum(spectral_abscissa, True)

    def variance(self) -> np.ndarray:
        """a_bar (1 - a_bar), the variance of each edge's presence; cached."""
        if "variance" not in self._cache:
            self._cache["variance"] = self.a_bar * (1.0 - self.a_bar)
        return self._cache["variance"]


def mean_matrix(graph: DynamicGraphModel) -> MeanMatrix:
    table = graph.table
    lay = table.layout("stationary")
    p = (table.template == STATIC_ON).astype(float)  # stationary on-probability per edge
    p[lay.rows] = np.einsum("kw,kw->k", lay.law, lay.output)
    a = np.zeros((graph.n, graph.n))
    for i, j in arcs(graph.kind, table.i, table.j):
        a[i, j] = p
    periodic_edge = None
    if graph.time == DT:
        # an irreducible chain that can stay put (positive trace) is aperiodic;
        # one of w states or fewer that cannot is aperiodic iff the
        # ((w - 1)^2 + 1)-th power of its support is positive (Wielandt):
        # square it until the power is reached, and read each chain's own block
        width = lay.matrix.shape[-1]
        moving = np.flatnonzero(np.einsum("kii->k", lay.matrix) <= 0)
        power = lay.matrix[moving] > 0
        for _ in range(int(np.ceil(np.log2((width - 1) ** 2 + 1)))):
            power = power @ power
        inside = np.arange(width) < lay.size[moving, None]
        periodic = (~power & inside[:, :, None] & inside[:, None, :]).any(axis=(1, 2))
        if periodic.any():
            k = lay.rows[moving[np.argmax(periodic)]]
            periodic_edge = (int(table.i[k]), int(table.j[k]))
    return MeanMatrix(a, graph.kind, graph.time, periodic_edge)


@dataclass
class GraphPath:
    """One sampled adjacency trajectory of a whole dynamic graph.

    CT: ``adjacency[k]`` holds on [times[k], times[k+1]); ``times`` has one
    more entry than ``adjacency`` and ends at the horizon.  DT:
    ``adjacency[k]`` is A(k) for k = 0..steps-1.  Dense storage: intended
    for the small instances used in oracle and soundness work.
    """

    times: np.ndarray
    adjacency: np.ndarray
    time_base: str


def sample_graph_path(graph: DynamicGraphModel, *, horizon=None, steps=None,
                      seed: int = 0) -> GraphPath:
    """Sample all edge processes independently and merge into one path.

    Each switching edge draws from the stream (seed, TAG_EDGE, i, j): one
    uniform for its initial state unless its chain declares one, then in DT
    one uniform per step, all edges stepping together, and in CT one
    exponential holding time and one uniform jump per event.  So adding or
    removing edges leaves all other edges' trajectories untouched.
    """
    if (horizon is None) == (steps is None):
        raise ValueError("pass exactly one of horizon= (CT) or steps= (DT)")
    want = CT if horizon is not None else DT
    if graph.m and graph.time != want:
        raise ValueError(f"graph is {graph.time}, but the requested path is {want}")
    length = horizon if want == CT else steps
    if not 0 < length < np.inf:  # NaN fails too; an endless horizon would never stop a CT walk
        raise ValueError(f"horizon must be positive and finite, got {length!r}")
    length = float(length) if want == CT else int(length)
    table = graph.table
    lay = table.layout()
    cuts, edges = lay.cuts(), np.arange(lay.rows.size)
    streams = [rngmod.generator(seed, rngmod.TAG_EDGE, table.i[k], table.j[k])
               for k in lay.rows]
    u = np.array([0.0 if fixed else rng.random() for fixed, rng in zip(lay.declared, streams)])
    state = (cuts[:, 0] <= u[:, None]).sum(axis=1)
    if want == DT:
        u = np.array([rng.random(length) for rng in streams]).reshape(edges.size, length)
        states = np.empty((length, edges.size), dtype=np.intp)
        states[0] = state
        for k in range(1, length):
            states[k] = (cuts[edges, 1 + states[k - 1]] <= u[:, k - 1, None]).sum(axis=1)
        times, values = np.arange(length + 1), lay.output[edges, states]
    else:
        exit_rate = -np.diagonal(lay.matrix, axis1=1, axis2=2)
        switches = []
        for e, rng in enumerate(streams):
            at, visited = [0.0], [state[e]]
            while exit_rate[e, visited[-1]] > 0:
                t = at[-1] + rng.exponential(1.0 / exit_rate[e, visited[-1]])
                if t >= length:
                    break
                at.append(t)
                visited.append(int((cuts[e, 1 + visited[-1]] <= rng.random()).sum()))
            sigma = lay.output[e, visited]
            keep = np.concatenate([[True], sigma[1:] != sigma[:-1]])
            switches.append((np.array(at)[keep], sigma[keep]))
        cut_times = {0.0, length}.union(*(at.tolist() for at, _ in switches))
        times = np.array(sorted(t for t in cut_times if t < length) + [length])
        # value in force on [times[s], times[s+1]) is the last switch <= times[s]
        values = np.array([sigma[np.searchsorted(at, times[:-1], side="right") - 1]
                           for at, sigma in switches]).reshape(edges.size, times.size - 1).T
    adj = np.zeros((len(times) - 1, graph.n, graph.n))
    on = table.template == STATIC_ON
    for i, j in arcs(graph.kind, table.i, table.j):
        adj[:, i[on], j[on]] = 1.0
        adj[:, i[lay.rows], j[lay.rows]] = values
    return GraphPath(times, adj, want)


# ---------------------------------------------------------------------------
# Named generator presets
# ---------------------------------------------------------------------------

def _two_state_table(i, j, static, q, r, time) -> EdgeTable:
    """Table of statically-on edges (where ``static``) and 2-state edges."""
    static = np.broadcast_to(static, np.shape(i))
    return EdgeTable(i, j, np.where(static, STATIC_ON, MARKOV2),
                     np.where(static, np.nan, q), np.where(static, np.nan, r), time)


def graph_complete_edge_markovian(n: int, q: float, r: float, time: str = CT) -> DynamicGraphModel:
    """Complete edge-Markovian graph: every pair shares activation rate q,
    de-activation rate r."""
    build_edge_markovian(q, r, time)  # validates the shared rates
    i, j = np.triu_indices(n, k=1)
    table = _two_state_table(i, j, False, float(q), float(r), time)
    return DynamicGraphModel(n, AMEI, table, metadata={"preset": "complete_edge_markovian"})


def graph_small_world(n: int, r: float, rate_scale: float = 1.0) -> DynamicGraphModel:
    """Dynamic small-world network: a static directed ring plus dynamic arcs.

    Arcs (i, i+1 mod n) are statically on; every other ordered pair carries
    a 2-state CT process with stationary on-probability r.  The mean matrix
    then has 1 on the ring arcs and r on all remaining off-diagonal entries,
    with spectral abscissa 1 + r(n-2).
    """
    if not 0 < r < 1:
        raise InvalidRates("stationary probability r must lie in (0, 1)")
    q_dyn, r_dyn = r * rate_scale, (1 - r) * rate_scale
    build_edge_markovian(q_dyn, r_dyn)  # validates the dynamic arcs' rates
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    table = _two_state_table(i, j, j == (i + 1) % n, q_dyn, r_dyn, CT)
    return DynamicGraphModel(n, AMAI, table, metadata={"preset": "small_world", "r": r})


#: pairs of graph_er_iv drawn per call to the generator; memory is O(_CHUNK)
_CHUNK = 1 << 20


def graph_er_iv(n: int, er_prob: float, seed: int,
                gauss_mode: str = "variance") -> DynamicGraphModel:
    """Discrete-time ER experiment graph: truncated-Gaussian switch rates.

    Undirected ER skeleton with edge probability ``er_prob``; each kept pair
    carries a DT 2-state chain with de-activation probability r drawn from a
    Gaussian with mean 1/2 and dispersion 1/8, clamped to [0, 1], and
    activation probability q = 1 - r.  ``gauss_mode`` selects whether 1/8 is
    the variance (default) or the standard deviation.

    Pairs whose r clamps to 0 become statically-on edges; pairs clamping to
    r = 1 can never activate (q = 0) and are recorded as dead pairs instead
    of edges.  ``metadata["dead_pairs"]`` holds them as one (k, 2) integer
    array, sorted; the table's pairs plus the dead pairs are the ER skeleton.

    Every pair's uniform, then every pair's Gaussian, is drawn in
    ``np.triu_indices(n, 1)`` order, ``_CHUNK`` pairs per call: memory stays
    O(edges + chunk), and the draws equal one full-length call each.
    """
    if n < 2 or not 0 <= er_prob <= 1:
        raise ValueError("need n >= 2 and er_prob in [0, 1]")
    if gauss_mode == "variance":
        sigma = float(np.sqrt(1.0 / 8.0))
    elif gauss_mode == "std":
        sigma = 1.0 / 8.0
    else:
        raise ValueError("gauss_mode must be 'variance' or 'std'")
    rng = rngmod.generator(seed, rngmod.TAG_INSTANCE)
    pairs = n * (n - 1) // 2
    chunks = [(s, min(_CHUNK, pairs - s)) for s in range(0, pairs, _CHUNK)]
    kept = [np.flatnonzero(rng.random(size) < er_prob) for _, size in chunks]
    r = np.clip(np.concatenate([rng.normal(0.5, sigma, size)[local]
                                for (_, size), local in zip(chunks, kept)]), 0.0, 1.0)
    k = np.concatenate([s + local for (s, _), local in zip(chunks, kept)])
    rows = np.arange(n - 1)
    first = rows * (2 * n - rows - 1) // 2  # linear index of pair (i, i + 1)
    i = np.searchsorted(first, k, side="right") - 1
    j = k - first[i] + i + 1
    dead = r >= 1.0
    dead_pairs = np.column_stack((i[dead], j[dead]))
    i, j, r = i[~dead], j[~dead], r[~dead]
    table = _two_state_table(i, j, r <= 0.0, 1.0 - r, r, DT)
    meta = {"preset": "iv", "dead_pairs": dead_pairs,
            "er_prob": er_prob, "gauss_mode": gauss_mode, "seed": int(seed)}
    return DynamicGraphModel(n, AMEI, table, metadata=meta)


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def _edge_to_json(table: EdgeTable, k: int) -> dict:
    t = table.template[k]
    if t == MARKOV2:
        params = {"q": float(table.q[k]), "r": float(table.r[k])}
        return {"type": "markov2", "params": params, "time": table.time}
    if t < MARKOV2:
        return {"type": "static", "params": {"on": bool(t == STATIC_ON)}, "time": table.time}
    edge = table.chains[t - CHAIN0]
    if edge.builder != "coxian":
        raise ValueError("only markov2/coxian/static edges are JSON-serializable")
    return {"type": edge.builder, "params": dict(edge.params), "time": edge.time}


def _row_from_json(model: dict):
    """The table row of one JSON edge model: a Coxian edge, a chain template,
    is the one model that becomes an object."""
    kind, params, time = model["type"], model.get("params", {}), model.get("time", CT)
    if kind == "markov2":
        q, r = params["q"], params["r"]
        _check_markov2(q, r, time)
        return MARKOV2, float(q), float(r), time
    if kind == "coxian":
        if time != CT:
            raise ValueError("coxian edges are continuous-time")
        return build_coxian_edge(params["up_rates"], params["exit_rates"],
                                 params["down_rates"], params["return_rates"])
    if kind == "static":
        if not isinstance(params["on"], bool):
            raise ValueError(f"static edge needs 'on' true or false, got {params['on']!r}")
        return STATIC_ON if params["on"] else STATIC_OFF, np.nan, np.nan, time
    raise ValueError(f"unknown edge model type {kind!r}")


def graph_to_json(graph: DynamicGraphModel) -> dict:
    return {
        "n": graph.n,
        "kind": graph.kind,
        "edges": [{"i": i, "j": j, "model": _edge_to_json(graph.table, k)}
                  for k, (i, j) in enumerate(graph.edge_keys())],
    }


def graph_from_json(doc) -> DynamicGraphModel:
    if isinstance(doc, str):
        doc = json.loads(doc)
    rows = {}
    for e in doc["edges"]:
        key = (int(e["i"]), int(e["j"]))
        if key in rows:
            raise ValueError(f"edge {key} is listed twice")
        rows[key] = _row_from_json(e["model"])
    return DynamicGraphModel(int(doc["n"]), doc["kind"], _assemble(rows))
