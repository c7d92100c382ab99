"""The lane-batched discrete-time kernel against references kept in ``helpers``.

One lane (G = 1) must reproduce the per-beta bincount runner draw for draw;
G lanes must reproduce a per-lane loop over the same shared draws (both
references step the edges one at a time: a switching edge moves to the
first state, on-states first, whose cumulative law exceeds its uniform);
multi-state edges follow their chain's law; the lanes are coupled
monotonically in beta except where a node recovers in a higher lane while
the lower lane infects it; and each lane's final counts follow the
distribution of independent single-beta runs.
"""

import numpy as np
import pytest
from scipy.stats import ks_2samp

import helpers
from tempest import (
    AMAI,
    AMEI,
    DynamicGraphModel,
    EdgeProcessModel,
    MarkovChainSpec,
    build_edge_markovian,
    build_static_edge,
    empirical_threshold,
    graph_complete_edge_markovian,
    graph_er_iv,
    sample_graph_path,
    simulate_dt_exact,
    stationary_distribution,
)
from tempest import rng as rngmod
from tempest.simulate import _dt_run, _integer_cuts

P3 = np.array([[0.5, 0.5, 0.0], [0.2, 0.5, 0.3], [0.0, 0.6, 0.4]])


def two_state_chain(q, r, output=(0, 1)):
    """A 2-state DT edge that is not built by build_edge_markovian (a chain row)."""
    off, on = (0, 1) if output == (0, 1) else (1, 0)
    p = np.zeros((2, 2))
    p[off, on], p[on, off] = q, r
    p[off, off], p[on, on] = 1 - q, 1 - r
    return EdgeProcessModel(MarkovChainSpec(("s0", "s1"), "dt", p), np.array(output))


def amei_mixed():
    return DynamicGraphModel(6, AMEI, {
        (0, 1): build_edge_markovian(0.3, 0.6, "dt"),
        (0, 3): build_static_edge(True, "dt"),
        (1, 2): build_static_edge(False, "dt"),
        (1, 4): build_edge_markovian(1.0, 1.0, "dt"),
        (2, 3): build_edge_markovian(0.9, 0.05, "dt"),
        (3, 4): two_state_chain(0.2, 0.7),
        (4, 5): two_state_chain(0.5, 0.4, output=(1, 0)),
        (2, 5): build_edge_markovian(0.6, 0.3, "dt"),
    })


def amai_random(n=9, seed=4):
    rng = np.random.default_rng(seed)
    edges = {}
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.4:
                edges[(i, j)] = build_edge_markovian(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9),
                                                     "dt")
    edges[(0, n - 1)] = build_static_edge(True, "dt")
    return DynamicGraphModel(n, AMAI, edges)


def three_state_edge(output, initial_state=None):
    return EdgeProcessModel(MarkovChainSpec(("a", "b", "c"), "dt", P3, initial_state),
                            np.array(output))


def three_state():
    """3-state chains with on-states listed first and last, next to 2-state and static edges."""
    up, down = three_state_edge([0, 1, 1]), three_state_edge([1, 0, 0])
    return DynamicGraphModel(6, AMEI, {
        (0, 1): up, (1, 2): down, (2, 3): build_edge_markovian(0.4, 0.3, "dt"), (3, 4): up,
        (0, 5): build_static_edge(True, "dt"), (4, 5): down, (1, 4): two_state_chain(0.3, 0.5),
    })


def static_only():
    return DynamicGraphModel(4, AMEI, {(0, 1): build_static_edge(True, "dt"),
                                       (1, 2): build_static_edge(True, "dt"),
                                       (2, 3): build_static_edge(False, "dt")})


GRAPHS = {
    "amei mixed": amei_mixed,
    "amei er": lambda: graph_er_iv(30, 0.4, seed=123),
    "amai": amai_random,
    "static only": static_only,
    "three state": three_state,
}


def node_rates(n, beta, delta, seed=0):
    """Heterogeneous per-node rates around (beta, delta)."""
    rng = np.random.default_rng(seed)
    return (np.clip(beta * rng.uniform(0.5, 1.5, n), 0, 1),
            np.clip(delta * rng.uniform(0.5, 1.5, n), 0, 1))


def trace_x0(n, ids):
    """Initial mask with the nodes ``ids`` infected."""
    x0 = np.zeros(n, dtype=bool)
    x0[ids] = True
    return x0


def assert_same_run(trace, ref):
    _, counts, reinfections, states = ref
    np.testing.assert_array_equal(trace.infected_counts, counts)
    assert trace.reinfections == reinfections
    if states is None:
        assert trace.states is None
    else:
        np.testing.assert_array_equal(trace.states, states)


class TestOneLaneMatchesReference:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("reinfect", [False, True])
    @pytest.mark.parametrize("record_states", [False, True])
    def test_sampled_edges(self, name, reinfect, record_states):
        g = GRAPHS[name]()
        for seed, (beta, delta) in enumerate([(0.3, 0.4), node_rates(g.n, 0.2, 0.5),
                                              (1.0, 0.9), (0.05, 0.3)]):
            beta, delta = np.broadcast_to(beta, (g.n,)), np.broadcast_to(delta, (g.n,))
            trace = simulate_dt_exact(g, (beta, delta), 40, init_infected=[1],
                                      reinfect=reinfect, seed=seed, record_states=record_states)
            ref = helpers.reference_dt_run(g, beta, delta, 40, trace_x0(g.n, [1]), reinfect,
                                           rngmod.generator(seed), record_states)
            assert_same_run(trace, ref)

    @pytest.mark.parametrize("name", ["amei mixed", "amai"])
    @pytest.mark.parametrize("reinfect", [False, True])
    def test_fixed_edge_path(self, name, reinfect):
        g = GRAPHS[name]()
        path = sample_graph_path(g, steps=50, seed=3)
        beta, delta = node_rates(g.n, 0.4, 0.5, seed=1)
        trace = simulate_dt_exact(g, (beta, delta), 45, reinfect=reinfect, seed=8,
                                  edge_path=path, record_states=True)
        ref = helpers.reference_dt_run(g, beta, delta, 45, np.ones(g.n, dtype=bool), reinfect,
                                       rngmod.generator(8), True, edge_path=path)
        assert_same_run(trace, ref)

    def test_multi_state_chain_runs_on_its_sampled_path(self):
        edge = three_state_edge([0, 1, 1])
        g = DynamicGraphModel(4, AMEI, {(0, 1): edge, (1, 2): build_edge_markovian(0.4, 0.3, "dt"),
                                        (2, 3): build_static_edge(True, "dt"), (0, 3): edge})
        path = sample_graph_path(g, steps=30, seed=6)
        trace = simulate_dt_exact(g, (0.4, 0.3), 30, reinfect=True, seed=6, edge_path=path,
                                  record_states=True)
        ref = helpers.reference_dt_run(g, np.full(4, 0.4), np.full(4, 0.3), 30,
                                       np.ones(4, dtype=bool), True, rngmod.generator(6), True,
                                       edge_path=path)
        assert_same_run(trace, ref)

    def test_generator_seed_is_the_same_stream(self):
        g = graph_er_iv(30, 0.4, seed=123)
        stream = simulate_dt_exact(g, (0.05, 0.3), 50, reinfect=True,
                                   seed=rngmod.generator(7, rngmod.TAG_PATH, 2))
        np.testing.assert_array_equal(
            stream.infected_counts,
            helpers.reference_dt_run(g, np.full(30, 0.05), np.full(30, 0.3), 50,
                                     np.ones(30, dtype=bool), True,
                                     rngmod.generator(7, rngmod.TAG_PATH, 2), False)[1])
        assert stream.seed == 7 and isinstance(stream.seed, int)
        plain = simulate_dt_exact(g, (0.05, 0.3), 50, reinfect=True, seed=7)
        again = simulate_dt_exact(g, (0.05, 0.3), 50, reinfect=True, seed=rngmod.generator(7))
        np.testing.assert_array_equal(plain.infected_counts, again.infected_counts)


LANE_BETAS = np.array([0.0, 0.02, 0.1, 0.4])


class TestLanesMatchPerLaneLoop:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("reinfect", [False, True])
    def test_shared_draws(self, name, reinfect):
        g = GRAPHS[name]()
        factors = np.random.default_rng(5).uniform(0.5, 1.5, g.n)
        beta = np.clip(factors[:, None] * LANE_BETAS[None, :], 0, 1)
        delta = np.full(g.n, 0.5)
        x0 = trace_x0(g.n, [0, 2])
        counts, reinf, states = _dt_run(g, beta, delta, 60, x0, reinfect, rngmod.generator(11),
                                        True)
        ref_counts, ref_reinf, ref_states = helpers.naive_lane_run(
            g, beta, delta, 60, x0, reinfect, rngmod.generator(11), True)
        np.testing.assert_array_equal(counts, ref_counts)
        np.testing.assert_array_equal(reinf, ref_reinf)
        np.testing.assert_array_equal(states, ref_states)
        if reinfect:
            assert reinf[0] > 0  # the beta = 0 lane dies out and is re-seeded
        else:
            assert not reinf.any()


class TestMonotoneCoupling:
    def lanes(self, g, delta, seed, steps=80):
        beta = np.tile(np.array([0.01, 0.03, 0.06, 0.1, 0.2]), (g.n, 1))
        _, _, states = _dt_run(g, beta, np.full(g.n, delta), steps, trace_x0(g.n, [0]), False,
                               rngmod.generator(seed), True)
        return states

    @pytest.mark.parametrize("name", ["amei er", "amai", "amei mixed", "three state"])
    def test_nested_without_recovery(self, name):
        g = GRAPHS[name]()
        for seed in range(5):
            states = self.lanes(g, 0.0, seed)
            assert (states[:, :, :-1] <= states[:, :, 1:]).all()

    @pytest.mark.parametrize("name", ["amei er", "amai", "amei mixed", "three state"])
    def test_nesting_breaks_only_where_the_higher_lane_recovers(self, name):
        # The lanes share one infection uniform and one recovery uniform per
        # node.  A node susceptible in the lower lane and infected in the
        # higher one is infected by the first and cured by the second
        # independently, so that is the one way a nested pair can split.
        g = GRAPHS[name]()
        for seed in range(5):
            states = self.lanes(g, 0.3, seed)
            low, high = states[:, :, :-1], states[:, :, 1:]
            nested = (low <= high).all(axis=1)              # (steps + 1, G - 1)
            split = low[1:] & ~high[1:]                       # nodes out of order at k + 1
            cause = ~low[:-1] & high[:-1] & low[1:] & ~high[1:]
            assert ((split == cause) | ~nested[:-1, None, :]).all()


class TestLaneDistributions:
    def test_final_counts_match_independent_runs(self):
        # each lane's final count against single-beta runs on their own streams
        g = graph_er_iv(30, 0.4, seed=123)
        grid, delta, paths, steps = np.array([0.01, 0.03, 0.06]), 0.3, 200, 60
        x0, deltas = np.ones(g.n, dtype=bool), np.full(g.n, delta)
        lanes = np.array([
            _dt_run(g, np.tile(grid, (g.n, 1)), deltas, steps, x0, True,
                    rngmod.generator(41, rngmod.TAG_PATH, pid), False)[0][-1]
            for pid in range(paths)])
        for b, beta in enumerate(grid):
            single = [helpers.reference_dt_run(g, np.full(g.n, beta), deltas, steps, x0, True,
                                               rngmod.generator(42, rngmod.TAG_PATH, b, pid),
                                               False)[1][-1]
                      for pid in range(paths)]
            assert ks_2samp(lanes[:, b], single).pvalue > 0.01

    def test_protocol_path_is_a_lane_run_on_its_tagged_stream(self):
        g = graph_er_iv(30, 0.4, seed=123)
        grid = [0.01, 0.05]
        rep = empirical_threshold(g, 0.3, grid, paths=3, steps=40, seed=5)
        for pid in range(3):
            counts, _, _ = _dt_run(g, np.tile(grid, (g.n, 1)), np.full(g.n, 0.3), 40,
                                   np.ones(g.n, dtype=bool), True,
                                   rngmod.generator(5, rngmod.TAG_PATH, pid), False)
            np.testing.assert_array_equal(rep.final_counts[:, pid], counts[-1])

    def test_protocol_steps_multi_state_chains(self):
        g = three_state()
        grid = [0.05, 0.3]
        rep = empirical_threshold(g, 0.3, grid, paths=3, steps=40, seed=5)
        for pid in range(3):
            counts, _, _ = _dt_run(g, np.tile(grid, (g.n, 1)), np.full(g.n, 0.3), 40,
                                   np.ones(g.n, dtype=bool), True,
                                   rngmod.generator(5, rngmod.TAG_PATH, pid), False)
            np.testing.assert_array_equal(rep.final_counts[:, pid], counts[-1])
        two = empirical_threshold(g, 0.3, grid, paths=3, steps=40, seed=5, threads=2)
        np.testing.assert_array_equal(two.final_counts, rep.final_counts)
        with pytest.raises(ValueError):
            empirical_threshold(graph_complete_edge_markovian(4, 0.5, 0.5), 0.3, grid, paths=3,
                                steps=40)


class TestMultiStateLaw:
    @pytest.mark.parametrize("output", [(0, 1, 1), (1, 0, 0), (0, 1, 0)])
    def test_first_on_time_follows_the_chain(self, output):
        # Arc (2e + 1, 2e) carries the infection of node 2e, infected for good
        # (delta = 0), into node 2e + 1 with beta = 1: node 2e + 1 is infected
        # at step k + 1 exactly when its edge is on for the first time at k.
        edge, on = three_state_edge(output), np.array(output, dtype=bool)
        edges, runs, steps = 40, 500, 8
        g = DynamicGraphModel(2 * edges, AMAI, {(2 * e + 1, 2 * e): edge for e in range(edges)})
        x0 = np.zeros(2 * edges, dtype=bool)
        x0[::2] = True
        first = []
        for run in range(runs):
            _, _, states = _dt_run(g, np.ones((2 * edges, 1)), np.zeros(2 * edges), steps, x0,
                                   False, rngmod.generator(13, rngmod.TAG_PATH, run), True)
            hit = states[1:, 1::2, 0]
            first.append(np.where(hit.any(axis=0), hit.argmax(axis=0), steps))
        freq = np.bincount(np.concatenate(first), minlength=steps + 1)[:steps] / (edges * runs)
        # exact law of the first on-step from the stationary start
        pi = stationary_distribution(edge.chain)
        law, alpha = [pi[on].sum()], pi[~on]
        for _ in range(1, steps):
            law.append(alpha @ P3[np.ix_(~on, on)].sum(axis=1))
            alpha = alpha @ P3[np.ix_(~on, ~on)]
        law = np.array(law)
        assert (np.abs(freq - law) < 4 * np.sqrt(law * (1 - law) / (edges * runs))).all()


    def test_run_matches_the_per_edge_walk_in_law(self):
        # the kernel's multi-state edges against the per-edge (seed, TAG_EDGE,
        # i, j) walk of sample_graph_path, the runner's path before the fold:
        # final counts and extinction steps agree in distribution
        g, steps, runs = three_state(), 40, 300
        beta, delta = np.full(g.n, 0.3), np.full(g.n, 0.3)
        kernel, walk = [], []
        for s in range(runs):
            kernel.append(simulate_dt_exact(g, (beta, delta), steps,
                                            seed=rngmod.generator(21, rngmod.TAG_PATH, s)))
            walk.append(simulate_dt_exact(g, (beta, delta), steps,
                                          seed=rngmod.generator(22, rngmod.TAG_PATH, s),
                                          edge_path=sample_graph_path(g, steps=steps, seed=s)))
        for stat in (lambda t: t.final_count,
                     lambda t: int(np.argmin(t.infected_counts)) if t.extinct else steps + 1):
            assert ks_2samp([stat(t) for t in kernel], [stat(t) for t in walk]).pvalue > 0.01


class TestDeclaredInitialState:
    # a sticky chain that starts off (on) keeps node 1 susceptible (infected)
    # at step 1 whatever the seed
    STICKY = np.array([[0.99, 0.01], [0.01, 0.99]])

    @pytest.mark.parametrize("states, output, start, infected", [
        (("off", "on"), [0, 1], "off", 0),
        (("off", "on"), [0, 1], "on", 400),
        (("a", "b", "c"), [0, 1, 1], "a", 0),
        (("a", "b", "c"), [0, 1, 1], "c", 400),
        (("a", "b", "c"), [1, 0, 0], "a", 400),
        (("a", "b", "c"), [1, 0, 0], "b", 0),
    ], ids=["2-state off", "2-state on", "3-state off", "3-state on", "3-state on first",
            "3-state off last"])
    def test_first_step_follows_the_declared_state(self, states, output, start, infected):
        p = self.STICKY if len(states) == 2 else P3
        edge = EdgeProcessModel(MarkovChainSpec(states, "dt", p, start), np.array(output))
        g = DynamicGraphModel(2, AMEI, {(0, 1): edge})
        hits = sum(simulate_dt_exact(g, (1.0, 0.0), 1, init_infected=[0], seed=s).final_count == 2
                   for s in range(400))
        assert hits == infected


class TestIntegerEdgeDraws:
    # the kernel compares raw >> 11 of each edge's Philox word with integer cut
    # points instead of building Generator.random's floats

    def test_raw_words_are_generator_random(self):
        words, floats = (rngmod.generator(3, rngmod.TAG_PATH, 1) for _ in range(2))
        for size in (1000, 7, 333):  # interleaved with the node draws of a step
            raw = words.bit_generator.random_raw(size) >> 11
            np.testing.assert_array_equal(raw * 2.0 ** -53, floats.random(size))
            np.testing.assert_array_equal(words.random(50), floats.random(50))
            assert words.integers(500) == floats.integers(500)

    @pytest.mark.parametrize("c", [0.0, 2.0 ** -53, 0.5, 1 - 2.0 ** -53, 1.0, 1 + 2.0 ** -52,
                                   np.inf, -0.25, 2.0 ** -60, 0.1, 1 / 3])
    def test_integer_cut_is_the_float_rule(self, c):
        k0 = int(_integer_cuts(np.array([c]))[0])
        ks = np.array(sorted({k for k in (0, 1, 2 ** 52, 2 ** 53 - 1, k0 - 1, k0, k0 + 1)
                              if 0 <= k < 2 ** 53}), dtype=np.uint64)
        np.testing.assert_array_equal(ks >= np.uint64(k0), ks * 2.0 ** -53 >= c)


class TestProtocolScale:
    def test_final_counts_unchanged(self):
        # recorded before the kernel held its lanes lanes-major and drew its
        # edges as raw Philox words: the same draws give the same counts
        rep = empirical_threshold(graph_er_iv(120, 0.2, 5), 0.05,
                                  [1e-3, 4e-3, 8e-3, 1.2e-2, 2e-2], paths=2, steps=150, seed=3)
        np.testing.assert_array_equal(rep.final_counts,
                                      [[1, 1], [8, 14], [59, 37], [74, 79], [90, 92]])


class TestInputChecks:
    def test_continuous_time_edge_path_rejected(self):
        g = graph_complete_edge_markovian(4, 0.5, 0.5, time="dt")
        ct = sample_graph_path(graph_complete_edge_markovian(4, 0.5, 0.5), horizon=20.0, seed=1)
        assert ct.adjacency.shape[0] >= 10
        with pytest.raises(ValueError, match="edge path"):
            simulate_dt_exact(g, (0.3, 0.3), 10, edge_path=ct)

    def test_edge_path_of_another_size_rejected(self):
        g = graph_complete_edge_markovian(10, 0.5, 0.5, time="dt")
        big = sample_graph_path(graph_complete_edge_markovian(12, 0.5, 0.5, time="dt"), steps=20,
                                seed=1)
        with pytest.raises(ValueError, match="edge path"):
            simulate_dt_exact(g, (0.3, 0.3), 10, edge_path=big)
        with pytest.raises(ValueError, match="edge path"):
            simulate_dt_exact(g, (0.3, 0.3), 30, edge_path=sample_graph_path(g, steps=20, seed=1))

    @pytest.mark.parametrize("threads", [0, -4])
    def test_threads_below_one_rejected(self, threads):
        with pytest.raises(ValueError, match="threads >= 1"):
            empirical_threshold(graph_er_iv(10, 0.5, 1), 0.05, [0.1], paths=2, steps=5,
                                threads=threads)
