"""The array edge table against per-edge references.

``mean_matrix`` and the graph paths are checked against the edge-by-edge
computations in ``helpers``; the simulators against outputs recorded from
the per-edge implementation at fixed seeds (same streams, same draw order).
"""

import json

import numpy as np
import pytest

import helpers
import tempest
from tempest import (
    AMAI,
    AMEI,
    DynamicGraphModel,
    EdgeProcessModel,
    EdgeTable,
    EpidemicParams,
    MarkovChainSpec,
    MeanMatrix,
    build_coxian_edge,
    build_edge_markovian,
    build_static_edge,
    certify_amei_dt,
    exponential_condition,
    graph_complete_edge_markovian,
    graph_er_iv,
    graph_from_json,
    graph_small_world,
    graph_to_json,
    mean_matrix,
    sample_graph_path,
    simulate_dt_exact,
)
from tempest import rng as rngmod
from tempest.errors import InvalidRates, NonIrreducible, ReducibleChain
from tempest.graphs import CHAIN0, MARKOV2

GEN3 = np.array([[-1.0, 0.6, 0.4], [0.5, -0.9, 0.4], [0.3, 0.7, -1.0]])
P3 = np.array([[0.5, 0.5, 0.0], [0.2, 0.5, 0.3], [0.0, 0.6, 0.4]])


def coxian():
    return build_coxian_edge([0.7], [0.3, 1.1], [0.4], [0.9, 0.6])


def ct_mixed_edges():
    return {
        (0, 1): build_edge_markovian(1.0, 0.5),
        (0, 2): build_static_edge(True),
        (1, 3): build_static_edge(False),
        (2, 3): coxian(),
        (3, 4): EdgeProcessModel(MarkovChainSpec(("a", "b", "c"), "ct", GEN3), np.array([0, 1, 1])),
        (4, 5): build_edge_markovian(0.4, 0.8),
        (1, 5): build_edge_markovian(2.0, 1.0),
        (0, 5): coxian(),
    }


def dt_mixed_edges():
    return {
        (0, 1): build_edge_markovian(0.3, 0.6, "dt"),
        (0, 3): build_static_edge(True, "dt"),
        (1, 2): build_static_edge(False, "dt"),
        (1, 4): build_edge_markovian(1.0, 1.0, "dt"),
        (2, 3): build_edge_markovian(0.9, 0.05, "dt"),
        (3, 4): build_edge_markovian(0.2, 0.7, "dt"),
    }


def dt_three_state_edges():
    edge = EdgeProcessModel(MarkovChainSpec(("a", "b", "c"), "dt", P3), np.array([0, 1, 1]))
    return {(0, 1): edge, (1, 2): build_edge_markovian(0.4, 0.3, "dt"),
            (2, 3): build_static_edge(True, "dt"), (0, 3): edge}


def summary(trace):
    return (len(trace.times), float(trace.times.sum()), trace.infected_counts.tolist(),
            trace.reinfections)


class TestMeanMatrixReference:
    @pytest.mark.parametrize("kind", [AMEI, AMAI])
    @pytest.mark.parametrize("name, edge", [
        ("markov2 ct", build_edge_markovian(0.37, 1.9)),
        ("markov2 dt", build_edge_markovian(0.37, 0.81, "dt")),
        ("static on", build_static_edge(True)),
        ("static off", build_static_edge(False, "dt")),
        ("coxian", coxian()),
        ("generic 3-state", EdgeProcessModel(MarkovChainSpec(("a", "b", "c"), "ct", GEN3),
                                             np.array([1, 0, 1]))),
    ])
    def test_single_edge_kinds(self, kind, name, edge):
        edges = {(0, 2): edge, (1, 2): edge}
        got = mean_matrix(DynamicGraphModel(3, kind, edges)).a_bar
        np.testing.assert_allclose(got, helpers.reference_mean_matrix(3, kind, edges),
                                   rtol=0, atol=1e-12)

    def test_mixed_graph(self):
        edges = ct_mixed_edges()
        got = mean_matrix(DynamicGraphModel(6, AMEI, edges)).a_bar
        np.testing.assert_allclose(got, helpers.reference_mean_matrix(6, AMEI, edges),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("make", [helpers.random_amei_ct, helpers.random_amai_ct,
                                      helpers.random_amei_dt])
    def test_random_graphs(self, rng, make):
        for n in (2, 5, 9):
            g = make(rng, n)
            edges = {key: g.edges[key] for key in g.edges}
            np.testing.assert_allclose(mean_matrix(g).a_bar,
                                       helpers.reference_mean_matrix(n, g.kind, edges),
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("build", [
        lambda: graph_er_iv(40, 0.4, seed=3),
        lambda: graph_small_world(9, 0.3, rate_scale=2.0),
        lambda: graph_complete_edge_markovian(7, 0.6, 0.17, "dt"),
    ])
    def test_presets(self, build):
        g = build()
        edges = dict(g.edges.items())
        np.testing.assert_allclose(mean_matrix(g).a_bar,
                                   helpers.reference_mean_matrix(g.n, g.kind, edges),
                                   rtol=0, atol=1e-12)

    def test_one_solve_per_distinct_chain(self, monkeypatch):
        calls = []
        solve = tempest.graphs.stationary_distribution

        def counting(chain):
            calls.append(chain)
            return solve(chain)

        monkeypatch.setattr(tempest.graphs, "stationary_distribution", counting)
        gen3 = EdgeProcessModel(MarkovChainSpec(("a", "b", "c"), "ct", GEN3), np.array([0, 1, 1]))
        edges = {(i, i + 1): coxian() for i in range(6)}  # equal chains, distinct objects
        edges.update({(0, 7): gen3, (1, 7): gen3, (2, 7): build_edge_markovian(1.0, 2.0)})
        g = DynamicGraphModel(8, AMEI, edges)
        assert len(g.table.chains) == 2
        mean_matrix(g)
        assert len(calls) == 2

    def test_reducible_chain_names_its_first_edge(self):
        bad = EdgeProcessModel(MarkovChainSpec(("off", "on"), "ct", [[0.0, 0.0], [1.0, -1.0]]),
                               np.array([0, 1]))
        g = DynamicGraphModel(5, AMEI, {(3, 4): bad, (1, 2): bad,
                                        (0, 1): build_edge_markovian(1.0, 1.0)})
        with pytest.raises(ReducibleChain, match=r"edge \(1,2\)"):
            mean_matrix(g)


class TestPathsAndSimulation:
    """Same streams and draw order as the per-edge implementation."""

    def test_ct_graph_path_matches_per_edge_reference(self):
        edges = ct_mixed_edges()
        got = sample_graph_path(DynamicGraphModel(6, AMEI, edges), horizon=4.0, seed=11)
        ref = helpers.reference_graph_path(6, AMEI, edges, horizon=4.0, seed=11)
        np.testing.assert_array_equal(got.times, ref.times)
        np.testing.assert_array_equal(got.adjacency, ref.adjacency)

    @pytest.mark.parametrize("kind, edges", [
        (AMEI, dt_mixed_edges()),
        (AMEI, dt_three_state_edges()),
        (AMAI, {(1, 0): build_edge_markovian(0.5, 0.25, "dt"),
                (0, 1): build_edge_markovian(0.1, 0.9, "dt"),
                (2, 1): build_static_edge(True, "dt")}),
    ])
    def test_dt_graph_path_matches_per_edge_reference(self, kind, edges):
        got = sample_graph_path(DynamicGraphModel(5, kind, edges), steps=60, seed=4)
        ref = helpers.reference_graph_path(5, kind, edges, steps=60, seed=4)
        np.testing.assert_array_equal(got.times, ref.times)
        np.testing.assert_array_equal(got.adjacency, ref.adjacency)

    def test_iv_graph_path_matches_per_edge_reference(self):
        g = graph_er_iv(12, 0.5, seed=2)
        got = sample_graph_path(g, steps=30, seed=4)
        ref = helpers.reference_graph_path(12, AMEI, dict(g.edges.items()), steps=30, seed=4)
        np.testing.assert_array_equal(got.adjacency, ref.adjacency)

    # Outputs of the per-edge implementation at these seeds, kept by the
    # Gillespie reference the event-driven kernel is tested against.
    def test_ct_simulation_unchanged(self):
        g = DynamicGraphModel(6, AMEI, ct_mixed_edges())
        assert summary(helpers.reference_simulate_ct_exact(g, (0.8, 0.5), 6.0, seed=5)) == (
            24, 79.64290641192923,
            [6, 5, 6, 5, 6, 5, 4, 5, 4, 3, 4, 3, 4, 5, 4, 5, 4, 3, 4, 3, 2, 1, 2, 1], 0)
        g = graph_complete_edge_markovian(8, 0.7, 0.4)
        assert summary(helpers.reference_simulate_ct_exact(g, (0.5, 1.0), 3.0, seed=2)) == (
            22, 34.389479254431265,
            [8, 7, 8, 7, 6, 7, 6, 7, 8, 7, 6, 7, 6, 5, 6, 5, 6, 5, 6, 7, 6, 7], 0)

    def test_dt_simulation_unchanged(self):
        g = DynamicGraphModel(5, AMEI, dt_mixed_edges())
        assert summary(simulate_dt_exact(g, (0.3, 0.2), 40, reinfect=True, seed=9)) == (
            41, 820.0,
            [5, 3, 3, 4, 5, 4, 2, 2, 1, 2, 2, 2, 1, 1, 2, 2, 2, 1, 1, 2, 2, 2, 3, 3, 3, 4,
             3, 3, 3, 5, 5, 5, 4, 3, 3, 5, 2, 2, 1, 1, 1], 2)
        g = graph_er_iv(30, 0.3, seed=2)
        assert summary(simulate_dt_exact(g, (0.05, 0.3), 50, reinfect=True, seed=9)) == (
            51, 1275.0,
            [30, 21, 18, 10, 13, 13, 9, 9, 7, 5, 6, 6, 6, 5, 5, 5, 3, 2, 1, 1, 1, 1, 2, 4, 5,
             5, 4, 2, 1, 1, 1, 1, 2, 2, 2, 1, 1, 1, 1, 2, 2, 1, 1, 2, 1, 1, 1, 1, 1, 1, 1], 8)
        # multi-state edges step in the kernel on the run stream; these values
        # record the per-edge (seed, TAG_EDGE, i, j) walk, replayed on its path
        g = DynamicGraphModel(4, AMEI, dt_three_state_edges())
        path = sample_graph_path(g, steps=30, seed=6)
        _, counts, reinfections, _ = helpers.reference_dt_run(
            g, np.full(4, 0.4), np.full(4, 0.3), 30, np.ones(4, dtype=bool), True,
            rngmod.generator(6), False, edge_path=path)
        pinned = [4, 3, 4, 1, 1, 2, 3, 3, 3, 2, 3, 4, 2, 3, 2, 2, 1, 1, 2, 2, 2, 2, 3, 1, 1, 1, 1,
                  1, 2, 3, 3]
        assert (counts.tolist(), reinfections) == (pinned, 1)
        assert summary(simulate_dt_exact(g, (0.4, 0.3), 30, reinfect=True, seed=6,
                                         edge_path=path)) == (31, 465.0, pinned, 1)


class TestBoundary:
    def test_json_round_trip(self):
        for g in (DynamicGraphModel(6, AMEI, ct_mixed_edges() | {(3, 4): coxian()}),
                  graph_er_iv(30, 0.5, seed=4), graph_small_world(6, 0.2)):
            doc = graph_to_json(g)
            assert graph_to_json(graph_from_json(json.dumps(doc))) == doc

    def test_generic_chain_not_serializable(self):
        with pytest.raises(ValueError):
            graph_to_json(DynamicGraphModel(6, AMEI, ct_mixed_edges()))

    def test_builders_match_per_edge_objects(self):
        g = graph_complete_edge_markovian(4, 0.3, 0.9)
        for edge in g.edges.values():
            assert edge.params == {"q": 0.3, "r": 0.9}
            np.testing.assert_array_equal(edge.chain.matrix,
                                          build_edge_markovian(0.3, 0.9).chain.matrix)
        sw = graph_small_world(5, 0.25)
        assert sw.edges[(4, 0)].is_static and sw.edges[(4, 0)].static_value == 1
        assert sw.edges[(0, 4)].params == {"q": 0.25, "r": 0.75}

    def test_edges_view_is_a_sorted_mapping(self):
        g = DynamicGraphModel(4, AMAI, {(2, 1): build_edge_markovian(1, 1),
                                        (0, 3): build_static_edge(True),
                                        (1, 2): build_edge_markovian(2, 1)})
        assert list(g.edges) == [(0, 3), (1, 2), (2, 1)] == g.edge_keys()
        assert len(g.edges) == g.m == 3
        assert (2, 1) in g.edges and (1, 0) not in g.edges
        with pytest.raises(KeyError):
            g.edges[(3, 0)]

    def test_table_rejects_repeated_pairs(self):
        with pytest.raises(ValueError):
            EdgeTable([0, 0], [1, 1], [1, 1], [np.nan] * 2, [np.nan] * 2)

    @pytest.mark.parametrize("columns, extra", [
        (([0, 1], [1], [MARKOV2], [0.5], [0.5]), {}),                # columns of unequal length
        (([0], [1], [[MARKOV2]], [[0.5]], [[0.5]]), {}),             # 2-D columns
        (([0], [1], [CHAIN0], [np.nan], [np.nan]), {}),              # chain id without a chain
        (([0], [1], [-1], [np.nan], [np.nan]), {}),                  # negative template id
        (([0], [1], [CHAIN0], [np.nan], [np.nan]),                   # chain of another time base
         {"time": "dt", "chains": (build_coxian_edge([], [1.0], [], [1.0]),)}),
        (([0], [1], [1], [np.nan], [np.nan]), {"time": "weekly"}),   # unknown time base
    ])
    def test_table_rejects_inconsistent_columns(self, columns, extra):
        with pytest.raises(ValueError):
            EdgeTable(*columns, **extra)

    @pytest.mark.parametrize("q, r, time", [
        (np.nan, np.nan, "ct"), (0.0, 1.0, "ct"), (1.0, -2.0, "ct"), (np.inf, 1.0, "ct"),
        (0.5, 1.5, "dt"), (np.nan, 0.5, "dt"),
    ])
    def test_table_rejects_bad_two_state_rates(self, q, r, time):
        with pytest.raises(InvalidRates):
            DynamicGraphModel(2, AMEI, EdgeTable([0], [1], [MARKOV2], [q], [r], time))

    @pytest.mark.parametrize("states, output, gen", [
        (("off", "on"), [0, 1], [[-0.4, 0.4], [1.3, -1.3]]),
        (("on", "off"), [1, 0], [[-1.3, 1.3], [0.4, -0.4]]),
    ], ids=["off first", "on first"])
    def test_two_state_chain_gives_the_markov2_eta(self, states, output, gen):
        # a 2-state chain template reads its rates (q = 0.4 off -> on,
        # r = 1.3 on -> off) from its own matrix, whatever its state order
        chain = EdgeProcessModel(MarkovChainSpec(states, "ct", gen), np.array(output))
        pairs = [(0, 1), (1, 2), (0, 2), (2, 3)]
        as_chain = DynamicGraphModel(4, AMEI, dict.fromkeys(pairs, chain))
        as_markov2 = DynamicGraphModel(4, AMEI, {p: build_edge_markovian(0.4, 1.3) for p in pairs})
        assert as_chain.table.chains and not as_markov2.table.chains
        params = EpidemicParams.homogeneous(0.9, 0.6, 4)
        eta_chain, eta_markov2 = exponential_condition(as_chain, params)[1], \
            exponential_condition(as_markov2, params)[1]
        assert eta_chain == pytest.approx(eta_markov2, rel=0, abs=1e-12)

    def test_mean_matrix_rejects_nan(self):
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            MeanMatrix(np.array([[0.0, np.nan], [0.5, 0.0]]), AMAI)


class TestPeriodicity:
    def test_periodic_two_state_edge_rejected(self):
        edges = dt_mixed_edges()  # (1, 4) has q = r = 1
        with pytest.raises(NonIrreducible, match=r"edge \(1,4\)"):
            certify_amei_dt(DynamicGraphModel(5, AMEI, edges),
                            EpidemicParams.homogeneous(0.1, 0.5, 5))

    def test_periodic_chain_rejected(self):
        cycle = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        edge = EdgeProcessModel(MarkovChainSpec(("a", "b", "c"), "dt", cycle), np.array([0, 1, 1]))
        g = DynamicGraphModel(3, AMEI, {(0, 1): build_edge_markovian(0.5, 0.5, "dt"),
                                        (1, 2): edge})
        with pytest.raises(NonIrreducible, match=r"edge \(1,2\)"):
            certify_amei_dt(g, EpidemicParams.homogeneous(0.1, 0.5, 3))

    def test_always_on_switch_is_aperiodic(self):
        g = DynamicGraphModel(2, AMEI, {(0, 1): build_edge_markovian(1.0, 0.5, "dt")})
        certify_amei_dt(g, EpidemicParams.homogeneous(0.1, 0.5, 2))
