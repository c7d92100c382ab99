import json
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import edge_on_probability, reference_graph_er_iv
import tempest
from tempest import graphs
from tempest import (
    AMAI,
    AMEI,
    DynamicGraphModel,
    arcs,
    build_coxian_edge,
    build_edge_markovian,
    build_static_edge,
    graph_er_iv,
    graph_from_json,
    graph_small_world,
    graph_to_json,
    mean_matrix,
    sample_graph_path,
)
from tempest.errors import InvalidRates, ReducibleChain
from tempest.graphs import MARKOV2, STATIC_ON


def one_edge_path(edge, seed, **length):
    """Switch times (CT) or steps (DT) and values of edge (0, 1) alone in a graph."""
    path = sample_graph_path(DynamicGraphModel(2, AMEI, {(0, 1): edge}), seed=seed, **length)
    return path.times, path.adjacency[:, 0, 1]


def fraction_on(times, values):
    """Time-weighted share of a CT path's segments on which the edge is on."""
    return float((np.diff(times) * values).sum() / times[-1])


class TestEdgeBuilders:
    def test_edge_markovian_rejects_nonpositive_rates(self):
        with pytest.raises(InvalidRates):
            build_edge_markovian(0.0, 1.0)
        with pytest.raises(InvalidRates):
            build_edge_markovian(1.0, -0.2)

    def test_dt_probabilities_capped(self):
        with pytest.raises(InvalidRates):
            build_edge_markovian(1.2, 0.5, time="dt")

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("time", ["ct", "dt"])
    def test_edge_markovian_rejects_non_finite_rates(self, bad, time):
        # a comparison with NaN is false, so only a finiteness check refuses it;
        # an infinite CT rate made [[-inf, inf], ...] after a numpy warning
        for q, r in ((bad, 0.5), (0.5, bad)):
            with pytest.raises(InvalidRates, match="finite"):
                build_edge_markovian(q, r, time=time)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("slot", range(4), ids=["up", "exit", "down", "return"])
    def test_coxian_rejects_non_finite_rates(self, bad, slot):
        rates = [[0.7], [0.3, 1.1], [0.4], [0.9, 0.6]]
        rates[slot][0] = bad
        with pytest.raises(InvalidRates, match="finite"):
            build_coxian_edge(*rates)

    def test_coxian_generator_rows_sum_to_zero(self):
        edge = build_coxian_edge([0.7], [0.3, 1.1], [0.4], [0.9, 0.6])
        np.testing.assert_allclose(edge.chain.matrix.sum(axis=1), 0.0, atol=1e-14)
        assert edge.output.tolist() == [1, 1, 0, 0]

    def test_coxian_degenerate_equals_two_state(self):
        # n=m=1, exit alpha, return beta': plain on/off edge
        edge = build_coxian_edge([], [0.8], [], [0.5])
        two = build_edge_markovian(0.5, 0.8)
        assert edge.chain.n_states == 2
        # states are (c1, d1) = (on, off); compare the on-probability
        assert edge_on_probability(edge) == pytest.approx(edge_on_probability(two))

    def test_coxian_absorbing_state_rejected(self):
        with pytest.raises(InvalidRates):
            build_coxian_edge([0.0], [0.0, 1.0], [], [1.0])  # c1 has no exit
        with pytest.raises(InvalidRates):
            build_coxian_edge([], [1.0], [0.0], [1.0, 0.0])  # d2 absorbing

    def test_coxian_erlang_on_durations(self):
        # up p1=1, exits q1=0, q2=1: the on-duration is Erlang(2, rate 1).
        # Oracle: Kolmogorov-Smirnov against the gamma(2, 1) CDF.
        edge = build_coxian_edge([1.0], [0.0, 1.0], [], [2.0])
        durations = []
        need = 100_000
        # long sample paths of switches; on-period = a switch on until the
        # next switch off (a path that starts on drops its first period)
        seed = 77
        while len(durations) < need:
            times, values = one_edge_path(edge, seed, horizon=50_000.0)
            starts = np.flatnonzero(values[1:] == 1) + 1
            durations.extend((times[starts + 1] - times[starts])[starts + 1 < values.size])
            seed += 1
        stat = scipy.stats.kstest(durations[:need], scipy.stats.gamma(a=2, scale=1.0).cdf)
        assert stat.pvalue > 1e-3

    def test_multi_state_constant_output_rejected(self):
        chain = build_edge_markovian(1.0, 1.0).chain
        with pytest.raises(ValueError):
            tempest.EdgeProcessModel(chain, np.array([1, 1]))


class TestEdgeOnProbability:
    def test_symmetric_rates_give_half(self):
        assert edge_on_probability(build_edge_markovian(0.7, 0.7)) == pytest.approx(0.5)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
    def test_two_state_closed_form(self, q, r):
        assert edge_on_probability(build_edge_markovian(q, r)) == \
            pytest.approx(q / (q + r), rel=1e-9)

    def test_static_edge(self):
        assert edge_on_probability(build_static_edge(True)) == 1.0
        assert edge_on_probability(build_static_edge(False)) == 0.0

    def test_bounds_and_equality_to_one(self, rng):
        # irreducible aggregated edges with surjective output sit strictly
        # inside (0, 1); only statically-on edges reach exactly 1
        for _ in range(30):
            edge = build_edge_markovian(rng.uniform(0.05, 3), rng.uniform(0.05, 3))
            assert 0.0 < edge_on_probability(edge) < 1.0
        cox = build_coxian_edge([rng.uniform(0.1, 2)], rng.uniform(0.1, 2, 2),
                                [], [rng.uniform(0.1, 2)])
        assert 0.0 < edge_on_probability(cox) < 1.0
        assert edge_on_probability(build_static_edge(True)) == 1.0

    def test_coxian_long_run_fraction(self):
        # time-average of a ~1e6-event path vs pi(f^{-1}({1}))
        edge = build_coxian_edge([0.7], [0.3, 1.1], [0.4], [0.9, 0.6])
        expected = edge_on_probability(edge)
        times, values = one_edge_path(edge, 123, horizon=300_000.0)
        assert fraction_on(times, values) == pytest.approx(expected, abs=5e-3)


class TestArcs:
    def test_amei_writes_the_mirror_cell_too(self):
        assert arcs(AMEI, 2, 5) == [(2, 5), (5, 2)]
        assert arcs(AMAI, 2, 5) == [(2, 5)]

    def test_index_arrays_pass_through(self):
        i, j = np.array([0, 1]), np.array([3, 2])
        (a, b), (c, d) = arcs(AMEI, i, j)
        assert a is i and b is j and c is j and d is i
        adj = np.zeros((4, 4))
        for row, col in arcs(AMAI, i, j):
            adj[row, col] = 1.0
        assert np.flatnonzero(adj).tolist() == [3, 6]


class TestMeanMatrix:
    def test_empty_graph_zero_matrix(self):
        g = DynamicGraphModel(4, AMEI, {})
        np.testing.assert_array_equal(mean_matrix(g).a_bar, np.zeros((4, 4)))

    def test_amei_exactly_symmetric(self, rng):
        edges = {(i, j): build_edge_markovian(rng.uniform(0.2, 2), rng.uniform(0.2, 2))
                 for i in range(6) for j in range(i + 1, 6) if rng.random() < 0.7}
        m = mean_matrix(DynamicGraphModel(6, AMEI, edges))
        assert (m.a_bar == m.a_bar.T).all()  # bitwise, by mirrored construction

    def test_small_world_structure(self):
        n, r = 8, 0.3
        g = graph_small_world(n, r)
        a = mean_matrix(g).a_bar
        ring = {(i, (i + 1) % n) for i in range(n)}
        for i in range(n):
            for j in range(n):
                if i == j:
                    assert a[i, j] == 0.0
                elif (i, j) in ring:
                    assert a[i, j] == 1.0
                else:
                    assert a[i, j] == pytest.approx(r, abs=1e-12)

    def test_reducible_edge_reports_pair(self):
        bad = tempest.EdgeProcessModel(
            tempest.MarkovChainSpec(("off", "on"), "ct", [[0.0, 0.0], [1.0, -1.0]]),
            np.array([0, 1]))
        g = DynamicGraphModel(3, AMEI, {(0, 2): bad})
        with pytest.raises(ReducibleChain, match=r"\(0,2\)"):
            mean_matrix(g)

    def test_iv_graph_on_probabilities(self):
        g = graph_er_iv(40, 0.5, seed=3)
        a = mean_matrix(g).a_bar
        t = g.table
        for i, j, template, q, r in zip(t.i, t.j, t.template, t.q, t.r):
            if template == STATIC_ON:
                assert a[i, j] == 1.0
            else:
                assert template == MARKOV2
                assert a[i, j] == pytest.approx(q / (q + r), abs=1e-12)


class TestSupportMatrix:
    def test_zero_matrix(self):
        m = tempest.MeanMatrix(np.zeros((3, 3)), AMEI)
        np.testing.assert_array_equal(m.support(), np.zeros((3, 3)))

    def test_small_world_support_complete(self):
        g = graph_small_world(6, 0.25)
        s = mean_matrix(g).support()
        np.testing.assert_array_equal(s, 1.0 - np.eye(6))

    def test_iv_support_is_er_adjacency_minus_dead_pairs(self):
        g = graph_er_iv(60, 0.4, seed=9)
        s = mean_matrix(g).support()
        expected = np.zeros((60, 60))
        dead = set(map(tuple, g.metadata["dead_pairs"].tolist()))
        for (i, j) in reference_graph_er_iv(60, 0.4, seed=9).metadata["er_pairs"]:
            if (i, j) not in dead:  # q = 0 edges can never activate
                expected[i, j] = expected[j, i] = 1.0
        np.testing.assert_array_equal(s, expected)


class TestEdgePaths:
    def test_static_edge_constant_path(self):
        times, values = one_edge_path(build_static_edge(True), 0, horizon=10.0)
        assert values.tolist() == [1]
        assert fraction_on(times, values) == 1.0

    def test_ct_fraction_matches_stationary(self):
        times, values = one_edge_path(build_edge_markovian(1.0, 1.0), 4, horizon=10_000.0)
        assert fraction_on(times, values) == pytest.approx(0.5, abs=0.02)

    def test_dt_deterministic_alternation(self):
        chain = build_edge_markovian(1.0, 1.0, time="dt").chain
        edge = tempest.EdgeProcessModel(
            tempest.MarkovChainSpec(chain.states, "dt", chain.matrix, initial_state="off"),
            np.array([0, 1]))
        _, values = one_edge_path(edge, 0, steps=11)
        assert values.tolist() == [0, 1] * 5 + [0]

    def test_identical_seed_bit_identical(self):
        edge = build_edge_markovian(0.8, 1.1)
        a = one_edge_path(edge, 42, horizon=100.0)
        b = one_edge_path(edge, 42, horizon=100.0)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_adding_edges_does_not_perturb_others(self):
        edges = {(0, 1): build_edge_markovian(1.0, 0.5),
                 (1, 2): build_edge_markovian(0.5, 1.0)}
        g1 = DynamicGraphModel(4, AMEI, dict(edges))
        edges[(2, 3)] = build_edge_markovian(2.0, 2.0)
        g2 = DynamicGraphModel(4, AMEI, edges)
        p1 = sample_graph_path(g1, horizon=20.0, seed=7)
        p2 = sample_graph_path(g2, horizon=20.0, seed=7)
        # the (0,1) trajectory, read off the merged paths, is unchanged
        for (i, j) in ((0, 1), (1, 2)):
            t1 = [(t, a[i, j]) for t, a in zip(p1.times[:-1], p1.adjacency)]
            t2 = [(t, a[i, j]) for t, a in zip(p2.times[:-1], p2.adjacency)]
            sw1 = [(t, v) for k, (t, v) in enumerate(t1) if k == 0 or v != t1[k - 1][1]]
            sw2 = [(t, v) for k, (t, v) in enumerate(t2) if k == 0 or v != t2[k - 1][1]]
            assert sw1 == sw2


class TestExperimentGraphIV:
    def test_zero_probability_empty(self):
        assert graph_er_iv(10, 0.0, seed=0).m == 0

    def test_complete_small_case_rates_complementary(self):
        g = graph_er_iv(3, 1.0, seed=1)
        a = mean_matrix(g).a_bar
        assert g.m + len(g.metadata["dead_pairs"]) == 3
        t = g.table
        for i, j, q, r in zip(t.i, t.j, t.q, t.r):
            assert q + r == pytest.approx(1.0)
            assert a[i, j] == pytest.approx(q)  # q/(q+r) = q when q+r = 1

    def test_mean_degree_matches_binomial_expectation(self):
        g = graph_er_iv(500, 0.2, seed=11)
        mean_degree = 2 * (g.m + len(g.metadata["dead_pairs"])) / 500
        assert abs(mean_degree - 0.2 * 499) < 5.0

    def test_gauss_std_mode_rarely_clamps(self):
        g = graph_er_iv(100, 0.5, seed=2, gauss_mode="std")
        n_static = int((g.table.template == STATIC_ON).sum())
        assert n_static == 0 and len(g.metadata["dead_pairs"]) == 0

    def test_all_edges_discrete_time(self):
        g = graph_er_iv(20, 0.5, seed=5)
        assert g.time == "dt"

    @pytest.mark.parametrize("chunk", [None, 7])
    @pytest.mark.parametrize("gauss_mode", ["variance", "std"])
    @pytest.mark.parametrize("er_prob", [0.0, 0.2, 1.0])
    @pytest.mark.parametrize("n", [2, 3, 60, 500])
    def test_matches_the_full_length_reference(self, n, er_prob, gauss_mode, chunk, monkeypatch):
        # chunked draws give the one-call draws: same table, same dead pairs;
        # a chunk of 7 pairs makes every build past n = 4 span several chunks
        if chunk is not None:
            monkeypatch.setattr(graphs, "_CHUNK", chunk)
        for seed in (1, 2, 3, 4, 5, 2024):
            g = graph_er_iv(n, er_prob, seed, gauss_mode)
            ref = reference_graph_er_iv(n, er_prob, seed, gauss_mode)
            for column in ("i", "j", "template", "q", "r"):
                np.testing.assert_array_equal(getattr(g.table, column),
                                              getattr(ref.table, column), err_msg=column)
            dead = g.metadata["dead_pairs"]
            assert dead.shape == (len(ref.metadata["dead_pairs"]), 2)
            assert dead.tolist() == [list(p) for p in ref.metadata["dead_pairs"]]

    def test_build_memory_is_linear_in_edges(self):
        # n = 4000 has 8e6 pairs: one float64 per pair alone would be 61 MiB
        tracemalloc.start()
        try:
            graph_er_iv(4000, 10 / 4000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestGraphJson:
    def test_round_trip(self):
        edges = {(0, 1): build_edge_markovian(0.5, 1.5),
                 (0, 2): build_static_edge(True),
                 (1, 2): build_coxian_edge([1.0], [0.0, 1.0], [], [2.0])}
        g = DynamicGraphModel(3, AMEI, edges)
        doc = graph_to_json(g)
        g2 = graph_from_json(json.dumps(doc))
        assert g2.n == 3 and g2.kind == AMEI
        assert mean_matrix(g2).a_bar == pytest.approx(mean_matrix(g).a_bar)
        assert graph_to_json(g2) == doc

    def test_amai_keys_allow_both_orders(self):
        g = DynamicGraphModel(2, AMAI, {(0, 1): build_edge_markovian(1, 1),
                                        (1, 0): build_edge_markovian(2, 1)})
        a = mean_matrix(g).a_bar
        assert a[0, 1] == pytest.approx(0.5) and a[1, 0] == pytest.approx(2 / 3)

    @pytest.mark.parametrize("second, on", [
        ({"type": "markov2", "params": {"q": 0.9, "r": 0.5}}, True),  # (0, 1) listed twice
        (None, "false"),                                            # 'on' not a JSON bool
    ], ids=["repeated edge", "static on string"])
    def test_bad_documents_rejected(self, second, on):
        edges = [{"i": 0, "j": 1, "model": {"type": "static", "params": {"on": on}}}]
        edges += [{"i": 0, "j": 1, "model": second}] if second else []
        with pytest.raises(ValueError):
            graph_from_json({"n": 2, "kind": AMEI, "edges": edges})

    def test_unknown_model_type_rejected(self):
        doc = {"n": 2, "kind": AMEI,
               "edges": [{"i": 0, "j": 1, "model": {"type": "mystery", "params": {}}}]}
        with pytest.raises(ValueError):
            graph_from_json(doc)

    def test_validation_rejects_self_loops_and_bad_keys(self):
        with pytest.raises(ValueError):
            DynamicGraphModel(3, AMEI, {(1, 1): build_edge_markovian(1, 1)})
        with pytest.raises(ValueError):
            DynamicGraphModel(3, AMEI, {(2, 1): build_edge_markovian(1, 1)})
        with pytest.raises(ValueError):
            DynamicGraphModel(3, "other", {})
