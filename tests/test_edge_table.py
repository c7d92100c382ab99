"""The array edge table against per-edge references.

``mean_matrix`` and the graph paths are checked against the edge-by-edge
computations in ``helpers``; the simulators against outputs recorded from
the per-edge implementation at fixed seeds (same streams, same draw order).
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from tempest import CT, DT
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
            edges = helpers.edge_objects(g)
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
        edges = helpers.edge_objects(g)
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
        ref = helpers.reference_graph_path(12, AMEI, helpers.edge_objects(g), steps=30,
                                           seed=4)
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
        # the presets fill the arrays the builders' objects give, bit for bit
        g = graph_complete_edge_markovian(4, 0.3, 0.9)
        helpers.assert_tables_equal(g.table, helpers.reference_from_edges(
            {key: build_edge_markovian(0.3, 0.9) for key in g.edge_keys()}))
        sw = graph_small_world(5, 0.25)
        helpers.assert_tables_equal(sw.table, helpers.reference_from_edges(
            {(i, j): build_static_edge(True) if j == (i + 1) % 5
             else build_edge_markovian(0.25, 0.75) for i, j in sw.edge_keys()}))

    def test_edge_keys_are_sorted(self):
        g = DynamicGraphModel(4, AMAI, {(2, 1): build_edge_markovian(1, 1),
                                        (0, 3): build_static_edge(True),
                                        (1, 2): build_edge_markovian(2, 1)})
        assert g.edge_keys() == [(0, 3), (1, 2), (2, 1)]
        assert g.m == 3

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


# Coxian parameters with integer rates, so that a file may write one chain
# as [1] in one edge and [1.0] in another
COXIANS = [
    {"up_rates": [1], "exit_rates": [0, 1], "down_rates": [], "return_rates": [2]},
    {"up_rates": [], "exit_rates": [1], "down_rates": [], "return_rates": [3]},
    {"up_rates": [2], "exit_rates": [1, 1], "down_rates": [1], "return_rates": [1, 2]},
]


def written_as(params, as_float):
    return {key: [float(x) if as_float else x for x in rates] for key, rates in params.items()}


@st.composite
def coxian_models(draw):
    if draw(st.booleans()):  # one of the shared chains, rates written as ints or floats
        params = written_as(draw(st.sampled_from(COXIANS)), draw(st.booleans()))
    else:  # a chain of its own
        on, off = draw(st.integers(1, 2)), draw(st.integers(1, 2))
        rate = st.floats(0.1, 3.0)
        params = {"up_rates": draw(st.lists(rate, min_size=on - 1, max_size=on - 1)),
                  "exit_rates": draw(st.lists(rate, min_size=on, max_size=on)),
                  "down_rates": draw(st.lists(rate, min_size=off - 1, max_size=off - 1)),
                  "return_rates": draw(st.lists(rate, min_size=off, max_size=off))}
    model = {"type": "coxian", "params": params}
    return model | ({"time": CT} if draw(st.booleans()) else {})


def edge_models(time):
    rate = st.one_of(st.floats(0.05, 4.0), st.integers(1, 3)) if time == CT \
        else st.one_of(st.floats(0.01, 1.0), st.just(1))
    markov2 = st.builds(lambda q, r: {"type": "markov2", "params": {"q": q, "r": r}, "time": time},
                        rate, rate)
    static = st.builds(lambda on: {"type": "static", "params": {"on": on}, "time": time},
                       st.booleans())
    return st.one_of(markov2, static, coxian_models()) if time == CT else st.one_of(markov2, static)


@st.composite
def graph_documents(draw):
    time, kind, n = draw(st.sampled_from([CT, DT])), draw(st.sampled_from([AMEI, AMAI])), \
        draw(st.integers(2, 6))
    pairs = [(i, j) for i in range(n) for j in range(n) if (i < j if kind == AMEI else i != j)]
    keys = draw(st.permutations(pairs))[:draw(st.integers(0, 12))]  # a shuffled file
    return {"n": n, "kind": kind,
            "edges": [{"i": i, "j": j, "model": draw(edge_models(time))} for i, j in keys]}


def one_edge(model, i=0, j=1):
    return {"i": i, "j": j, "model": model}


def markov2(q=0.5, r=0.5, time=CT):
    return {"type": "markov2", "params": {"q": q, "r": r}, "time": time}


class TestGraphFileReader:
    """``graph_from_json`` fills the table from the file's rows; the object
    route it replaced (``helpers.reference_graph_from_json``) is the reference."""

    @settings(max_examples=200, deadline=None)
    @given(graph_documents())
    def test_table_matches_the_object_route(self, doc):
        ref = helpers.reference_graph_from_json(json.dumps(doc))
        for g in (graph_from_json(doc), graph_from_json(json.dumps(doc))):
            assert (g.n, g.kind) == (ref.n, ref.kind)
            helpers.assert_tables_equal(g.table, ref.table)
        # the dict constructor, the other input of the one assembler
        objects = {(e["i"], e["j"]): helpers.reference_edge_from_json(e["model"])
                   for e in doc["edges"]}
        helpers.assert_tables_equal(DynamicGraphModel(doc["n"], doc["kind"], objects).table,
                                    ref.table)

    def test_chain_ids_follow_sorted_keys_not_the_file(self):
        # one chain written [1] and [1.0] is one template; ids are numbered in
        # (i, j) order, whatever order the file lists the edges in
        edges = [one_edge({"type": "coxian", "params": COXIANS[2]}, 1, 2),
                 one_edge({"type": "coxian", "params": written_as(COXIANS[0], True)}, 2, 3),
                 one_edge(markov2(), 0, 2),
                 one_edge({"type": "coxian", "params": COXIANS[0]}, 0, 1)]
        doc = {"n": 4, "kind": AMEI, "edges": edges}
        g = graph_from_json(doc)
        assert g.table.template.tolist() == [3, 2, 4, 3] and len(g.table.chains) == 2
        helpers.assert_tables_equal(g.table, helpers.reference_graph_from_json(doc).table)

    @pytest.mark.parametrize("build", [
        *(pytest.param(lambda n=n, s=s, m=m: graph_er_iv(n, 0.2, s, m), id=f"iv n={n} {m} seed={s}")
          for n in (60, 500) for m in ("variance", "std") for s in range(1, 6)),
        pytest.param(lambda: graph_small_world(9, 0.3, rate_scale=2.0), id="small world"),
        pytest.param(lambda: graph_complete_edge_markovian(7, 0.6, 0.17), id="complete ct"),
        pytest.param(lambda: graph_complete_edge_markovian(7, 0.6, 0.17, "dt"), id="complete dt"),
    ])
    def test_preset_files_read_back_bit_identical(self, build):
        g = build()
        doc = graph_to_json(g)
        got, ref = graph_from_json(doc), helpers.reference_graph_from_json(doc)
        helpers.assert_tables_equal(got.table, ref.table)
        helpers.assert_tables_equal(got.table, g.table)
        assert graph_to_json(got) == doc

    @pytest.mark.parametrize("doc, error", [
        ({"n": 2, "kind": AMEI, "edges": [one_edge(markov2()), one_edge(markov2(0.9))]},
         ValueError),
        ({"n": 2, "kind": AMEI, "edges": [one_edge({"type": "mystery", "params": {}})]},
         ValueError),
        ({"n": 2, "kind": AMEI,
          "edges": [one_edge({"type": "static", "params": {"on": "false"}})]}, ValueError),
        ({"n": 2, "kind": AMEI, "edges": [one_edge({"type": "static", "params": {"on": 1}})]},
         ValueError),
        ({"n": 2, "kind": AMEI,
          "edges": [one_edge({"type": "coxian", "params": COXIANS[0], "time": DT})]}, ValueError),
        ({"n": 2, "kind": AMEI,
          "edges": [one_edge({"type": "coxian", "params": {**COXIANS[0], "exit_rates": [-1, 1]}})]},
         InvalidRates),
        ({"n": 2, "kind": AMEI, "edges": [one_edge(
            {"type": "coxian", "params": {**COXIANS[0], "exit_rates": [float("nan"), 1]}})]},
         InvalidRates),
        ({"n": 2, "kind": AMEI, "edges": [one_edge({"type": "markov2", "params": {"q": 1}})]},
         KeyError),
        ({"n": 2, "kind": AMEI, "edges": [{"i": 0, "j": 1}]}, KeyError),
        ({"kind": AMEI, "edges": [one_edge(markov2())]}, KeyError),
        ({"n": 2, "kind": AMEI, "edges": [one_edge(markov2("0.5"))]}, TypeError),
        ({"n": 2, "kind": AMEI, "edges": [one_edge(markov2(0.5, None))]}, TypeError),
        ({"n": 2, "kind": AMEI, "edges": [one_edge(markov2(0.0))]}, InvalidRates),
        ({"n": 2, "kind": AMEI, "edges": [one_edge(markov2(0.5, -1.0))]}, InvalidRates),
        ({"n": 2, "kind": AMEI, "edges": [one_edge(markov2(1.5, 0.5, DT))]}, InvalidRates),
        ({"n": 2, "kind": AMEI, "edges": [one_edge(markov2(float("nan")))]}, InvalidRates),
        ({"n": 2, "kind": AMEI, "edges": [one_edge(markov2(0.5, float("nan"), DT))]},
         InvalidRates),
        ({"n": 2, "kind": AMEI, "edges": [one_edge(markov2(float("inf")))]}, InvalidRates),
        ({"n": 2, "kind": AMEI, "edges": [one_edge(markov2(0.5, float("inf"), DT))]},
         InvalidRates),
        ({"n": 3, "kind": AMEI, "edges": [one_edge(markov2()), one_edge(markov2(time=DT), 1, 2)]},
         ValueError),
        ({"n": 2, "kind": AMEI, "edges": [one_edge(markov2(time="weekly"))]}, ValueError),
        ({"n": 2, "kind": "other", "edges": [one_edge(markov2())]}, ValueError),
        ({"n": 2, "kind": AMEI, "edges": [one_edge(markov2(), 1, 1)]}, ValueError),
        ({"n": 2, "kind": AMEI, "edges": [one_edge(markov2(), 1, 0)]}, ValueError),
        ({"n": 2, "kind": AMEI, "edges": [one_edge(markov2(), 0, 2)]}, ValueError),
    ], ids=["edge listed twice", "unknown type", "on a string", "on an int", "dt coxian",
            "negative coxian rate", "nan coxian rate", "missing rate", "missing model", "missing n", "string rate",
            "null rate", "zero rate", "negative rate", "dt rate above one", "nan rate",
            "dt nan rate", "infinite rate", "dt infinite rate", "mixed time bases",
            "unknown time base", "unknown kind", "self-loop", "amei key order",
            "endpoint out of range"])
    def test_malformed_files_raise_the_object_routes_error(self, doc, error):
        # read from JSON text, where a NaN or infinite rate is written NaN or Infinity
        text = json.dumps(doc)
        with pytest.raises(error) as ref:
            helpers.reference_graph_from_json(text)
        with pytest.raises(error) as got:
            graph_from_json(text)
        assert type(got.value) is type(ref.value) is error

    def test_reading_holds_no_per_edge_objects(self):
        # the Section IV file, 22,852 edges: an object per edge peaked at 20 MiB
        doc = graph_to_json(graph_er_iv(500, 0.2, 1))
        tracemalloc.start()
        try:
            graph_from_json(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20, f"peak {peak / 2**20:.1f} MiB"


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
