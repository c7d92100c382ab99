import hashlib
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from tempest import (
    AMAI,
    AMEI,
    DynamicGraphModel,
    EdgeProcessModel,
    EpidemicParams,
    MarkovChainSpec,
    RandomMatrixSampler,
    assemble_exponential_generator,
    build_coxian_edge,
    build_edge_markovian,
    build_static_edge,
    chung_tail_check,
    enumerate_subgraphs,
    expected_certificate,
    exponential_condition,
    graph_er_iv,
    mean_matrix,
    pi_matrix,
    sample_certificate_matrix,
    simulate_ct_exact,
    spectral_abscissa,
)
from tempest import oracle, spectral
from tempest.errors import ParamRange, TooManyConfigurations, TooManyEdges, WrongKind


def refuse_symmetric_route(mp):
    """Keep every block on the ARPACK route: no operator offers a symmetric form."""
    mp.setattr(oracle.ExactGenerator, "symmetric_form", lambda self: None)


def refuse_call(*args, **kwargs):
    raise RuntimeError("a refused route was taken")


def arc_graph(rates):
    """AMAI graph from {(i,j): (u, v)} rate pairs."""
    n = 1 + max(max(i, j) for (i, j) in rates)
    edges = {key: build_edge_markovian(u, v) for key, (u, v) in rates.items()}
    return DynamicGraphModel(n, AMAI, edges)


class TestEnumeration:
    def test_single_edge_labels(self):
        g = arc_graph({(0, 1): (1.5, 0.5)})
        enum = enumerate_subgraphs(g)
        assert enum.m == 1 and enum.n_labels == 2
        np.testing.assert_array_equal(enum.adjacency(0), np.zeros((2, 2)))
        f1 = np.zeros((2, 2))
        f1[0, 1] = 1.0
        np.testing.assert_array_equal(enum.adjacency(1), f1)
        np.testing.assert_array_equal(pi_matrix(enum).toarray(), [[-1.5, 1.5], [0.5, -0.5]])

    def test_three_edges_hypercube_degree(self):
        g = arc_graph({(0, 1): (1, 1), (1, 2): (1, 1), (2, 0): (1, 1)})
        enum = enumerate_subgraphs(g)
        pi = pi_matrix(enum)
        # every label has exactly 3 Hamming-1 neighbors
        off = pi.toarray().copy()
        np.fill_diagonal(off, 0.0)
        assert ((off > 0).sum(axis=1) == 3).all()

    def test_aggregated_edge_enumerated(self):
        # on-states c1, c2 and off-state d1: three labels, one per chain state
        cox = build_coxian_edge([1.0], [0.0, 1.0], [], [2.0])
        g = DynamicGraphModel(3, AMEI, {(0, 1): cox})
        enum = enumerate_subgraphs(g)
        assert enum.m == 1 and enum.n_labels == 3
        for label, present in enumerate([1.0, 1.0, 0.0]):
            f = enum.adjacency(label)
            assert f[0, 1] == f[1, 0] == present and f.sum() == 2 * present
        np.testing.assert_allclose(pi_matrix(enum).toarray(), cox.chain.matrix, atol=1e-15)

    def test_static_edges_folded_into_every_subgraph(self):
        g = DynamicGraphModel(3, AMEI, {(0, 1): build_static_edge(True),
                                        (1, 2): build_edge_markovian(1.0, 2.0)})
        enum = enumerate_subgraphs(g)
        assert enum.m == 1
        for label in (0, 1):
            f = enum.adjacency(label)
            assert f[0, 1] == 1.0 and f[1, 0] == 1.0
        assert enum.adjacency(1)[1, 2] == 1.0 and enum.adjacency(0)[1, 2] == 0.0

    def test_edge_cap(self):
        rng = np.random.default_rng(0)
        g = helpers.random_amai_ct(rng, 6, p_edge=1.0)  # 30 arcs > 20 cap
        with pytest.raises(TooManyEdges):
            enumerate_subgraphs(g)


class TestPiMatrix:
    def test_structure_against_independent_hypercube(self, rng):
        # m = 5 random rates; compare against a from-scratch hypercube build
        rates = {(0, 1): (0.3, 1.2), (1, 2): (2.0, 0.7), (0, 3): (1.1, 1.1),
                 (2, 3): (0.5, 0.9), (3, 1): (1.4, 0.2)}
        g = arc_graph(rates)
        enum = enumerate_subgraphs(g)
        pi = pi_matrix(enum).toarray()
        m = enum.m
        np.testing.assert_allclose(pi.sum(axis=1), 0.0, atol=1e-12)
        expected = np.zeros((2 ** m, 2 ** m))
        for ell in range(2 ** m):
            for k in range(m):
                other = ell ^ (1 << k)
                u, v = rates[enum.edge_keys[k]]
                expected[ell, other] = v if (ell >> k) & 1 else u
            expected[ell, ell] = -expected[ell].sum()
        np.testing.assert_allclose(pi, expected, atol=1e-12)
        # off-diagonal support is exactly the 5-cube edge set
        off = expected.copy()
        np.fill_diagonal(off, 0)
        rows, cols = np.nonzero(off)
        assert all(bin(r ^ c).count("1") == 1 for r, c in zip(rows, cols))


# the fixed 14-edge graph of the benchmark's small_exact workload (dimension 131,072)
SMALL_EXACT_PAIRS = [(0, 1), (0, 2), (0, 5), (0, 6), (1, 3), (1, 5), (1, 7), (2, 3), (2, 6),
                     (3, 5), (3, 7), (4, 5), (4, 6), (6, 7)]


def same_csr(a, b):
    return all(x.dtype == y.dtype and x.tobytes() == y.tobytes()
               for x, y in ((a.data, b.data), (a.indices, b.indices), (a.indptr, b.indptr)))


class TestContactFactor:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_the_reference(self, data):
        # the CSR arrays of blockdiag_l (B F_l - D), dtypes included, equal the
        # dict-and-membership-product construction's bit for bit
        n = data.draw(st.integers(2, 6), label="n")
        kind = data.draw(st.sampled_from([AMEI, AMAI]), label="kind")
        pairs = [(i, j) for i in range(n) for j in range(n)
                 if i != j and (kind == AMAI or i < j)]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12),
                           label="edges")
        rate = st.floats(0.1, 3.0)
        edges, labels = {}, 1
        for key in chosen:
            kind_e = data.draw(st.sampled_from(["markov2", "coxian", "static on", "static off"]))
            if kind_e == "markov2":
                edges[key] = build_edge_markovian(data.draw(rate), data.draw(rate))
            elif kind_e == "coxian":
                on, off = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
                edges[key] = build_coxian_edge(
                    [data.draw(rate) for _ in range(on - 1)], [data.draw(rate) for _ in range(on)],
                    [data.draw(rate) for _ in range(off - 1)],
                    [data.draw(rate) for _ in range(off)])
            else:
                edges[key] = build_static_edge(kind_e == "static on")
            if edges[key].chain.n_states * labels > 4096:
                edges[key] = build_static_edge(data.draw(st.booleans()))
            labels *= edges[key].chain.n_states
        enum = enumerate_subgraphs(DynamicGraphModel(n, kind, edges))
        beta = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.3, 1.0, 2.5]),
                                           min_size=n, max_size=n), label="beta"))
        delta = np.array(data.draw(st.lists(st.floats(0.1, 2.0), min_size=n, max_size=n),
                                   label="delta"))
        assert same_csr(oracle._contact(enum, beta, delta),
                        helpers.reference_contact(enum, beta, delta))

    def test_refuses_a_node_without_its_diagonal(self):
        # each row's count sums over its node's cells, so every node needs one
        enum = enumerate_subgraphs(markov_graph(3, AMEI, [(0, 1), (1, 2)]))
        with pytest.raises(ValueError):
            oracle._contact(enum, np.full(3, 0.5), np.array([1.0, 0.0, 1.0]))

    def test_small_exact_block_peak(self):
        # the benchmark's 14-edge block: at most 10 MiB, where the membership
        # product and the int64 flat index of the reference peak at 13.8 MiB
        enum = enumerate_subgraphs(markov_graph(8, AMEI, SMALL_EXACT_PAIRS))
        beta, delta = np.full(8, 0.3), np.ones(8)
        tracemalloc.start()
        try:
            contact = oracle._contact(enum, beta, delta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert contact.shape == (131_072, 131_072)
        assert peak <= 10 * 2 ** 20, peak / 2 ** 20
        assert same_csr(contact, helpers.reference_contact(enum, beta, delta))


class TestExponentialCondition:
    def test_no_edges_reduces_to_recovery(self):
        g = DynamicGraphModel(3, AMAI, {})
        params = EpidemicParams(np.full(3, 1.0), np.array([0.4, 0.9, 1.3]))
        stable, eta = exponential_condition(g, params)
        assert stable and eta == pytest.approx(-0.4, abs=1e-9)

    def test_single_arc_matches_dense_eigensolver(self):
        g = arc_graph({(0, 1): (1.0, 1.0)})
        params = EpidemicParams.homogeneous(1.0, 1.0, 2)
        stable, eta = exponential_condition(g, params)
        enum = enumerate_subgraphs(g)
        pi = pi_matrix(enum).toarray()
        big = np.kron(pi, np.eye(2))
        for ell in range(2):
            block = np.diag(params.beta) @ enum.adjacency(ell) - np.diag(params.delta)
            big[2 * ell:2 * ell + 2, 2 * ell:2 * ell + 2] += block
        dense_eta = float(np.linalg.eigvals(big).real.max())
        assert eta == pytest.approx(dense_eta, abs=1e-9)
        assert stable == (dense_eta < 0)

    # Digests of the CSR arrays as assembled when each module wrote the AMEI
    # mirror cells itself: every cell still takes the same one product.
    @pytest.mark.parametrize("kind, edges, digest", [
        (AMEI, {(0, 1): build_edge_markovian(0.7, 0.4), (0, 2): build_static_edge(True),
                (1, 2): build_static_edge(False),
                (1, 3): build_coxian_edge([0.6], [0.2, 1.3], [], [0.9]),
                (2, 3): build_edge_markovian(1.1, 0.5)}, "eecdf235d66cae07"),
        (AMAI, {(0, 1): build_edge_markovian(0.7, 0.4), (1, 0): build_edge_markovian(0.3, 0.8),
                (0, 3): build_static_edge(True), (1, 3): build_static_edge(False),
                (2, 1): build_static_edge(True), (3, 2): build_edge_markovian(1.1, 0.5)},
         "a5a674bfcbbf28ca"),
    ], ids=["amei", "amai"])
    def test_assembly_unchanged(self, kind, edges, digest):
        params = EpidemicParams([0.3, 0.55, 0.8, 0.45], [1.0, 0.7, 1.2, 0.9])
        mat = assemble_exponential_generator(DynamicGraphModel(4, kind, edges), params)
        h = hashlib.sha256()
        for a in (mat.data, mat.indices.astype(np.int64), mat.indptr.astype(np.int64)):
            h.update(np.ascontiguousarray(a).tobytes())
        assert h.hexdigest()[:16] == digest

    def test_assembly_by_blocks_of_labels(self, monkeypatch):
        # ExactGenerator.tocsr sums a block of labels at a time: one label per
        # block gives the arrays of a single block, bit for bit
        pairs = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0, 3)]
        g = markov_graph(4, AMEI, pairs)
        params = EpidemicParams([0.3, 0.55, 0.8, 0.45], [1.0, 0.7, 1.2, 0.9])
        whole = assemble_exponential_generator(g, params)
        monkeypatch.setattr(oracle, "_BLOCK_ROWS", 4)
        blocks = assemble_exponential_generator(g, params)
        for a, b in ((whole.data, blocks.data), (whole.indices, blocks.indices),
                     (whole.indptr, blocks.indptr)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_kron_assembly_equals_dense_formula(self, rng):
        # sparse assembly == Pi (x) I_n + sum_l basis_l (x) (B F_l - D),
        # entrywise, for m <= 4
        from tempest.oracle import assemble_exponential_generator
        g = helpers.random_amei_ct(np.random.default_rng(3), 4, p_edge=0.55)
        enum = enumerate_subgraphs(g)
        assert 1 <= enum.m <= 4
        n, big_l = 4, enum.n_labels
        beta = np.random.default_rng(5).uniform(0.2, 0.8, n)
        delta = np.random.default_rng(6).uniform(0.5, 1.5, n)
        params = EpidemicParams(beta, delta)
        dense = np.kron(pi_matrix(enum).toarray(), np.eye(n))
        for ell in range(big_l):
            basis = np.zeros((big_l, big_l))
            basis[ell, ell] = 1.0
            dense += np.kron(basis, np.diag(beta) @ enum.adjacency(ell) - np.diag(delta))
        assembled = assemble_exponential_generator(g, params).toarray()
        np.testing.assert_allclose(assembled, dense, atol=1e-13)
        _, eta = exponential_condition(g, params)
        assert eta == pytest.approx(float(np.linalg.eigvals(dense).real.max()), abs=1e-9)

    def test_beta_sweep_verdicts_monotone(self):
        g = helpers.random_amei_ct(np.random.default_rng(11), 4, p_edge=0.9)
        assert enumerate_subgraphs(g).m >= 5
        verdicts = []
        for beta in np.linspace(0.02, 2.0, 12):
            stable, eta = exponential_condition(g, EpidemicParams.homogeneous(beta, 1.0, 4))
            verdicts.append(stable)
        flips = sum(a != b for a, b in zip(verdicts, verdicts[1:]))
        assert verdicts[0] and not verdicts[-1] and flips == 1


def markov_graph(n, kind, pairs, q=1.0, r=0.5, static_on=()):
    edges = {key: build_edge_markovian(q, r) for key in pairs}
    edges.update({key: build_static_edge(True) for key in static_on})
    return DynamicGraphModel(n, kind, edges)


def full_dense_eta(g, params):
    return float(np.linalg.eigvals(assemble_exponential_generator(g, params).toarray()).real.max())


def state_block_eta(g, params):
    """``helpers.block_eta`` of the assembled generator, over (label, node) states."""
    return helpers.block_eta(assemble_exponential_generator(g, params).toarray())


def stalled_gap_graph():
    """A graph whose 192-dimensional block stalls the power iteration from ones."""
    rates = {(0, 6): (1.0, 0.25), (0, 1): (1.0, 1.0), (0, 2): (0.25, 0.25),
             (0, 4): (0.25, 0.25), (4, 7): (0.25, 0.25)}
    g = DynamicGraphModel(8, AMEI, {k: build_edge_markovian(*qr) for k, qr in rates.items()})
    return g, EpidemicParams(np.full(8, 0.1), np.array([1.0, 1, 1, 1, 2, 1, 0.25, 0.25]))


def captured_block_graph(scale=1.0):
    """The 8,192-dimensional block whose Ritz bracket narrows slowly, edge rates times ``scale``."""
    rates = {(0, 1): (2.2622437020042465, 2.8118487186216696),
             (0, 4): (1.1296681568544864, 2.873871942006031),
             (0, 6): (1.437256957872415, 1.591257616351934),
             (1, 2): (2.9494665022446434, 1.302837881190559),
             (1, 3): (0.28723428433907255, 0.3333333333333333),
             (1, 4): (0.4017321337000884, 2.4766048589318648),
             (2, 3): (2.3865746914800585, 2.171314452560013),
             (3, 5): (2.5770671970946806, 1.5832704691243578),
             (4, 6): (1.129957155820064, 0.1716501225486976),
             (5, 7): (1.8376259435401827, 1.3183687780807851)}
    edges = {k: build_edge_markovian(q * scale, r * scale) for k, (q, r) in rates.items()}
    edges.update({k: build_static_edge(False) for k in [(0, 7), (2, 6), (3, 7), (4, 5)]})
    beta = np.full(8, 0.1)
    beta[[4, 6]] = 1.0
    delta = np.array([1.6887609760120281, 1.9, 0.46381778307011523, 1.1,
                      1.3268695798726509, 0.5114093095397947, 0.7678401289463699,
                      0.81406025217271])
    return DynamicGraphModel(8, AMEI, edges), EpidemicParams(beta, delta)


# Union graph: a 7-node component and the isolated node 7 (dimension 4,096).
FAULT_PAIRS = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 6), (4, 6)]


class TestReducibleGenerators:
    """Graphs whose generator is reducible: the maximum over coupling blocks."""

    def test_isolated_node_fault_graph(self):
        g = markov_graph(8, AMEI, FAULT_PAIRS)
        params = EpidemicParams.homogeneous(0.3, 1.0, 8)
        mat = assemble_exponential_generator(g, params)
        assert mat.shape[0] == 4096
        stable, eta = exponential_condition(g, params)
        arpack = float(spla.eigs(mat, k=1, which="LR", tol=1e-13,
                                 return_eigenvectors=False).real.max())
        assert eta == pytest.approx(arpack, abs=1e-9)
        assert stable == (eta < 0)

    @pytest.mark.parametrize("case", ["two components", "isolated node",
                                      "weakly connected amai", "zero beta"])
    def test_dense_agreement(self, case):
        rs = np.random.default_rng(7)
        if case == "two components":
            # node 2 joins {0, 1} through a static-on edge only
            g = markov_graph(5, AMEI, [(0, 1), (3, 4)], q=0.8, r=1.3, static_on=[(1, 2)])
            beta, delta = rs.uniform(0.5, 1.5, 5), rs.uniform(0.5, 1.5, 5)
        elif case == "isolated node":
            # the isolated node recovers slowest, so -delta_3 is the answer
            g = markov_graph(4, AMEI, [(0, 1), (1, 2), (0, 2)])
            beta, delta = np.full(4, 0.2), np.array([1.0, 1.2, 0.9, 0.05])
        elif case == "weakly connected amai":
            # a 3-cycle feeding a 2-node tail: components {0,1,2}, {3}, {4}
            g = markov_graph(5, AMAI, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)], q=1.4, r=0.6)
            beta, delta = rs.uniform(0.8, 2.0, 5), rs.uniform(0.3, 1.0, 5)
        else:
            # beta_2 = 0: node 2 is infected but infects nobody, a component of
            # its own.  EpidemicParams rejects a zero rate, so the fields are
            # passed on a plain object.
            g = markov_graph(4, AMEI, [(0, 1), (1, 2), (2, 3), (0, 3)])
            beta, delta = np.array([0.9, 0.7, 0.0, 1.1]), rs.uniform(0.2, 0.6, 4)
        params = (SimpleNamespace(beta=beta, delta=delta) if case == "zero beta"
                  else EpidemicParams(beta, delta))
        assert assemble_exponential_generator(g, params).shape[0] <= 512
        stable, eta = exponential_condition(g, params)
        assert eta == pytest.approx(full_dense_eta(g, params), abs=1e-9)
        assert stable == (eta < 0)
        if case == "isolated node":
            assert eta == -0.05

    def test_edge_cap_applies_per_component(self):
        # two disjoint 6-node components with 12 edges each: 24 stochastic
        # edges over the whole-graph cap, 12 per block
        picks = np.random.default_rng(4).permutation(15)[:12]
        iu, ju = np.triu_indices(6, k=1)
        pairs = sorted(zip(iu[picks].tolist(), ju[picks].tolist()))
        left = markov_graph(6, AMEI, pairs, q=1.0, r=0.5)
        right = markov_graph(6, AMEI, pairs, q=0.6, r=1.1)
        edges = helpers.edge_objects(left)
        edges.update({(i + 6, j + 6): e for (i, j), e in helpers.edge_objects(right).items()})
        g = DynamicGraphModel(12, AMEI, edges)
        with pytest.raises(TooManyEdges):
            enumerate_subgraphs(g)
        beta, delta = np.full(12, 0.25), np.full(12, 1.0)
        _, eta = exponential_condition(g, EpidemicParams(beta, delta))
        per_block = []
        for block in (left, right):
            params = EpidemicParams(beta[:6], delta[:6])
            mat = assemble_exponential_generator(block, params)
            arpack = float(spla.eigs(mat, k=1, which="LR", tol=1e-13,
                                     return_eigenvectors=False).real.max())
            per_block.append(exponential_condition(block, params)[1])
            assert per_block[-1] == pytest.approx(arpack, abs=1e-9)
        assert eta == max(per_block)

    def test_one_large_component_still_capped(self):
        g = markov_graph(8, AMEI, [(i, j) for i in range(8) for j in range(i + 1, 8)])
        with pytest.raises(TooManyEdges):
            exponential_condition(g, EpidemicParams.homogeneous(0.1, 1.0, 8))

    def test_repeated_calls_bit_identical(self):
        # a connected 8-node graph with 13 edges (a path and six chords):
        # dimension 65,536, ARPACK route
        pairs = [(k, k + 1) for k in range(7)] + [(0, 2), (1, 4), (2, 5), (3, 6), (4, 7), (0, 7)]
        g = markov_graph(8, AMEI, pairs)
        params = EpidemicParams.homogeneous(0.3, 1.0, 8)
        first = exponential_condition(g, params)[1]
        assert exponential_condition(g, params)[1] == first  # bit-identical

    def test_block_solved_through_its_factors(self, monkeypatch):
        # ARPACK's eta on the assembled matrix, reached by matvecs with the two
        # factors alone, at a memory peak at least a tenth below the assembly's
        # (a solve through the assembled matrix peaks at least as high), on the
        # graph of test_repeated_calls_bit_identical, on the ARPACK route
        refuse_symmetric_route(monkeypatch)
        pairs = [(k, k + 1) for k in range(7)] + [(0, 2), (1, 4), (2, 5), (3, 6), (4, 7), (0, 7)]
        g = markov_graph(8, AMEI, pairs)
        params = EpidemicParams.homogeneous(0.3, 1.0, 8)
        arpack = float(spla.eigs(assemble_exponential_generator(g, params), k=1, which="LR",
                                 tol=1e-13, return_eigenvectors=False).real.max())

        def traced(f):
            tracemalloc.start()
            try:
                return f(g, params), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        _, assembly_peak = traced(assemble_exponential_generator)

        def refuse(self):
            raise RuntimeError("the block was materialized")

        monkeypatch.setattr(oracle.ExactGenerator, "tocsr", refuse)
        (_, eta), solve_peak = traced(exponential_condition)
        assert eta == pytest.approx(arpack, abs=1e-9)
        assert solve_peak < 0.9 * assembly_peak, (solve_peak, assembly_peak)

    def test_symmetric_route_holds_no_basis(self, monkeypatch):
        # the block above, whose 2-state AMEI edges make it symmetrizable: the
        # preconditioned eigensolver in the edges' mode basis gives ARPACK's
        # eta on the assembled matrix with ARPACK and materialization refused,
        # and the solve peaks at a few vectors of the dimension, under a third
        # of the ARPACK route's 20-vector basis
        pairs = [(k, k + 1) for k in range(7)] + [(0, 2), (1, 4), (2, 5), (3, 6), (4, 7), (0, 7)]
        g = markov_graph(8, AMEI, pairs)
        params = EpidemicParams.homogeneous(0.3, 1.0, 8)
        mat = assemble_exponential_generator(g, params)
        arpack = float(spla.eigs(mat, k=1, which="LR", tol=1e-13,
                                 return_eigenvectors=False).real.max())
        op = oracle._generator(enumerate_subgraphs(g), params.beta, params.delta)
        assert op.symmetric_form() is not None

        def solve():
            tracemalloc.start()
            try:
                return spectral_abscissa(op), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        with monkeypatch.context() as mp:
            refuse_symmetric_route(mp)
            arpack_route, arpack_peak = solve()
        monkeypatch.setattr(spla, "eigs", refuse_call)
        monkeypatch.setattr(oracle.ExactGenerator, "tocsr", refuse_call)
        eta, peak = solve()
        assert eta == pytest.approx(arpack, abs=1e-9)
        assert eta == pytest.approx(arpack_route, abs=1e-9)
        vector = op.shape[0] * 8
        assert peak <= 8 * vector and peak < arpack_peak / 3, (peak / vector, arpack_peak / vector)

    def test_stalled_power_iteration_falls_back_to_dense(self):
        # a case the property below found: the Ritz vector's own bracket does
        # not certify this 192-dimensional block, and its spectral gap stalls
        # the power iteration from ones
        g, params = stalled_gap_graph()
        stable, eta = exponential_condition(g, params)
        assert stable and eta == pytest.approx(state_block_eta(g, params), abs=1e-9)

    def test_stalled_power_iteration_falls_back_to_dense_without_polish(self, monkeypatch):
        # the block above certifies from its Ritz vector; with ARPACK refused it
        # is materialized and iterated from ones, which stalls on its gap
        import tempest.spectral as spectral
        from tempest.errors import ConvergenceFailure
        g, params = stalled_gap_graph()
        stalled, original = [], spectral.power_iteration_abscissa

        def refuse(*args, **kwargs):
            raise spla.ArpackError(-1)

        def power_iteration(m, x=None):
            try:
                return original(m, x)
            except ConvergenceFailure:
                stalled.append(m.shape[0])
                raise

        monkeypatch.setattr(spla, "eigs", refuse)
        refuse_symmetric_route(monkeypatch)
        monkeypatch.setattr(spectral, "power_iteration_abscissa", power_iteration)
        stable, eta = exponential_condition(g, params)
        assert stalled == [192]
        assert stable and eta == pytest.approx(state_block_eta(g, params), abs=1e-9)

    def test_wide_ritz_bracket_is_polished_on_the_operator(self, monkeypatch):
        # a case the property below found: the Ritz vector of this block
        # (dimension 1,536) is positive but its bracket is too wide, and the
        # power iteration from ones stalls on the gap to the next eigenvalue,
        # -0.25086; a few shifted power steps from the Ritz vector certify it
        edges = {k: build_edge_markovian(1.0, 1.0)
                 for k in [(0, 1), (1, 2), (3, 6), (6, 0), (0, 3), (2, 3), (4, 3)]}
        edges[(0, 4)] = build_edge_markovian(1.0, 2.0)
        g = DynamicGraphModel(8, AMAI, edges)
        params = EpidemicParams(np.full(8, 0.1), np.array([1, 0.25, 0.25, 1, 1, 1, 1, 1.0]))

        def refuse(self):
            raise RuntimeError("the block was materialized")

        monkeypatch.setattr(oracle.ExactGenerator, "tocsr", refuse)
        stable, eta = exponential_condition(g, params)
        assert stable and eta == pytest.approx(-0.24914067611125418, abs=1e-9)  # dense eigvals

    def test_slow_ritz_bracket_is_certified_on_the_operator(self, monkeypatch):
        # a case the property below found at 400 examples: the Ritz vector of
        # this 8,192-dimensional block is positive, but its bracket narrows
        # slowly under the shifted power steps; it must certify to 1e-10
        # without being materialized (on the ARPACK route)
        refuse_symmetric_route(monkeypatch)
        g, params = captured_block_graph()
        mat = assemble_exponential_generator(g, params)
        assert mat.shape[0] == 8192
        arpack = float(spla.eigs(mat, k=1, which="LR", tol=1e-15, v0=np.ones(8192),
                                 return_eigenvectors=False).real.max())

        def refuse(self):
            raise RuntimeError("the block was materialized")

        monkeypatch.setattr(oracle.ExactGenerator, "tocsr", refuse)
        stable, eta = exponential_condition(g, params)
        assert stable and eta == pytest.approx(arpack, abs=1e-10)

    def test_stiff_block_is_certified_at_its_rounding_floor(self, monkeypatch):
        # the block above with every edge rate scaled up: the diagonal
        # (about -2e6 at 1e5) cancels its row, so no bracket is narrower than
        # a few ulps of it, and ARPACK's vector, accurate in norm only, needs
        # the balanced second solve; the shifted power steps gain almost
        # nothing against so large a shift (on the ARPACK route)
        refuse_symmetric_route(monkeypatch)
        g, params = captured_block_graph(1e5)
        mat = assemble_exponential_generator(g, params)
        arpack = float(spla.eigs(mat, k=1, which="LR", tol=1e-15, v0=np.ones(8192),
                                 return_eigenvectors=False).real.max())
        floor = 64 * np.finfo(float).eps * np.abs(mat.diagonal()).max()
        materialized, tocsr = [], oracle.ExactGenerator.tocsr

        def counted(self):
            materialized.append(self.shape[0])
            return tocsr(self)

        monkeypatch.setattr(oracle.ExactGenerator, "tocsr", counted)
        stable, eta = exponential_condition(g, params)
        assert materialized == []
        assert stable and abs(eta - arpack) <= 1e-10 + floor, (eta, arpack, floor)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_valid_input_never_fails_to_converge(self, data):
        n = data.draw(st.integers(2, 9), label="n")
        kind = data.draw(st.sampled_from([AMEI, AMAI]), label="kind")
        pairs = [(i, j) for i in range(n) for j in range(n)
                 if i != j and (kind == AMAI or i < j)]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=14),
                           label="edges")
        rates = st.floats(0.1, 3.0)
        edges = {}
        for k, key in enumerate(chosen):
            if k < 10:
                edges[key] = build_edge_markovian(data.draw(rates), data.draw(rates))
            else:
                edges[key] = build_static_edge(data.draw(st.booleans()))
        g = DynamicGraphModel(n, kind, edges)
        beta = np.array(data.draw(st.lists(st.sampled_from([0.1, 0.5, 1.0, 2.0]),
                                           min_size=n, max_size=n), label="beta"))
        delta = np.array(data.draw(st.lists(st.floats(0.1, 2.0), min_size=n, max_size=n),
                                   label="delta"))
        params = EpidemicParams(beta, delta)
        stable, eta = exponential_condition(g, params)  # never ConvergenceFailure
        assert np.isfinite(eta) and stable == (eta < 0)
        assert eta >= -delta.min() - 1e-9  # B F - D >= -D in the Metzler order
        if assemble_exponential_generator(g, params).shape[0] <= 512:
            assert eta == pytest.approx(state_block_eta(g, params), abs=1e-9)


def symmetric_route_everywhere(mp):
    """Let operators of any dimension above 2x2 take the symmetric route."""
    mp.setattr(spectral, "_SYMMETRIC_MIN_DIM", 3)


class TestSymmetricRoute:
    """Blocks of 2-state AMEI graphs, symmetric under diag(sqrt(pi) (x) B^-1/2)."""

    @pytest.mark.parametrize("scale", [1.0, 100.0, 1e5], ids=["x1", "x100", "x1e5"])
    def test_captured_blocks(self, scale, monkeypatch):
        # the 8,192-dimensional block certifies from the eigensolver's vector
        # without ARPACK at every scale: the preconditioner inverts the
        # diagonal that the edge rates make stiff, so x100 and x1e5 converge
        # in about as many steps as x1
        g, params = captured_block_graph(scale)
        mat = assemble_exponential_generator(g, params)
        arpack = float(spla.eigs(mat, k=1, which="LR", tol=1e-15, v0=np.ones(8192),
                                 return_eigenvectors=False).real.max())
        floor = 64 * np.finfo(float).eps * np.abs(mat.diagonal()).max()
        calls, eigs = [], spla.eigs

        def counted(*args, **kwargs):
            calls.append(1)
            return eigs(*args, **kwargs)

        monkeypatch.setattr(spla, "eigs", counted)
        monkeypatch.setattr(oracle.ExactGenerator, "tocsr", refuse_call)
        stable, eta = exponential_condition(g, params)
        assert calls == []
        assert stable and abs(eta - arpack) <= 1e-10 + floor, (eta, arpack, floor)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_the_arpack_route(self, data):
        # random AMEI graphs of 2-state edges, static-on and static-off edges
        # and heterogeneous rates: the symmetric route (ARPACK refused)
        # against the ARPACK route (the symmetric form refused), and dense
        # eigvals when small
        n = data.draw(st.integers(2, 7), label="n")
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1,
                                    max_size=12), label="edges")
        rate = st.floats(0.1, 3.0)
        edges = {}
        for key in chosen:
            kind_e = data.draw(st.sampled_from(["markov2", "chain", "static on", "static off"]))
            if kind_e == "markov2":
                edges[key] = build_edge_markovian(data.draw(rate), data.draw(rate))
            elif kind_e == "chain":
                edges[key] = two_state_chain_edge(data.draw(rate), data.draw(rate),
                                                  data.draw(st.booleans()))
            else:
                edges[key] = build_static_edge(kind_e == "static on")
            if sum(not e.is_static for e in edges.values()) > 10:
                edges[key] = build_static_edge(True)
        g = DynamicGraphModel(n, AMEI, edges)
        beta = np.array(data.draw(st.lists(st.floats(0.1, 2.0), min_size=n, max_size=n),
                                  label="beta"))
        delta = np.array(data.draw(st.lists(st.floats(0.1, 2.0), min_size=n, max_size=n),
                                   label="delta"))
        params = EpidemicParams(beta, delta)
        op = oracle._generator(enumerate_subgraphs(g), beta, delta)
        assert op.symmetric_form() is not None
        with pytest.MonkeyPatch.context() as mp:
            symmetric_route_everywhere(mp)
            refuse_symmetric_route(mp)
            arpack_route = exponential_condition(g, params)[1]
        with pytest.MonkeyPatch.context() as mp:
            symmetric_route_everywhere(mp)
            mp.setattr(spla, "eigs", refuse_call)
            stable, eta = exponential_condition(g, params)
        assert eta == pytest.approx(arpack_route, abs=1e-9)
        assert stable == (eta < 0)
        # the operator in the mode basis is symmetric to rounding: on random
        # pairs at every dimension, row by row when small
        apply = op.symmetric_form()[0]
        rng = np.random.default_rng(n)
        for u, v in rng.standard_normal((3, 2, op.shape[0])):
            su, sv = np.empty_like(u), np.empty_like(v)
            apply(u, su)
            apply(v, sv)
            assert abs(u @ sv - v @ su) <= 1e-13 * np.linalg.norm(u) * np.linalg.norm(sv)
        if op.shape[0] <= 512:
            dense = helpers.reference_exact_generator(g, beta, delta)
            assert eta == pytest.approx(helpers.block_eta(dense), abs=1e-9)
            rows = np.empty((op.shape[0],) * 2)
            for e, row in zip(np.eye(op.shape[0]), rows):
                apply(e, row)
            assert abs(rows - rows.T).max() <= 1e-13 * abs(rows).max()

    def test_root_above_one_is_below_sigma(self, monkeypatch):
        # a block whose Perron root, +0.939, lies above 1: a shift of 1 missed
        # the step budget, and the bound of the all-edges-on contact block
        # (sigma = 2.354) certifies it with ARPACK refused
        edges = {(0, 1): build_edge_markovian(1.0, 0.25), (0, 2): build_edge_markovian(0.125, 0.25),
                 (0, 3): build_edge_markovian(1.0, 0.5)}
        g = DynamicGraphModel(4, AMEI, edges)
        beta, delta = np.array([2.0, 1.0, 0.5, 1.0]), np.array([1.0, 1.0, 1.0, 0.5])
        dense = helpers.reference_exact_generator(g, beta, delta)
        symmetric_route_everywhere(monkeypatch)
        monkeypatch.setattr(spla, "eigs", refuse_call)
        stable, eta = exponential_condition(g, EpidemicParams(beta, delta))
        assert not stable and eta == pytest.approx(helpers.block_eta(dense), abs=1e-9)
        assert eta == pytest.approx(0.9393, abs=1e-4)

    @pytest.mark.parametrize("case", ["amai", "three-state chain", "coxian", "never moves"])
    def test_blocks_that_do_not_qualify_keep_the_arpack_route(self, case, monkeypatch):
        # no symmetric form, whatever the dimension: the eta is the one the
        # ARPACK route gives, bit for bit, and the eigensolver never runs
        pairs = [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]
        if case == "amai":
            g = markov_graph(4, AMAI, pairs + [(1, 0), (3, 2)], q=0.8, r=1.3)
        else:
            other = {"three-state chain": EdgeProcessModel(
                MarkovChainSpec(("a", "b", "c"), "ct",
                                [[-1.0, 1.0, 0.0], [0.0, -2.0, 2.0], [0.5, 0.0, -0.5]]),
                np.array([0, 1, 1])),
                     "coxian": COX3,
                     "never moves": EdgeProcessModel(
                         MarkovChainSpec(("a", "b"), "ct", np.zeros((2, 2))), np.array([0, 1]))}
            edges = helpers.edge_objects(markov_graph(4, AMEI, pairs, q=0.8, r=1.3))
            edges[(0, 2)] = other[case]
            g = DynamicGraphModel(4, AMEI, edges)
        params = EpidemicParams(np.array([0.4, 0.9, 0.6, 0.7]), np.array([1.0, 0.5, 0.8, 0.6]))
        assert oracle._generator(enumerate_subgraphs(g), params.beta,
                                 params.delta).symmetric_form() is None
        parent = exponential_condition(g, params)
        symmetric_route_everywhere(monkeypatch)
        monkeypatch.setattr(spectral, "_ascent", refuse_call)
        assert exponential_condition(g, params) == parent


class TestModeBasis:
    """The symmetric route's kernel against ``helpers.reference_modes``."""

    @staticmethod
    def block(n, m):
        """n nodes, m 2-state edges of heterogeneous rates (the second a chain
        template whose first state is on) and a static-on edge if n > 2."""
        rng = np.random.default_rng([n, m])
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        pick = [pairs[k] for k in rng.choice(len(pairs), size=m + (n > 2), replace=False)]
        edges = {key: build_edge_markovian(*rng.uniform(0.1, 3.0, 2)) for key in pick[:m]}
        if m > 1:
            edges[pick[1]] = two_state_chain_edge(*rng.uniform(0.1, 3.0, 2), True)
        edges.update({key: build_static_edge(True) for key in pick[m:]})
        g = DynamicGraphModel(n, AMEI, edges)
        return g, rng.uniform(0.1, 2.0, n), rng.uniform(0.1, 2.0, n)

    @pytest.mark.parametrize("n, m", [(2, 1), (7, 5), (8, 7)])
    def test_transform_is_the_kronecker_product(self, n, m):
        # one factor of one edge; two factors, the second of one edge; two
        # factors, the second of three: out of place and in place
        g, beta, delta = self.block(n, m)
        op = oracle._generator(enumerate_subgraphs(g), beta, delta)
        u = helpers.reference_modes(g, beta, delta)[0]
        x = np.random.default_rng(1).standard_normal(op.shape[0])
        expected = (u @ x.reshape(-1, n)).ravel()
        factors = oracle._mode_basis(*op.modes[:2], n)[0]
        out = np.empty_like(x)
        assert oracle._transform(factors, x, out) is out
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-13)
        assert oracle._transform(factors, x, x) is x
        np.testing.assert_allclose(x, expected, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n, m", [(2, 1), (7, 5), (8, 7)])
    def test_form_matches_the_dense_reference(self, n, m):
        # apply is (U (x) I) diag(s)^-1 M diag(s) (U (x) I), which keeps x;
        # precondition is (sigma - Lambda (x) I)^-1 with sigma above eta; into
        # and back are (U (x) I) diag(s)^-1 and its inverse
        g, beta, delta = self.block(n, m)
        op = oracle._generator(enumerate_subgraphs(g), beta, delta)
        apply, precondition, into, back = op.symmetric_form()
        u, lam, s, sigma = helpers.reference_modes(g, beta, delta)
        v = np.kron(u, np.eye(n))
        dense = helpers.reference_exact_generator(g, beta, delta)
        rng = np.random.default_rng(2)
        x = rng.standard_normal(op.shape[0])
        kept, out = x.copy(), np.empty_like(x)
        apply(x, out)
        np.testing.assert_array_equal(x, kept)
        np.testing.assert_allclose(out, v @ (dense @ (s * (v @ x)) / s), rtol=0,
                                   atol=1e-12 * np.abs(dense).max())
        r = rng.standard_normal(op.shape[0])
        expected = r / (sigma - np.repeat(lam, n))
        precondition(r)
        np.testing.assert_allclose(r, expected, rtol=1e-14, atol=0)
        assert sigma > helpers.block_eta(dense) and sigma > 0
        mapped = into(kept)
        np.testing.assert_allclose(mapped, v @ (kept / s), rtol=0, atol=1e-12)
        assert back(mapped) is mapped
        np.testing.assert_allclose(mapped, kept, rtol=0, atol=1e-12)

    def test_long_block_against_edge_by_edge_products(self):
        # N = 24,576 > _BLOCK_ROWS: _transform's slabs along the outer axis
        # and along a block longer than a slab, and apply's spans of the
        # contact, against the edges' 2 x 2 bases applied one axis at a time
        # and M's own matvec
        n = 6
        g, beta, delta = self.block(n, 12)
        op = oracle._generator(enumerate_subgraphs(g), beta, delta)
        assert op.shape[0] > oracle._BLOCK_ROWS
        bases, rates = helpers.reference_edge_bases(g)
        x = np.random.default_rng(3).standard_normal(op.shape[0])
        expected = helpers.reference_transform(bases, x, n)
        factors = oracle._mode_basis(*op.modes[:2], n)[0]
        out = oracle._transform(factors, x, np.empty_like(x))
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(oracle._transform(factors, x.copy(), out), expected,
                                   rtol=0, atol=1e-12)
        pi = np.ones(1)
        for q, r in rates:
            pi = np.kron(np.array([r, q]) / (q + r), pi)
        s = np.kron(1.0 / np.sqrt(pi), np.sqrt(beta))
        apply = op.symmetric_form()[0]
        apply(x, out)
        expected = helpers.reference_transform(bases, op @ (s * expected) / s, n)
        np.testing.assert_allclose(out, expected, rtol=0,
                                   atol=1e-12 * np.abs(expected).max())


def two_state_chain_edge(a, b, on_first):
    """A 2-state chain template (not a MARKOV2 row): state 0 -> 1 at a, 1 -> 0 at b."""
    chain = MarkovChainSpec(("x", "y"), "ct", [[-a, a], [b, -b]])
    return EdgeProcessModel(chain, np.array([1, 0] if on_first else [0, 1]))


COX3 = build_coxian_edge([1.0], [0.5, 1.0], [], [2.0])
COX4 = build_coxian_edge([1.0], [0.5, 2.0], [0.7], [1.0, 0.5])


class TestAggregatedChains:
    """Any CT edge chain: the Kronecker sum over mixed-radix labels."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_mixed_chains_match_dense_kron_reference(self, data):
        n = data.draw(st.integers(2, 5), label="n")
        kind = data.draw(st.sampled_from([AMEI, AMAI]), label="kind")
        pairs = [(i, j) for i in range(n) for j in range(n)
                 if i != j and (kind == AMAI or i < j)]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1,
                                    max_size=6), label="edges")
        rate = st.floats(0.1, 3.0)
        edges, labels = {}, 1
        for key in chosen:
            kind_e = data.draw(st.sampled_from(["markov2", "coxian", "chain", "static"]))
            if kind_e == "markov2":
                edge = build_edge_markovian(data.draw(rate), data.draw(rate))
            elif kind_e == "chain":
                edge = two_state_chain_edge(data.draw(rate), data.draw(rate),
                                            data.draw(st.booleans()))
            elif kind_e == "coxian":
                n_on, n_off = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
                edge = build_coxian_edge(*(data.draw(st.lists(rate, min_size=k, max_size=k))
                                           for k in (n_on - 1, n_on, n_off - 1, n_off)))
            else:
                edge = build_static_edge(True)
            if labels * edge.chain.n_states > 64:  # keep the dense reference small
                edge = build_static_edge(True)
            labels *= edge.chain.n_states
            edges[key] = edge
        g = DynamicGraphModel(n, kind, edges)
        beta = np.array(data.draw(st.lists(st.sampled_from([0.1, 0.5, 1.0, 2.0]),
                                           min_size=n, max_size=n), label="beta"))
        delta = np.array(data.draw(st.lists(st.floats(0.1, 2.0), min_size=n, max_size=n),
                                   label="delta"))
        params = EpidemicParams(beta, delta)
        dense = helpers.reference_exact_generator(g, beta, delta)
        assembled = assemble_exponential_generator(g, params).toarray()
        np.testing.assert_allclose(assembled, dense, rtol=0, atol=1e-13)
        # the operator each block is solved through applies the same matrix
        x = np.random.default_rng(0).standard_normal(assembled.shape[0])
        np.testing.assert_allclose(oracle._generator(enumerate_subgraphs(g), beta, delta) @ x,
                                   assembled @ x, rtol=0, atol=1e-13)
        stable, eta = exponential_condition(g, params)
        assert eta == pytest.approx(helpers.block_eta(dense), abs=1e-9)
        assert stable == (eta < 0)

    def test_edges_that_never_move(self):
        # chains with a zero generator: no label moves, so Pi is all zero and
        # has no entries (the COO assembly raised on an empty rate list)
        frozen = EdgeProcessModel(MarkovChainSpec(("a", "b"), "ct", np.zeros((2, 2))),
                                  np.array([0, 1]))
        g = DynamicGraphModel(3, AMEI, {(0, 1): frozen, (1, 2): frozen})
        assert pi_matrix(enumerate_subgraphs(g)).nnz == 0
        params = EpidemicParams(np.array([0.4, 0.9, 0.6]), np.array([1.0, 0.5, 0.8]))
        dense = helpers.reference_exact_generator(g, params.beta, params.delta)
        np.testing.assert_array_equal(assemble_exponential_generator(g, params).toarray(), dense)
        assert exponential_condition(g, params)[1] == pytest.approx(helpers.block_eta(dense),
                                                                    abs=1e-9)

    def test_dimension_cap_checked_before_any_solve(self, monkeypatch):
        # nodes 0-1: a small block; nodes 2-7: 10 Coxian 4-state edges, so
        # dimension 6 * 4^10 = 6,291,456 under the edge cap but over the other
        def refuse(*args, **kwargs):
            raise RuntimeError("a block was solved before every cap was checked")

        monkeypatch.setattr(oracle, "spectral_abscissa", refuse)
        iu, ju = np.triu_indices(6, k=1)
        edges = {(i + 2, j + 2): COX4 for i, j in list(zip(iu.tolist(), ju.tolist()))[:10]}
        edges[(0, 1)] = build_edge_markovian(1.0, 1.0)
        g = DynamicGraphModel(8, AMEI, edges)
        with pytest.raises(TooManyEdges, match="6291456"):
            exponential_condition(g, EpidemicParams.homogeneous(0.1, 1.0, 8))

    def test_dt_graph_refused(self):
        g = helpers.random_amei_dt(np.random.default_rng(2), 3, p_edge=1.0)
        with pytest.raises(WrongKind):
            exponential_condition(g, EpidemicParams.homogeneous(0.1, 0.5, 3))

    @pytest.mark.parametrize("case", ["path", "triangle", "arcs"])
    def test_hurwitz_coxian_graphs_go_extinct(self, case):
        # criterion 4's extinction check on aggregated edges
        if case == "path":
            g = DynamicGraphModel(4, AMEI, {(0, 1): COX3, (1, 2): COX4, (2, 3): COX3})
            params = EpidemicParams.homogeneous(0.8, 1.0, 4)
        elif case == "triangle":
            g = DynamicGraphModel(3, AMEI, {(0, 1): COX4, (1, 2): build_edge_markovian(1.0, 0.5),
                                            (0, 2): two_state_chain_edge(0.4, 1.2, True)})
            params = EpidemicParams(np.array([0.5, 0.7, 0.6]), np.array([1.0, 0.8, 1.2]))
        else:
            g = DynamicGraphModel(3, AMAI, {(0, 1): COX4, (1, 2): COX3, (2, 0): COX4})
            params = EpidemicParams.homogeneous(1.0, 0.9, 3)
        stable, eta = exponential_condition(g, params)
        assert stable, eta
        t_max = 1000.0 / params.delta_min
        for run in range(100):
            assert simulate_ct_exact(g, params, t_max, seed=run).extinct, run


class TestSamplers:
    def test_all_means_zero_is_deterministic_base(self):
        abar = np.zeros((4, 4))
        delta = np.array([0.3, 0.6, 0.9, 1.2])
        s = RandomMatrixSampler("M1", abar, np.ones(4), delta)
        m = sample_certificate_matrix(s, seed=1)
        np.testing.assert_array_equal(m, -np.diag(delta))

    def test_all_means_one_is_deterministic_support(self):
        abar = 1.0 - np.eye(3)
        beta = np.array([0.4, 0.9, 0.1])
        delta = np.full(3, 0.8)
        s = RandomMatrixSampler("M2", abar, beta, delta)
        m = sample_certificate_matrix(s, seed=2)
        sb = np.sqrt(beta)
        expected = sb[:, None] * (1 - np.eye(3)) * sb[None, :] - np.diag(delta)
        np.testing.assert_allclose(m, expected, atol=1e-14)

    def test_batch_mean_matches_expectation(self):
        # CLT check: empirical mean within 3 binomial sigma entrywise
        abar = 0.5 * (1.0 - np.eye(4))
        s = RandomMatrixSampler("M2", abar, np.full(4, 0.7), np.full(4, 1.0))
        rng = np.random.default_rng(9)
        draws = 100_000
        mean = s.sample_batch(rng, draws).mean(axis=0)
        w = np.sqrt(0.7 * 0.7)
        sigma = w * 0.5 / np.sqrt(draws)
        np.testing.assert_array_less(np.abs(mean - s.expectation()), 3.5 * sigma + 1e-12)

    def test_m1_samples_metzler_m2_symmetric(self, rng):
        abar1 = rng.uniform(0, 1, (5, 5))
        np.fill_diagonal(abar1, 0.0)
        s1 = RandomMatrixSampler("M1", abar1, rng.uniform(0.1, 1, 5), rng.uniform(0.1, 1, 5))
        m1 = sample_certificate_matrix(s1, seed=3)
        off = m1[~np.eye(5, dtype=bool)]
        assert off.min() >= 0
        abar2 = 0.5 * (abar1 + abar1.T)
        np.fill_diagonal(abar2, 0.0)
        s2 = RandomMatrixSampler("M2", abar2, np.full(5, 0.5), np.full(5, 0.9))
        m2 = sample_certificate_matrix(s2, seed=4)
        np.testing.assert_array_equal(m2, m2.T)

    @pytest.mark.parametrize("which", ["M1", "M2", "M3", "M4"])
    @pytest.mark.parametrize("lead", [(), (6,), (3, 4)], ids=["single", "batch", "3x4"])
    def test_from_bits_matches_fancy_index_reference(self, which, lead):
        rng = np.random.default_rng(11)
        n = 6
        abar = np.where(rng.random((n, n)) < 0.2, 1.0, rng.uniform(0.0, 1.0, (n, n)))
        abar[rng.random((n, n)) < 0.2] = 0.0
        if which != "M1":
            abar = np.triu(abar, 1) + np.triu(abar, 1).T
        np.fill_diagonal(abar, 0.0)
        s = RandomMatrixSampler(which, abar, rng.uniform(0.1, 1.0, n),
                                rng.uniform(0.5, 1.0 if which == "M4" else 1.5, n))
        assert s.n_random_pairs > 0
        bits = (rng.random(lead + (s.n_random_pairs,)) < 0.5).astype(float)
        out = s.from_bits(bits)
        assert out.shape == lead + (n, n) and out.flags.c_contiguous
        assert np.array_equal(out, helpers.reference_from_bits(s, bits))
        h = np.random.default_rng(5).random((7, s.n_random_pairs)) < s._rp
        assert np.array_equal(s.sample_batch(np.random.default_rng(5), 7),
                              helpers.reference_from_bits(s, h))

    @pytest.mark.parametrize("which", ["M1", "M2"])
    def test_from_bits_without_random_pairs(self, which):
        abar = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        s = RandomMatrixSampler(which, abar, np.array([0.2, 0.5, 0.7]), np.full(3, 0.9))
        assert s.n_random_pairs == 0
        bits = np.zeros((3, 4, 0))
        out = s.from_bits(bits)
        assert out.shape == (3, 4, 3, 3)
        assert np.array_equal(out, helpers.reference_from_bits(s, bits))

    @pytest.mark.parametrize("which", ["M1", "M2", "M3", "M4"])
    @pytest.mark.parametrize("random_pairs", [True, False], ids=["random", "deterministic"])
    def test_expectation_is_from_bits_of_the_means(self, which, random_pairs):
        rng = np.random.default_rng(13)
        n = 5
        abar = np.where(rng.random((n, n)) < 0.3, 1.0, rng.uniform(0.0, 1.0, (n, n)))
        if not random_pairs:
            abar = np.round(abar)
        if which != "M1":
            abar = np.triu(abar, 1) + np.triu(abar, 1).T
        np.fill_diagonal(abar, 0.0)
        s = RandomMatrixSampler(which, abar, rng.uniform(0.1, 1.0, n),
                                rng.uniform(0.5, 1.0 if which == "M4" else 1.5, n))
        assert (s.n_random_pairs > 0) == random_pairs
        assert np.array_equal(s.expectation(), helpers.reference_from_bits(s, s._rp))

    def test_m4_refuses_discrete_time_rates_above_one(self):
        # M4 is T4's discrete-time family: delta = 3 gave E[log eta(M4)] = NaN
        mean = mean_matrix(graph_er_iv(10, 0.5, 1))
        for beta, delta in [(0.5, 3.0), (1.5, 0.5)]:
            with pytest.raises(ParamRange):
                RandomMatrixSampler.from_mean("M4", mean, EpidemicParams.homogeneous(beta, delta, 10))
        RandomMatrixSampler.from_mean("M2", mean, EpidemicParams.homogeneous(0.5, 3.0, 10))

    def test_m4_nonnegative_when_delta_below_one(self, rng):
        abar = 0.4 * (1.0 - np.eye(4))
        s = RandomMatrixSampler("M4", abar, np.full(4, 0.3), np.full(4, 0.8))
        m = sample_certificate_matrix(s, seed=5)
        assert m.min() >= 0


class TestExpectedCertificate:
    def test_deterministic_sampler_exact(self):
        abar = 1.0 - np.eye(3)
        s = RandomMatrixSampler("M2", abar, np.full(3, 0.2), np.full(3, 1.0))
        est = expected_certificate(s, "exhaustive")
        assert est.stderr == 0.0 and est.count == 1
        expected = float(np.linalg.eigvalsh(0.2 * abar - np.eye(3))[-1])
        assert est.value == pytest.approx(expected, abs=1e-12)

    def test_exhaustive_matches_montecarlo(self):
        abar = 0.5 * (1.0 - np.eye(4))
        s = RandomMatrixSampler("M3", abar, np.ones(4), np.ones(4))
        ex = expected_certificate(s, "exhaustive")
        assert ex.count == 2 ** 6
        mc = expected_certificate(s, "montecarlo", draws=40_000, seed=1)
        assert abs(ex.value - mc.value) <= 3 * mc.stderr

    def test_exhaustive_m1_weighted_sum(self):
        # hand-checkable 2-node arc case: M1 = -D + beta_0 h_01 E_01 (+ mirror)
        abar = np.array([[0.0, 0.3], [0.6, 0.0]])
        beta = np.array([1.0, 2.0])
        delta = np.array([1.0, 1.0])
        s = RandomMatrixSampler("M1", abar, beta, delta)
        est = expected_certificate(s, "exhaustive")
        total = 0.0
        for h01 in (0, 1):
            for h10 in (0, 1):
                m = -np.eye(2).astype(float)
                m[0, 1] = beta[0] * h01
                m[1, 0] = beta[1] * h10
                w = (0.3 if h01 else 0.7) * (0.6 if h10 else 0.4)
                total += w * float(np.linalg.eigvalsh(0.5 * (m + m.T))[-1])
        assert est.value == pytest.approx(total, abs=1e-12)

    def test_m4_log_statistic(self):
        # deterministic M4: exhaustive value equals log eta of the single matrix
        abar = 1.0 - np.eye(3)
        beta, delta = np.full(3, 0.2), np.full(3, 0.5)
        s = RandomMatrixSampler("M4", abar, beta, delta)
        est = expected_certificate(s, "exhaustive")
        m = 0.2 * abar + 0.5 * np.eye(3)
        assert est.value == pytest.approx(np.log(np.linalg.eigvalsh(m)[-1]), abs=1e-12)
        assert est.statistic == "E[log eta(M4)]"

    def test_m4_exhaustive_matches_montecarlo(self):
        abar = 0.4 * (1.0 - np.eye(4))
        s = RandomMatrixSampler("M4", abar, np.full(4, 0.3), np.full(4, 0.7))
        ex = expected_certificate(s, "exhaustive")
        mc = expected_certificate(s, "montecarlo", draws=30_000, seed=8)
        assert abs(ex.value - mc.value) <= 3 * mc.stderr

    def test_configuration_cap(self):
        n = 8
        abar = 0.5 * (1.0 - np.eye(n))  # 28 random pairs > 2^20 configs
        s = RandomMatrixSampler("M2", abar, np.full(n, 0.5), np.full(n, 0.5))
        with pytest.raises(TooManyConfigurations):
            expected_certificate(s, "exhaustive")

    def test_t2_stable_implies_negative_expectation(self):
        # certificate soundness versus the exact expectation it bounds
        from tempest import certify_amei_ct
        checked = 0
        for seed in range(140):
            g = helpers.random_amei_ct(np.random.default_rng(seed), 5, p_edge=0.6)
            if not (1 <= g.m <= 6):
                continue
            mean = mean_matrix(g)
            rs = np.random.default_rng(seed + 1000)
            params = EpidemicParams(rs.uniform(0.05, 0.4, 5), rs.uniform(0.6, 1.4, 5))
            rep = certify_amei_ct(mean, params)
            if not rep.stable:
                continue
            s = RandomMatrixSampler.from_mean("M2", mean, params)
            est = expected_certificate(s, "exhaustive")
            assert est.value < 0.0
            checked += 1
        assert checked >= 30


class TestConcentrationConstants:
    def test_sampler_constants_match_certificate_deltas(self):
        # C and v^2 used for the tail bound must equal the beta bound and the
        # Delta quantities the certificates compute from the same mean matrix.
        import helpers
        from tempest import EpidemicParams, certify_amai_ct, certify_amei_ct, \
            certify_homogeneous
        g_amei = helpers.random_amei_ct(np.random.default_rng(31), 6, p_edge=0.7)
        mean = mean_matrix(g_amei)
        rs = np.random.default_rng(32)
        params = EpidemicParams(rs.uniform(0.1, 0.5, 6), rs.uniform(0.5, 1.2, 6))
        rep2 = certify_amei_ct(mean, params)
        s2 = RandomMatrixSampler.from_mean("M2", mean, params)
        assert s2.variance_proxy() == pytest.approx(rep2.intermediates["Delta2"], abs=1e-14)
        assert s2.bound_c() == params.beta_max

        rep3 = certify_homogeneous(mean, 0.3, 1.0)
        s3 = RandomMatrixSampler.from_mean("M3", mean,
                                           EpidemicParams.homogeneous(0.3, 1.0, 6))
        assert s3.variance_proxy() == pytest.approx(rep3.intermediates["Delta3"], abs=1e-14)
        assert s3.bound_c() == 1.0

        g_amai = helpers.random_amai_ct(np.random.default_rng(33), 5, p_edge=0.6)
        mean1 = mean_matrix(g_amai)
        params1 = EpidemicParams(rs.uniform(0.1, 0.5, 5), rs.uniform(0.5, 1.2, 5))
        rep1 = certify_amai_ct(mean1, params1)
        s1 = RandomMatrixSampler.from_mean("M1", mean1, params1)
        assert s1.variance_proxy() == pytest.approx(rep1.intermediates["Delta1"], abs=1e-14)


class TestChungTailCheck:
    def test_symmetry_required(self):
        abar = np.array([[0.0, 0.3], [0.6, 0.0]])
        s = RandomMatrixSampler("M1", abar, np.ones(2), np.ones(2))
        with pytest.raises(ValueError):
            chung_tail_check(s, [0.0, 1.0], draws=10)

    def test_vacuous_at_zero_and_rare_beyond_bound(self):
        abar = 0.5 * (1.0 - np.eye(6))
        s = RandomMatrixSampler("M2", abar, np.full(6, 0.8), np.full(6, 1.0))
        check = chung_tail_check(s, [0.0, 12.0], draws=5_000, seed=2)
        assert check.bound[0] == pytest.approx(6.0)   # kappa(0) = n, vacuous
        assert check.empirical[0] <= 1.0
        assert check.empirical[1] == 0.0              # far tail never seen

    def test_bound_never_violated_n10(self):
        abar = 0.5 * (1.0 - np.eye(10))
        s = RandomMatrixSampler("M2", abar, np.full(10, 0.6), np.full(10, 1.0))
        grid = np.linspace(0.0, 6.0, 20)
        check = chung_tail_check(s, grid, draws=20_000, seed=3)
        assert (check.empirical <= check.bound + 3 * check.stderr + 1e-12).all()

    @staticmethod
    def _assert_reference_counts(sampler, grid, draws, seed, batch=2048):
        check = chung_tail_check(sampler, grid, draws=draws, seed=seed, batch=batch)
        counts = helpers.reference_tail_counts(sampler, grid, draws, seed, batch=batch)
        assert np.array_equal(check.empirical, counts / draws)
        assert 0 <= check.exact_draws <= draws
        return check

    @pytest.mark.parametrize("which", ["M2", "M3", "M4"])
    def test_counts_equal_all_eigvalsh_reference(self, which):
        rng = np.random.default_rng(21)
        n = 12
        abar = np.triu(rng.uniform(0.05, 0.95, (n, n)), 1)
        abar[np.triu(rng.random((n, n)) < 0.15, 1)] = 1.0
        abar = abar + abar.T
        s = RandomMatrixSampler(which, abar, rng.uniform(0.2, 0.8, n),
                                rng.uniform(0.5, 1.0 if which == "M4" else 1.5, n))
        grid = np.concatenate([[0.0], np.linspace(0.05, 3.0, 12)])
        check = self._assert_reference_counts(s, grid, draws=6_000, seed=4)
        assert check.exact_draws < check.draws // 10   # the screen decides most draws

    @pytest.mark.parametrize("reducible", ["isolated node", "two components"])
    def test_reducible_mean(self, reducible):
        n = 9
        abar = 0.5 * (1.0 - np.eye(n))
        if reducible == "isolated node":
            abar[4, :] = abar[:, 4] = 0.0
        else:
            abar[:6, 6:] = abar[6:, :6] = 0.0
        s = RandomMatrixSampler("M2", abar, np.linspace(0.4, 0.8, n), np.linspace(0.8, 1.2, n))
        grid = np.linspace(0.0, 2.5, 11)
        check = self._assert_reference_counts(s, grid, draws=5_000, seed=8)
        # the Perron vector of the mean has zeros here; the floored start
        # still lets the screen decide most draws
        assert check.exact_draws < check.draws // 4

    def test_thresholds_at_attainable_eigenvalues(self):
        # M3 on the complete 5-node mean 1/2: eta(E[X]) = 2 and the draws'
        # eta are adjacency eigenvalues of graphs on 5 nodes, so many draws
        # sit exactly on s = 0 and on thresholds placed at their eigenvalues
        n = 5
        s = RandomMatrixSampler("M3", 0.5 * (1.0 - np.eye(n)), np.ones(n), np.ones(n))
        configs = (np.arange(2 ** s.n_random_pairs)[:, None] >> np.arange(s.n_random_pairs)) & 1
        etas, freq = np.unique(np.linalg.eigvalsh(s.from_bits(configs))[:, -1],
                               return_counts=True)
        eta_mean = float(np.linalg.eigvalsh(s.expectation())[-1])
        above = etas >= eta_mean
        etas, freq = etas[above], freq[above]
        grid = [0.0]
        for eta in etas[np.argsort(freq)[-6:]]:
            step = eta - eta_mean
            while eta_mean + step != eta:
                step = np.nextafter(step, np.inf if eta_mean + step < eta else -np.inf)
            grid += [max(np.nextafter(step, -np.inf), 0.0), step, np.nextafter(step, np.inf)]
        check = self._assert_reference_counts(s, grid, draws=4_000, seed=5)
        assert check.exact_draws > 0

    @pytest.mark.parametrize("which", ["M2", "M3", "M4"])
    def test_deterministic_draws_all_go_to_eigvalsh(self, which):
        # every draw equals E[X]: at s = 0 the brackets straddle the
        # threshold within rounding error, no draw may be decided, and the
        # strict > counts none of them
        for seed in range(8):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(3, 9))
            abar = np.triu((rng.random((n, n)) < 0.6).astype(float), 1)
            s = RandomMatrixSampler(which, abar + abar.T, rng.uniform(0.2, 1.0, n),
                                    rng.uniform(0.5, 1.0 if which == "M4" else 1.5, n))
            check = self._assert_reference_counts(s, [0.0], draws=50, seed=1)
            assert check.exact_draws == 50 and check.empirical[0] == 0.0

    @pytest.mark.parametrize("draws, batch", [(1_000, 300), (100, 2048)])
    def test_partial_batches(self, draws, batch):
        abar = 0.5 * (1.0 - np.eye(8))
        s = RandomMatrixSampler("M4", abar, np.full(8, 0.4), np.full(8, 0.9))
        self._assert_reference_counts(s, np.linspace(0.0, 2.0, 9), draws=draws, seed=6,
                                      batch=batch)
