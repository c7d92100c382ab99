import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempest import AMEI, DynamicGraphModel, EdgeProcessModel, MarkovChainSpec, \
    mean_matrix, sample_graph_path, simulate_ct_exact, stationary_distribution
from tempest.errors import ReducibleChain


def two_state_ct(q, r):
    return MarkovChainSpec(("off", "on"), "ct", [[-q, q], [r, -r]])


class TestStationaryDistribution:
    def test_two_state_closed_form(self):
        # activation q, de-activation r: pi = (r/(q+r), q/(q+r))
        q, r = 2.0, 0.5
        pi = stationary_distribution(two_state_ct(q, r))
        np.testing.assert_allclose(pi, [r / (q + r), q / (q + r)], atol=1e-12)

    def test_single_state(self):
        chain = MarkovChainSpec(("only",), "ct", [[0.0]])
        np.testing.assert_array_equal(stationary_distribution(chain), [1.0])

    def test_coxian_four_state_vs_nullspace_oracle(self):
        # 2 on-states, 2 off-states; rates p1=.7 q1=.3 q2=1.1 r1=.4 s1=.9 s2=.6.
        # Expected values frozen from an SVD null-space solve of Q^T
        # (exact rationals 429/1252, 273/1252, 330/1252, 220/1252).
        q = np.array([
            [-1.0, 0.7, 0.3, 0.0],
            [0.0, -1.1, 1.1, 0.0],
            [0.9, 0.0, -1.3, 0.4],
            [0.6, 0.0, 0.0, -0.6],
        ])
        chain = MarkovChainSpec(("c1", "c2", "d1", "d2"), "ct", q)
        pi = stationary_distribution(chain)
        expected = np.array([429, 273, 330, 220]) / 1252
        np.testing.assert_allclose(pi, expected, atol=1e-12)

    def test_dt_fixed_point(self):
        p = np.array([[0.7, 0.3], [0.4, 0.6]])
        chain = MarkovChainSpec(("a", "b"), "dt", p)
        pi = stationary_distribution(chain)
        np.testing.assert_allclose(pi @ p, pi, atol=1e-12)
        np.testing.assert_allclose(pi.sum(), 1.0)

    def test_reducible_raises(self):
        q = np.array([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(ReducibleChain):
            stationary_distribution(MarkovChainSpec(("a", "b", "c"), "ct", q))

    def test_absorbing_dt_reducible(self):
        p = np.array([[1.0, 0.0], [0.5, 0.5]])
        with pytest.raises(ReducibleChain):
            stationary_distribution(MarkovChainSpec(("a", "b"), "dt", p))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 10_000))
    def test_random_ct_chain_residual(self, k, seed):
        rs = np.random.default_rng(seed)
        q = rs.uniform(0.1, 2.0, (k, k))          # dense positive rates: irreducible
        np.fill_diagonal(q, 0.0)
        np.fill_diagonal(q, -q.sum(axis=1))
        pi = stationary_distribution(MarkovChainSpec(tuple(map(str, range(k))), "ct", q))
        assert pi.min() >= 0
        np.testing.assert_allclose(pi.sum(), 1.0, atol=1e-12)
        assert np.abs(pi @ q).max() <= 1e-10 * max(1.0, np.abs(q).max())


class TestChainValidation:
    def test_ct_rows_must_sum_to_zero(self):
        with pytest.raises(ValueError):
            MarkovChainSpec(("a", "b"), "ct", [[-1.0, 0.9], [1.0, -1.0]])

    def test_ct_negative_off_diagonal(self):
        with pytest.raises(ValueError):
            MarkovChainSpec(("a", "b"), "ct", [[0.5, -0.5], [1.0, -1.0]])

    def test_dt_rows_must_sum_to_one(self):
        with pytest.raises(ValueError):
            MarkovChainSpec(("a", "b"), "dt", [[0.5, 0.4], [0.2, 0.8]])

    def test_unknown_time_base(self):
        with pytest.raises(ValueError):
            MarkovChainSpec(("a",), "weekly", [[0.0]])


class TestPeriodicity:
    """Periodicity as ``mean_matrix`` records it, on one-edge DT graphs."""

    @staticmethod
    def periodic_edge(p, output):
        chain = MarkovChainSpec(tuple("abc")[:len(output)], "dt", p)
        g = DynamicGraphModel(2, AMEI, {(0, 1): EdgeProcessModel(chain, np.array(output))})
        return mean_matrix(g).periodic_edge

    def test_alternating_chain_has_period_two(self):
        assert self.periodic_edge([[0.0, 1.0], [1.0, 0.0]], [0, 1]) == (0, 1)

    def test_lazy_chain_is_aperiodic(self):
        assert self.periodic_edge([[0.5, 0.5], [0.9, 0.1]], [0, 1]) is None

    def test_three_cycle_period(self):
        assert self.periodic_edge(np.roll(np.eye(3), 1, axis=1), [1, 0, 0]) == (0, 1)


class TestPathSampling:
    """Chains sampled as the edges of a graph path: edge (0, s + 1) is on
    exactly when its chain is in state s, so the path shows every state."""

    @staticmethod
    def state_edges(chain):
        k = chain.n_states
        return DynamicGraphModel(k + 1, AMEI, {(0, s + 1): EdgeProcessModel(chain, np.eye(k)[s])
                                               for s in range(k)})

    def test_dt_occupancy_matches_stationary(self):
        # ergodicity: 1e6-step empirical occupancy within 1% total variation
        p = np.array([[0.2, 0.5, 0.3], [0.1, 0.6, 0.3], [0.4, 0.4, 0.2]])
        chain = MarkovChainSpec(("a", "b", "c"), "dt", p)
        pi = stationary_distribution(chain)
        g = self.state_edges(chain)
        # each edge follows its own independent copy of the chain
        occ = sum(sample_graph_path(g, steps=200_000, seed=seed).adjacency[:, 0, 1:].sum(axis=0)
                  for seed in range(5)) / 1_000_000
        assert 0.5 * np.abs(occ - pi).sum() < 0.01

    def test_ct_occupancy_matches_stationary(self):
        q, r = 1.3, 0.6
        chain = two_state_ct(q, r)
        pi = stationary_distribution(chain)
        horizon = 50_000.0
        path = sample_graph_path(DynamicGraphModel(2, AMEI, {(0, 1): EdgeProcessModel(
            chain, np.array([0, 1]))}), horizon=horizon, seed=8)
        on = (np.diff(path.times) * path.adjacency[:, 0, 1]).sum() / horizon
        occ = np.array([1 - on, on])
        assert 0.5 * np.abs(occ - pi).sum() < 0.01

    def test_ct_absorbing_state_stays(self):
        # a reducible chain with a declared initial state samples and simulates
        q = np.array([[-1.0, 1.0], [0.0, 0.0]])
        chain = MarkovChainSpec(("a", "b"), "ct", q, initial_state="a")
        g = DynamicGraphModel(2, AMEI, {(0, 1): EdgeProcessModel(chain, np.array([0, 1]))})
        path = sample_graph_path(g, horizon=100.0, seed=0)
        assert path.adjacency[:, 0, 1].tolist() == [0, 1] and len(path.times) == 3
        trace = simulate_ct_exact(g, (0.5, 1.0), 100.0, init_infected=[0], seed=0)
        assert trace.times[-1] < 100.0 and trace.extinct
