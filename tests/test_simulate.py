import gc
import os
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

import helpers
from tempest import (
    AMAI,
    AMEI,
    DynamicGraphModel,
    EpidemicParams,
    build_coxian_edge,
    build_edge_markovian,
    build_static_edge,
    certify_amei_ct,
    decay_rate_estimate,
    empirical_threshold,
    graph_complete_edge_markovian,
    graph_er_iv,
    mean_matrix,
    propagate_linear,
    sample_graph_path,
    simulate_ct_exact,
    simulate_dt_exact,
)
from tempest import rng as rngmod
from tempest import simulate
from tempest.errors import InsufficientData, ParamRange


def static_complete(n, time="ct"):
    edges = {(i, j): build_static_edge(True, time) for i in range(n) for j in range(i + 1, n)}
    return DynamicGraphModel(n, AMEI, edges)


class TestcontinuousTimeSimulation:
    def test_zero_infection_rate_is_pure_death(self):
        g = graph_complete_edge_markovian(6, 1.0, 1.0)
        trace = simulate_ct_exact(g, (np.zeros(6), np.ones(6)), horizon=200.0, seed=1)
        assert (np.diff(trace.infected_counts) <= 0).all()
        assert trace.extinct

    def test_zero_recovery_reaches_everyone(self):
        g = static_complete(7)
        trace = simulate_ct_exact(g, (np.full(7, 2.0), np.zeros(7)),
                                  horizon=500.0, init_infected=[0], seed=2)
        assert (np.diff(trace.infected_counts) >= 0).all()
        assert trace.final_count == 7

    def test_event_times_strictly_increasing(self):
        g = graph_complete_edge_markovian(5, 0.8, 1.2)
        trace = simulate_ct_exact(g, (np.full(5, 0.5), np.full(5, 1.0)), horizon=50.0, seed=3)
        assert (np.diff(trace.times) > 0).all()
        assert len(trace.times) < 100_000  # a.s. finite event count on [0, T]

    def test_certified_instance_goes_extinct(self):
        # 6-node instance certified stable by the edge-independent certificate
        g = graph_complete_edge_markovian(6, 1.0, 1.0)
        params = EpidemicParams.homogeneous(0.05, 1.0, 6)
        assert certify_amei_ct(mean_matrix(g), params).stable
        extinct = sum(
            simulate_ct_exact(g, params, horizon=200.0, seed=s).extinct
            for s in range(500))
        assert extinct / 500 >= 0.99

    def test_reproducible(self):
        g = graph_complete_edge_markovian(5, 1.0, 0.7)
        a = simulate_ct_exact(g, (np.full(5, 0.4), np.full(5, 1.0)), 30.0, seed=11)
        b = simulate_ct_exact(g, (np.full(5, 0.4), np.full(5, 1.0)), 30.0, seed=11)
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.infected_counts, b.infected_counts)

    def test_conservation_against_recorded_states(self):
        g = graph_complete_edge_markovian(5, 1.0, 1.0)
        trace = simulate_ct_exact(g, (np.full(5, 0.5), np.full(5, 0.8)), 20.0,
                                  seed=4, record_states=True)
        np.testing.assert_array_equal(trace.states.sum(axis=1), trace.infected_counts)

    def test_epidemic_params_accepted(self):
        g = graph_complete_edge_markovian(4, 1.0, 1.0)
        params = EpidemicParams.homogeneous(0.1, 1.0, 4)
        trace = simulate_ct_exact(g, params, 10.0, seed=5)
        assert trace.times[0] == 0.0

    def test_aggregated_coxian_edge_against_joint_chain_oracle(self):
        # Aggregated (4-state Coxian) edge in the exact joint simulation.
        # Node 0 never recovers, so only (edge chain state, X_1) evolves: an
        # 8-state CTMC whose stationary occupancy of {X_1 = 1} is solved
        # densely here and compared with the simulated time average.
        from tempest import build_coxian_edge
        from tempest.markov import MarkovChainSpec, stationary_distribution
        cox = build_coxian_edge([0.7], [0.3, 1.1], [0.4], [0.9, 0.6])
        g = DynamicGraphModel(2, AMEI, {(0, 1): cox})
        beta1, delta1 = 0.8, 1.0
        q_edge = cox.chain.matrix
        k = 4
        joint = np.zeros((2 * k, 2 * k))  # index = x1 * k + chain_state
        for x1 in (0, 1):
            for a in range(k):
                for b in range(k):
                    if a != b:
                        joint[x1 * k + a, x1 * k + b] = q_edge[a, b]
        for c in range(k):
            if cox.output[c]:
                joint[c, k + c] = beta1           # infection while edge on
            joint[k + c, c] = delta1              # recovery
        np.fill_diagonal(joint, -joint.sum(axis=1))
        pi = stationary_distribution(
            MarkovChainSpec(tuple(map(str, range(2 * k))), "ct", joint))
        expected = pi[k:].sum()

        horizon = 8000.0
        trace = simulate_ct_exact(g, (np.array([0.0, beta1]), np.array([0.0, delta1])),
                                  horizon, init_infected=[0], seed=6, record_states=True)
        x1 = trace.states[:, 1].astype(float)
        spans = np.diff(np.append(trace.times, horizon))
        occupancy = float((spans * x1).sum() / horizon)
        assert occupancy == pytest.approx(expected, abs=0.02)


def _ks_case(name):
    """A graph, its rates and a horizon at which runs both die out and last."""
    if name == "amei two-state":
        return graph_complete_edge_markovian(5, 0.8, 1.2), (0.6, 1.0), 4.0
    if name == "amai coxian":
        cox = build_coxian_edge([0.7], [0.3, 1.1], [0.4], [0.9, 0.6])
        g = DynamicGraphModel(4, AMAI, {(0, 1): cox, (1, 0): cox, (1, 2): cox, (2, 3): cox,
                                        (3, 0): build_edge_markovian(0.5, 0.9),
                                        (2, 0): build_static_edge(True)})
        return g, (1.1, 0.9), 5.0
    g = DynamicGraphModel(5, AMEI, {
        (0, 1): build_edge_markovian(0.4, 1.3), (0, 2): build_static_edge(True),
        (1, 2): build_coxian_edge([1.0], [0.5, 2.0], [0.7], [1.0, 0.5]),
        (2, 3): build_edge_markovian(1.5, 0.5), (3, 4): build_edge_markovian(0.9, 0.9),
        (1, 4): build_static_edge(False)})
    return g, EpidemicParams(np.array([0.9, 0.5, 1.3, 0.7, 1.1]),
                             np.array([1.2, 0.6, 1.0, 0.8, 1.5])), 4.0


def _extinction_time(trace, horizon):
    """When the run died out, or the horizon if it did not."""
    return float(trace.times[-1]) if trace.extinct else horizon


class TestContinuousTimeKernel:
    """The event-driven kernel against the Gillespie reference in helpers."""

    @pytest.mark.parametrize("case", ["amei two-state", "amai coxian", "heterogeneous"])
    def test_matches_reference_in_distribution(self, case):
        # two-sample KS on the extinction time (censored at the horizon) and
        # the infected count at the horizon; kernel seeds 0-399, reference
        # seeds 10,000-10,399, fixed in advance
        g, params, horizon = _ks_case(case)
        new = [simulate_ct_exact(g, params, horizon, seed=s) for s in range(400)]
        ref = [helpers.reference_simulate_ct_exact(g, params, horizon, seed=10_000 + s)
               for s in range(400)]
        for stat in (lambda tr: _extinction_time(tr, horizon), lambda tr: tr.final_count):
            a, b = [stat(tr) for tr in new], [stat(tr) for tr in ref]
            assert len(set(a)) > 1 and len(set(b)) > 1
            assert scipy.stats.ks_2samp(a, b, method="asymp").pvalue > 1e-3

    def test_two_node_extinction_probability(self):
        # 4,000 runs (seeds 0-3,999) against the 8-state joint chain
        q, r, beta, delta, t = 0.6, 1.4, 1.5, 0.8, 2.0
        g = DynamicGraphModel(2, AMEI, {(0, 1): build_edge_markovian(q, r)})
        runs = 4000
        freq = np.mean([simulate_ct_exact(g, (beta, delta), t, seed=s).extinct
                        for s in range(runs)])
        exact = helpers.pair_extinction_probability(q, r, beta, delta, t)
        assert abs(freq - exact) <= 4 * np.sqrt(exact * (1 - exact) / runs)

    def test_edge_events_count_the_jumps(self):
        # with no epidemic events, a 2-state edge leaving both states at rate 1
        # jumps as a Poisson process: 50 jumps expected on [0, 50]
        g = DynamicGraphModel(2, AMEI, {(0, 1): build_edge_markovian(1.0, 1.0)})
        jumps = [simulate_ct_exact(g, (0.0, 0.0), 50.0, seed=s).edge_events for s in range(200)]
        assert abs(np.mean(jumps) - 50.0) <= 4 * np.sqrt(50.0 / 200)
        assert simulate_ct_exact(static_complete(4), (0.5, 1.0), 5.0, seed=1).edge_events == 0
        dt = simulate_dt_exact(graph_er_iv(10, 0.5, 1), (0.1, 0.5), 5, seed=1)
        assert dt.edge_events == 0

    def test_int_seed_draws_the_tagged_stream(self):
        # an int seed is the stream (seed, TAG_CT); a Generator is used as given
        g = graph_complete_edge_markovian(5, 0.8, 1.2)
        a = simulate_ct_exact(g, (0.6, 1.0), 4.0, seed=7)
        b = simulate_ct_exact(g, (0.6, 1.0), 4.0, seed=rngmod.generator(7, rngmod.TAG_CT))
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.infected_counts, b.infected_counts)
        assert a.seed == b.seed == 7

    @pytest.mark.parametrize("horizon", [np.nan, np.inf, 0.0, -1.0])
    def test_horizon_must_be_positive_and_finite(self, horizon):
        # a NaN or infinite horizon never ended a run on an endemic graph, nor
        # the CT walk of sample_graph_path
        g = graph_complete_edge_markovian(4, 1.0, 1.0)
        with pytest.raises(ValueError, match="horizon"):
            simulate_ct_exact(g, (0.5, 1.0), horizon)
        with pytest.raises(ValueError, match="horizon"):
            sample_graph_path(g, horizon=horizon)
        with pytest.raises(ValueError, match="horizon"):
            sample_graph_path(graph_er_iv(6, 0.5, 1), steps=horizon)


class TestDiscreteTimeSimulation:
    def test_reinfection_keeps_one_alive_without_spread(self):
        g = helpers.random_amei_dt(np.random.default_rng(1), 6)
        trace = simulate_dt_exact(g, (np.zeros(6), np.full(6, 0.9)), steps=60,
                                  init_infected=[2], reinfect=True, seed=5)
        # after the first extinction event the count sits at exactly 1
        assert trace.infected_counts.min() >= 1
        assert (trace.infected_counts[10:] == 1).all()
        assert trace.reinfections > 0

    def test_immediate_extinction_without_reinfection(self):
        g = helpers.random_amei_dt(np.random.default_rng(2), 4)
        trace = simulate_dt_exact(g, (np.zeros(4), np.ones(4)), steps=3,
                                  init_infected=[1], seed=6)
        assert trace.infected_counts.tolist() == [1, 0, 0, 0]

    def test_probability_range_enforced(self):
        g = helpers.random_amei_dt(np.random.default_rng(3), 4)
        with pytest.raises(ParamRange):
            simulate_dt_exact(g, (np.full(4, 1.5), np.full(4, 0.5)), steps=5, seed=0)

    @pytest.mark.parametrize("init", [[], [-1], [10], [1.5], ["a"], [True]])
    def test_initial_ids_must_be_nodes(self, init):
        # a negative id used to wrap around and infect the last node
        with pytest.raises(ValueError, match="init_infected"):
            simulate_dt_exact(graph_er_iv(10, 0.5, 1), (0.1, 0.5), 3, init_infected=init)
        with pytest.raises(ValueError, match="init_infected"):
            simulate_ct_exact(static_complete(10), (0.1, 0.5), 1.0, init_infected=init)

    def test_reproducible_and_conserving(self):
        g = helpers.random_amei_dt(np.random.default_rng(4), 8, p_edge=0.7)
        args = dict(steps=40, init_infected="all", reinfect=True, seed=9)
        a = simulate_dt_exact(g, (np.full(8, 0.3), np.full(8, 0.4)), record_states=True, **args)
        b = simulate_dt_exact(g, (np.full(8, 0.3), np.full(8, 0.4)), **args)
        np.testing.assert_array_equal(a.infected_counts, b.infected_counts)
        np.testing.assert_array_equal(a.states.sum(axis=1), a.infected_counts)

    def test_general_chain_path_mode(self):
        # a 3-state aggregated DT edge forces the sampled-path fallback
        p = np.array([[0.2, 0.8, 0.0], [0.1, 0.4, 0.5], [0.6, 0.0, 0.4]])
        from tempest import EdgeProcessModel, MarkovChainSpec
        edge = EdgeProcessModel(MarkovChainSpec(("a", "b", "c"), "dt", p), np.array([0, 1, 1]))
        g = DynamicGraphModel(3, AMEI, {(0, 1): edge, (1, 2): build_edge_markovian(0.4, 0.3, "dt")})
        trace = simulate_dt_exact(g, (np.full(3, 0.5), np.full(3, 0.5)), steps=25, seed=12)
        assert trace.infected_counts.shape == (26,)


class TestRateRefusals:
    """simulate._rates refuses NaN, infinite and negative rates before any
    draw; a zero rate is a valid simulation input."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.5])
    @pytest.mark.parametrize("slot", [0, 1], ids=["beta", "delta"])
    def test_simulators_refuse_rates_out_of_range(self, slot, bad):
        # unrefused, a NaN beta runs a DT epidemic that never infects, and a
        # NaN delta one in which every node recovers at the first step
        rates = [0.3, 0.5]
        rates[slot] = bad
        dt = graph_er_iv(10, 0.5, 1)
        with pytest.raises(ParamRange):
            simulate_dt_exact(dt, tuple(rates), 5, seed=0)
        with pytest.raises(ParamRange):
            simulate_ct_exact(static_complete(4), tuple(rates), 1.0, seed=0)
        with pytest.raises(ParamRange):
            propagate_linear(sample_graph_path(dt, steps=5, seed=0), tuple(rates))
        with pytest.raises(ParamRange):
            propagate_linear(sample_graph_path(static_complete(4), horizon=1.0, seed=0),
                             tuple(rates))


class TestPropagateLinear:
    def test_ct_decoupled_decay(self):
        g = DynamicGraphModel(3, AMEI, {})
        path = sample_graph_path(g, horizon=5.0, seed=0)
        delta = np.array([0.5, 1.0, 2.0])
        traj = propagate_linear(path, (np.zeros(3), delta), p0=np.ones(3))
        expected = np.exp(-delta * 5.0)
        np.testing.assert_allclose(traj.values()[-1], expected, rtol=1e-9)

    def test_dt_decoupled_decay(self):
        g = DynamicGraphModel(2, AMEI, {})
        path = sample_graph_path(g, steps=12, seed=0)
        traj = propagate_linear(path, (np.zeros(2), np.array([0.3, 0.6])))
        np.testing.assert_allclose(traj.values()[-1], [0.7 ** 12, 0.4 ** 12], rtol=1e-12)

    def test_dt_trajectory_pinned(self):
        # the DT recursion p <- (B A(k) + I - D) p with renormalization;
        # values recorded before the CT step became one matrix exponential
        g = helpers.random_amei_dt(np.random.default_rng(17), 5, p_edge=0.7)
        path = sample_graph_path(g, steps=40, seed=33)
        traj = propagate_linear(path, (np.full(5, 0.35), np.full(5, 0.45)))
        assert [x.hex() for x in traj.log_norms[[10, 20, 40]]] == [
            "0x1.6500883e3ef6cp+0", "0x1.4b1f95b6252a3p+1", "0x1.97763bdbb78f8p+2"]
        assert [x.hex() for x in traj.unit_p[-1]] == [
            "0x1.12b9c4f169542p-1", "0x1.c0901e8817395p-3", "0x1.e04629a70c135p-2",
            "0x1.aca61579ecac5p-2", "0x1.0981948a8ce91p-1"]

    def test_single_switch_matches_expm_product(self):
        # one switch at t=1 between two fixed matrices; scaling-and-squaring oracle
        from tempest.graphs import GraphPath
        rng = np.random.default_rng(8)
        a0 = (rng.random((4, 4)) < 0.5).astype(float)
        a1 = (rng.random((4, 4)) < 0.5).astype(float)
        np.fill_diagonal(a0, 0)
        np.fill_diagonal(a1, 0)
        path = GraphPath(np.array([0.0, 1.0, 2.5]), np.stack([a0, a1]), "ct")
        beta, delta = np.full(4, 0.4), np.full(4, 1.1)
        p0 = np.array([1.0, 0.5, 0.25, 1.0])
        oracle = scipy.linalg.expm((np.diag(beta) @ a1 - np.diag(delta)) * 1.5) @ \
            scipy.linalg.expm((np.diag(beta) @ a0 - np.diag(delta)) * 1.0) @ p0
        traj = propagate_linear(path, (beta, delta), p0=p0)
        np.testing.assert_allclose(traj.values()[-1], oracle, rtol=1e-8, atol=1e-12)

    def test_defective_matrix_matches_expm(self):
        # strictly triangular coupling makes beta*A - D non-diagonalizable
        from tempest.graphs import GraphPath
        a = np.zeros((3, 3))
        a[0, 1] = a[1, 2] = 1.0  # nilpotent pattern, defective with -D shift
        path = GraphPath(np.array([0.0, 2.0]), a[None, :, :], "ct")
        beta, delta = np.full(3, 0.5), np.ones(3)
        oracle = scipy.linalg.expm((np.diag(beta) @ a - np.eye(3)) * 2.0) @ np.ones(3)
        traj = propagate_linear(path, (beta, delta), p0=np.ones(3))
        np.testing.assert_allclose(traj.values()[-1], oracle, rtol=1e-9)

    @pytest.mark.parametrize("kind", [AMEI, AMAI])
    @pytest.mark.parametrize("entries", [None, 3 * 16])
    def test_stacked_exponentials_equal_per_segment_steps(self, kind, entries, monkeypatch):
        # one stacked expm call per path (or per chunk of 3 segments) gives
        # every segment the bits of its own call
        if entries:
            monkeypatch.setattr(simulate, "_EXPM_ENTRIES", entries)
        cox = build_coxian_edge([0.6], [0.2, 1.3], [], [0.9])
        edges = {(0, 1): build_edge_markovian(0.7, 0.4), (1, 3): cox,
                 (0, 2): build_static_edge(True), (2, 3): build_edge_markovian(1.1, 0.5)}
        if kind == AMAI:
            edges.update({(1, 0): build_edge_markovian(0.3, 0.8), (3, 2): cox})
        g = DynamicGraphModel(4, kind, edges)
        path = sample_graph_path(g, horizon=12.0, seed=5)
        beta, delta = np.array([0.3, 0.55, 0.8, 0.45]), np.array([1.0, 0.7, 1.2, 0.9])
        traj = propagate_linear(path, (beta, delta))
        logs, units = helpers.reference_segment_propagation(path, beta, delta)
        assert path.adjacency.shape[0] > 20
        np.testing.assert_array_equal(traj.log_norms, logs)
        np.testing.assert_array_equal(traj.unit_p, units)

    def test_random_path_matches_expm_reference(self):
        g = helpers.random_amei_ct(np.random.default_rng(10), 6, p_edge=0.6)
        path = sample_graph_path(g, horizon=8.0, seed=21)
        beta, delta = np.full(6, 0.3), np.full(6, 1.0)
        traj = propagate_linear(path, (beta, delta))
        reference = helpers.reference_linear_propagation(path, beta, delta, np.ones(6))
        assert path.adjacency.shape[0] > 50  # many switches
        np.testing.assert_allclose(traj.log_norms, reference, rtol=0, atol=1e-12)

    def test_nonnegative_along_trajectory(self):
        g = helpers.random_amei_ct(np.random.default_rng(13), 5, p_edge=0.7)
        path = sample_graph_path(g, horizon=12.0, seed=2)
        traj = propagate_linear(path, (np.full(5, 0.5), np.full(5, 0.9)))
        assert traj.values().min() >= -1e-12

    def test_domination_of_exact_chain(self):
        # E[X_i(k)] from the exact chain <= p_i(k) along the same sampled path
        n, steps, runs = 5, 50, 2500
        g = helpers.random_amei_dt(np.random.default_rng(17), n, p_edge=0.7)
        path = sample_graph_path(g, steps=steps, seed=33)
        beta, delta = np.full(n, 0.35), np.full(n, 0.45)
        freq = np.zeros((steps + 1, n))
        for run in range(runs):
            tr = simulate_dt_exact(g, (beta, delta), steps, init_infected="all",
                                   seed=run, edge_path=path, record_states=True)
            freq += tr.states
        freq /= runs
        traj = propagate_linear(path, (beta, delta), p0=np.ones(n))
        p = traj.values()
        se = np.sqrt(freq * (1 - freq) / runs)
        assert (freq <= np.minimum(p, 1.0) + 3 * se + 1e-9).all()


class TestDecayRate:
    def test_requires_twenty_trajectories(self):
        g = DynamicGraphModel(2, AMEI, {})
        path = sample_graph_path(g, horizon=5.0, seed=0)
        trajs = [propagate_linear(path, (np.zeros(2), np.ones(2)))] * 19
        with pytest.raises(InsufficientData):
            decay_rate_estimate(trajs)

    def test_pure_decay_rate_exact(self):
        g = DynamicGraphModel(3, AMEI, {})
        path = sample_graph_path(g, horizon=10.0, seed=0)
        trajs = [propagate_linear(path, (np.zeros(3), np.full(3, 0.8))) for _ in range(20)]
        est = decay_rate_estimate(trajs)
        assert est.rate == pytest.approx(0.8, abs=1e-9)
        assert est.stderr == pytest.approx(0.0, abs=1e-12)

    def test_dt_contraction_rate(self):
        g = DynamicGraphModel(2, AMEI, {})
        path = sample_graph_path(g, steps=40, seed=0)
        trajs = [propagate_linear(path, (np.zeros(2), np.full(2, 0.1))) for _ in range(20)]
        est = decay_rate_estimate(trajs)
        assert est.rate == pytest.approx(-np.log(0.9), abs=1e-9)


class TestEmpiricalThreshold:
    def test_small_instance_and_thread_invariance(self, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        g = tempest_iv_small()
        grid = [0.002, 0.02, 0.2]
        r1 = empirical_threshold(g, 0.3, grid, paths=6, steps=60, seed=5, threads=1)
        r2 = empirical_threshold(g, 0.3, grid, paths=6, steps=60, seed=5, threads=2)
        # the workers' one-thread BLAS settings do not leak into the caller
        assert os.environ["OMP_NUM_THREADS"] == "3" and "MKL_NUM_THREADS" not in os.environ
        np.testing.assert_array_equal(r1.final_counts, r2.final_counts)
        np.testing.assert_array_equal(r1.y_star, r2.y_star)
        assert (r1.y_star >= 1.0).all()  # re-infection keeps one node alive
        np.testing.assert_allclose(r1.z_star, r1.y_star - 1.0)

    def test_beta_star_rule(self):
        g = tempest_iv_small()
        rep = empirical_threshold(g, 0.5, [0.001, 0.3], paths=8, steps=80, seed=9)
        assert rep.z_star[0] < 1.0
        if rep.z_star[1] >= 1.0:
            assert rep.beta_star == 0.001
        else:
            assert rep.beta_star == 0.3

    def test_crossing_stderr_and_bracket(self):
        g = tempest_iv_small()
        rep = empirical_threshold(g, 0.5, [0.001, 0.05, 0.3], paths=8, steps=80, seed=9)
        np.testing.assert_allclose(rep.z_stderr,
                                   rep.final_counts.std(axis=1, ddof=1) / np.sqrt(8))
        assert rep.z_star[1] < 1.0 <= rep.z_star[2]
        assert rep.beta_star == 0.05 and rep.beta_bracket == (0.05, 0.3)
        # no crossing inside the grid: all below, or all at or above, z* = 1
        low = empirical_threshold(g, 0.5, [1e-4, 3e-4], paths=8, steps=80, seed=9)
        assert low.beta_star == 3e-4 and low.beta_bracket is None
        high = empirical_threshold(g, 0.5, [0.3, 0.6], paths=8, steps=80, seed=9)
        assert high.beta_star is None and high.beta_bracket is None
        one = empirical_threshold(g, 0.5, [0.05], paths=1, steps=20, seed=9)
        assert np.isnan(one.z_stderr).all()

    @pytest.mark.parametrize("paths, steps", [(0, 20), (4, 0)])
    def test_empty_protocol_rejected(self, paths, steps):
        # no path or no step has no metastable level to report
        with pytest.raises(ValueError, match="paths >= 1 and steps >= 1"):
            empirical_threshold(tempest_iv_small(), 0.5, [0.05], paths=paths, steps=steps)

    @pytest.mark.parametrize("grid", [[-0.1, 0.1, 2.0], [0.1, np.nan], [0.1, np.inf]])
    def test_grid_outside_the_unit_interval_rejected(self, grid):
        # a negative beta gives negative infection probabilities, and beta > 1
        # a NaN log1p(-beta) lane that never infects
        with pytest.raises(ParamRange, match="beta grid"):
            empirical_threshold(graph_er_iv(10, 0.5, 1), 0.05, grid, paths=2, steps=20)

    @pytest.mark.parametrize("delta", [-0.5, 1.5, np.nan])
    def test_delta_outside_the_unit_interval_rejected(self, delta):
        # delta > 1 recovers every node each step (z* = 0), delta < 0 none
        with pytest.raises(ParamRange, match="delta"):
            empirical_threshold(graph_er_iv(30, 0.3, 1), delta, [0.01, 0.02], paths=2, steps=20)

    def test_one_thread_run_frees_the_graph(self):
        # the one-thread protocol keeps no payload (graph, beta matrix, x0) in
        # a module global after it returns
        g = graph_er_iv(40, 0.2, 1)
        ref = weakref.ref(g)
        empirical_threshold(g, 0.05, [5e-4, 1e-3], paths=2, steps=10, seed=1, threads=1)
        del g
        gc.collect()
        assert ref() is None

    def test_grid_below_certified_threshold_stays_low(self):
        # a beta grid entirely below the certified threshold keeps z* < 0.1
        # (the compensated metastable level only vanishes well inside the
        # certified region; near the conservative threshold it sits at ~0.1)
        from tempest import mean_matrix, threshold_in_beta
        g = tempest_iv_small()
        mean = mean_matrix(g)
        thr = threshold_in_beta(mean, 0.5, "t4", (1e-8, 0.5 / mean.eta_abar() * 2))
        rep = empirical_threshold(g, 0.5, [0.2 * thr, 0.35 * thr, 0.5 * thr],
                                  paths=300, steps=300, seed=31, threads=2)
        assert (rep.z_star < 0.1).all()


def tempest_iv_small():
    from tempest import graph_er_iv
    return graph_er_iv(30, 0.4, seed=123)
