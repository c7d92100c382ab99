import gc
import inspect
import json
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from tempest import (
    AMEI,
    DynamicGraphModel,
    EpidemicParams,
    MeanMatrix,
    ThresholdReport,
    build_edge_markovian,
    build_static_edge,
    certify_amai_ct,
    certify_amei_ct,
    certify_amei_dt,
    certify_homogeneous,
    graph_complete_edge_markovian,
    graph_er_iv,
    graph_small_world,
    matrix_measure,
    mean_matrix,
    threshold_in_beta,
    xi_h_factor,
)
from tempest import thresholds
from tempest.errors import BracketError, DivergenceDetected, NonIrreducible, ParamRange, \
    TempestError, WrongKind
from tempest.thresholds import CERTIFICATES, _jsonable, certify, kappa_params


def homog(beta, delta, n):
    return EpidemicParams.homogeneous(beta, delta, n)


def static_report(a, params, time="ct", kind=AMEI):
    """The registry's static verdict on the adjacency ``a`` taken as a mean matrix."""
    return CERTIFICATES[f"static_{time}"](MeanMatrix(a, kind, time), params)


class TestStaticConditions:
    def test_zero_adjacency_always_stable(self):
        rep = static_report(np.zeros((4, 4)), homog(5.0, 0.01, 4))
        assert rep.stable and rep.lhs == -0.01 and rep.decay_rate_bound == 0.01

    def test_triangle_threshold_boundary(self):
        # eta(K3) = 2, so the homogeneous threshold is beta/delta = 1/2
        a = np.ones((3, 3)) - np.eye(3)
        assert static_report(a, homog(0.4, 1.0, 3)).stable is True
        assert static_report(a, homog(0.6, 1.0, 3)).stable is False

    def test_heterogeneous_hurwitz_route(self):
        # the symmetric similarity (AMEI) and the general abscissa (AMAI, one arc cut)
        params = EpidemicParams(np.array([0.1, 0.2, 0.1]), np.array([1.0, 2.0, 1.5]))
        for kind, cut in ((AMEI, 0.0), ("amai", 1.0)):
            a = np.ones((3, 3)) - np.eye(3)
            a[0, 1] -= cut
            rep = static_report(a, params, kind=kind)
            stable, eta = helpers.static_ct_dense(a, params.beta, params.delta)
            assert rep.stable == stable and rep.threshold - rep.lhs == pytest.approx(-eta)

    def test_static_dt(self):
        a = np.ones((4, 4)) - np.eye(4)
        assert static_report(a, homog(0.01, 0.5, 4), "dt").stable is True
        assert static_report(a, homog(0.4, 0.5, 4), "dt").stable is False


class TestRateRules:
    """EpidemicParams refuses rates that are not finite and positive, and
    _mix refuses discrete-time rates above 1 on behalf of every caller."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -0.5])
    @pytest.mark.parametrize("slot", ["beta", "delta"])
    def test_params_refuse_rates_out_of_range(self, slot, bad):
        # NaN fails every comparison, so a plain "rate <= 0" test lets it through
        rates = {"beta": np.full(3, 0.2), "delta": np.full(3, 0.5)}
        rates[slot][1] = bad
        with pytest.raises(ParamRange):
            EpidemicParams(**rates)
        with pytest.raises(ParamRange):
            homog(*(bad if key == slot else 0.3 for key in ("beta", "delta")), 3)

    def test_shape_mismatch_stays_a_value_error(self):
        with pytest.raises(ValueError, match="equal length"):
            EpidemicParams(np.full(3, 0.2), np.full(2, 0.5))

    @pytest.mark.parametrize("beta, delta", [(1.5, 0.5), (0.1, 1.5)])
    def test_mix_refuses_discrete_time_rates_above_one(self, beta, delta):
        mean = mean_matrix(graph_er_iv(20, 0.3, 1))
        params = homog(beta, delta, 20)
        for kwargs in ({"support": False}, {"support": True, "plus_identity": True},
                       {"support": False, "measure": True}):
            with pytest.raises(ParamRange):
                thresholds._mix(mean, params, **kwargs)
        for cert in ("t4", "static_dt"):
            with pytest.raises(ParamRange):
                certify(mean, cert, beta, delta)
        # continuous time has no upper bound on a rate
        ct = mean_matrix(graph_complete_edge_markovian(5, 1.0, 1.0))
        assert np.isfinite(thresholds._mix(ct, homog(beta, delta, 5), support=False))


class TestCertifyAmaiCt:
    def test_deterministic_routes_to_static(self):
        edges = {(i, j): build_static_edge(True) for i in range(3) for j in range(3) if i != j}
        g = DynamicGraphModel(3, "amai", edges)
        rep = certify_amai_ct(g, homog(0.3, 1.0, 3))
        assert rep.certificate == "STATIC_CT"
        assert rep.stable == (0.3 * 2 - 1.0 < 0)

    def test_empty_graph_stable_with_delta_min_decay(self):
        g = DynamicGraphModel(4, "amai", {})
        rep = certify_amai_ct(g, EpidemicParams(np.full(4, 1.0), np.array([0.7, 1.0, 2.0, 0.9])))
        assert rep.stable and rep.decay_rate_bound == pytest.approx(0.7)

    def test_wrong_kind_rejected(self):
        g = DynamicGraphModel(3, AMEI, {(0, 1): build_edge_markovian(1, 1)})
        with pytest.raises(WrongKind):
            certify_amai_ct(g, homog(0.1, 1.0, 3))

    def test_matches_grid_oracle(self, rng):
        # 10-node random AMAI instance: every reported intermediate must match
        # an independent re-implementation with a 1e7-point grid maximizer.
        g = helpers.random_amai_ct(np.random.default_rng(0), 10, p_edge=0.45)
        mean = mean_matrix(g)
        beta = np.random.default_rng(50).uniform(0.15, 0.5, 10)
        delta = np.random.default_rng(99).uniform(0.8, 1.6, 10)
        params = EpidemicParams(beta, delta)
        rep = certify_amai_ct(mean, params)
        orc = helpers.oracle_certify_amai_ct(mean.a_bar, beta, delta)
        inter = rep.intermediates
        assert inter["Delta1"] == pytest.approx(orc["Delta1"], abs=1e-12)
        assert inter["kappa_inv_1"] == pytest.approx(orc["kappa_inv_1"], abs=1e-10)
        assert inter["c1"] == pytest.approx(orc["c1"], abs=1e-10)
        assert inter["sbar1"] == pytest.approx(orc["sbar1"], abs=1e-10)
        assert rep.lhs == pytest.approx(orc["lhs"], abs=1e-10)
        assert "tau_A" in orc, "oracle found the instance trivially stable; pick another seed"
        assert rep.threshold == pytest.approx(orc["tau_A"], abs=1e-8)
        assert rep.stable == orc["stable"]
        if rep.stable:
            assert rep.decay_rate_bound == pytest.approx(orc["decay"], abs=1e-8)


class TestCertifyAmeiCt:
    def test_deterministic_reduces_to_static(self):
        edges = {(0, 1): build_static_edge(True), (1, 2): build_static_edge(True)}
        g = DynamicGraphModel(3, AMEI, edges)
        rep = certify_amei_ct(g, homog(0.2, 1.0, 3))
        assert rep.certificate == "STATIC_CT"
        eta = float(np.linalg.eigvals(0.2 * mean_matrix(g).a_bar - np.eye(3)).real.max())
        assert rep.stable == (eta < 0)

    def test_support_trivial_when_always_on_graph_is_stable(self):
        # Example-3 graph with very small beta: eta(B sgn - D) < 0
        g = graph_complete_edge_markovian(10, 1.0, 1.0)
        rep = certify_amei_ct(g, homog(0.01, 1.0, 10))
        assert rep.certificate == "SUPPORT_TRIVIAL"
        assert rep.stable and rep.threshold == math.inf
        assert rep.decay_rate_bound == pytest.approx(1.0 - 0.01 * 9)

    def test_matches_grid_oracle(self):
        g = graph_complete_edge_markovian(10, 1.0, 1.0)
        mean = mean_matrix(g)
        beta, delta = np.full(10, 0.16), np.full(10, 1.0)
        rep = certify_amei_ct(mean, EpidemicParams(beta, delta))
        orc = helpers.oracle_certify_amei_ct(mean.a_bar, beta, delta)
        assert "tau_E" in orc, "instance unexpectedly trivial"
        inter = rep.intermediates
        assert inter["Delta2"] == pytest.approx(orc["Delta2"], abs=1e-14)
        assert inter["kappa_inv_1"] == pytest.approx(orc["kappa_inv_1"], abs=1e-10)
        assert inter["c2"] == pytest.approx(orc["c2"], abs=1e-10)
        assert inter["sbar2"] == pytest.approx(orc["sbar2"], abs=1e-10)
        assert rep.threshold == pytest.approx(orc["tau_E"], abs=1e-8)
        assert rep.lhs == pytest.approx(orc["lhs"], abs=1e-10)
        assert rep.stable == orc["stable"]
        if rep.stable:
            assert rep.decay_rate_bound == pytest.approx(orc["decay"], abs=1e-8)

    def test_homogeneous_consistency_with_t3(self):
        # T2 and T3 are both sufficient conditions for the same homogeneous
        # system; they may differ in tightness but each stable verdict must
        # come with a positive decay bound.
        for seed in (3, 8, 21):
            g = helpers.random_amei_ct(np.random.default_rng(seed), 7, p_edge=0.6)
            mean = mean_matrix(g)
            beta, delta = 0.12, 1.0
            r2 = certify_amei_ct(mean, homog(beta, delta, 7))
            r3 = certify_homogeneous(mean, beta, delta)
            for rep in (r2, r3):
                assert rep.stable == (rep.lhs < rep.threshold)
                if rep.stable:
                    assert rep.decay_rate_bound > 0

    @pytest.mark.parametrize("case", [*range(24), "complete r=1", "complete r=5"])
    def test_t3_stable_implies_t2_stable(self, case):
        # at homogeneous rates kappa_{beta, beta^2 Delta3}(beta s) = kappa_{1, Delta3}(s)
        # and sbar2 >= beta sbar3, so T3's interval scaled by beta lies in T2's:
        # T3 stable implies T2 stable, and the searched thresholds agree
        rng = np.random.default_rng(case if isinstance(case, int) else 0)
        if isinstance(case, int):
            graph = helpers.random_amei_ct(rng, int(rng.integers(3, 12)), p_edge=0.6)
        else:  # 30 nodes: T3 also certifies outside its trivial regime
            graph = graph_complete_edge_markovian(30, 1.0, float(case[-1]))
        mean = mean_matrix(graph)
        delta = float(rng.uniform(0.3, 2.5))
        eta = mean.eta_abar()
        bounds = (1e-6 * delta / eta, 2 * delta / eta)
        t2, t3 = (threshold_in_beta(mean, delta, c, bounds) for c in ("t2", "t3"))
        assert t2 == pytest.approx(t3, rel=1e-6)
        for beta in [*np.linspace(*bounds, 30), *(t3 * np.array([0.9, 0.99, 1.0, 1.01]))]:
            if certify(mean, "t3", beta, delta).stable:
                assert certify(mean, "t2", beta, delta).stable, beta

    def test_heterogeneous_matches_grid_oracle(self):
        g = helpers.random_amei_ct(np.random.default_rng(5), 8, p_edge=0.6)
        mean = mean_matrix(g)
        beta = np.random.default_rng(3).uniform(0.08, 0.3, 8)
        delta = np.random.default_rng(4).uniform(0.9, 1.8, 8)
        rep = certify_amei_ct(mean, EpidemicParams(beta, delta))
        orc = helpers.oracle_certify_amei_ct(mean.a_bar, beta, delta)
        if "tau_E" in orc:
            assert rep.threshold == pytest.approx(orc["tau_E"], abs=1e-8)
            assert rep.stable == orc["stable"]
        else:
            assert rep.certificate in ("SUPPORT_TRIVIAL", "T2")


    def test_heterogeneous_abscissas_match_the_symmetric_spectrum(self, monkeypatch):
        # B^1/2 M B^1/2 - D at n = 100 goes through spectral_abscissa's
        # certified route; eigvalsh of the same matrix is the reference
        rng = np.random.default_rng(11)
        mean = mean_matrix(helpers.random_amei_ct(rng, 100, p_edge=0.3))
        beta, delta = rng.uniform(0.05, 0.3, 100), rng.uniform(0.9, 1.8, 100)
        sb = np.sqrt(beta)
        refs = [float(np.linalg.eigvalsh(sb[:, None] * a * sb[None, :] - np.diag(delta))[-1])
                for a in (mean.a_bar, mean.support())]

        def no_eigvalsh(*args, **kwargs):
            raise AssertionError("the heterogeneous abscissa must go through spectral_abscissa")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        rep = certify_amei_ct(mean, EpidemicParams(beta, delta))
        assert rep.certificate == "T2"
        assert rep.lhs == pytest.approx(refs[0], rel=1e-12)
        assert rep.intermediates["eta_Bsgn_minus_D"] == pytest.approx(refs[1], rel=1e-12)


class TestContinuousTimeTemplate:
    """T1 and T2 are one template at scalings a = 2 and a = 1; every report
    equals the two-function code's in tests/helpers.py, in key order too."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_reports_equal_the_reference(self, data):
        kind = data.draw(st.sampled_from(["amai", "amei"]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        n = data.draw(st.integers(2, 24))
        p_edge = data.draw(st.sampled_from([0.9, 0.6, 0.3]))
        static = data.draw(st.sampled_from([0.0, 0.3, 1.0]))  # share of always-on edges
        edges = {}
        for i in range(n):
            for j in range(n):
                if i != j and (kind == "amai" or i < j) and rng.random() < p_edge:
                    edges[(i, j)] = build_static_edge(True) if rng.random() < static else \
                        build_edge_markovian(rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0))
        mean = mean_matrix(DynamicGraphModel(n, kind, edges))
        # beta around delta / eta(sgn Abar): the support graph's own threshold
        # (SUPPORT_TRIVIAL below it) and, just above it, the maximized verdicts
        delta = data.draw(st.floats(0.1, 3.0))
        eta_sgn = mean.eta_support()
        u = data.draw(st.one_of(st.floats(-1.5, 0.6), st.floats(0.0, 0.08)))
        beta = 10 ** u * delta / (eta_sgn if eta_sgn > 0 else 1.0)
        spread = data.draw(st.sampled_from([0.0, 0.02, 0.5]))  # 0: homogeneous rates
        if spread:
            params = EpidemicParams(beta * rng.uniform(1 - spread, 1 + spread, n),
                                    delta * rng.uniform(1 - spread, 1 + spread, n))
        else:
            params = homog(beta, delta, n)
        new, ref = (certify_amai_ct, helpers.reference_certify_amai_ct) if kind == "amai" \
            else (certify_amei_ct, helpers.reference_certify_amei_ct)
        got, expected = new(mean, params), ref(mean, params)
        assert json.dumps(got.to_dict(), sort_keys=True) \
            == json.dumps(expected.to_dict(), sort_keys=True)
        assert list(got.intermediates) == list(expected.intermediates)

    def test_divergence_is_not_a_stable_verdict(self, monkeypatch):
        # eta(sgn Abar) = 5 on K6, so sgn = 0.21 * 5 - 1 = 0.05 >= 0: the T2
        # objective cannot diverge at s0 in exact arithmetic, and a divergence
        # the maximizer reports must not turn into SUPPORT_TRIVIAL, stable
        g = graph_complete_edge_markovian(6, 1.0, 1.0)
        honest = certify_amei_ct(g, homog(0.21, 1.0, 6))
        assert honest.certificate == "T2" and not honest.stable

        def diverging(objective, lo, hi):
            raise DivergenceDetected("objective exceeds the divergence cap near lo")

        monkeypatch.setattr(thresholds, "maximize_on_interval", diverging)
        with pytest.raises(DivergenceDetected):
            certify_amei_ct(g, homog(0.21, 1.0, 6))


class TestCertifyHomogeneous:
    def test_deterministic_classic_threshold(self):
        edges = {(0, 1): build_static_edge(True), (0, 2): build_static_edge(True),
                 (1, 2): build_static_edge(True)}
        g = DynamicGraphModel(3, AMEI, edges)
        rep = certify_homogeneous(g, 0.3, 1.0)
        assert rep.certificate == "STATIC_CT"
        assert rep.threshold == pytest.approx(0.5)  # 1/eta(K3)
        assert rep.stable

    def test_trivial_regime_flag(self):
        g = graph_complete_edge_markovian(6, 1.0, 1.0)
        rep = certify_homogeneous(g, 0.05, 1.0)  # beta/delta < 1/eta(sgn) = 1/5
        assert rep.certificate == "SUPPORT_TRIVIAL"
        assert rep.intermediates["trivial_regime"] is True
        assert rep.decay_rate_bound == pytest.approx(1.0 - 0.05 * 5)

    def test_trivial_regime_at_a_rounded_boundary(self, monkeypatch):
        # 0.8333333333333333 * 3 < 2.5 exactly, though the product rounds to
        # 2.5 and the ratio beta/delta to 1/3: one test must decide the regime,
        # and xi_H = +inf is never read as an empty interval
        mean = mean_matrix(graph_complete_edge_markovian(4, 1.0, 1.0))
        calls, real = [], thresholds.kappa_inv_at_one
        monkeypatch.setattr(thresholds, "kappa_inv_at_one", lambda kp: calls.append(kp) or real(kp))
        rep = certify(mean, "t3", 0.8333333333333333, 2.5)
        assert rep.certificate == "SUPPORT_TRIVIAL" and rep.stable
        assert rep.intermediates["xi_H"] == math.inf
        assert "interval_empty" not in rep.intermediates
        assert rep.decay_rate_bound >= 0.0
        assert len(calls) == 1

    @pytest.mark.parametrize("delta", [0.3, 1.0, 2.5])
    def test_regime_boundary_sweep(self, delta):
        # beta within 2 ulps of delta/eta(sgn) on complete graphs: the report
        # gives the xi_H that xi_h_factor gives, +inf only in the trivial
        # regime, which then holds in exact arithmetic, and -inf only on an
        # empty interval
        for n in range(3, 41):
            mean = mean_matrix(graph_complete_edge_markovian(n, 1.0, 1.0))
            eta = mean.eta_support()
            betas = [delta / (n - 1)]
            for _ in range(2):
                betas = [np.nextafter(betas[0], 0.0), *betas, np.nextafter(betas[-1], 1.0)]
            for beta in map(float, betas):
                rep = certify(mean, "t3", beta, delta)
                xi = rep.intermediates["xi_H"]
                assert xi == xi_h_factor(n, eta, delta / beta, rep.intermediates["Delta3"])[0]
                assert (rep.certificate == "SUPPORT_TRIVIAL") == (xi == math.inf), (n, beta)
                assert rep.intermediates.get("interval_empty", False) == (xi == -math.inf)
                if xi == math.inf:
                    assert Fraction(beta) * Fraction(eta) < Fraction(delta), (n, beta)
                    assert rep.stable and rep.decay_rate_bound >= 0.0

    def test_xi_below_one_outside_trivial_regime(self, rng):
        # certificate guarantee: beta/delta >= 1/eta(sgn) forces xi_H < 1.
        # An empty maximization interval gives xi_H = -inf, vacuously < 1.
        checked = finite = 0
        for seed in range(600):
            g = helpers.random_amei_ct(np.random.default_rng(seed), int(rng.integers(6, 11)),
                                       p_edge=0.6)
            mean = mean_matrix(g)
            if mean.eta_support() <= 0:
                continue
            beta_over_delta = 1.0 / mean.eta_support() * float(rng.uniform(1.0, 1.5))
            rep = certify_homogeneous(mean, beta_over_delta, 1.0)
            assert rep.certificate == "T3"
            xi = rep.intermediates["xi_H"]
            assert xi < 1.0
            checked += 1
            finite += math.isfinite(xi)
            if checked >= 200:
                break
        assert checked >= 200 and finite >= 60

    def test_xi_monotone_in_delta3(self):
        # fig-3(a) parameters: n=100, eta(sgn) = 10
        xis = [xi_h_factor(100, 10.0, 8.0, d3)[0] for d3 in np.linspace(0.0, 2.5, 9)]
        finite = [x for x in xis if math.isfinite(x)]
        assert all(b <= a + 1e-9 for a, b in zip(xis, xis[1:]))
        assert finite[0] == 1.0 and len(finite) >= 3

    def test_size_sweep_xi_towards_one(self):
        # matched relative coordinates: delta/beta = 0.8 eta_sgn, Delta3 = 0.2 max
        xi_small = xi_h_factor(100, 10.0, 8.0, 0.2 * 2.5)[0]
        xi_large = xi_h_factor(10_000, 1000.0, 800.0, 0.2 * 250.0)[0]
        assert xi_large > xi_small


class TestCertifyAmeiDt:
    def test_deterministic_routes_to_static_dt(self):
        edges = {(0, 1): build_static_edge(True, "dt"), (1, 2): build_static_edge(True, "dt")}
        g = DynamicGraphModel(3, AMEI, edges)
        rep = certify_amei_dt(g, homog(0.1, 0.5, 3))
        assert rep.certificate == "STATIC_DT"
        lam4 = float(np.linalg.eigvals(0.1 * mean_matrix(g).a_bar + 0.5 * np.eye(3)).real.max())
        assert rep.stable == (lam4 < 1.0)

    def test_periodic_chain_rejected(self):
        g = DynamicGraphModel(2, AMEI, {(0, 1): build_edge_markovian(1.0, 1.0, time="dt")})
        with pytest.raises(NonIrreducible):
            certify_amei_dt(g, homog(0.1, 0.5, 2))

    def test_interval_empty_reported_unstable(self):
        g = helpers.random_amei_dt(np.random.default_rng(0), 6, p_edge=0.8)
        rep = certify_amei_dt(g, homog(0.9, 0.2, 6))
        assert rep.intermediates["lambda4"] >= 1.0
        assert not rep.stable and rep.intermediates.get("interval_empty")

    def test_matches_dense_plus_grid_oracle(self):
        # 8-node instance: lambda4, eta(Mmax), tau_D, gamma_D against the oracle
        g = helpers.random_amei_dt(np.random.default_rng(7), 8, p_edge=0.6)
        mean = mean_matrix(g)
        beta = np.full(8, 0.01)
        delta = np.full(8, 0.6)
        rep = certify_amei_dt(mean, EpidemicParams(beta, delta))
        orc = helpers.oracle_certify_amei_dt(mean.a_bar, beta, delta)
        inter = rep.intermediates
        assert inter["lambda4"] == pytest.approx(orc["lambda4"], abs=1e-8)
        assert inter["eta_Mmax"] == pytest.approx(orc["eta_Mmax"], abs=1e-8)
        assert inter["Delta2"] == pytest.approx(orc["Delta2"], abs=1e-14)
        assert "tau_D" in orc
        assert rep.threshold == pytest.approx(orc["tau_D"], abs=1e-8)
        assert rep.stable == orc["stable"]
        if rep.stable:
            # gamma_D formula recomputed by the oracle at the implementation's
            # optimizer (the grid argmax itself is only resolved to ~1e-8 in s)
            s_star = rep.s_star
            kap = helpers.oracle_kappa(8, beta.max(), orc["Delta2"], s_star)
            gamma_orc = -np.log(orc["lambda4"] + s_star) \
                - kap * np.log(orc["eta_Mmax"] / orc["lambda4"])
            assert inter["gamma_D"] == pytest.approx(gamma_orc, abs=1e-10)
            assert inter["gamma_D"] == pytest.approx(orc["gamma_D"], abs=1e-7)
            assert rep.decay_rate_bound > 0

    def test_wrong_time_base_rejected(self):
        g = graph_complete_edge_markovian(4, 1.0, 1.0, time="ct")
        with pytest.raises(WrongKind):
            certify_amei_dt(mean_matrix(g), homog(0.1, 0.5, 4))


class TestThresholdInBeta:
    def test_empty_graph_returns_upper_bound(self):
        g = DynamicGraphModel(4, AMEI, {})
        assert threshold_in_beta(g, 1.0, "static_ct", (1e-6, 0.7)) == 0.7

    def test_bracket_error_when_lower_endpoint_unstable(self):
        g = graph_complete_edge_markovian(8, 1.0, 1.0)
        with pytest.raises(BracketError):
            threshold_in_beta(g, 1.0, "static_ct", (10.0, 20.0))

    def test_static_bisection_matches_closed_form(self):
        g = graph_complete_edge_markovian(8, 1.0, 1.0)
        mean = mean_matrix(g)
        expected = 1.0 / mean.eta_abar()  # delta = 1
        got = threshold_in_beta(mean, 1.0, "static_ct", (1e-6, 1.0))
        assert got == pytest.approx(expected, abs=2e-7)

    def test_static_dt_bisection_matches_closed_form(self):
        # eta(B Abar + I - D) < 1 is beta < delta/eta(Abar) for homogeneous rates
        g = graph_complete_edge_markovian(8, 0.4, 0.6, time="dt")
        mean = mean_matrix(g)
        delta = 0.3
        expected = delta / mean.eta_abar()
        got = threshold_in_beta(mean, delta, "static_dt", (1e-6, 1.0))
        assert got == pytest.approx(expected, abs=2e-7)

    def test_static_threshold_scales_exactly_with_delta(self):
        g = helpers.random_amei_ct(np.random.default_rng(12), 7, p_edge=0.7)
        mean = mean_matrix(g)
        t1 = threshold_in_beta(mean, 1.0, "static_ct", (1e-7, 2.0), tol=1e-10)
        t3 = threshold_in_beta(mean, 3.0, "static_ct", (1e-7, 6.0), tol=1e-10)
        assert t3 == pytest.approx(3.0 * t1, rel=1e-6)

    def test_t3_threshold_weakly_increases_with_delta(self):
        count = 0
        for seed in range(80):
            g = helpers.random_amei_ct(np.random.default_rng(seed + 100), 6, p_edge=0.7)
            mean = mean_matrix(g)
            if mean.eta_abar() <= 0:
                continue
            hi = 3.0 / mean.eta_abar()
            t_low = threshold_in_beta(mean, 1.0, "t3", (1e-8, hi))
            t_high = threshold_in_beta(mean, 2.5, "t3", (1e-8, 2.5 * hi))
            assert t_high >= t_low - 1e-7
            count += 1
            if count >= 50:
                break
        assert count >= 50


class TestSearchMatchesGoldenSection:
    """The certify workload's graph families at reduced n: every search driven by
    the zoom equals the one driven by the golden-section reference bit for bit."""

    FAMILIES = {
        "er_iv": (lambda: graph_er_iv(60, 0.2, 3), 0.05),
        "small_world": (lambda: graph_small_world(20, 0.3), 1.0),
        "complete": (lambda: graph_complete_edge_markovian(15, 0.8, 1.2), 1.0),
    }

    @pytest.mark.parametrize("family, certificate", [
        ("er_iv", "t4"), ("er_iv", "static_dt"), ("small_world", "t1"),
        ("complete", "t2"), ("complete", "t3")])
    def test_threshold_is_bit_identical(self, monkeypatch, family, certificate):
        build, delta = self.FAMILIES[family]
        mean = mean_matrix(build())
        bounds = (1e-6 * delta / mean.eta_abar(), 2 * delta / mean.eta_abar())
        fast = threshold_in_beta(mean, delta, certificate, bounds)
        monkeypatch.setattr(thresholds, "maximize_on_interval",
                            helpers.reference_maximize_on_interval)
        assert threshold_in_beta(mean_matrix(build()), delta, certificate, bounds) == fast
        assert bounds[0] < fast < bounds[1]

    def test_t1_cached_measures_match_dense(self):
        mean = mean_matrix(graph_small_world(20, 0.3))
        beta, delta = 0.02, 1.0
        rep = certify(mean, "t1", beta, delta)
        dense = [matrix_measure(beta * a - delta * np.eye(20))
                 for a in (mean.a_bar, mean.support())]
        assert rep.intermediates["mu_BAbar_minus_D"] == pytest.approx(dense[0], rel=1e-12)
        assert rep.intermediates["mu_Bsgn_minus_D"] == pytest.approx(dense[1], rel=1e-12)

    def test_caches_die_with_the_mean_matrix(self):
        mean = mean_matrix(graph_small_world(20, 0.3))
        threshold_in_beta(mean, 1.0, "t1", (1e-6, 0.5))
        a_bar = weakref.ref(mean.a_bar)
        del mean
        gc.collect()
        assert a_bar() is None


def spy_registry(monkeypatch):
    """Record (certificate, beta, stable) of every call through CERTIFICATES."""
    calls = []
    for name, fn in list(CERTIFICATES.items()):
        def spied(g, p, fn=fn, name=name):
            rep = fn(g, p)
            calls.append((name, float(p.beta[0]), rep.stable))
            return rep
        monkeypatch.setitem(CERTIFICATES, name, spied)
    return calls


def search_outcome(search, *args, **kw):
    """The search's threshold, or the type of the error it raised."""
    try:
        return search(*args, **kw)
    except (TempestError, ValueError) as exc:
        return type(exc)


class TestSearchMatchesBisection:
    """The margin-guided search walks bisection's midpoint path and certifies
    only midpoints the known verdicts leave undecided: bisection's answer bit
    for bit, with fewer certificate calls, and always a certified beta."""

    SEARCHES = [("er_iv", "t4"), ("er_iv", "static_dt"), ("small_world", "t1"),
                ("complete", "t2"), ("complete", "t3")]
    CERTIFICATES_OF = {"amei_ct": ("t2", "t3", "static_ct"), "amai_ct": ("t1", "static_ct"),
                       "amei_dt": ("t4", "static_dt")}

    @staticmethod
    def family(name):
        """Mean matrix, delta and the certify workload's bracket of a reduced-n family."""
        build, delta = TestSearchMatchesGoldenSection.FAMILIES[name]
        mean = mean_matrix(build())
        return mean, delta, (1e-6 * delta / mean.eta_abar(), 2 * delta / mean.eta_abar())

    @pytest.mark.parametrize("family, certificate", SEARCHES)
    def test_equals_bisection(self, monkeypatch, family, certificate):
        mean, delta, bounds = self.family(family)
        calls = spy_registry(monkeypatch)
        got = threshold_in_beta(mean, delta, certificate, bounds)
        assert got == helpers.reference_threshold_in_beta(mean, delta, certificate, bounds)
        assert bounds[0] < got < bounds[1]
        assert (certificate, got, True) in calls

    def test_at_most_sixty_percent_of_the_calls(self, monkeypatch):
        calls = spy_registry(monkeypatch)
        counts = []
        for family, certificate in self.SEARCHES:
            mean, delta, bounds = self.family(family)
            pair = []
            for search in (threshold_in_beta, helpers.reference_threshold_in_beta):
                calls.clear()
                search(mean, delta, certificate, bounds)
                pair.append(len(calls))
            counts.append(pair)
        assert all(new <= ref for new, ref in counts), counts
        assert sum(new for new, _ in counts) <= 0.6 * sum(ref for _, ref in counts), counts

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_graphs_match_bisection(self, data):
        kind = data.draw(st.sampled_from(sorted(self.CERTIFICATES_OF)))
        certificate = data.draw(st.sampled_from(self.CERTIFICATES_OF[kind]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        mean = mean_matrix(getattr(helpers, f"random_{kind}")(rng, data.draw(st.integers(2, 8))))
        delta = data.draw(st.floats(0.05, 1.0 if kind == "amei_dt" else 3.0))
        eta = mean.eta_abar()
        hi = data.draw(st.floats(0.25, 2.0)) * (2 * delta / eta if eta > 0 else 1.0)
        if kind == "amei_dt":
            hi = min(hi, 1.0)
        bounds = (data.draw(st.floats(1e-9, 0.5)) * hi, hi)
        tol = data.draw(st.sampled_from([1e-10, 1e-7, 1e-4]))
        expected = search_outcome(helpers.reference_threshold_in_beta, mean, delta,
                                  certificate, bounds, tol)
        assert search_outcome(threshold_in_beta, mean, delta, certificate, bounds, tol) \
            == expected

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(1e-3, 0.999), min_size=1, max_size=6, unique=True),
           st.floats(0.5, 2.0))
    def test_non_monotone_verdict_returns_a_certified_beta(self, cuts, scale):
        # stable between the 0th and 1st cut, the 2nd and 3rd, ...: a verdict
        # that breaks the monotone assumption still ends on a certified beta
        cuts = np.sort(cuts)
        mean = MeanMatrix(np.zeros((2, 2)), AMEI, "ct")

        def stripes(g, p):
            beta = float(p.beta[0])
            gap = float(np.abs(cuts - beta).min())
            stable = bool(np.searchsorted(cuts, beta) % 2 == 0 and gap > 0)
            margin = scale * gap * (1 if stable else -1)
            calls.append((beta, stable))
            return ThresholdReport("STRIPES", 0.0, margin, math.nan,
                                   margin if stable else None, stable)

        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(CERTIFICATES, "stripes", stripes)
            got = threshold_in_beta(mean, 1.0, "stripes", (1e-6, 1.0), tol=1e-6)
        assert (got, True) in calls

    def test_tiny_tol_ends_on_adjacent_floats(self, monkeypatch):
        mean, delta, bounds = self.family("complete")
        calls = spy_registry(monkeypatch)
        got = threshold_in_beta(mean, delta, "t2", bounds, tol=1e-300)
        assert ("t2", got, True) in calls
        assert not certify(mean, "t2", float(np.nextafter(got, 1.0)), delta).stable

    @pytest.mark.parametrize("tol", [0.0, -1e-7, math.nan, math.inf])
    def test_bad_tolerance_raises(self, tol):
        with pytest.raises(ValueError, match="tol"):
            threshold_in_beta(graph_complete_edge_markovian(5, 1.0, 1.0), 1.0, "t2",
                              (1e-6, 1.0), tol=tol)

    @pytest.mark.parametrize("bounds", [(1e-6, math.inf), (math.nan, 1.0), (-math.inf, 1.0),
                                        (0.5, 0.5), (0.7, 0.2)])
    def test_bad_bounds_raise(self, bounds):
        with pytest.raises(BracketError):
            threshold_in_beta(graph_complete_edge_markovian(5, 1.0, 1.0), 1.0, "t2", bounds)

    def test_no_new_knob(self):
        assert list(inspect.signature(threshold_in_beta).parameters) == \
            ["graph_or_mean", "delta", "certificate", "search_bounds", "tol"]


class TestReports:
    def test_reports_are_deterministic(self):
        g = helpers.random_amei_ct(np.random.default_rng(3), 9, p_edge=0.5)
        mean = mean_matrix(g)
        params = EpidemicParams.homogeneous(0.12, 1.0, 9)
        a = certify_amei_ct(mean, params).to_json(sort_keys=True)
        b = certify_amei_ct(mean, params).to_json(sort_keys=True)
        assert a == b

    def test_report_symbols_present(self):
        g = helpers.random_amei_dt(np.random.default_rng(2), 6, p_edge=0.7)
        rep = certify_amei_dt(g, homog(0.02, 0.6, 6))
        for key in ("Delta2", "lambda4", "eta_Mmax", "tau_D", "s_star", "gamma_D"):
            assert key in rep.intermediates
        doc = rep.to_dict()
        assert doc["stable"] == rep.stable
        assert isinstance(doc["intermediates"], dict)

    def test_infinite_threshold_serializes(self):
        g = graph_complete_edge_markovian(6, 1.0, 1.0)
        rep = certify_homogeneous(g, 0.01, 1.0)
        doc = rep.to_dict()
        assert doc["threshold"] == "inf"
        assert doc["s_star"] is None

    def test_inconsistent_report_raises(self):
        with pytest.raises(ValueError, match="stable=True"):
            ThresholdReport("T2", 1.0, 0.5, 0.1, 0.2, True)
        with pytest.raises(ValueError, match="decay_rate_bound"):
            ThresholdReport("T2", 0.1, 0.5, 0.1, None, True)
        with pytest.raises(ValueError, match="decay_rate_bound"):
            ThresholdReport("T2", 1.0, 0.5, 0.1, 0.3, False)

    def test_jsonable_numpy_values(self):
        assert _jsonable(np.int64(3)) == 3 and type(_jsonable(np.int64(3))) is int
        assert _jsonable(np.bool_(True)) is True
        assert _jsonable(np.array([[1.0, np.inf], [np.nan, -np.inf]])) == \
            [[1.0, "inf"], [None, "-inf"]]
        assert _jsonable(np.float32(0.5)) == 0.5


class TestStaticVerdicts:
    """Homogeneous static verdicts from the cached eta(Abar) against dense solves."""

    @pytest.mark.parametrize("time, certificate, condition", [
        ("ct", "static_ct", helpers.static_ct_dense),
        ("dt", "static_dt", helpers.static_dt_dense),
    ])
    def test_cached_route_matches_dense_condition(self, time, certificate, condition):
        g = graph_complete_edge_markovian(9, 0.3, 0.5, time=time)
        mean = mean_matrix(g)
        delta = 0.4
        cut = delta / mean.eta_abar()
        for beta in cut * np.array([1e-3, 0.5, 0.99, 1.01, 1.5]):
            if time == "dt" and beta > 1:
                continue
            dense = condition(mean.a_bar, np.full(9, beta), np.full(9, delta))[0]
            assert certify(mean, certificate, beta, delta).stable == dense



class TestPeriodicMeanMatrix:
    """A periodic DT edge chain is refused by T4 through every door to a verdict."""

    # q = r = 1: every edge of the complete DT graph switches at every step
    @staticmethod
    def periodic_graph():
        return graph_complete_edge_markovian(6, 1.0, 1.0, time="dt")

    def test_mean_matrix_records_first_periodic_edge(self):
        assert mean_matrix(self.periodic_graph()).periodic_edge == (0, 1)
        assert mean_matrix(graph_complete_edge_markovian(6, 1.0, 0.5, time="dt")) \
            .periodic_edge is None
        assert mean_matrix(graph_complete_edge_markovian(6, 1.0, 1.0)).periodic_edge is None

    @pytest.mark.parametrize("as_mean", [False, True], ids=["graph", "mean"])
    def test_threshold_search_refuses(self, as_mean):
        g = self.periodic_graph()
        with pytest.raises(NonIrreducible, match=r"edge \(0,1\)"):
            threshold_in_beta(mean_matrix(g) if as_mean else g, 0.5, "t4", (1e-6, 0.5))

    def test_certify_refuses(self):
        with pytest.raises(NonIrreducible, match=r"edge \(0,1\)"):
            certify(mean_matrix(self.periodic_graph()), "t4", 0.05, 0.5)


class TestKappaParams:
    def test_families_share_one_definition(self):
        g = helpers.random_amei_ct(np.random.default_rng(3), 6)
        mean = mean_matrix(g)
        beta = np.linspace(0.1, 0.6, 6)
        w = mean.a_bar * (1.0 - mean.a_bar)
        m2, m4 = kappa_params("M2", mean.a_bar, beta), kappa_params("M4", mean.a_bar, beta)
        assert m2 == m4 and m2.b == beta.max() and m2.n == 6
        assert m2.d == pytest.approx(max(beta[i] * (w[i] @ beta) for i in range(6)), rel=1e-14)
        m3 = kappa_params("M3", mean.a_bar, beta)
        assert m3.b == 1.0 and m3.d == pytest.approx(w.sum(axis=1).max(), rel=1e-14)
        with pytest.raises(ValueError, match="M5"):
            kappa_params("M5", mean.a_bar, beta)

    def test_mean_matrix_gives_the_array_constants(self):
        # a MeanMatrix argument reads its cached w = Abar (1 - Abar)
        mean = mean_matrix(helpers.random_amai_ct(np.random.default_rng(4), 7))
        beta = np.linspace(0.1, 0.7, 7)
        for family in ("M1", "M2", "M3", "M4"):
            assert kappa_params(family, mean, beta) == kappa_params(family, mean.a_bar, beta)
        assert mean.variance() is mean.variance()
