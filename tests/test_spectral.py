import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_metzler, random_metzler_pair
from tempest import (
    KappaParams,
    c_minus,
    kappa,
    kappa_inv_at_one,
    matrix_measure,
    maximize_on_interval,
    mean_matrix,
    power_iteration_abscissa,
    spectral_abscissa,
)
from tempest.errors import DivergenceDetected, DomainError, EmptyInterval, NumericalFailure
from tempest import graph_complete_edge_markovian, graph_small_world


class RefusingOperator(spla.LinearOperator):
    """A sparse Metzler matrix as an operator whose ``tocsr`` refuses to materialize it."""

    def __init__(self, m):
        super().__init__(np.float64, m.shape)
        self.m, self.matvecs = m, 0

    def _matvec(self, x):
        self.matvecs += 1
        return self.m @ np.ravel(x)

    def diagonal(self):
        return self.m.diagonal()

    def tocsr(self):
        raise AssertionError("the operator was materialized")


class TestKappa:
    def test_value_at_zero_is_n(self):
        for n in (1, 2, 100, 10_000):
            assert kappa(KappaParams(0.3, 2.0, n), 0.0) == pytest.approx(n, rel=1e-15)

    def test_closed_form_point(self):
        # b=1, d=1, n=2, s=1: 2 e (2)^-2 = e/2
        assert kappa(KappaParams(1, 1, 2), 1.0) == pytest.approx(np.e / 2, rel=1e-14)

    def test_high_precision_oracle_point(self):
        # frozen from a 50-digit mpmath evaluation of the defining formula,
        # b=1, d=4, n=100, s=2
        expected = 64.869628303369220102
        assert kappa(KappaParams(1, 4, 100), 2.0) == pytest.approx(expected, rel=1e-12)

    def test_strictly_decreasing(self, rng):
        for _ in range(1000):
            p = KappaParams(rng.uniform(0.05, 5), rng.uniform(0.01, 10), rng.integers(1, 1000))
            s1 = rng.uniform(0, 5)
            s2 = s1 + rng.uniform(1e-6, 5)
            assert kappa(p, s2) < kappa(p, s1)

    def test_vectorized_matches_scalar(self):
        p = KappaParams(0.7, 1.3, 17)
        ss = np.linspace(0, 4, 11)
        np.testing.assert_allclose(kappa(p, ss), [kappa(p, s) for s in ss], rtol=1e-15)

    def test_domain_error_for_negative_s(self):
        with pytest.raises(DomainError):
            kappa(KappaParams(1, 1, 2), -0.1)

    def test_d_zero_pointwise_limit(self):
        p = KappaParams(1.0, 0.0, 5)
        assert kappa(p, 0.0) == 5.0
        assert kappa(p, 0.5) == 0.0

    def test_invalid_params(self):
        with pytest.raises(DomainError):
            KappaParams(0.0, 1.0, 2)
        with pytest.raises(DomainError):
            KappaParams(1.0, -1.0, 2)
        with pytest.raises(DomainError):
            KappaParams(1.0, 1.0, 0)


class TestKappaInverse:
    def test_single_node_root_is_zero(self):
        assert kappa_inv_at_one(KappaParams(2.0, 3.0, 1)) == 0.0

    def test_round_trip(self, rng):
        for _ in range(100):
            p = KappaParams(rng.uniform(0.05, 5), rng.uniform(0.01, 10), rng.integers(2, 1000))
            s0 = kappa_inv_at_one(p)
            assert kappa(p, s0) == pytest.approx(1.0, abs=1e-10)

    def test_residual_tolerance(self, rng):
        for _ in range(50):
            p = KappaParams(rng.uniform(0.001, 0.1), rng.uniform(1e-8, 1e-3), 500)
            s0 = kappa_inv_at_one(p)
            assert abs(kappa(p, s0) - 1.0) <= 1e-12 * p.n

    def test_frozen_root_n2(self):
        # root of 2 e^s (s+1)^{-(s+1)} = 1, from a 50-digit findroot
        expected = 1.3908675361848094223
        assert kappa_inv_at_one(KappaParams(1, 1, 2)) == pytest.approx(expected, abs=1e-12)

    def test_dense_grid_bracketing_oracle(self):
        # 1e6-point bracket of the root must contain the implementation value
        p = KappaParams(1.0, 1.0, 2)
        ss = np.linspace(0.0, 4.0, 1_000_001)
        vals = kappa(p, ss) - 1.0
        k = int(np.flatnonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))[0])
        s0 = kappa_inv_at_one(p)
        assert ss[k] <= s0 <= ss[k + 1]

    def test_d_zero_rejected(self):
        with pytest.raises(DomainError):
            kappa_inv_at_one(KappaParams(1.0, 0.0, 4))


class TestCminus:
    @pytest.mark.parametrize("c,expected", [(3.0, 0.0), (-2.0, 2.0), (0.0, 0.0)])
    def test_examples(self, c, expected):
        assert c_minus(c) == expected

    @settings(max_examples=200)
    @given(st.floats(-1e12, 1e12))
    def test_definition(self, c):
        assert c_minus(c) == (abs(c) - c) / 2


class TestSpectralAbscissa:
    def test_complete_graph(self):
        for n in (3, 10, 40):
            a = np.ones((n, n)) - np.eye(n)
            assert spectral_abscissa(a) == pytest.approx(n - 1, rel=1e-9)

    def test_small_world_closed_form(self):
        n, r = 9, 0.4
        a = mean_matrix(graph_small_world(n, r)).a_bar
        assert spectral_abscissa(a) == pytest.approx(1 + r * (n - 2), rel=1e-9)

    def test_edge_markovian_closed_form(self):
        n, q, r = 12, 0.8, 1.7
        a = mean_matrix(graph_complete_edge_markovian(n, q, r)).a_bar
        assert spectral_abscissa(a) == pytest.approx((n - 1) * q / (q + r), rel=1e-9)

    def test_power_iteration_matches_dense(self, rng):
        # oracle equivalence on Metzler matrices up to 64x64
        for _ in range(60):
            n = int(rng.integers(2, 65))
            m = random_metzler(rng, n)
            dense = float(np.linalg.eigvals(m).real.max())
            assert power_iteration_abscissa(m) == pytest.approx(dense, abs=1e-8)

    def test_sparse_input_supported(self, rng):
        import scipy.sparse as sp
        m = random_metzler(rng, 40, density=0.2)
        sparse = sp.csr_matrix(m)
        dense = float(np.linalg.eigvals(m).real.max())
        assert power_iteration_abscissa(sparse) == pytest.approx(dense, abs=1e-8)
        assert spectral_abscissa(sparse) == pytest.approx(dense, abs=1e-8)

    def test_sparse_non_metzler_rejected(self):
        # the sparse route assumes Metzler input; a symmetric Gaussian matrix
        # used to come back as 12.17 against eigvalsh's 19.32
        import scipy.sparse as sp
        a = np.random.default_rng(0).standard_normal((50, 50))
        with pytest.raises(ValueError, match="Metzler"):
            spectral_abscissa(sp.csr_matrix(a + a.T))

    def test_sparse_route_is_one_certified_arpack_solve(self, rng, monkeypatch):
        # one eigs call, then one matvec for the Ritz vector's own bracket
        import scipy.sparse as sp
        m = random_metzler(rng, 120, density=0.1)
        dense = float(np.linalg.eigvals(m).real.max())
        op = RefusingOperator(sp.csr_matrix(m))
        calls, eigs = [], spla.eigs

        def counted(*args, **kwargs):
            out = eigs(*args, **kwargs)
            calls.append(op.matvecs)
            return out

        def no_eigvals(*args, **kwargs):
            raise AssertionError("the certified route must not solve densely")

        monkeypatch.setattr(spla, "eigs", counted)
        monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
        assert spectral_abscissa(op) == pytest.approx(dense, abs=1e-10)
        assert len(calls) == 1 and op.matvecs == calls[0] + 1

    def test_wide_bracket_falls_back_to_power_iteration(self, rng, monkeypatch):
        # a positive but poor Ritz vector starts the power iteration on the
        # operator itself, which is never materialized
        import scipy.sparse as sp
        m = random_metzler(rng, 120, density=0.1)
        dense = float(np.linalg.eigvals(m).real.max())
        poor = 1.0 + 0.5 * rng.random((120, 1))
        monkeypatch.setattr(spla, "eigs", lambda *args, **kwargs: (np.zeros(1), poor + 0j))
        op = RefusingOperator(sp.csr_matrix(m))
        assert spectral_abscissa(op) == pytest.approx(dense, abs=1e-10)

    @pytest.mark.parametrize("budget", [None, 5], ids=["lanczos", "budget missed"])
    def test_symmetrizable_operator_takes_two_lanczos_passes(self, rng, budget, monkeypatch):
        # M = diag(s) S diag(s)^-1 with S symmetric Metzler: an operator that
        # offers s is solved by Lanczos on S, without ARPACK, and certified on M
        # itself; one that misses the step budget takes the ARPACK route
        import scipy.sparse as sp
        import tempest.spectral as spectral
        a = random_metzler(rng, 300, density=0.05)
        sym = np.triu(a, 1) + np.triu(a, 1).T + np.diag(np.diag(a))
        s = np.exp(rng.uniform(-2.0, 2.0, 300))
        op = RefusingOperator(sp.csr_matrix(s[:, None] * sym / s))
        op.symmetrizer = lambda: s
        eigs, calls = spla.eigs, []

        def counted(*args, **kwargs):
            calls.append(1)
            return eigs(*args, **kwargs)

        monkeypatch.setattr(spectral, "_LANCZOS_MIN_DIM", 3)
        monkeypatch.setattr(spla, "eigs", counted)
        if budget is not None:
            monkeypatch.setattr(spectral, "_LANCZOS_STEPS", budget)
        assert spectral_abscissa(op) == pytest.approx(np.linalg.eigvalsh(sym)[-1], abs=1e-10)
        assert (len(calls) > 0) == (budget is not None)

    def test_power_iteration_meets_the_bracket_tolerance(self, rng):
        # generator-like input: diagonal near -50 n, abscissa near -0.05; the
        # tolerance 1e-10 holds for eta itself, not for the shifted root, and
        # the rounding floor (64 ulps of at most 3,200) stays below it
        for _ in range(30):
            n = int(rng.integers(5, 65))
            q = rng.random((n, n))
            np.fill_diagonal(q, 0.0)
            np.fill_diagonal(q, -q.sum(axis=1))
            m = 100.0 * q - 0.05 * np.eye(n) + np.diag(rng.uniform(0.0, 0.01, n))
            dense = float(np.linalg.eigvals(m).real.max())
            assert abs(power_iteration_abscissa(m) - dense) <= 1e-10 * max(1.0, abs(dense))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            spectral_abscissa(np.zeros((2, 3)))

    def test_reducible_blocks_fail_fast_then_dense_fallback(self):
        # disjoint blocks with distinct roots freeze the Collatz-Wielandt
        # bracket; the iteration must bail out early and the public entry
        # point must recover through the dense route
        from tempest.errors import ConvergenceFailure
        m = np.zeros((80, 80))
        m[:40, :40] = 2.0 * (np.ones((40, 40)) - np.eye(40)) / 39
        m[40:, 40:] = 1.0 * (np.ones((40, 40)) - np.eye(40)) / 39
        with pytest.raises(ConvergenceFailure) as exc:
            power_iteration_abscissa(m)
        assert exc.value.iterations < 5000
        assert spectral_abscissa(m) == pytest.approx(2.0, abs=1e-9)

    def test_reducible_sparse_input_splits_into_blocks(self):
        # ARPACK's Ritz vector of a reducible matrix has zero entries, and the
        # power iteration's bracket stalls; the split decides by the blocks
        import scipy.sparse as sp
        a = np.array([[-1.33, 0, 0, 0, 0, 0], [0, -0.99, 0, 0, 0.86, 0],
                      [0, 0.39, -1.9, 0.69, 0, 0.66], [0.23, 0, 0, 0.91, 0, 0],
                      [0, 0.06, 0, 0, -0.31, 0], [0.66, 0, 0, 0.57, 0, -1.76]])
        assert spectral_abscissa(sp.csr_matrix(a)) == pytest.approx(0.91, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_sparse_metzler_matches_eigvals(self, data):
        # reducible (sparse support) and irreducible (dense support) input alike
        import scipy.sparse as sp
        n = data.draw(st.integers(3, 11), label="n")
        density = data.draw(st.sampled_from([0.15, 0.3, 1.0]), label="density")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        m = np.where(rng.random((n, n)) < density, rng.random((n, n)), 0.0)
        np.fill_diagonal(m, rng.uniform(-2.0, 1.0, n))
        dense = float(np.linalg.eigvals(m).real.max())
        assert spectral_abscissa(sp.csr_matrix(m)) == pytest.approx(dense, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_dense_metzler_matches_eigvals(self, data):
        # above 64x64 dense Metzler input takes the certified ARPACK route:
        # symmetric or not, irreducible or block-triangular with distinct roots
        n = data.draw(st.integers(65, 160), label="n")
        symmetric = data.draw(st.booleans(), label="symmetric")
        reducible = data.draw(st.booleans(), label="reducible")
        density = data.draw(st.sampled_from([0.05, 0.3, 1.0]), label="density")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        m = np.where(rng.random((n, n)) < density, rng.random((n, n)), 0.0)
        if symmetric:
            m = np.triu(m) + np.triu(m, 1).T
        np.fill_diagonal(m, rng.uniform(-2.0, 1.0, n))
        if reducible:
            k = int(rng.integers(1, n))
            m[k:, :k] = 0.0  # block upper triangular
            if symmetric:
                m[:k, k:] = 0.0
            # a distinct root for each block, whichever of them is larger
            m[np.arange(k), np.arange(k)] += rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        dense = float(np.linalg.eigvals(m).real.max())
        assert spectral_abscissa(m) == pytest.approx(dense, rel=1e-9, abs=1e-9)

    def test_dense_mean_spectra_skip_eigvalsh(self, monkeypatch):
        # the Section IV mean matrix's two abscissas are certified ARPACK
        # solves; the full symmetric spectrum is the reference only
        from tempest import graph_er_iv
        mean = mean_matrix(graph_er_iv(500, 0.2, 1))
        ref_abar = float(np.linalg.eigvalsh(mean.a_bar)[-1])
        ref_support = float(np.linalg.eigvalsh(mean.support())[-1])

        def no_eigvalsh(*args, **kwargs):
            raise AssertionError("dense Metzler input must not take the full spectrum")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        assert mean.eta_abar() == pytest.approx(ref_abar, rel=1e-12)
        assert mean.eta_support() == pytest.approx(ref_support, rel=1e-12)

    def test_periodic_support_bipartite(self):
        assert power_iteration_abscissa(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(1.0, abs=1e-9)
        path3 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        assert power_iteration_abscissa(path3) == pytest.approx(np.sqrt(2), abs=1e-9)

    def test_metzler_monotonicity(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 20))
            a, b = random_metzler_pair(rng, n)
            assert spectral_abscissa(a) <= spectral_abscissa(b) + 1e-9
            assert matrix_measure(a) <= matrix_measure(b) + 1e-9

    def test_symmetric_eta_equals_mu(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 30))
            m = rng.normal(size=(n, n))
            m = m + m.T
            assert spectral_abscissa(m) == pytest.approx(matrix_measure(m), abs=1e-9)


class TestMatrixMeasure:
    def test_negative_diagonal(self):
        d = np.diag([0.5, 2.0, 1.2])
        assert matrix_measure(-d) == pytest.approx(-0.5)

    def test_symmetric_pair(self):
        assert matrix_measure(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(1.0)

    def test_asymmetric_nilpotent(self):
        assert matrix_measure(np.array([[0.0, 2.0], [0.0, 0.0]])) == pytest.approx(1.0)


class TestMaximize:
    def test_decreasing_objective_hugs_left_endpoint(self):
        res = maximize_on_interval(lambda s: -s, 0.0, 1.0)
        assert res.s_star <= 1e-8
        assert res.value == pytest.approx(0.0, abs=1e-8)

    def test_concave_quadratic(self):
        res = maximize_on_interval(lambda s: -((s - 0.5) ** 2), 0.0, 1.0)
        assert res.s_star == pytest.approx(0.5, abs=1e-6)
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_empty_interval(self):
        with pytest.raises(EmptyInterval):
            maximize_on_interval(lambda s: s, 1.0, 1.0)

    def test_divergence_detected(self):
        with pytest.raises(DivergenceDetected):
            maximize_on_interval(lambda s: (s - 1.0) ** -2.0, 1.0, 2.0)

    def test_value_is_attained_lower_bound(self, rng):
        coeffs = rng.normal(size=4)
        f = lambda s: coeffs[0] * np.sin(3 * s) + coeffs[1] * s + coeffs[2] * s ** 2 + coeffs[3]
        res = maximize_on_interval(f, 0.2, 2.7)
        assert np.isclose(f(np.array([res.s_star]))[0], res.value)
        assert 0.2 < res.s_star <= 2.7

    def test_edge_certificate_objective_matches_grid_oracle(self):
        # fixed 10-node instance oracle: brute-force uniform grid scan
        from helpers import oracle_kappa
        n, bmax, d2, c2 = 10, 0.35, 0.11, 1.8
        p = KappaParams(bmax, d2, n)
        s0 = kappa_inv_at_one(p)
        sbar = s0 + 2.0

        def objective(s):
            k = kappa(p, s)
            return -(s + c2 * k) / (1.0 - k)

        res = maximize_on_interval(objective, s0, sbar)
        ss = np.linspace(s0, sbar, 10_000_001)[1:]
        kk = oracle_kappa(n, bmax, d2, ss)
        vals = -(ss + c2 * kk) / (1.0 - kk)
        assert res.value == pytest.approx(float(vals.max()), abs=1e-8)


def _certificate_objective(kind, n, b, d, eta, ratio):
    """A certificate objective of kind T1, T2, T4 or xi_H and its interval.

    ``eta`` stands for the support graph's eta or mu, and ``ratio`` in (0, 1]
    for delta/beta over eta (xi_H) or for lambda4 / eta_max (T4).
    """
    p = KappaParams(b, d, n)
    if kind == "T4":
        lam4 = 1.0 - b / 2.0
        log_ratio = np.log(ratio)
        return (lambda s: np.exp(kappa(p, s) * log_ratio) - s), 0.0, 1.0 - lam4
    s0 = kappa_inv_at_one(p)
    if kind == "T1":
        c1 = eta - s0 / 2.0
        return (lambda s: -(s + 2.0 * c1 * kappa(p, s)) / (2.0 * (1.0 - kappa(p, s))),
                s0, 2.0 * b + 2.0 * c_minus(c1) + s0)
    if kind == "T2":
        c2 = eta - s0
        return (lambda s: -(s + c2 * kappa(p, s)) / (1.0 - kappa(p, s))), s0, b + c_minus(c2) + s0
    c3, dob = eta - s0, eta * ratio
    return (lambda s: (1.0 - (s + c3 * kappa(p, s)) / dob) / (1.0 - kappa(p, s))), \
        s0, dob + c_minus(c3) + s0


class TestMaximizerMatchesGoldenSection:
    @settings(max_examples=50, deadline=None)
    @given(kind=st.sampled_from(["T1", "T2", "T4", "xi_H"]), n=st.integers(2, 2000),
           b=st.floats(0.01, 1.9), d=st.floats(1e-4, 10.0), eta=st.floats(0.01, 50.0),
           ratio=st.floats(0.01, 1.0))
    def test_value_never_below_the_golden_section_reference(self, kind, n, b, d, eta, ratio):
        from helpers import reference_maximize_on_interval
        objective, lo, hi = _certificate_objective(kind, n, b, d, eta, ratio)
        try:
            ref = reference_maximize_on_interval(objective, lo, hi)
        except (DivergenceDetected, NumericalFailure) as exc:
            with pytest.raises(type(exc)):
                maximize_on_interval(objective, lo, hi)
            return
        res = maximize_on_interval(objective, lo, hi)
        assert res.value >= ref.value - 1e-12 * max(1.0, abs(ref.value))
        assert objective(np.array([res.s_star]))[0] == res.value
        assert lo < res.s_star <= hi

    def test_kappa_root_is_the_numpy_bisection_bit_for_bit(self, rng):
        from helpers import reference_kappa_inv_at_one
        cases = [KappaParams(1, 1, 2), KappaParams(2, 3, 7)] + [
            KappaParams(float(rng.uniform(1e-3, 5)), float(10 ** rng.uniform(-8, 1)),
                        int(rng.integers(2, 100_000))) for _ in range(2000)]
        for p in cases:
            assert kappa_inv_at_one(p) == reference_kappa_inv_at_one(p), p

    @pytest.mark.parametrize("lo, hi, peak", [(0.0, 1.0, 0.3), (0.0, 1.0, 1e-7),
                                              (2.0, 50.0, 49.9), (-3.0, 1.0, -1.234567)])
    def test_maximizer_is_resolved_to_the_stopping_width(self, lo, hi, peak):
        # the zoom stops once a bracket is no wider than 1e-14*max(1, |a|, |b|)
        res = maximize_on_interval(lambda s: -(s - peak) ** 2, lo, hi)
        assert abs(res.s_star - peak) <= 1e-14 * max(1.0, abs(peak))

    def test_objective_calls_are_one_per_zoom_pass(self):
        # a perf guard without a timer: the golden-section search made about
        # 240 one-point calls on this objective, the zoom one call per pass
        objective, lo, hi = _certificate_objective("T2", 120, 1.0 / 60, 0.004, 60.0, 1.0)
        sizes = []

        def counted(s):
            sizes.append(np.size(s))
            return objective(s)

        maximize_on_interval(counted, lo, hi)
        assert len(sizes) <= 12 and sizes[0] == 4096
