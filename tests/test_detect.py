import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from cirauth.detect import (
    DetectorConfig,
    FusionKind,
    FusionRule,
    fc_raw_statistic,
    fuse,
    fused_pfa_analytic,
    local_decide,
    quadratic_statistic,
    solve_threshold,
)
from cirauth.numerics import Rng, sample_complex_gaussian


def _identity_applier(d):
    return d


class TestSolveThreshold:
    def test_reference_local_thresholds(self):
        assert solve_threshold(0.01, 12) == pytest.approx(26.2, abs=0.05)
        assert solve_threshold(0.001, 12) == pytest.approx(32.9, abs=0.05)
        assert solve_threshold(0.0001, 12) == pytest.approx(39.1, abs=0.3)

    def test_median_closed_form(self):
        assert solve_threshold(0.5, 2) == pytest.approx(2 * math.log(2), abs=1e-6)

    def test_monotone_in_alpha_and_dof(self):
        alphas = (0.2, 0.1, 0.01, 0.001)
        vals = [solve_threshold(a, 12) for a in alphas]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        dofs = (2, 6, 12, 120)
        vals = [solve_threshold(0.01, d) for d in dofs]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_alpha_bounds(self):
        for bad in (0.0, 1.0, 1.5, -0.2, float("nan")):
            with pytest.raises(ValueError):
                solve_threshold(bad, 12)

    def test_far_tail(self):
        # below ~1e-16 the target is no longer representable as 1 - alpha
        assert solve_threshold(1e-15, 12) == pytest.approx(stats.chi2.isf(1e-15, 12), rel=1e-12)
        assert solve_threshold(1e-17, 12) > solve_threshold(1e-15, 12)

    @settings(max_examples=300, deadline=None)
    @given(alpha=st.floats(min_value=1e-300, max_value=0.5), dof=st.integers(1, 1200))
    def test_matches_scipy_isf(self, alpha, dof):
        assert solve_threshold(alpha, dof) == pytest.approx(stats.chi2.isf(alpha, dof), rel=1e-10)


class TestFcStatistic:
    def test_zero_at_reference(self):
        h = sample_complex_gaussian(Rng(40, 0), 6, 1.0)
        assert fc_raw_statistic(h, h, _identity_applier) == 0.0

    def test_unit_vector_closed_form(self):
        z = np.zeros(4, dtype=complex)
        z[0] = 1.0
        h = np.zeros(4, dtype=complex)
        assert fc_raw_statistic(z, h, _identity_applier) == 2.0

    @pytest.mark.parametrize("n_nodes", [1, 10])
    def test_null_mean_matches_dof(self, n_nodes):
        # H0: z - h is pure noise; doubled whitened energy averages 2NL
        n_taps, trials = 6, 20_000
        sigma2 = 0.37
        draws = sample_complex_gaussian(Rng(41, n_nodes), trials * n_nodes * n_taps, sigma2)
        z = draws.reshape(trials, n_nodes * n_taps)
        stat = fc_raw_statistic(z, np.zeros(n_nodes * n_taps), lambda d: d / sigma2)
        dof = 2 * n_nodes * n_taps
        assert stat.mean() == pytest.approx(dof, rel=0.01)
        assert stats.kstest(stat, lambda x: stats.chi2.cdf(x, dof)).pvalue > 0.001

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fc_raw_statistic(np.zeros(4), np.zeros(5), _identity_applier)

    def test_non_hermitian_applier_rejected(self):
        z = np.ones(2, dtype=complex)
        with pytest.raises(ValueError):
            quadratic_statistic(z, np.zeros(2), lambda d: 1j * d)


class TestDecisions:
    def test_local_decide_zero(self):
        h = sample_complex_gaussian(Rng(42, 0), 6, 1.0)
        assert local_decide(h, h, _identity_applier, 26.2) == 0

    def test_local_decide_batch_matches_scalar(self):
        rng = Rng(43, 0)
        z = sample_complex_gaussian(rng, 30, 1.0).reshape(5, 6)
        h = sample_complex_gaussian(rng, 6, 1.0)
        batch = local_decide(z, h, _identity_applier, 9.0)
        singles = [local_decide(z[i], h, _identity_applier, 9.0) for i in range(5)]
        assert np.array_equal(batch, singles)

    @pytest.mark.parametrize("alpha", [0.01, 0.001])
    def test_local_false_alarm_calibration(self, alpha):
        # smaller-scale twin of the acceptance criterion (10^5 vs 10^6 trials)
        n_taps, trials, sigma2 = 6, 100_000, 1.0
        delta = solve_threshold(alpha, 2 * n_taps)
        noise = sample_complex_gaussian(Rng(44, 0), trials * n_taps, sigma2)
        u = local_decide(
            noise.reshape(trials, n_taps), np.zeros(n_taps), lambda d: d / sigma2, delta
        )
        sig = math.sqrt(alpha * (1 - alpha) / trials)
        assert abs(u.mean() - alpha) < 5 * sig


class TestFusion:
    def test_or_and_majority_examples(self):
        assert fuse([0, 0, 1], FusionRule(kind=FusionKind.OR)) is True
        assert fuse([0, 0, 1], FusionRule(kind=FusionKind.AND)) is False
        assert fuse([1, 1, 0, 0], FusionRule(kind=FusionKind.MAJORITY)) is False  # tie

    def test_weighted_average_matches_majority_odd_n(self):
        rule_avg = FusionRule(kind=FusionKind.WEIGHTED_AVERAGE)
        rule_maj = FusionRule(kind=FusionKind.MAJORITY)
        for n in (3, 5, 7):
            for bits in range(2**n):
                u = [(bits >> i) & 1 for i in range(n)]
                assert fuse(u, rule_avg) == fuse(u, rule_maj)

    def test_weighted_average_even_tie_accepts(self):
        rule = FusionRule(kind=FusionKind.WEIGHTED_AVERAGE)
        assert fuse([1, 1, 0, 0], rule) is False

    def test_dominance_exhaustive(self):
        # OR fires whenever MAJORITY does, MAJORITY whenever AND does
        for n in range(1, 13):
            for bits in range(2**n):
                u = [(bits >> i) & 1 for i in range(n)]
                d_or = fuse(u, FusionRule(kind=FusionKind.OR))
                d_maj = fuse(u, FusionRule(kind=FusionKind.MAJORITY))
                d_and = fuse(u, FusionRule(kind=FusionKind.AND))
                assert (not d_and or d_maj) and (not d_maj or d_or)

    def test_custom_weights(self):
        rule = FusionRule(kind=FusionKind.WEIGHTED_AVERAGE, weights=(0.7, 0.2, 0.1))
        assert fuse([1, 0, 0], rule) is True
        assert fuse([0, 1, 1], rule) is False

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            FusionRule(kind=FusionKind.WEIGHTED_AVERAGE, weights=(0.5, 0.2))
        with pytest.raises(ValueError):
            FusionRule(kind=FusionKind.MAJORITY, avg_threshold=1.5)

    def test_empty_and_nonbinary_rejected(self):
        with pytest.raises(ValueError):
            fuse([], FusionRule(kind=FusionKind.OR))
        with pytest.raises(ValueError):
            fuse([0, 2], FusionRule(kind=FusionKind.OR))

    def test_batch_axis(self):
        u = np.array([[0, 0, 1], [0, 0, 0]])
        got = fuse(u, FusionRule(kind=FusionKind.OR))
        assert np.array_equal(got, [True, False])

    def test_single_reports_node_zero(self):
        rule = FusionRule(kind=FusionKind.SINGLE)
        assert fuse([1, 0, 0], rule) is True
        assert fuse([0, 1, 1], rule) is False
        assert np.array_equal(fuse(np.array([[1, 0], [0, 1]]), rule), [True, False])


class TestFusedPfaAnalytic:
    def test_or_closed_form(self):
        assert fused_pfa_analytic(0.01, 10, FusionKind.OR) == pytest.approx(
            1 - 0.99**10, rel=1e-12
        )
        # at small rates 1 - (1 - a)^N cancels; the series N*a - C(N,2)*a^2 does not
        assert fused_pfa_analytic(1e-12, 10, FusionKind.OR) == pytest.approx(
            10e-12 - 45e-24, rel=1e-14, abs=0.0
        )

    def test_and_closed_form(self):
        assert fused_pfa_analytic(0.01, 10, FusionKind.AND) == pytest.approx(1e-20, rel=1e-9)

    def test_single_is_alpha(self):
        assert fused_pfa_analytic(0.01, 10, FusionKind.SINGLE) == 0.01

    @settings(max_examples=300, deadline=None)
    @given(alpha=st.floats(min_value=0.0, max_value=1.0), n=st.integers(1, 200))
    def test_or_matches_binomial_sum(self, alpha, n):
        # P(at least one alarm) as a sum of nonnegative terms: no cancellation
        want = math.fsum(
            math.comb(n, k) * alpha**k * (1.0 - alpha) ** (n - k) for k in range(1, n + 1)
        )
        assert fused_pfa_analytic(alpha, n, FusionKind.OR) == pytest.approx(want, rel=1e-12, abs=0.0)

    @settings(max_examples=300, deadline=None)
    @given(alpha=st.floats(min_value=0.0, max_value=1.0), n=st.integers(1, 60))
    def test_dominance(self, alpha, n):
        p = {kind: fused_pfa_analytic(alpha, n, kind) for kind in
             (FusionKind.AND, FusionKind.MAJORITY, FusionKind.SINGLE, FusionKind.OR)}
        slack = 1 + 1e-12  # n = 1, 2 make some rules coincide exactly
        assert 0.0 <= p[FusionKind.AND] <= p[FusionKind.MAJORITY] * slack
        assert p[FusionKind.MAJORITY] <= p[FusionKind.OR] * slack <= slack
        assert p[FusionKind.AND] <= p[FusionKind.SINGLE] * slack
        assert p[FusionKind.SINGLE] <= p[FusionKind.OR] * slack

    def test_majority_exact_binomial_sum(self):
        # independent oracle: explicit binomial tail via math.comb
        want = sum(math.comb(10, k) * 0.01**k * 0.99 ** (10 - k) for k in range(6, 11))
        got = fused_pfa_analytic(0.01, 10, FusionKind.MAJORITY)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(2.0289394126e-10, rel=1e-9)

    @pytest.mark.parametrize("kind", [FusionKind.OR, FusionKind.MAJORITY])
    def test_matches_empirical(self, kind):
        # smaller-scale twin of the acceptance criterion
        alpha, n, trials = 0.05, 7, 200_000
        gen = Rng(45, 0).generator
        u = (gen.random((trials, n)) < alpha).astype(np.int64)
        emp = fuse(u, FusionRule(kind=kind)).mean()
        want = fused_pfa_analytic(alpha, n, kind)
        sig = math.sqrt(want * (1 - want) / trials)
        assert abs(emp - want) < 5 * sig


class TestDetectorConfig:
    def test_resolve_fc_threshold(self):
        cfg = DetectorConfig(target_pfa=0.01).resolve(n_nodes=1, n_taps=6)
        assert cfg.delta == pytest.approx(26.217, abs=0.01)

    def test_resolve_local_thresholds(self):
        cfg = DetectorConfig(target_pfa_n=(0.01, 0.001)).resolve(n_nodes=2, n_taps=6)
        assert cfg.delta_n[0] == pytest.approx(26.217, abs=0.01)
        assert cfg.delta_n[1] == pytest.approx(32.909, abs=0.01)

    def test_solved_threshold_consistency(self):
        # invariant: cdf(delta, dof) == 1 - alpha after resolution
        from cirauth.numerics import chi2_cdf

        cfg = DetectorConfig(target_pfa=0.003).resolve(n_nodes=10, n_taps=6)
        assert chi2_cdf(cfg.delta, 120) == pytest.approx(0.997, abs=1e-8)

    def test_exclusive_fields(self):
        with pytest.raises(ValueError):
            DetectorConfig(delta=5.0, target_pfa=0.1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"delta": float("nan")},
            {"delta": float("inf")},
            {"delta": 0.0},
            {"delta_n": float("nan")},
            {"delta_n": -5.0},
            {"delta_n": (26.2, float("nan"))},
            {"target_pfa": float("nan")},
            {"target_pfa": 1.0},
            {"target_pfa_n": (0.01, 0.0)},
        ],
    )
    def test_nonfinite_or_out_of_range_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DetectorConfig(**kwargs)

    def test_delta_n_vector_broadcast(self):
        cfg = DetectorConfig(delta_n=26.2)
        assert np.array_equal(cfg.delta_n_vector(3), [26.2, 26.2, 26.2])
        with pytest.raises(ValueError):
            DetectorConfig(delta_n=(1.0, 2.0)).delta_n_vector(3)
