import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from cirauth.channel import noise_variance
from cirauth.detect import (
    FusionKind,
    FusionRule,
    fuse,
    fused_pfa_analytic,
    quadratic_statistic,
    solve_threshold,
)
from cirauth.numerics import sample_complex_gaussian, stream


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

    def test_cdf_round_trip(self):
        # invariant: cdf(delta, dof) == 1 - alpha at the solved threshold
        assert stats.chi2.cdf(solve_threshold(0.003, 120), 120) == pytest.approx(0.997, abs=1e-8)

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
        h = sample_complex_gaussian(stream(40, 0), 6, 1.0)
        assert quadratic_statistic(h, h, 1.0) == 0.0

    def test_unit_vector_closed_form(self):
        z = np.zeros(4, dtype=complex)
        z[0] = 1.0
        h = np.zeros(4, dtype=complex)
        assert quadratic_statistic(z, h, 1.0) == 2.0

    @pytest.mark.parametrize("n_nodes", [1, 10])
    def test_null_mean_matches_dof(self, n_nodes):
        # H0: z - h is pure noise; doubled whitened energy averages 2NL
        n_taps, trials = 6, 20_000
        sigma2 = 0.37
        draws = sample_complex_gaussian(stream(41, n_nodes), trials * n_nodes * n_taps, sigma2)
        z = draws.reshape(trials, n_nodes * n_taps)
        stat = quadratic_statistic(z, np.zeros(n_nodes * n_taps), 1.0 / sigma2)
        dof = 2 * n_nodes * n_taps
        assert stat.mean() == pytest.approx(dof, rel=0.01)
        assert stats.kstest(stat, lambda x: stats.chi2.cdf(x, dof)).pvalue > 0.001

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            quadratic_statistic(np.zeros(4), np.zeros(5), 1.0)

    def test_non_hermitian_applier_rejected(self):
        z = np.ones(2, dtype=complex)
        with pytest.raises(ValueError):
            quadratic_statistic(z, np.zeros(2), 1j)

    def test_per_node_scale(self):
        # two nodes of two taps, sigma2 = 0.5 and 2: each node's doubled energy is scaled by its own 1/sigma2
        d = np.ones((2, 2), dtype=complex)
        assert np.array_equal(quadratic_statistic(d, np.zeros(2), 1.0 / np.array([[0.5], [2.0]])), [8.0, 2.0])


# Parts of a measurement deviation: signed zeros, subnormals, huge values and anything finite
_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e300, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestNoiseScaling:
    """The engine scales a deviation by a real 1/sigma2 instead of dividing it by sigma2."""

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.floats(-1000.0, 1000.0), st.lists(st.tuples(_PARTS, _PARTS), min_size=3, max_size=3)),
            min_size=1, max_size=6,
        ),
        delta=st.sampled_from([1e-300, 0.5, 26.2, 1e300]),
    )
    def test_reciprocal_product_matches_division(self, rows, delta):
        s2 = np.array([[noise_variance(snr)] for snr, _ in rows])  # (T, 1), as the engine holds it
        d = np.array([[complex(re, im) for re, im in parts] for _, parts in rows])
        with np.errstate(over="ignore"):
            want, got = (d / s2).view(np.float64), (d * (1.0 / s2)).view(np.float64)
        # equal bits, or both an exact zero: division rounds a + b*0, the product a*c - b*0
        assert ((want.view(np.uint64) == got.view(np.uint64)) | ((want == 0) & (got == 0))).all()

        def decisions(statistic):
            with np.errstate(all="ignore"):
                try:
                    return (statistic() > delta).tolist()
                except ValueError as exc:
                    return str(exc)

        def by_division():  # the statistic as first written: conj(d) * (d / sigma2), with its imaginary-part check
            q = (d.conj() * (d / s2)).sum(axis=-1)
            if np.any(np.abs(q.imag) > 1e-10 * np.maximum(1.0, np.abs(q))):
                raise ValueError("quadratic form has a non-negligible imaginary part")
            return 2.0 * np.maximum(q.real, 0.0)

        assert decisions(lambda: quadratic_statistic(d, np.zeros_like(d), 1.0 / s2)) == decisions(by_division)


class TestDecisions:
    def test_zero_deviation_accepts(self):
        h = sample_complex_gaussian(stream(42, 0), 6, 1.0)
        assert not quadratic_statistic(h, h, 1.0) > 26.2

    def test_batch_decisions_match_single_rows(self):
        rng = stream(43, 0)
        z = sample_complex_gaussian(rng, 30, 1.0).reshape(5, 6)
        h = sample_complex_gaussian(rng, 6, 1.0)
        batch = quadratic_statistic(z, h, 1.0) > 9.0
        singles = [quadratic_statistic(z[i], h, 1.0) > 9.0 for i in range(5)]
        assert np.array_equal(batch, singles)

    @pytest.mark.parametrize("alpha", [0.01, 0.001])
    def test_local_false_alarm_calibration(self, alpha):
        # smaller-scale twin of the acceptance criterion (10^5 vs 10^6 trials)
        n_taps, trials, sigma2 = 6, 100_000, 1.0
        delta = solve_threshold(alpha, 2 * n_taps)
        noise = sample_complex_gaussian(stream(44, 0), trials * n_taps, sigma2)
        u = quadratic_statistic(noise.reshape(trials, n_taps), np.zeros(n_taps), 1.0 / sigma2) > delta
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

    def test_weight_validation(self):
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

    @pytest.mark.parametrize("t", [0.3, 0.5, 0.6, 0.7, 0.9])
    def test_weighted_average_depends_only_on_count(self, t):
        # the mean vote of c votes is c / n: every pattern with the same count decides alike,
        # and a mean vote equal to the threshold (7 of 10 at 0.7) accepts
        rule = FusionRule(kind=FusionKind.WEIGHTED_AVERAGE, avg_threshold=t)
        bits = np.arange(2**10)[:, None]
        u = ((bits >> np.arange(10)) & 1).astype(np.int64)
        assert np.array_equal(fuse(u, rule), u.sum(-1) / 10 > t)
        u = (stream(46, 0).random((4000, 100)) < np.linspace(0.05, 0.95, 4000)[:, None]).astype(np.int64)
        assert np.array_equal(fuse(u, rule), u.sum(-1) / 100 > t)

    def test_single_reports_node_zero(self):
        rule = FusionRule(kind=FusionKind.SINGLE)
        assert fuse([1, 0, 0], rule) is True
        assert fuse([0, 1, 1], rule) is False
        assert np.array_equal(fuse(np.array([[1, 0], [0, 1]]), rule), [True, False])


class TestFusedPfaAnalytic:
    def test_or_closed_form(self):
        assert fused_pfa_analytic(0.01, 10, FusionRule(kind=FusionKind.OR)) == pytest.approx(
            1 - 0.99**10, rel=1e-12
        )
        # at small rates 1 - (1 - a)^N cancels; the series N*a - C(N,2)*a^2 does not
        assert fused_pfa_analytic(1e-12, 10, FusionRule(kind=FusionKind.OR)) == pytest.approx(
            10e-12 - 45e-24, rel=1e-14, abs=0.0
        )

    def test_and_closed_form(self):
        assert fused_pfa_analytic(0.01, 10, FusionRule(kind=FusionKind.AND)) == pytest.approx(1e-20, rel=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(alpha=st.floats(min_value=0.0, max_value=1.0), n=st.integers(1, 200))
    def test_and_matches_binomial_sum(self, alpha, n):
        # P(every node alarms): the binomial sum's one term
        want = math.fsum(math.comb(n, k) * alpha**k * (1.0 - alpha) ** (n - k) for k in range(n, n + 1))
        assume(want >= 1e-200)  # below that the float oracle's term goes subnormal
        assert fused_pfa_analytic(alpha, n, FusionRule(kind=FusionKind.AND)) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", [10, 100])
    @pytest.mark.parametrize("t", [0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("alpha", [1e-3, 0.05, 0.3])
    def test_weighted_average_exact_binomial_tail(self, alpha, t, n):
        # exact rational oracle: c of n votes declare H1 iff c / n exceeds the decimal threshold
        a, cut = Fraction(alpha), Fraction(str(t))
        want = float(sum(math.comb(n, c) * a**c * (1 - a) ** (n - c) for c in range(n + 1) if Fraction(c, n) > cut))
        rule = FusionRule(kind=FusionKind.WEIGHTED_AVERAGE, avg_threshold=t)
        assert fused_pfa_analytic(alpha, n, rule) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_single_is_alpha(self):
        assert fused_pfa_analytic(0.01, 10, FusionRule(kind=FusionKind.SINGLE)) == 0.01

    @settings(max_examples=300, deadline=None)
    @given(alpha=st.floats(min_value=0.0, max_value=1.0), n=st.integers(1, 200))
    def test_or_matches_binomial_sum(self, alpha, n):
        # P(at least one alarm) as a sum of nonnegative terms: no cancellation
        want = math.fsum(
            math.comb(n, k) * alpha**k * (1.0 - alpha) ** (n - k) for k in range(1, n + 1)
        )
        assert fused_pfa_analytic(alpha, n, FusionRule(kind=FusionKind.OR)) == pytest.approx(want, rel=1e-12, abs=0.0)

    @settings(max_examples=300, deadline=None)
    @given(alpha=st.floats(min_value=0.0, max_value=1.0), n=st.integers(1, 200))
    def test_majority_matches_binomial_sum(self, alpha, n):
        # P(more than half alarm) as a sum of nonnegative terms
        want = math.fsum(
            math.comb(n, k) * alpha**k * (1.0 - alpha) ** (n - k) for k in range(n // 2 + 1, n + 1)
        )
        assume(want >= 1e-200)  # below that the float oracle's terms go subnormal
        assert fused_pfa_analytic(alpha, n, FusionRule(kind=FusionKind.MAJORITY)) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("alpha", [5e-324, 1e-310, 0.3])
    def test_majority_of_one_node_is_alpha(self, alpha):
        assert fused_pfa_analytic(alpha, 1, FusionRule(kind=FusionKind.MAJORITY)) == alpha

    def test_majority_deep_tail_exact(self):
        # exact rational oracle far below where a float sum of terms would do
        n, alpha = 38, 5.57e-16
        a = Fraction(alpha)
        want = float(sum(math.comb(n, k) * a**k * (1 - a) ** (n - k) for k in range(n // 2 + 1, n + 1)))
        assert want == pytest.approx(2.7743e-295, rel=1e-4)
        assert fused_pfa_analytic(alpha, n, FusionRule(kind=FusionKind.MAJORITY)) == want

    @settings(max_examples=300, deadline=None)
    @given(alpha=st.floats(min_value=0.0, max_value=1.0), n=st.integers(1, 60))
    def test_dominance(self, alpha, n):
        p = {kind: fused_pfa_analytic(alpha, n, FusionRule(kind=kind)) for kind in
             (FusionKind.AND, FusionKind.MAJORITY, FusionKind.SINGLE, FusionKind.OR)}
        slack = 1 + 1e-12  # n = 1, 2 make some rules coincide exactly
        assert 0.0 <= p[FusionKind.AND] <= p[FusionKind.MAJORITY] * slack
        assert p[FusionKind.MAJORITY] <= p[FusionKind.OR] * slack <= slack
        assert p[FusionKind.AND] <= p[FusionKind.SINGLE] * slack
        assert p[FusionKind.SINGLE] <= p[FusionKind.OR] * slack

    def test_majority_exact_binomial_sum(self):
        # independent oracle: explicit binomial tail via math.comb
        want = sum(math.comb(10, k) * 0.01**k * 0.99 ** (10 - k) for k in range(6, 11))
        got = fused_pfa_analytic(0.01, 10, FusionRule(kind=FusionKind.MAJORITY))
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(2.0289394126e-10, rel=1e-9)

    @pytest.mark.parametrize("kind", [FusionKind.OR, FusionKind.MAJORITY])
    def test_matches_empirical(self, kind):
        # smaller-scale twin of the acceptance criterion
        alpha, n, trials = 0.05, 7, 200_000
        gen = stream(45, 0)
        u = (gen.random((trials, n)) < alpha).astype(np.int64)
        emp = fuse(u, FusionRule(kind=kind)).mean()
        want = fused_pfa_analytic(alpha, n, FusionRule(kind=kind))
        sig = math.sqrt(want * (1 - want) / trials)
        assert abs(emp - want) < 5 * sig


class TestDetectorConfig:
    """The detector section of a run config: each threshold or target key is range-checked."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"delta": float("nan")},
            {"delta": float("inf")},
            {"delta": 0.0},
            {"delta_n": float("nan")},
            {"delta_n": -5.0},
            {"delta_n": float("inf")},
            {"target_pfa": float("nan")},
            {"target_pfa": 1.0},
            {"target_pfa_n": 0.0},
        ],
    )
    def test_nonfinite_or_out_of_range_rejected(self, kwargs):
        from cirauth.cli import ConfigError, build_run, load_config_file, parse_config

        (name, value), = kwargs.items()
        local = name.endswith("_n")
        values = parse_config(*load_config_file("fig3" if local else "fig2"))
        del values["detector.delta_n" if local else "detector.delta"]  # the preset's own threshold
        values[f"detector.{name}"] = (value,)
        with pytest.raises(ConfigError, match=rf"^detector\.{name} "):
            build_run(values)
