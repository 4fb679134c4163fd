import math

import numpy as np
import pytest
from scipy import stats

from cirauth.numerics import (
    DecompositionError,
    Rng,
    chi2_cdf,
    chi2_quantile,
    cholesky,
    sample_complex_gaussian,
)


class TestRng:
    def test_same_address_same_sequence(self):
        a = Rng(123, 7).standard_normal(64)
        b = Rng(123, 7).standard_normal(64)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = Rng(123, 7).standard_normal(64)
        b = Rng(123, 8).standard_normal(64)
        assert not np.array_equal(a, b)

    def test_substream_matches_direct_construction(self):
        root = Rng(9, 0)
        forked = root.substream(42)
        assert np.array_equal(forked.standard_normal(8), Rng(9, 42).standard_normal(8))

    def test_substreams_uncorrelated(self):
        x = Rng(5, 1).standard_normal(100_000)
        y = Rng(5, 2).standard_normal(100_000)
        corr = np.dot(x, y) / (np.linalg.norm(x) * np.linalg.norm(y))
        assert abs(corr) < 0.02

    def test_address_bounds(self):
        with pytest.raises(ValueError):
            Rng(-1)
        with pytest.raises(ValueError):
            Rng(0, 1 << 64)


class TestComplexGaussian:
    def test_deterministic(self):
        a = sample_complex_gaussian(Rng(1, 0), 4, 1.0)
        b = sample_complex_gaussian(Rng(1, 0), 4, 1.0)
        assert np.array_equal(a, b)

    def test_moments(self):
        v = sample_complex_gaussian(Rng(2, 0), 100_000, 2.0)
        assert abs(v.mean()) < 0.02
        assert 1.95 < np.mean(np.abs(v) ** 2) < 2.05
        # circular symmetry: real and imaginary parts carry half the power each
        assert abs(np.var(v.real) - 1.0) < 0.03
        assert abs(np.var(v.imag) - 1.0) < 0.03

    def test_empty(self):
        v = sample_complex_gaussian(Rng(3, 0), 0, 1.0)
        assert v.shape == (0,)
        assert v.dtype == np.complex128

    def test_invalid_variance(self):
        with pytest.raises(ValueError):
            sample_complex_gaussian(Rng(3, 0), 4, 0.0)
        with pytest.raises(ValueError):
            sample_complex_gaussian(Rng(3, 0), 4, -1.0)


class TestChi2:
    def test_at_zero(self):
        for dof in (1, 2, 12, 120):
            assert chi2_cdf(0.0, dof) == 0.0

    def test_exponential_closed_form(self):
        # chi-squared with 2 dof is Exp(1/2)
        assert chi2_cdf(2.0, 2) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)

    def test_reference_threshold_point(self):
        assert chi2_cdf(26.2, 12) == pytest.approx(0.990, abs=5e-4)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            chi2_cdf(-0.1, 4)

    def test_monotone(self):
        for dof in (2, 12, 1200):
            xs = np.linspace(0, 3 * dof, 50)
            vals = [chi2_cdf(x, dof) for x in xs]
            assert np.all(np.diff(vals) >= 0)

    def test_matches_scipy(self):
        for dof in (2, 6, 12, 120, 1200):
            for x in (0.5, dof / 2, dof, 2 * dof):
                assert chi2_cdf(x, dof) == pytest.approx(stats.chi2.cdf(x, dof), abs=1e-10)

    def test_quantile_reference_values(self):
        assert chi2_quantile(0.99, 12) == pytest.approx(26.217, abs=0.01)
        assert chi2_quantile(0.999, 12) == pytest.approx(32.909, abs=0.01)

    def test_quantile_edges(self):
        assert chi2_quantile(0.0, 7) == 0.0
        with pytest.raises(ValueError):
            chi2_quantile(1.0, 7)
        with pytest.raises(ValueError):
            chi2_quantile(-0.1, 7)

    def test_quantile_roundtrip(self):
        for dof in (2, 12, 120, 1200):
            for x in (0.3 * dof, dof, 1.3 * dof):
                p = chi2_cdf(x, dof)
                if p >= 1.0:  # saturated in float, nothing to invert
                    continue
                assert abs(chi2_cdf(chi2_quantile(p, dof), dof) - p) < 1e-8

    def test_quantile_matches_scipy(self):
        # scipy's own chi2 distribution against the incomplete-gamma inverse
        for dof in (2, 12, 120):
            for p in (0.1, 0.5, 0.9, 0.99, 0.9999):
                assert chi2_quantile(p, dof) == pytest.approx(stats.chi2.ppf(p, dof), rel=1e-9)

    @pytest.mark.parametrize("k", [1, 6])
    def test_sampled_statistic_ks(self, k):
        # 2 * sum of k squared CN(0,1) magnitudes should be chi-squared(2k)
        rng = Rng(77, k)
        draws = sample_complex_gaussian(rng, 100_000 * k, 1.0).reshape(100_000, k)
        samples = 2.0 * np.sum(np.abs(draws) ** 2, axis=1)
        result = stats.kstest(samples, lambda x: chi2_cdf(x, 2 * k))
        assert result.pvalue > 0.001


class TestCholesky:
    def test_identity(self):
        assert np.array_equal(cholesky(np.eye(5)), np.eye(5))

    def test_two_by_two_closed_form(self):
        a = np.array([[1.0, 0.5], [0.5, 1.0]])
        L = cholesky(a)
        assert np.abs(L @ L.T - a).max() < 1e-12
        assert L[0, 1] == 0.0

    def test_construct_and_verify(self):
        rng = Rng(11, 0)
        b = sample_complex_gaussian(rng, 36, 1.0).reshape(6, 6)
        a = b @ b.conj().T
        L = cholesky(a)
        assert np.abs(L @ L.conj().T - a).max() / np.abs(a).max() < 1e-10

    def test_roundtrip_many_instances(self):
        rng = Rng(12, 0)
        for k in range(100):
            dim = 2 + k % 7
            b = sample_complex_gaussian(rng, dim * dim, 1.0).reshape(dim, dim)
            a = b @ b.conj().T + 0.1 * np.eye(dim)
            L = cholesky(a)
            assert np.abs(L @ L.conj().T - a).max() / np.abs(a).max() < 1e-10

    def test_semidefinite_clamped(self):
        a = np.ones((5, 5))  # rank one, strictly semidefinite
        L = cholesky(a)
        assert np.abs(L @ L.T - a).max() < 1e-12
        assert np.tril(L, -1)[1:, 1:].sum() == 0.0

    def test_non_hermitian_rejected(self):
        with pytest.raises(DecompositionError):
            cholesky(np.array([[1.0, 0.2], [0.0, 1.0]]))

    def test_indefinite_rejected(self):
        with pytest.raises(DecompositionError):
            cholesky(np.array([[1.0, 0.0], [0.0, -1.0]]))

