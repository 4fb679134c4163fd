from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from cirauth.numerics import (
    DecompositionError,
    cholesky,
    sample_complex_gaussian,
    standard_normal_rows,
    stream,
)

U64 = st.integers(0, (1 << 64) - 1)


class TestRng:
    def test_same_address_same_sequence(self):
        a = stream(123, 7).standard_normal(64)
        b = stream(123, 7).standard_normal(64)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = stream(123, 7).standard_normal(64)
        b = stream(123, 8).standard_normal(64)
        assert not np.array_equal(a, b)

    def test_substreams_uncorrelated(self):
        x = stream(5, 1).standard_normal(100_000)
        y = stream(5, 2).standard_normal(100_000)
        corr = np.dot(x, y) / (np.linalg.norm(x) * np.linalg.norm(y))
        assert abs(corr) < 0.02

    def test_address_bounds(self):
        with pytest.raises(ValueError):
            stream(-1)
        with pytest.raises(ValueError):
            stream(0, 1 << 64)


class TestStandardNormalRows:
    @settings(max_examples=100, deadline=None)
    @given(seed=U64, stream_ids=st.lists(U64, min_size=1, max_size=6), width=st.integers(0, 40))
    def test_rows_equal_fresh_streams(self, seed, stream_ids, width):
        block = standard_normal_rows(seed, stream_ids, width)
        assert block.shape == (len(stream_ids), width)
        for row, sid in zip(block, stream_ids):
            assert np.array_equal(row, stream(seed, sid).standard_normal(width))

    def test_empty_block(self):
        assert standard_normal_rows(1, [], 5).shape == (0, 5)

    def test_address_bounds(self):
        with pytest.raises(ValueError):
            standard_normal_rows(-1, [0], 3)
        with pytest.raises(ValueError):
            standard_normal_rows(0, [0, 1 << 64], 3)

    @pytest.mark.parametrize("position", [0, 2, 4])  # first, middle, last
    @pytest.mark.parametrize("bad", [-1, 1 << 64])
    def test_out_of_range_id_raises_before_drawing(self, position, bad):
        ids = [3, 1 << 63, 4, 0, (1 << 64) - 1]
        ids[position] = bad
        with mock.patch.object(np.random, "Generator", wraps=np.random.Generator) as gen:
            with pytest.raises(ValueError, match=f"stream_id .* got {bad}"):
                standard_normal_rows(7, ids, 3)
        gen.assert_not_called()


class TestComplexGaussian:
    def test_deterministic(self):
        a = sample_complex_gaussian(stream(1, 0), 4, 1.0)
        b = sample_complex_gaussian(stream(1, 0), 4, 1.0)
        assert np.array_equal(a, b)

    def test_moments(self):
        v = sample_complex_gaussian(stream(2, 0), 100_000, 2.0)
        assert abs(v.mean()) < 0.02
        assert 1.95 < np.mean(np.abs(v) ** 2) < 2.05
        # circular symmetry: real and imaginary parts carry half the power each
        assert abs(np.var(v.real) - 1.0) < 0.03
        assert abs(np.var(v.imag) - 1.0) < 0.03

    def test_empty(self):
        v = sample_complex_gaussian(stream(3, 0), 0, 1.0)
        assert v.shape == (0,)
        assert v.dtype == np.complex128

    def test_invalid_variance(self):
        for variance in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                sample_complex_gaussian(stream(3, 0), 4, variance)


class TestChi2:
    @pytest.mark.parametrize("k", [1, 6])
    def test_sampled_statistic_ks(self, k):
        # 2 * sum of k squared CN(0,1) magnitudes should be chi-squared(2k)
        rng = stream(77, k)
        draws = sample_complex_gaussian(rng, 100_000 * k, 1.0).reshape(100_000, k)
        samples = 2.0 * np.sum(np.abs(draws) ** 2, axis=1)
        result = stats.kstest(samples, stats.chi2(2 * k).cdf)
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
        rng = stream(11, 0)
        b = sample_complex_gaussian(rng, 36, 1.0).reshape(6, 6)
        a = b @ b.conj().T
        L = cholesky(a)
        assert np.abs(L @ L.conj().T - a).max() / np.abs(a).max() < 1e-10

    def test_roundtrip_many_instances(self):
        rng = stream(12, 0)
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

