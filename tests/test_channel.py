import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cirauth.channel import (
    ChannelConfig,
    channel_block,
    exp_correlation_matrix,
    measure_block,
    noise_variance,
    stack_columns,
)
from cirauth.channel import _correlation_factor
from cirauth.numerics import complex_from_normals, standard_normal_rows, stream

from oracles import complex_normals


class TestExpCorrelation:
    def test_rho_zero_is_identity(self):
        assert np.array_equal(exp_correlation_matrix(7, 0.0), np.eye(7))

    def test_three_by_three(self):
        want = np.array([[1, 0.5, 0.25], [0.5, 1, 0.5], [0.25, 0.5, 1]])
        assert np.array_equal(exp_correlation_matrix(3, 0.5), want)  # powers of 1/2 are exact

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 100])
    def test_bits_match_scipy_toeplitz(self, n):
        from scipy.linalg import toeplitz

        for rho in (0.0, 0.3, 0.5, 0.9, 0.99, 1.0):
            got = exp_correlation_matrix(n, rho)
            assert got.dtype == np.float64
            assert np.array_equal(got, toeplitz(rho ** np.arange(n, dtype=np.float64))), rho

    @pytest.mark.parametrize("n", [2, 10, 100])
    def test_psd_over_rho_grid(self, n):
        for rho in np.linspace(0.0, 1.0, 11):
            eigmin = np.linalg.eigvalsh(exp_correlation_matrix(n, rho)).min()
            assert eigmin >= -1e-10

    def test_rho_out_of_range(self):
        with pytest.raises(ValueError):
            exp_correlation_matrix(4, 1.2)
        with pytest.raises(ValueError):
            exp_correlation_matrix(4, -0.1)


class TestCorrelationFactor:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 200),
        rho=st.one_of(st.sampled_from([0.0, 1.0, 1.0 - 2.0**-52]), st.floats(0.0, 1.0)),
    )
    def test_closed_form_factors_r(self, n, rho):
        factor, r = _correlation_factor(n, rho), exp_correlation_matrix(n, rho)
        assert np.array_equal(factor, np.tril(factor))
        assert np.abs(factor @ factor.T - r).max() <= 1e-13
        if rho <= 0.99:  # away from singular R, where LAPACK's factor is well-conditioned
            assert np.abs(factor - np.linalg.cholesky(r)).max() <= 1e-12


class TestChannelConfig:
    def test_default_pdp_uniform_unit_energy(self):
        cfg = ChannelConfig(n_nodes=4, n_taps=6)
        assert cfg.pdp == (pytest.approx(1 / 6),) * 6
        assert sum(cfg.pdp) == pytest.approx(1.0)

    def test_pdp_length_checked(self):
        with pytest.raises(ValueError):
            ChannelConfig(n_nodes=4, n_taps=6, pdp=(1.0, 1.0))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ChannelConfig(n_nodes=0, n_taps=6)
        with pytest.raises(ValueError):
            ChannelConfig(n_nodes=4, n_taps=6, rho=2.0)
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                ChannelConfig(n_nodes=4, n_taps=2, pdp=(1.0, bad))


class TestDrawChannel:
    def test_rho_zero_unnormalized_equals_iid_draw(self):
        cfg = ChannelConfig(n_nodes=5, n_taps=3, rho=0.0, normalize_kronecker=False)
        h_ab, h_eb = channel_block(standard_normal_rows(21, [0], 4 * 3 * 5), cfg)[0]
        # replay the draw stream by hand: alice's matrix comes first
        rng = stream(21, 0)
        scale = np.sqrt(cfg.pdp_array)[:, None]
        h_alice = complex_normals(rng, 15, 1.0).reshape(3, 5) * scale
        h_eve = complex_normals(rng, 15, 1.0).reshape(3, 5) * scale
        assert np.allclose(h_ab, h_alice, atol=1e-14)
        assert np.allclose(h_eb, h_eve, atol=1e-14)

    def test_rho_zero_normalized_scales_by_sqrt_n(self):
        base = ChannelConfig(n_nodes=5, n_taps=3, rho=0.0, normalize_kronecker=False)
        norm = ChannelConfig(n_nodes=5, n_taps=3, rho=0.0, normalize_kronecker=True)
        normals = standard_normal_rows(22, [0], 4 * 3 * 5)
        a = channel_block(normals, base)[0, 0]
        b = channel_block(normals, norm)[0, 0]
        assert np.allclose(b, a / np.sqrt(5), atol=1e-14)

    def test_adjacent_column_correlation(self):
        cfg = ChannelConfig(n_nodes=100, n_taps=6, rho=0.9, normalize_kronecker=False)
        num = 0.0
        den = 0.0
        for h in channel_block(standard_normal_rows(23, range(2000), 4 * 6 * 100), cfg)[:, 0]:
            num += np.real(np.sum(h[:, :-1].conj() * h[:, 1:]))
            den += np.sum(np.abs(h) ** 2)
        corr = num / (den * 99 / 100)
        assert corr == pytest.approx(0.9, abs=0.05)

    def test_trace_normalization_conserves_power(self):
        # with the 1/sqrt(tr R) factor the ensemble Frobenius power equals
        # the pdp total independently of rho
        for rho in (0.0, 0.9):
            cfg = ChannelConfig(n_nodes=10, n_taps=6, rho=rho, normalize_kronecker=True)
            draws = channel_block(standard_normal_rows(24, range(3000), 4 * 6 * 10), cfg)[:, 0]
            power = np.mean([np.sum(np.abs(h) ** 2) for h in draws])
            assert power == pytest.approx(sum(cfg.pdp), rel=0.03)

    def test_alice_eve_independent(self):
        cfg = ChannelConfig(n_nodes=4, n_taps=3, rho=0.5, normalize_kronecker=False)
        acc = 0.0
        power_a = 0.0
        power_e = 0.0
        for h_ab, h_eb in channel_block(standard_normal_rows(25, range(10_000), 4 * 3 * 4), cfg):
            acc += np.real(np.vdot(stack_columns(h_ab), stack_columns(h_eb)))
            power_a += np.sum(np.abs(h_ab) ** 2)
            power_e += np.sum(np.abs(h_eb) ** 2)
        assert abs(acc) / np.sqrt(power_a * power_e) < 0.05

    def test_tap_variances_follow_pdp(self):
        cfg = ChannelConfig(
            n_nodes=3, n_taps=4, rho=0.0, pdp=(0.4, 0.3, 0.2, 0.1), normalize_kronecker=False
        )
        draws = channel_block(standard_normal_rows(26, range(4000), 4 * 4 * 3), cfg)[:, 0]
        tap_power = np.mean(np.abs(draws) ** 2, axis=(0, 2))
        assert np.allclose(tap_power, cfg.pdp, rtol=0.08)


class TestStacking:
    def test_roundtrip_exact(self):
        h = complex_normals(stream(27, 0), 12, 1.0).reshape(3, 4)
        assert np.array_equal(stack_columns(h).reshape(4, 3).T, h)

    def test_node_major_order(self):
        h = np.arange(6.0).reshape(2, 3)  # 2 taps, 3 nodes
        assert np.array_equal(stack_columns(h), [0.0, 3.0, 1.0, 4.0, 2.0, 5.0])

    def test_batch_axes(self):
        h = np.arange(24.0).reshape(4, 2, 3)
        assert np.array_equal(stack_columns(h), np.stack([stack_columns(m) for m in h]))


_MEASURE_CFG = ChannelConfig(n_nodes=4, n_taps=3, rho=0.5, normalize_kronecker=False)


class TestMeasure:
    """``measure_block`` rows that share stream 30's channel draw, each with noise from its own stream."""

    def _measure(self, noise_normals, eve, sigma2):
        channel = np.tile(stream(30, 0).standard_normal(4 * 4 * 3), (len(noise_normals), 1))
        h_ab, h_eb = stack_columns(channel_block(channel[:1], _MEASURE_CFG)[0])
        t = len(noise_normals)
        z = measure_block(np.hstack([channel, noise_normals]), _MEASURE_CFG, np.full(t, eve), np.full(t, sigma2))[1]
        return h_ab, h_eb, z

    def test_noiseless_limit(self):
        h_ab, _, z = self._measure(stream(31, 0).standard_normal((1, 24)), False, 1e-30)
        assert np.abs(z[0] - h_ab).max() < 1e-12

    def test_noise_energy_accounting(self):
        trials = 10_000
        h, _, z = self._measure(standard_normal_rows(32, range(trials), 24), False, 1.0)
        acc = 0.0
        for z_t in z:
            acc += np.sum(np.abs(z_t - h) ** 2)
        assert acc / trials == pytest.approx(4 * 3, rel=0.03)

    def test_occupant_selects_channel(self):
        _, h_eb, z = self._measure(stream(33, 0).standard_normal((1, 24)), True, 1e-30)
        assert np.abs(z[0] - h_eb).max() < 1e-12

    def test_stream_advances_between_calls(self):
        # one stream's first and second 24 noise normals, as two rows
        _, _, z = self._measure(stream(34, 0).standard_normal((2, 24)), False, 1.0)
        assert not np.array_equal(z[0], z[1])

    def test_dimension_mismatch(self):
        # noise normals for 5 nodes against a 4-node channel
        with pytest.raises(ValueError):
            self._measure(stream(35, 0).standard_normal((1, 30)), False, 1.0)


class TestMeasureBlock:
    @pytest.mark.parametrize("occupant", ["alice", "eve"])
    @pytest.mark.parametrize("normalize", [False, True])
    def test_rows_equal_per_trial_draws(self, occupant, normalize):
        # row i must be bit-equal to the frozen reference on stream i's own draw, at its
        # own occupant and SNR; ``occupant`` is row 0's, and the block holds both.
        # numpy's vectorized 10 ** (-g / 10) differs from Python's at 22.0 and -25.0 dB
        cfg = ChannelConfig(n_nodes=5, n_taps=3, rho=0.7, normalize_kronecker=normalize)
        streams = [3, 11, 12, 900, 901, 7]
        snrs = [22.0, 22.0, -25.0, 0.3, -25.0, 13.7]
        eve = np.array([0, 1, 1, 0, 1, 0], dtype=bool) ^ (occupant == "eve")
        sigma2 = np.array([noise_variance(s) for s in snrs])
        assert not np.array_equal(10.0 ** (-np.array(snrs) / 10.0), sigma2)
        h_ab, z = measure_block(standard_normal_rows(36, streams, 6 * 5 * 3), cfg, eve, sigma2)
        for i, sid in enumerate(streams):
            row = stream(36, sid).standard_normal((1, 6 * 5 * 3))
            want_h_ab, want_z = _ref_measure_block(row, cfg, eve[i : i + 1], sigma2[i : i + 1])
            assert np.array_equal(h_ab[i], want_h_ab[0]) and np.array_equal(z[i], want_z[0])


# The measurement front end as first written (scaled copies, ``1j * x`` sums and masked
# adds), frozen here as the bit-level reference for the in-place version in ``src``.
def _ref_complex_from_normals(parts):
    half = parts.shape[-1] // 2
    parts = parts * math.sqrt(1.0 / 2.0)
    return parts[..., :half] + 1j * parts[..., half:]


def _ref_channel_block(normals, cfg):
    L, n = cfg.n_taps, cfg.n_nodes
    iid = _ref_complex_from_normals(normals.reshape(-1, 2 * L * n)).reshape(-1, L, n)
    h = (iid * np.sqrt(cfg.pdp_array)[:, None]).reshape(-1, n) @ _correlation_factor(n, cfg.rho).T
    if cfg.normalize_kronecker:
        h = h / math.sqrt(n)
    return h.reshape(-1, 2, L, n)


def _ref_noise_rows(normals, sigma2, n_taps):
    unit = _ref_complex_from_normals(normals).reshape(len(normals), -1, n_taps)
    return (unit * np.sqrt(sigma2)[..., None]).reshape(len(normals), -1)


def _ref_measure_block(normals, cfg, eve, sigma2):
    k = 4 * cfg.n_taps * cfg.n_nodes
    h = stack_columns(_ref_channel_block(normals[:, :k], cfg))
    z = _ref_noise_rows(normals[:, k:], np.asarray(sigma2)[:, None], cfg.n_taps)
    eve = np.asarray(eve, dtype=bool)[:, None]
    np.add(z, h[:, 0], out=z, where=~eve)
    np.add(z, h[:, 1], out=z, where=eve)
    return h[:, 0], z


_POSITIVE = st.floats(1e-3, 1e3)


@st.composite
def _front_end_cases(draw):
    n, L = draw(st.integers(1, 6), label="nodes"), draw(st.integers(1, 4), label="taps")
    cfg = ChannelConfig(
        n_nodes=n,
        n_taps=L,
        rho=draw(st.sampled_from([0.0, 0.5, 1.0]), label="rho"),
        pdp=draw(st.lists(st.floats(0.0, 4.0), min_size=L, max_size=L), label="pdp"),
        normalize_kronecker=draw(st.booleans(), label="normalize"),
    )
    t = draw(st.integers(1, 5), label="trials")
    eve = np.array(draw(st.lists(st.booleans(), min_size=t, max_size=t), label="eve"), dtype=bool)
    sigma2 = np.array(draw(st.lists(_POSITIVE, min_size=t, max_size=t), label="sigma2"))
    return cfg, eve, sigma2, draw(st.integers(0, (1 << 64) - 1), label="seed")


class TestFrontEndReference:
    """Every stage from normals to measurements is bit-equal to the frozen reference."""

    @settings(max_examples=60, deadline=None)
    @given(parts=st.integers(0, 6), seed=st.integers(0, 1 << 32))
    def test_complex_from_normals(self, parts, seed):
        normals = np.random.default_rng(seed).standard_normal((3, 2 * parts))
        got = complex_from_normals(normals)
        assert got.shape == (3, parts) and got.dtype == np.complex128
        assert np.array_equal(got, _ref_complex_from_normals(normals))

    @settings(max_examples=60, deadline=None)
    @given(case=_front_end_cases())
    def test_measure_block_and_per_trial_api(self, case):
        cfg, eve, sigma2, seed = case
        t, width = len(eve), 2 * cfg.n_nodes * cfg.n_taps
        normals = np.random.default_rng(seed).standard_normal((t, 3 * width))
        h_ab, z = measure_block(normals, cfg, eve, sigma2)
        want_h_ab, want_z = _ref_measure_block(normals, cfg, eve, sigma2)
        assert h_ab.shape == z.shape == (t, width // 2)
        assert np.array_equal(h_ab, want_h_ab) and np.array_equal(z, want_z)
        # an empty block keeps its shapes (the reference reshapes cannot infer them)
        h_ab, z = measure_block(normals[:0], cfg, eve[:0], sigma2[:0])
        assert h_ab.shape == z.shape == (0, width // 2) and z.dtype == np.complex128
        assert channel_block(normals[:0, : 2 * width], cfg).shape == (0, 2, cfg.n_taps, cfg.n_nodes)

        # one trial drawn as per trial: its stream's channel normals, then its noise normals,
        # in two calls, against the same stream as a one-row block
        for occupant in (False, True):
            ref = stream(seed, 5)
            want = _ref_channel_block(ref.standard_normal((1, 2 * width)), cfg)[0]
            v = _ref_noise_rows(ref.standard_normal((1, width)), sigma2[:1, None], cfg.n_taps)[0]
            h_ab, z = measure_block(standard_normal_rows(seed, [5], 3 * width), cfg, [occupant], sigma2[:1])
            assert np.array_equal(h_ab[0], stack_columns(want[0]))
            assert np.array_equal(z[0], stack_columns(want[int(occupant)]) + v)
