import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cirauth.channel import (
    ChannelConfig,
    NoiseModel,
    Occupant,
    channel_block,
    draw_channel,
    exp_correlation_matrix,
    measure,
    measure_block,
    noise_variance,
    stack_columns,
)
from cirauth.channel import _correlation_factor
from cirauth.numerics import Rng, complex_from_normals, sample_complex_gaussian, standard_normal_rows


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
        ens = draw_channel(Rng(21, 0), cfg)
        # replay the draw stream by hand: alice's matrix comes first
        rng = Rng(21, 0)
        scale = np.sqrt(cfg.pdp_array)[:, None]
        h_alice = sample_complex_gaussian(rng, 15, 1.0).reshape(3, 5) * scale
        h_eve = sample_complex_gaussian(rng, 15, 1.0).reshape(3, 5) * scale
        assert np.allclose(ens.h_ab, h_alice, atol=1e-14)
        assert np.allclose(ens.h_eb, h_eve, atol=1e-14)

    def test_rho_zero_normalized_scales_by_sqrt_n(self):
        base = ChannelConfig(n_nodes=5, n_taps=3, rho=0.0, normalize_kronecker=False)
        norm = ChannelConfig(n_nodes=5, n_taps=3, rho=0.0, normalize_kronecker=True)
        a = draw_channel(Rng(22, 0), base)
        b = draw_channel(Rng(22, 0), norm)
        assert np.allclose(b.h_ab, a.h_ab / np.sqrt(5), atol=1e-14)

    def test_adjacent_column_correlation(self):
        cfg = ChannelConfig(n_nodes=100, n_taps=6, rho=0.9, normalize_kronecker=False)
        num = 0.0
        den = 0.0
        for t in range(2000):
            h = draw_channel(Rng(23, t), cfg).h_ab
            num += np.real(np.sum(h[:, :-1].conj() * h[:, 1:]))
            den += np.sum(np.abs(h) ** 2)
        corr = num / (den * 99 / 100)
        assert corr == pytest.approx(0.9, abs=0.05)

    def test_trace_normalization_conserves_power(self):
        # with the 1/sqrt(tr R) factor the ensemble Frobenius power equals
        # the pdp total independently of rho
        for rho in (0.0, 0.9):
            cfg = ChannelConfig(n_nodes=10, n_taps=6, rho=rho, normalize_kronecker=True)
            power = np.mean(
                [np.sum(np.abs(draw_channel(Rng(24, t), cfg).h_ab) ** 2) for t in range(3000)]
            )
            assert power == pytest.approx(sum(cfg.pdp), rel=0.03)

    def test_alice_eve_independent(self):
        cfg = ChannelConfig(n_nodes=4, n_taps=3, rho=0.5, normalize_kronecker=False)
        acc = 0.0
        power_a = 0.0
        power_e = 0.0
        for t in range(10_000):
            ens = draw_channel(Rng(25, t), cfg)
            acc += np.real(np.vdot(stack_columns(ens.h_ab), stack_columns(ens.h_eb)))
            power_a += np.sum(np.abs(ens.h_ab) ** 2)
            power_e += np.sum(np.abs(ens.h_eb) ** 2)
        assert abs(acc) / np.sqrt(power_a * power_e) < 0.05

    def test_tap_variances_follow_pdp(self):
        cfg = ChannelConfig(
            n_nodes=3, n_taps=4, rho=0.0, pdp=(0.4, 0.3, 0.2, 0.1), normalize_kronecker=False
        )
        draws = np.stack([draw_channel(Rng(26, t), cfg).h_ab for t in range(4000)])
        tap_power = np.mean(np.abs(draws) ** 2, axis=(0, 2))
        assert np.allclose(tap_power, cfg.pdp, rtol=0.08)


class TestStacking:
    def test_roundtrip_exact(self):
        h = sample_complex_gaussian(Rng(27, 0), 12, 1.0).reshape(3, 4)
        assert np.array_equal(stack_columns(h).reshape(4, 3).T, h)

    def test_node_major_order(self):
        h = np.arange(6.0).reshape(2, 3)  # 2 taps, 3 nodes
        assert np.array_equal(stack_columns(h), [0.0, 3.0, 1.0, 4.0, 2.0, 5.0])

    def test_batch_axes(self):
        h = np.arange(24.0).reshape(4, 2, 3)
        assert np.array_equal(stack_columns(h), np.stack([stack_columns(m) for m in h]))


class TestNoiseModel:
    def test_snr_definition(self):
        nm = NoiseModel.from_snr_db(10.0, n_nodes=3, n_taps=2)
        assert nm.sigma2 == (pytest.approx(0.1),) * 3

    def test_apply_inverse_identity_cov(self):
        nm = NoiseModel(sigma2=(0.5, 2.0), n_taps=2)
        d = np.array([1.0, 1.0, 1.0, 1.0])
        assert np.allclose(nm.apply_inverse(d), [2.0, 2.0, 0.5, 0.5])

    def test_invalid_sigma(self):
        for bad in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                NoiseModel(sigma2=(bad,), n_taps=2)


class TestMeasure:
    def _setup(self, sigma2=1.0):
        cfg = ChannelConfig(n_nodes=4, n_taps=3, rho=0.5, normalize_kronecker=False)
        ens = draw_channel(Rng(30, 0), cfg)
        nm = NoiseModel(sigma2=(sigma2,) * 4, n_taps=3)
        return cfg, ens, nm

    def test_noiseless_limit(self):
        _, ens, _ = self._setup()
        nm = NoiseModel(sigma2=(1e-30,) * 4, n_taps=3)
        batch = measure(Rng(31, 0), ens, Occupant.ALICE, nm)
        assert np.abs(batch.z_star - stack_columns(ens.h_ab)).max() < 1e-12

    def test_noise_energy_accounting(self):
        _, ens, nm = self._setup(sigma2=1.0)
        h = stack_columns(ens.h_ab)
        acc = 0.0
        trials = 10_000
        for t in range(trials):
            z = measure(Rng(32, t), ens, Occupant.ALICE, nm).z_star
            acc += np.sum(np.abs(z - h) ** 2)
        assert acc / trials == pytest.approx(4 * 3, rel=0.03)

    def test_occupant_selects_channel(self):
        _, ens, _ = self._setup()
        nm = NoiseModel(sigma2=(1e-30,) * 4, n_taps=3)
        z_eve = measure(Rng(33, 0), ens, Occupant.EVE, nm).z_star
        assert np.abs(z_eve - stack_columns(ens.h_eb)).max() < 1e-12

    def test_stream_advances_between_calls(self):
        _, ens, nm = self._setup()
        rng = Rng(34, 0)
        z1 = measure(rng, ens, Occupant.ALICE, nm).z_star
        z2 = measure(rng, ens, Occupant.ALICE, nm).z_star
        assert not np.array_equal(z1, z2)

    def test_dimension_mismatch(self):
        _, ens, _ = self._setup()
        bad = NoiseModel(sigma2=(1.0,) * 5, n_taps=3)
        with pytest.raises(ValueError):
            measure(Rng(35, 0), ens, Occupant.ALICE, bad)


class TestMeasureBlock:
    @pytest.mark.parametrize("occupant", [Occupant.ALICE, Occupant.EVE])
    @pytest.mark.parametrize("normalize", [False, True])
    def test_rows_equal_per_trial_draws(self, occupant, normalize):
        # row i must be bit-equal to draw_channel then measure on stream i, at its own
        # occupant and SNR; ``occupant`` is row 0's, and the block holds both.
        # numpy's vectorized 10 ** (-g / 10) differs from Python's at 22.0 and -25.0 dB
        cfg = ChannelConfig(n_nodes=5, n_taps=3, rho=0.7, normalize_kronecker=normalize)
        streams = [3, 11, 12, 900, 901, 7]
        snrs = [22.0, 22.0, -25.0, 0.3, -25.0, 13.7]
        eve = np.array([0, 1, 1, 0, 1, 0], dtype=bool) ^ (occupant is Occupant.EVE)
        sigma2 = np.array([noise_variance(s) for s in snrs])
        assert not np.array_equal(10.0 ** (-np.array(snrs) / 10.0), sigma2)
        h_ab, z = measure_block(standard_normal_rows(36, streams, 6 * 5 * 3), cfg, eve, sigma2)
        for i, sid in enumerate(streams):
            rng = Rng(36, sid)
            ens = draw_channel(rng, cfg)
            occ = Occupant.EVE if eve[i] else Occupant.ALICE
            assert np.array_equal(h_ab[i], stack_columns(ens.h_ab))
            assert np.array_equal(z[i], measure(rng, ens, occ, NoiseModel.from_snr_db(snrs[i], 5, 3)).z_star)


# The measurement front end as first written (scaled copies, ``1j * x`` sums and masked
# adds), frozen here as the bit-level reference for the in-place version in ``src``.
def _ref_complex_from_normals(parts, variance=1.0):
    half = parts.shape[-1] // 2
    parts = parts * math.sqrt(variance / 2.0)
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
    node_sigma2 = tuple(draw(st.lists(_POSITIVE, min_size=n, max_size=n), label="node sigma2"))
    return cfg, eve, sigma2, node_sigma2, draw(st.integers(0, (1 << 64) - 1), label="seed")


class TestFrontEndReference:
    """Every stage from normals to measurements is bit-equal to the frozen reference."""

    @settings(max_examples=60, deadline=None)
    @given(parts=st.integers(0, 6), variance=_POSITIVE, seed=st.integers(0, 1 << 32))
    def test_complex_from_normals(self, parts, variance, seed):
        normals = np.random.default_rng(seed).standard_normal((3, 2 * parts))
        for args in ((normals,), (normals, variance)):
            got = complex_from_normals(*args)
            assert got.shape == (3, parts) and got.dtype == np.complex128
            assert np.array_equal(got, _ref_complex_from_normals(*args))

    @settings(max_examples=60, deadline=None)
    @given(case=_front_end_cases())
    def test_measure_block_and_per_trial_api(self, case):
        cfg, eve, sigma2, node_sigma2, seed = case
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

        noise = NoiseModel(sigma2=node_sigma2, n_taps=cfg.n_taps)
        for occupant in Occupant:
            rng, ref = Rng(seed, 5), Rng(seed, 5)
            ens = draw_channel(rng, cfg)
            want = _ref_channel_block(ref.standard_normal((1, 2 * width)), cfg)[0]
            assert np.array_equal(ens.h_ab, want[0]) and np.array_equal(ens.h_eb, want[1])
            got = measure(rng, ens, occupant, noise).z_star
            h = stack_columns(want[0] if occupant is Occupant.ALICE else want[1])
            v = _ref_noise_rows(ref.standard_normal((1, width)), np.asarray(node_sigma2), cfg.n_taps)[0]
            assert np.array_equal(got, h + v)
