import numpy as np
import pytest

from cirauth.channel import (
    ChannelConfig,
    NoiseModel,
    Occupant,
    draw_channel,
    exp_correlation_matrix,
    measure,
    stack_columns,
)
from cirauth.numerics import Rng, sample_complex_gaussian


class TestExpCorrelation:
    def test_rho_zero_is_identity(self):
        assert np.array_equal(exp_correlation_matrix(7, 0.0), np.eye(7))

    def test_three_by_three(self):
        want = np.array([[1, 0.5, 0.25], [0.5, 1, 0.5], [0.25, 0.5, 1]])
        assert np.allclose(exp_correlation_matrix(3, 0.5), want)

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


class TestNoiseModel:
    def test_snr_definition(self):
        nm = NoiseModel.from_snr_db(10.0, n_nodes=3, n_taps=2)
        assert nm.sigma2 == (pytest.approx(0.1),) * 3

    def test_apply_inverse_identity_cov(self):
        nm = NoiseModel(sigma2=(0.5, 2.0), n_taps=2)
        d = np.array([1.0, 1.0, 1.0, 1.0])
        assert np.allclose(nm.apply_inverse(d), [2.0, 2.0, 0.5, 0.5])

    def test_apply_inverse_general_cov(self):
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        nm = NoiseModel(sigma2=(0.7, 1.3), n_taps=2, base_cov=cov)
        d = sample_complex_gaussian(Rng(28, 0), 4, 1.0)
        got = nm.apply_inverse(d)
        want = np.concatenate(
            [np.linalg.solve(0.7 * cov, d[:2]), np.linalg.solve(1.3 * cov, d[2:])]
        )
        assert np.allclose(got, want, atol=1e-12)

    def test_sample_covariance_general_cov(self):
        cov = np.array([[1.5, 0.6], [0.6, 1.0]])
        nm = NoiseModel(sigma2=(2.0,), n_taps=2, base_cov=cov)
        draws = np.stack([nm.sample_stacked(Rng(29, t)) for t in range(20_000)])
        emp = draws.conj().T @ draws / draws.shape[0]
        assert np.allclose(emp, 2.0 * cov, atol=0.1)

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
