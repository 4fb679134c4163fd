import math

import numpy as np
import pytest

from cirauth.channel import ChannelConfig
from cirauth.detect import DetectorConfig, FusionKind, FusionRule
from cirauth.simkit import (
    CsCodecConfig,
    CurveComparisonError,
    DetectionCurve,
    Scenario,
    Scheme,
    Variant,
    estimate_curve,
    estimate_curves,
    snr_margin,
)

CHANNEL = ChannelConfig(n_nodes=10, n_taps=6, rho=0.9, pdp=(1.0,) * 6, normalize_kronecker=False)


def fc_scenario(**kw):
    args = dict(
        scheme=Scheme.FC_RAW,
        channel=CHANNEL,
        detector=DetectorConfig(delta=340.0),
        snr_grid_db=(0.0, 5.0),
        trials=200,
        seed=90,
    )
    args.update(kw)
    return Scenario(**args)


def fusion_scenario(**kw):
    args = dict(
        scheme=Scheme.LOCAL_FUSION,
        channel=CHANNEL,
        detector=DetectorConfig(delta_n=26.2),
        fusion=FusionRule(kind=FusionKind.MAJORITY),
        snr_grid_db=(5.0,),
        trials=200,
        seed=91,
    )
    args.update(kw)
    return Scenario(**args)


class TestScenarioValidation:
    def test_local_scheme_needs_fusion(self):
        with pytest.raises(ValueError):
            fusion_scenario(fusion=None)

    def test_fc_scheme_needs_threshold(self):
        with pytest.raises(ValueError):
            fc_scenario(detector=DetectorConfig(delta_n=26.2))

    def test_cs_scheme_needs_codec(self):
        with pytest.raises(ValueError):
            fc_scenario(scheme=Scheme.FC_RAW_CS)

    def test_codec_must_compress(self):
        with pytest.raises(ValueError):
            fc_scenario(scheme=Scheme.FC_RAW_CS, codec=CsCodecConfig(m=60))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            fc_scenario(snr_grid_db=())

    @pytest.mark.parametrize("snr", [float("inf"), float("-inf"), float("nan")])
    def test_nonfinite_grid_rejected(self, snr):
        with pytest.raises(ValueError):
            fc_scenario(snr_grid_db=(0.0, snr))


class TestRunTrial:
    """Single-trial behaviour, through ``estimate_curves`` with ``trials=1``."""

    def test_deterministic(self):
        sc = fc_scenario(trials=1, snr_grid_db=(5.0,))
        assert estimate_curves(sc) == estimate_curves(sc)

    def test_noiseless_alice_accepted(self):
        # at enormous SNR the H0 statistic collapses to ~0
        (curve,) = estimate_curves(fc_scenario(trials=1, snr_grid_db=(300.0,)))
        assert curve.p_fa == (0.0,)

    def test_noiseless_eve_rejected(self):
        # the H1 statistic scales like ||h_E - h_A||^2 / sigma^2
        (curve,) = estimate_curves(fc_scenario(trials=1, snr_grid_db=(300.0,)))
        assert curve.p_d == (1.0,)

    def test_all_schemes_execute(self):
        scenarios = [
            fc_scenario(trials=1, snr_grid_db=(5.0,)),
            fusion_scenario(trials=1),
            fc_scenario(
                scheme=Scheme.FC_RAW_CS,
                trials=1,
                snr_grid_db=(5.0,),
                detector=DetectorConfig(delta=340.0),
                codec=CsCodecConfig(m=48, basis="dct", max_atoms=12),
            ),
            fusion_scenario(
                scheme=Scheme.LOCAL_FUSION_CS,
                trials=1,
                codec=CsCodecConfig(m=7, basis="identity", max_atoms=3),
            ),
        ]
        for sc in scenarios:
            (curve,) = estimate_curves(sc)
            assert curve.p_d[0] in (0.0, 1.0) and curve.p_fa[0] in (0.0, 1.0)


class TestEstimateCurve:
    def test_single_trial_degenerate(self):
        curve = estimate_curve(fc_scenario(trials=1))
        assert all(p in (0.0, 1.0) for p in curve.p_d)
        assert curve.trials == 1

    def test_repeat_runs_identical(self):
        a = estimate_curve(fc_scenario())
        b = estimate_curve(fc_scenario())
        assert a == b

    def test_workers_do_not_change_counts(self):
        a = estimate_curves(fc_scenario(trials=90), workers=1)
        b = estimate_curves(fc_scenario(trials=90), workers=3)
        assert a == b

    def test_h0_calibration_tracks_alpha(self):
        # solved threshold at alpha: empirical false-alarm within 5 sigma,
        # independent of SNR
        alpha, trials = 0.05, 4000
        sc = fc_scenario(
            detector=DetectorConfig(target_pfa=alpha),
            snr_grid_db=(0.0, 10.0),
            trials=trials,
        )
        curve = estimate_curve(sc)
        sig = math.sqrt(alpha * (1 - alpha) / trials)
        for p in curve.p_fa:
            assert abs(p - alpha) < 5 * sig

    def test_pd_monotone_in_snr_within_noise(self):
        sc = fc_scenario(snr_grid_db=tuple(np.arange(-4.0, 6.0, 2.0)), trials=1500)
        curve = estimate_curve(sc)
        for i in range(len(curve.p_d) - 1):
            slack = 3 * (curve.p_d_stderr[i] + curve.p_d_stderr[i + 1])
            assert curve.p_d[i + 1] >= curve.p_d[i] - slack

    def test_pd_nonincreasing_in_delta_pointwise(self):
        # shared draws make the threshold sweep exactly nested
        variants = [
            Variant(label=f"delta={d}", detector=DetectorConfig(delta=d))
            for d in (260.0, 280.0, 300.0, 320.0, 340.0)
        ]
        curves = estimate_curves(fc_scenario(trials=400, snr_grid_db=(0.0, 3.0)), variants)
        for lo, hi in zip(curves, curves[1:]):
            assert all(a >= b for a, b in zip(lo.p_d, hi.p_d))

    def test_local_fusion_variants_share_draws(self):
        variants = [
            Variant(
                label=k.value,
                detector=DetectorConfig(delta_n=26.2),
                rule=FusionRule(kind=k),
            )
            for k in (FusionKind.OR, FusionKind.MAJORITY, FusionKind.AND)
        ]
        curves = estimate_curves(fusion_scenario(trials=500, snr_grid_db=(0.0,)), variants)
        p_or, p_maj, p_and = (c.p_d[0] for c in curves)
        assert p_or >= p_maj >= p_and

    def test_single_baseline_variant(self):
        # node 0 fires whenever AND fires, and OR fires whenever node 0 does
        variants = [
            Variant(label=k.value, detector=DetectorConfig(delta_n=26.2), rule=FusionRule(kind=k))
            for k in (FusionKind.OR, FusionKind.SINGLE, FusionKind.AND)
        ]
        curves = estimate_curves(fusion_scenario(trials=300, snr_grid_db=(0.0, 5.0)), variants)
        p_or, p_single, p_and = (c.p_d for c in curves)
        assert all(a >= b >= c for a, b, c in zip(p_or, p_single, p_and))
        assert p_or != p_single != p_and

    def test_local_variant_needs_rule(self):
        with pytest.raises(ValueError):
            estimate_curves(fusion_scenario(trials=1), [Variant("x", DetectorConfig(delta_n=26.2))])


class TestSnrMargin:
    def _curve(self, pd, label="c", snr=None):
        snr = tuple(snr if snr is not None else np.arange(len(pd), dtype=float))
        zeros = (0.0,) * len(pd)
        return DetectionCurve(
            scheme="fc_raw",
            label=label,
            snr_db=snr,
            p_d=tuple(pd),
            p_d_stderr=zeros,
            p_fa=zeros,
            p_fa_stderr=zeros,
            trials=100,
        )

    def test_identical_curves_zero_margin(self):
        a = self._curve([0.1, 0.5, 0.95, 1.0])
        assert snr_margin(a, a, 0.9) == 0.0

    def test_constructed_shift(self):
        pd = [0.1, 0.5, 0.95, 1.0]
        a = self._curve(pd, snr=[0.5, 1.5, 2.5, 3.5])
        b = self._curve(pd, snr=[0.0, 1.0, 2.0, 3.0])
        assert snr_margin(a, b, 0.9) == pytest.approx(0.5, abs=1e-12)

    def test_unreachable_target(self):
        a = self._curve([0.1, 0.2, 0.3, 0.4])
        b = self._curve([0.1, 0.5, 0.95, 1.0])
        with pytest.raises(CurveComparisonError):
            snr_margin(a, b, 0.9)

    def test_probability_bounds_validated(self):
        with pytest.raises(ValueError):
            self._curve([0.1, 1.5])


class TestCurveStructure:
    def test_vector_lengths_validated(self):
        with pytest.raises(ValueError):
            DetectionCurve(
                scheme="fc_raw",
                label="bad",
                snr_db=(0.0, 1.0),
                p_d=(0.5,),
                p_d_stderr=(0.1,),
                p_fa=(0.0,),
                p_fa_stderr=(0.0,),
                trials=10,
            )
