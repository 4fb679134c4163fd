import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cirauth import cli, simkit, sparse
from cirauth.channel import ChannelConfig, measure_block, noise_variance
from cirauth.detect import DetectorConfig, FusionKind, FusionRule, fuse, quadratic_statistic
from cirauth.numerics import standard_normal_rows
from cirauth.simkit import (
    CsCodecConfig,
    CurveComparisonError,
    DetectionCurve,
    Scenario,
    Scheme,
    Variant,
    estimate_curve,
    estimate_curves,
    scenario_codec,
    snr_margin,
)
from cirauth.sparse import compress, reconstruct_decisions, reconstruct_raw

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

    def test_decision_recovery_needs_identity_basis(self):
        # decision vectors are sparse only in the canonical basis: reject DCT before any trial
        with pytest.raises(ValueError, match="^basis must be identity"):
            fusion_scenario(scheme=Scheme.LOCAL_FUSION_CS, codec=CsCodecConfig(m=7, basis="dct"))
        fusion_scenario(scheme=Scheme.LOCAL_FUSION_CS, codec=CsCodecConfig(m=7, basis="identity"))
        fc_scenario(scheme=Scheme.FC_RAW_CS, codec=CsCodecConfig(m=48, basis="dct"))

    def test_scheme_families(self):
        assert [s.value for s in Scheme if s.local] == ["local_fusion", "local_fusion_cs"]
        assert [s.value for s in Scheme if s.compressed] == ["fc_raw_cs", "local_fusion_cs"]

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

    @pytest.mark.parametrize("workers", [0, -4])
    def test_nonpositive_workers_rejected(self, workers):
        with pytest.raises(ValueError, match="workers must be positive"):
            estimate_curves(fc_scenario(trials=1), workers=workers)

    def test_workers_do_not_change_counts(self):
        a = estimate_curves(fc_scenario(trials=90), workers=1)
        b = estimate_curves(fc_scenario(trials=90), workers=3)
        assert a == b

    def test_pool_no_larger_than_tasks_or_cpus(self, monkeypatch):
        # a fork pool starts every worker at its first submit, so --workers 64 on
        # 2 trials must ask for 2 processes, and a single CPU for none
        import concurrent.futures

        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        sc = fc_scenario(trials=1, snr_grid_db=(5.0,))
        one = estimate_curves(sc, workers=1)
        for cpus, want in ((64, [2]), (1, [])):
            sizes.clear()
            monkeypatch.setattr(simkit.os, "sched_getaffinity", lambda pid: set(range(cpus)))
            assert estimate_curves(sc, workers=64) == one
            assert sizes == want

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


def _oracle_counts(scenario: Scenario, variants: list[Variant]) -> tuple[np.ndarray, np.ndarray]:
    """(H1, H0) counts, shape (SNR points, 2V), one trial at a time.

    Each trial is a one-row block of the public pieces: its stream's
    normals, ``measure_block``, the statistic, and the fusion rule.
    Columns are every variant on the scheme's report, then every variant
    on the uncompressed report (the ``no_cs`` twin).  Trial t at SNR
    index s under hypothesis h (1 = eve) owns stream (s << 33) | (h << 32) | t.
    """
    cfg = scenario.channel
    n, L = cfg.n_nodes, cfg.n_taps
    codec = scenario_codec(scenario) if scenario.codec is not None else None
    local = scenario.scheme in (Scheme.LOCAL_FUSION, Scheme.LOCAL_FUSION_CS)
    dets = [v.detector.resolve(n, L) for v in variants]
    counts = np.zeros((2, len(scenario.snr_grid_db), 2 * len(variants)), dtype=np.int64)  # alice, eve
    for si, snr in enumerate(scenario.snr_grid_db):
        sigma2 = noise_variance(snr)
        for bit in (1, 0):
            for t in range(scenario.trials):
                normals = standard_normal_rows(scenario.seed, [(si << 33) | (bit << 32) | t], 6 * n * L)
                (h,), (z,) = measure_block(normals, cfg, [bit], [sigma2])
                if not local:
                    z_cs = z if codec is None else reconstruct_raw(compress(z, codec), codec)
                    stats = [quadratic_statistic(r, h, 1.0 / sigma2) for r in (z_cs, z)]
                    row = [stat > d.delta for stat in stats for d in dets]
                else:
                    stats_n = quadratic_statistic(z.reshape(n, L), h.reshape(n, L), 1.0 / sigma2)
                    us = [(stats_n > d.delta_n).astype(np.int64) for d in dets]
                    if codec is not None:
                        us_cs = [reconstruct_decisions(compress(u.astype(float), codec), codec) for u in us]
                    else:
                        us_cs = us
                    row = [fuse(u, v.rule) for u_list in (us_cs, us) for u, v in zip(u_list, variants)]
                counts[bit, si] += np.asarray(row, dtype=np.int64)
    return counts[1], counts[0]


def _engine_counts(curves: list[DetectionCurve]) -> tuple[np.ndarray, np.ndarray]:
    h1 = np.array([[round(p * c.trials) for p in c.p_d] for c in curves]).T
    h0 = np.array([[round(p * c.trials) for p in c.p_fa] for c in curves]).T
    return h1, h0


_SMALL = ChannelConfig(n_nodes=4, n_taps=3, rho=0.8, pdp=(1.0,) * 3, normalize_kronecker=False)
_SMALL_LOCAL = ChannelConfig(n_nodes=8, n_taps=2, rho=0.8, pdp=(1.0,) * 2, normalize_kronecker=False)
_BLOCK_CAP = 504  # normals: blocks of 7 trials on _SMALL, 5 on _SMALL_LOCAL
_FC_VARIANTS = [
    Variant(label="delta=20", detector=DetectorConfig(delta=20.0)),
    Variant(label="pfa=0.05", detector=DetectorConfig(target_pfa=0.05)),
    Variant(label="delta=45", detector=DetectorConfig(delta=45.0)),
]
_LOCAL_VARIANTS = [
    Variant(label=f"{d} {k.value}", detector=DetectorConfig(delta_n=d), rule=FusionRule(kind=k))
    for d in (3.0, 8.0)
    for k in FusionKind
]
_EQUIVALENCE_CASES = {
    "fc_raw": (Scenario(
        scheme=Scheme.FC_RAW, channel=_SMALL, detector=DetectorConfig(delta=20.0),
        snr_grid_db=(-3.0, 3.0), trials=23, seed=501,
    ), _FC_VARIANTS),
    "fc_raw_cs": (Scenario(
        scheme=Scheme.FC_RAW_CS, channel=_SMALL, detector=DetectorConfig(delta=20.0),
        snr_grid_db=(-3.0, 3.0), trials=23, seed=502,
        codec=CsCodecConfig(m=9, basis="dct", max_atoms=5),
    ), _FC_VARIANTS),
    "local_fusion": (Scenario(
        scheme=Scheme.LOCAL_FUSION, channel=_SMALL_LOCAL, detector=DetectorConfig(delta_n=4.0),
        fusion=FusionRule(kind=FusionKind.MAJORITY), snr_grid_db=(-3.0, 3.0), trials=23, seed=503,
    ), _LOCAL_VARIANTS),
    "local_fusion_cs": (Scenario(
        scheme=Scheme.LOCAL_FUSION_CS, channel=_SMALL_LOCAL, detector=DetectorConfig(delta_n=4.0),
        fusion=FusionRule(kind=FusionKind.MAJORITY), snr_grid_db=(-3.0, 3.0), trials=23, seed=504,
        codec=CsCodecConfig(m=6, basis="identity", max_atoms=3),
    ), _LOCAL_VARIANTS),
}


class TestEngineEquivalence:
    """The block engine against a per-trial oracle of public pieces."""

    @pytest.mark.parametrize("case", sorted(_EQUIVALENCE_CASES))
    def test_counts_match_per_trial_oracle(self, case, monkeypatch):
        scenario, variants = _EQUIVALENCE_CASES[case]
        monkeypatch.setattr(simkit, "_BLOCK_NORMALS", _BLOCK_CAP)  # 23 trials end on a partial block
        twin = scenario.codec is not None
        curves = estimate_curves(scenario, variants, uncompressed_twin=twin)
        want_h1, want_h0 = _oracle_counts(scenario, variants)
        cols = slice(None) if twin else slice(len(variants))
        got_h1, got_h0 = _engine_counts(curves)
        assert np.array_equal(got_h1, want_h1[:, cols])
        assert np.array_equal(got_h0, want_h0[:, cols])
        # neither all-accept nor all-reject: the comparison has teeth
        assert 0 < want_h1.sum() + want_h0.sum() < want_h1.size * scenario.trials * 2
        if twin:
            plain = Scheme.FC_RAW if scenario.scheme is Scheme.FC_RAW_CS else Scheme.LOCAL_FUSION
            assert [c.label for c in curves[len(variants):]] == [v.label + " no_cs" for v in variants]
            assert {c.scheme for c in curves[len(variants):]} == {plain.value}

    @pytest.mark.parametrize("case", ["fc_raw_cs", "local_fusion"])
    def test_workers_and_block_size_do_not_change_counts(self, case, monkeypatch):
        scenario, variants = _EQUIVALENCE_CASES[case]
        twin = scenario.codec is not None
        one = estimate_curves(scenario, variants, workers=1, uncompressed_twin=twin)
        monkeypatch.setattr(simkit, "_BLOCK_NORMALS", 1)  # one trial per block
        assert estimate_curves(scenario, variants, workers=1, uncompressed_twin=twin) == one
        assert estimate_curves(scenario, variants, workers=2, uncompressed_twin=twin) == one

    def test_twin_requires_cs_scheme(self):
        with pytest.raises(ValueError):
            estimate_curves(fc_scenario(trials=1), uncompressed_twin=True)


_PRESET_CHANNEL = ChannelConfig(n_nodes=100, n_taps=6, rho=0.9, pdp=(1.0,) * 6, normalize_kronecker=False)
_SPLIT_CASES = {
    **{case: _EQUIVALENCE_CASES[case] for case in ("fc_raw_cs", "local_fusion_cs")},
    "fig4-shaped": (Scenario(
        scheme=Scheme.FC_RAW_CS, channel=_PRESET_CHANNEL, detector=DetectorConfig(delta=2600.0),
        snr_grid_db=(0.0, 10.0), trials=8, seed=41004,
        codec=CsCodecConfig(m=480, basis="dct", max_atoms=60),
    ), [Variant(label=f"delta={d}", detector=DetectorConfig(delta=d)) for d in (2600.0, 4800.0, 5000.0)]),
    "fig5-shaped": (Scenario(
        scheme=Scheme.LOCAL_FUSION_CS, channel=_PRESET_CHANNEL, detector=DetectorConfig(delta_n=39.0),
        fusion=FusionRule(kind=FusionKind.MAJORITY), snr_grid_db=(-4.0, 6.0), trials=12, seed=41005,
        codec=CsCodecConfig(m=70, basis="identity", max_atoms=35),
    ), [Variant(label=f"{d} majority", detector=DetectorConfig(delta_n=d), rule=FusionRule(kind=FusionKind.MAJORITY))
        for d in (39.0, 32.9, 26.2)]),
}


class TestBlockSplitInvariance:
    """A flat trial range's counts do not depend on how it is split into blocks."""

    @settings(max_examples=30, deadline=None)
    @given(case=st.sampled_from(sorted(_SPLIT_CASES)), data=st.data())
    def test_count_range_any_split(self, case, data):
        scenario, variants = _SPLIT_CASES[case]
        levels, groups = simkit._resolve(scenario, variants)
        # flat trial g = (2 s + h) * trials + t; the range holds point 1's first trial
        # 2 * trials, and the drawn split puts it inside a block, not at an edge
        total, boundary = 4 * scenario.trials, 2 * scenario.trials
        lo = data.draw(st.integers(0, boundary - 1), label="lo")
        hi = data.draw(st.integers(boundary + 1, total), label="hi")
        height = data.draw(st.integers(2, hi - lo), label="trials per block")
        blocks = -(-(hi - lo) // height)
        assume(all(lo + b * (hi - lo) // blocks != boundary for b in range(blocks)))
        # Batch-OMP factor cap: 0 decides each block alone, 2^60 the whole range in one call
        batch_cap = data.draw(st.sampled_from([0, 1 << 60]), label="batch cap")
        task = (scenario, levels, groups, True, lo, hi)
        width = 6 * scenario.channel.n_nodes * scenario.channel.n_taps
        with mock.patch.object(simkit, "_BLOCK_NORMALS", height * width), \
                mock.patch.object(simkit, "_BATCH_FACTOR", batch_cap), \
                mock.patch.object(simkit, "_block_decisions", wraps=simkit._block_decisions) as decide, \
                mock.patch.object(simkit, "measure_block", wraps=simkit.measure_block) as spy:
            got = simkit._count_range(task)
        # some block mixes eve and alice rows and both SNR points (the grids' values differ)
        assert any(c.args[2].any() and not c.args[2].all() and len(set(c.args[3])) == 2 for c in spy.call_args_list)
        assert decide.call_count == (blocks if batch_cap == 0 else 1)
        with mock.patch.object(simkit, "_BLOCK_NORMALS", 1), mock.patch.object(simkit, "_BATCH_FACTOR", 0):
            assert np.array_equal(got, simkit._count_range(task))  # one trial per block, each decided alone

    def test_rows_carry_occupant_and_variance(self):
        # flat order is point-major, eve first; each row's sigma2 has noise_variance's
        # bits, which a vectorized numpy power misses at 22.0 and -25.0 dB
        scenario = fc_scenario(trials=2, snr_grid_db=(22.0, -25.0, 0.3))
        with mock.patch.object(simkit, "measure_block", wraps=simkit.measure_block) as spy:
            estimate_curves(scenario)
        (call,) = spy.call_args_list
        want = [noise_variance(snr) for snr in scenario.snr_grid_db for _ in range(4)]
        assert call.args[3].tolist() == want
        assert call.args[2].tolist() == [True, True, False, False] * 3


class TestCountRange:
    """``_count_range`` sums each row's decisions exactly as ``np.add.at`` over the flat trials would."""

    @settings(max_examples=30, deadline=None)
    @given(case=st.sampled_from(sorted(_EQUIVALENCE_CASES)), data=st.data())
    def test_counts_equal_add_at_over_block_decisions(self, case, data):
        scenario, variants = _EQUIVALENCE_CASES[case]
        levels, groups = simkit._resolve(scenario, variants)
        trials, twin = scenario.trials, scenario.codec is not None
        # [lo, hi) starts in point 0's eve trials and ends in point 1's
        lo = data.draw(st.integers(0, trials - 1), label="lo")
        hi = data.draw(st.integers(2 * trials + 1, 4 * trials), label="hi")
        height = data.draw(st.integers(1, hi - lo), label="trials per block")
        batch_cap = data.draw(st.sampled_from([0, 1 << 60]), label="batch cap")
        width = 6 * scenario.channel.n_nodes * scenario.channel.n_taps
        decisions, decide = [], simkit._block_decisions

        def spy(*args):
            decisions.append(decide(*args))
            return decisions[-1]

        with mock.patch.object(simkit, "_BLOCK_NORMALS", height * width), \
                mock.patch.object(simkit, "_BATCH_FACTOR", batch_cap), \
                mock.patch.object(simkit, "_block_decisions", spy):
            got = simkit._count_range((scenario, levels, groups, twin, lo, hi))
        decided = np.concatenate(decisions)  # the flat trials in order, one row each
        assert decided.shape == (hi - lo, len(variants) * (1 + twin))
        want = np.zeros_like(got)
        np.add.at(want, np.arange(lo, hi) // trials, decided)
        assert got.dtype == np.int64 and np.array_equal(got, want)
        assert 0 < want.sum() < decided.size  # the comparison has teeth


class TestRecoveryBatches:
    """Batch-OMP calls of preset runs: consecutive blocks share one under the factor cap, distinct reports only."""

    @pytest.mark.parametrize("preset, overrides, rows_per_call", [
        ("fig5", ["scenario.trials=2"], [110]),  # 3 blocks of 28 trials, 252 reports, 110 distinct
        ("fig4", ["scenario.trials=1"], [21, 21]),  # two fig4 blocks never share a call
        ("fig4", ["scenario.trials=72", "scenario.snr_db=0"], [36] * 4),  # a full fig4 block fits alone
    ])
    def test_calls_and_rows(self, preset, overrides, rows_per_call, tmp_path, capsys):
        argv = ["run", "--config", preset, "--out", str(tmp_path / "o.csv")]
        with mock.patch.object(sparse, "_batch_omp", wraps=sparse._batch_omp) as spy:
            assert cli.main(argv + [a for o in overrides for a in ("--set", o)]) == 0
        assert [len(c.args[0]) for c in spy.call_args_list] == rows_per_call


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


# Frozen reference: the engine's threshold resolution, block decisions and
# curve arithmetic as they were when every variant compared and fused its
# own copy of the node decisions, with the statistic in its first form (a
# callable applier of the inverse covariance, dividing by sigma2).  The
# engine must match it bit for bit.
def _ref_resolve(scenario, variants):
    n, L = scenario.channel.n_nodes, scenario.channel.n_taps
    local = scenario.scheme.local
    thresholds, groups = [], {}
    for vi, v in enumerate(variants):
        detector = v.detector.resolve(n, L)
        thresholds.append(detector.delta_n if local else detector.delta)
        if local:
            groups.setdefault(v.rule, []).append(vi)
    return np.array(thresholds, dtype=float), tuple(groups.items())


def _ref_quadratic_statistic(z, h_ref, inv_applier):
    d = np.asarray(z) - np.asarray(h_ref)
    q = (d.conj() * inv_applier(d)).sum(axis=-1)
    q_im = np.abs(np.imag(q)) if np.iscomplexobj(q) else 0.0
    if np.any(q_im > 1e-10 * np.maximum(1.0, np.abs(q))):
        raise ValueError("quadratic form has a non-negligible imaginary part")
    stat = 2.0 * np.maximum(np.real(q), 0.0)
    return stat[()] if np.ndim(stat) == 0 else stat


def _ref_fc_raw_statistic(z_star, h_ab_star, sigma_star_inv_applier):
    if np.asarray(z_star).shape[-1] != np.asarray(h_ab_star).shape[-1]:
        raise ValueError("z_star and h_ab_star lengths differ")
    return _ref_quadratic_statistic(z_star, h_ab_star, sigma_star_inv_applier)


def _ref_block_decisions(scenario, thresholds, rule_groups, twin, sigma2, h_ref, z):
    codec = scenario_codec(scenario) if scenario.scheme.compressed else None
    if not scenario.scheme.local:
        reports = [z] if codec is None else [reconstruct_raw(compress(z, codec), codec)]
        if twin:
            reports.append(z)
        return np.hstack([
            _ref_fc_raw_statistic(r, h_ref, lambda d: d / sigma2)[:, None] > thresholds for r in reports
        ])
    t, n = len(z), scenario.channel.n_nodes
    shape = (t, n, scenario.channel.n_taps)
    stats_n = _ref_quadratic_statistic(z.reshape(shape), h_ref.reshape(shape), lambda d: d / sigma2[..., None])
    u = (stats_n[:, None, :] > thresholds[:, None]).astype(np.int64)  # (T, V, N)
    planes = [u]
    if codec is not None:
        u_cs = reconstruct_decisions(compress(u.reshape(-1, n).astype(float), codec), codec)
        planes = [u_cs.reshape(u.shape)] + ([u] if twin else [])
    out = np.empty((t, len(planes), len(thresholds)), dtype=bool)
    for p, plane in enumerate(planes):
        for rule, idx in rule_groups:
            out[:, p, idx] = fuse(plane[:, idx], rule)
    return out.reshape(t, -1)


def _ref_curves(scenario, columns, counts):
    h1_counts, h0_counts = counts[0::2], counts[1::2]
    curves, t = [], scenario.trials
    for ci, (scheme, label) in enumerate(columns):
        p_d = h1_counts[:, ci] / t
        p_fa = h0_counts[:, ci] / t
        curves.append(DetectionCurve(
            scheme=scheme.value, label=label, snr_db=scenario.snr_grid_db,
            p_d=tuple(p_d.tolist()), p_d_stderr=tuple(np.sqrt(p_d * (1 - p_d) / t).tolist()),
            p_fa=tuple(p_fa.tolist()), p_fa_stderr=tuple(np.sqrt(p_fa * (1 - p_fa) / t).tolist()),
            trials=t,
        ))
    return curves


def _bits(values) -> list:
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


# Ten nodes, as in fig3: a mean vote of k/10 is inexact, so the weighted average's
# dot product rounds differently at different plane heights
_REF_LOCAL = ChannelConfig(n_nodes=10, n_taps=2, rho=0.8, pdp=(1.0,) * 2, normalize_kronecker=False)
_REF_CASES = {
    **{case: _EQUIVALENCE_CASES[case][0] for case in ("fc_raw", "fc_raw_cs")},
    "local_fusion": Scenario(
        scheme=Scheme.LOCAL_FUSION, channel=_REF_LOCAL, detector=DetectorConfig(delta_n=4.0),
        fusion=FusionRule(kind=FusionKind.MAJORITY), snr_grid_db=(0.0,), trials=1, seed=505,
    ),
    "local_fusion_cs": Scenario(
        scheme=Scheme.LOCAL_FUSION_CS, channel=_REF_LOCAL, detector=DetectorConfig(delta_n=4.0),
        fusion=FusionRule(kind=FusionKind.MAJORITY), snr_grid_db=(0.0,), trials=1, seed=506,
        codec=CsCodecConfig(m=7, basis="identity", max_atoms=4),
    ),
}
# Local thresholds on the dof-4 node statistic: fig3's descending order, and values that variants share
_REF_LEVELS = (13.28, 9.49, 5.0, 3.0, 8.0)
_REF_SNR_DB = st.one_of(st.sampled_from([-1000.0, 1000.0, -30.0, 0.0, 22.0]), st.floats(-40.0, 40.0))


@st.composite
def _ref_variants(draw, local):
    """API-built variant sets: rule groups of different heights, shared thresholds; or a CLI-built cross."""
    if not local:
        deltas = draw(st.lists(st.sampled_from([12.0, 20.0, 45.0, 3.5]), min_size=1, max_size=5))
        return [Variant(f"v{i}", DetectorConfig(delta=d)) for i, d in enumerate(deltas)]
    rules = [FusionRule(kind=k) for k in FusionKind] + [
        FusionRule(kind=FusionKind.WEIGHTED_AVERAGE, avg_threshold=a) for a in (0.3, 0.6, 0.7)
    ]
    if draw(st.booleans()):  # as cli._build_variants lays them out: level-major, every rule per level
        levels = draw(st.sampled_from([_REF_LEVELS[:3], _REF_LEVELS[2:], (8.0,)]))
        chosen = draw(st.lists(st.sampled_from(rules), min_size=1, max_size=5, unique=True))
        pairs = [(d, r) for d in levels for r in chosen]
    else:
        pairs = draw(st.lists(st.tuples(st.sampled_from(_REF_LEVELS), st.sampled_from(rules)),
                              min_size=1, max_size=12))
    return [Variant(f"v{i}", DetectorConfig(delta_n=d), rule=r) for i, (d, r) in enumerate(pairs)]


class TestDecisionReference:
    """Block decisions and curves equal the frozen per-variant reference bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(case=st.sampled_from(sorted(_REF_CASES)), data=st.data())
    def test_block_decisions_bit_identical(self, case, data):
        scenario = _REF_CASES[case]
        variants = data.draw(_ref_variants(scenario.scheme.local), label="variants")
        twin = scenario.scheme.compressed and data.draw(st.booleans(), label="twin")
        t = data.draw(st.integers(1, 40), label="rows")
        snr = data.draw(st.lists(_REF_SNR_DB, min_size=t, max_size=t), label="snr_db")
        eve = np.array(data.draw(st.lists(st.booleans(), min_size=t, max_size=t), label="eve"))
        streams = data.draw(st.lists(st.integers(0, 1 << 40), min_size=t, max_size=t), label="streams")
        cfg = scenario.channel
        sigma2 = np.array([noise_variance(s) for s in snr])
        h_ref, z = measure_block(standard_normal_rows(scenario.seed, streams, 6 * cfg.n_nodes * cfg.n_taps), cfg, eve, sigma2)
        want = _ref_block_decisions(scenario, *_ref_resolve(scenario, variants), twin, sigma2[:, None], h_ref, z)
        got = simkit._block_decisions(scenario, *simkit._resolve(scenario, variants), twin, sigma2[:, None], h_ref, z)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)

    def test_weighted_average_groups_below_plane_height(self):
        # five levels; weighted-average groups one, two and three levels high, at the
        # vote thresholds where a mean of k/10 rounds differently at other heights
        scenario = _REF_CASES["local_fusion"]
        wa = {a: FusionRule(kind=FusionKind.WEIGHTED_AVERAGE, avg_threshold=a) for a in (0.6, 0.7, 0.9)}
        pairs = [(d, FusionRule(kind=FusionKind.MAJORITY)) for d in _REF_LEVELS]
        pairs += [(3.0, wa[0.6]), (5.0, wa[0.7]), (3.0, wa[0.7]), (3.0, wa[0.9]), (5.0, wa[0.9]), (8.0, wa[0.9])]
        variants = [Variant(f"v{i}", DetectorConfig(delta_n=d), rule=r) for i, (d, r) in enumerate(pairs)]
        t, cfg = 2000, scenario.channel
        sigma2 = np.full(t, noise_variance(0.0))
        normals = standard_normal_rows(scenario.seed, range(t), 6 * cfg.n_nodes * cfg.n_taps)
        h_ref, z = measure_block(normals, cfg, np.zeros(t, dtype=bool), sigma2)
        want = _ref_block_decisions(scenario, *_ref_resolve(scenario, variants), False, sigma2[:, None], h_ref, z)
        got = simkit._block_decisions(scenario, *simkit._resolve(scenario, variants), False, sigma2[:, None], h_ref, z)
        assert np.array_equal(got, want)

    @settings(max_examples=40, deadline=None)
    @given(
        trials=st.sampled_from([1, 3, 7, 200, 1 << 31]),
        snr=st.lists(_REF_SNR_DB, min_size=1, max_size=4),
        n_variants=st.integers(1, 4),
        twin=st.booleans(),
        data=st.data(),
    )
    def test_curves_bit_identical(self, trials, snr, n_variants, twin, data):
        scheme = Scheme.LOCAL_FUSION_CS if twin else Scheme.LOCAL_FUSION
        codec = CsCodecConfig(m=6, basis="identity", max_atoms=3) if twin else None
        scenario = fusion_scenario(scheme=scheme, channel=_SMALL_LOCAL, snr_grid_db=snr, trials=trials, codec=codec)
        variants = [Variant(f"v{i}", DetectorConfig(delta_n=3.0 + i), FusionRule(kind=FusionKind.OR))
                    for i in range(n_variants)]
        columns = [(scheme, v.label) for v in variants]
        columns += [(Scheme.LOCAL_FUSION, v.label + " no_cs") for v in variants] if twin else []
        counts = np.array(data.draw(st.lists(
            st.lists(st.sampled_from([0, 1, trials // 3, trials // 2, trials - 1, trials]),
                     min_size=len(columns), max_size=len(columns)),
            min_size=2 * len(snr), max_size=2 * len(snr))), dtype=np.int64)
        with mock.patch.object(simkit, "_count_range", return_value=counts):
            got = estimate_curves(scenario, variants, uncompressed_twin=twin)
        want = _ref_curves(scenario, columns, counts)
        assert [(c.scheme, c.label, c.snr_db, c.trials) for c in got] == \
            [(c.scheme, c.label, c.snr_db, c.trials) for c in want]
        for g, w in zip(got, want):
            for field in ("snr_db", "p_d", "p_d_stderr", "p_fa", "p_fa_stderr"):
                assert _bits(getattr(g, field)) == _bits(getattr(w, field)), field
