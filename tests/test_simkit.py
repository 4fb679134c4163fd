import inspect
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cirauth import cli, simkit, sparse
from cirauth.channel import ChannelConfig, channel_block, measure_block, noise_variance
from cirauth.detect import FusionKind, FusionRule, quadratic_statistic, solve_threshold
from cirauth.numerics import standard_normal_rows
from cirauth.simkit import (
    CsCodecConfig,
    CurveComparisonError,
    DetectionCurve,
    Scenario,
    Scheme,
    Variant,
    estimate_curves,
    scenario_codec,
    snr_margin,
)
from cirauth.sparse import compress, reconstruct_decisions, reconstruct_raw

from oracles import fuse

CHANNEL = ChannelConfig(n_nodes=10, n_taps=6, rho=0.9, pdp=(1.0,) * 6, normalize_kronecker=False)


# the single detector of fc_scenario and fusion_scenario runs
FC = [Variant("fc_raw", 340.0)]
FUSION = [Variant("local_fusion", 26.2, FusionRule(kind=FusionKind.MAJORITY))]


def fc_scenario(**kw):
    args = dict(
        scheme=Scheme.FC_RAW,
        channel=CHANNEL,
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
        snr_grid_db=(5.0,),
        trials=200,
        seed=91,
    )
    args.update(kw)
    return Scenario(**args)


class TestScenarioValidation:
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

    @pytest.mark.parametrize("build", [fc_scenario, fusion_scenario])
    def test_uncompressed_scheme_rejects_codec(self, build):
        # the engine never reads it, so it would be silently ignored
        with pytest.raises(ValueError, match="^codec is unused"):
            build(codec=CsCodecConfig(m=30))

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

    @pytest.mark.parametrize("build, kwargs", [
        (fc_scenario, dict(seed=1.5)),  # would run as seed 1
        (fc_scenario, dict(trials=2.5)),  # would crash mid-run
        (ChannelConfig, dict(n_nodes=2.5, n_taps=6)),
        (ChannelConfig, dict(n_nodes=10, n_taps=2.0, pdp=(0.5, 0.5))),
        (CsCodecConfig, dict(m=3.5)),
        (CsCodecConfig, dict(m=4, max_atoms=2.0)),
    ], ids=["seed", "trials", "n_nodes", "n_taps", "m", "max_atoms"])
    def test_non_integral_size_or_seed_rejected(self, build, kwargs):
        with pytest.raises(TypeError):
            build(**kwargs)

    def test_numpy_integers_accepted(self):
        codec = CsCodecConfig(m=np.int64(48), max_atoms=np.int32(12))
        channel = ChannelConfig(n_nodes=np.int64(10), n_taps=np.int16(6), rho=0.9, pdp=(1.0,) * 6,
                                normalize_kronecker=False)
        sc = fc_scenario(scheme=Scheme.FC_RAW_CS, channel=channel, trials=np.int64(3), seed=np.uint64(90), codec=codec)
        assert sc == fc_scenario(scheme=Scheme.FC_RAW_CS, trials=3, codec=CsCodecConfig(m=48, max_atoms=12))
        assert type(sc.seed) is type(sc.channel.n_taps) is type(sc.codec.m) is int


class TestVariant:
    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), 0.0, -5.0])
    def test_nonfinite_or_nonpositive_threshold_rejected(self, threshold):
        with pytest.raises(ValueError, match="^threshold must lie in"):
            Variant("x", threshold)

    @pytest.mark.parametrize("label", ["a,b", "a\nb", "a\rb"])
    def test_label_that_splits_a_csv_row_rejected(self, label):
        with pytest.raises(ValueError, match="^label must hold no comma or line break"):
            Variant(label, 5.0)


class TestRunTrial:
    """Single-trial behaviour, through ``estimate_curves`` with ``trials=1``."""

    def test_deterministic(self):
        sc = fc_scenario(trials=1, snr_grid_db=(5.0,))
        assert estimate_curves(sc, FC) == estimate_curves(sc, FC)

    def test_noiseless_alice_accepted(self):
        # at enormous SNR the H0 statistic collapses to ~0
        (curve,) = estimate_curves(fc_scenario(trials=1, snr_grid_db=(300.0,)), FC)
        assert curve.p_fa == (0.0,)

    def test_noiseless_eve_rejected(self):
        # the H1 statistic scales like ||h_E - h_A||^2 / sigma^2
        (curve,) = estimate_curves(fc_scenario(trials=1, snr_grid_db=(300.0,)), FC)
        assert curve.p_d == (1.0,)

    def test_all_schemes_execute(self):
        scenarios = [
            (fc_scenario(trials=1, snr_grid_db=(5.0,)), FC),
            (fusion_scenario(trials=1), FUSION),
            (fc_scenario(
                scheme=Scheme.FC_RAW_CS,
                trials=1,
                snr_grid_db=(5.0,),
                codec=CsCodecConfig(m=48, basis="dct", max_atoms=12),
            ), FC),
            (fusion_scenario(
                scheme=Scheme.LOCAL_FUSION_CS,
                trials=1,
                codec=CsCodecConfig(m=7, basis="identity", max_atoms=3),
            ), FUSION),
        ]
        for sc, variants in scenarios:
            (curve,) = estimate_curves(sc, variants)
            assert curve.p_d[0] in (0.0, 1.0) and curve.p_fa[0] in (0.0, 1.0)


def _in_process_pool(monkeypatch, cpus: int) -> list[int]:
    """Runs `estimate_curves`'s process pool serially in this process, on ``cpus`` patched CPUs.

    Returns the list that records each pool's size.  A patch of `simkit`
    then reaches every worker, on any runner.
    """
    import concurrent.futures

    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(simkit.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    return sizes


class TestEstimateCurve:
    def test_single_trial_degenerate(self):
        (curve,) = estimate_curves(fc_scenario(trials=1), FC)
        assert all(p in (0.0, 1.0) for p in curve.p_d)
        assert curve.trials == 1

    def test_repeat_runs_identical(self):
        a = estimate_curves(fc_scenario(), FC)
        b = estimate_curves(fc_scenario(), FC)
        assert a == b

    @pytest.mark.parametrize("workers", [0, -4])
    def test_nonpositive_workers_rejected(self, workers):
        with pytest.raises(ValueError, match="workers must be positive"):
            estimate_curves(fc_scenario(trials=1), FC, workers=workers)

    def test_workers_do_not_change_counts(self):
        a = estimate_curves(fc_scenario(trials=90), FC, workers=1)
        b = estimate_curves(fc_scenario(trials=90), FC, workers=3)
        assert a == b

    def test_pool_no_larger_than_tasks_or_cpus(self, monkeypatch):
        # a fork pool starts every worker at its first submit, so --workers 64 on
        # 2 blocks (a cap of one trial's normals on 2 trials) must ask for 2
        # processes, and a single CPU for none
        sc = fc_scenario(trials=1, snr_grid_db=(5.0,))
        monkeypatch.setattr(simkit, "_BLOCK_NORMALS", 6 * sc.channel.n_nodes * sc.channel.n_taps)
        one = estimate_curves(sc, FC, workers=1)
        for cpus, want in ((64, [2]), (1, [])):
            sizes = _in_process_pool(monkeypatch, cpus)
            assert estimate_curves(sc, FC, workers=64) == one
            assert sizes == want

    def test_workers_run_the_serial_blocks(self, tmp_path, monkeypatch, capsys):
        # a stand-in for a BLAS whose row bits depend on the call height: the CSV stays
        # the same across worker counts only if each runs the serial run's blocks
        def height_dependent(normals, *args):
            return measure_block(normals, *args) * (1 + 1e-3 * (len(normals) % 7))

        def run(workers):
            out = tmp_path / "o.csv"
            argv = ["run", "--config", "fig2", "--set", "scenario.trials=300", "--workers", workers, "--out", str(out)]
            assert cli.main(argv) == 0
            return out.read_bytes()

        exact = run("1")
        monkeypatch.setattr(simkit, "measure_block", height_dependent)
        sizes = _in_process_pool(monkeypatch, 2)
        serial = run("1")
        assert serial != exact  # the patch moves some count: the comparison has teeth
        assert run("2") == serial
        assert sizes == [2]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_workers_must_be_an_integer(self, cpus, monkeypatch):
        # one CPU caps a float's pool at the integer CPU count, so the float must be
        # rejected before the pool is sized, not only where range() meets it
        monkeypatch.setattr(simkit.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        sc = fc_scenario(trials=1)
        with pytest.raises(TypeError):
            estimate_curves(sc, FC, workers=2.0)
        assert estimate_curves(sc, FC, workers=np.int64(2)) == estimate_curves(sc, FC)

    def test_h0_calibration_tracks_alpha(self):
        # solved threshold at alpha: empirical false-alarm within 5 sigma,
        # independent of SNR
        alpha, trials = 0.05, 4000
        sc = fc_scenario(snr_grid_db=(0.0, 10.0), trials=trials)
        (curve,) = estimate_curves(sc, [Variant("pfa", solve_threshold(alpha, 2 * 10 * 6))])
        sig = math.sqrt(alpha * (1 - alpha) / trials)
        for p in curve.p_fa:
            assert abs(p - alpha) < 5 * sig

    def test_pd_monotone_in_snr_within_noise(self):
        sc = fc_scenario(snr_grid_db=tuple(np.arange(-4.0, 6.0, 2.0)), trials=1500)
        (curve,) = estimate_curves(sc, FC)
        for i in range(len(curve.p_d) - 1):
            slack = 3 * (curve.p_d_stderr[i] + curve.p_d_stderr[i + 1])
            assert curve.p_d[i + 1] >= curve.p_d[i] - slack

    def test_pd_nonincreasing_in_delta_pointwise(self):
        # shared draws make the threshold sweep exactly nested
        variants = [
            Variant(label=f"delta={d}", threshold=d)
            for d in (260.0, 280.0, 300.0, 320.0, 340.0)
        ]
        curves = estimate_curves(fc_scenario(trials=400, snr_grid_db=(0.0, 3.0)), variants)
        for lo, hi in zip(curves, curves[1:]):
            assert all(a >= b for a, b in zip(lo.p_d, hi.p_d))

    def test_local_fusion_variants_share_draws(self):
        variants = [
            Variant(
                label=k.value,
                threshold=26.2,
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
            Variant(label=k.value, threshold=26.2, rule=FusionRule(kind=k))
            for k in (FusionKind.OR, FusionKind.SINGLE, FusionKind.AND)
        ]
        curves = estimate_curves(fusion_scenario(trials=300, snr_grid_db=(0.0, 5.0)), variants)
        p_or, p_single, p_and = (c.p_d for c in curves)
        assert all(a >= b >= c for a, b, c in zip(p_or, p_single, p_and))
        assert p_or != p_single != p_and

    def test_local_variant_needs_rule(self):
        with pytest.raises(ValueError):
            estimate_curves(fusion_scenario(trials=1), [Variant("x", 26.2)])

    @pytest.mark.parametrize("variants, message", [
        ([], "need at least one variant"),
        ([Variant("a", 5.0), Variant("a", 6.0)], "variant labels must be distinct"),
    ], ids=["empty", "repeated-label"])
    def test_variant_list_checked_before_any_trial(self, variants, message):
        with mock.patch.object(simkit, "_count_range", side_effect=AssertionError("a trial ran")):
            with pytest.raises(ValueError, match=message):
                estimate_curves(fc_scenario(), variants)


def _oracle_counts(scenario: Scenario, variants: list[Variant]) -> tuple[np.ndarray, np.ndarray]:
    """(H1, H0) counts, shape (SNR points, 2V), one trial at a time.

    Each trial is a one-row block of the public pieces: its stream's
    normals, ``measure_block`` (and alice's channel, which `fc_raw_cs`
    adds back to send the measurement), the statistic, and the fusion
    rule.
    Columns are every variant on the scheme's report, then every variant
    on the uncompressed report (the ``no_cs`` twin).  Trial t at SNR
    index s under hypothesis h (1 = eve) owns stream (s << 33) | (h << 32) | t.
    """
    cfg = scenario.channel
    n, L = cfg.n_nodes, cfg.n_taps
    codec = scenario_codec(scenario) if scenario.codec is not None else None
    local = scenario.scheme in (Scheme.LOCAL_FUSION, Scheme.LOCAL_FUSION_CS)
    counts = np.zeros((2, len(scenario.snr_grid_db), 2 * len(variants)), dtype=np.int64)  # alice, eve
    for si, snr in enumerate(scenario.snr_grid_db):
        sigma2 = noise_variance(snr)
        for bit in (1, 0):
            for t in range(scenario.trials):
                normals = standard_normal_rows(scenario.seed, [(si << 33) | (bit << 32) | t], 6 * n * L)
                (h,), (d,) = _measured(cfg, normals, [bit], [sigma2])
                if not local:
                    d_cs = d if codec is None else reconstruct_raw(compress(h + d, codec), codec) - h
                    stats = [quadratic_statistic(r, 1.0 / sigma2) for r in (d_cs, d)]
                    row = [stat > v.threshold for stat in stats for v in variants]
                else:
                    stats_n = quadratic_statistic(d.reshape(n, L), 1.0 / sigma2)
                    us = [(stats_n > v.threshold).astype(np.int64) for v in variants]
                    if codec is not None:
                        us_cs = [reconstruct_decisions(compress(u.astype(float), codec), codec) for u in us]
                    else:
                        us_cs = us
                    row = [fuse(u, v.rule) for u_list in (us_cs, us) for u, v in zip(u_list, variants)]
                counts[bit, si] += np.asarray(row, dtype=np.int64)
    return counts[1], counts[0]


def _measured(cfg, normals, eve, sigma2):
    """A block's alice channels ``h_ab`` and deviations ``d``, the two arrays ``_block_decisions`` reads."""
    h_ab = channel_block(normals[:, : 2 * cfg.n_nodes * cfg.n_taps], cfg)
    return h_ab, measure_block(normals, cfg, eve, sigma2)


def _engine_counts(curves: list[DetectionCurve]) -> tuple[np.ndarray, np.ndarray]:
    h1 = np.array([[round(p * c.trials) for p in c.p_d] for c in curves]).T
    h0 = np.array([[round(p * c.trials) for p in c.p_fa] for c in curves]).T
    return h1, h0


_SMALL = ChannelConfig(n_nodes=4, n_taps=3, rho=0.8, pdp=(1.0,) * 3, normalize_kronecker=False)
_SMALL_LOCAL = ChannelConfig(n_nodes=8, n_taps=2, rho=0.8, pdp=(1.0,) * 2, normalize_kronecker=False)
_BLOCK_CAP = 504  # normals: blocks of 7 trials on _SMALL, 5 on _SMALL_LOCAL
_BATCH_CAP = 255  # Batch-OMP factor: splits a block's recovery into calls of at most 3 reports on fc_raw_cs, 7 on local_fusion_cs
_FC_VARIANTS = [
    Variant(label="delta=20", threshold=20.0),
    Variant(label="pfa=0.05", threshold=solve_threshold(0.05, 2 * 4 * 3)),  # 2NL dof on _SMALL
    Variant(label="delta=45", threshold=45.0),
]
_LOCAL_VARIANTS = [
    Variant(label=f"{d} {k.value}", threshold=d, rule=FusionRule(kind=k))
    for d in (3.0, 8.0)
    for k in FusionKind
]
_EQUIVALENCE_CASES = {
    "fc_raw": (Scenario(
        scheme=Scheme.FC_RAW, channel=_SMALL, snr_grid_db=(-3.0, 3.0), trials=23, seed=501,
    ), _FC_VARIANTS),
    "fc_raw_cs": (Scenario(
        scheme=Scheme.FC_RAW_CS, channel=_SMALL, snr_grid_db=(-3.0, 3.0), trials=23, seed=502,
        codec=CsCodecConfig(m=9, basis="dct", max_atoms=5),
    ), _FC_VARIANTS),
    "local_fusion": (Scenario(
        scheme=Scheme.LOCAL_FUSION, channel=_SMALL_LOCAL, snr_grid_db=(-3.0, 3.0), trials=23, seed=503,
    ), _LOCAL_VARIANTS),
    "local_fusion_cs": (Scenario(
        scheme=Scheme.LOCAL_FUSION_CS, channel=_SMALL_LOCAL, snr_grid_db=(-3.0, 3.0), trials=23, seed=504,
        codec=CsCodecConfig(m=6, basis="identity", max_atoms=3),
    ), _LOCAL_VARIANTS),
    # level 3.0 is dead: majority and AND need over 4 and 7 of 8 votes, recovery keeps 3 ones
    "local_fusion_cs_dead_level": (Scenario(
        scheme=Scheme.LOCAL_FUSION_CS, channel=_SMALL_LOCAL, snr_grid_db=(-3.0, 3.0), trials=23, seed=507,
        codec=CsCodecConfig(m=6, basis="identity", max_atoms=3),
    ), [Variant(label=f"{d} {k.value}", threshold=d, rule=FusionRule(kind=k))
        for d, kinds in ((3.0, (FusionKind.MAJORITY, FusionKind.AND)),
                         (8.0, (FusionKind.OR, FusionKind.MAJORITY, FusionKind.SINGLE)))
        for k in kinds]),
}


class TestEngineEquivalence:
    """The block engine against a per-trial oracle of public pieces."""

    @pytest.mark.parametrize("case", sorted(_EQUIVALENCE_CASES))
    def test_counts_match_per_trial_oracle(self, case, monkeypatch):
        scenario, variants = _EQUIVALENCE_CASES[case]
        monkeypatch.setattr(simkit, "_BLOCK_NORMALS", _BLOCK_CAP)  # 23 trials end on a partial block
        monkeypatch.setattr(sparse, "_BATCH_FACTOR", _BATCH_CAP)  # and a CS block's recovery runs in several calls
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
        monkeypatch.setattr(sparse, "_BATCH_FACTOR", 0)  # and one report per Batch-OMP call
        assert estimate_curves(scenario, variants, workers=1, uncompressed_twin=twin) == one
        assert estimate_curves(scenario, variants, workers=2, uncompressed_twin=twin) == one

    def test_twin_requires_cs_scheme(self):
        with pytest.raises(ValueError):
            estimate_curves(fc_scenario(trials=1), FC, uncompressed_twin=True)


# every kind, and weighted averages at three more mean-vote thresholds
_RULES = [FusionRule(kind=k) for k in FusionKind] + [
    FusionRule(kind=FusionKind.WEIGHTED_AVERAGE, avg_threshold=a) for a in (0.3, 0.6, 0.7)
]


# every variant of a local_fusion_cs run on _SMALL_LOCAL at 3 atoms needs more votes than recovery keeps
_ALL_DEAD = [Variant(k.value, 3.0, FusionRule(kind=k)) for k in (FusionKind.MAJORITY, FusionKind.AND)]


class TestDeadLevels:
    """Leaving out the codec path of a run whose variants are all zero by construction changes no count."""

    @settings(max_examples=30, deadline=None)
    @given(
        pairs=st.lists(st.tuples(st.sampled_from([3.0, 5.0, 8.0]), st.sampled_from(_RULES)), min_size=1, max_size=8),
        max_atoms=st.integers(1, 6),
    )
    def test_counts_equal_every_level_live(self, pairs, max_atoms):
        scenario = Scenario(
            scheme=Scheme.LOCAL_FUSION_CS, channel=_SMALL_LOCAL, snr_grid_db=(-3.0, 3.0), trials=6, seed=508,
            codec=CsCodecConfig(m=6, basis="identity", max_atoms=max_atoms),
        )
        variants = [Variant(f"v{i}", d, rule=r) for i, (d, r) in enumerate(pairs)]
        got = estimate_curves(scenario, variants, uncompressed_twin=True)
        with mock.patch.object(simkit, "zero_by_construction", return_value=False):
            want = estimate_curves(scenario, variants, uncompressed_twin=True)
        assert got == want

    @pytest.mark.parametrize("workers", [1, 2])
    def test_all_dead_run_runs_no_trial(self, workers, monkeypatch):
        # majority and AND need over 4 and 7 of 8 votes, and recovery keeps at most 3 ones
        scenario = _EQUIVALENCE_CASES["local_fusion_cs_dead_level"][0]
        monkeypatch.setattr(simkit.os, "sched_getaffinity", lambda pid: {0, 1})
        with mock.patch.object(simkit, "_count_range", side_effect=AssertionError("a trial ran")) as spy:
            curves = estimate_curves(scenario, _ALL_DEAD, workers=workers)
        assert spy.call_count == 0
        assert [c.label for c in curves] == [v.label for v in _ALL_DEAD]
        assert all(c.p_d == c.p_fa == (0.0, 0.0) for c in curves)

    def test_all_dead_run_reads_the_twin_only(self):
        scenario = _EQUIVALENCE_CASES["local_fusion_cs_dead_level"][0]
        with mock.patch.object(simkit, "_block_decisions", wraps=simkit._block_decisions) as spy:
            curves = estimate_curves(scenario, _ALL_DEAD, uncompressed_twin=True)
        signature = inspect.signature(simkit._block_decisions)
        assert spy.call_count > 0
        assert all(signature.bind(*c.args).arguments["paths"] == (False,) for c in spy.call_args_list)
        assert all(c.p_d == c.p_fa == (0.0, 0.0) for c in curves[: len(_ALL_DEAD)])
        assert any(c.p_d != (0.0, 0.0) for c in curves[len(_ALL_DEAD) :])


_PRESET_CHANNEL = ChannelConfig(n_nodes=100, n_taps=6, rho=0.9, pdp=(1.0,) * 6, normalize_kronecker=False)
_SPLIT_CASES = {
    **{case: _EQUIVALENCE_CASES[case] for case in ("fc_raw_cs", "local_fusion_cs")},
    "fig4-shaped": (Scenario(
        scheme=Scheme.FC_RAW_CS, channel=_PRESET_CHANNEL, snr_grid_db=(0.0, 10.0), trials=8, seed=41004,
        codec=CsCodecConfig(m=480, basis="dct", max_atoms=60),
    ), [Variant(label=f"delta={d}", threshold=d) for d in (2600.0, 4800.0, 5000.0)]),
    "fig5-shaped": (Scenario(
        scheme=Scheme.LOCAL_FUSION_CS, channel=_PRESET_CHANNEL, snr_grid_db=(-4.0, 6.0), trials=12, seed=41005,
        codec=CsCodecConfig(m=70, basis="identity", max_atoms=35),
    ), [Variant(label=f"{d} majority", threshold=d, rule=FusionRule(kind=FusionKind.MAJORITY))
        for d in (39.0, 32.9, 26.2)]),
}


class TestBlockSplitInvariance:
    """A flat trial range's counts do not depend on how it is split into blocks."""

    @settings(max_examples=30, deadline=None)
    @given(case=st.sampled_from(sorted(_SPLIT_CASES)), data=st.data())
    def test_count_range_any_split(self, case, data):
        scenario, variants = _SPLIT_CASES[case]
        resolved = simkit._resolve(scenario, variants)
        # flat trial g = (2 s + h) * trials + t; the drawn grid of at least 2 trials per
        # block puts point 1's first trial 2 * trials inside block k, not at an edge,
        # and the drawn run of blocks [first, last) holds block k
        total, boundary = 4 * scenario.trials, 2 * scenario.trials
        blocks = data.draw(st.integers(1, total // 2), label="blocks")
        edges = [b * total // blocks for b in range(blocks + 1)]
        k = max(b for b in range(blocks) if edges[b] <= boundary)
        assume(edges[k] != boundary)
        first = data.draw(st.integers(0, k), label="first")
        last = data.draw(st.integers(k + 1, blocks), label="last")
        with mock.patch.object(simkit, "_block_decisions", wraps=simkit._block_decisions) as decide, \
                mock.patch.object(simkit, "measure_block", wraps=simkit.measure_block) as spy:
            got = simkit._count_range((scenario, *resolved, (True, False), first, last, blocks))
        # some block mixes eve and alice rows and both SNR points (the grids' values differ)
        assert any(c.args[2].any() and not c.args[2].all() and len(set(c.args[3])) == 2 for c in spy.call_args_list)
        assert decide.call_count == last - first
        # the same trials on the grid of one trial per block, one report per call
        with mock.patch.object(sparse, "_BATCH_FACTOR", 0):
            one = simkit._count_range((scenario, *resolved, (True, False), edges[first], edges[last], total))
        assert np.array_equal(got, one)

    def test_rows_carry_occupant_and_variance(self):
        # flat order is point-major, eve first; each row's sigma2 has noise_variance's
        # bits, which a vectorized numpy power misses at 22.0 and -25.0 dB
        scenario = fc_scenario(trials=2, snr_grid_db=(22.0, -25.0, 0.3))
        with mock.patch.object(simkit, "measure_block", wraps=simkit.measure_block) as spy:
            estimate_curves(scenario, FC)
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
        resolved = simkit._resolve(scenario, variants)
        trials, compressed = scenario.trials, scenario.scheme.compressed
        paths = (True, False) if compressed else (False,)
        # on a drawn grid, the run of blocks [first, last), the flat trials [lo, hi), starts
        # in point 0's eve trials and ends in point 1's
        total = 4 * trials
        blocks = data.draw(st.integers(1, total), label="blocks")
        edges = [b * total // blocks for b in range(blocks + 1)]
        first = data.draw(st.sampled_from([b for b in range(blocks) if edges[b] < trials]), label="first")
        last = data.draw(st.sampled_from([b for b in range(first + 1, blocks + 1) if edges[b] > 2 * trials]),
                         label="last")
        lo, hi = edges[first], edges[last]
        decisions, decide = [], simkit._block_decisions

        def spy(*args):
            decisions.append(decide(*args))
            return decisions[-1]

        with mock.patch.object(simkit, "_block_decisions", spy):
            got = simkit._count_range((scenario, *resolved, paths, first, last, blocks))
        decided = np.concatenate(decisions)  # the flat trials in order, one row each
        assert decided.shape == (hi - lo, len(variants) * len(paths))
        want = np.zeros_like(got)
        np.add.at(want, np.arange(lo, hi) // trials, decided)
        assert got.dtype == np.int64 and np.array_equal(got, want)
        assert 0 < want.sum() < decided.size  # the comparison has teeth


class TestRecoveryBatches:
    """Block heights and Batch-OMP calls of runs: the normals cap sizes a block, the factor cap its calls, distinct reports only."""

    @pytest.mark.parametrize("preset, overrides, rows_per_call", [
        # 51 atoms make fig5's majority (over 50 votes) live: the normals cap puts 84
        # trials in three blocks of 28, each 84 reports, 38, 51 and 25 distinct
        ("fig5", ["scenario.trials=2", "cs.max_atoms=51"], [38, 51, 25]),
        ("fig4", ["scenario.trials=1"], [21, 21]),  # two fig4 blocks never share a call
        ("fig4", ["scenario.trials=72", "scenario.snr_db=0"], [36] * 4),  # a full fig4 block fits alone
        # 120 atoms: the factor cap fits 16 reports, so each 21-trial block runs as two calls
        ("fig4", ["scenario.trials=1", "cs.max_atoms=120"], [10, 11, 10, 11]),
    ])
    def test_calls_and_rows(self, preset, overrides, rows_per_call, tmp_path, capsys):
        argv = ["run", "--config", preset, "--out", str(tmp_path / "o.csv")]
        with mock.patch.object(sparse, "_batch_omp", wraps=sparse._batch_omp) as spy:
            assert cli.main(argv + [a for o in overrides for a in ("--set", o)]) == 0
        assert [len(c.args[0]) for c in spy.call_args_list] == rows_per_call

    def test_fig5_preset_recovers_nothing(self, tmp_path, capsys):
        # majority over 100 nodes needs 51 votes and 35 atoms recover at most 35 ones,
        # so no level is live: no decision vector is compressed or recovered
        argv = ["run", "--config", "fig5", "--out", str(tmp_path / "o.csv"), "--set", "scenario.trials=2"]
        with mock.patch.object(sparse, "_batch_omp", wraps=sparse._batch_omp) as omp, \
                mock.patch.object(sparse, "compress", wraps=sparse.compress) as project:
            assert cli.main(argv) == 0
        assert omp.call_count == project.call_count == 0

    @pytest.mark.parametrize("preset, reports", [("fig4", 36), ("fig5", 305)])
    def test_batch_reports_of_preset_codecs(self, preset, reports):
        run = cli.build_run(cli.parse_config(*cli.load_config_file(preset)))
        assert sparse.batch_reports(simkit.scenario_codec(run.scenario)) == reports

    @pytest.mark.parametrize("preset, overrides, block_rows", [
        # 51 atoms make a fig5 level live, and the normals cap alone sizes the blocks:
        # 36 trials, so 120 flat trials run as four blocks of 30
        ("fig5", ["scenario.trials=60", "scenario.snr_db=0", "cs.max_atoms=51"], [30] * 4),
        # no report crosses the preset's codec: the normals cap, four blocks of 30
        ("fig5", ["scenario.trials=60", "scenario.snr_db=0"], [30] * 4),
        # the benchmark's runs: the normals cap fits 364 fig2/fig3 trials and 36 fig4/fig5
        # trials
        ("fig2", ["scenario.trials=50"], [350] * 6),
        ("fig3", ["scenario.trials=10"], [310] * 2),
        ("fig4", ["scenario.trials=1"], [21] * 2),
        ("fig5", ["scenario.trials=2"], [28] * 3),
        # 120 atoms: the factor cap fits 16 fig4 reports, which splits calls, not blocks
        ("fig4", ["scenario.trials=1", "cs.max_atoms=120"], [21] * 2),
        # a library run (every CLI rule applies at every level): only the middle of three
        # levels is live, and the normals cap's 36 trials run 300 as nine blocks
        pytest.param(None, (
            Scenario(scheme=Scheme.LOCAL_FUSION_CS, channel=_PRESET_CHANNEL, snr_grid_db=(0.0,), trials=150,
                     seed=41005, codec=CsCodecConfig(m=70, basis="identity", max_atoms=35)),
            [Variant("majority@39", 39.0, FusionRule(kind=FusionKind.MAJORITY)),
             Variant("single@26.2", 26.2, FusionRule(kind=FusionKind.SINGLE)),
             Variant("majority@32.9", 32.9, FusionRule(kind=FusionKind.MAJORITY))],
        ), [33, 33, 34] * 3, id="partially-live"),
    ])
    def test_block_height(self, preset, overrides, block_rows, tmp_path, monkeypatch, capsys):
        # each block is measured and decided once, and two workers run the serial run's blocks
        sizes = _in_process_pool(monkeypatch, 2)
        for workers in (1, 2):
            with mock.patch.object(simkit, "_block_decisions", wraps=simkit._block_decisions) as spy:
                if preset is None:  # overrides holds the scenario and variants
                    estimate_curves(*overrides, workers=workers, uncompressed_twin=True)
                else:
                    argv = ["run", "--config", preset, "--out", str(tmp_path / "o.csv"), "--workers", str(workers)]
                    assert cli.main(argv + [a for o in overrides for a in ("--set", o)]) == 0
            assert [len(c.args[-1]) for c in spy.call_args_list] == block_rows, f"--workers {workers}"
        assert sizes == [2]

    @pytest.mark.parametrize("case", ["fc_raw", "fc_raw_cs", "local_fusion", "local_fusion_cs"])
    def test_normals_cap_bounds_every_scheme(self, case):
        # a normals cap of five trials: the 92 flat trials run in 19 blocks, none of more
        # than five trials' normals
        scenario, variants = _EQUIVALENCE_CASES[case]
        cap = 5 * 6 * scenario.channel.n_nodes * scenario.channel.n_taps
        with mock.patch.object(simkit, "_BLOCK_NORMALS", cap), \
                mock.patch.object(simkit, "measure_block", wraps=simkit.measure_block) as spy:
            estimate_curves(scenario, variants, uncompressed_twin=scenario.scheme.compressed)
        sizes = [c.args[0].size for c in spy.call_args_list]
        assert len(sizes) == 19 and max(sizes) <= cap


# columns e1, e2, e1 + 1e-7 e3 and e1 + e2: the third is almost in the span of the first
_NEAR_DEPENDENT_PHI = np.array([[1.0, 0.0, 1.0, 1.0], [0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1e-7, 0.0]])


class TestOmpBreakdownRun:
    """A run whose codec breaks OMP down finishes, keeps the partial estimates and warns."""

    def test_fc_raw_cs_run_warns_and_returns_curves(self):
        scenario = Scenario(
            scheme=Scheme.FC_RAW_CS, snr_grid_db=(0.0, 10.0), trials=20, seed=7,
            channel=ChannelConfig(n_nodes=1, n_taps=4, rho=0.9, pdp=(1.0,) * 4, normalize_kronecker=False),
            codec=CsCodecConfig(m=3, basis="identity", max_atoms=3, residual_tol=0.0),
        )
        codec = sparse.CsCodec(_NEAR_DEPENDENT_PHI, basis="identity", max_atoms=3, residual_tol=0.0)
        with mock.patch.object(simkit, "scenario_codec", return_value=codec), \
                pytest.warns(RuntimeWarning, match="of 80 reports") as record:
            curves = estimate_curves(scenario, [Variant("fc", 8.0)], uncompressed_twin=True)
        assert len(record) == 1  # one block, one Batch-OMP call
        assert [c.label for c in curves] == ["fc", "fc no_cs"]


class TestSplitRecovery:
    """Under the factor cap a recovery runs as near-equal Batch-OMP calls, and equals one call bit for bit."""

    def test_split_equals_one_call(self):
        codec = sparse.CsCodec(_NEAR_DEPENDENT_PHI, basis="identity", max_atoms=3, residual_tol=0.0)
        ys = standard_normal_rows(12, list(range(40)), 3)  # 40 distinct reports
        with pytest.warns(RuntimeWarning, match="of 40 reports") as record:
            one = sparse._recover(ys, codec)
        assert len(record) == 1
        batch_omp, calls = sparse._batch_omp, []

        def spy(*args):
            calls.append(batch_omp(*args))
            return calls[-1]

        # a call's factor F holds 7 reports of 3 x (3 + 4) doubles each
        with mock.patch.object(sparse, "_BATCH_FACTOR", 7 * 3 * (3 + 4)), mock.patch.object(sparse, "_batch_omp", spy), \
                pytest.warns(RuntimeWarning, match="of 40 reports") as record:
            split = sparse._recover(ys, codec)
        assert [len(res.count) for res in calls] == [6, 7, 7, 6, 7, 7]
        assert sum(any(res.errors) for res in calls) > 1  # reports break down in several calls
        assert len(record) == 1  # and the recovery warns once
        for field in ("coeffs", "support", "count"):
            got, want = getattr(split, field), getattr(one, field)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert split.errors == one.errors


class TestCodecFromRecipe:
    """The recipe answers every question about the codec, and the measurement matrix is drawn only for a report."""

    def test_equal_budgets_share_one_codec(self):
        simkit._build_codec.cache_clear()
        unset, spelled = (
            Scenario(scheme=Scheme.LOCAL_FUSION_CS, channel=_PRESET_CHANNEL, snr_grid_db=(0.0,), trials=1, seed=41005,
                     codec=CsCodecConfig(m=70, basis="identity", max_atoms=atoms))
            for atoms in (None, 9)  # ceil(70 / 8) = 9
        )
        with mock.patch.object(sparse, "gaussian_phi", wraps=sparse.gaussian_phi) as draw:
            assert scenario_codec(unset) is scenario_codec(spelled)
        assert draw.call_count == 1

    def test_zero_by_construction_draws_nothing(self):
        run = cli.build_run(cli.parse_config(*cli.load_config_file("fig5")))
        simkit._build_codec.cache_clear()
        with mock.patch.object(sparse, "gaussian_phi", wraps=sparse.gaussian_phi) as draw:
            assert all(simkit.zero_by_construction(run.scenario, v) for v in run.variants)
        assert draw.call_count == 0

    @pytest.mark.parametrize("preset, trials, draws", [
        ("fig5", 2, 0),  # majority needs 51 votes and 35 atoms recover at most 35 ones: no report crosses the codec
        ("fig4", 1, 1),
    ])
    def test_run_draws_phi_only_for_a_report(self, preset, trials, draws, tmp_path, capsys):
        simkit._build_codec.cache_clear()
        argv = ["run", "--config", preset, "--out", str(tmp_path / "o.csv"), "--set", f"scenario.trials={trials}"]
        with mock.patch.object(sparse, "gaussian_phi", wraps=sparse.gaussian_phi) as draw:
            assert cli.main(argv) == 0
        assert draw.call_count == draws


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

    def test_target_met_at_first_point(self):
        # the crossing lies at or below 0 dB, so 0 - 1.889 dB would be only a bound
        a = self._curve([0.95, 0.99, 1.0], label="early")
        b = self._curve([0.1, 0.5, 0.95])
        with pytest.raises(CurveComparisonError, match="'early'"):
            snr_margin(a, b, 0.9)
        with pytest.raises(CurveComparisonError, match="'early'"):
            snr_margin(b, a, 0.9)

    def test_unreachable_target(self):
        a = self._curve([0.1, 0.2, 0.3, 0.4])
        b = self._curve([0.1, 0.5, 0.95, 1.0])
        with pytest.raises(CurveComparisonError):
            snr_margin(a, b, 0.9)

    def test_probability_bounds_validated(self):
        with pytest.raises(ValueError):
            self._curve([0.1, 1.5])

    def test_grid_must_increase(self):
        # the crossing reads the first point as the lowest SNR, so the same curves listed
        # 10, 5, 0 would give a 0 dB margin for this 1.65 dB gap
        pd_a, pd_b = [0.2, 0.6, 0.95], [0.3, 0.8, 0.99]
        a = self._curve(pd_a, label="a", snr=[0.0, 5.0, 10.0])
        b = self._curve(pd_b, label="b", snr=[0.0, 5.0, 10.0])
        assert snr_margin(a, b, 0.9) == pytest.approx(30 / 7 - 50 / 19, abs=1e-12)
        a_desc = self._curve(pd_a[::-1], label="a_desc", snr=[10.0, 5.0, 0.0])
        b_desc = self._curve(pd_b[::-1], label="b_desc", snr=[10.0, 5.0, 0.0])
        with pytest.raises(ValueError, match="a_desc"):
            snr_margin(a_desc, b_desc, 0.9)
        with pytest.raises(ValueError, match="b_flat"):
            snr_margin(a, self._curve(pd_b, label="b_flat", snr=[0.0, 5.0, 5.0]), 0.9)


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
# callable applier of the inverse covariance, dividing by sigma2).  It
# reads a block's deviations d = z - h_ab as its reports, where fc_raw_cs
# sends z = h_ab + d through the codec and tests the recovered z against
# h_ab.  The engine must match it bit for bit.
def _ref_resolve(scenario, variants):
    local = scenario.scheme.local
    thresholds, groups = [], {}
    for vi, v in enumerate(variants):
        thresholds.append(v.threshold)
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


def _ref_block_decisions(scenario, thresholds, rule_groups, twin, sigma2, h_ab, d):
    codec = scenario_codec(scenario) if scenario.scheme.compressed else None
    zero = np.zeros(d.shape[-1])
    if not scenario.scheme.local:
        reports = [(d, zero)] if codec is None else [(reconstruct_raw(compress(h_ab + d, codec), codec), h_ab)]
        if twin:
            reports.append((d, zero))
        return np.hstack([
            _ref_fc_raw_statistic(r, h, lambda x: x / sigma2)[:, None] > thresholds for r, h in reports
        ])
    t, n = len(d), scenario.channel.n_nodes
    shape = (t, n, scenario.channel.n_taps)
    stats_n = _ref_quadratic_statistic(d.reshape(shape), zero.reshape(shape[1:]), lambda x: x / sigma2[..., None])
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
        scheme=Scheme.LOCAL_FUSION, channel=_REF_LOCAL, snr_grid_db=(0.0,), trials=1, seed=505,
    ),
    "local_fusion_cs": Scenario(
        scheme=Scheme.LOCAL_FUSION_CS, channel=_REF_LOCAL, snr_grid_db=(0.0,), trials=1, seed=506,
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
        return [Variant(f"v{i}", d) for i, d in enumerate(deltas)]
    rules = _RULES
    if draw(st.booleans()):  # as cli._build_variants lays them out: level-major, every rule per level
        levels = draw(st.sampled_from([_REF_LEVELS[:3], _REF_LEVELS[2:], (8.0,)]))
        chosen = draw(st.lists(st.sampled_from(rules), min_size=1, max_size=5, unique=True))
        pairs = [(d, r) for d in levels for r in chosen]
    else:
        pairs = draw(st.lists(st.tuples(st.sampled_from(_REF_LEVELS), st.sampled_from(rules)),
                              min_size=1, max_size=12))
    return [Variant(f"v{i}", d, rule=r) for i, (d, r) in enumerate(pairs)]


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
        h_ab, d = _measured(cfg, standard_normal_rows(scenario.seed, streams, 6 * cfg.n_nodes * cfg.n_taps), eve, sigma2)
        want = _ref_block_decisions(scenario, *_ref_resolve(scenario, variants), twin, sigma2[:, None], h_ab, d)
        paths = (scenario.scheme.compressed,) + ((False,) if twin else ())
        got = simkit._block_decisions(scenario, *simkit._resolve(scenario, variants), paths, sigma2[:, None], h_ab, d)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)

    def test_weighted_average_groups_below_plane_height(self):
        # five levels; weighted-average groups one, two and three levels high, at the
        # vote thresholds where a mean of k/10 rounds differently at other heights
        scenario = _REF_CASES["local_fusion"]
        wa = {a: FusionRule(kind=FusionKind.WEIGHTED_AVERAGE, avg_threshold=a) for a in (0.6, 0.7, 0.9)}
        pairs = [(d, FusionRule(kind=FusionKind.MAJORITY)) for d in _REF_LEVELS]
        pairs += [(3.0, wa[0.6]), (5.0, wa[0.7]), (3.0, wa[0.7]), (3.0, wa[0.9]), (5.0, wa[0.9]), (8.0, wa[0.9])]
        variants = [Variant(f"v{i}", d, rule=r) for i, (d, r) in enumerate(pairs)]
        t, cfg = 2000, scenario.channel
        sigma2 = np.full(t, noise_variance(0.0))
        normals = standard_normal_rows(scenario.seed, range(t), 6 * cfg.n_nodes * cfg.n_taps)
        d = measure_block(normals, cfg, np.zeros(t, dtype=bool), sigma2)
        want = _ref_block_decisions(scenario, *_ref_resolve(scenario, variants), False, sigma2[:, None], None, d)
        got = simkit._block_decisions(scenario, *simkit._resolve(scenario, variants), (False,), sigma2[:, None], None, d)
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
        variants = [Variant(f"v{i}", 3.0 + i, FusionRule(kind=FusionKind.OR))
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


class TestCountRule:
    """A local variant's decision depends only on how many of the block's own node decisions fired."""

    def test_weighted_average_is_mean_vote_of_count(self):
        # ten nodes: mean votes of 6, 7 and 9 of 10 equal the thresholds, which accept
        scenario = _REF_CASES["local_fusion"]
        pairs = [(d, a) for d in (3.0, 5.0, 8.0) for a in (0.6, 0.7, 0.9)]
        variants = [Variant(f"v{i}", d, rule=FusionRule(kind=FusionKind.WEIGHTED_AVERAGE, avg_threshold=a))
                    for i, (d, a) in enumerate(pairs)]
        t, cfg = 2000, scenario.channel
        sigma2 = np.full((t, 1), noise_variance(0.0))
        normals = standard_normal_rows(scenario.seed, range(t), 6 * cfg.n_nodes * cfg.n_taps)
        d = measure_block(normals, cfg, np.zeros(t, dtype=bool), sigma2[:, 0])
        stats_n = quadratic_statistic(d.reshape(t, cfg.n_nodes, cfg.n_taps), 1.0 / sigma2[..., None])
        want = np.stack([(stats_n > d).sum(-1) / cfg.n_nodes > a for d, a in pairs], axis=1)
        got = simkit._block_decisions(scenario, *simkit._resolve(scenario, variants), (False,), sigma2, None, d)
        assert np.array_equal(got, want)
