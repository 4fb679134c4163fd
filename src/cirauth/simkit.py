"""Monte Carlo engine producing detection-probability curves.

A scenario fixes the channel statistics, the detector, and one of four
reporting schemes; the engine sweeps an SNR grid, running ``trials``
independent intruder (H1) trials and ``trials`` legitimate (H0) trials
per point, and reports empirical detection and false-alarm rates with
binomial standard errors.

Every trial owns a counter-based RNG substream addressed by
(seed, snr index, hypothesis, trial index), so results are bit-identical
across runs and worker counts; fan-out over a process pool only ever
reduces integer decision counts.  Several detector variants (threshold
sweeps, fusion rules) can be evaluated against the same draws in one
pass, which is also how the paired "with CS / without CS" comparisons are
produced.
"""

from __future__ import annotations

import enum
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import detect, sparse
from .channel import ChannelConfig, NoiseModel, Occupant, draw_channel, measure
from .detect import DetectorConfig, FusionRule
from .numerics import Rng
from .sparse import Basis, CsCodec


class CurveComparisonError(ValueError):
    """A curve never reaches the requested detection level."""


class Scheme(str, enum.Enum):
    FC_RAW = "fc_raw"
    LOCAL_FUSION = "local_fusion"
    FC_RAW_CS = "fc_raw_cs"
    LOCAL_FUSION_CS = "local_fusion_cs"


_CS_SCHEMES = (Scheme.FC_RAW_CS, Scheme.LOCAL_FUSION_CS)
_LOCAL_SCHEMES = (Scheme.LOCAL_FUSION, Scheme.LOCAL_FUSION_CS)

# Reserved stream id for drawing the measurement matrix; trial streams
# pack (snr index, hypothesis, trial) into the low 64 bits, see below.
_PHI_STREAM = 1 << 62
_MAX_TRIALS = 1 << 31
_MAX_SNR_POINTS = 1 << 20


@dataclass(frozen=True)
class CsCodecConfig:
    """Deterministic recipe for the scenario's compressed-sensing codec."""

    m: int
    basis: Basis = Basis.DCT
    max_atoms: int | None = None
    residual_tol: float = 1e-6

    def __post_init__(self):
        object.__setattr__(self, "basis", Basis(self.basis))
        if self.m < 1:
            raise ValueError(f"m must be positive, got {self.m}")
        if self.max_atoms is not None and self.max_atoms < 1:
            raise ValueError(f"max_atoms must be positive, got {self.max_atoms}")
        if not 0.0 <= self.residual_tol < math.inf:
            raise ValueError(f"residual_tol must be finite and nonnegative, got {self.residual_tol}")


@dataclass(frozen=True)
class Scenario:
    """Everything needed to reproduce one detection experiment."""

    scheme: Scheme
    channel: ChannelConfig
    detector: DetectorConfig
    snr_grid_db: tuple[float, ...]
    trials: int
    seed: int
    fusion: FusionRule | None = None
    codec: CsCodecConfig | None = None

    def __post_init__(self):
        object.__setattr__(self, "scheme", Scheme(self.scheme))
        object.__setattr__(self, "snr_grid_db", tuple(float(s) for s in self.snr_grid_db))
        if not self.snr_grid_db:
            raise ValueError("snr_grid_db must be nonempty")
        if not all(math.isfinite(s) for s in self.snr_grid_db):
            raise ValueError(f"snr_grid_db entries must be finite, got {self.snr_grid_db}")
        if len(self.snr_grid_db) > _MAX_SNR_POINTS:
            raise ValueError("snr grid too large for the substream packing")
        if self.trials < 1:
            raise ValueError(f"trials must be positive, got {self.trials}")
        if self.trials > _MAX_TRIALS:
            raise ValueError("trials too large for the substream packing")
        if self.scheme in _LOCAL_SCHEMES:
            if self.fusion is None:
                raise ValueError(f"scheme {self.scheme.value} requires a fusion rule")
            if self.detector.delta_n is None and self.detector.target_pfa_n is None:
                raise ValueError(f"scheme {self.scheme.value} requires local thresholds")
        else:
            if self.detector.delta is None and self.detector.target_pfa is None:
                raise ValueError(f"scheme {self.scheme.value} requires a fusion-center threshold")
        if self.scheme in _CS_SCHEMES:
            if self.codec is None:
                raise ValueError(f"scheme {self.scheme.value} requires a codec config")
            if self.codec.m >= self.report_length:
                raise ValueError(
                    f"codec m={self.codec.m} must be smaller than the "
                    f"report length {self.report_length}"
                )

    @property
    def report_length(self) -> int:
        """Length of the vector the nodes put on the reporting channel."""
        if self.scheme is Scheme.LOCAL_FUSION_CS:
            return self.channel.n_nodes
        return self.channel.n_nodes * self.channel.n_taps


@dataclass(frozen=True)
class DetectionCurve:
    """Empirical P_d (= 1 - P_md) and P_fa over an SNR grid."""

    scheme: str
    label: str
    snr_db: tuple[float, ...]
    p_d: tuple[float, ...]
    p_d_stderr: tuple[float, ...]
    p_fa: tuple[float, ...]
    p_fa_stderr: tuple[float, ...]
    trials: int

    def __post_init__(self):
        lengths = {len(self.snr_db), len(self.p_d), len(self.p_d_stderr), len(self.p_fa), len(self.p_fa_stderr)}
        if len(lengths) != 1:
            raise ValueError("curve vectors must share one length")
        for v in (*self.p_d, *self.p_fa):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"probability {v} outside [0, 1]")


@dataclass(frozen=True)
class Variant:
    """One detector specialization evaluated against the shared draws.

    Local schemes combine the per-node decisions with ``rule`` (the
    single-sensor baseline is ``FusionKind.SINGLE``); fusion-center
    schemes ignore it.
    """

    label: str
    detector: DetectorConfig
    rule: FusionRule | None = None


def _trial_stream(snr_index: int, occupant: Occupant, trial_index: int) -> int:
    bit = 1 if occupant is Occupant.EVE else 0
    return (snr_index << 33) | (bit << 32) | trial_index


@lru_cache(maxsize=8)
def _build_codec(seed: int, n: int, cfg: CsCodecConfig) -> CsCodec:
    rng = Rng(seed, _PHI_STREAM)
    return CsCodec.gaussian(
        rng, cfg.m, n, basis=cfg.basis, max_atoms=cfg.max_atoms, residual_tol=cfg.residual_tol
    )


def scenario_codec(scenario: Scenario) -> CsCodec:
    """The scenario's (deterministically drawn, cached) codec."""
    if scenario.codec is None:
        raise ValueError("scenario has no codec config")
    return _build_codec(scenario.seed, scenario.report_length, scenario.codec)


def _resolved_variants(scenario: Scenario, variants: list[Variant] | None) -> list[Variant]:
    n, L = scenario.channel.n_nodes, scenario.channel.n_taps
    if variants is None:
        variants = [
            Variant(
                label=scenario.scheme.value,
                detector=scenario.detector,
                rule=scenario.fusion,
            )
        ]
    resolved = [replace(v, detector=v.detector.resolve(n, L)) for v in variants]
    local = scenario.scheme in _LOCAL_SCHEMES
    for v in resolved:
        if (v.detector.delta_n if local else v.detector.delta) is None:
            raise ValueError(f"variant {v.label!r} lacks a threshold for {scenario.scheme.value}")
        if local and v.rule is None:
            raise ValueError(f"variant {v.label!r} lacks a fusion rule")
    return resolved


def _decisions_one_trial(
    rng: Rng,
    scenario: Scenario,
    variants: list[Variant],
    snr_db: float,
    occupant: Occupant,
) -> np.ndarray:
    """Hard H1-decisions of every variant on one shared channel/noise draw."""
    cfg = scenario.channel
    noise = NoiseModel.from_snr_db(snr_db, cfg.n_nodes, cfg.n_taps)
    ensemble = draw_channel(rng, cfg)
    batch = measure(rng, ensemble, occupant, noise)
    h_ref = ensemble.stacked(Occupant.ALICE)
    out = np.zeros(len(variants), dtype=bool)

    if scenario.scheme in (Scheme.FC_RAW, Scheme.FC_RAW_CS):
        z = batch.z_star
        if scenario.scheme is Scheme.FC_RAW_CS:
            codec = scenario_codec(scenario)
            z = sparse.reconstruct_raw(sparse.compress(z, codec), codec)
        stat = detect.fc_raw_statistic(z, h_ref, noise.apply_inverse)
        for i, v in enumerate(variants):
            out[i] = stat > v.detector.delta
        return out

    # Local schemes: per-node statistics once, then per-variant thresholds.
    shape = (cfg.n_nodes, cfg.n_taps)
    stats_n = detect.quadratic_statistic(
        batch.z_star.reshape(shape),
        h_ref.reshape(shape),
        lambda d: noise.apply_inverse(d.reshape(-1)).reshape(shape),
    )
    codec = scenario_codec(scenario) if scenario.scheme is Scheme.LOCAL_FUSION_CS else None
    for i, v in enumerate(variants):
        u = (stats_n > v.detector.delta_n_vector(cfg.n_nodes)).astype(np.int64)
        if codec is not None:
            u = sparse.reconstruct_decisions(sparse.compress(u.astype(np.float64), codec), codec)
        out[i] = detect.fuse(u, v.rule)
    return out


def _count_chunk(args) -> np.ndarray:
    scenario, variants, snr_index, occupant, lo, hi = args
    snr_db = scenario.snr_grid_db[snr_index]
    counts = np.zeros(len(variants), dtype=np.int64)
    for trial in range(lo, hi):
        rng = Rng(scenario.seed, _trial_stream(snr_index, occupant, trial))
        counts += _decisions_one_trial(rng, scenario, variants, snr_db, occupant)
    return counts


def _chunks(trials: int, workers: int) -> list[tuple[int, int]]:
    per = math.ceil(trials / max(workers, 1))
    return [(lo, min(lo + per, trials)) for lo in range(0, trials, per)]


def estimate_curves(
    scenario: Scenario,
    variants: list[Variant] | None = None,
    workers: int = 1,
) -> list[DetectionCurve]:
    """Detection curves for every variant, from one pass over shared draws.

    For each SNR point: ``trials`` H1 trials (intruder transmitting)
    estimate P_d and ``trials`` H0 trials (legitimate transmitter)
    estimate the empirical false-alarm rate.  Binomial standard errors
    are attached.  Output is bit-identical for fixed scenario regardless
    of ``workers``.
    """
    resolved = _resolved_variants(scenario, variants)
    n_pts, n_var = len(scenario.snr_grid_db), len(resolved)
    h1_counts = np.zeros((n_pts, n_var), dtype=np.int64)
    h0_counts = np.zeros((n_pts, n_var), dtype=np.int64)

    tasks = [
        (scenario, resolved, si, occupant, lo, hi)
        for si in range(n_pts)
        for occupant in (Occupant.EVE, Occupant.ALICE)
        for lo, hi in _chunks(scenario.trials, workers)
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_count_chunk, tasks))
    else:
        results = [_count_chunk(t) for t in tasks]
    for task, counts in zip(tasks, results):
        _, _, si, occupant, _, _ = task
        (h1_counts if occupant is Occupant.EVE else h0_counts)[si] += counts

    curves = []
    t = scenario.trials
    for vi, variant in enumerate(resolved):
        p_d = h1_counts[:, vi] / t
        p_fa = h0_counts[:, vi] / t
        curves.append(
            DetectionCurve(
                scheme=scenario.scheme.value,
                label=variant.label,
                snr_db=scenario.snr_grid_db,
                p_d=tuple(p_d.tolist()),
                p_d_stderr=tuple(np.sqrt(p_d * (1 - p_d) / t).tolist()),
                p_fa=tuple(p_fa.tolist()),
                p_fa_stderr=tuple(np.sqrt(p_fa * (1 - p_fa) / t).tolist()),
                trials=t,
            )
        )
    return curves


def estimate_curve(scenario: Scenario, workers: int = 1) -> DetectionCurve:
    """Single-detector convenience wrapper around :func:`estimate_curves`."""
    return estimate_curves(scenario, None, workers=workers)[0]


def snr_margin(curve_a: DetectionCurve, curve_b: DetectionCurve, target_pd: float) -> float:
    """SNR penalty (dB) of curve_a relative to curve_b at a detection level.

    Linear interpolation in dB of each curve's first upward crossing of
    ``target_pd``; positive means curve_a needs more SNR.  Raises
    :class:`CurveComparisonError` when a curve never reaches the target
    inside its grid.
    """
    return _crossing(curve_a, target_pd) - _crossing(curve_b, target_pd)


def _crossing(curve: DetectionCurve, target: float) -> float:
    snr = np.asarray(curve.snr_db)
    pd = np.asarray(curve.p_d)
    if pd[0] >= target:
        return float(snr[0])
    above = np.nonzero(pd >= target)[0]
    if above.size == 0:
        raise CurveComparisonError(
            f"curve '{curve.label}' never reaches P_d={target} on its grid"
        )
    i = int(above[0])
    x0, x1, y0, y1 = snr[i - 1], snr[i], pd[i - 1], pd[i]
    return float(x0 + (target - y0) * (x1 - x0) / (y1 - y0))
