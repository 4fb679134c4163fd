"""Monte Carlo engine producing detection-probability curves.

A scenario fixes the channel statistics, the detector, and one of four
reporting schemes; the engine sweeps an SNR grid, running ``trials``
independent intruder (H1) trials and ``trials`` legitimate (H0) trials
per point, and reports empirical detection and false-alarm rates with
binomial standard errors.

Every trial owns a counter-based RNG substream addressed by
(seed, snr index, hypothesis, trial index), so results are bit-identical
across runs and worker counts; fan-out over a process pool only ever
reduces integer decision counts.  The trials of the whole grid form one
flat range, SNR point by SNR point and H1 before H0.  Workers split it
into contiguous ranges, and each range runs in blocks of near-equal
height under a fixed memory cap, so a block may span hypotheses and SNR
points.  A block's substreams fill one (T, 6NL) array of normals, every
later stage runs over a leading trial axis with each row's own occupant
and noise variance (a CS scheme stacks consecutive blocks so that one
Batch-OMP call recovers them all, under a cap on its factor), and every
stage is exact per row, so counts depend neither on the blocks, nor on
the batches, nor on the worker count.  All detector variants (threshold
sweeps, fusion rules) and the paired "without CS" twin curves read the
same block, and variants that share a threshold share its decisions.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import detect, sparse
from .channel import ChannelConfig, measure_block, noise_variance
from .detect import DetectorConfig, FusionRule
from .numerics import Rng, standard_normal_rows
from .sparse import Basis, CsCodec


class CurveComparisonError(ValueError):
    """A curve never reaches the requested detection level."""


class Scheme(str, enum.Enum):
    FC_RAW = "fc_raw"
    LOCAL_FUSION = "local_fusion"
    FC_RAW_CS = "fc_raw_cs"
    LOCAL_FUSION_CS = "local_fusion_cs"

    @property
    def local(self) -> bool:
        """Nodes test locally and report decision bits, not raw measurements."""
        return self in (Scheme.LOCAL_FUSION, Scheme.LOCAL_FUSION_CS)

    @property
    def compressed(self) -> bool:
        """Reports cross a compressed-sensing channel."""
        return self in (Scheme.FC_RAW_CS, Scheme.LOCAL_FUSION_CS)


# Reserved stream id for drawing the measurement matrix; trial streams
# pack (snr index, hypothesis, trial) into the low 64 bits, see below.
_PHI_STREAM = 1 << 62
_MAX_TRIALS = 1 << 31
_MAX_SNR_POINTS = 1 << 20
# Bound on |SNR| in dB, inside which the noise variance and every stage after it stay finite.
_MAX_ABS_SNR_DB = 1000.0
# Cap on a trial block's standard normals (1 MiB).  Counts depend on
# neither cap.
_BLOCK_NORMALS = 1 << 17
# Cap on the Batch-OMP factor (reports x budget x (budget + n) doubles,
# 11 MiB) of consecutive blocks recovered in one call.  A full 36-trial
# fig4 block (36 x 60 x 660 doubles) fits alone and two never merge; a
# fig5 trial needs 3 x 35 x 135, so two full fig5 blocks share one call.
_BATCH_FACTOR = 11 << 17


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
        if self.max_atoms is not None and not 1 <= self.max_atoms <= self.m:
            # OMP places at most m independent atoms; past that it breaks down mid-run
            raise ValueError(f"max_atoms must lie in [1, m={self.m}], got {self.max_atoms}")
        sparse.check_residual_tol(self.residual_tol)


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
        bad = [s for s in self.snr_grid_db if not abs(s) <= _MAX_ABS_SNR_DB]
        if bad:
            raise ValueError(f"snr_grid_db entries must be finite and within +-{_MAX_ABS_SNR_DB:g} dB, got {bad[0]}")
        if len(self.snr_grid_db) > _MAX_SNR_POINTS:
            raise ValueError(f"snr_grid_db has more than {_MAX_SNR_POINTS} points, the substream packing's limit")
        if self.trials < 1:
            raise ValueError(f"trials must be positive, got {self.trials}")
        if self.trials > _MAX_TRIALS:
            raise ValueError("trials too large for the substream packing")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        if self.scheme.local:
            if self.fusion is None:
                raise ValueError(f"scheme {self.scheme.value} requires a fusion rule")
            if self.detector.delta_n is None and self.detector.target_pfa_n is None:
                raise ValueError(f"scheme {self.scheme.value} requires local thresholds")
        else:
            if self.detector.delta is None and self.detector.target_pfa is None:
                raise ValueError(f"scheme {self.scheme.value} requires a fusion-center threshold")
        if self.scheme.compressed:
            if self.codec is None:
                raise ValueError(f"scheme {self.scheme.value} requires a codec config")
            if self.codec.m >= self.report_length:
                raise ValueError(
                    f"m must be smaller than the report length {self.report_length}, got {self.codec.m}"
                )
            if self.scheme.local and self.codec.basis is not Basis.IDENTITY:
                raise ValueError(f"basis must be identity for decision recovery, got {self.codec.basis.value}")

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


@lru_cache(maxsize=8)
def _build_codec(seed: int, n: int, cfg: CsCodecConfig) -> CsCodec:
    phi = sparse.gaussian_phi(Rng(seed, _PHI_STREAM), cfg.m, n)
    return CsCodec(phi, basis=cfg.basis, max_atoms=cfg.max_atoms, residual_tol=cfg.residual_tol)


def scenario_codec(scenario: Scenario) -> CsCodec:
    """The scenario's (deterministically drawn, cached) codec."""
    if scenario.codec is None:
        raise ValueError("scenario has no codec config")
    return _build_codec(scenario.seed, scenario.report_length, scenario.codec)


def _resolve(scenario: Scenario, variants: list[Variant]) -> tuple[np.ndarray, tuple]:
    """The distinct thresholds (D,) in first-occurrence order, and ``(rule, variant indices, level indices)`` groups.

    A threshold is the fusion center's, or the one all nodes share.  Local
    schemes group by fusion rule; FC schemes have one group, of rule None.
    Level indices 0..D-1, as in every CLI-built run, are ``slice(None)``.
    """
    n, L = scenario.channel.n_nodes, scenario.channel.n_taps
    local = scenario.scheme.local
    levels, groups = {}, {}
    for vi, v in enumerate(variants):
        detector = v.detector.resolve(n, L)
        threshold = detector.delta_n if local else detector.delta
        if threshold is None:
            raise ValueError(f"variant {v.label!r} lacks a threshold for {scenario.scheme.value}")
        if local and v.rule is None:
            raise ValueError(f"variant {v.label!r} lacks a fusion rule")
        group = groups.setdefault(v.rule if local else None, ([], []))
        group[0].append(vi)
        group[1].append(levels.setdefault(threshold, len(levels)))
    every = list(range(len(levels)))
    return np.array(list(levels), dtype=float), tuple(
        (rule, np.array(vis), slice(None) if lis == every else np.array(lis)) for rule, (vis, lis) in groups.items()
    )


def _block_decisions(scenario, levels, groups, twin, sigma2, h_ref, z) -> np.ndarray:
    """(T, V) H1-decisions of every variant on a block's stacked ``h_ref``/``z``, then the twin's.

    ``sigma2`` (T, 1) is each row's noise variance.  Each report is compared
    with the D distinct ``levels`` once; a local scheme then fuses, per rule,
    the plane of its group's levels.  That plane has the group's height, not
    D: the weighted average's dot product rounds differently at other heights.
    """
    codec = scenario_codec(scenario) if scenario.scheme.compressed else None
    scale = 1.0 / sigma2  # d / sigma2 divides complex by complex; d * scale differs only in signs of zero
    if not scenario.scheme.local:
        reports = [z] if codec is None else [sparse.reconstruct_raw(sparse.compress(z, codec), codec)]
        if twin:
            reports.append(z)
        planes = [detect.quadratic_statistic(r, h_ref, scale)[:, None] > levels for r in reports]
    else:
        t, n = len(z), scenario.channel.n_nodes
        shape = (t, n, scenario.channel.n_taps)
        stats_n = detect.quadratic_statistic(z.reshape(shape), h_ref.reshape(shape), scale[..., None])
        u = (stats_n[:, None, :] > levels[:, None]).astype(np.int64)  # (T, D, N)
        planes = [u]
        if codec is not None:
            u_cs = sparse.reconstruct_decisions(sparse.compress(u.reshape(-1, n).astype(float), codec), codec)
            planes = [u_cs.reshape(u.shape)] + ([u] if twin else [])
    out = np.empty((len(z), len(planes), sum(len(vi) for _, vi, _ in groups)), dtype=bool)
    for p, plane in enumerate(planes):
        for rule, vi, li in groups:
            out[:, p, vi] = plane[:, li] if rule is None else detect.fuse(plane[:, li], rule)
    return out.reshape(len(z), -1)


def _count_range(args) -> np.ndarray:
    """Decision counts, shape (2 * SNR points, columns), of the flat trials ``[lo, hi)``.

    Flat trial g = (2 s + h) * trials + t is trial t of hypothesis h (0:
    eve, 1: alice) at SNR index s; it owns stream (s << 33) | (eve << 32)
    | t and is counted in row 2 s + h.  The range runs in blocks of
    near-equal height under the ``_BLOCK_NORMALS`` cap, and a block may
    span hypotheses and SNR points: every row carries its own occupant
    and noise variance.  A CS scheme decides consecutive blocks together,
    as many as fit under ``_BATCH_FACTOR`` at the tallest block's factor.
    """
    scenario, levels, groups, twin, lo, hi = args
    cfg = scenario.channel
    sigma2 = np.array([noise_variance(snr) for snr in scenario.snr_grid_db])
    width = 6 * cfg.n_nodes * cfg.n_taps  # alice, eve, noise: 2NL normals each
    n = hi - lo
    blocks = -(-n // max(1, _BLOCK_NORMALS // width))
    per_batch = 1  # consecutive blocks per _block_decisions call
    if scenario.scheme.compressed:
        codec = scenario_codec(scenario)
        budget = min(codec.max_atoms, codec.n)
        reports = -(-n // blocks) * (len(levels) if scenario.scheme.local else 1)  # of the tallest block
        per_batch = max(1, _BATCH_FACTOR // (reports * budget * (budget + codec.n)))
    columns = sum(len(vi) for _, vi, _ in groups) * (1 + twin)
    counts = np.zeros((2 * len(sigma2), columns), dtype=np.int64)
    for first in range(0, blocks, per_batch):
        batch = []
        for b in range(first, min(first + per_batch, blocks)):
            row, t = np.divmod(np.arange(lo + b * n // blocks, lo + (b + 1) * n // blocks), scenario.trials)
            s, eve = row >> 1, row % 2 == 0
            streams = ((s << 33) | (eve.astype(np.int64) << 32) | t).tolist()
            h_ref, z = measure_block(standard_normal_rows(scenario.seed, streams, width), cfg, eve, sigma2[s])
            batch.append((row, s, h_ref, z))
        row, s, h_ref, z = batch[0] if len(batch) == 1 else (np.concatenate(x) for x in zip(*batch))
        decisions = _block_decisions(scenario, levels, groups, twin, sigma2[s, None], h_ref, z)
        # a batch's flat trials are consecutive, so ``row`` never decreases and runs through
        # every counts row from its first to its last: sum each run of it
        lo_row, hi_row = row[0], row[-1]
        runs = np.searchsorted(row, np.arange(lo_row, hi_row + 1))
        counts[lo_row : hi_row + 1] += np.add.reduceat(decisions, runs, dtype=np.int64)
    return counts


def estimate_curves(
    scenario: Scenario,
    variants: list[Variant] | None = None,
    workers: int = 1,
    uncompressed_twin: bool = False,
) -> list[DetectionCurve]:
    """Detection curves for every variant, from one pass over shared draws.

    For each SNR point: ``trials`` H1 trials (intruder transmitting)
    estimate P_d and ``trials`` H0 trials (legitimate transmitter)
    estimate the empirical false-alarm rate.  Binomial standard errors
    are attached.  Output is bit-identical for fixed scenario regardless
    of ``workers``.

    With ``uncompressed_twin`` (CS schemes only) every variant also gets
    a ``"<label> no_cs"`` curve of the uncompressed scheme, read from the
    same draws before compression; these follow the compressed curves.
    """
    if uncompressed_twin and not scenario.scheme.compressed:
        raise ValueError(f"scheme {scenario.scheme.value} has no uncompressed twin")
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    if variants is None:
        variants = [Variant(scenario.scheme.value, scenario.detector, scenario.fusion)]
    levels, groups = _resolve(scenario, variants)
    columns = [(scenario.scheme, v.label) for v in variants]
    if uncompressed_twin:
        plain = Scheme.FC_RAW if scenario.scheme is Scheme.FC_RAW_CS else Scheme.LOCAL_FUSION
        columns += [(plain, v.label + " no_cs") for v in variants]
    total = 2 * len(scenario.snr_grid_db) * scenario.trials
    procs = min(workers, total, len(os.sched_getaffinity(0)))  # a pool forks all its workers at once
    bounds = [total * i // procs for i in range(procs + 1)]
    tasks = [(scenario, levels, groups, uncompressed_twin, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    if procs > 1:
        from concurrent.futures import ProcessPoolExecutor  # lazy: a serial run skips its imports

        with ProcessPoolExecutor(max_workers=procs) as pool:
            counts = sum(pool.map(_count_range, tasks))
    else:
        counts = _count_range(tasks[0])
    # row 2 s of counts is point s's H1 count, row 2 s + 1 its H0 count
    t = scenario.trials
    p = counts.T / t
    p, stderr = p.tolist(), np.sqrt(p * (1 - p) / t).tolist()
    return [
        DetectionCurve(
            scheme=scheme.value,
            label=label,
            snr_db=scenario.snr_grid_db,
            p_d=tuple(p_c[0::2]),
            p_d_stderr=tuple(se_c[0::2]),
            p_fa=tuple(p_c[1::2]),
            p_fa_stderr=tuple(se_c[1::2]),
            trials=t,
        )
        for (scheme, label), p_c, se_c in zip(columns, p, stderr)
    ]


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
