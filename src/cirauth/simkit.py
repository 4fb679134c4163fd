"""Monte Carlo engine producing detection-probability curves.

A scenario fixes the channel statistics and one of four reporting
schemes, and each variant a detector threshold and, on a local scheme,
a fusion rule.  The engine sweeps an SNR grid, running ``trials``
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
and noise variance (a CS scheme recovers the block's reports in one
Batch-OMP call), and every stage is exact per row, so counts depend
neither on the blocks nor on the worker count.  All detector variants
(threshold sweeps, fusion rules) read the same block, and the paired
"without CS" twin curves read its reports as measured; variants that
share a threshold share its decisions.
"""

from __future__ import annotations

import enum
import operator
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import detect, sparse
from .channel import ChannelConfig, measure_block, noise_variance
from .detect import FusionRule
from .numerics import standard_normal_rows, stream
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
# A block's height caps its standard normals (1 MiB) on an uncompressed
# scheme, and on a CS scheme its Batch-OMP factor (reports x budget x
# (budget + n) doubles, 11 MiB): 36 fig4 trials (60 x 660 each), 101 fig5
# trials (3 x 35 x 135 each).  Counts depend on neither cap.
_BLOCK_NORMALS = 1 << 17
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
        object.__setattr__(self, "m", operator.index(self.m))  # a float raises TypeError here, not mid-run
        object.__setattr__(self, "max_atoms", None if self.max_atoms is None else operator.index(self.max_atoms))
        if self.m < 1:
            raise ValueError(f"m must be positive, got {self.m}")
        if self.max_atoms is not None and not 1 <= self.max_atoms <= self.m:
            # OMP places at most m independent atoms; past that it breaks down mid-run
            raise ValueError(f"max_atoms must lie in [1, m={self.m}], got {self.max_atoms}")
        sparse.check_residual_tol(self.residual_tol)


@dataclass(frozen=True)
class Scenario:
    """Everything but the detector variants needed to reproduce one detection experiment."""

    scheme: Scheme
    channel: ChannelConfig
    snr_grid_db: tuple[float, ...]
    trials: int
    seed: int
    codec: CsCodecConfig | None = None

    def __post_init__(self):
        object.__setattr__(self, "scheme", Scheme(self.scheme))
        object.__setattr__(self, "snr_grid_db", tuple(float(s) for s in self.snr_grid_db))
        object.__setattr__(self, "trials", operator.index(self.trials))  # a float raises TypeError here, not mid-run
        object.__setattr__(self, "seed", operator.index(self.seed))  # nor runs as its floor's substreams
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

    ``threshold`` is the fusion center's delta on an FC scheme, and the
    delta_n all nodes share on a local one (`detect.solve_threshold`
    turns a target false-alarm rate into either).  Local schemes combine
    the per-node decisions with ``rule`` (the single-sensor baseline is
    ``FusionKind.SINGLE``); fusion-center schemes ignore it.
    """

    label: str
    threshold: float
    rule: FusionRule | None = None

    def __post_init__(self):
        if any(c in self.label for c in ",\n\r"):  # each would split a CSV field or row
            raise ValueError(f"label must hold no comma or line break, got {self.label!r}")
        if not 0.0 < self.threshold < np.inf:
            raise ValueError(f"threshold must lie in (0, inf), got {self.threshold}")


@lru_cache(maxsize=8)
def _build_codec(seed: int, n: int, cfg: CsCodecConfig) -> CsCodec:
    phi = sparse.gaussian_phi(stream(seed, _PHI_STREAM), cfg.m, n)
    return CsCodec(phi, basis=cfg.basis, max_atoms=cfg.max_atoms, residual_tol=cfg.residual_tol)


def scenario_codec(scenario: Scenario) -> CsCodec:
    """The scenario's (deterministically drawn, cached) codec."""
    if scenario.codec is None:
        raise ValueError("scenario has no codec config")
    return _build_codec(scenario.seed, scenario.report_length, scenario.codec)


def _resolve(scenario: Scenario, variants: list[Variant]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct thresholds ``levels`` (D,) in first-occurrence order, and each variant's ``columns`` and ``cutoffs`` (V,).

    A threshold is the fusion center's, or the one all nodes share.  On an
    FC scheme a variant's column is its level's index.  On a local scheme
    it indexes a block's tally, the vote count at each level and then node
    0's vote at each level, and the variant declares H1 where its column
    of the tally exceeds its cutoff: ``(voters, k) = rule.cutoff(N)``
    reads the count, or node 0's vote if ``voters`` is 1.
    """
    labels = [v.label for v in variants]
    if not labels:
        raise ValueError("need at least one variant")
    if len(set(labels)) < len(labels):
        raise ValueError(f"variant labels must be distinct, got {labels}")
    local, n = scenario.scheme.local, scenario.channel.n_nodes
    levels = list(dict.fromkeys(v.threshold for v in variants))
    columns, cutoffs = [], []
    for v in variants:
        if local and v.rule is None:
            raise ValueError(f"variant {v.label!r} lacks a fusion rule")
        voters, k = v.rule.cutoff(n) if local else (n, 0)
        columns.append(levels.index(v.threshold) + (len(levels) if voters < n else 0))
        cutoffs.append(k)
    return np.array(levels, dtype=float), np.array(columns), np.array(cutoffs)


def _block_decisions(scenario, levels, columns, cutoffs, paths, sigma2, h_ref, z) -> np.ndarray:
    """(T, V * len(paths)) H1-decisions of every variant on a block's stacked ``h_ref``/``z``, path by path.

    A True path sends the block's reports through the scenario's codec, a
    False one reads them as measured.  ``sigma2`` (T, 1) is each row's
    noise variance.  Each report is compared with the D distinct
    ``levels`` once.  A local scheme then tallies each (T, D, N) plane of
    node decisions into (T, 2D) vote counts and node-0 votes, and
    compares each variant's column of it with its cutoff.
    """
    codec = scenario_codec(scenario) if any(paths) else None
    scale = 1.0 / sigma2  # d / sigma2 divides complex by complex; d * scale differs only in signs of zero
    if not scenario.scheme.local:
        reports = [sparse.reconstruct_raw(sparse.compress(z, codec), codec) if cs else z for cs in paths]
        return np.hstack([(detect.quadratic_statistic(r, h_ref, scale)[:, None] > levels)[:, columns] for r in reports])
    t, n = len(z), scenario.channel.n_nodes
    shape = (t, n, scenario.channel.n_taps)
    stats_n = detect.quadratic_statistic(z.reshape(shape), h_ref.reshape(shape), scale[..., None])
    u = stats_n[:, None, :] > levels[:, None]  # (T, D, N)
    if codec is not None:
        u_cs = sparse.reconstruct_decisions(sparse.compress(u.reshape(-1, n).astype(float), codec), codec)
    planes = [u_cs.reshape(u.shape) if cs else u for cs in paths]
    tallies = [np.hstack((plane.sum(-1), plane[..., 0])) for plane in planes]  # (T, 2D): counts, then node 0's votes
    return np.hstack([tally[:, columns] > cutoffs for tally in tallies])


def _count_range(args) -> np.ndarray:
    """Decision counts, shape (2 * SNR points, columns x paths), of the flat trials ``[lo, hi)``.

    Flat trial g = (2 s + h) * trials + t is trial t of hypothesis h (0:
    eve, 1: alice) at SNR index s; it owns stream (s << 33) | (eve << 32)
    | t and is counted in row 2 s + h.  The range runs in blocks of
    near-equal height, under the ``_BATCH_FACTOR`` cap on a CS scheme
    and the ``_BLOCK_NORMALS`` cap otherwise, and a block may span
    hypotheses and SNR points: every row carries its own occupant and
    noise variance.
    """
    scenario, levels, columns, cutoffs, paths, lo, hi = args
    cfg = scenario.channel
    sigma2 = np.array([noise_variance(snr) for snr in scenario.snr_grid_db])
    width = 6 * cfg.n_nodes * cfg.n_taps  # alice, eve, noise: 2NL normals each
    height = _BLOCK_NORMALS // width
    if scenario.scheme.compressed:  # a trial's factor: reports x budget x (budget + n)
        codec = scenario_codec(scenario)
        budget = min(codec.max_atoms, codec.n)
        height = _BATCH_FACTOR // ((len(levels) if scenario.scheme.local else 1) * budget * (budget + codec.n))
    n = hi - lo
    blocks = -(-n // max(1, height))
    counts = np.zeros((2 * len(sigma2), len(columns) * len(paths)), dtype=np.int64)
    for b in range(blocks):
        row, t = np.divmod(np.arange(lo + b * n // blocks, lo + (b + 1) * n // blocks), scenario.trials)
        s, eve = row >> 1, row % 2 == 0
        streams = ((s << 33) | (eve.astype(np.int64) << 32) | t).tolist()
        h_ref, z = measure_block(standard_normal_rows(scenario.seed, streams, width), cfg, eve, sigma2[s])
        decisions = _block_decisions(scenario, levels, columns, cutoffs, paths, sigma2[s, None], h_ref, z)
        # a block's flat trials are consecutive, so ``row`` never decreases and runs through
        # every counts row from its first to its last: sum each run of it
        lo_row, hi_row = row[0], row[-1]
        runs = np.searchsorted(row, np.arange(lo_row, hi_row + 1))
        counts[lo_row : hi_row + 1] += np.add.reduceat(decisions, runs, dtype=np.int64)
    return counts


def estimate_curves(
    scenario: Scenario,
    variants: list[Variant],
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
    resolved = _resolve(scenario, variants)
    columns = [(scenario.scheme, v.label) for v in variants]
    if uncompressed_twin:
        plain = Scheme.FC_RAW if scenario.scheme is Scheme.FC_RAW_CS else Scheme.LOCAL_FUSION
        columns += [(plain, v.label + " no_cs") for v in variants]
    total = 2 * len(scenario.snr_grid_db) * scenario.trials
    procs = min(workers, total, len(os.sched_getaffinity(0)))  # a pool forks all its workers at once
    bounds = [total * i // procs for i in range(procs + 1)]
    paths = (scenario.scheme.compressed,) + ((False,) if uncompressed_twin else ())
    tasks = [(scenario, *resolved, paths, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
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


def snr_margin(curve_a: DetectionCurve, curve_b: DetectionCurve, target_pd: float) -> float:
    """SNR penalty (dB) of curve_a relative to curve_b at a detection level.

    Linear interpolation in dB of each curve's first upward crossing of
    ``target_pd``; positive means curve_a needs more SNR.  Raises
    :class:`CurveComparisonError` when a curve never reaches the target
    inside its grid, and ``ValueError`` when a curve's grid is not
    strictly increasing.
    """
    return _crossing(curve_a, target_pd) - _crossing(curve_b, target_pd)


def _crossing(curve: DetectionCurve, target: float) -> float:
    snr = np.asarray(curve.snr_db)
    pd = np.asarray(curve.p_d)
    if np.any(np.diff(snr) <= 0):
        raise ValueError(f"curve '{curve.label}' needs a strictly increasing SNR grid, got {curve.snr_db}")
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
