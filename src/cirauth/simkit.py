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
flat range, SNR point by SNR point and H1 before H0.  `estimate_curves`
cuts it once into blocks of near-equal height under a fixed memory cap,
so a block may span hypotheses and SNR points, and each worker runs a
contiguous run of whole blocks: every worker count runs the same blocks.
A block's substreams fill one (T, 6NL) array of normals, which
is measured as each row's deviation from alice's channel, the only
quantity every test reads: the noise alone on an H0 row, and the noise
plus one channel product of eve's normals minus alice's on an H1 row.
Every later stage runs over a leading trial axis with each row's own
occupant and noise variance (a CS scheme recovers the block's reports by
Batch-OMP, in calls that `sparse` sizes; `fc_raw_cs` alone adds
alice's channel back to send the measurement itself), and every stage is
exact per row, so counts do not depend on the block height either.  A
`local_fusion_cs` run whose variants are all `zero_by_construction`
leaves the codec path out, and its counts stay 0.
All detector variants (threshold sweeps, fusion rules) read the same
block, and the paired "without CS" twin curves read its reports as
measured; variants that share a threshold share its decisions.
"""

from __future__ import annotations

import enum
import operator
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import detect, sparse
from .channel import ChannelConfig, channel_block, measure_block, noise_variance
from .detect import FusionRule
from .numerics import standard_normal_rows, stream
from .sparse import Basis, CsCodec, CsCodecConfig


class CurveComparisonError(ValueError):
    """A curve does not cross the requested detection level inside its grid."""


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
# A block's height caps its standard normals (1 MiB): 36 trials at N=100, L=6.  It fixes a run's
# block grid, and per-row exact stages keep counts independent of it.
_BLOCK_NORMALS = 1 << 17


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
        elif self.codec is not None:
            raise ValueError(f"codec is unused by the uncompressed scheme {self.scheme.value}")

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


def zero_by_construction(scenario: Scenario, variant: Variant) -> bool:
    """Whether the variant's curve on the scheme's own reports is 0 at every SNR and seed.

    On `local_fusion_cs` a recovered decision vector holds at most
    ``max_atoms`` ones (fewer after an OMP breakdown), so a rule that
    needs more than ``max_atoms`` votes never fires; node 0's vote (cutoff
    0) always can.  Every other scheme's curves can fire.  The budget
    comes from the recipe, so the answer builds no codec.
    """
    if scenario.scheme is not Scheme.LOCAL_FUSION_CS:
        return False
    return variant.rule.cutoff(scenario.channel.n_nodes)[1] >= scenario.codec.max_atoms


def _resolve(scenario: Scenario, variants: list[Variant]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct thresholds ``levels`` (D,) in first-occurrence order, and each variant's ``columns`` and ``cutoffs`` (V,).

    A threshold is the fusion center's, or the one all nodes share.  A
    block's tally holds, on an FC scheme, the statistic's comparison with
    each level, and on a local scheme the vote count at each level and
    then node 0's vote at each level.  A variant declares H1 where its
    column of the tally exceeds its cutoff: 0 on an FC scheme, and on a
    local one ``(voters, k) = rule.cutoff(N)`` reads the count, or node
    0's vote if ``voters`` is 1.
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


def _block_decisions(scenario, levels, columns, cutoffs, paths, sigma2, h_ab, d) -> np.ndarray:
    """(T, V * len(paths)) H1-decisions of every variant on a block's stacked deviations ``d``, path by path.

    ``d`` is each row's measurement z minus alice's channel ``h_ab``.
    Only `fc_raw_cs` reads ``h_ab`` (None elsewhere): it sends z itself
    through the codec and tests the recovered z minus ``h_ab``.  A True
    path sends the block's reports through the scenario's codec, a False
    one reads them as measured; the codec is looked up only where a
    report crosses it.  ``sigma2`` (T, 1) is each row's noise variance.
    Each report is compared with the D distinct ``levels`` once: on an FC
    scheme that comparison is the (T, D) tally, and a local scheme
    tallies each (T, D, N) plane of node decisions, every level's
    recovered on a codec path, into (T, 2D) vote counts and node-0 votes.
    Each variant then compares its column of the tally with its cutoff.
    """
    scale = 1.0 / sigma2  # d / sigma2 divides complex by complex; d * scale differs only in signs of zero
    codec = scenario_codec(scenario) if any(paths) else None
    if not scenario.scheme.local:
        reports = [sparse.reconstruct_raw(sparse.compress(h_ab + d, codec), codec) - h_ab if cs else d for cs in paths]
        tallies = [detect.quadratic_statistic(r, scale)[:, None] > levels for r in reports]
    else:
        t, n = len(d), scenario.channel.n_nodes
        stats_n = detect.quadratic_statistic(d.reshape(t, n, scenario.channel.n_taps), scale[..., None])
        u = stats_n[:, None, :] > levels[:, None]  # (T, D, N)
        if codec is not None:
            sent = u.reshape(-1, n).astype(float)
            u_cs = sparse.reconstruct_decisions(sparse.compress(sent, codec), codec).reshape(u.shape)
        planes = [u_cs if cs else u for cs in paths]
        tallies = [np.hstack((plane.sum(-1), plane[..., 0])) for plane in planes]  # counts, then node 0's votes
    return np.hstack([tally[:, columns] > cutoffs for tally in tallies])


def _count_range(args) -> np.ndarray:
    """Decision counts, shape (2 * SNR points, columns x paths), of blocks ``[first, last)`` of a grid of ``blocks``.

    Flat trial g = (2 s + h) * trials + t is trial t of hypothesis h (0:
    eve, 1: alice) at SNR index s; it owns stream (s << 33) | (eve << 32)
    | t and is counted in row 2 s + h.  Block b of the run's ``total``
    flat trials holds ``[b total // blocks, (b + 1) total // blocks)``,
    and may span hypotheses and SNR points: every row carries its own
    occupant and noise variance.
    """
    scenario, levels, columns, cutoffs, paths, first, last, blocks = args
    cfg = scenario.channel
    sigma2 = np.array([noise_variance(snr) for snr in scenario.snr_grid_db])
    width = 6 * cfg.n_nodes * cfg.n_taps  # alice, eve, noise: 2NL normals each
    raw_cs = scenario.scheme is Scheme.FC_RAW_CS
    total = 2 * len(sigma2) * scenario.trials
    counts = np.zeros((2 * len(sigma2), len(columns) * len(paths)), dtype=np.int64)
    for b in range(first, last):
        row, t = np.divmod(np.arange(b * total // blocks, (b + 1) * total // blocks), scenario.trials)
        s, eve = row >> 1, row % 2 == 0
        streams = ((s << 33) | (eve.astype(np.int64) << 32) | t).tolist()
        normals = standard_normal_rows(scenario.seed, streams, width)
        d = measure_block(normals, cfg, eve, sigma2[s])
        # only `fc_raw_cs` sends the measurement itself, alice's channel plus d, through the codec
        h_ab = channel_block(normals[:, : width // 3], cfg) if raw_cs else None
        del normals  # a block's normals are dead once measured
        decisions = _block_decisions(scenario, levels, columns, cutoffs, paths, sigma2[s, None], h_ab, d)
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
    are attached.  Each of at most ``workers`` processes runs whole blocks
    of the run's one grid, so output is bit-identical regardless of them.

    With ``uncompressed_twin`` (CS schemes only) every variant also gets
    a ``"<label> no_cs"`` curve of the uncompressed scheme, read from the
    same draws before compression; these follow the compressed curves.
    """
    if uncompressed_twin and not scenario.scheme.compressed:
        raise ValueError(f"scheme {scenario.scheme.value} has no uncompressed twin")
    workers = operator.index(workers)  # a float raises TypeError here, on any CPU count
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    resolved = _resolve(scenario, variants)
    columns = [(scenario.scheme, v.label) for v in variants]
    if uncompressed_twin:
        plain = Scheme.FC_RAW if scenario.scheme is Scheme.FC_RAW_CS else Scheme.LOCAL_FUSION
        columns += [(plain, v.label + " no_cs") for v in variants]
    paths = (scenario.scheme.compressed,) + ((False,) if uncompressed_twin else ())
    if all(zero_by_construction(scenario, v) for v in variants):
        paths = paths[1:]  # no variant can read the codec path: its counts stay 0, and without the twin no trial runs
    total = 2 * len(scenario.snr_grid_db) * scenario.trials
    blocks = -(-total // max(1, _BLOCK_NORMALS // (6 * scenario.channel.n_nodes * scenario.channel.n_taps)))
    # a pool forks all its workers at once; os.sched_getaffinity exists only on Linux
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    procs = min(workers, blocks, cpus) if paths else 0
    tasks = [(scenario, *resolved, paths, blocks * i // procs, blocks * (i + 1) // procs, blocks) for i in range(procs)]
    if procs > 1:
        from concurrent.futures import ProcessPoolExecutor  # lazy: a serial run skips its imports

        with ProcessPoolExecutor(max_workers=procs) as pool:
            ran = sum(pool.map(_count_range, tasks))
    else:
        ran = sum(map(_count_range, tasks))  # one task, or none
    counts = np.zeros((2 * len(scenario.snr_grid_db), len(columns)), dtype=np.int64)
    counts[:, len(columns) - len(variants) * len(paths) :] = ran  # a left-out codec path's columns stay 0
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
    inside its grid, or meets it already at its first point (its crossing
    then lies at or below the grid, so the margin would be only a bound),
    and ``ValueError`` when a curve's grid is not strictly increasing.
    """
    return _crossing(curve_a, target_pd) - _crossing(curve_b, target_pd)


def _crossing(curve: DetectionCurve, target: float) -> float:
    snr = np.asarray(curve.snr_db)
    pd = np.asarray(curve.p_d)
    if np.any(np.diff(snr) <= 0):
        raise ValueError(f"curve '{curve.label}' needs a strictly increasing SNR grid, got {curve.snr_db}")
    above = np.nonzero(pd >= target)[0]
    if above.size == 0:
        raise CurveComparisonError(f"curve '{curve.label}' never reaches P_d={target} on its grid")
    i = int(above[0])
    if i == 0:
        raise CurveComparisonError(f"curve '{curve.label}' meets P_d={target} at its first point, at or above its crossing")
    x0, x1, y0, y1 = snr[i - 1], snr[i], pd[i - 1], pd[i]
    return float(x0 + (target - y0) * (x1 - x0) / (y1 - y0))
