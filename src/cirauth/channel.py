"""Correlated channel-fingerprint generation and noisy measurements.

Each transmitter (the legitimate "alice" or the intruder "eve") is seen by
N sensor nodes through an L-tap multipath channel.  Per-node channels are
drawn iid across taps with a configurable power delay profile and made
correlated across nodes with the receive-side Kronecker construction: an
iid L x N matrix right-multiplied by the transposed Cholesky factor of the
exponential node-correlation matrix R (entries rho^|i-j|), optionally
scaled by 1/sqrt(tr R).  R is an AR(1) covariance, so that factor has a
closed form, rho = 1 included.  Measurements stack the per-node L-tap
vectors node-major and add circularly-symmetric Gaussian estimation noise,
white with one variance per trial row.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numerics import complex_from_normals


@dataclass(frozen=True)
class ChannelConfig:
    """Geometry and statistics of the sensing channel.

    ``pdp`` is the per-tap variance profile (length ``n_taps``); the
    default is uniform with total unit energy (each tap 1/L).
    ``normalize_kronecker`` applies the literal 1/sqrt(tr R) factor of the
    Kronecker construction, which divides per-link power by N.
    """

    n_nodes: int
    n_taps: int
    rho: float = 0.9
    pdp: tuple[float, ...] | None = None
    normalize_kronecker: bool = True

    def __post_init__(self):
        for name in ("n_nodes", "n_taps"):
            value = operator.index(getattr(self, name))  # a float raises TypeError here, not mid-run
            if value < 1:
                raise ValueError(f"{name} must be positive, got {value}")
            object.__setattr__(self, name, value)
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must lie in [0, 1], got {self.rho}")
        if self.pdp is None:
            object.__setattr__(self, "pdp", (1.0 / self.n_taps,) * self.n_taps)
        else:
            pdp = tuple(float(v) for v in self.pdp)
            if len(pdp) != self.n_taps:
                raise ValueError(f"pdp must have length {self.n_taps}, got {len(pdp)}")
            if not all(0.0 <= v < math.inf for v in pdp):
                raise ValueError("pdp entries must be finite and nonnegative")
            object.__setattr__(self, "pdp", pdp)

    @property
    def pdp_array(self) -> np.ndarray:
        return np.asarray(self.pdp, dtype=np.float64)


NoiseModel = None  # perfbench/tracer.py dereferences this name while it builds its patch list


def stack_columns(h: np.ndarray) -> np.ndarray:
    """Stack (..., L, N) matrices node-major to (..., N*L): node 1's L taps first."""
    h = np.asarray(h)
    return np.swapaxes(h, -1, -2).reshape(h.shape[:-2] + (h.shape[-2] * h.shape[-1],))


def exp_correlation_matrix(n: int, rho: float) -> np.ndarray:
    """Exponential node-correlation matrix with entries rho^|i-j|.

    Symmetric, unit diagonal, and positive semi-definite for rho in [0, 1].
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    k = np.arange(n, dtype=np.float64)
    return rho ** np.abs(k[:, None] - k)


@lru_cache(maxsize=32)
def _correlation_factor(n: int, rho: float) -> np.ndarray:
    """Cached lower Cholesky factor L of the node-correlation matrix, L @ L.T == R.

    R = rho^|i-j| is the covariance of a unit-variance AR(1) sequence
    x[i] = rho x[i-1] + sqrt(1 - rho^2) e[i], whose innovations give L in
    closed form: L[i, 0] = rho^i and L[i, j] = rho^(i-j) sqrt(1 - rho^2)
    for 0 < j <= i.  At rho = 1 (singular R) only the first column, all
    ones, is nonzero.
    """
    factor = np.tril(exp_correlation_matrix(n, rho))
    factor[:, 1:] *= math.sqrt((1.0 - rho) * (1.0 + rho))
    factor.setflags(write=False)
    return factor


def channel_block(normals: np.ndarray, cfg: ChannelConfig) -> np.ndarray:
    """Alice's and eve's channel matrices, (T, 2, L, N), from (T, 4*L*N) normals.

    Each row holds one draw: alice's 2LN normals, then eve's.  For each
    sender an iid L x N matrix with tap-k entries CN(0, pdp[k]) is
    right-multiplied by the transposed Cholesky factor of R (any factor
    F with F^H F = R gives the same output distribution), then scaled by
    1/sqrt(tr R) = 1/sqrt(N) when ``normalize_kronecker`` is on.
    """
    T, L, n = len(normals), cfg.n_taps, cfg.n_nodes
    # splitting the last axis is a view, even of the engine's strided slice of its normals
    iid = complex_from_normals(normals.reshape(T, 2, 2 * L * n)).reshape(2 * T, L, n)
    iid *= np.sqrt(cfg.pdp_array)[:, None]
    h = iid.reshape(2 * T * L, n) @ _correlation_factor(n, cfg.rho).T
    if cfg.normalize_kronecker:
        h /= math.sqrt(n)
    return h.reshape(T, 2, L, n)


def noise_variance(snr_db: float) -> float:
    """Per-node noise variance 1/SNR from dB, in Python floats (numpy's pow differs in the last bit)."""
    return 10.0 ** (-snr_db / 10.0)


def measure_block(normals: np.ndarray, cfg: ChannelConfig, eve: np.ndarray, sigma2: np.ndarray):
    """Stacked alice channels and occupant measurements ``(h_ab, z)``, each (T, N*L).

    Row i of ``normals`` (T, 6LN) is trial i's stream: alice 2LN | eve 2LN | noise 2LN,
    the channels as :func:`channel_block` reads them.  Row i measures eve's channel
    where ``eve[i]``, else alice's, under noise variance ``sigma2[i]``.
    """
    k = 4 * cfg.n_taps * cfg.n_nodes
    h = stack_columns(channel_block(normals[:, :k], cfg))  # (T, 2, N*L): alice, eve
    z = complex_from_normals(normals[:, k:]).reshape(len(normals), cfg.n_nodes, cfg.n_taps)
    z *= np.sqrt(np.asarray(sigma2))[:, None, None]
    z = z.reshape(len(normals), cfg.n_nodes * cfg.n_taps)
    z += np.where(np.asarray(eve, dtype=bool)[:, None], h[:, 1], h[:, 0])
    return h[:, 0], z
