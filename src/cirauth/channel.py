"""Correlated channel-fingerprint generation and noisy measurements.

Each transmitter (the legitimate "alice" or the intruder "eve") is seen by
N sensor nodes through an L-tap multipath channel.  Per-node channels are
drawn iid across taps with a configurable power delay profile and made
correlated across nodes with the receive-side Kronecker construction: an
iid L x N matrix right-multiplied by a square root of the exponential
node-correlation matrix R (entries rho^|i-j|), optionally scaled by
1/sqrt(tr R).  Measurements stack the per-node L-tap vectors node-major
and add circularly-symmetric Gaussian estimation noise.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import linalg as sla

from . import numerics
from .numerics import Rng, sample_complex_gaussian


class Occupant(str, enum.Enum):
    """Which transmitter holds the sensing channel in a timeslot."""

    ALICE = "alice"
    EVE = "eve"


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
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be positive, got {self.n_nodes}")
        if self.n_taps < 1:
            raise ValueError(f"n_taps must be positive, got {self.n_taps}")
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


@dataclass(frozen=True)
class ChannelEnsemble:
    """One joint draw of the alice->nodes and eve->nodes channel matrices.

    Both are L x N complex, column n being node n's channel; the two
    matrices are independent draws (transmit-side correlation between the
    two senders is neglected).
    """

    h_ab: np.ndarray
    h_eb: np.ndarray

    def stacked(self, occupant: Occupant) -> np.ndarray:
        h = self.h_ab if occupant is Occupant.ALICE else self.h_eb
        return stack_columns(h)


@dataclass(frozen=True)
class NoiseModel:
    """Per-node measurement-noise covariances Sigma_n = sigma2[n] * base_cov.

    ``base_cov`` defaults to the identity (orthogonal unit-energy training,
    so the per-node SNR is exactly 1/sigma2[n]); a full L x L Hermitian
    positive-definite matrix can be injected instead.
    """

    sigma2: tuple[float, ...]
    n_taps: int
    base_cov: np.ndarray | None = None
    _base_chol: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        sigma2 = tuple(float(v) for v in self.sigma2)
        if not sigma2:
            raise ValueError("sigma2 must be nonempty")
        if not all(0.0 < v < math.inf for v in sigma2):
            raise ValueError("sigma2 entries must be finite and positive")
        object.__setattr__(self, "sigma2", sigma2)
        if self.base_cov is not None:
            cov = np.asarray(self.base_cov, dtype=np.complex128)
            if cov.shape != (self.n_taps, self.n_taps):
                raise ValueError(f"base_cov must be {self.n_taps}x{self.n_taps}, got {cov.shape}")
            object.__setattr__(self, "base_cov", cov)
            object.__setattr__(self, "_base_chol", numerics.cholesky(cov))

    @classmethod
    def from_snr_db(cls, snr_db: float, n_nodes: int, n_taps: int) -> "NoiseModel":
        """Homogeneous noise with per-node SNR = 1/sigma2 set from dB."""
        sigma2 = 10.0 ** (-snr_db / 10.0)
        return cls(sigma2=(sigma2,) * n_nodes, n_taps=n_taps)

    @property
    def n_nodes(self) -> int:
        return len(self.sigma2)

    @property
    def sigma2_array(self) -> np.ndarray:
        return np.asarray(self.sigma2, dtype=np.float64)

    def sample_stacked(self, rng: Rng) -> np.ndarray:
        """One stacked noise vector v of length N*L, ~ CN(0, blkdiag(Sigma_n))."""
        n, L = self.n_nodes, self.n_taps
        unit = sample_complex_gaussian(rng, n * L, 1.0).reshape(n, L)
        if self.base_cov is not None:
            unit = unit @ self._base_chol.conj().T
        scaled = unit * np.sqrt(self.sigma2_array)[:, None]
        return scaled.reshape(-1)

    def apply_inverse(self, d: np.ndarray) -> np.ndarray:
        """Apply blkdiag(Sigma_1..Sigma_N)^-1 to stacked vectors.

        Accepts shape (..., N*L); leading axes are batch.
        """
        d = np.asarray(d)
        n, L = self.n_nodes, self.n_taps
        if d.shape[-1] != n * L:
            raise ValueError(f"expected trailing dimension {n * L}, got {d.shape[-1]}")
        blocks = d.reshape(d.shape[:-1] + (n, L))
        if self.base_cov is not None:
            flat = blocks.reshape(-1, L)
            solved = sla.cho_solve((self._base_chol, True), flat.T).T
            blocks = solved.reshape(blocks.shape)
        out = blocks / self.sigma2_array[..., :, None]
        return out.reshape(d.shape)

@dataclass(frozen=True)
class MeasurementBatch:
    """Stacked noisy measurement z of length N*L."""

    z_star: np.ndarray


def stack_columns(h: np.ndarray) -> np.ndarray:
    """Stack an L x N matrix node-major: node 1's L taps first."""
    return np.asarray(h).T.reshape(-1)


def exp_correlation_matrix(n: int, rho: float) -> np.ndarray:
    """Exponential node-correlation matrix with entries rho^|i-j|.

    Symmetric, unit diagonal, and positive semi-definite for rho in [0, 1].
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    return sla.toeplitz(rho ** np.arange(n, dtype=np.float64))


@lru_cache(maxsize=32)
def _correlation_factor(n: int, rho: float) -> np.ndarray:
    """Cached Cholesky factor of the node-correlation matrix."""
    factor = numerics.cholesky(exp_correlation_matrix(n, rho))
    factor.setflags(write=False)
    return factor


def draw_channel(rng: Rng, cfg: ChannelConfig) -> ChannelEnsemble:
    """Draw one correlated channel ensemble for both transmitters.

    For each sender: an iid L x N matrix with tap-k entries CN(0, pdp[k])
    is right-multiplied by the transposed Cholesky factor of R (any factor
    F with F^H F = R gives the same output distribution), then scaled by
    1/sqrt(tr R) = 1/sqrt(N) when ``normalize_kronecker`` is on.  Alice's
    matrix is drawn first, then eve's, from the same stream.
    """
    L, n = cfg.n_taps, cfg.n_nodes
    factor = _correlation_factor(n, cfg.rho)
    tap_scale = np.sqrt(cfg.pdp_array)[:, None]

    def one() -> np.ndarray:
        h_iid = sample_complex_gaussian(rng, L * n, 1.0).reshape(L, n) * tap_scale
        h = h_iid @ factor.T
        if cfg.normalize_kronecker:
            h = h / math.sqrt(n)
        return h

    return ChannelEnsemble(h_ab=one(), h_eb=one())


def measure(
    rng: Rng,
    ensemble: ChannelEnsemble,
    occupant: Occupant,
    noise: NoiseModel,
) -> MeasurementBatch:
    """Stacked noisy measurement of the occupant's channel: z = h + v."""
    h = ensemble.stacked(Occupant(occupant))
    if noise.n_nodes * noise.n_taps != h.size:
        raise ValueError(
            f"noise model is {noise.n_nodes} nodes x {noise.n_taps} taps "
            f"but the ensemble stacks to length {h.size}"
        )
    return MeasurementBatch(z_star=h + noise.sample_stacked(rng))
