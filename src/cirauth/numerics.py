"""Numerical kernels shared by every other module.

Counter-based random streams, circularly-symmetric complex Gaussian
sampling, chi-squared distribution functions, and the PSD Cholesky
factorization the simulator needs.  Everything here is a pure function
of its inputs; ``Rng`` is the only stateful object and is cheap to fork
per Monte Carlo trial.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special


class DecompositionError(ValueError):
    """Matrix failed a factorization precondition (not Hermitian / not PSD)."""


_U64 = 1 << 64


class Rng:
    """Counter-based random stream addressed by ``(seed, stream_id)``.

    Built on the Philox bit generator, keyed with the 128-bit value
    ``stream_id * 2**64 + seed``.  The same address always reproduces the
    same draw sequence, regardless of process, thread count, or what any
    other stream did, so Monte Carlo trials can each own a substream and
    run in any order.
    """

    __slots__ = ("seed", "stream_id", "_gen")

    def __init__(self, seed: int, stream_id: int = 0):
        if not 0 <= seed < _U64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
        if not 0 <= stream_id < _U64:
            raise ValueError(f"stream_id must be an unsigned 64-bit integer, got {stream_id}")
        self.seed = seed
        self.stream_id = stream_id
        self._gen = np.random.Generator(np.random.Philox(key=(stream_id << 64) | seed))

    def substream(self, stream_id: int) -> "Rng":
        """Fresh, statistically independent stream under the same seed."""
        return Rng(self.seed, stream_id)

    def standard_normal(self, size) -> np.ndarray:
        return self._gen.standard_normal(size)

    @property
    def generator(self) -> np.random.Generator:
        """Underlying numpy generator, for draws not wrapped here."""
        return self._gen

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed}, stream_id={self.stream_id})"


def sample_complex_gaussian(rng: Rng, n: int, variance: float) -> np.ndarray:
    """Draw ``n`` iid CN(0, variance) entries.

    Real and imaginary parts are independent N(0, variance/2), i.e. the
    circularly-symmetric convention where ``variance`` is E|x|^2.
    """
    if variance <= 0:
        raise ValueError(f"variance must be positive, got {variance}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n == 0:
        return np.zeros(0, dtype=np.complex128)
    parts = rng.standard_normal(2 * n) * math.sqrt(variance / 2.0)
    return parts[:n] + 1j * parts[n:]


def chi2_cdf(x: float, dof: int) -> float:
    """P(chi-squared(dof) <= x), via the regularized lower incomplete gamma."""
    if dof < 1 or int(dof) != dof:
        raise ValueError(f"dof must be a positive integer, got {dof}")
    if np.any(np.asarray(x) < 0):
        raise ValueError(f"x must be nonnegative, got {x}")
    return special.gammainc(dof / 2.0, np.asarray(x) / 2.0)[()]


def chi2_quantile(p: float, dof: int) -> float:
    """Inverse of :func:`chi2_cdf` in its first argument."""
    if not 0 <= p < 1:
        raise ValueError(f"p must lie in [0, 1), got {p}")
    if dof < 1 or int(dof) != dof:
        raise ValueError(f"dof must be a positive integer, got {dof}")
    return 2.0 * float(special.gammaincinv(dof / 2.0, p))


def _require_hermitian(a: np.ndarray, rtol: float = 1e-12) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DecompositionError(f"expected a square matrix, got shape {a.shape}")
    scale = max(np.abs(a).max(), 1.0)
    if np.abs(a - a.conj().T).max() > rtol * scale:
        raise DecompositionError("matrix is not Hermitian within tolerance")
    return a


def cholesky(a: np.ndarray, psd_tol: float = 1e-10) -> np.ndarray:
    """Lower-triangular L with ``L @ L.conj().T == a`` for Hermitian PSD ``a``.

    Strictly positive-definite inputs go through LAPACK.  Semidefinite
    inputs (pivots within ``psd_tol * max|a|`` of zero) fall back to a
    clamped factorization: non-positive pivots are set to zero together
    with the rest of their column, which reproduces PSD inputs exactly up
    to roundoff.  Pivots below ``-psd_tol * max|a|`` raise.
    """
    a = _require_hermitian(a)
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        pass
    n = a.shape[0]
    scale = max(np.abs(a).max(), 1.0)
    tol = psd_tol * scale
    L = np.zeros_like(a, dtype=np.result_type(a.dtype, np.float64))
    for j in range(n):
        col = a[j:, j] - L[j:, :j] @ L[j, :j].conj()
        pivot = col[0].real
        if pivot < -tol:
            raise DecompositionError(f"matrix is indefinite (pivot {pivot:.3g} at index {j})")
        if pivot <= tol:
            continue  # semidefinite direction: pivot clamped to zero
        L[j, j] = math.sqrt(pivot)
        L[j + 1 :, j] = col[1:] / L[j, j]
    return L
