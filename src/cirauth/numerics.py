"""Numerical kernels shared by every other module.

Counter-based random streams, circularly-symmetric complex Gaussian
sampling, and the PSD Cholesky factorization the simulator needs.
Everything here is a pure function of its inputs; a stream is numpy's
``Generator``, the only stateful object.
:func:`standard_normal_rows` draws a block of per-trial streams at once
from one Philox, re-keyed per row through a state dict of plain Python
ints, and :func:`complex_from_normals` scales the normals straight into
the real and imaginary parts of one complex array.
"""

from __future__ import annotations

import math

import numpy as np


class DecompositionError(ValueError):
    """Matrix failed a factorization precondition (not Hermitian / not PSD)."""


_U64 = 1 << 64


def stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """Counter-based random stream addressed by ``(seed, stream_id)``.

    A Philox generator keyed with the 128-bit value
    ``stream_id * 2**64 + seed``.  The same address always reproduces the
    same draw sequence, regardless of process, thread count, or what any
    other stream did, so Monte Carlo trials can each own a substream and
    run in any order.
    """
    _check_u64("seed", seed)
    _check_u64("stream_id", stream_id)
    return np.random.Generator(np.random.Philox(key=(stream_id << 64) | seed))


def _check_u64(name: str, value: int) -> None:
    if not 0 <= value < _U64:
        raise ValueError(f"{name} must be an unsigned 64-bit integer, got {value}")


def standard_normal_rows(seed: int, stream_ids, width: int) -> np.ndarray:
    """(T, width) block; row i is ``stream(seed, stream_ids[i]).standard_normal(width)``.

    One Philox is re-keyed per row through its ``state`` setter (key and
    counter are its whole state), which is cheaper than a fresh ``stream``.
    The state is one dict of plain Python ints, built once per block;
    each row only sets ``key[1] = stream_id``.  The ids' range is checked
    once, by their minimum and maximum, before any row is drawn.
    """
    _check_u64("seed", seed)
    if len(stream_ids):
        _check_u64("stream_id", min(stream_ids))
        _check_u64("stream_id", max(stream_ids))
    bitgen = np.random.Philox(key=seed)
    gen, state = np.random.Generator(bitgen), bitgen.state  # a fresh stream's state
    state["state"] = {name: part.tolist() for name, part in state["state"].items()}
    state["buffer"] = state["buffer"].tolist()
    key = state["state"]["key"]  # (seed, stream_id)
    out = np.empty((len(stream_ids), width))
    for row, stream_id in zip(out, stream_ids):
        key[1] = stream_id
        bitgen.state = state
        gen.standard_normal(out=row)
    return out


def complex_from_normals(parts: np.ndarray, variance: float = 1.0) -> np.ndarray:
    """CN(0, variance) entries: the last axis' first half is real, its second half imaginary."""
    half = parts.shape[-1] // 2
    scale = math.sqrt(variance / 2.0)
    out = np.empty(parts.shape[:-1] + (half,), dtype=np.complex128)
    np.multiply(parts[..., :half], scale, out=out.real)
    np.multiply(parts[..., half:], scale, out=out.imag)
    return out


def sample_complex_gaussian(rng: np.random.Generator, n: int, variance: float) -> np.ndarray:
    """Draw ``n`` iid CN(0, variance) entries.

    Real and imaginary parts are independent N(0, variance/2), i.e. the
    circularly-symmetric convention where ``variance`` is E|x|^2.
    """
    if not 0 < variance < np.inf:
        raise ValueError(f"variance must be positive, got {variance}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return complex_from_normals(rng.standard_normal(2 * n), variance)


def _require_hermitian(a: np.ndarray, rtol: float = 1e-12) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DecompositionError(f"expected a square matrix, got shape {a.shape}")
    scale = max(np.abs(a).max(), 1.0)
    if np.abs(a - a.conj().T).max() > rtol * scale:
        raise DecompositionError("matrix is not Hermitian within tolerance")
    return a


def cholesky(a: np.ndarray) -> np.ndarray:
    """Lower-triangular L with ``L @ L.conj().T == a`` for Hermitian PSD ``a``.

    Strictly positive-definite inputs go through LAPACK.  Semidefinite
    inputs (pivots within ``1e-10 * max|a|`` of zero, such as the
    rho = 1 node correlation) fall back to a clamped factorization:
    non-positive pivots are set to zero together with the rest of their
    column, which reproduces PSD inputs exactly up to roundoff.  Pivots
    below ``-1e-10 * max|a|`` raise.
    """
    a = _require_hermitian(a)
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        pass
    n = a.shape[0]
    tol = 1e-10 * max(np.abs(a).max(), 1.0)
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
