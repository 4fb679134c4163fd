"""Numerical kernels shared by every other module.

Counter-based random streams and circularly-symmetric complex Gaussian
entries from standard normals.
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


def complex_from_normals(parts: np.ndarray) -> np.ndarray:
    """CN(0, 1) entries: the last axis' first half is real, its second half imaginary.

    Each part is N(0, 1/2), the circularly-symmetric convention where
    E|x|^2 = 1.
    """
    half = parts.shape[-1] // 2
    scale = math.sqrt(0.5)
    out = np.empty(parts.shape[:-1] + (half,), dtype=np.complex128)
    np.multiply(parts[..., :half], scale, out=out.real)
    np.multiply(parts[..., half:], scale, out=out.imag)
    return out
