"""Compressed-sensing reporting channel.

The relay compresses a length-n report (stacked raw measurements, n = N*L,
or the length-N local-decision vector) into M < n values with a Gaussian
random projection y = Phi x.  The receiver recovers the report with
orthogonal matching pursuit against the dictionary A = Phi Psi^H, where
Psi is an orthonormal sparsifying basis (DCT for spatially-correlated raw
measurements, the canonical basis for decision vectors), then maps the
recovered coefficients back through Psi^H.

OMP here is Batch-OMP: one kernel runs every report of a block at once,
each with its own support and stops.  It iterates in the Gram domain
(correlations updated from the cached A^T A, least squares from a growing
inverse Cholesky factor stored iteration-major, one contiguous slab per
step), so an iteration costs O(n*K) per report and calls no LAPACK
routine.

A compressed report is the plain array y, (M,) or a block (T, M) of T
reports; the receiver already holds the codec.  OMP runs on a block's
distinct reports only (a duplicate gets a copy of its twin's result), in
near-equal kernel calls of at most `batch_reports` each, which bounds a
call's factor F; projection and basis synthesis run one product per
report (synthesis from the report's support only), so every row equals
the one-report call bit for bit at any block height and any split.
`CsCodecConfig` checks and resolves every codec's parameters.  A report
on which OMP breaks down (see `_recover`) keeps its partial estimate, and
the recovery warns.
"""

from __future__ import annotations

import enum
import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np


class Basis(str, enum.Enum):
    DCT = "dct"
    IDENTITY = "identity"


@dataclass(frozen=True)
class CsCodecConfig:
    """Deterministic recipe for the scenario's compressed-sensing codec, and the one source of its parameters.

    ``max_atoms=None`` resolves to ceil(M/8) here, so a recipe that leaves
    the budget unset equals one that spells it out.
    """

    m: int
    basis: Basis = Basis.DCT
    max_atoms: int | None = None
    residual_tol: float = 1e-6

    def __post_init__(self):
        object.__setattr__(self, "basis", Basis(self.basis))
        object.__setattr__(self, "m", operator.index(self.m))  # a float raises TypeError here, not mid-run
        if self.m < 1:
            raise ValueError(f"m must be positive, got {self.m}")
        budget = -(-self.m // 8) if self.max_atoms is None else operator.index(self.max_atoms)
        object.__setattr__(self, "max_atoms", budget)
        if not 1 <= self.max_atoms <= self.m:
            # OMP places at most m independent atoms; past that it breaks down mid-run
            raise ValueError(f"max_atoms must lie in [1, m={self.m}], got {self.max_atoms}")
        if not 0.0 <= self.residual_tol < 1.0:  # at 1 OMP stops before its first atom; far above, tol^2 overflows
            raise ValueError(f"residual_tol must lie in [0, 1), got {self.residual_tol}")


def gaussian_phi(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """M x n measurement matrix with iid N(0, 1/M) entries.

    The 1/M entry variance makes E||Phi x||^2 = ||x||^2 (near-isometry);
    any fixed scaling cancels out of OMP's atom selection.
    """
    if not 0 < m < n:
        raise ValueError(f"need 0 < m < n, got m={m}, n={n}")
    return rng.standard_normal((m, n)) / math.sqrt(m)


def dct_basis(n: int) -> np.ndarray:
    """Orthonormal DCT-II analysis matrix.

    Row k, column j is c_k * cos(pi*(2j+1)*k / (2n)) with c_0 = sqrt(1/n)
    and c_k = sqrt(2/n) otherwise, so rows are orthonormal.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    k = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    psi = np.sqrt(2.0 / n) * np.cos(np.pi * (2 * j + 1) * k / (2.0 * n))
    psi[0] /= math.sqrt(2.0)
    return psi


class CsCodec:
    """Measurement matrix + sparsifying basis + OMP stopping policy, checked and resolved as a `CsCodecConfig`.

    Recovery stops after ``max_atoms`` atoms (at most M; `CsCodecConfig`
    sets the default) or once the residual drops to ``residual_tol`` times
    ||y||, whichever comes first.
    The OMP dictionary Phi Psi^H and its Gram matrix are precomputed so
    one codec can be shared across many Monte Carlo trials.
    """

    def __init__(
        self,
        phi: np.ndarray,
        basis: Basis | str = Basis.DCT,
        max_atoms: int | None = None,
        residual_tol: float = 1e-6,
    ):
        phi = np.asarray(phi)
        if np.iscomplexobj(phi) or not np.all(np.isfinite(phi)):
            raise ValueError("phi must be real and finite")
        phi = phi.astype(np.float64)
        if phi.ndim != 2:
            raise ValueError(f"phi must be a matrix, got shape {phi.shape}")
        m, n = phi.shape
        if m > n:
            raise ValueError(f"phi must be wide (M <= n), got {m}x{n}")
        cfg = CsCodecConfig(m, basis, max_atoms, residual_tol)
        self.basis, self.max_atoms, self.residual_tol = cfg.basis, cfg.max_atoms, float(cfg.residual_tol)
        self.phi = phi
        self.psi = dct_basis(n) if self.basis is Basis.DCT else np.eye(n)
        self.dictionary = phi @ self.psi.T
        self.gram = self.dictionary.conj().T @ self.dictionary
        if np.any(np.diagonal(self.gram) == 0):
            raise ValueError("dictionary contains a zero column")

    @property
    def m(self) -> int:
        return self.phi.shape[0]

    @property
    def n(self) -> int:
        return self.phi.shape[1]


_BATCH_FACTOR = 11 << 17  # doubles (11 MiB) of one Batch-OMP call's factor F


def batch_reports(codec: CsCodec) -> int:
    """Most reports whose factor F (budget x (budget + n) each) fits the cap: 36 on fig4, 305 on fig5."""
    return _BATCH_FACTOR // (codec.max_atoms * (codec.max_atoms + codec.n))


def _real_matmul(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``x @ a`` for real ``a`` and (T, n) ``x``, as one real BLAS call per row (so exact per row).

    A complex row goes as its stacked real and imaginary parts.
    """
    if not np.iscomplexobj(x):
        return (x[:, None, :] @ a)[:, 0]
    parts = np.stack((x.real, x.imag), 1) @ a
    return parts[:, 0] + 1j * parts[:, 1]


def compress(x: np.ndarray, codec: CsCodec) -> np.ndarray:
    """Report array y = Phi x, (M,) or (T, M), of one report (n,) or a block (T, n), one product per report."""
    x = np.asarray(x)
    if x.ndim not in (1, 2) or x.shape[-1] != codec.n:
        raise ValueError(f"x must have trailing length {codec.n}, got {x.shape}")
    y = _real_matmul(np.atleast_2d(x), codec.phi.T)
    return y.reshape(x.shape[:-1] + (codec.m,))


@dataclass(frozen=True)
class _OmpResult:
    """Per-row output of :func:`_batch_omp` for T reports."""

    coeffs: np.ndarray  # (T, n); a breakdown row holds its partial result
    errors: list  # (T,) None, or why the row broke down
    support: np.ndarray  # (T, budget) selected atoms in order; the first count[i] are valid
    count: np.ndarray  # (T,)


def _batch_omp(ys: np.ndarray, a: np.ndarray, gram: np.ndarray, max_atoms: int, residual_tol: float) -> _OmpResult:
    """Batch-OMP of every row of ``ys`` (T, M) against the real dictionary ``a``.

    Rubinstein, Zibulevsky & Elad, Technion CS-2008-08.  A complex report
    runs as P = 2 real parts (real, imaginary) sharing one support S.
    After ``c0 = y @ a`` the loop runs in the Gram domain and calls no
    LAPACK routine.  With L the Cholesky factor of gram[S, S], each
    selection appends one row to F = L^-1 [I | gram[S, :]] (the inverse
    factor, then B = L^-1 gram[S, :]) and one entry to z = L^-1 c0_S.
    Then w = L^-1 gram[S, j] is column j of B, the correlations with the
    residual are c = c0 - B^T z, the squared residual is ||y||^2 - |z|^2
    and the coefficients are L^-T z.

    State is iteration-major: step k writes one contiguous slab of F, z
    and the selections.  Rows leave the active set on their own stops or
    breakdowns.  A stopped row's slot is refilled from the tail
    (swap-remove), so a stop copies only the filled slabs of the rows that
    move; the live rows stay a contiguous prefix of every slab, but not in
    their original order.
    Every operation acts on one row at a time (elementwise, a reduction
    along a contiguous row, or one BLAS call per row), so a row's result
    does not depend on the rows recovered with it.
    """
    complex_y = np.iscomplexobj(ys)
    ys = np.stack((ys.real, ys.imag), axis=1) if complex_y else ys[:, None, :]
    ys = ys.astype(np.float64)  # (T, P, M)
    t, p, m = ys.shape
    n = gram.shape[0]
    budget = min(int(max_atoms), n)
    gdiag = gram.diagonal().copy()
    ynorm2 = np.sum(np.square(ys).reshape(t, p * m), axis=1)
    coeffs = np.zeros((t, p, n))
    errors = [None] * t
    chosen = np.zeros((t, budget), dtype=np.intp)
    count = np.zeros(t, dtype=np.intp)

    tol2 = residual_tol**2 * ynorm2
    rows = np.flatnonzero(ynorm2 > tol2)  # the active rows
    width = budget + n
    c = ys[rows] @ a  # (A, P, n)
    yn2, tol2, zz = ynorm2[rows], tol2[rows], np.zeros(len(rows))
    weight = np.tile(1.0 / gdiag, (len(rows), 1))  # 1 / ||a_j||^2, then 0 once j is selected
    # Slab k of F is set up at step k, for the live rows only: its L^-1 part is zero
    # but for the diagonal, preset to 1 before scaling (the update leaves it exact
    # because column k of every earlier slab is zero), and its B part is a gram row.
    f = np.empty((budget, len(rows), width))
    f_flat, slabs = f.reshape(-1), np.arange(budget) * len(rows) * width  # flat offsets of the slabs
    z = np.zeros((budget, len(rows), p))
    js = np.zeros((budget, len(rows)), dtype=np.intp)
    sq, score, tmp = np.empty(c.shape), np.empty(weight.shape), np.empty((len(rows), 1, width))
    parts, ar = np.arange(p), np.arange(len(rows))
    row_n, row_c, row_f = ar * n, (ar[:, None] * p + parts) * n, ar * width + budget  # flat offsets of each slot
    for k in range(budget):
        if not len(rows):
            break
        np.square(c, out=sq)
        np.add.reduce(sq, axis=1, out=score)
        np.multiply(score, weight, out=score)
        j = score.argmax(axis=1)
        jn = row_n + j
        orthogonal = score.take(jn) <= 0.0
        w = f_flat.take((row_f + j)[:, None] + slabs[:k])  # (A, k), contiguous rows
        gjj = gdiag.take(j)
        d2 = gjj - np.add.reduce(w * w, axis=1)
        dependent = d2 <= 1e-12 * gjj
        broken = orthogonal | dependent
        # a broken row keeps its state up to k; give it a finite dummy step
        inv_d = 1.0 / np.sqrt(np.where(broken, gjj, d2))
        fk = f[k]
        fk[:, :budget] = 0.0
        fk[:, k] = 1.0
        gram.take(j, axis=0, out=fk[:, budget:], mode="clip")  # j is in range; clip skips a buffer
        np.matmul(w[:, None, :], f[:k].transpose(1, 0, 2), out=tmp)
        fk -= tmp[:, 0]
        fk *= inv_d[:, None]
        zk = c.take(row_c + j[:, None]) * inv_d[:, None]
        np.multiply(zk[:, :, None], fk[:, None, budget:], out=sq)
        c -= sq
        z[k], js[k] = zk, j
        zz = zz + np.add.reduce(zk * zk, axis=1)
        weight.put(jn, 0.0)
        stop = broken | (yn2 - zz <= tol2) if k + 1 < budget else np.ones(len(rows), bool)
        if not np.logical_or.reduce(stop):
            continue
        ended = np.flatnonzero(stop)
        chosen[rows[ended], : k + 1] = js[: k + 1, ended].T
        groups = ((ended, k + 1),)  # (rows, atoms kept): a broken row drops its dummy step k
        if np.logical_or.reduce(broken):
            for i in np.flatnonzero(broken):
                errors[rows[i]] = (
                    "residual is orthogonal to every remaining atom" if orthogonal[i]
                    else f"atom {j[i]} is numerically dependent on the selected support"
                )
            groups = ((np.flatnonzero(broken), k), (np.flatnonzero(stop & ~broken), k + 1))
        for done, kk in groups:
            if len(done):
                r = rows[done]
                zd = np.ascontiguousarray(z[:kk, done].transpose(1, 2, 0))  # (D, P, kk)
                fd = np.ascontiguousarray(f[:kk, done, :kk].transpose(1, 0, 2))  # (D, kk, kk) of L^-1
                coeffs[r[:, None, None], parts[None, :, None], chosen[r, None, :kk]] = zd @ fd  # (L^-T z)^T
                count[r] = kk
        # swap-remove: the live rows past the new end refill the stopped rows' slots,
        # which are the first of the (sorted) ended rows, one per mover
        na = len(rows) - len(ended)
        movers = na + np.flatnonzero(~stop[na:])
        holes = ended[: len(movers)]
        if len(movers):
            for x in (rows, yn2, tol2, zz, c, weight):
                x[holes] = x[movers]
            # slabs past k are set up at their own step, so only the filled ones move
            for x in (f, z, js):
                x[: k + 1, holes] = x[: k + 1, movers]
        rows, yn2, tol2, zz, c, weight = (x[:na] for x in (rows, yn2, tol2, zz, c, weight))
        f, z, js = (x[:, :na] for x in (f, z, js))
        sq, score, tmp, row_n, row_c, row_f = (x[:na] for x in (sq, score, tmp, row_n, row_c, row_f))
    coeffs = coeffs[:, 0] + 1j * coeffs[:, 1] if complex_y else coeffs[:, 0]
    return _OmpResult(coeffs=coeffs, errors=errors, support=chosen, count=count)


def _recover(y: np.ndarray, codec: CsCodec) -> _OmpResult:
    """OMP of each distinct report (keyed by its bytes) once, copied to its duplicates.

    Each step selects the atom with the largest norm-weighted correlation
    |a_j^H r| / ||a_j|| and re-solves the least squares over the support,
    until ``codec.max_atoms`` atoms or ||r|| <= ``codec.residual_tol`` ||y||.
    A report whose residual turns orthogonal to every remaining atom, or
    whose next atom is numerically dependent on its support, breaks down
    first and keeps its partial coefficients, the least-squares fit on the
    support it reached, as a report stopped by the budget keeps its own.
    The distinct reports run in as few near-equal `_batch_omp` calls as
    `batch_reports` allows, at least one.  A call with a breakdown warns
    once, with how many of its reports broke down and why the first did.
    """
    if np.ndim(y) not in (1, 2) or np.shape(y)[-1] != codec.m:
        raise ValueError(f"y must have trailing length {codec.m}, got {np.shape(y)}")
    ys = np.ascontiguousarray(np.atleast_2d(y))
    keys = ys.view(np.dtype((np.void, ys.shape[1] * ys.itemsize)))[:, 0]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    calls = max(1, -(-len(first) // max(1, batch_reports(codec))))
    edges = np.arange(calls + 1) * len(first) // calls
    parts = [_batch_omp(ys[first[lo:hi]], codec.dictionary, codec.gram, codec.max_atoms, codec.residual_tol)
             for lo, hi in zip(edges[:-1], edges[1:])]
    res = _OmpResult(np.concatenate([r.coeffs for r in parts]), [e for r in parts for e in r.errors],
                     np.concatenate([r.support for r in parts]), np.concatenate([r.count for r in parts]))
    errors = [res.errors[i] for i in inverse]
    broken = [error for error in errors if error]
    if broken:
        warnings.warn(f"OMP broke down on {len(broken)} of {len(errors)} reports, which keep their partial "
                      f"estimates; the first: {broken[0]}", RuntimeWarning, stacklevel=3)
    return _OmpResult(res.coeffs[inverse], errors, res.support[inverse], res.count[inverse])


def reconstruct_raw(y: np.ndarray, codec: CsCodec) -> np.ndarray:
    """Recover the stacked raw-measurement vector(s) from a projection.

    OMP against the codec dictionary, then coefficients mapped back
    through the basis (z_hat = Psi^H coeffs); a (T, M) report gives (T, n)
    estimates.  Each report is synthesized from its support S alone, as
    ``coeffs[S] @ Psi[S]`` in selection order, one product per report, so
    a row of a block equals the one-report call bit for bit.  A breakdown
    is synthesized from its partial estimate (see `_recover`).
    """
    res = _recover(y, codec)
    z_hat = np.zeros_like(res.coeffs)
    for z_i, coeffs, support, count in zip(z_hat, res.coeffs, res.support, res.count):
        s = support[:count]
        z_i[:] = _real_matmul(coeffs[None, s], codec.psi[s])[0]  # Psi is real
    return z_hat.reshape(np.shape(y)[:-1] + (codec.n,))


def reconstruct_decisions(y: np.ndarray, codec: CsCodec) -> np.ndarray:
    """Recover binary decision vector(s) from a projection.

    Requires the canonical (identity) basis, where a low-false-alarm
    decision vector is sparse.  Entries are quantized to 1 iff the
    recovered coefficient exceeds 0.5.  Always returns length-N binary
    vectors (shape (T, N) for a (T, M) report).  A dense vector is not
    recoverable from M < N projections, but OMP does not break down on
    it: it stops at its atom budget and that estimate is quantized.  A
    report on which OMP does break down (an orthogonal residual or a
    dependent atom) has its partial estimate quantized, with a warning,
    as in `reconstruct_raw`.
    """
    if codec.basis is not Basis.IDENTITY:
        raise ValueError("decision recovery requires the identity basis")
    coeffs = _recover(y, codec).coeffs.reshape(np.shape(y)[:-1] + (codec.n,))
    return (np.real(coeffs) > 0.5).astype(np.int64)
