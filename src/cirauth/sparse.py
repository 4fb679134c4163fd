"""Compressed-sensing reporting channel.

The relay compresses a length-n report (stacked raw measurements, n = N*L,
or the length-N local-decision vector) into M < n values with a Gaussian
random projection y = Phi x.  The receiver recovers the report with
orthogonal matching pursuit against the dictionary A = Phi Psi^H, where
Psi is an orthonormal sparsifying basis (DCT for spatially-correlated raw
measurements, the canonical basis for decision vectors), then maps the
recovered coefficients back through Psi^H.

OMP here iterates in the Gram domain (correlations updated from A^H A,
coefficients from a growing Cholesky factor) so the per-call cost stays
O(n*K) per iteration once the codec's Gram matrix is cached; the final
coefficients are re-fit by a dense least squares on the selected columns.

``compress`` and ``reconstruct_*`` also take a block of T reports, for
which projection and basis synthesis are one real matrix product each;
OMP runs per report.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla

from .numerics import Rng


class RecoveryError(RuntimeError):
    """OMP could not make progress; ``partial`` holds the best coefficients."""

    def __init__(self, message: str, partial: np.ndarray):
        super().__init__(message)
        self.partial = partial


class Basis(str, enum.Enum):
    DCT = "dct"
    IDENTITY = "identity"


def gaussian_phi(rng: Rng, m: int, n: int) -> np.ndarray:
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


def identity_basis(n: int) -> np.ndarray:
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return np.eye(n)


_BASIS_BUILDERS = {
    Basis.DCT: dct_basis,
    Basis.IDENTITY: identity_basis,
}


class CsCodec:
    """Measurement matrix + sparsifying basis + OMP stopping policy.

    ``max_atoms`` defaults to ceil(M/8); recovery also stops once the
    residual drops to ``residual_tol`` times ||y||, whichever comes first.
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
        phi = np.asarray(phi, dtype=np.float64)
        if phi.ndim != 2:
            raise ValueError(f"phi must be a matrix, got shape {phi.shape}")
        m, n = phi.shape
        if m > n:
            raise ValueError(f"phi must be wide (M <= n), got {m}x{n}")
        self.basis = Basis(basis)
        psi = _BASIS_BUILDERS[self.basis](n)
        err = np.abs(psi @ psi.conj().T - np.eye(n)).max()
        if err > 1e-10:
            raise ValueError(f"sparsifying basis is not orthonormal (error {err:.3g})")
        if max_atoms is None:
            max_atoms = math.ceil(m / 8)
        if max_atoms < 1:
            raise ValueError(f"max_atoms must be positive, got {max_atoms}")
        if not 0.0 <= residual_tol < math.inf:
            raise ValueError(f"residual_tol must be finite and nonnegative, got {residual_tol}")
        self.phi = phi
        self.psi = psi
        self.max_atoms = int(max_atoms)
        self.residual_tol = float(residual_tol)
        self.dictionary = phi @ psi.conj().T
        self.gram = self.dictionary.conj().T @ self.dictionary

    @property
    def m(self) -> int:
        return self.phi.shape[0]

    @property
    def n(self) -> int:
        return self.phi.shape[1]


@dataclass(frozen=True)
class CompressedReport:
    """Length-M projection of one report (M,) or a block (T, M), tied to its codec."""

    y: np.ndarray
    codec: CsCodec

    def __post_init__(self):
        shape = np.asarray(self.y).shape
        if len(shape) not in (1, 2) or shape[-1] != self.codec.m:
            raise ValueError(f"y must have trailing length {self.codec.m}, got {shape}")


def _real_matmul(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``x @ a`` for real ``a``: a complex (T, n) ``x`` goes as one real GEMM of stacked parts."""
    if not np.iscomplexobj(x):
        return x @ a
    parts = np.concatenate((x.real, x.imag)) @ a
    return parts[: len(x)] + 1j * parts[len(x) :]


def compress(x: np.ndarray, codec: CsCodec) -> CompressedReport:
    """Random projection y = Phi x of one report (n,) or a block (T, n)."""
    x = np.asarray(x)
    if x.ndim not in (1, 2) or x.shape[-1] != codec.n:
        raise ValueError(f"x must have trailing length {codec.n}, got {x.shape}")
    y = _real_matmul(np.atleast_2d(x), codec.phi.T)
    return CompressedReport(y=y.reshape(x.shape[:-1] + (codec.m,)), codec=codec)


def omp(
    y: np.ndarray,
    a: np.ndarray,
    max_atoms: int,
    residual_tol: float = 1e-6,
    gram: np.ndarray | None = None,
    return_diagnostics: bool = False,
) -> np.ndarray | tuple[np.ndarray, dict]:
    """Greedy sparse recovery of x from y ~= a @ x.

    Repeatedly selects the atom with the largest norm-weighted correlation
    |a_j^H r| / ||a_j|| against the residual, re-solves the least squares
    over the selected support, and stops at ``max_atoms`` atoms or once
    ||r|| <= residual_tol * ||y||.  The least-squares updates run in the
    Gram domain through a growing Cholesky factor (pass ``gram = a^H a``
    to amortize the Gram product across calls).  Complex ``y`` gives
    complex coefficients; selection uses correlation magnitudes.

    Raises :class:`RecoveryError` (with partial coefficients attached) if
    the residual stops decreasing before either stop fires.
    """
    a = np.asarray(a)
    y = np.asarray(y)
    if a.ndim != 2:
        raise ValueError(f"dictionary must be a matrix, got shape {a.shape}")
    m, n = a.shape
    if y.shape != (m,):
        raise ValueError(f"y must have length {m}, got {y.shape}")
    if max_atoms < 1:
        raise ValueError(f"max_atoms must be positive, got {max_atoms}")
    if gram is None:
        gram = a.conj().T @ a
    col_norms = np.sqrt(np.real(np.diag(gram)))
    if np.any(col_norms == 0):
        raise ValueError("dictionary contains a zero column")

    out_dtype = np.result_type(a.dtype, y.dtype)
    coeffs = np.zeros(n, dtype=out_dtype)
    ynorm2 = float(np.real(np.vdot(y, y)))
    budget = min(int(max_atoms), n)
    tol2 = (residual_tol**2) * ynorm2

    c0 = a.conj().T @ y
    c = c0.copy()
    support: list[int] = []
    chol = np.zeros((budget, budget), dtype=out_dtype)
    gram_cols = np.empty((n, budget), dtype=gram.dtype)  # gram[:, support], built once
    c0_sel = np.empty(budget, dtype=out_dtype)
    gamma = np.zeros(0, dtype=out_dtype)
    res2 = ynorm2
    res_trace = [math.sqrt(ynorm2)]

    def partial_result() -> np.ndarray:
        partial = np.zeros(n, dtype=out_dtype)
        if support:
            partial[support] = gamma
        return partial

    while len(support) < budget and res2 > tol2:
        scores = np.abs(c) / col_norms
        if support:
            scores[support] = -1.0
        j = int(np.argmax(scores))
        if scores[j] <= 0.0:
            raise RecoveryError(
                "residual is orthogonal to every remaining atom", partial_result()
            )
        k = len(support)
        if k:
            w = sla.solve_triangular(
                chol[:k, :k], gram_cols[j, :k].conj(), lower=True, check_finite=False
            )
            d2 = float(np.real(gram[j, j]) - np.real(np.vdot(w, w)))
        else:
            d2 = float(np.real(gram[j, j]))
        if d2 <= 1e-12 * float(np.real(gram[j, j])):
            raise RecoveryError(
                f"atom {j} is numerically dependent on the selected support", partial_result()
            )
        if k:
            chol[k, :k] = w.conj()
        chol[k, k] = math.sqrt(d2)
        gram_cols[:, k] = gram[:, j]
        c0_sel[k] = c0[j]
        support.append(j)
        k += 1
        half = sla.solve_triangular(chol[:k, :k], c0_sel[:k], lower=True, check_finite=False)
        gamma = sla.solve_triangular(
            chol[:k, :k].conj().T, half, lower=False, check_finite=False
        )
        new_res2 = max(ynorm2 - float(np.real(np.vdot(gamma, c0_sel[:k]))), 0.0)
        if new_res2 > res2 + 1e-12 * max(ynorm2, 1.0):
            raise RecoveryError(
                "residual norm failed to decrease (numerical breakdown)", partial_result()
            )
        res2 = new_res2
        res_trace.append(math.sqrt(res2))
        c = c0 - gram_cols[:, :k] @ gamma

    if support:
        coeffs[support] = gamma
    if return_diagnostics:
        return coeffs, {"support": list(support), "residual_norms": res_trace}
    return coeffs


def _recover(report: CompressedReport, codec: CsCodec, keep_partial: bool = False) -> np.ndarray:
    """OMP coefficients, one row per report; ``keep_partial`` keeps a breakdown's partial result."""
    if report.codec is not codec:
        raise ValueError("report was produced by a different codec")
    ys = np.atleast_2d(report.y)
    coeffs = np.zeros((len(ys), codec.n), dtype=np.result_type(ys, codec.dictionary))
    for row, y in zip(coeffs, ys):
        try:
            row[:] = omp(y, codec.dictionary, codec.max_atoms, codec.residual_tol, gram=codec.gram)
        except RecoveryError as exc:
            if not keep_partial:
                raise
            row[:] = exc.partial
    return coeffs.reshape(np.shape(report.y)[:-1] + (codec.n,))


def reconstruct_raw(
    report: CompressedReport,
    codec: CsCodec,
    truth: np.ndarray | None = None,
) -> np.ndarray | tuple[np.ndarray, float]:
    """Recover the stacked raw-measurement vector(s) from a projection.

    OMP against the codec dictionary, then coefficients mapped back
    through the basis (z_hat = Psi^H coeffs); a (T, M) report gives (T, n)
    estimates.  Given the transmitted ``truth`` (test mode), the squared
    error ||z_hat - truth||^2 of each report is returned as well.
    """
    coeffs = _recover(report, codec)
    z_hat = _real_matmul(np.atleast_2d(coeffs), codec.psi).reshape(coeffs.shape)  # Psi is real
    if truth is None:
        return z_hat
    err = np.sum(np.abs(z_hat - truth) ** 2, axis=-1)
    return z_hat, err[()]


def reconstruct_decisions(report: CompressedReport, codec: CsCodec) -> np.ndarray:
    """Recover binary decision vector(s) from a projection.

    Requires the canonical (identity) basis, where a low-false-alarm
    decision vector is sparse.  Entries are quantized to 1 iff the
    recovered coefficient exceeds 0.5.  Always returns length-N binary
    vectors (shape (T, N) for a (T, M) report): if OMP breaks down (e.g.
    the vector was dense and is not recoverable from M < N projections)
    the partial solution is quantized instead.
    """
    if codec.basis is not Basis.IDENTITY:
        raise ValueError("decision recovery requires the identity basis")
    return (np.real(_recover(report, codec, keep_partial=True)) > 0.5).astype(np.int64)
