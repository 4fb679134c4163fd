"""Fixed calibration kernel that tracks how fast the machine runs right now.

On a shared machine the speed of one core drifts by tens of percent
within seconds, as other tenants come and go.  The kernel below does a
fixed amount of the same kinds of work a cirauth trial does: Philox
stream construction, Gaussian draws, small complex matmuls, argmax and
LAPACK triangular solves on a short support, and a 480 x 600 gemv, with
one BLAS thread.  It never touches cirauth, so its cost does not change
when cirauth does.

Timing it right before and after each timed ``cirauth run`` and scaling
the run's trials/s by the mean :meth:`Calibration.slowdown` gives the
rate the run would have had at the reference speed.  Measured on a
2-core x86 VM over ten 18 s runs per workload, that cut the run-to-run
spread of trials/s from 17-34% to 3-6% (quartile distance over median).
"""

from __future__ import annotations

import time

import numpy as np
from scipy import linalg as sla

# Seconds one kernel pass takes at the reference speed; a 2-core x86
# (Skylake-X, 2.0 GHz) VM runs one pass in 0.10-0.12 s.
REFERENCE_SECONDS = 0.1
_ITERATIONS = 500


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(20170324)
        self._wide = rng.standard_normal((480, 600))
        self._factor = np.linalg.cholesky(2.0 * np.eye(10) + 0.1)
        self._dictionary = rng.standard_normal((70, 100))
        self._gram = self._dictionary.T @ self._dictionary
        self._lower = np.linalg.cholesky(self._gram[:12, :12])

    def slowdown(self) -> float:
        """Time of one kernel pass over ``REFERENCE_SECONDS``.

        1.2 means the machine runs 20% slower than the reference right now.
        """
        start = time.perf_counter()
        for k in range(_ITERATIONS):
            # trial-like: a Philox stream, Gaussian draws, small complex algebra
            x = np.random.Generator(np.random.Philox(key=k)).standard_normal(240)
            z = (x[:120] + 1j * x[120:]).reshape(6, 20)[:, :10] @ self._factor.T
            np.real((z.conj() * z).sum())
            # OMP-like: correlations, argmax and triangular solves on a short support
            c = self._gram[:, :12] @ x[:12]
            for j in range(1, 12, 3):
                np.argmax(np.abs(c) / 2.0)
                sla.solve_triangular(self._lower[:j, :j], c[:j], lower=True, check_finite=False)
            if k % 4 == 0:  # projection-like: a 480 x 600 gemv and its transpose
                self._wide.T @ (self._wide @ np.full(600, x[0]))
        return (time.perf_counter() - start) / REFERENCE_SECONDS
