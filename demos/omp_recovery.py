#!/usr/bin/env python3
"""Orthogonal matching pursuit in its comfort zone and outside it.

Noiseless sparse vectors are recovered exactly as long as the sparsity
stays well under the measurement budget; the table sweeps the sparsity K
for a fixed 480x600 Gaussian dictionary.  A second table shows the
binary decision-vector pipeline (identity basis, 0.5 quantizer) at
M=70 of N=100: exact while few nodes fire, saturating once the vector
stops being sparse.
"""

import numpy as np

from cirauth import CsCodec, compress, gaussian_phi, omp, reconstruct_decisions, stream

phi = gaussian_phi(stream(4000, 0), 480, 600)

print("Noiseless recovery, Gaussian 480x600 dictionary, 40 trials per K\n")
print(f"{'K':>4} | {'exact recoveries':>16}")
print("-" * 25)
for k in (5, 15, 30, 60, 120):
    codec = CsCodec(phi, basis="dct", max_atoms=k, residual_tol=1e-12)
    exact = 0
    for t in range(40):
        rng = stream(4001, 100 * k + t)
        x = np.zeros(600)
        x[rng.choice(600, k, replace=False)] = rng.standard_normal(k)
        got = omp(codec.dictionary @ x, codec)
        exact += np.abs(got - x).max() < 1e-8
    print(f"{k:>4} | {exact:>13}/40")

dec_codec = CsCodec(gaussian_phi(stream(4002, 0), 70, 100), basis="identity", max_atoms=35)
print("\nBinary decision vectors, M=70 of N=100, 40 trials per density\n")
print(f"{'ones':>5} | {'exact':>8} | {'mean recovered ones':>19}")
print("-" * 40)
for ones in (1, 5, 10, 20, 40, 80):
    exact, rec = 0, 0.0
    for t in range(40):
        rng = stream(4003, 100 * ones + t)
        u = np.zeros(100)
        u[rng.choice(100, ones, replace=False)] = 1.0
        got = reconstruct_decisions(compress(u, dec_codec), dec_codec)
        exact += np.array_equal(got, u.astype(np.int64))
        rec += got.sum()
    print(f"{ones:>5} | {exact:>5}/40 | {rec / 40:>19.1f}")

print("\nDense decision vectors are not canonically sparse, so recovery")
print("degrades gracefully instead of failing: the pipeline always returns")
print("a valid binary vector.")
