#!/usr/bin/env python3
"""Neyman-Pearson threshold calibration, checked by simulation.

Solves the per-node thresholds for a range of target false-alarm rates
(the local statistic is chi-squared with 2L degrees of freedom under the
null) and verifies each one empirically with noise-only measurements.
"""

import math

from cirauth import solve_threshold, stream
from cirauth.detect import quadratic_statistic
from cirauth.numerics import complex_from_normals

L = 6
TRIALS = 400_000
CHUNK = 100_000

print(f"Per-node test, L={L} taps -> chi-squared with {2 * L} dof under H0")
print(f"{TRIALS:,} noise-only trials per target\n")
print(f"{'target P_fa':>12} | {'threshold':>10} | {'empirical':>10} | {'within 3 sigma':>14}")
print("-" * 58)

for alpha in (0.05, 0.01, 0.001):
    delta = solve_threshold(alpha, 2 * L)
    alarms = 0
    for c in range(TRIALS // CHUNK):
        noise = complex_from_normals(stream(2000 + c, int(alpha * 1e6)).standard_normal(2 * CHUNK * L))  # CN(0, 1)
        u = quadratic_statistic(noise.reshape(CHUNK, L), 1.0) > delta  # under H0 the deviation is the noise
        alarms += int(u.sum())
    emp = alarms / TRIALS
    sigma = math.sqrt(alpha * (1 - alpha) / TRIALS)
    flag = "yes" if abs(emp - alpha) < 3 * sigma else "NO"
    print(f"{alpha:>12g} | {delta:>10.3f} | {emp:>10.5f} | {flag:>14}")

print("\nThe solved thresholds hit their target false-alarm rates; the same")
print("calibration drives the fusion-center test with 2NL degrees of freedom.")
