#!/usr/bin/env python3
"""Hard-decision fusion rules: analytic false-alarm rates vs simulation,
plus the pointwise ordering between them.

With iid per-node alarms at rate alpha, every rule is a vote-count
cutoff, so each fused rate is a binomial tail in closed form; the
weighted average with uniform weights coincides with majority voting for
odd N.  OR fires whenever majority does, and majority whenever AND does,
on every possible decision vector.
"""

import numpy as np

from cirauth import FusionKind, FusionRule, fuse, fused_pfa_analytic
from cirauth.numerics import Rng

N = 10
ALPHA = 0.05
TRIALS = 300_000

gen = Rng(3000, 0).generator
u = (gen.random((TRIALS, N)) < ALPHA).astype(np.int64)

print(f"N={N} nodes, per-node alarm rate alpha={ALPHA}, {TRIALS:,} trials\n")
print(f"{'rule':>18} | {'analytic':>12} | {'empirical':>12}")
print("-" * 50)
avg = FusionRule(kind=FusionKind.WEIGHTED_AVERAGE)
maj = FusionRule(kind=FusionKind.MAJORITY)
for rule in (FusionRule(kind=FusionKind.OR), maj, FusionRule(kind=FusionKind.AND), avg):
    want = fused_pfa_analytic(ALPHA, N, rule)
    emp = float(np.mean(fuse(u, rule)))
    print(f"{rule.kind.value:>18} | {want:>12.3e} | {emp:>12.3e}")

agree = sum(
    fuse([(bits >> i) & 1 for i in range(7)], avg) == fuse([(bits >> i) & 1 for i in range(7)], maj)
    for bits in range(2**7)
)
print(f"\nUniform weighted average vs majority, N=7, all {2**7} inputs: {agree} agree")

dominated = all(
    (not fuse(u_row, FusionRule(kind=FusionKind.AND)) or fuse(u_row, maj))
    and (not fuse(u_row, maj) or fuse(u_row, FusionRule(kind=FusionKind.OR)))
    for bits in range(2**10)
    for u_row in [[(bits >> i) & 1 for i in range(10)]]
)
print(f"OR >= majority >= AND pointwise on all 2^10 inputs: {dominated}")
print("\n(AND trades almost all false alarms away; OR maximizes detections;")
print("majority sits between, which is the usual operating compromise.)")
