#!/usr/bin/env python3
"""Hard-decision fusion rules: analytic false-alarm rates vs simulation,
plus the pointwise ordering between them.

Every rule is a vote-count cutoff: ``FusionRule.cutoff(N)`` gives
``(voters, k)``, and the fusion center declares H1 iff more than k of
the first ``voters`` nodes fired, the tally the simulator decides with.
With iid per-node alarms at rate alpha each fused rate is therefore a
binomial tail in closed form, and the weighted average with uniform
weights coincides with majority voting for odd N.  OR fires whenever
majority does, and majority whenever AND does, on every possible
decision vector.
"""

import numpy as np

from cirauth import FusionKind, FusionRule, fused_pfa_analytic
from cirauth.numerics import stream

N = 10
ALPHA = 0.05
TRIALS = 300_000


def alarms(u: np.ndarray, rule: FusionRule) -> np.ndarray:
    """H1 verdicts on decision vectors ``u`` (..., n): the vote tally against the rule's cutoff."""
    voters, k = rule.cutoff(u.shape[-1])
    return u[..., :voters].sum(axis=-1) > k


def every_vector(n: int) -> np.ndarray:
    """All 2**n decision vectors of n nodes."""
    return (np.arange(2**n)[:, None] >> np.arange(n)) & 1


gen = stream(3000, 0)
u = (gen.random((TRIALS, N)) < ALPHA).astype(np.int64)

print(f"N={N} nodes, per-node alarm rate alpha={ALPHA}, {TRIALS:,} trials\n")
print(f"{'rule':>18} | {'analytic':>12} | {'empirical':>12}")
print("-" * 50)
avg = FusionRule(kind=FusionKind.WEIGHTED_AVERAGE)
maj = FusionRule(kind=FusionKind.MAJORITY)
for rule in (FusionRule(kind=FusionKind.OR), maj, FusionRule(kind=FusionKind.AND), avg):
    want = fused_pfa_analytic(ALPHA, N, rule)
    emp = float(np.mean(alarms(u, rule)))
    print(f"{rule.kind.value:>18} | {want:>12.3e} | {emp:>12.3e}")

agree = int(np.sum(alarms(every_vector(7), avg) == alarms(every_vector(7), maj)))
print(f"\nUniform weighted average vs majority, N=7, all {2**7} inputs: {agree} agree")

d_and, d_maj, d_or = (alarms(every_vector(10), FusionRule(kind=kind))
                      for kind in (FusionKind.AND, FusionKind.MAJORITY, FusionKind.OR))
dominated = bool(d_maj[d_and].all() and d_or[d_maj].all())
print(f"OR >= majority >= AND pointwise on all 2^10 inputs: {dominated}")
print("\n(AND trades almost all false alarms away; OR maximizes detections;")
print("majority sits between, which is the usual operating compromise.)")
