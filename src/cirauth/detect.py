"""Neyman-Pearson authentication tests and hard-decision fusion.

The fusion center (and each node locally) compares the whitened squared
deviation of a measurement from the known legitimate fingerprint against
a threshold, given directly or solved from a target false-alarm rate by
`solve_threshold`.  Under the null the doubled quadratic form is exactly
chi-squared with 2*(vector length) degrees of freedom, which is what the
calibration relies on: 2NL for the fusion center's stacked test, 2L for
a node's own.  Local binary decisions are combined with OR / AND /
majority / weighted averaging, or node 0's decision is reported alone
(the single-sensor baseline).  With uniform weights each of these is a
vote-count cutoff (`FusionRule.cutoff`): H1 iff more than k of the
first ``voters`` nodes fired, the mean vote of c votes being ``c / n``.
Decisions are plain bools: True is H1 ("reject, declare intruder"),
False is H0 (accept), and ties always resolve to False.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class FusionKind(str, enum.Enum):
    OR = "or"
    AND = "and"
    MAJORITY = "majority"
    WEIGHTED_AVERAGE = "weighted_average"
    SINGLE = "single"


@dataclass(frozen=True)
class FusionRule:
    """Hard-decision combining rule applied by the fusion center.

    Every rule is a cutoff on the vote count (see `cutoff`).
    WEIGHTED_AVERAGE declares H1 iff the mean vote ``c / n`` of c votes
    exceeds ``avg_threshold`` strictly, so at the default 0.5 it
    coincides with majority voting for every N: c / n > 1/2 holds
    exactly when c > N // 2.
    """

    kind: FusionKind
    avg_threshold: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "kind", FusionKind(self.kind))
        if not 0.0 < self.avg_threshold < 1.0:
            raise ValueError(f"avg_threshold must lie in (0, 1), got {self.avg_threshold}")

    def cutoff(self, n: int) -> tuple[int, int]:
        """``(voters, k)`` over ``n`` nodes: H1 iff more than k of the first ``voters`` nodes fired."""
        if n < 1:
            raise ValueError(f"n must be positive, got {n}")
        if self.kind is FusionKind.SINGLE:
            return 1, 0
        if self.kind is FusionKind.WEIGHTED_AVERAGE:  # k counts the c whose mean vote c / n accepts
            return n, sum(c / n <= self.avg_threshold for c in range(1, n + 1))
        return n, {FusionKind.OR: 0, FusionKind.AND: n - 1, FusionKind.MAJORITY: n // 2}[self.kind]


def solve_threshold(alpha: float, dof: int) -> float:
    """Threshold whose chi-squared(dof) upper-tail mass equals ``alpha``.

    Inverts the upper regularized incomplete gamma directly, so targets
    far below machine epsilon keep full relative accuracy.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if dof < 1 or int(dof) != dof:
        raise ValueError(f"dof must be a positive integer, got {dof}")
    from scipy import special  # lazy: a run with given thresholds never loads scipy

    return 2.0 * float(special.gammainccinv(dof / 2.0, alpha))


def quadratic_statistic(d: np.ndarray, scale: np.ndarray | float) -> np.ndarray | float:
    """Doubled whitened squared deviation 2 d^H Sigma^-1 d of a measurement from its reference, d = z - h.

    ``scale`` is the inverse noise variance 1/sigma2, per row or per node,
    broadcast against ``d``; it must be real, finite and positive.  The
    form is summed in real arithmetic, 2 sum (re^2 + im^2) scale, over the
    trailing axis; leading axes are a batch.  Under the null d is the
    noise alone, and the statistic is chi-squared with 2*(trailing
    length) degrees of freedom.
    """
    scale = np.asarray(scale)
    if np.iscomplexobj(scale) or not np.all((scale > 0.0) & (scale < math.inf)):  # else 0 or NaN: "accept"
        raise ValueError("scale must be real, finite and positive")
    d = np.asarray(d)
    re, im = d.real, d.imag  # scaled before squared: a small scale keeps a large deviation finite
    return 2.0 * (re * (re * scale) + im * (im * scale)).sum(axis=-1)


def fused_pfa_analytic(alpha_n: float, n: int, rule: FusionRule) -> float:
    """Closed-form fused false-alarm rate under iid per-node alarms.

    Used to validate the Monte Carlo engine: the binomial tail
    P(Bin(voters, a) > k) of the rule's cutoff.  At k = 0 it is
    1-(1-a)^voters, evaluated as -expm1(voters log1p(-a)) to keep small
    rates exact; otherwise scipy's ``bdtrc``, which keeps its relative
    accuracy deep into the tail.
    """
    if not 0.0 <= alpha_n <= 1.0:
        raise ValueError(f"alpha_n must lie in [0, 1], got {alpha_n}")
    voters, k = rule.cutoff(n)
    if k == 0:  # bdtrc(0, 1, a) loses subnormal a
        return -math.expm1(voters * math.log1p(-alpha_n)) if 0.0 < alpha_n < 1.0 else alpha_n
    from scipy import special

    return float(special.bdtrc(k, voters, alpha_n))
