"""Neyman-Pearson authentication tests and hard-decision fusion.

The fusion center (and each node locally) compares the whitened squared
deviation of a measurement from the known legitimate fingerprint against
a threshold, given directly or solved from a target false-alarm rate by
`solve_threshold`.  Under the null the doubled quadratic form is exactly
chi-squared with 2*(vector length) degrees of freedom, which is what the
calibration relies on: 2NL for the fusion center's stacked test, 2L for
a node's own.  Local binary decisions are combined with OR / AND /
majority / weighted averaging, or node 0's decision is reported alone
(the single-sensor baseline).  Decisions are plain bools: ``H1`` (True) means "reject,
declare intruder"; ties always resolve to ``H0`` (accept).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

H0 = False
H1 = True


class FusionKind(str, enum.Enum):
    OR = "or"
    AND = "and"
    MAJORITY = "majority"
    WEIGHTED_AVERAGE = "weighted_average"
    SINGLE = "single"


@dataclass(frozen=True)
class FusionRule:
    """Hard-decision combining rule applied by the fusion center.

    WEIGHTED_AVERAGE declares H1 iff the mean vote exceeds
    ``avg_threshold`` strictly, so at the default 0.5 it coincides with
    majority voting for odd N.
    """

    kind: FusionKind
    avg_threshold: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "kind", FusionKind(self.kind))
        if not 0.0 < self.avg_threshold < 1.0:
            raise ValueError(f"avg_threshold must lie in (0, 1), got {self.avg_threshold}")


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


def quadratic_statistic(z: np.ndarray, h_ref: np.ndarray, scale: np.ndarray | float) -> np.ndarray | float:
    """Doubled whitened squared deviation 2 (z - h)^H Sigma^-1 (z - h).

    ``scale`` is the inverse noise variance 1/sigma2, per row or per node,
    broadcast against ``z - h_ref``.  The sum runs over the trailing axis;
    leading axes are a batch.  Under the null it is chi-squared with
    2*(trailing length) degrees of freedom.
    """
    d = np.asarray(z) - np.asarray(h_ref)
    q = (d.conj() * (d * scale)).sum(axis=-1)
    q_im = np.abs(np.imag(q)) if np.iscomplexobj(q) else 0.0
    if np.any(q_im > 1e-10 * np.maximum(1.0, np.abs(q))):
        raise ValueError("quadratic form has a non-negligible imaginary part")
    stat = 2.0 * np.maximum(np.real(q), 0.0)
    return stat[()] if np.ndim(stat) == 0 else stat


def fuse(u_star: Sequence[int] | np.ndarray, rule: FusionRule) -> bool:
    """Combine per-node binary decisions into the fusion-center verdict.

    OR: H1 iff any node fired; AND: H1 iff all fired; MAJORITY: H1 iff
    strictly more than half fired; WEIGHTED_AVERAGE: H1 iff the mean
    vote strictly exceeds ``avg_threshold``; SINGLE: node 0's decision.
    All ties resolve to H0.  Leading batch axes are supported: shape
    (..., N) returns (...).
    """
    u = np.asarray(u_star)
    if u.ndim == 0 or u.shape[-1] == 0:
        raise ValueError("u_star must be a nonempty decision vector")
    if not ((u == 0) | (u == 1)).all():
        raise ValueError("u_star entries must be 0 or 1")
    n = u.shape[-1]
    if rule.kind is FusionKind.OR:
        out = u.any(axis=-1)
    elif rule.kind is FusionKind.AND:
        out = u.all(axis=-1)
    elif rule.kind is FusionKind.MAJORITY:
        out = u.sum(axis=-1) > n / 2.0
    elif rule.kind is FusionKind.SINGLE:
        out = u[..., 0] == 1
    else:  # a dot with 1/N weights, not u.mean(): the two round differently at ties
        out = u @ np.full(n, 1.0 / n) > rule.avg_threshold
    return bool(out) if np.ndim(out) == 0 else out


def fused_pfa_analytic(alpha_n: float, n: int, rule: FusionKind) -> float:
    """Closed-form fused false-alarm rate under iid per-node alarms.

    Used to validate the Monte Carlo engine: OR is 1-(1-a)^N (evaluated
    as -expm1(N log1p(-a)) to keep small rates exact), AND is a^N,
    MAJORITY is the binomial tail P(Bin(N, a) > N/2) (scipy's ``bdtrc``,
    which keeps its relative accuracy deep into the tail), SINGLE is a.
    """
    if not 0.0 <= alpha_n <= 1.0:
        raise ValueError(f"alpha_n must lie in [0, 1], got {alpha_n}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    kind = FusionKind(rule)
    if kind is FusionKind.OR:
        return -math.expm1(n * math.log1p(-alpha_n)) if 0.0 < alpha_n < 1.0 else alpha_n
    if kind is FusionKind.AND:
        return alpha_n**n
    if kind is FusionKind.MAJORITY and n > 1:
        from scipy import special

        return float(special.bdtrc(n // 2, n, alpha_n))
    if kind in (FusionKind.SINGLE, FusionKind.MAJORITY):  # bdtrc(0, 1, a) loses subnormal a
        return alpha_n
    raise ValueError("no closed form for weighted averaging")
