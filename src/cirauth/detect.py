"""Neyman-Pearson authentication tests and hard-decision fusion.

The fusion center (and each node locally) compares the whitened squared
deviation of a measurement from the known legitimate fingerprint against
a threshold solved from a target false-alarm rate.  Under the null the
doubled quadratic form is exactly chi-squared with 2*(vector length)
degrees of freedom, which is what the calibration relies on.  Local
binary decisions are combined with OR / AND / majority / weighted
averaging, or node 0's decision is reported alone (the single-sensor
baseline).  Decisions are plain bools: ``H1`` (True) means "reject,
declare intruder"; ties always resolve to ``H0`` (accept).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

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


@dataclass(frozen=True)
class DetectorConfig:
    """Thresholds (given directly or solved from false-alarm targets).

    ``delta`` drives the fusion-center raw-measurement test; ``delta_n``
    the per-node local tests, shared by all nodes.  Exactly one of
    threshold / target may be set per test; `resolve` fills in the
    missing thresholds once the problem dimensions are known.  Thresholds
    must be finite and positive; targets must lie in (0, 1).
    """

    delta: float | None = None
    target_pfa: float | None = None
    delta_n: float | None = None
    target_pfa_n: float | None = None

    def __post_init__(self):
        if self.delta is not None and self.target_pfa is not None:
            raise ValueError("give either delta or target_pfa, not both")
        if self.delta_n is not None and self.target_pfa_n is not None:
            raise ValueError("give either delta_n or target_pfa_n, not both")
        bounds = {"delta": math.inf, "delta_n": math.inf, "target_pfa": 1.0, "target_pfa_n": 1.0}
        for name, hi in bounds.items():
            value = getattr(self, name)
            if value is not None and not 0.0 < value < hi:
                raise ValueError(f"{name} must lie in (0, {hi:g}), got {value}")

    def resolve(self, n_nodes: int, n_taps: int) -> "DetectorConfig":
        """Solve any target false-alarm rates into concrete thresholds."""
        delta = self.delta
        if delta is None and self.target_pfa is not None:
            delta = solve_threshold(self.target_pfa, 2 * n_nodes * n_taps)
        delta_n = self.delta_n
        if delta_n is None and self.target_pfa_n is not None:
            delta_n = solve_threshold(self.target_pfa_n, 2 * n_taps)
        return DetectorConfig(delta=delta, delta_n=delta_n)


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


def quadratic_statistic(
    z: np.ndarray,
    h_ref: np.ndarray,
    inv_applier: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray | float:
    """Doubled whitened squared deviation 2 (z - h)^H Sigma^-1 (z - h).

    The sum runs over the trailing axis; leading axes are a batch.  Under
    the null it is chi-squared with 2*(trailing length) degrees of freedom.
    """
    d = np.asarray(z) - np.asarray(h_ref)
    q = (d.conj() * inv_applier(d)).sum(axis=-1)
    q_im = np.abs(np.imag(q)) if np.iscomplexobj(q) else 0.0
    if np.any(q_im > 1e-10 * np.maximum(1.0, np.abs(q))):
        raise ValueError("quadratic form has a non-negligible imaginary part")
    stat = 2.0 * np.maximum(np.real(q), 0.0)
    return stat[()] if np.ndim(stat) == 0 else stat


def fc_raw_statistic(
    z_star: np.ndarray,
    h_ab_star: np.ndarray,
    sigma_star_inv_applier: Callable[[np.ndarray], np.ndarray],
) -> float:
    """Fusion-center test statistic on the stacked raw measurement.

    :func:`quadratic_statistic` of the stacked vector;
    ``sigma_star_inv_applier`` applies the inverse stacked noise
    covariance.  Leading axes of ``z_star`` are treated as a batch.
    """
    if np.asarray(z_star).shape[-1] != np.asarray(h_ab_star).shape[-1]:
        raise ValueError("z_star and h_ab_star lengths differ")
    return quadratic_statistic(z_star, h_ab_star, sigma_star_inv_applier)


def local_decide(
    z_n: np.ndarray,
    h_abn: np.ndarray,
    sigma_n_inv: Callable[[np.ndarray], np.ndarray],
    delta_n: float,
) -> int:
    """One node's hard decision on its own L-tap measurement.

    Same statistic and tie conventions as the fusion-center test; returns
    1 for "declare intruder".  ``sigma_n_inv`` applies the node's inverse
    noise covariance.
    """
    if np.asarray(z_n).shape[-1] != np.asarray(h_abn).shape[-1]:
        raise ValueError("z_n and h_abn lengths differ")
    stat = quadratic_statistic(z_n, h_abn, sigma_n_inv)
    if np.ndim(stat):
        return (stat > delta_n).astype(np.int64)
    return int(stat > delta_n)


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
