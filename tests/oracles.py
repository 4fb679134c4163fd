"""Reference code the tests hold the package against; pytest collects nothing here.

``fuse`` is the per-vector fusion verdict the engine decided with before
it tallied votes per block, kept frozen as the oracle of the engine's
decisions.  ``complex_normals`` draws CN(0, variance) entries from a
stream the way a trial's front end does: at unit variance it equals
``complex_from_normals`` of the same normals bit for bit.
``conditional_fused_pd`` is a local scheme's fused detection probability
given the channels, with the noise integrated out in closed form.
"""

import math

import numpy as np
from scipy import special


def complex_normals(rng: np.random.Generator, n: int, variance: float = 1.0) -> np.ndarray:
    """``n`` iid CN(0, variance) entries from the stream's next ``2 n`` standard normals."""
    parts, scale = rng.standard_normal(2 * n), math.sqrt(variance / 2.0)
    out = np.empty(n, dtype=np.complex128)
    np.multiply(parts[:n], scale, out=out.real)
    np.multiply(parts[n:], scale, out=out.imag)
    return out


def fuse(u_star, rule) -> bool:
    """Combine per-node binary decisions into the fusion-center verdict.

    H1 iff more than k of the first ``voters`` nodes fired, for
    ``(voters, k) = rule.cutoff(N)``, so all ties resolve to H0.
    Leading batch axes are supported: shape (..., N) returns (...).
    """
    u = np.asarray(u_star)
    if u.ndim == 0 or u.shape[-1] == 0:
        raise ValueError("u_star must be a nonempty decision vector")
    if not ((u == 0) | (u == 1)).all():
        raise ValueError("u_star entries must be 0 or 1")
    voters, k = rule.cutoff(u.shape[-1])
    out = u[..., :voters].sum(axis=-1) > k
    return bool(out) if np.ndim(out) == 0 else out


def conditional_fused_pd(d: np.ndarray, sigma2: float, delta: float, rule) -> np.ndarray:
    """(T,) probability that the rule fires on each row, given its channels and no noise draw.

    ``d`` (T, N, L) is eve's channel minus alice's at each node.  Given d,
    node n's statistic is an independent noncentral chi-squared(2L,
    lambda_n) with lambda_n = 2 ||d_n||^2 / sigma2, so it alarms with
    p_n = 1 - chndtr(delta, 2L, lambda_n).  For ``(voters, k) =
    rule.cutoff(N)`` the fused alarm is then the Poisson-binomial tail
    P(more than k of the first ``voters`` nodes alarm), by a DP over nodes.
    """
    voters, k = rule.cutoff(d.shape[1])
    lam = 2.0 * np.sum(np.abs(d[:, :voters]) ** 2, axis=-1) / sigma2
    p = 1.0 - special.chndtr(delta, 2 * d.shape[-1], lam)
    dist = np.zeros((len(d), k + 2))  # P(j alarms so far) for j <= k, then P(more than k)
    dist[:, 0] = 1.0
    for q in p.T[:, :, None]:
        dist[:, -1:] += dist[:, -2:-1] * q
        dist[:, 1:-1] = dist[:, 1:-1] * (1.0 - q) + dist[:, :-2] * q
        dist[:, :1] *= 1.0 - q
    return dist[:, -1]
