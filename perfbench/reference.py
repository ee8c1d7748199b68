"""Exact privacy loss of the composed plain Gaussian mechanism.

T compositions of a unit-sensitivity Gaussian with noise sigma are exactly
one Gaussian mechanism with mu = sqrt(T)/sigma, whose optimal privacy
curve is the analytic Gaussian of Balle & Wang (arXiv:1805.06530):

    delta(eps) = Phi(mu/2 - eps/mu) - e^eps * Phi(-mu/2 - eps/mu).

Inverting it gives the smallest epsilon any accountant can certify, so
eps_ours - eps_opt measures how loose an answer is.  Everything is computed
in log domain with math.erfc alone, so that eps > 700 cannot overflow.
"""

from __future__ import annotations

import math

_LOG_HALF = math.log(0.5)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def log_ndtr(x: float) -> float:
    """log Phi(x) for the standard normal CDF, accurate far into the lower tail."""
    if x > -20.0:
        return _LOG_HALF + math.log(math.erfc(-x / math.sqrt(2.0)))
    # asymptotic series Phi(x) = phi(x)/|x| * (1 - 1/x^2 + 3/x^4 - ...); the
    # truncation error at x = -20 is below 1e-11 relative
    inv = 1.0 / (x * x)
    series = 1.0 + inv * (-1.0 + inv * (3.0 + inv * (-15.0 + inv * (105.0 + inv * -945.0))))
    return -0.5 * x * x - _LOG_SQRT_2PI - math.log(-x) + math.log(series)


def log_delta(mu: float, eps: float) -> float:
    """log delta(eps) of the Gaussian mechanism with parameter mu; -inf when delta = 0."""
    a = mu / 2.0 - eps / mu
    b = -mu / 2.0 - eps / mu
    la = log_ndtr(a)
    d = eps + log_ndtr(b) - la
    if d >= 0.0:
        return -math.inf
    return la + math.log1p(-math.exp(d))


def eps_opt(sigma: float, T: float, delta: float, rel_tol: float = 1e-13) -> float:
    """Optimal epsilon of T-fold composition at noise sigma (unit sensitivity)."""
    mu = math.sqrt(T) / sigma
    target = math.log(delta)
    if log_delta(mu, 0.0) <= target:
        return 0.0
    lo, hi = 0.0, 1.0
    while log_delta(mu, hi) > target:
        lo, hi = hi, 2.0 * hi
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if log_delta(mu, mid) > target:
            lo = mid
        else:
            hi = mid
    # hi always satisfies delta(hi) <= target, so it is a valid (eps, delta) pair
    return hi
