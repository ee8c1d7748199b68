"""Divergences between two-point distributions, in both privacy flavors.

Approximate DP is characterized by the hockey-stick divergence, generated
by f(t) = (t - lam)_+ with lam = e^eps, and Renyi DP by the power
divergence generated by f(t) = (t^alpha - 1)/(alpha - 1).  On a pair of
Bernoulli distributions both reduce to two-atom sums.  Powers are combined
in log domain so that orders of several hundred do not overflow, and near
order 1 the Renyi moment is summed as its excess over 1.  All values are in
nats.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError, _check_alpha, _check_unit
from .optimize import log_add


class _BernoulliPair(NamedTuple):
    p: float
    q: float


class BernoulliPair(_BernoulliPair):
    """Success probabilities of two binary distributions; endpoints rejected."""

    __slots__ = ()

    def __new__(cls, p: float, q: float):
        _check_unit(p, "p")
        _check_unit(q, "q")
        return super().__new__(cls, p, q)

    @classmethod
    def _make(cls, iterable):  # _replace builds through here, so it validates too
        return cls(*iterable)


def hockey_stick_binary(pair: BernoulliPair, lam: float) -> float:
    """E_lam(P||Q) = (p - lam*q)_+ + ((1-p) - lam*(1-q))_+ for lam >= 1."""
    if not (math.isfinite(lam) and lam >= 1.0):
        raise DomainError(f"lam must be finite and >= 1, got {lam!r}")
    p, q = pair.p, pair.q
    return max(p - lam * q, 0.0) + max((1.0 - p) - lam * (1.0 - q), 0.0)


def renyi_binary(pair: BernoulliPair, alpha: float) -> float:
    """Renyi divergence (1/(alpha-1)) * log E[(dP/dQ)^alpha]."""
    _check_alpha(alpha)
    # log( p^a q^(1-a) + (1-p)^a (1-q)^(1-a) ), exponents combined before exp
    p, q = pair.p, pair.q
    log_p, log_q, log_p_bar, log_q_bar = math.log(p), math.log(q), math.log1p(-p), math.log1p(-q)
    l_head, l_tail = log_p - log_q, log_p_bar - log_q_bar
    if (alpha - 1.0) * max(abs(l_head), abs(l_tail)) <= 1.0:
        # the moment is p e^((a-1) l_head) + (1-p) e^((a-1) l_tail), near 1
        # when alpha is: summed as its excess over 1, so that dividing the log
        # by alpha - 1 does not magnify the rounding of 1
        excess = p * math.expm1((alpha - 1.0) * l_head) + (1.0 - p) * math.expm1((alpha - 1.0) * l_tail)
        return max(math.log1p(excess) / (alpha - 1.0), 0.0)
    t_head = alpha * log_p + (1.0 - alpha) * log_q
    t_tail = alpha * log_p_bar + (1.0 - alpha) * log_q_bar
    return max(log_add(t_head, t_tail) / (alpha - 1.0), 0.0)
