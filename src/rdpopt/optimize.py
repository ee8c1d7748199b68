"""Derivative-free scalar minimization and monotone inversion.

Every quantity in this package reduces to a one-dimensional minimization
over an open interval, or to inverting a monotone map built from such a
minimization.  A coarse scan brackets the minimizer first (the objectives
are convex in practice, but bracketing does not rely on that), then
golden-section search refines the bracket.  Inversion takes the map's
slope with its value (for a minimum, from the envelope theorem) and runs
Newton steps from a trusted upper end, keeping a bracket around the
crossing and falling back to bisection whenever a step leaves the bracket
or fails to halve the step before it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar

from .errors import DomainError, InfeasibleError, _check_positive

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class ScalarSearchConfig:
    """Knobs shared by the scalar searches.

    abs_tol is an absolute tolerance on the argument, not the value.
    """

    abs_tol: float = 1e-10
    coarse_grid: int = 256
    max_iters: ClassVar[int] = 200  # a constant: every search stops after as many iterations

    def __post_init__(self):
        _check_positive(self.abs_tol, "abs_tol")
        if self.coarse_grid < 8:
            raise DomainError(f"coarse_grid must be >= 8, got {self.coarse_grid!r}")


DEFAULT_SEARCH = ScalarSearchConfig()


def log_add(a: float, b: float) -> float:
    """log(e^a + e^b) with the max factored out; tolerates infinities."""
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    if a == math.inf or b == math.inf:
        return math.inf
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


def minimize_unimodal(
    objective: Callable[[float], float],
    lo: float,
    hi: float,
    cfg: ScalarSearchConfig = DEFAULT_SEARCH,
) -> tuple[float, float]:
    """Minimize over the open interval (lo, hi).

    Returns (argmin, value).  The value never exceeds the best coarse-grid
    sample: the reported minimum is the best of every point evaluated.
    Non-finite objective values are skipped; if the whole grid is
    non-finite the minimization is infeasible.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError(f"need a finite interval with lo < hi, got ({lo!r}, {hi!r})")
    eta = max(1e-12, 1e-12 * abs(hi - lo))
    a, b = lo + eta, hi - eta
    if not a < b:
        # interval thinner than the endpoint offset; only the midpoint is usable
        mid = 0.5 * (lo + hi)
        return mid, objective(mid)

    def f(x: float) -> float:
        v = objective(x)
        return math.inf if math.isnan(v) else v

    n = cfg.coarse_grid
    step = (b - a) / (n - 1)
    best_x, best_v, best_i = a, f(a), 0
    for i in range(1, n):
        x = a + i * step
        v = f(x)
        if v < best_v:
            best_x, best_v, best_i = x, v, i
    if not best_v < math.inf:
        raise InfeasibleError("objective is non-finite everywhere on the coarse grid")

    left = a + max(best_i - 1, 0) * step
    right = a + min(best_i + 1, n - 1) * step
    x1 = right - _INV_PHI * (right - left)
    x2 = left + _INV_PHI * (right - left)
    f1, f2 = f(x1), f(x2)
    for x, v in ((x1, f1), (x2, f2)):
        if v < best_v:
            best_x, best_v = x, v
    iters = 0
    while (right - left) > cfg.abs_tol and iters < cfg.max_iters:
        if f1 <= f2:
            right, x2, f2 = x2, x1, f1
            x1 = right - _INV_PHI * (right - left)
            f1 = f(x1)
            if f1 < best_v:
                best_x, best_v = x1, f1
        else:
            left, x1, f1 = x1, x2, f2
            x2 = left + _INV_PHI * (right - left)
            f2 = f(x2)
            if f2 < best_v:
                best_x, best_v = x2, f2
        iters += 1
    return best_x, best_v


def _newton_invert(
    fn: Callable[[float], tuple[float, float]],
    target: float,
    lo: float,
    hi: float,
    abs_tol: float,
) -> float:
    # the smallest x in [lo, hi] with fn(x) >= target, for increasing fn that
    # returns (value, slope), by Newton steps from hi.  hi is an answer the
    # caller already trusts: it is returned as it is when fn(hi) falls short
    # of the target, and the answer never exceeds it.  fn(lo) is evaluated
    # only when a step reaches lo.  A step that leaves the bracket [lo, hi] or
    # fails to halve the step before it is replaced by bisection.  Every
    # Newton estimate is moved up by abs_tol / 16, so that an estimate exact
    # to rounding reaches the target and the search ends there.  Stops at a
    # point that reaches the target once the Newton correction there is at
    # most abs_tol or lost in rounding, or once the bracket is no wider than
    # abs_tol
    if not lo < hi:
        return hi
    x = hi
    value, slope = fn(x)
    if not value >= target:
        return hi
    lo_known = False  # fn(lo) < target has been seen
    last = math.inf  # length of the previous step
    for _ in range(ScalarSearchConfig.max_iters):
        step = (value - target) / slope if slope > 0.0 else math.nan
        if value >= target and (step <= abs_tol or x - step == x):
            return x
        if lo_known and hi - lo <= abs_tol:
            return hi
        nxt = x - step + abs_tol / 16.0
        if nxt <= lo and not lo_known:
            nxt = lo
        elif not (lo < nxt < hi and abs(step) <= 0.5 * last):
            nxt = 0.5 * (lo + hi)
            if not lo < nxt < hi:
                return hi  # adjacent floats
        last = abs(nxt - x)
        x = nxt
        value, slope = fn(x)
        if value >= target:
            if x == lo:
                return lo
            hi = x
        else:
            lo, lo_known = x, True
    return hi
