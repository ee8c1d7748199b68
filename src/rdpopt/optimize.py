"""Scalar minimization and monotone inversion.

Every quantity in this package reduces to a one-dimensional minimization
over an open interval, or to inverting a monotone map built from such a
minimization.  Inversion takes the map's slope with its value (for a
minimum, from the envelope theorem) and runs Newton steps from a start in
a bracket whose upper end is trusted, keeping a bracket around the
crossing and falling back to bisection whenever a step leaves the bracket
or fails to halve the step before it.  Every minimum is found by the same
inversion, as the crossing of the objective's slope with 0.  The frontier
of conversion.gamma_exact: its objective is the log of a sum of two convex
perspectives (see there), so its slope crosses 0 once.  The accountant's
minima over the order (see gaussian._solve_orders): each piece of the
closed-form conversion, and each piece it inverts for a budget, comes with
its slope and curvature in log(alpha - 1), and so does exact mode's rate
gamma_exact/alpha, from the envelope and implicit-function theorems at the
frontier's argmin.  The closed-form moment piece is proved convex in the
order; the others are unimodal only as sampled: on thousands of random
inputs none rises before its sampled minimum or falls after it beyond
rounding.

minimize_unimodal needs no derivative: its contract is an objective
unimodal on the interval.  No library path calls it; the tests keep it as
the reference minimizer that the Newton solves replaced.  A coarse scan of
8 points brackets the minimizer first: the best grid point and its two
neighbours bracket the minimum of such an objective.  Brent's method
(R. P. Brent, Algorithms for Minimization without Derivatives, 1973) then
refines the bracket: parabolic steps through the three best points, with a
golden-section step wherever a parabola would leave the bracket or stall,
so an objective smooth at its minimum takes a handful of steps.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, ClassVar, Optional

from .errors import DomainError, InfeasibleError, _check_positive

_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0  # Brent's fallback step, a share of the larger side
_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class ScalarSearchConfig:
    """The tolerance of a scalar search.

    abs_tol is an absolute tolerance on the argument, not the value: a scan
    stops once its bracket is no wider, and a Newton search once its
    Newton step or its bracket is no wider.  The argument is whatever the
    caller searches in: log(p - delta) for the frontier in gamma_exact, so
    there abs_tol is a relative tolerance on p - delta, and log(alpha - 1)
    for the accountant's order solves.  The grid size of minimize_unimodal's
    scans and the iteration cap are the same for every search.
    """

    abs_tol: float = 1e-10
    coarse_grid: ClassVar[int] = 8  # points of the scan that brackets the minimum
    max_iters: ClassVar[int] = 200  # every search stops after as many iterations

    def __post_init__(self):
        _check_positive(self.abs_tol, "abs_tol")


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

    n = cfg.coarse_grid
    step = (b - a) / (n - 1)
    grid = [objective(a + i * step) for i in range(n)]
    grid = [v if v == v else math.inf for v in grid]  # NaN counts as infinite
    fx = min(grid)
    if not fx < math.inf:
        raise InfeasibleError("objective is non-finite everywhere on the coarse grid")
    i = grid.index(fx)

    # Brent's minimizer on the bracket [left, right] of grid points around the
    # best one: x is the best point so far, w the second best, v the point w
    # held before it; each step fits a parabola through them and takes its
    # vertex when that lies inside the bracket and moves less than half the
    # step before last, and a golden-section step into the larger side of the
    # bracket otherwise.  A step never comes closer than tol to x, so the
    # bracket shrinks on both sides; it stops once no wider than abs_tol
    x = a + i * step
    left, right = a + max(i - 1, 0) * step, a + min(i + 1, n - 1) * step
    w, fw = (left, grid[i - 1]) if i == n - 1 else (right, grid[i + 1])
    v, fv = (left, grid[i - 1]) if 0 < i < n - 1 else (w, fw)
    if fv < fw:
        v, fv, w, fw = w, fw, v, fv
    d = e = right - left
    for _ in range(cfg.max_iters):
        mid = 0.5 * (left + right)
        tol = 0.25 * cfg.abs_tol + _EPS * abs(x)
        if right - left <= 4.0 * tol:
            break
        r = (x - w) * (fx - fv)
        q = (x - v) * (fx - fw)
        p = (x - v) * q - (x - w) * r
        q = 2.0 * (q - r)
        if q > 0.0:
            p = -p
        q = abs(q)
        e_prev, e = e, d
        if abs(p) < abs(0.5 * q * e_prev) and q * (left - x) < p < q * (right - x):
            d = p / q  # parabolic step; a NaN from an infinite value fails the test above
            if min(x + d - left, right - x - d) < 2.0 * tol:
                d = tol if x < mid else -tol
        else:
            e = (left if x >= mid else right) - x
            d = _GOLDEN * e
        u = x + (d if abs(d) >= tol else (tol if d > 0.0 else -tol))
        fu = objective(u)
        if fu != fu:
            fu = math.inf
        if fu <= fx:
            if u >= x:
                left = x
            else:
                right = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                left = u
            else:
                right = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx


def _newton_invert(
    fn: Callable[[float], tuple[float, float]],
    target: float,
    lo: float,
    hi: float,
    abs_tol: float,
    start: Optional[float] = None,
) -> float:
    # the smallest x in [lo, hi] with fn(x) >= target, for fn that returns
    # (value, slope) and crosses the target once, upwards, by Newton steps
    # from start (hi by default).  hi is an answer the caller already trusts:
    # it is returned as it is when fn(hi) falls short of the target, and the
    # answer never exceeds it.  fn(lo) is evaluated only at the start, when a
    # step reaches lo, or once the bracket is no wider than abs_tol, where lo
    # is returned if it reaches the target and hi otherwise.  A step that
    # leaves the bracket [lo, hi], has no finite positive slope or fails to
    # halve the step before it is replaced by bisection.  Every Newton
    # estimate is moved up by abs_tol / 16, so that an estimate exact to
    # rounding reaches the target and the search ends there.  Stops at a point
    # that reaches the target once the Newton correction there is at most
    # abs_tol or lost in rounding, or once the bracket is no wider than abs_tol
    if not lo < hi:
        return hi
    x = hi if start is None else start
    lo_known = False  # fn(lo) < target has been seen
    last = math.inf  # length of the previous step
    for _ in range(ScalarSearchConfig.max_iters):
        value, slope = fn(x)
        if value >= target:
            if x == lo:
                return lo
            hi = x
        elif x == hi:
            return hi
        else:
            lo, lo_known = x, True
        step = (value - target) / slope if 0.0 < slope < math.inf else math.nan
        if value >= target and (step <= abs_tol or x - step == x):
            return x
        if hi - lo <= abs_tol:
            if lo_known:
                return hi
            nxt = lo
        else:
            nxt = x - step + abs_tol / 16.0
            if nxt <= lo and not lo_known:
                nxt = lo
            elif not (lo < nxt < hi and abs(step) <= 0.5 * last):
                nxt = 0.5 * (lo + hi)
                if not lo < nxt < hi:
                    return hi  # adjacent floats
        last = abs(nxt - x)
        x = nxt
    return hi
