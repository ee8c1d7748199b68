"""Derivative-free scalar minimization and monotone inversion.

Every quantity in this package reduces to a one-dimensional minimization
over an open interval, or to inverting a monotone map built from such a
minimization.  minimize_unimodal's contract is an objective unimodal on
the interval.  A coarse scan of 8 points brackets the minimizer first:
the best grid point and its two neighbours bracket the minimum of such an
objective, so a larger grid buys nothing, and every search scans 8
points.  Two objectives are proved unimodal: the frontier objective of
conversion.gamma_exact is the log of a sum of two convex perspectives
(see there), and the moment piece of the closed-form conversion is convex
in the order (see gaussian._min_over_orders).  The accountant minimizes
the smaller of two pieces by scanning each piece on its own, since the
minimum of a minimum is the smaller of the two minima.  Its chi piece and
the two pieces it inverts for a budget are unimodal only as sampled: on
thousands of random inputs none rises before its sampled minimum or
falls after it beyond rounding.  The exact accountant's rate has no proof
either; its scan of all orders is tested against a 256-order sample.
Brent's method (R. P. Brent, Algorithms for Minimization without
Derivatives, 1973) then refines the bracket: parabolic steps through
the three best points, with a golden-section step wherever a parabola
would leave the bracket or stall.  On objectives smooth at their minimum
that takes a handful of steps, where golden section alone took about 38.
Inversion takes the map's slope with its value (for a minimum, from the
envelope theorem) and runs Newton steps from a trusted upper end, keeping
a bracket around the crossing and falling back to bisection whenever a
step leaves the bracket or fails to halve the step before it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, ClassVar

from .errors import DomainError, InfeasibleError, _check_positive

_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0  # Brent's fallback step, a share of the larger side
_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class ScalarSearchConfig:
    """The tolerance of a scalar search.

    abs_tol is an absolute tolerance on the argument, not the value: the
    search stops once its bracket is no wider.  The argument is whatever the
    caller searches in: log(p - delta) for the frontier in gamma_exact, so
    there abs_tol is a relative tolerance on p - delta, and log(alpha - 1)
    for the accountant's order scans.  The grid size and the iteration cap
    are the same for every search.
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
