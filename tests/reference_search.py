"""A derivative-free reference minimizer for the tests.

minimize_unimodal is the search the library used for every minimum before
its Newton solves on the objective's slope replaced it; the tests keep it
as the reference those solves are checked against.  Its contract is an
objective unimodal on the interval.  A coarse scan of COARSE_GRID points
brackets the minimizer first: the best grid point and its two neighbours
bracket the minimum of such an objective.  Brent's method (R. P. Brent,
Algorithms for Minimization without Derivatives, 1973) then refines the
bracket: parabolic steps through the three best points, with a
golden-section step wherever a parabola would leave the bracket or stall,
so an objective smooth at its minimum takes a handful of steps.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

from rdpopt.errors import DomainError, InfeasibleError
from rdpopt.optimize import DEFAULT_ABS_TOL, MAX_STEPS

COARSE_GRID = 8  # points of the scan that brackets the minimum
_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0  # Brent's fallback step, a share of the larger side
_EPS = sys.float_info.epsilon


def minimize_unimodal(
    objective: Callable[[float], float],
    lo: float,
    hi: float,
    abs_tol: float = DEFAULT_ABS_TOL,
) -> tuple[float, float]:
    """Minimize over the open interval (lo, hi), to abs_tol in the argument.

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

    n = COARSE_GRID
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
    for _ in range(MAX_STEPS):
        mid = 0.5 * (left + right)
        tol = 0.25 * abs_tol + _EPS * abs(x)
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
