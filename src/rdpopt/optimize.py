"""Monotone inversion by bracketed Newton steps, and a stable log-add.

Every quantity in this package reduces to a one-dimensional minimization
over an open interval, or to inverting a monotone map built from such a
minimization.  _newton_invert is the one search for both.  Inversion takes
the map's slope with its value (for a minimum, from the envelope theorem)
and runs Newton steps from a start in a bracket whose upper end is
trusted, keeping a bracket around the crossing and falling back to
bisection whenever a move leaves the bracket or fails to halve the move
before it.  Every minimum is found by the same inversion, as the
crossing of the objective's slope with 0.  The frontier of
conversion.gamma_exact: its objective is the log of a sum of two convex
perspectives (see there), so its slope crosses 0 once.  The accountant's
minima over the order (see gaussian._solve_orders), one solve an answer:
the closed-form conversion's moment piece comes with its slope and
curvature in log(alpha - 1), and the same two, taken at the divergence an
order allows a budget, steer the solve for the largest rate it allows (see
gaussian._rate_piece); exact mode's rate gamma_exact/alpha comes with its
own, from the envelope and implicit-function theorems at the argmin each
frontier solve keeps (conversion._envelope).  The closed-form moment piece
is proved convex in the order; the two rates are unimodal only as sampled:
on thousands of random inputs neither rises before its sampled minimum or
falls after it beyond rounding.  The conversion's chi piece is not solved:
its minimum lies above the moment piece's, as sampled (see
gaussian._epsilon_piece).

A search's tolerance abs_tol is on the argument, not the value, in
whatever the caller searches in: log(p - delta) for the frontier in
gamma_exact, so there it is a relative tolerance on p - delta, and
log(alpha - 1) for the accountant's order solves.

A search that reaches MAX_STEPS evaluations raises AccountingError; none
is known to.  A bisection takes the arithmetic middle, or, for a bracket
from lo >= 0 wider than 2^64 abs_tol, the geometric middle
sqrt(max(lo, abs_tol) hi), which halves log(hi / max(lo, abs_tol)), at most
2 098 bits: 12 such halvings leave a bracket within 2^64 tolerances or a
factor of 2, which 64 arithmetic ones close.  The package's other brackets,
log(p - delta), log(alpha - 1) and [0, 1], close in at most 43 halvings at
1e-10.  So a search that only bisects ends within about 80 evaluations; Newton
moves, kept only while each is at most half the one before, have no bound
beyond that.  The most measured is 90 evaluations, over about 950 000
searches of extreme inputs, which tests/test_optimize.py keeps sampling.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from .errors import AccountingError

DEFAULT_ABS_TOL = 1e-10  # the argument tolerance of every search that is not given one
MAX_STEPS = 200  # a search still open after as many evaluations raises


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
    # is returned if it reaches the target and hi otherwise.  Every Newton
    # estimate is moved up by the shift abs_tol / 16, so that an estimate
    # exact to rounding reaches the target and the search ends there.  A
    # move that leaves the bracket [lo, hi], has no finite positive slope or
    # is more than half the move before it is replaced by bisection.  That
    # one rule also covers a stretch flat to rounding just below the target,
    # where each move would be the shift alone: the second such move fails
    # it.  Stops at a point that reaches the target once the Newton
    # correction there is at most abs_tol or lost in rounding, or once the
    # bracket is no wider than abs_tol; raises AccountingError after MAX_STEPS
    # evaluations.  Wide brackets from lo >= 0 bisect at the geometric middle
    # (see above), unless abs_tol is 0: a relative tolerance that underflowed,
    # on a bracket of subnormals, which 53 arithmetic halvings close.  Other
    # brackets bisect at the arithmetic middle, halving each end first only
    # where their sum overflows.
    # A start below hi that meets the target exactly with a 0.0 slope is read
    # as below it, and the search goes on towards hi: fn may be flat at the
    # target there, as a rate that rounds to 0 is, rather than crossing it
    if not lo < hi:
        return hi
    x = hi if start is None else start
    lo_known = False  # fn(lo) < target has been seen, or lo is such a start
    last = math.inf  # length of the previous move
    shift = abs_tol / 16.0
    for i in range(MAX_STEPS):
        value, slope = fn(x)
        flat_start = i == 0 and value == target and slope == 0.0 and x < hi
        if value >= target and not flat_start:
            if x == lo:
                return lo
            hi = x
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
            nxt = x - step + shift
            if nxt <= lo and not lo_known:
                nxt = lo
            elif not (lo < nxt < hi and abs(nxt - x) <= 0.5 * last):
                wide = 0.0 <= lo and 0.0 < abs_tol * 2.0**64 < hi - lo
                nxt = math.sqrt(max(lo, abs_tol)) * math.sqrt(hi) if wide else 0.5 * (lo + hi)
                if math.isinf(nxt):
                    nxt = 0.5 * lo + 0.5 * hi
                if not lo < nxt < hi:
                    return hi  # adjacent floats
        last = abs(nxt - x)
        x = nxt
    raise AccountingError(
        f"search found no crossing in {MAX_STEPS} evaluations: bracket [{lo!r}, {hi!r}], tolerance {abs_tol!r}"
    )
