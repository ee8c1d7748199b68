"""Newton inversion, stable log-add, and the tests' reference minimizer."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdpopt import conversion
from rdpopt.conversion import delta_bound, delta_exact, epsilon_exact, gamma_exact
from rdpopt.errors import DomainError, InfeasibleError
from rdpopt.optimize import MAX_STEPS, _newton_invert, log_add

from conftest import bisect_reference
from reference_search import COARSE_GRID, minimize_unimodal


def test_minimize_quadratic():
    x, v = minimize_unimodal(lambda x: (x - 2.0) ** 2, 0.0, 5.0)
    assert abs(x - 2.0) <= 1e-8
    assert v <= 1e-16


def test_minimize_am_gm():
    x, v = minimize_unimodal(lambda x: x + 1.0 / x, 0.01, 10.0)
    assert abs(x - 1.0) <= 1e-7
    assert math.isclose(v, 2.0, rel_tol=1e-13)


def test_minimize_never_exceeds_best_coarse_sample():
    lo, hi = 0.3, 7.0
    fn = lambda x: math.sin(5.0 * x) + 0.1 * x  # wiggly; coarse scan picks the basin
    _, v = minimize_unimodal(fn, lo, hi)
    eta = max(1e-12, 1e-12 * (hi - lo))
    a, b = lo + eta, hi - eta
    n = COARSE_GRID
    samples = [fn(a + i * (b - a) / (n - 1)) for i in range(n)]
    assert v <= min(samples) + 1e-15


def test_minimize_frontier_objective_matches_dense_grid():
    # independent 1e6-point scan of the one-dimensional reduction
    alpha, eps, delta = 2.0, 1.0, 0.1
    p = np.linspace(delta + 1e-9, 1.0 - 1e-9, 1_000_001)
    inner = p**alpha * (p - delta) ** (1 - alpha) + (1 - p) ** alpha * (
        math.exp(eps) - p + delta
    ) ** (1 - alpha)
    grid_gamma = eps + math.log(inner.min()) / (alpha - 1.0)
    assert abs(gamma_exact(alpha, eps, delta).value - grid_gamma) <= 1e-6


def test_minimize_skips_nan_and_reports_infeasible():
    x, v = minimize_unimodal(lambda x: math.nan if x < 2.0 else (x - 3.0) ** 2, 0.0, 5.0)
    assert abs(x - 3.0) <= 1e-8
    with pytest.raises(InfeasibleError):
        minimize_unimodal(lambda x: math.nan, 0.0, 1.0)


def test_minimize_skips_nan_met_only_during_refinement():
    # the 8 grid points of (0, 7) lie near the integers, all outside the NaN
    # stretch, so only the refining steps meet it; they must treat it as
    # infinite and stop at its edge, not report NaN or step into it
    fn = lambda x: math.nan if 3.2 < x < 3.8 else (x - 3.5) ** 2
    x, v = minimize_unimodal(fn, 0.0, 7.0)
    assert not 3.2 < x < 3.8
    assert v == fn(x)
    assert math.isclose(v, 0.09, rel_tol=1e-8)


def test_minimize_smooth_bowl_takes_few_steps():
    # parabolic steps converge where golden section shrinks the bracket by a
    # fixed 0.618 per step, which took 33 to 44 evaluations after the coarse grid
    c = math.pi / 3.0
    for abs_tol in (1e-10, 1e-9, 1e-6):
        evals = 0

        def bowl(x):
            nonlocal evals
            evals += 1
            return (x - c) ** 2 * (2.0 + math.sin(x))

        x, v = minimize_unimodal(bowl, -2.0, 5.0, abs_tol)
        assert abs(x - c) <= abs_tol
        assert evals <= COARSE_GRID + 20, (abs_tol, evals)


def test_minimize_degenerate_interval():
    x, v = minimize_unimodal(lambda x: x * x, 0.0, 1e-13)
    assert abs(x - 5e-14) <= 1e-13


def test_minimize_domain_error():
    with pytest.raises(DomainError):
        minimize_unimodal(lambda x: x, 1.0, 1.0)
    with pytest.raises(DomainError):
        minimize_unimodal(lambda x: x, 0.0, math.inf)


def test_invert_exp():
    x = _newton_invert(lambda t: (math.exp(t), math.exp(t)), 1.0, -5.0, 5.0, 1e-10)
    assert abs(x) <= 1e-9


def test_invert_cube():
    x = _newton_invert(lambda t: (t**3, 3.0 * t * t), 8.0, 0.0, 10.0, 1e-10)
    assert abs(x - 2.0) <= 1e-9


def test_invert_frontier_round_trip():
    d = delta_exact(2.0, 0.3, 1.0).value
    assert 0.3 <= gamma_exact(2.0, 1.0, d).value <= 0.3 + 1e-8


def test_invert_flat_segment_leftmost_crossing():
    # a slope of 0 gives no Newton step, so every step is a bisection
    fn = lambda x: 0.0 if x < 0.5 else 1.0
    x = _newton_invert(lambda t: (fn(t), 0.0), 1.0, 0.0, 1.0, 1e-10)
    assert abs(x - 0.5) <= 1e-9
    assert fn(x) >= 1.0


def test_invert_flat_segment_worst_case_steps():
    evals = 0

    def fn(x):
        nonlocal evals
        evals += 1
        return 0.0 if x < 0.5 else 1.0

    x = _newton_invert(lambda t: (fn(t), 0.0), 1.0, 0.0, 1.0, 1e-10)
    assert evals <= 1 + 34  # hi, then ceil(log2(1 / abs_tol)) bisections
    assert abs(x - bisect_reference(fn, 1.0, 0.0, 1.0)) <= 1e-10
    assert fn(x) >= 1.0


def test_invert_stops_at_adjacent_floats():
    # near 1.2e7 floats are 1.9e-9 apart, so a bracket cannot shrink to abs_tol = 1e-9
    x0 = 12060724.1
    evals = 0

    def fn(x):
        nonlocal evals
        evals += 1
        return (0.0 if x < x0 else 1.0), 0.0

    x = _newton_invert(fn, 1.0, 12060724.0, 12060725.0, 1e-9)
    assert x == x0
    assert evals <= 1 + 30  # hi, then ceil(log2(1 / 1e-9)) bisections


def test_invert_from_a_start_inside_the_bracket():
    # from a start below the crossing, hi is trusted and never evaluated; from
    # a start above it, the start is the new upper end.  A start that reaches
    # the target at lo returns lo
    seen = []

    def fn(x):
        seen.append(x)
        return x**3 + x, 3.0 * x * x + 1.0

    for start in (-3.0, -0.5, 0.5, 3.0):
        seen.clear()
        x = _newton_invert(fn, 2.0, -4.0, 4.0, 1e-10, start=start)
        assert 1.0 <= x <= 1.0 + 1e-10 and seen[0] == start and 4.0 not in seen, (start, x)
        assert len(seen) <= 12, (start, seen)
    assert _newton_invert(fn, -10.0, -2.0, 4.0, 1e-10, start=-2.0) == -2.0


def test_invert_evaluates_lo_once_the_bracket_is_inside_tolerance():
    # no slope and a bracket no wider than abs_tol: the lower end decides, and
    # the search stops after it instead of bisecting to the iteration cap
    for target, want in ((0.0, 0.0), (1.0, 1e-12)):
        seen = []

        def fn(x):
            seen.append(x)
            return (0.0 if x == 0.0 else 1.0), 0.0

        assert _newton_invert(fn, target, 0.0, 1e-12, 1e-10) == want
        assert seen == [1e-12, 0.0], seen


def test_invert_reads_a_flat_start_as_below_the_target():
    # a start below hi that meets the target exactly with a 0.0 slope may sit
    # on a stretch flat at the target, not at the crossing: the search goes
    # on toward hi, from lo or from inside the stretch, and finds where fn
    # first rises past the target
    fn = lambda x: (x - 1.0, 1.0) if x > 1.0 else (0.0, 0.0)
    for start in (0.0, 0.5):
        x = _newton_invert(fn, 0.0, 0.0, 4.0, 1e-10, start=start)
        assert 1.0 <= x <= 1.0 + 1e-10, (start, x)


def test_invert_matches_bisection_reference_on_frontier_round_trips():
    for alpha, eps, target in [(2.0, 1.0, 0.3), (2.0, 1.0, 0.05), (10.0, 0.5, 1.2), (40.0, 3.0, 3.5)]:
        fn = lambda t: gamma_exact(alpha, eps, t).value
        d = delta_exact(alpha, target, eps).value
        assert abs(d - bisect_reference(fn, target, 0.0, 1.0 - 1e-12)) <= 1e-10
        assert fn(d) >= target
    for alpha, delta, target in [(2.0, 0.1, 0.5), (5.0, 1e-5, 1.0), (30.0, 0.02, 2.5)]:
        fn = lambda e: gamma_exact(alpha, e, delta).value
        e = epsilon_exact(alpha, target, delta).value
        assert abs(e - bisect_reference(fn, target, 0.0, 20.0)) <= 1e-10
        assert fn(e) >= target


@given(
    a=st.floats(min_value=-700.0, max_value=700.0),
    b=st.floats(min_value=-700.0, max_value=700.0),
)
@settings(max_examples=300, deadline=None)
def test_log_add_matches_arbitrary_precision(a, b):
    mp.mp.dps = 40
    want = float(mp.log(mp.e**mp.mpf(a) + mp.e**mp.mpf(b)))
    assert math.isclose(log_add(a, b), want, rel_tol=1e-12, abs_tol=1e-12)


def test_log_add_special_values():
    assert log_add(-math.inf, 3.5) == 3.5
    assert log_add(3.5, -math.inf) == 3.5
    assert log_add(-math.inf, -math.inf) == -math.inf
    assert log_add(math.inf, 1.0) == math.inf
    assert math.isclose(log_add(math.log(2.0), math.log(3.0)), math.log(5.0), rel_tol=1e-15)
    assert math.isclose(log_add(710.0, 710.0), 710.0 + math.log(2.0), rel_tol=1e-15)


@given(
    c=st.floats(min_value=0.1, max_value=5.0),
    frac=st.floats(min_value=0.0, max_value=1.0),
    scale=st.sampled_from((1.0, 0.3, 3.0)),
)
@settings(max_examples=200, deadline=None)
def test_newton_invert_cubics(c, frac, scale):
    # concave below 0 and convex above, so Newton steps from hi can overshoot;
    # a slope off by a factor exercises the bisection fallback
    fn = lambda x: x**3 + c * x
    lo, hi, evals = -4.0, 4.0, [0]

    def with_slope(x):
        evals[0] += 1
        return fn(x), scale * (3.0 * x * x + c)

    target = fn(lo) + frac * (fn(hi) - fn(lo))
    x = _newton_invert(with_slope, target, lo, hi, 1e-10)
    assert fn(x) >= target
    # a slope 3x too steep shortens the last correction threefold
    assert x <= bisect_reference(fn, target, lo, hi, abs_tol=1e-13) + 3e-10
    assert evals[0] <= (12 if scale == 1.0 else 100)


def test_newton_invert_ends():
    fn = lambda x: (x**3, 3.0 * x * x)
    # hi is returned as it is when it falls short of the target; lo when it reaches it
    assert _newton_invert(fn, 8.0 + 1e-9, 0.0, 2.0, 1e-10) == 2.0
    assert _newton_invert(lambda x: (x + 1.0, 1.0), 0.5, 0.0, 3.0, 1e-10) == 0.0
    assert _newton_invert(fn, 1.0, 2.0, 2.0, 1e-10) == 2.0
    # exact from hi: the root of x^3 = 8 at 2 is reached in a few steps
    evals = [0]

    def counted(x):
        evals[0] += 1
        return fn(x)

    assert 2.0 <= _newton_invert(counted, 8.0, 0.0, 3.0, 1e-10) <= 2.0 + 1e-10
    assert evals[0] <= 8


def _creeping_steps(points, target, abs_tol):
    # moves up from a point below the target by at most twice the abs_tol / 16
    # shift: the Newton correction there was no larger than the shift
    return sum(
        1 for (x, value), (nxt, _) in zip(points, points[1:]) if value < target and 0.0 < nxt - x <= abs_tol / 8.0
    )


def test_invert_stops_creeping_on_the_tangent_piece(monkeypatch):
    # delta_bound inverts the tangent piece, which is flat to rounding 8.6e-13
    # below gamma here: five steps crept up by the shift alone before the
    # guard, which probes half a tolerance up after the second such step
    searches = []

    def traced(fn, target, lo, hi, abs_tol, start=None):
        points = []

        def recorded(x):
            value, slope = fn(x)
            points.append((x, value))
            return value, slope

        searches.append((points, target, abs_tol))
        return _newton_invert(recorded, target, lo, hi, abs_tol, start)

    monkeypatch.setattr(conversion, "_newton_invert", traced)
    got = delta_bound(1.0000011470276182, 0.14845739430987853, 0.13957793111506359).value
    assert len(searches) == 1
    assert _creeping_steps(*searches[0]) <= 2
    assert abs(got - 0.5515897421807668) <= 1e-10  # the answer before the guard


def test_invert_crosses_a_stretch_flat_to_rounding():
    # values 1e-15 below the target: steps moved by the shift alone took 16 a
    # tolerance, so a stretch wider than 12.5 tolerances ran to the cap and
    # returned hi.  The probes double, so even 1e8 tolerances take few steps
    abs_tol, target = 1e-10, 1.0
    for width in (20.0, 1e3, 1e8):
        x0 = 0.5 + width * abs_tol
        points = []

        def fn(x):
            value = target - 1e-15 + max(x - x0, 0.0)
            points.append((x, value))
            return value, 1.0

        x = _newton_invert(fn, target, 0.0, 1.0, abs_tol, start=0.5)
        assert x0 <= x <= x0 + abs_tol, (width, x - x0)
        assert _creeping_steps(points, target, abs_tol) <= 2, width
        assert len(points) <= 60 < MAX_STEPS, (width, len(points))


def test_search_returns_hi_at_its_evaluation_cap():
    # pins the MAX_STEPS exit as it stands: a slope that is never a number
    # makes every step bisect, and a bracket [0, 1e308] with a tolerance of
    # one subnormal is not closed in 200 halvings, so the search returns the
    # upper end it last kept, nowhere near a crossing, and says nothing
    evals = [0]

    def fn(x):
        evals[0] += 1
        return 1.0, math.nan

    assert _newton_invert(fn, 0.0, 0.0, 1e308, 5e-324) == 1.2446030555722284e+248
    assert evals[0] == MAX_STEPS == 200
