"""Newton inversion, stable log-add, and the tests' reference minimizer."""

import math
import random

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdpopt import conversion, gaussian
from rdpopt.conversion import delta_bound, delta_exact, epsilon_bound, epsilon_exact, gamma_exact
from rdpopt.errors import AccountingError, DomainError, InfeasibleError
from rdpopt.gaussian import acct_epsilon, rho_gaussian
from rdpopt.optimize import DEFAULT_ABS_TOL, MAX_STEPS, _newton_invert, log_add

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


def _returns_its_last_point_that_met(fn, target, lo, hi, abs_tol, start):
    # runs the search, recording every evaluation, and checks its answer: the
    # last point evaluated whose value met the target, a flat start apart
    # (the first point, below hi, meeting it exactly with a 0.0 slope), or
    # hi unchanged if none did.  Callers read what fn found at the answer
    # off that last evaluation
    seen = []

    def recorded(x):
        value, slope = fn(x)
        seen.append((x, value, slope))
        return value, slope

    x = _newton_invert(recorded, target, lo, hi, abs_tol, start=start)
    met = [
        point
        for i, (point, value, slope) in enumerate(seen)
        if value >= target and not (i == 0 and value == target and slope == 0.0 and point < hi)
    ]
    assert x == (met[-1] if met else hi), (target, lo, hi, start, x, seen)
    return len(seen)


def test_search_returns_its_last_point_that_met_the_target():
    # seeded increasing cubics, with slopes off by a factor to force
    # bisections and targets on both sides of the bracket's values, and the
    # two frontier inversions as epsilon_exact and delta_exact run them,
    # each from hi or, half the time, from a start inside the bracket; and
    # flat starts, which meet the target but are not answers
    rng = random.Random(47)
    start_in = lambda lo, hi: None if rng.random() < 0.5 else lo + rng.random() * (hi - lo)
    evals = 0
    for _ in range(1000):
        c, scale = rng.uniform(0.1, 5.0), rng.choice((1.0, 0.3, 3.0))
        lo, hi = -rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0)
        fn = lambda x: (x**3 + c * x, scale * (3.0 * x * x + c))
        target = rng.uniform(fn(lo)[0] - 1.0, fn(hi)[0] + 1.0)
        evals += _returns_its_last_point_that_met(fn, target, lo, hi, 1e-10, start_in(lo, hi))
    for _ in range(500):
        alpha = 1.0 + 10.0 ** rng.uniform(-3.0, 2.0)
        delta = 10.0 ** rng.uniform(-12.0, math.log10(0.5))
        gamma = 10.0 ** rng.uniform(-3.0, 1.0)
        bound = conversion._epsilon_bound(alpha, gamma, delta)[0]

        def in_eps(e):
            gamma_e, state = conversion._frontier(alpha, e, delta)
            return gamma_e, conversion._envelope(alpha, e, delta, state)[0]

        evals += _returns_its_last_point_that_met(in_eps, gamma, 0.0, bound, DEFAULT_ABS_TOL, start_in(0.0, bound))
    for _ in range(500):
        alpha = 1.0 + 10.0 ** rng.uniform(-3.0, 2.0)
        eps = rng.uniform(0.0, 5.0)
        gamma = 10.0 ** rng.uniform(-3.0, 1.0)
        hi = min(conversion._delta_bound(alpha, gamma, eps)[0], 1.0 - 1e-12)

        def in_delta(d):
            gamma_d, state = conversion._frontier(alpha, eps, d)
            return gamma_d, conversion._envelope(alpha, eps, d, state)[1]

        evals += _returns_its_last_point_that_met(in_delta, gamma, 0.0, hi, DEFAULT_ABS_TOL * hi, start_in(0.0, hi))
    flat = lambda x: (x - 1.0, 1.0) if x > 1.0 else (0.0, 0.0)
    for start in (0.0, 0.5, 0.999):
        evals += _returns_its_last_point_that_met(flat, 0.0, 0.0, 4.0, 1e-10, start)
    assert evals >= 4000


@given(
    a=st.floats(min_value=-700.0, max_value=700.0),
    b=st.floats(min_value=-700.0, max_value=700.0),
)
@settings(max_examples=300, deadline=None)
def test_log_add_matches_arbitrary_precision(a, b):
    with mp.workdps(40):
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
    # below gamma here: five steps crept up by the shift alone before any
    # guard; the second such move fails to halve the one before and bisects
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
    # returned hi.  The second such move fails to halve the one before, and
    # bisection crosses even 1e8 tolerances in few steps
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


def test_wide_bracket_search_finds_its_crossing_within_the_cap():
    # a slope that is never a number makes every step bisect.  Arithmetic
    # halving of [0, 1e308] to a tolerance of one subnormal takes about 2 100
    # steps, and the search returned the upper end it kept at the cap,
    # 1.2446030555722284e+248.  Halving at the geometric middle takes 6
    # steps to a bracket within 2^64 tolerances, and arithmetic halving 33
    # more.  Every point meets the target, so the crossing is 0
    evals = [0]

    def fn(x):
        evals[0] += 1
        return 1.0, math.nan

    assert _newton_invert(fn, 0.0, 0.0, 1e308, 5e-324) == 0.0
    assert evals[0] == 41 < MAX_STEPS
    evals[0] = 0

    def shifted(x):
        evals[0] += 1
        return x - 3e-200, math.nan

    x = _newton_invert(shifted, 0.0, 0.0, 1e308, 1e-210)
    assert 3e-200 <= x <= 3e-200 + 1e-210, x
    assert evals[0] == 60 < MAX_STEPS


def test_search_raises_at_its_evaluation_cap():
    # a bracket with a negative end is halved arithmetically, and
    # [-1e300, 1e300] at a tolerance of one subnormal, around a crossing at
    # 0, is not closed in MAX_STEPS halvings: the search says so instead of
    # returning an end
    evals = [0]

    def fn(x):
        evals[0] += 1
        return x, math.nan

    with pytest.raises(AccountingError, match=r"200 evaluations: bracket \[-.*, 0\.0\], tolerance 5e-324"):
        _newton_invert(fn, 0.0, -1e300, 1e300, 5e-324)
    assert evals[0] == MAX_STEPS == 200


def test_bisection_middle_survives_an_overflowing_sum():
    # [-1e308, 1e308] with NaN slopes is halved arithmetically towards lo.
    # Once both ends pass -DBL_MAX/2 their sum overflows to -inf, and the
    # search read that as adjacent floats and returned -8.75e307 after 5
    # evaluations.  Every point meets the target, so the crossing is lo; at
    # a tolerance below the floats' spacing there, 2e292, the search ends on
    # adjacent floats, one float above it
    evals = [0]

    def fn(x):
        evals[0] += 1
        return 1.0, math.nan

    assert _newton_invert(fn, 0.0, -1e308, 1e308, 1e300) == -1e308
    assert evals[0] == 30
    evals[0] = 0
    assert _newton_invert(fn, 0.0, -1e308, 1e308, 5e-324) == math.nextafter(-1e308, 0.0)
    assert evals[0] == 54


def test_invert_stops_where_the_correction_is_lost_in_rounding():
    # a slope overstated fourfold gives, one float above the crossing near
    # 1.2e7 (floats 1.9e-9 apart), a Newton correction of 4.7e-10: above
    # abs_tol = 1e-10, yet x minus it rounds back to x.  The search stops
    # there after one evaluation; without that stop it bisected down to the
    # adjacent floats, 37 evaluations in all.  From hi it takes 45
    x0 = 12060724.1
    for start, want, n_evals in ((math.nextafter(x0, math.inf), math.nextafter(x0, math.inf), 1),
                                 (None, math.nextafter(x0, math.inf), 45)):
        evals = [0]

        def fn(x):
            evals[0] += 1
            return x - x0, 4.0

        assert _newton_invert(fn, 0.0, 12060724.0, 12060725.0, 1e-10, start=start) == want
        assert evals[0] == n_evals, (start, evals[0])


def test_no_package_search_comes_near_its_cap(monkeypatch):
    # every search the package runs, each counted on its own (an inversion's
    # frontier solves are searches of their own), on extreme inputs: alpha - 1
    # log-uniform in [1e-9, 1e3], delta in [1e-300, 0.5], eps 0 or in
    # [1e-6, 50], gamma in [1e-14, 30]; exact accounting and the largest rate
    # at sigma 0.5-30, T 1-1e5, delta 1e-12-0.5, budgets eps 0.1-10.  At most
    # 90 evaluations were measured over about 950 000 such searches, 87 over
    # the 50 000 here (the soundness checks' frontier solves included), far
    # below MAX_STEPS
    counts = []

    def counted(fn, *args, **kwargs):
        n = [0]

        def fn_counted(x):
            n[0] += 1
            return fn(x)

        try:
            return _newton_invert(fn_counted, *args, **kwargs)
        finally:
            counts.append(n[0])

    monkeypatch.setattr(conversion, "_newton_invert", counted)
    monkeypatch.setattr(gaussian, "_newton_invert", counted)
    rng = random.Random(38)
    for _ in range(1200):
        alpha = 1.0 + 10.0 ** rng.uniform(-9.0, 3.0)
        delta = 10.0 ** rng.uniform(-300.0, math.log10(0.5))
        eps = 0.0 if rng.random() < 0.5 else 10.0 ** rng.uniform(-6.0, math.log10(50.0))
        gamma = 10.0 ** rng.uniform(-14.0, math.log10(30.0))
        gamma_exact(alpha, eps, delta)
        e = epsilon_exact(alpha, gamma, delta).value
        # each answer reaches gamma, or is the closed-form start the search
        # returns as it is where the frontier there falls short by rounding
        assert gamma_exact(alpha, e, delta).value >= gamma or e == epsilon_bound(alpha, gamma, delta).value, (alpha, gamma, delta, e)
        delta_bound(alpha, gamma, eps)
        try:
            d = delta_exact(alpha, gamma, eps).value
        except InfeasibleError:
            continue
        top = min(delta_bound(alpha, gamma, eps).value, 1.0 - 1e-12)
        assert gamma_exact(alpha, eps, d).value >= gamma or d == top, (alpha, gamma, eps, d)
    for _ in range(40):
        sigma, T = rng.uniform(0.5, 30.0), round(10.0 ** rng.uniform(0.0, 5.0))
        delta = 10.0 ** rng.uniform(-12.0, math.log10(0.5))
        acct_epsilon(rho_gaussian(sigma), T, delta, "exact")
        for mode in ("closed_form", "exact"):
            gaussian._largest_rate(10.0 ** rng.uniform(-1.0, 1.0), delta, mode)
    assert len(counts) > 40000
    assert max(counts) <= 100 < MAX_STEPS, max(counts)
