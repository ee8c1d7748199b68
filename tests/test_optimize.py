"""Scalar minimization, Newton inversion, and stable log-add."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdpopt.conversion import delta_exact, epsilon_exact, gamma_exact
from rdpopt.errors import DomainError, InfeasibleError
from rdpopt.optimize import ScalarSearchConfig, _newton_invert, log_add, minimize_unimodal

from conftest import bisect_reference


def test_config_validation():
    with pytest.raises(DomainError):
        ScalarSearchConfig(abs_tol=0.0)
    with pytest.raises(TypeError):  # the grid is a constant, not a field
        ScalarSearchConfig(coarse_grid=64)


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
    n = ScalarSearchConfig.coarse_grid
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


def test_minimize_smooth_bowl_takes_few_steps():
    # parabolic steps converge where golden section shrinks the bracket by a
    # fixed 0.618 per step, which took 33 to 44 evaluations after the coarse grid
    c = math.pi / 3.0
    for cfg in (ScalarSearchConfig(), ScalarSearchConfig(abs_tol=1e-9), ScalarSearchConfig(abs_tol=1e-6)):
        evals = 0

        def bowl(x):
            nonlocal evals
            evals += 1
            return (x - c) ** 2 * (2.0 + math.sin(x))

        x, v = minimize_unimodal(bowl, -2.0, 5.0, cfg)
        assert abs(x - c) <= cfg.abs_tol
        assert evals <= cfg.coarse_grid + 20, (cfg, evals)


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
