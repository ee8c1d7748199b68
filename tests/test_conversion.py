"""Frontier computation and its closed-form companions.

Frozen reference values were produced with a 50-digit mpmath evaluation of
the defining formulas (independent of this package's code paths).
"""

import math

import mpmath
import numpy as np
import pytest

from rdpopt import conversion, oracle
from rdpopt.conversion import (
    _envelope,
    _f_lower_bound,
    _frontier,
    _objective,
    balle_epsilon,
    baseline_delta,
    baseline_epsilon,
    boundary_objective,
    delta_bound,
    delta_exact,
    epsilon_bound,
    epsilon_exact,
    gamma_bound,
    gamma_exact,
    log_zeta,
    zero_epsilon_region,
)
from rdpopt.errors import DomainError, InfeasibleError
from rdpopt.optimize import DEFAULT_ABS_TOL, _newton_invert, log_add

from conftest import sample_small_delta_triples, sample_triples
from reference_search import minimize_unimodal


def test_zeta_alpha():
    assert math.isclose(math.exp(log_zeta(2.0)), 0.25, rel_tol=1e-14)
    for alpha in (1.5, 2.0, 10.0, 200.0):
        zeta = math.exp(log_zeta(alpha))
        assert 1.0 / (math.e * alpha) < zeta < 1.0 / alpha


def test_boundary_objective_values():
    assert abs(boundary_objective(0.5, 2.0, 0.0, 0.0)) <= 1e-15  # log(0.5 + 0.5)
    # log(0.25/0.4 + 0.25/(e - 0.4)), 50-digit reference
    assert math.isclose(boundary_objective(0.5, 2.0, 1.0, 0.1), -0.3108299493693852, abs_tol=1e-12)


def test_boundary_objective_domain():
    with pytest.raises(DomainError):
        boundary_objective(0.05, 2.0, 1.0, 0.1)  # p <= delta
    with pytest.raises(DomainError):
        boundary_objective(1.0, 2.0, 1.0, 0.1)
    with pytest.raises(DomainError):
        boundary_objective(0.5, 1.0, 1.0, 0.1)


def _objective_reference(t, alpha, epsilon, delta):
    # the objective at t = log(p - delta) written out in full at each
    # evaluation, the reference for _objective
    s = math.exp(t)
    head = t + alpha * math.log1p(delta / s)
    log_rest = epsilon + math.log1p(-s * math.exp(-epsilon))
    tail = alpha * (math.log1p(-delta) + math.log1p(-s / (1.0 - delta))) + (1.0 - alpha) * log_rest
    return log_add(head, tail)


def test_hoisted_objective_is_bit_identical():
    for alpha, eps, delta in [(2.0, 1.0, 0.1), (1.5, 0.0, 0.3), (5.0, 0.5, 1e-6), (30.0, 2.0, 0.02), (49.0, 4.8, 0.49)]:
        objective = _objective(alpha, eps, delta)
        for p in np.linspace(delta, 1.0, 257)[1:-1].tolist():
            t = math.log(p - delta)
            want = _objective_reference(t, alpha, eps, delta)
            assert objective(t)[0] == want
            assert boundary_objective(p, alpha, eps, delta) == want
    assert gamma_exact(2.0, 1.0, 0.1).value == 0.5465668663746012


def test_exact_inversions_solve_few_frontiers(rng, monkeypatch):
    # each inversion starts from a closed form and takes Newton steps; a
    # bisection to the same tolerance costs about 38 frontier solves an answer.
    # Where the tail bound certifies the moment piece none runs, and the answer
    # is the closed-form bound, which reaches gamma
    solves = 0
    real = conversion._frontier

    def counted(*args):
        nonlocal solves
        solves += 1
        return real(*args)

    monkeypatch.setattr(conversion, "_frontier", counted)
    eps_solves, delta_solves, unsolved = [], [], []
    for alpha, gamma, delta in sample_small_delta_triples(rng, 40):
        solves = 0
        e = epsilon_exact(alpha, gamma, delta).value
        eps_solves.append(solves)
        if not solves:
            unsolved.append((alpha, gamma, e, delta, e == epsilon_bound(alpha, gamma, delta).value))
    for alpha, eps, delta in sample_triples(rng, 40):
        gamma = gamma_exact(alpha, eps, delta).value
        solves = 0
        e = epsilon_exact(alpha, gamma, delta).value
        eps_solves.append(solves)
        if not solves:
            unsolved.append((alpha, gamma, e, delta, e == epsilon_bound(alpha, gamma, delta).value))
        solves = 0
        d = delta_exact(alpha, gamma, eps).value
        delta_solves.append(solves)
        if not solves:
            unsolved.append((alpha, gamma, eps, d, d == delta_bound(alpha, gamma, eps).value))
    # both take Newton steps from their closed-form bound (epsilon_exact about
    # 0.7 solves an answer here, none on 38 of 80, 4.7 with secant steps;
    # delta_exact about 1.05, none on 6 of 40, 4.0 with secant steps)
    assert unsolved
    for alpha, gamma, eps, delta, at_bound in unsolved:
        assert at_bound and gamma_exact(alpha, eps, delta).value >= gamma, (alpha, gamma, eps, delta)
    assert sum(eps_solves) / len(eps_solves) <= 3.0
    assert sum(delta_solves) / len(delta_solves) <= 3.0


def _inversion_inputs(rng, n):
    # n (alpha, gamma, delta) for epsilon_exact and n (alpha, gamma, eps) for
    # delta_exact from the exact workload's ranges (alpha in (1, 50], gamma
    # and eps in [0, 5], delta below min(0.5, 0.999/alpha)), and as many from
    # the extreme ranges of tests/test_optimize.py: alpha - 1 in [1e-9, 1e3],
    # delta in [1e-300, 0.5], eps 0 or in [1e-6, 50], gamma in [1e-14, 30]
    eps_args, delta_args = [], []
    for _ in range(n):
        alpha = 1.0 + 49.0 * max(rng.uniform(), 1e-6)
        delta = (1e-8 + (1.0 - 1e-8) * rng.uniform()) * min(0.5, 0.999 / alpha)
        eps_args.append((alpha, 5.0 * rng.uniform(), delta))
        delta_args.append((1.0 + 49.0 * max(rng.uniform(), 1e-6), 5.0 * rng.uniform(), 5.0 * rng.uniform()))
        alpha = 1.0 + 10.0 ** rng.uniform(-9.0, 3.0)
        delta = 10.0 ** rng.uniform(-300.0, math.log10(0.5))
        eps = 0.0 if rng.uniform() < 0.5 else 10.0 ** rng.uniform(-6.0, math.log10(50.0))
        gamma = 10.0 ** rng.uniform(-14.0, math.log10(30.0))
        eps_args.append((alpha, gamma, delta))
        delta_args.append((alpha, gamma, eps))
    return eps_args, delta_args


def test_tail_certificate_changes_no_answer(monkeypatch):
    # where the tail bound certifies the moment piece, epsilon_exact and
    # delta_exact return their closed-form bound with no frontier solve: the
    # answer the search would have stopped at on its first point.  With the
    # certificate never holding they solve as before and give the same bits
    eps_args, delta_args = _inversion_inputs(np.random.default_rng(45), 1500)
    solves = 0
    real = conversion._frontier

    def counted(*args):
        nonlocal solves
        solves += 1
        return real(*args)

    def answers(fn, args):
        nonlocal solves
        out, unsolved = [], 0
        for a in args:
            solves = 0
            try:
                out.append(fn(*a).value)
            except InfeasibleError as e:
                out.append(str(e))
            unsolved += solves == 0
        return out, unsolved

    monkeypatch.setattr(conversion, "_frontier", counted)
    eps_got, eps_unsolved = answers(epsilon_exact, eps_args)
    delta_got, delta_unsolved = answers(delta_exact, delta_args)
    monkeypatch.setattr(conversion, "_tail_excess", lambda *args: math.inf)
    assert answers(epsilon_exact, eps_args)[0] == eps_got
    assert answers(delta_exact, delta_args)[0] == delta_got
    # 1 221 of the 3 000 epsilon_exact answers took no solve here (16 of them
    # take none without the certificate either), and 422 of the 3 000
    # delta_exact answers
    assert eps_unsolved >= 1000 and delta_unsolved >= 300, (eps_unsolved, delta_unsolved)


def test_inversion_inside_its_tolerance_takes_few_solves(monkeypatch):
    # the envelope slope rounds to -0.0 here, so no Newton step is possible
    # and the bracket [0, epsilon_bound] is already inside abs_tol: the
    # inversion evaluates its lower end once and stops, rather than bisecting
    # toward 0 until its iteration cap
    solves = 0
    real = conversion._frontier

    def counted(*args):
        nonlocal solves
        solves += 1
        return real(*args)

    monkeypatch.setattr(conversion, "_frontier", counted)
    alpha, gamma, delta = 2.0, 1e-300, 1.0528511515103283e-145
    eps = epsilon_exact(alpha, gamma, delta).value
    assert 1 <= solves <= 4, solves
    assert 0.0 <= eps <= epsilon_bound(alpha, gamma, delta).value
    assert gamma_exact(alpha, eps, delta).value >= gamma


def test_envelope_slope_matches_the_frontier_derivative(rng):
    # _envelope's first slope is d gamma_exact / d eps at the reported argmin_p: checked
    # against a central difference of gamma_exact itself (the envelope
    # theorem) and a 30-digit derivative of the objective at that p (the formula)
    h = 1e-5
    for _ in range(20):
        alpha = 1.0 + 49.0 * rng.uniform(1e-3, 1.0)
        eps = rng.uniform(0.05, 5.0)
        delta = math.exp(rng.uniform(math.log(1e-9), math.log(min(0.5, 0.999 / alpha))))
        r, state = _frontier(alpha, eps, delta)
        assert r.argmin_p is not None
        slope = _envelope(alpha, eps, delta, state)[0]
        central = (gamma_exact(alpha, eps + h, delta).value - gamma_exact(alpha, eps - h, delta).value) / (2.0 * h)
        assert abs(slope - central) <= 1e-8, (alpha, eps, delta)
        with mpmath.workdps(30):
            a, d, p = mpmath.mpf(alpha), mpmath.mpf(delta), mpmath.mpf(r.argmin_p)
            head = p**a * (p - d) ** (1 - a)
            at_p = lambda e: e + mpmath.log(head + (1 - p) ** a * (mpmath.exp(e) - p + d) ** (1 - a)) / (a - 1)
            exact = float(mpmath.diff(at_p, mpmath.mpf(eps)))
        assert abs(slope - exact) <= 1e-13, (alpha, eps, delta)
    # alpha * delta >= 1: the edge value eps - log(1 - delta) wins, slope 1
    for alpha, eps, delta in [(20.0, 1.0, 0.1), (3.0, 0.5, 0.4), (49.0, 4.0, 0.03)]:
        r, state = _frontier(alpha, eps, delta)
        assert r.argmin_p is None and _envelope(alpha, eps, delta, state)[0] == 1.0
        central = (gamma_exact(alpha, eps + h, delta).value - gamma_exact(alpha, eps - h, delta).value) / (2.0 * h)
        assert abs(central - 1.0) <= 1e-8


def _central(fn, x, h):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def _slope_triples(rng, n):
    # alpha up to 1e3, eps in [0.05, 5] or 1000, delta log-uniform below 1/alpha
    out = []
    for _ in range(n):
        alpha = 1.0 + 10.0 ** rng.uniform(-2.0, 3.0)
        eps = rng.uniform(0.05, 5.0) if rng.uniform() < 0.6 else 1000.0
        delta = math.exp(rng.uniform(math.log(1e-5), math.log(min(0.5, 0.999 / alpha))))
        out.append((alpha, eps, delta))
    return out


def test_delta_slope_matches_the_frontier_derivative(rng):
    # _envelope's second slope is d gamma_exact / d delta at the reported argmin_p:
    # checked against a central difference of gamma_exact itself (the envelope
    # theorem) and a 30-digit derivative of the objective at that p (the formula)
    for alpha, eps, delta in _slope_triples(rng, 30):
        r, state = _frontier(alpha, eps, delta)
        assert r.argmin_p is not None
        slope = _envelope(alpha, eps, delta, state)[1]
        central = _central(lambda t: gamma_exact(alpha, eps, t).value, delta, 1e-5 * delta)
        assert math.isclose(slope, central, rel_tol=1e-5), (alpha, eps, delta)
        with mpmath.workdps(30):
            a, e, p = mpmath.mpf(alpha), mpmath.mpf(eps), mpmath.mpf(r.argmin_p)
            at_p = lambda d: mpmath.log(p**a * (p - d) ** (1 - a) + (1 - p) ** a * (mpmath.exp(e) - p + d) ** (1 - a))
            exact = float(mpmath.diff(at_p, mpmath.mpf(delta)) / (a - 1))
        assert math.isclose(slope, exact, rel_tol=1e-9), (alpha, eps, delta)
    # alpha * delta >= 1: the edge value eps - log(1 - delta) wins, slope 1/(1 - delta)
    for alpha, eps, delta in [(20.0, 1.0, 0.1), (3.0, 0.5, 0.4), (1000.0, 2.0, 0.01), (2.0, 1000.0, 0.6)]:
        r, state = _frontier(alpha, eps, delta)
        assert r.argmin_p is None
        assert _envelope(alpha, eps, delta, state)[1] == 1.0 / (1.0 - delta)
        central = _central(lambda t: gamma_exact(alpha, eps, t).value, delta, 1e-5 * delta)
        assert math.isclose(central, 1.0 / (1.0 - delta), rel_tol=1e-8)


def test_tangent_piece_slope_matches_its_derivative(rng):
    for alpha, eps, delta in _slope_triples(rng, 30):
        slope = _f_lower_bound(alpha, eps, delta)[1]
        central = _central(lambda t: _f_lower_bound(alpha, eps, t)[0], delta, 1e-5 * delta)
        assert math.isclose(slope, central, rel_tol=1e-5), (alpha, eps, delta)


def test_delta_slopes_are_finite_at_zero():
    # Newton steps evaluate the lower end delta = 0 when a step reaches it
    for alpha in (1.0001, 2.0, 1000.0):
        for eps in (0.0, 1.0, 1000.0):
            value, slope = _f_lower_bound(alpha, eps, 0.0)
            assert value == 0.0 and 0.0 <= slope < math.inf
            r, state = _frontier(alpha, eps, 0.0)
            assert r.value == 0.0 and _envelope(alpha, eps, 0.0, state)[1] == 1.0


def test_objective_convexity_inside_log():
    # the sum inside the log is convex in p; the log itself need not be
    # (its second difference dips to -3.4e-6 at alpha=5, eps=0.5, delta=0.05)
    for alpha, eps, delta in [(2.0, 1.0, 0.1), (5.0, 0.5, 0.05), (30.0, 2.0, 0.02), (1.5, 0.0, 0.3)]:
        ps = np.linspace(delta + 1e-6, 1.0 - 1e-6, 401)
        inner = np.array([math.exp(boundary_objective(float(p), alpha, eps, delta)) for p in ps])
        second = inner[:-2] - 2.0 * inner[1:-1] + inner[2:]
        assert second.min() >= -1e-6
    # at this particular point the log-domain objective happens to be convex too
    ps = np.linspace(0.1 + 1e-6, 1.0 - 1e-6, 401)
    logf = np.array([boundary_objective(float(p), 2.0, 1.0, 0.1) for p in ps])
    second = logf[:-2] - 2.0 * logf[1:-1] + logf[2:]
    assert second.min() >= -1e-6


def test_frontier_objective_is_unimodal_in_t(rng):
    # each atom is the perspective y (x/y)^alpha of x -> x^alpha at an (x, y)
    # affine in p, so their sum is convex in p and its log unimodal in any
    # monotone reparametrization, so its slope crosses 0 once, where
    # gamma_exact's Newton steps look for it
    for k in range(200):
        alpha = 1.0 + 10.0 ** rng.uniform(-4.0, math.log10(300.0))
        eps = 0.0 if k % 4 == 0 else 5.0 * rng.uniform(0.0, 1.0)
        delta = 10.0 ** rng.uniform(-30.0, math.log10(min(0.999, 0.999 / alpha)))
        objective = _objective(alpha, eps, delta)
        # the inside of the t = log(p - delta) range that gamma_exact searches
        ts = np.linspace(math.log(alpha - 1.0) + math.log(delta) - 1.0, math.log1p(-delta), 514)[1:-1]
        values = np.array([objective(float(t))[0] for t in ts])
        i = int(values.argmin())
        steps = np.diff(values)
        tol = 1e-12 * max(1.0, float(np.abs(values).max()))
        assert steps[:i].max(initial=-math.inf) <= tol, (alpha, eps, delta)
        assert steps[i:].min(initial=math.inf) >= -tol, (alpha, eps, delta)


def test_gamma_exact_examples():
    r = gamma_exact(3.0, 2.0, 0.0)
    assert r.value == 0.0 and r.method == "exact_numeric"
    r = gamma_exact(20.0, 1.0, 0.1)  # alpha*delta >= 1: boundary value is optimal
    assert math.isclose(r.value, 1.1053605156578263, abs_tol=1e-12)
    assert r.argmin_p is None
    r = gamma_exact(2.0, 1.0, 0.1)
    assert math.isclose(r.value, 0.5465668663746012, abs_tol=1e-9)
    assert r.argmin_p is not None and 0.1 < r.argmin_p < 1.0
    g = gamma_bound(2.0, 1.0, 0.1)
    assert r.value >= g.value
    top = math.nextafter(1.0, 0.0)  # no float lies inside (top, 1) to search
    r = gamma_exact(2.0, 0.0, top)
    assert r.value == -math.log1p(-top) and r.argmin_p is None


def _hockey_stick(p, q, lam):
    # E_lam of Bernoulli(p) from Bernoulli(q)
    return max(p - lam * q, 0.0) + max((1.0 - p) - lam * (1.0 - q), 0.0)


def test_gamma_exact_witness_is_on_the_constraint():
    alpha, eps, delta = 2.0, 1.0, 0.1
    r = gamma_exact(alpha, eps, delta)
    p_star = r.argmin_p
    q_star = (p_star - delta) / math.exp(eps)
    assert math.isclose(_hockey_stick(p_star, q_star, math.exp(eps)), delta, abs_tol=1e-12)
    renyi = oracle._pair_renyi(alpha, np.array([p_star]), np.array([q_star]))[0]
    assert math.isclose(renyi, r.value, abs_tol=1e-6)


def _mpmath_gamma(alpha, eps, delta):
    # the frontier to 50 digits: golden section over t = log(p - delta) on
    # [log((alpha - 1) delta), log(1 - delta)], below which the objective
    # decreases in p, then the smaller of that minimum and the p -> 1 edge
    with mpmath.workdps(50):
        a, e, d = mpmath.mpf(alpha), mpmath.mpf(eps), mpmath.mpf(delta)

        def objective(t):
            s = mpmath.exp(t)
            return mpmath.log((d + s) ** a * s ** (1 - a) + (1 - d - s) ** a * (mpmath.exp(e) - s) ** (1 - a))

        edge = e - mpmath.log(1 - d)
        lo, hi = mpmath.log((a - 1) * d), mpmath.log(1 - d)
        if lo >= hi:
            return edge
        g = (mpmath.sqrt(5) - 1) / 2
        x1, x2 = hi - g * (hi - lo), lo + g * (hi - lo)
        f1, f2 = objective(x1), objective(x2)
        for _ in range(200):
            if f1 <= f2:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - g * (hi - lo)
                f1 = objective(x1)
            else:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + g * (hi - lo)
                f2 = objective(x2)
        return min(edge, e + min(f1, f2) / (a - 1))


def test_gamma_exact_is_never_above_the_mpmath_minimum(rng):
    # gamma_exact minimizes from above, so a search that misses the argmin
    # overshoots, and every epsilon built on it comes out too small; at small
    # delta the argmin sits at the scale of delta.  The eps ~ 0 triples at
    # large alpha are where an 8-point and a 256-point grid differ most
    triples = [(3.0, 1.0, 1e-9), (3.0, 1.0, 1e-13), (10.0, 2.0, 1e-16), (2.0, 0.5, 1e-20)]
    triples += [
        (680.4666397204445, 0.0, 3.6708669569533e-09),
        (756.5598971603577, 0.0, 1.6024910832801925e-09),
        (681.0798903589191, 0.0, 2.356286919110547e-10),
        (511.38973896712054, 1.0226747867044639e-07, 1.2643578136028717e-07),
    ]
    for _ in range(36):
        alpha = 1.0 + 10.0 ** rng.uniform(-3.0, math.log10(49.0))
        triples.append((alpha, 5.0 * rng.uniform(0.01, 1.0), 10.0 ** rng.uniform(-30.0, math.log10(0.5))))
    for alpha, eps, delta in triples:
        want = float(_mpmath_gamma(alpha, eps, delta))
        got = gamma_exact(alpha, eps, delta).value
        assert got <= want + 4.0 * math.ulp(eps), (alpha, eps, delta, got - want)


def test_gamma_exact_keeps_its_digits_near_order_one():
    # gamma = eps + m/(alpha - 1): the objective's log-sum rounds to about
    # 1e-16 absolute, which put errors of 1e-10 relative into gamma at
    # alpha - 1 = 1e-6 and 1e-8 at 1e-8; the objective exact to rounding
    # relative to itself leaves a few dozen ulps of eps or gamma
    for a in (1e-8, 1e-6, 1e-4, 1e-2, 0.5):
        for eps, delta in [(0.0, 0.5), (1.0, 0.5), (0.05, 0.2), (0.5, 1e-3), (3.0, 0.3)]:
            want = float(_mpmath_gamma(1.0 + a, eps, delta))
            got = gamma_exact(1.0 + a, eps, delta).value
            assert abs(got - want) <= 1e-13 * max(eps, want), (a, eps, delta, got - want)


def test_frontier_lies_within_the_tail_bound_of_the_moment_piece():
    # dropping the tail atom leaves the moment piece g, whose head atom is
    # least at p = alpha delta, and the two atoms there bound the minimum from
    # above: g <= gamma <= g + eta (conversion._tail_excess).  Half the points
    # take eps from Balle et al.'s conversion of a gamma in (0, 30], where
    # epsilon_exact reads eta, and half eps in [0, 5], where delta_exact does.
    # The bound is tight where eta <= 1e-10, below the searches' tolerance
    rng = np.random.default_rng(44)
    tight = 0
    for k in range(48):
        alpha = 1.0 + 10.0 ** rng.uniform(-3.0, math.log10(49.0))
        delta = 10.0 ** rng.uniform(-30.0, math.log10(0.5 / alpha))
        if k % 2:
            eps = 5.0 * rng.uniform()
        else:
            eps = balle_epsilon(alpha, 30.0 * rng.uniform(0.01, 1.0), delta)
        g = conversion._moment_gamma_piece(alpha, eps, delta)
        eta = conversion._tail_excess(alpha, eps, delta)
        want = float(_mpmath_gamma(alpha, eps, delta))
        slack = 4.0 * math.ulp(max(eps, abs(g), eta))
        assert g - slack <= want <= g + eta + slack, (alpha, eps, delta, want - g, eta)
        tight += eta <= 1e-10
    assert tight >= 10, tight  # 13 here


def _count_objective_evaluations(monkeypatch):
    # counts every evaluation of the frontier objective that gamma_exact builds
    evals = [0]
    real = conversion._objective

    def counted(alpha, epsilon, delta):
        objective = real(alpha, epsilon, delta)

        def counted_objective(t):
            evals[0] += 1
            return objective(t)

        return counted_objective

    monkeypatch.setattr(conversion, "_objective", counted)
    return evals


def test_gamma_exact_takes_few_objective_evaluations(rng, monkeypatch):
    # Newton's steps on the objective's slope from p = alpha * delta: about
    # 14 evaluations a solve here, where the 8-point grid refined by Brent's
    # steps took 49 and a 256-point grid 292
    evals = _count_objective_evaluations(monkeypatch)
    solves = 0
    while solves < 300:
        alpha = 1.0 + 10.0 ** rng.uniform(-6.0, math.log10(300.0))
        delta = 10.0 ** rng.uniform(-30.0, math.log10(0.999))
        if alpha * delta >= 1.0:
            continue
        gamma_exact(alpha, 5.0 * rng.uniform(0.0, 1.0), delta)
        solves += 1
    assert evals[0] / solves <= 32.0, evals[0] / solves


def _extreme_triples(rng, n):
    # alpha - 1 log-uniform in [1e-9, 1e3], eps up to 50, delta log-uniform
    # in [1e-300, 0.5], alpha * delta < 1
    out = []
    while len(out) < n:
        alpha = 1.0 + 10.0 ** rng.uniform(-9.0, 3.0)
        eps = 50.0 * rng.uniform() if rng.uniform() < 0.5 else 10.0 ** rng.uniform(-6.0, math.log10(50.0))
        delta = 10.0 ** rng.uniform(-300.0, math.log10(0.5))
        if alpha * delta < 1.0:
            out.append((alpha, eps, delta))
    return out


def test_newton_frontier_matches_the_unimodal_search(monkeypatch):
    # every interior minimum is the unimodal search's on the same objective
    # to 4 ulps, at the cost the Newton steps promise: at most 14 objective
    # evaluations a solve on average where the 8-point grid and Brent's steps
    # took 26.6, and on extreme inputs no more than that search's 59 on
    # average and 80 in any solve
    evals = _count_objective_evaluations(monkeypatch)
    sets = {
        "conftest": sample_triples(np.random.default_rng(20250814), 2000),
        "extreme": _extreme_triples(np.random.default_rng(23), 3000),
    }
    for name, triples in sets.items():
        counts = []
        for alpha, eps, delta in triples:
            evals[0] = 0
            r = gamma_exact(alpha, eps, delta)
            if r.argmin_p is None:
                continue
            counts.append(evals[0])
            objective = conversion._objective(alpha, eps, delta)
            got = objective(math.log(r.argmin_p - delta))[0]
            t_lo, t_hi = math.log(alpha - 1.0) + math.log(delta) - 1.0, math.log1p(-delta)
            _, want = minimize_unimodal(lambda t: objective(t)[0], t_lo, t_hi)
            assert got <= want + 4.0 * math.ulp(max(abs(want), 1.0)), (alpha, eps, delta, got, want)
        assert len(counts) >= 250, name
        mean = sum(counts) / len(counts)
        if name == "conftest":
            assert mean <= 14.0, mean
        else:
            assert mean <= 59.0 and max(counts) <= 80, (mean, max(counts))


def test_objective_slopes_match_mpmath(rng):
    # dF/dt and d2F/dt2 of the frontier objective against 40-digit
    # derivatives, across the search range, at tiny and large delta and orders
    for alpha, eps, delta in _extreme_triples(rng, 40) + [(2.0, 1.0, 0.1), (1.5, 0.0, 0.3), (300.0, 0.0, 1e-4)]:
        slopes = conversion._objective(alpha, eps, delta)
        t_lo, t_hi = math.log(alpha - 1.0) + math.log(delta), math.log1p(-delta)
        for frac in (0.0, 0.3, 0.7, 0.99):
            t = t_lo + frac * (t_hi - t_lo)
            value, first, second = slopes(t)[:3]
            with mpmath.workdps(40):
                a, e, d = mpmath.mpf(alpha), mpmath.mpf(eps), mpmath.mpf(delta)

                def objective(x):
                    s = mpmath.exp(x)
                    return mpmath.log((d + s) ** a * s ** (1 - a) + (1 - d - s) ** a * (mpmath.exp(e) - s) ** (1 - a))

                x = mpmath.mpf(t)
                want = [float(mpmath.diff(objective, x, k)) for k in (1, 2)]
            assert value == conversion._objective(alpha, eps, delta)(t)[0]
            scale = 1e-9 * max(1.0, alpha)
            assert abs(first - want[0]) <= scale * max(1.0, abs(want[0])), (alpha, eps, delta, t, first, want)
            assert abs(second - want[1]) <= scale * max(1.0, abs(want[1])), (alpha, eps, delta, t, second, want)


def _mpmath_order_slopes(alpha, eps, delta, t0):
    # d gamma / d alpha and d2 gamma / d alpha2 to 50 digits: mpmath.diff of
    # the frontier as a function of alpha, each value minimizing the objective
    # over t by a bracketed root of its slope near t0, to working precision
    with mpmath.workdps(50):
        e, d = mpmath.mpf(eps), mpmath.mpf(delta)

        def frontier(a):
            def objective(x):
                s = mpmath.exp(x)
                return mpmath.log((d + s) ** a * s ** (1 - a) + (1 - d - s) ** a * (mpmath.exp(e) - s) ** (1 - a))

            slope = lambda x: mpmath.diff(objective, x)
            lo, hi = mpmath.mpf(t0) - mpmath.mpf(1e-3), mpmath.mpf(t0) + mpmath.mpf(1e-3)
            while slope(lo) > 0:
                lo -= 2 * (hi - lo)
            while slope(hi) < 0:
                hi += 2 * (hi - lo)
            t = mpmath.findroot(slope, (lo, hi), solver="anderson", verify=False, maxsteps=200)
            return e + objective(t) / (a - 1)

        x = mpmath.mpf(alpha)
        return float(mpmath.diff(frontier, x, 1)), float(mpmath.diff(frontier, x, 2))


def test_gamma_order_slopes_match_mpmath(rng):
    # gamma_exact's slope and curvature in the order, at the accountant's kind
    # of input: eps converts gamma at the order through the closed form, so
    # that gamma is not lost next to eps.  alpha - 1 from 1e-4 to 300, delta
    # down to 1e-30; the curvature's rounding grows as 1/(alpha - 1)^2
    checked = 0
    while checked < 40:
        alpha = 1.0 + 10.0 ** rng.uniform(-4.0, math.log10(300.0))
        gamma, delta = 10.0 ** rng.uniform(-3.0, math.log10(30.0)), 10.0 ** rng.uniform(-30.0, math.log10(0.9))
        if alpha * delta >= 1.0:
            continue
        eps = epsilon_bound(alpha, gamma, delta).value
        r, state = _frontier(alpha, eps, delta)
        if r.argmin_p is None:
            continue
        first, second = _envelope(alpha, eps, delta, state)[2:]
        want = _mpmath_order_slopes(alpha, eps, delta, math.log(r.argmin_p - delta))
        assert abs(first - want[0]) <= 1e-8 * abs(want[0]), (alpha, eps, delta, first, want)
        assert abs(second - want[1]) <= 1e-5 * abs(want[1]), (alpha, eps, delta, second, want)
        checked += 1
    # the edge value eps - log(1 - delta), at alpha delta >= 1 and where it wins below
    for alpha, eps, delta in [(4.0, 1.0, 0.25), (300.0, 2.0, 0.5), (1.000686631040069, 0.20955171347632695, 0.9806522240933073)]:
        r, state = _frontier(alpha, eps, delta)
        assert r.argmin_p is None and _envelope(alpha, eps, delta, state)[2:] == (0.0, 0.0)


def test_gamma_exact_argmin_stays_inside_the_interval():
    # p = delta + e^t rounds onto 1 when delta is within a few ulps of 1, and
    # onto delta when delta is subnormal; the reported argmin stays inside
    # (delta, 1), where both envelope slopes are defined
    one_up = math.nextafter(1.0, 2.0)
    inputs = [(one_up, 0.0, 0.9999999999999991), (one_up, 0.0, 3.4768916e-317), (1.0000000000000007, 0.0, 0.9999999999999992)]
    for alpha, eps, delta in inputs:
        r, state = _frontier(alpha, eps, delta)
        assert delta < r.argmin_p < 1.0, (alpha, eps, delta, r.argmin_p)
        slope_eps, slope_delta = _envelope(alpha, eps, delta, state)[:2]
        assert math.isfinite(slope_eps)
        assert math.isfinite(slope_delta)


def test_gamma_bound_examples():
    r = gamma_bound(20.0, 1.0, 0.1)
    assert math.isclose(r.value, 1.1053605156578263, abs_tol=1e-12)
    assert r.active_branch == "alpha_delta_ge_1"
    r = gamma_bound(2.0, 1.0, 0.1)
    # max{g, f} = max{0.08370926812584494, 0.30193611074082516}
    assert math.isclose(r.value, 0.30193611074082516, abs_tol=1e-12)
    assert r.active_branch == "f_bound"
    assert gamma_bound(7.0, 3.0, 0.0).value == 0.0


def test_gamma_bound_g_branch_exists():
    # the moment piece overtakes the tangent piece as delta approaches 1/alpha
    r = gamma_bound(2.0, 1.0, 0.49)
    assert r.active_branch == "g_bound"
    assert math.isclose(r.value, 1.0 - (log_zeta(2.0) - math.log(0.49)), rel_tol=1e-12)


def test_gamma_exact_monotone_in_delta_and_eps():
    for alpha in (2.0, 20.0):
        values = [gamma_exact(alpha, 1.0, d).value for d in np.linspace(0.0, 0.9, 30)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        values = [gamma_exact(alpha, e, 0.1).value for e in np.linspace(0.0, 5.0, 20)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_frontier_convex_on_chi_scale():
    # exp((alpha-1)*gamma(delta)) is midpoint-convex in delta
    for alpha, eps in [(2.0, 1.0), (5.0, 0.5), (3.0, 0.0)]:
        ds = np.linspace(0.0, 0.9, 31)
        vals = np.array([math.exp((alpha - 1.0) * gamma_exact(alpha, eps, float(d)).value) for d in ds])
        mid_excess = 0.5 * (vals[:-2] + vals[2:]) - vals[1:-1]
        assert mid_excess.min() >= -1e-8


def test_gamma_bound_sound_below_exact(rng):
    for alpha, eps, delta in sample_triples(rng, 150):
        lo = gamma_bound(alpha, eps, delta).value
        hi = gamma_exact(alpha, eps, delta).value
        assert lo <= hi + 1e-8
        if delta == 0.0 or alpha * delta >= 1.0:
            assert abs(lo - hi) <= 1e-9


def test_delta_exact_examples():
    assert delta_exact(2.0, 0.0, 1.0).value == 0.0
    v = delta_exact(2.0, 1.0, 2.0).value
    assert v <= baseline_delta(2.0, 1.0, 2.0) + 1e-12
    assert math.isclose(baseline_delta(2.0, 1.0, 2.0), math.exp(-1.0), rel_tol=1e-14)


def test_delta_exact_round_trip(rng):
    for alpha, eps, delta in sample_triples(rng, 25):
        if delta < 1e-6:
            continue
        gamma = gamma_exact(alpha, eps, delta).value
        back = delta_exact(alpha, gamma, eps).value
        assert abs(back - delta) <= 1e-7


def test_delta_exact_keeps_its_digits_at_small_delta():
    # delta is found to a tolerance relative to its closed-form bound; an
    # absolute 1e-10 returned the bound itself, 64 times too loose, at 1e-13
    for delta in (1e-5, 1e-7, 1e-9, 1e-11, 1e-13):
        gamma = gamma_exact(2.0, 1.0, delta).value
        back = delta_exact(2.0, gamma, 1.0).value
        assert abs(back / delta - 1.0) <= 1e-3, (delta, back)
        assert gamma_exact(2.0, 1.0, back).value >= gamma, (delta, back)
        assert back <= delta_bound(2.0, gamma, 1.0).value, (delta, back)


def test_delta_exact_infeasible_above_frontier_range():
    with pytest.raises(InfeasibleError):
        delta_exact(2.0, 50.0, 0.0)


def test_infeasible_delta_takes_one_solve(monkeypatch):
    # the search's first point is 1 - 1e-12, where the frontier falls short;
    # the error quotes that solve rather than solving there again
    solves = []
    real = conversion._frontier
    monkeypatch.setattr(conversion, "_frontier", lambda *args: solves.append(args) or real(*args))
    with pytest.raises(InfeasibleError, match=r"^no delta < 1 reaches gamma=50 at eps=1 "
                                              r"\(frontier tops out near 28\.63104323789336\)$"):
        delta_exact(2, 50, 1)
    assert solves == [(2, 1, 1.0 - 1e-12)]


def test_an_underflowed_delta_is_not_a_pure_dp_claim(rng):
    # at eps = 1000 the moment piece zeta e^{-(alpha-1)(eps-gamma)} underflows;
    # the true delta lies below the smallest positive float, and 0 would claim
    # pure DP, which no gamma > 0 gives
    tiny = math.ulp(0.0)
    assert delta_bound(2.0, 1.0, 1000.0).value == tiny
    assert delta_exact(2.0, 1.0, 1000.0).value == tiny
    assert baseline_delta(2.0, 1.0, 1000.0) == tiny
    # gamma = 0 is pure DP, and stays exactly 0
    assert delta_exact(2.0, 0.0, 1000.0).value == 0.0
    assert delta_bound(2.0, 0.0, 1000.0).value == 0.0
    assert baseline_delta(2.0, 0.0, 1000.0) == 0.0
    for _ in range(100):
        alpha = 1.0 + 10.0 ** rng.uniform(-3.0, 3.0)
        gamma = math.exp(rng.uniform(math.log(1e-14), math.log(30.0)))
        eps = rng.uniform(0.0, 1000.0)
        assert baseline_delta(alpha, gamma, eps) > 0.0
        assert delta_bound(alpha, gamma, eps).value > 0.0
        try:
            assert delta_exact(alpha, gamma, eps).value > 0.0
        except InfeasibleError:
            pass


def test_delta_bound_examples():
    r = delta_bound(2.0, 1.0, 2.0)
    # moment piece zeta(2) * e^{-1}, a factor zeta below the baseline
    assert math.isclose(r.value, 0.09196986029286058, rel_tol=1e-10)
    assert r.active_branch == "g_bound"
    assert delta_bound(3.0, 0.0, 1.0).value <= 1e-9
    big = delta_bound(4.0, 8.0, 1.0)  # forced into the exact regime
    assert big.active_branch == "alpha_delta_ge_1"
    assert math.isclose(big.value, -math.expm1(1.0 - 8.0), rel_tol=1e-12)


def _full_tangent_delta_bound(alpha, gamma, eps, tangent=_f_lower_bound):
    # delta_bound as it was when the tangent search ran wherever the piece
    # reaches gamma by cap, whether or not its answer could beat d_g
    d_closed = -math.expm1(min(eps - gamma, 0.0))
    if d_closed >= 1.0 / alpha:
        return d_closed, "alpha_delta_ge_1"
    d_g = math.exp(conversion._log_zeta(alpha) - (alpha - 1.0) * (eps - gamma))
    cap = (1.0 / alpha) * (1.0 - 1e-12)
    if gamma <= tangent(alpha, eps, cap)[0]:
        d_f = _newton_invert(lambda t: tangent(alpha, eps, t), gamma, 0.0, cap, DEFAULT_ABS_TOL)
    else:
        d_f = 1.0 / alpha
    branch = "g_bound" if d_g <= d_f else "f_bound"
    return conversion._no_false_zero(min(d_g, d_f, 1.0 - 1e-15), gamma), branch


def _counted(fn, counts):
    def wrapped(*args):
        counts.append(args)
        return fn(*args)

    return wrapped


def test_delta_bound_skips_a_tangent_search_that_cannot_win(monkeypatch):
    # the tangent piece is below gamma at the moment piece's answer d_g and
    # increases in delta, so its inverse cannot beat d_g: one evaluation of
    # the piece, where the full search took 35 and 32, and the same answer
    calls = []
    monkeypatch.setattr(conversion, "_f_lower_bound", _counted(_f_lower_bound, calls))
    for args, value in [((7.467166795494337, 0.20308779150216447, 3.5904709658411975), 1.618201068630174e-11),
                        ((37.32923655099326, 0.2364410762766095, 0.8032109049806111), 1.1409480791670443e-11)]:
        calls.clear()
        r = delta_bound(*args)
        assert (r.value, r.active_branch) == (value, "g_bound"), args
        assert len(calls) == 1, args
        assert _full_tangent_delta_bound(*args) == (value, "g_bound")


def test_delta_bound_matches_the_full_tangent_search(monkeypatch):
    # the same value and branch as the search run wherever the piece reaches
    # gamma, on the exact workload's delta ranges and on extremes; on the
    # first, a fifth of the evaluations of the piece or fewer.  With eps and
    # gamma both below about 1e-15 the piece is rounding noise (it is exactly
    # 0 at eps = 0) and need not increase: there a skipped search may leave
    # d_g, which is never below the full search's answer
    rng = np.random.default_rng(41)
    calls, ref_calls = [], []
    monkeypatch.setattr(conversion, "_f_lower_bound", _counted(_f_lower_bound, calls))
    reference = _counted(_f_lower_bound, ref_calls)
    n = 3000
    sets = {
        "workload": zip(1.0 + 49.0 * rng.uniform(1e-6, 1.0, n), 5.0 * rng.uniform(1e-9, 1.0, n),
                        5.0 * rng.uniform(1e-9, 1.0, n)),
        "extremes": zip(1.0 + 10.0 ** rng.uniform(-9.0, 4.0, n), 10.0 ** rng.uniform(-15.0, 2.0, n),
                        np.where(rng.uniform(size=n) < 0.1, 0.0, 10.0 ** rng.uniform(-8.0, 3.0, n))),
        "corner": zip(1.0 + 10.0 ** rng.uniform(-9.0, 4.0, n), 10.0 ** rng.uniform(-20.0, -15.0, n),
                      np.where(rng.uniform(size=n) < 0.2, 0.0, 10.0 ** rng.uniform(-20.0, -15.0, n))),
    }
    moved = 0
    for name, draws in sets.items():
        calls.clear()
        ref_calls.clear()
        for args in draws:
            alpha, gamma, eps = args = tuple(map(float, args))
            r = delta_bound(*args)
            ref = _full_tangent_delta_bound(*args, tangent=reference)
            if name == "corner" and (r.value, r.active_branch) != ref:
                moved += 1
                d_g = math.exp(conversion._log_zeta(alpha) - (alpha - 1.0) * (eps - gamma))
                assert (r.value, r.active_branch) == (d_g, "g_bound") and r.value >= ref[0], (args, r, ref)
            else:
                assert (r.value, r.active_branch) == ref, args
        if name == "workload":
            assert 5 * len(calls) <= len(ref_calls), (len(calls), len(ref_calls))
    assert moved <= n // 10, moved


def test_conversion_dominance_chains(rng):
    for alpha, eps, delta in sample_triples(rng, 120):
        gamma = gamma_exact(alpha, eps, delta).value
        d_exact = delta_exact(alpha, gamma, eps).value
        d_bound = delta_bound(alpha, gamma, eps).value
        d_base = baseline_delta(alpha, gamma, eps)
        assert d_exact <= d_bound
        assert d_bound <= d_base + 1e-12
        if delta > 1e-6 and alpha * delta < 1.0:
            e_exact = epsilon_exact(alpha, gamma, delta).value
            e_bound = epsilon_bound(alpha, gamma, delta).value
            assert e_exact <= e_bound
            assert e_bound <= max(balle_epsilon(alpha, gamma, delta), 0.0) + 1e-10


def test_epsilon_exact_examples():
    assert epsilon_exact(5.0, 0.0, 0.2).value == 0.0
    # inside the zero-epsilon interval for (alpha=2, gamma=0.1)
    assert epsilon_exact(2.0, 0.1, 0.3).value <= 1e-3


def test_epsilon_exact_round_trip(rng):
    for alpha, eps, delta in sample_triples(rng, 25):
        if delta < 1e-6:
            continue
        gamma = gamma_exact(alpha, eps, delta).value
        back = epsilon_exact(alpha, gamma, delta).value
        assert back <= eps + 1e-6
        if back > 0.0:
            assert gamma_exact(alpha, back, delta).value >= gamma - 1e-7


def test_epsilon_bound_examples():
    assert epsilon_bound(2.0, 0.0, 0.05).value == 0.0
    r = epsilon_bound(20.0, 1.0, 0.1)  # (gamma + log(1 - delta))_+
    assert math.isclose(r.value, 0.8946394843421737, abs_tol=1e-12)
    assert r.active_branch == "alpha_delta_ge_1"
    alpha, gamma, delta = 2.0, 0.5, 0.01
    r = epsilon_bound(alpha, gamma, delta)
    piece_g = max(gamma + (log_zeta(alpha) - math.log(delta)) / (alpha - 1.0), 0.0)
    chi = math.expm1((alpha - 1.0) * gamma) / (alpha - 1.0)
    piece_chi = math.log1p((alpha - 1.0) * chi / (alpha * delta)) / (alpha - 1.0)
    assert math.isclose(r.value, min(piece_g, piece_chi), rel_tol=1e-12)
    assert r.value <= balle_epsilon(alpha, gamma, delta) + 1e-12


def test_epsilon_bound_huge_gamma_stays_finite():
    v = epsilon_bound(2.0, 1e6, 1e-8).value
    assert math.isfinite(v) and v > 0.0


def test_gamma_of_epsilon_bound_inverts_epsilon_bound(rng):
    # the largest gamma whose closed-form epsilon meets eps, on every branch
    # and past (alpha - 1) eps = 700, where expm1 would overflow
    cases = [(2.0, 1.0, 0.6), (2.0, 0.5, 0.01), (1.000001, 3.0, 1e-9), (1e4, 0.5, 1e-12), (800.0, 2.0, 1e-5)]
    for _ in range(200):
        alpha = 1.0 + math.exp(rng.uniform(math.log(1e-5), math.log(1e4)))
        cases.append((alpha, math.exp(rng.uniform(math.log(1e-3), math.log(50.0))), math.exp(rng.uniform(math.log(1e-12), 0.0))))
    branches = set()
    for alpha, eps, delta in cases:
        gamma = conversion._gamma_of_epsilon_bound(alpha, eps, delta)
        at = epsilon_bound(alpha, gamma, delta)
        branches.add(at.active_branch)
        assert math.isclose(at.value, eps, rel_tol=1e-12), (alpha, eps, delta)
        assert epsilon_bound(alpha, gamma * (1.0 + 1e-6), delta).value > eps, (alpha, eps, delta)
    assert branches == {"alpha_delta_ge_1", "g_bound", "chi_bound"}


def test_chi_epsilon_piece_matches_mpmath(rng):
    # the chi piece log1p(expm1(x)/c)/(alpha-1), x = (alpha-1) gamma, c = alpha
    # delta: orders near 1 at large delta put expm1(x) far below c, and c down
    # to 1e-300 makes expm1(x)/c overflow
    cases = [(1.00000022, 1.06e-8, 0.46), (1.000001, 1e-3, 0.5), (2.0, 25.0, 1e-300)]
    for _ in range(2000):
        alpha = 1.0 + 10.0 ** rng.uniform(-8.0, 1.5)
        cases.append((alpha, 10.0 ** rng.uniform(-10.0, 1.0), 10.0 ** rng.uniform(-300.0, math.log10(0.999 / alpha))))
    for alpha, gamma, delta in cases:
        with mpmath.workdps(50):
            a = mpmath.mpf(alpha)
            ref = mpmath.log1p(mpmath.expm1((a - 1) * gamma) / (a * delta)) / (a - 1)
        assert math.isclose(conversion._chi_epsilon_piece(alpha, gamma, delta), float(ref), rel_tol=1e-14), (alpha, gamma, delta)
    # through the public bound, where the chi branch wins; 1.5% too small before
    at = epsilon_bound(1.00000022, 1.06e-8, 0.46)
    assert at.active_branch == "chi_bound"
    assert math.isclose(at.value, 2.3043473191305434e-08, rel_tol=1e-14)


def test_baseline_pair():
    assert math.isclose(baseline_delta(2.0, 1.0, 2.0), math.exp(-1.0), rel_tol=1e-14)
    assert math.isclose(baseline_epsilon(2.0, 1.0, math.exp(-1.0)), 2.0, rel_tol=1e-14)
    assert baseline_delta(2.0, 3.0, 1.0) == 1.0  # eps < gamma clamps at 1
    assert baseline_delta(1000.0, 5.0, 0.5) == 1.0  # uncapped exponent would overflow


def test_balle_examples():
    assert math.isclose(balle_epsilon(2.0, 1.0, 0.25), 1.0, rel_tol=1e-14)
    zeta = math.exp(log_zeta(3.0))
    assert abs(balle_epsilon(3.0, 0.0, zeta)) <= 1e-12
    # may be negative; reported unclamped
    assert balle_epsilon(2.0, 0.0, 0.9) < 0.0


def test_zero_epsilon_region_examples():
    r = zero_epsilon_region(2.0, 0.1)
    assert r.interval is not None
    lo, hi = r.interval
    assert math.isclose(lo, 0.27629272951891193, rel_tol=1e-12)
    assert hi == 0.5 and r.delta_free == 0.5
    r = zero_epsilon_region(2.0, 0.0)
    assert math.isclose(r.interval[0], 0.25, rel_tol=1e-14)
    assert r.interval[1] == 0.5
    r = zero_epsilon_region(10.0, 1.0)
    assert r.interval is None
    assert math.isclose(r.delta_free, -math.expm1(-1.0), rel_tol=1e-14)


def test_epsilon_zero_inside_region_and_above_free_threshold():
    alpha, gamma = 2.0, 0.1
    region = zero_epsilon_region(alpha, gamma)
    lo, hi = region.interval
    for frac in (0.1, 0.5, 0.9):
        d = lo + (hi - lo) * frac
        assert epsilon_exact(alpha, gamma, d).value <= 1e-3
    for frac in (0.25, 0.75):
        d = region.delta_free + (1.0 - region.delta_free) * frac
        assert epsilon_exact(alpha, gamma, d).value <= 1e-3


def test_result_codomains(rng):
    for alpha, eps, delta in sample_triples(rng, 30):
        gamma = gamma_exact(alpha, eps, delta).value
        assert gamma >= 0.0 and math.isfinite(gamma)
        if delta > 1e-6:
            assert 0.0 <= delta_exact(alpha, gamma, eps).value < 1.0
            assert 0.0 <= delta_bound(alpha, gamma, eps).value < 1.0
            assert epsilon_exact(alpha, gamma, delta).value >= 0.0
            assert epsilon_bound(alpha, gamma, delta).value >= 0.0


def test_domain_validation():
    with pytest.raises(DomainError):
        gamma_exact(1.0, 1.0, 0.1)
    with pytest.raises(DomainError):
        gamma_exact(2.0, -0.5, 0.1)
    with pytest.raises(DomainError):
        gamma_exact(2.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        epsilon_exact(2.0, 1.0, 0.0)  # needs delta > 0
    with pytest.raises(DomainError):
        epsilon_bound(2.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        baseline_epsilon(2.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        balle_epsilon(2.0, math.nan, 0.1)
    with pytest.raises(DomainError):
        zero_epsilon_region(0.5, 0.1)
