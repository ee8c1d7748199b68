"""Frontier computation and its closed-form companions.

Frozen reference values were produced with a 50-digit mpmath evaluation of
the defining formulas (independent of this package's code paths).
"""

import math

import numpy as np
import pytest

from rdpopt import conversion
from rdpopt.conversion import (
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
from rdpopt.divergences import BernoulliPair, hockey_stick_binary, renyi_binary
from rdpopt.errors import DomainError, InfeasibleError
from rdpopt.optimize import log_add

from conftest import sample_small_delta_triples, sample_triples


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


def _objective_reference(p, alpha, epsilon, delta):
    # the objective written out in full at each evaluation, the reference for _objective
    head = alpha * math.log(p) + (1.0 - alpha) * math.log(p - delta)
    log_rest = epsilon + math.log1p((delta - p) * math.exp(-epsilon))
    tail = alpha * math.log1p(-p) + (1.0 - alpha) * log_rest
    return log_add(head, tail)


def test_hoisted_objective_is_bit_identical():
    for alpha, eps, delta in [(2.0, 1.0, 0.1), (1.5, 0.0, 0.3), (5.0, 0.5, 1e-6), (30.0, 2.0, 0.02), (49.0, 4.8, 0.49)]:
        objective = _objective(alpha, eps, delta)
        for p in np.linspace(delta, 1.0, 257)[1:-1].tolist():
            want = _objective_reference(p, alpha, eps, delta)
            assert objective(p) == want
            assert boundary_objective(p, alpha, eps, delta) == want
    assert gamma_exact(2.0, 1.0, 0.1).value == 0.5465668663746011


def test_exact_inversions_solve_few_frontiers(rng, monkeypatch):
    # each inversion brackets from a closed form and takes secant steps; a
    # bisection to the same tolerance costs about 38 frontier solves an answer
    solves = 0

    def counted(*args, **kwargs):
        nonlocal solves
        solves += 1
        return gamma_exact(*args, **kwargs)

    monkeypatch.setattr(conversion, "gamma_exact", counted)
    eps_solves, delta_solves = [], []
    for alpha, gamma, delta in sample_small_delta_triples(rng, 40):
        solves = 0
        epsilon_exact(alpha, gamma, delta)
        eps_solves.append(solves)
    for alpha, eps, delta in sample_triples(rng, 40):
        gamma = gamma_exact(alpha, eps, delta).value
        solves = 0
        epsilon_exact(alpha, gamma, delta)
        eps_solves.append(solves)
        solves = 0
        delta_exact(alpha, gamma, eps)
        delta_solves.append(solves)
    assert sum(eps_solves) / len(eps_solves) <= 8.0
    assert sum(delta_solves) / len(delta_solves) <= 8.0


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


def test_gamma_exact_witness_is_on_the_constraint():
    alpha, eps, delta = 2.0, 1.0, 0.1
    r = gamma_exact(alpha, eps, delta)
    p_star = r.argmin_p
    q_star = (p_star - delta) / math.exp(eps)
    pair = BernoulliPair(p_star, q_star)
    assert math.isclose(hockey_stick_binary(pair, math.exp(eps)), delta, abs_tol=1e-12)
    assert math.isclose(renyi_binary(pair, alpha), r.value, abs_tol=1e-6)


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


def test_delta_exact_infeasible_above_frontier_range():
    with pytest.raises(InfeasibleError):
        delta_exact(2.0, 50.0, 0.0)


def test_delta_bound_examples():
    r = delta_bound(2.0, 1.0, 2.0)
    # moment piece zeta(2) * e^{-1}, a factor zeta below the baseline
    assert math.isclose(r.value, 0.09196986029286058, rel_tol=1e-10)
    assert r.active_branch == "g_bound"
    assert delta_bound(3.0, 0.0, 1.0).value <= 1e-9
    big = delta_bound(4.0, 8.0, 1.0)  # forced into the exact regime
    assert big.active_branch == "alpha_delta_ge_1"
    assert math.isclose(big.value, -math.expm1(1.0 - 8.0), rel_tol=1e-12)


def test_conversion_dominance_chains(rng):
    for alpha, eps, delta in sample_triples(rng, 120):
        gamma = gamma_exact(alpha, eps, delta).value
        d_exact = delta_exact(alpha, gamma, eps).value
        d_bound = delta_bound(alpha, gamma, eps).value
        d_base = baseline_delta(alpha, gamma, eps)
        assert d_exact <= d_bound + 1e-7
        assert d_bound <= d_base + 1e-12
        if delta > 1e-6 and alpha * delta < 1.0:
            e_exact = epsilon_exact(alpha, gamma, delta).value
            e_bound = epsilon_bound(alpha, gamma, delta).value
            assert e_exact <= e_bound + 1e-8
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
        # near alpha = 1 the forward chi piece is log(c + expm1(x)) - log(c) with
        # expm1(x) << c, good to about 1e-8 relative
        assert math.isclose(at.value, eps, rel_tol=1e-7), (alpha, eps, delta)
        assert epsilon_bound(alpha, gamma * (1.0 + 1e-6), delta).value > eps, (alpha, eps, delta)
    assert branches == {"alpha_delta_ge_1", "g_bound", "chi_bound"}


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
