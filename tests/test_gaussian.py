"""Gaussian-mechanism composition accounting."""

import math

import numpy as np
import pytest

from rdpopt.conversion import balle_epsilon, epsilon_bound
from rdpopt.errors import DomainError
from rdpopt.gaussian import (
    AccountedEpsilon,
    GaussianConfig,
    acct_epsilon,
    ma_epsilon,
    ma_max_iterations,
    ma_required_variance,
    max_iterations,
    privacy_curve,
    required_variance,
    rho_gaussian,
    rho_subsampled,
)
from rdpopt.optimize import minimize_unimodal


def test_rho_gaussian():
    assert rho_gaussian(20.0) == 0.00125
    assert rho_gaussian(1.0, 1.0) == 0.5
    assert rho_gaussian(3.0, 2.0) == 4.0 * rho_gaussian(3.0, 1.0)
    with pytest.raises(DomainError):
        rho_gaussian(0.0)
    with pytest.raises(DomainError):
        rho_gaussian(1.0, -1.0)
    for sigma in (1e-200, 1e-160):  # sigma^2 underflows to 0, or to a subnormal with no finite reciprocal
        with pytest.raises(DomainError):
            rho_gaussian(sigma)


def test_rho_subsampled():
    assert math.isclose(rho_subsampled(4.0, 0.001), 6.256256256256256e-08, rel_tol=1e-15)
    assert rho_subsampled(4.0, 0.5) == 0.03125
    with pytest.raises(DomainError):
        rho_subsampled(4.0, 0.0)
    with pytest.raises(DomainError):
        rho_subsampled(4.0, 1.0)
    with pytest.raises(DomainError):
        rho_subsampled(-1.0, 0.5)
    with pytest.raises(DomainError):
        rho_subsampled(1e-200, 0.01)


def test_gaussian_config():
    cfg = GaussianConfig(sigma=20.0)
    assert cfg.rho == 0.00125
    cfg = GaussianConfig(sigma=4.0, subsampling_q=0.001)
    assert math.isclose(cfg.rho, 6.256256256256256e-08, rel_tol=1e-15)
    with pytest.raises(DomainError):
        GaussianConfig(sigma=4.0, sensitivity=2.0, subsampling_q=0.001)
    with pytest.raises(DomainError):
        GaussianConfig(sigma=0.0)
    with pytest.raises(DomainError):
        GaussianConfig(sigma=1.0, subsampling_q=1.5)
    with pytest.raises(DomainError):
        GaussianConfig(sigma=1e-170)


def test_ma_epsilon_frozen_values():
    assert math.isclose(ma_epsilon(1.0 / 800.0, 1000.0, 1e-5), 8.83713564692573, rel_tol=1e-13)
    assert math.isclose(ma_epsilon(1.0 / 800.0, 100.0, 1e-5), 2.5242629560940406, rel_tol=1e-13)


def test_ma_epsilon_limits():
    # as delta -> 1 the tail term vanishes and eps -> rho*T
    assert math.isclose(ma_epsilon(0.00125, 1000.0, 1.0 - 1e-12), 1.25, rel_tol=1e-5)
    # just above 1/DBL_MAX, log(1/delta) is still finite
    assert math.isfinite(ma_epsilon(0.00125, 1000.0, 1e-308))
    with pytest.raises(DomainError):
        ma_epsilon(0.0, 10.0, 1e-5)
    with pytest.raises(DomainError):
        ma_epsilon(0.1, 0.5, 1e-5)
    with pytest.raises(DomainError):
        ma_epsilon(0.1, 10.0, 0.0)


def test_ma_epsilon_is_the_order_minimum():
    # closed form equals min over alpha of alpha*rho*T - log(delta)/(alpha-1)
    for rho, T, delta in [(1e-3, 100.0, 1e-5), (0.5, 1.0, 1e-8), (1e-6, 1e4, 0.01)]:
        s, ld = rho * T, math.log(delta)

        def obj(u: float) -> float:
            alpha = 1.0 + math.exp(u)
            return alpha * s - ld / (alpha - 1.0)

        _, v = minimize_unimodal(obj, -15.0, 15.0)
        assert math.isclose(ma_epsilon(rho, T, delta), v, rel_tol=1e-9, abs_tol=1e-9)


def test_acct_epsilon_structure():
    r = acct_epsilon(1.0 / 800.0, 1000.0, 1e-5)
    assert isinstance(r, AccountedEpsilon)
    assert r.mode == "closed_form"
    at_argmin = epsilon_bound(r.argmin_alpha, (1.0 / 800.0) * 1000.0 * r.argmin_alpha, 1e-5)
    assert r.epsilon == at_argmin.value
    assert r.active_branch == at_argmin.active_branch
    assert 1.0 < r.argmin_alpha <= 1e5
    assert math.isclose(r.epsilon, 8.078359548144448, rel_tol=1e-10)
    assert math.isclose(r.argmin_alpha, 3.851587677837917, rel_tol=1e-6)


# closed-form epsilon at the four reference points, frozen from the
# two-scan implementation this single order scan replaced
ACCOUNTANT_POINTS = [
    (rho_gaussian(20.0), 1000.0, 1e-5, 8.078359548144448),
    (rho_gaussian(20.0), 1000.0, 1e-2, 5.037034355372364),
    (rho_subsampled(4.0, 1e-3), 1000.0, 1e-5, 0.03485214131951003),
    (rho_gaussian(1.0), 10.0, 1e-5, 19.047259552325183),
]


@pytest.mark.parametrize("rho, T, delta, frozen", ACCOUNTANT_POINTS)
def test_acct_epsilon_is_the_order_minimum_of_epsilon_bound(rho, T, delta, frozen):
    r = acct_epsilon(rho, T, delta)
    assert r.epsilon == frozen
    for alpha in np.geomspace(1.0 + 1e-6, 1.0 / delta, 200):
        alpha = float(alpha)
        assert r.epsilon <= epsilon_bound(alpha, rho * T * alpha, delta).value


def test_acct_epsilon_beats_ma_baseline():
    for T in (1.0, 10.0, 100.0, 1000.0):
        ours = acct_epsilon(1.0 / 800.0, T, 1e-5).epsilon
        assert ours <= ma_epsilon(1.0 / 800.0, T, 1e-5) + 1e-12
    assert acct_epsilon(1.0 / 800.0, 100.0, 1e-5).epsilon <= 2.5242629560940406


def test_acct_epsilon_negligible_rate():
    assert acct_epsilon(1e-15, 1.0, 0.5).epsilon <= 1e-9


def test_acct_epsilon_exact_mode():
    for rho, T, delta in [(1.0 / 800.0, 1000.0, 1e-5), (0.01, 10.0, 1e-6)]:
        closed = acct_epsilon(rho, T, delta, "closed_form")
        exact = acct_epsilon(rho, T, delta, "exact")
        assert exact.mode == "exact"
        assert 0.0 < exact.epsilon <= closed.epsilon + 1e-6
    with pytest.raises(DomainError):
        acct_epsilon(0.01, 10.0, 1e-6, "sloppy")


def test_acct_epsilon_monotonicity():
    eps_t = [acct_epsilon(1e-4, T, 1e-5).epsilon for T in (1, 10, 100, 1000, 10000)]
    assert all(b >= a - 1e-9 for a, b in zip(eps_t, eps_t[1:]))
    eps_r = [acct_epsilon(r, 100.0, 1e-5).epsilon for r in (1e-6, 1e-5, 1e-4, 1e-3)]
    assert all(b >= a - 1e-9 for a, b in zip(eps_r, eps_r[1:]))
    eps_d = [acct_epsilon(1e-4, 100.0, d).epsilon for d in (1e-8, 1e-6, 1e-4, 1e-2)]
    assert all(b <= a + 1e-9 for a, b in zip(eps_d, eps_d[1:]))


def test_max_iterations_galois():
    rho, delta = 1.0 / 800.0, 1e-5
    for budget in (1.0, 3.0, 6.0):
        T = max_iterations(rho, budget, delta)
        assert acct_epsilon(rho, T, delta).epsilon <= budget
        assert acct_epsilon(rho, T + 1, delta).epsilon > budget
        T_ma = ma_max_iterations(rho, budget, delta)
        assert ma_epsilon(rho, T_ma, delta) <= budget
        assert ma_epsilon(rho, T_ma + 1, delta) > budget
        assert T >= T_ma


def test_max_iterations_edge_cases():
    # budget too small for even one step
    assert ma_max_iterations(10.0, 0.1, 1e-5) == 0
    assert max_iterations(10.0, 1e-6, 1e-5) == 0
    counts = [ma_max_iterations(1.0 / 800.0, b, 1e-5) for b in (0.5, 1.0, 2.0, 4.0)]
    assert all(b >= a for a, b in zip(counts, counts[1:]))
    with pytest.raises(DomainError):
        max_iterations(0.001, 0.0, 1e-5)


def test_ma_required_variance():
    v = ma_required_variance(1.0, 1.0, 1e-5)
    assert math.isclose(v, 24.015440960770643, rel_tol=1e-9)
    assert math.isclose(ma_required_variance(100.0, 1.0, 1e-5), 100.0 * v, rel_tol=1e-12)
    for T, eps, delta in [(1.0, 1.0, 1e-5), (500.0, 2.5, 1e-7), (30.0, 0.1, 1e-3)]:
        sigma_sq = ma_required_variance(T, eps, delta)
        assert abs(ma_epsilon(1.0 / (2.0 * sigma_sq / T), 1.0, delta) - eps) <= 1e-9
        assert abs(ma_epsilon(1.0 / (2.0 * sigma_sq), T, delta) - eps) <= 1e-9


def test_required_variance_frozen_point():
    r = required_variance(100.0, 1.0, 1e-6)
    assert math.isclose(r.sigma_sq, 2052.884744968447, rel_tol=1e-10)
    assert math.isclose(r.alpha_star, 27.631021115928547, rel_tol=1e-12)
    assert math.isclose(r.sigma_sq_at_alpha_star, 2149.557853447283, rel_tol=1e-10)
    assert 1.0 < r.argmin_alpha <= 1e6
    assert r.sigma_sq <= ma_required_variance(100.0, 1.0, 1e-6)


def test_required_variance_scales_linearly_in_T():
    a = required_variance(100.0, 1.0, 1e-6).sigma_sq
    b = required_variance(200.0, 1.0, 1e-6).sigma_sq
    assert math.isclose(b, 2.0 * a, rel_tol=1e-14)


def test_required_variance_feeds_back_to_budget():
    for T, eps, delta in [(100.0, 1.0, 1e-6), (1.0, 0.5, 1e-4), (2000.0, 4.0, 1e-8)]:
        r = required_variance(T, eps, delta)
        rho = 1.0 / (2.0 * r.sigma_sq)
        acct = acct_epsilon(rho, T, delta)
        # the variance is certified by the moment piece, so its minimum over orders is the budget
        _, moment_min = minimize_unimodal(
            lambda u: balle_epsilon(1.0 + math.exp(u), (1.0 + math.exp(u)) * rho * T, delta),
            -15.0,
            math.log(1.0 / delta - 1.0),
        )
        assert math.isclose(moment_min, eps, rel_tol=1e-6)
        assert acct.epsilon <= eps * (1.0 + 1e-6)


def test_required_variance_infeasible_budget():
    with pytest.raises(DomainError, match=r"2\*delta"):
        required_variance(10.0, 0.1, 0.4)


def test_required_variance_plug_in_can_be_none():
    # alpha_star = 2 log(1/delta)/eps falls below 1 when eps is large
    r = required_variance(10.0, 40.0, 1e-5)
    assert r.alpha_star < 1.0
    assert r.sigma_sq_at_alpha_star is None
    assert r.sigma_sq > 0.0


def test_privacy_curve():
    config = GaussianConfig(sigma=20.0)
    rows = privacy_curve(config, 1e-5, [1.0, 10.0, 100.0])
    assert len(rows) == 3
    one_shot = acct_epsilon(config.rho, 1.0, 1e-5)
    assert rows[0].T == 1.0
    assert rows[0].eps_ours == one_shot.epsilon
    assert rows[0].eps_ma == ma_epsilon(config.rho, 1.0, 1e-5)
    for row in rows:
        assert row.eps_ours_exact is None
        assert math.isclose(row.gap, row.eps_ma - row.eps_ours, rel_tol=1e-15, abs_tol=1e-15)
        assert row.gap >= 0.0


def test_privacy_curve_exact_column():
    config = GaussianConfig(sigma=20.0)
    rows = privacy_curve(config, 1e-5, [10.0], exact=True)
    assert rows[0].eps_ours_exact is not None
    assert rows[0].eps_ours_exact <= rows[0].eps_ours + 1e-6


def test_privacy_curve_validation():
    config = GaussianConfig(sigma=20.0)
    with pytest.raises(DomainError):
        privacy_curve(config, 1e-5, [])
    with pytest.raises(DomainError):
        privacy_curve(config, 0.0, [10.0])


_RHO = 0.00125  # sigma = 20
_TINY = 1e-310  # below 1/DBL_MAX, where log(1/delta) is infinite


@pytest.mark.parametrize(
    "call",
    [
        lambda: ma_epsilon(_RHO, 1000, _TINY),
        lambda: acct_epsilon(_RHO, 1000, _TINY),
        lambda: acct_epsilon(_RHO, 1000, _TINY, "exact"),
        lambda: ma_max_iterations(_RHO, 6.0, _TINY),
        lambda: max_iterations(_RHO, 6.0, _TINY),
        lambda: ma_required_variance(100, 1.0, _TINY),
        lambda: required_variance(100, 1.0, _TINY),
        lambda: privacy_curve(GaussianConfig(sigma=20.0), _TINY, [10.0]),
    ],
    ids=[
        "ma_epsilon",
        "acct_epsilon",
        "acct_epsilon_exact",
        "ma_max_iterations",
        "max_iterations",
        "ma_required_variance",
        "required_variance",
        "privacy_curve",
    ],
)
def test_delta_too_small_to_invert(call):
    # log(1/delta) is infinite here: no entry point may answer inf or 0, or
    # fail on a derived quantity without naming delta
    with pytest.raises(DomainError, match=r"delta must be at least 1/DBL_MAX.*1e-310"):
        call()
