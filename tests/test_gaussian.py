"""Gaussian-mechanism composition accounting."""

import copy
import math
import pickle
import random
import re
import sys

import mpmath
import numpy as np
import pytest

from rdpopt import conversion, gaussian
from rdpopt.conversion import balle_epsilon, epsilon_bound, gamma_exact
from rdpopt.errors import DomainError, InfeasibleError
from rdpopt.gaussian import (
    AccountedEpsilon,
    GaussianConfig,
    RenyiCurve,
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
from rdpopt.optimize import DEFAULT_ABS_TOL, MAX_STEPS

from conftest import bisect_reference
from reference_search import minimize_unimodal


def test_rho_gaussian():
    assert rho_gaussian(20.0) == 0.00125
    assert rho_gaussian(1.0) == 0.5
    for sigma in (0.0, -1.0):
        with pytest.raises(DomainError):
            rho_gaussian(sigma)
    for sigma in (1e-200, 1e-160):  # sigma^2 underflows to 0, or to a subnormal with no finite reciprocal
        with pytest.raises(DomainError):
            rho_gaussian(sigma)
    for sigma in (1e155, 1e200):  # sigma^2 overflows, and the rate underflows to 0: the error names sigma, not rho
        with pytest.raises(DomainError, match=re.escape(f"Renyi rate underflows to 0 at sigma = {sigma!r}: ")):
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
    # q^2 underflows, or sigma^2 overflows: the rate underflows to 0, and the error names sigma and q
    with pytest.raises(DomainError, match=r"Renyi rate underflows to 0 at sigma = 1\.0, q = 1e-200: "):
        rho_subsampled(1.0, 1e-200)
    with pytest.raises(DomainError, match=r"Renyi rate underflows to 0 at sigma = 1e\+200, q = 0\.5: "):
        rho_subsampled(1e200, 0.5)


def test_gaussian_config():
    cfg = GaussianConfig(sigma=20.0)
    assert cfg.rho == 0.00125
    cfg = GaussianConfig(sigma=4.0, subsampling_q=0.001)
    assert math.isclose(cfg.rho, 6.256256256256256e-08, rel_tol=1e-15)
    assert list(GaussianConfig._fields) == ["sigma", "subsampling_q"]
    with pytest.raises(TypeError):  # q is keyword-only, so that no sensitivity passed by position reads as q
        GaussianConfig(4.0, 0.001)
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
    # past rho*T = DBL_MAX/(4 log(1/delta)), about 3.9e306 at delta = 1e-5,
    # 4 rho*T log(1/delta) overflows but the answer does not
    assert ma_epsilon(4e307, 1, 1e-5) == 4e307
    assert ma_epsilon(1.7e308, 1, 1e-5) == 1.7e308
    big_l = math.log(1e5)
    for s in (sys.float_info.max / (4.0 * big_l) * 0.999, sys.float_info.max / (4.0 * big_l) * 1.001):
        want = s + math.sqrt(4.0 * s) * math.sqrt(big_l)
        assert math.isclose(ma_epsilon(s, 1, 1e-5), want, rel_tol=1e-15), s
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


# closed-form epsilon at the four reference points.  The first two are the
# moment piece's minimum over orders, whose 50-digit values are
# 8.078359548144446548... and 5.0370343553723645497...; each pin lies within
# one ulp of it (0.24 ulp below and 0.12 ulp above), where the Newton steps
# on the piece's slope land.  The last two are frozen from earlier scans
ACCOUNTANT_POINTS = [
    (rho_gaussian(20.0), 1000.0, 1e-5, 8.078359548144446),
    (rho_gaussian(20.0), 1000.0, 1e-2, 5.037034355372365),
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


def _closed_form_inputs(rng: random.Random, n: int, rate_lo: float, rate_hi: float, delta_lo: float, delta_hi: float):
    """n seeded (rho*T, delta): every other total rate is a subsampled step's times T."""
    out = []
    for i in range(n):
        if i % 2:
            T = round(_log_uniform(rng, 1.0, 1e5))
            rho_T = rho_subsampled(_log_uniform(rng, 0.5, 30.0), _log_uniform(rng, 1e-4, 0.5)) * T
            rho_T = min(max(rho_T, rate_lo), rate_hi)
        else:
            rho_T = _log_uniform(rng, rate_lo, rate_hi)
        out.append((rho_T, _log_uniform(rng, delta_lo, delta_hi)))
    return out


def test_closed_form_pieces_are_unimodal_in_u():
    # the closed-form order solves find the moment piece's minimum where its
    # slope crosses 0, which is the minimum when the piece is unimodal in
    # u = log(alpha - 1): proved for the moment piece of epsilon_bound,
    # sampled here for the moment piece _largest_rate inverts.  The chi
    # pieces, which no solve steps on, are sampled too: the reference scans
    # below, which check that the chi piece never wins, scan them as unimodal
    rng = random.Random(15)
    for rho_T, delta in _closed_form_inputs(rng, 240, 1e-12, 1e3, 1e-30, 0.99):
        eps = _log_uniform(rng, 1e-4, 100.0)
        pieces = {
            "moment": lambda a: conversion._moment_epsilon_piece(a, rho_T * a, delta),
            "chi": lambda a: conversion._chi_epsilon_piece(a, rho_T * a, delta),
            "moment inverse": lambda a: -conversion._moment_gamma_piece(a, eps, delta) / a,
            "chi inverse": lambda a: -conversion._chi_gamma_piece(a, eps, delta) / a,
        }
        u_lo, u_hi = gaussian._order_range(delta)
        us = np.linspace(u_lo, u_hi, 514)[1:-1]
        for name, piece in pieces.items():
            values = np.array([piece(1.0 + math.exp(float(u))) for u in us])
            i = int(values.argmin())
            steps = np.diff(values)
            tol = 1e-12 * float(np.abs(values).max())
            case = (name, rho_T, eps, delta)
            assert steps[:i].max(initial=-math.inf) <= tol, case
            assert steps[i:].min(initial=math.inf) >= -tol, case
        # the proof behind the moment piece's scan: before its clamp, its slope
        # is rho_T - (L - log alpha)/(alpha - 1)^2, L = log(1/delta), and the
        # second term falls on (1, 1/delta); checked against central differences
        unclamped = lambda a: rho_T * a + (conversion._log_zeta(a) - math.log(delta)) / (a - 1.0)
        tails = []
        for alpha in np.geomspace(1.0 + 1e-3, 0.999 / delta, 16):
            alpha = float(alpha)
            h = 1e-6 * (alpha - 1.0)
            numeric = (unclamped(alpha + h) - unclamped(alpha - h)) / (2.0 * h)
            tails.append((math.log(1.0 / delta) - math.log(alpha)) / (alpha - 1.0) ** 2)
            want = rho_T - tails[-1]
            assert math.isclose(numeric, want, rel_tol=1e-5, abs_tol=1e-5 * (rho_T + tails[-1])), (rho_T, delta, alpha)
        assert all(b < a for a, b in zip(tails, tails[1:])), (rho_T, delta)


def _count_order_evaluations(monkeypatch) -> list[int]:
    # one count per order solve: the evaluations of the slope it takes Newton
    # steps on, appended as the solve starts
    counts = []
    real = gaussian._newton_invert

    def counted_solve(fn, *args, **kwargs):
        k = len(counts)
        counts.append(0)

        def counted(x):
            counts[k] += 1
            return fn(x)

        return real(counted, *args, **kwargs)

    monkeypatch.setattr(gaussian, "_newton_invert", counted_solve)
    return counts


def test_closed_form_accountant_takes_few_evaluations(monkeypatch):
    # Newton's steps on the moment piece's slope from the moments
    # accountant's order, one solve an answer: about 4 evaluations an
    # acct_epsilon answer and 5 a required_variance answer, where the 8-point
    # grid refined by Brent's steps on both pieces took about 57 and 63
    inputs = _closed_form_inputs(random.Random(17), 300, 1e-8, 50.0, 1e-12, 0.5)
    counts = _count_order_evaluations(monkeypatch)
    for rho_T, delta in inputs:
        acct_epsilon(rho_T, 1, delta)
    assert len(counts) == len(inputs)
    assert sum(counts) / len(inputs) <= 6.0, sum(counts) / len(inputs)
    counts.clear()
    for k, (rho_T, delta) in enumerate(inputs):
        required_variance(1, 0.05 * 1.02**k, delta)  # budgets 0.05 to 18
    assert len(counts) == len(inputs)
    assert sum(counts) / len(inputs) <= 7.0, sum(counts) / len(inputs)


def _mp_order_piece(rate: float, delta: float):
    # the moment piece of epsilon_bound at gamma = rate alpha, alpha = 1 + e^u,
    # in mpmath, unclamped
    par, d = mpmath.mpf(rate), mpmath.mpf(delta)
    big_l = -mpmath.log(d)

    def moment_eps(u):
        a = mpmath.exp(u)
        return par * (1 + a) + mpmath.log1p(-1 / (1 + a)) + (big_l - mpmath.log(1 + a)) / a

    return moment_eps


def _mp_rate_piece(eps: float, delta: float):
    # the moment piece's negated largest rate -gamma_alpha(eps)/alpha, alpha = 1 + e^u, in mpmath
    e, d = mpmath.mpf(eps), mpmath.mpf(delta)
    big_l = -mpmath.log(d)

    def moment_rate(u):
        a = mpmath.exp(u)
        return -(e - mpmath.log1p(-1 / (1 + a)) - (big_l - mpmath.log(1 + a)) / a) / (1 + a)

    return moment_rate


def _slope_inputs(floor=gaussian._FLOAT_FLOOR):
    # 60 seeded (rate or budget, delta), half moderate and half from 1e+-100
    # with delta down to 1e-300, and four orders across the range from floor each
    rng = random.Random(24)
    for k in range(60):
        wide = k % 2
        par = _log_uniform(rng, 1e-100, 1e100) if wide else _log_uniform(rng, 1e-8, 50.0)
        delta = _log_uniform(rng, 1e-300 if wide else 1e-30, 0.9)
        u_lo, u_hi = gaussian._order_range(delta, floor)
        yield par, delta, [u_lo + frac * (u_hi - u_lo) for frac in (0.0, 0.3, 0.7, 0.99)]


def test_order_slopes_match_mpmath():
    # value, slope and curvature in u of the moment piece the closed-form
    # order solve of acct_epsilon takes Newton steps on, against 40-digit
    # derivatives across the order range.  Each agrees with mpmath to 1e-12
    # of the larger of the derivative and the piece's value, or to 1e-300
    # where those underflow; orders where the piece overflows are skipped
    checked = 0
    for par, delta, us in _slope_inputs():
        piece = gaussian._epsilon_piece(par, delta)
        for u in us:
            got = piece(u)
            if not all(math.isfinite(v) for v in got):
                continue
            with mpmath.workdps(40):
                mp_piece = _mp_order_piece(par, delta)
                x = mpmath.log(mpmath.mpf(1.0 + math.exp(u)) - 1)
                value = mp_piece(x)
                want = [max(value, 0)] + [mpmath.diff(mp_piece, x, n) for n in (1, 2)]
            for n, (g, w) in enumerate(zip(got, want)):
                bound = 1e-12 * max(abs(w), abs(value)) + 1e-300
                assert abs(g - w) <= bound, (par, delta, u, n, g, float(w))
            checked += 1
    assert checked >= 200, checked


def test_rate_pieces_steer_by_the_rate_slope():
    # _largest_rate's piece carries the moment epsilon piece's slope and
    # curvature in u at the divergence gamma_alpha(eps) each order allows.
    # The slope has the sign of the 40-digit derivative of
    # -gamma_alpha(eps)/alpha wherever that derivative is above 1e-12 of the
    # rate (below it the rate is flat to rounding), and 0.01 either side of
    # the piece's maximum its Newton step agrees with that derivative's to
    # 5%: the two differ by about 2% there, in proportion to the distance.
    # Orders from alpha - 1 = 1e-6: below it the maxima of huge budgets are
    # flat to 1e-12 of the rate, where neither check applies
    checked = near = 0
    for eps, delta, us in _slope_inputs(gaussian._EXACT_FLOOR):
        u_lo, u_hi = gaussian._order_range(delta, gaussian._EXACT_FLOOR)
        piece = gaussian._rate_piece(eps, delta)
        u_max = gaussian._newton_invert(lambda u: piece(u)[1:], 0.0, u_lo, u_hi, DEFAULT_ABS_TOL)
        around = [u_max - 0.01, u_max + 0.01]
        for u in us + around:
            _, first, second = piece(u)
            if not (u_lo <= u <= u_hi and math.isfinite(first)):
                continue
            with mpmath.workdps(40):
                mp_piece = _mp_rate_piece(eps, delta)
                x = mpmath.log(mpmath.mpf(1.0 + math.exp(u)) - 1)
                rate, *want = [mpmath.diff(mp_piece, x, n) for n in (0, 1, 2)]
            if abs(want[0]) <= 1e-12 * abs(rate):
                continue
            case = (eps, delta, u, first, float(want[0]))
            assert first * want[0] > 0, case
            checked += 1
            if u in around:
                step, mp_step = first / second, want[0] / want[1]
                assert abs(step - mp_step) <= 0.05 * abs(mp_step), case + (step, float(mp_step))
                near += 1
    assert checked >= 300 and near >= 100, (checked, near)


def _unimodal_scan(pieces, objective, delta: float) -> tuple[float, float]:
    # the reference: the order scan the closed-form Newton solves replaced.
    # Each piece, a function of alpha, is scanned over u = log(alpha - 1) by
    # minimize_unimodal (8 grid points refined by Brent's steps), and the
    # objective at the lowest piece's order is compared with its value at
    # alpha = 1/delta, stepped up one float where 1/delta rounds down
    u_lo, u_hi = gaussian._order_range(delta)
    scans = [minimize_unimodal(lambda u, f=f: f(1.0 + math.exp(u)), u_lo, u_hi) for f in pieces]
    alpha = 1.0 + math.exp(min(scans, key=lambda r: r[1])[0])
    alpha_end = 1.0 / delta
    if alpha_end * delta < 1.0 and math.nextafter(alpha_end, math.inf) < math.inf:
        alpha_end = math.nextafter(alpha_end, math.inf)
    return min((objective(alpha), alpha), (objective(alpha_end), alpha_end))


def test_order_solves_are_no_worse_than_the_unimodal_scan(monkeypatch):
    # on the seeded inputs and on 20 000 extreme ones (total rate and budget
    # log-uniform in [1e-300, 1e300], delta in [1e-300, 0.999]), every
    # closed-form epsilon is finite and at most the reference scan's, and
    # every largest rate at least its, to 1e-13 relative.  The reference
    # scans both pieces and the solves only the moment piece, so this is
    # also the check that the chi piece never wins.  No solve comes near
    # the iteration cap: the most evaluations any solve takes here is 20,
    # and the mean is 2.7
    rng = random.Random(24)
    inputs = [(rho_T, _log_uniform(rng, 1e-4, 100.0), delta) for rho_T, delta in _closed_form_inputs(rng, 300, 1e-8, 50.0, 1e-30, 0.9)]
    for _ in range(20000):
        inputs.append((_log_uniform(rng, 1e-300, 1e300), _log_uniform(rng, 1e-300, 1e300), _log_uniform(rng, 1e-300, 0.999)))
    counts = _count_order_evaluations(monkeypatch)
    for rho_T, eps, delta in inputs:
        r = acct_epsilon(rho_T, 1, delta)
        want, _ = _unimodal_scan(
            (lambda a: conversion._moment_epsilon_piece(a, rho_T * a, delta), lambda a: conversion._chi_epsilon_piece(a, rho_T * a, delta)),
            lambda a: conversion._epsilon_bound(a, rho_T * a, delta)[0],
            delta,
        )
        assert math.isfinite(r.epsilon) and r.epsilon <= want * (1.0 + 1e-13), (rho_T, delta, r.epsilon, want)
        rate, _ = gaussian._largest_rate(eps, delta, "closed_form")
        neg_rate, _ = _unimodal_scan(
            (lambda a: -conversion._moment_gamma_piece(a, eps, delta) / a, lambda a: -conversion._chi_gamma_piece(a, eps, delta) / a),
            lambda a: -conversion._gamma_of_epsilon_bound(a, eps, delta) / a,
            delta,
        )
        assert rate >= -neg_rate * (1.0 - 1e-13), (eps, delta, rate, -neg_rate)
    assert len(counts) == 2 * len(inputs)
    assert max(counts) <= 30 < MAX_STEPS, max(counts)


def test_closed_form_answers_are_no_worse_than_a_fine_order_grid():
    # the moment piece solved alone finds the minimum over orders of the
    # whole epsilon_bound, both pieces, that a 4096-point grid of orders
    # finds, and the largest rate its maximum: the check, with no assumption
    # of unimodality, that the chi piece never wins by more than the grid
    # resolves.  The last 60 draws are large total rates and budgets at
    # small delta, where the chi piece's minimum sits only 4e-6 to 3e-3
    # relative above the answer, within 0.01 in log(alpha - 1) of its order,
    # and the chi rate's maximum as close below
    rng = random.Random(18)
    inputs = [(rho_T, _log_uniform(rng, 1e-4, 100.0), delta) for rho_T, delta in _closed_form_inputs(rng, 300, 1e-8, 50.0, 1e-30, 0.9)]
    for _ in range(60):
        inputs.append((_log_uniform(rng, 1e2, 1e6), _log_uniform(rng, 1e2, 1e6), _log_uniform(rng, 1e-300, 1e-5)))
    for rho_T, eps, delta in inputs:
        orders = [1.0 + float(x) for x in np.geomspace(1e-6, 1.0 / delta - 1.0, 4096)] + [1.0 / delta]
        r = acct_epsilon(rho_T, 1, delta)
        best = min(conversion._epsilon_bound(a, rho_T * a, delta)[0] for a in orders)
        assert r.epsilon <= best * (1.0 + 1e-12), (rho_T, delta, r.epsilon - best)
        rate, _ = gaussian._largest_rate(eps, delta, "closed_form")
        best = max(conversion._gamma_of_epsilon_bound(a, eps, delta) / a for a in orders)
        assert rate >= best * (1.0 - 1e-12), (eps, delta, best - rate)


def test_acct_epsilon_beats_ma_baseline():
    for T in (1.0, 10.0, 100.0, 1000.0):
        ours = acct_epsilon(1.0 / 800.0, T, 1e-5).epsilon
        assert ours <= ma_epsilon(1.0 / 800.0, T, 1e-5) + 1e-12
    assert acct_epsilon(1.0 / 800.0, 100.0, 1e-5).epsilon <= 2.5242629560940406


def test_closed_form_orders_reach_the_lowest_float_order():
    # from rho T = L 1e12 on, L = log(1/delta), the moments accountant's order
    # alpha - 1 = sqrt(L / rho T) lies below exact mode's floor of 1e-6.  The
    # closed-form solves search down to alpha - 1 = 2^-52, so closed form stays
    # at the moments accountant or below it; with the floor at 1e-6 this gave
    # 46 000 057 512 910.65
    r = acct_epsilon(1.0, 4.6e13, 1e-5)
    assert r.epsilon <= ma_epsilon(1.0, 4.6e13, 1e-5) == 46000046025843.67
    assert r.argmin_alpha - 1.0 < 1e-6
    # on a sweep up to rho T = 1e300 the two agree to rounding, 4 ulps at most:
    # the moment piece lies below the moments accountant's conversion by
    # about log(1/(alpha - 1)), a few ulps of rho T, and past rho T = L 2^104
    # the accountant's order lies nearer 1 than 1 + 2^-52.  The same holds for
    # the largest rate and its variance
    rng = random.Random(44)
    for _ in range(300):
        delta = _log_uniform(rng, 1e-300, 0.5)
        rho_T = _log_uniform(rng, 1e12, 1e300)
        assert acct_epsilon(rho_T, 1, delta).epsilon <= ma_epsilon(rho_T, 1, delta) * (1.0 + 2.0**-50), (rho_T, delta)
        sigma_sq = required_variance(1, rho_T, delta).sigma_sq
        assert sigma_sq <= ma_required_variance(1, rho_T, delta) * (1.0 + 2.0**-50), (rho_T, delta)


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


def _count_solves(monkeypatch) -> list[int]:
    solves = [0]
    real = conversion._frontier

    def counted(*args):
        solves[0] += 1
        return real(*args)

    monkeypatch.setattr(gaussian, "_frontier", counted)
    monkeypatch.setattr(conversion, "_frontier", counted)
    return solves


def test_gamma_zero_answers_take_no_frontier_solve(monkeypatch):
    # the closed-form bounds are 0 at gamma = 0, and the exact searches return
    # their bracket [0, 0] as it is: the answer is 0 with no frontier solve
    solves = _count_solves(monkeypatch)
    for alpha in (1.5, 2.0, 10.0):
        for delta in (1e-300, 1e-9, 0.1, 0.6):
            assert conversion.epsilon_exact(alpha, 0.0, delta).value == 0.0, (alpha, delta)
        for eps in (0.0, 1.0, 1000.0):
            assert conversion.delta_exact(alpha, 0.0, eps).value == 0.0, (alpha, eps)
    r = acct_epsilon(RenyiCurve([2.0, 8.0], [0.0, 0.0]), 10, 1e-5, "exact")
    assert (r.epsilon, r.argmin_alpha, r.active_branch) == (0.0, 2.0, None)
    assert solves[0] == 0


def _primal_exact_epsilon(rho: float, T: float, delta: float) -> float:
    # the reference: exact mode as a primal order scan, the minimum over orders
    # of the epsilon that inverts the frontier at rho*T*alpha, each found by
    # bisection up to its closed-form bound.  The orders are scanned apart
    # from the accountant's own scan: 64 points in log(alpha - 1), refined
    # between the best one's neighbours, plus alpha = 1/delta and the
    # closed-form argmin
    rho_T = rho * T

    def eps_at(alpha: float) -> float:
        gamma = rho_T * alpha
        frontier = lambda e: gamma_exact(alpha, e, delta).value
        gamma_lo = frontier(0.0)
        if gamma_lo >= gamma:
            return 0.0
        bound = epsilon_bound(alpha, gamma, delta).value
        hi = max(bound, 1e-9) * (1.0 + 1e-9) + 1e-12
        while frontier(hi) < gamma:
            hi *= 2.0
        return min(bisect_reference(frontier, gamma, 0.0, hi, 1e-9), bound)

    eps_at_u = lambda u: eps_at(1.0 + math.exp(u))
    us = np.linspace(*gaussian._order_range(delta, gaussian._EXACT_FLOOR), 64).tolist()
    values = [eps_at_u(u) for u in us]
    i = int(np.argmin(values))
    _, refined = minimize_unimodal(eps_at_u, us[max(i - 1, 0)], us[min(i + 1, 63)], 1e-6)
    return min(values[i], refined, eps_at(1.0 / delta), eps_at(acct_epsilon(rho, T, delta).argmin_alpha))


def test_exact_accountant_matches_the_primal_scan(monkeypatch):
    # plain Gaussian inputs over the benchmark's exact-mode ranges: mu =
    # sqrt(T)/sigma in [0.1, 4], sigma in [0.5, 30], delta in [1e-9, 1e-3]
    rng = random.Random(10)
    inputs = []
    while len(inputs) < 20:
        mu, delta = _log_uniform(rng, 0.1, 4.0), _log_uniform(rng, 1e-9, 1e-3)
        T = round(_log_uniform(rng, max(1.0, (0.5 * mu) ** 2), (30.0 * mu) ** 2))
        inputs.append((rho_gaussian(math.sqrt(T) / mu), T, delta))
    references = [_primal_exact_epsilon(*args) for args in inputs]
    solves = _count_solves(monkeypatch)
    for (rho, T, delta), primal in zip(inputs, references):
        solves[0] = 0
        r = acct_epsilon(rho, T, delta, "exact")
        # the primal scan took 700 to 1250, a scan of all orders at every step 291,
        # golden-section searches in p 117, and a windowed scan of the orders
        # up to 75; Newton steps on the rate's slope in the order take at most 9
        assert 1 <= solves[0] <= 15, (rho, T, delta, solves[0])
        # certified at its order by the frontier the accountant searches
        certificate = gamma_exact(r.argmin_alpha, r.epsilon, delta).value
        assert certificate >= rho * T * r.argmin_alpha, (rho, T, delta)
        assert r.epsilon <= acct_epsilon(rho, T, delta).epsilon
        assert r.epsilon <= primal + 1e-9, (rho, T, delta, r.epsilon - primal)


def test_exact_answers_at_large_delta_take_few_solves(monkeypatch):
    # at delta >= 0.3 the optimum sits at or near the order floor
    # alpha - 1 = 1e-6, where the 8-point grid scan of the orders took up to
    # 901 frontier solves an answer here (sigma = 1, T = 10, delta = 0.9)
    solves = _count_solves(monkeypatch)
    seen = 0
    for sigma in (0.5, 1.0, 2.0, 4.0):
        for T in (1, 3, 10):
            for delta in (0.3, 0.5, 0.9):
                solves[0] = 0
                r = acct_epsilon(rho_gaussian(sigma), T, delta, "exact")
                # a closed-form answer of 0 leaves nothing to solve
                assert solves[0] <= 40, (sigma, T, delta, solves[0])
                seen += solves[0]
                certificate = gamma_exact(r.argmin_alpha, r.epsilon, delta).value
                assert certificate >= rho_gaussian(sigma) * T * r.argmin_alpha, (sigma, T, delta)
    assert seen >= 1


def test_exact_answer_no_frontier_certifies_is_the_closed_form_one():
    # no epsilon the Newton steps tried has a gamma_exact margin >= 0 here:
    # gamma_exact at the closed-form answer and order falls about 2.8e-14
    # short of rho*T*alpha.  Exact mode then returns the closed-form answer
    # and order unchanged, which epsilon_bound certifies
    rho, T, delta = rho_gaussian(0.7990054563043374), 130, 3.8046364219039405e-11
    r, closed = acct_epsilon(rho, T, delta, "exact"), acct_epsilon(rho, T, delta)
    assert (r.epsilon, r.argmin_alpha) == (closed.epsilon, closed.argmin_alpha)
    assert math.isclose(r.epsilon, 198.7275032485034, rel_tol=1e-12)
    assert epsilon_bound(r.argmin_alpha, rho * T * r.argmin_alpha, delta).value <= r.epsilon


def _scanned_exact_rate(epsilon: float, delta: float, centre: float):
    # the reference for exact mode's order solve: the scan it replaced, over
    # all orders whatever the centre, on minimize_unimodal's 8-point grid in
    # log(alpha - 1) refined by Brent's steps to 1e-6, then the end order
    solves = {}

    def neg_rate(alpha: float) -> float:
        if alpha not in solves:
            solves[alpha] = conversion._frontier(alpha, epsilon, delta)
        return -solves[alpha][0] / alpha

    u, _ = minimize_unimodal(lambda u: neg_rate(1.0 + math.exp(u)), *gaussian._order_range(delta, gaussian._EXACT_FLOOR), 1e-6)
    alpha, _ = gaussian._end_order(1.0 + math.exp(u), neg_rate, delta)
    gamma, state = solves[alpha]
    return alpha, gamma, conversion._envelope(alpha, epsilon, delta, state)


def test_order_solve_matches_the_global_scan(monkeypatch):
    # small T; delta >= 0.1, where the optimum sits near 1/delta or at
    # alpha -> 1; every answer within 1e-9 of the scan of all orders, and
    # certified by gamma_exact at its reported order
    inputs = [(rho_gaussian(s), T, d) for s in (0.5, 1.0, 4.0, 20.0) for T in (1, 2) for d in (1e-9, 1e-5, 1e-2)]
    inputs += [(rho, T, d) for rho in (1e-3, 0.1, 1.0, 10.0) for T in (1, 2, 10) for d in (0.1, 0.3, 0.5, 0.9)]
    budgets = [(eps, d) for eps in (0.1, 1.0, 6.0, 30.0) for d in (1e-9, 1e-5, 0.1, 0.5, 0.9)]
    solved = [acct_epsilon(*args, "exact") for args in inputs]
    rates = [gaussian._largest_rate(eps, d, "exact") for eps, d in budgets]
    # started at 1/delta itself, where alpha * delta >= 1 and gamma_exact takes its edge value
    edge_rates = [gaussian._exact_rate(eps, d, 1.0 / d) for eps, d in budgets]
    with monkeypatch.context() as m:
        m.setattr(gaussian, "_exact_rate", _scanned_exact_rate)
        everywhere = [acct_epsilon(*args, "exact").epsilon for args in inputs]
        best_rates = [gaussian._largest_rate(eps, d, "exact")[0] for eps, d in budgets]
    for (rho, T, delta), r, want in zip(inputs, solved, everywhere):
        assert r.epsilon <= want + 1e-9, (rho, T, delta, r.epsilon - want)
        certificate = gamma_exact(r.argmin_alpha, r.epsilon, delta).value
        assert certificate >= rho * T * r.argmin_alpha, (rho, T, delta)
    for (eps, delta), (rate, alpha), (edge_alpha, edge, _), want in zip(budgets, rates, edge_rates, best_rates):
        assert rate >= want - 1e-9, (eps, delta, want - rate)
        assert edge / edge_alpha >= want - 1e-9, (eps, delta, want - edge / edge_alpha)
        assert rate <= gamma_exact(alpha, eps, delta).value / alpha, (eps, delta)


def test_exact_scan_of_all_orders_is_no_worse_than_a_256_order_sample():
    # exact mode's order solve of the negated rate -gamma_exact(alpha, eps,
    # delta)/alpha over all orders, from _largest_rate's closed-form order.
    # Minima are compared, not monotonicity.  At delta of about 0.1 the
    # maximum sits at or near the order floor alpha - 1 = 1e-6, where the
    # rate is flat: there gamma_exact must keep its digits, or the sample's
    # luckiest rounding beats any solve
    rng = random.Random(16)
    for k in range(40):
        eps = _log_uniform(rng, 1e-3, 30.0)
        delta = _log_uniform(rng, 1e-30, 0.01) if k % 2 else rng.uniform(0.01, 0.99)
        neg_rate = lambda a: -gamma_exact(a, eps, delta).value / a
        alpha, gamma, _ = gaussian._exact_rate(eps, delta, gaussian._largest_rate(eps, delta, "closed_form")[1])
        value = -gamma / alpha
        sample = min(neg_rate(1.0 + math.exp(u)) for u in np.linspace(*gaussian._order_range(delta, gaussian._EXACT_FLOOR), 256).tolist())
        assert value <= sample + 1e-9 * abs(sample), (eps, delta, value - sample)


def _count_order_steps(monkeypatch) -> list[int]:
    # the piece evaluations of the order solves, counted across every solve
    steps = [0]
    real = gaussian._solve_orders

    def counted(piece, objective, delta, start, *rest):
        def step(u):
            steps[0] += 1
            return piece(u)

        return real(step, objective, delta, start, *rest)

    monkeypatch.setattr(gaussian, "_solve_orders", counted)
    return steps


def test_order_solve_finds_minima_far_from_its_start(monkeypatch):
    steps = _count_order_steps(monkeypatch)
    # a bowl in u = log(alpha - 1) with its minimum at alpha = 1 + e^2, from
    # starts 7 below and half a unit above: Newton's step lands on it at once
    bowl = lambda u: ((u - 2.0) ** 2, 2.0 * (u - 2.0), 2.0)
    bowl_at = lambda a: (math.log(a - 1.0) - 2.0) ** 2
    for start in (-5.0, 2.5):
        steps[0] = 0
        alpha, _ = gaussian._solve_orders(bowl, bowl_at, 1e-5, start)
        assert math.isclose(alpha, 1.0 + math.exp(2.0), rel_tol=1e-5)
        assert steps[0] <= 3, (start, steps[0])
    # a minimum at 1/delta, where the piece still falls at the top of the range: the end wins
    fall = lambda u: (-1.0 - math.exp(u), -math.exp(u), -math.exp(u))
    alpha, _ = gaussian._solve_orders(fall, lambda a: -a, 0.25, math.log(3.0))
    assert alpha == 4.0
    # exact mode's rate from both ends of the order range reaches the same
    # maximum.  At eps = 10, delta = 1e-20 gamma_exact rounds to 0 next to eps
    # at the order floor, where the rate and its slope both read 0.0: the
    # solve reads that start as below its maximum and goes on, where it
    # stopped and let the end order win with a rate of 1e-19, not 0.5245
    for eps, delta in [(1.0, 1e-5), (3.0, 1e-9), (0.3, 1e-3), (6.0, 0.01), (0.5, 0.1), (1.0, 0.3), (0.05, 0.5), (10.0, 1e-20)]:
        rates = []
        for centre in (1.0 + 1e-6, 1.0 / delta):
            alpha, gamma, _ = gaussian._exact_rate(eps, delta, centre)
            rates.append(gamma / alpha)
        assert abs(rates[0] - rates[1]) <= 1e-9 * max(rates), (eps, delta, rates)


def test_order_solve_follows_the_last_winning_order(monkeypatch):
    # each Newton step in epsilon starts its order solve at the order the
    # step before won, and the first at the closed-form argmin, so that later
    # solves start next to their answer and take few steps
    inputs = [(rho_gaussian(s), T, d) for s in (0.5, 1.0, 4.0, 20.0) for T in (1, 2) for d in (1e-9, 1e-5, 1e-2)]
    inputs += [(rho, T, d) for rho in (1e-3, 0.1, 1.0, 10.0) for T in (1, 2, 10) for d in (0.1, 0.3, 0.5, 0.9)]
    centres, won = [], []
    real = gaussian._exact_rate

    def recorded(eps: float, delta: float, centre: float):
        centres.append(centre)
        alpha, gamma, slopes = real(eps, delta, centre)
        won.append(alpha)
        return alpha, gamma, slopes

    monkeypatch.setattr(gaussian, "_exact_rate", recorded)
    for rho, T, delta in inputs:
        centres.clear()
        won.clear()
        acct_epsilon(rho, T, delta, "exact")
        assert not centres or centres[0] == acct_epsilon(rho, T, delta).argmin_alpha, (rho, T, delta)
        assert centres[1:] == won[:-1], (rho, T, delta, centres, won)


def test_end_order_takes_the_edge_value(monkeypatch):
    # 1/delta rounds down at delta = 1e-5, so that alpha delta < 1 at the end
    # order alpha = 1.0 / delta; the scan must step it up to alpha delta >= 1,
    # where gamma_exact returns its edge value without a frontier search
    delta = 1e-5
    assert (1.0 / delta) * delta < 1.0
    orders = []
    real = gaussian._frontier
    monkeypatch.setattr(gaussian, "_frontier", lambda alpha, *args: orders.append(alpha) or real(alpha, *args))
    for rho, T in [(1.0 / 800.0, 1000), (0.5, 1), (1e-4, 10)]:
        acct_epsilon(rho, T, delta, "exact")
        max_iterations(rho, 6.0, delta, "exact")
    near_end = [alpha for alpha in orders if abs(alpha * delta - 1.0) < 1e-14]
    assert near_end and all(alpha * delta >= 1.0 for alpha in near_end)


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
    # a budget whose gallop passes rho*T = DBL_MAX/(4 log(1/delta))
    T_ma = ma_max_iterations(5e299, 1e308, 1e-5)
    assert T_ma == 200_000_000
    assert ma_epsilon(5e299, T_ma, 1e-5) <= 1e308 < ma_epsilon(5e299, T_ma + 1, 1e-5)
    with pytest.raises(DomainError):
        max_iterations(0.001, 0.0, 1e-5)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _doubling_largest_T(eps_at, budget: float) -> int:
    # reference search: double T from 1 until the budget is crossed, then bisect
    if eps_at(1) > budget:
        return 0
    lo, hi = 1, 2
    while eps_at(hi) <= budget:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if eps_at(mid) <= budget:
            lo = mid
        else:
            hi = mid
    return lo


def _solve_for_inputs(n: int) -> list[tuple[float, float, float]]:
    """(rho, eps, delta) over the benchmark's max_t ranges: plain sigma in [0.5, 30], or subsampled."""
    rng = random.Random(6)
    out = []
    for i in range(n):
        eps, delta = _log_uniform(rng, 0.5, 10.0), _log_uniform(rng, 1e-9, 1e-3)
        if i % 2:
            rho = rho_subsampled(_log_uniform(rng, 1.0, 8.0), _log_uniform(rng, 1e-4, 3e-2))
        else:
            rho = rho_gaussian(_log_uniform(rng, 0.5, 30.0))
        out.append((rho, eps, delta))
    return out


def test_max_iterations_match_the_doubling_search():
    for rho, eps, delta in _solve_for_inputs(200):
        want = _doubling_largest_T(lambda T: acct_epsilon(rho, T, delta).epsilon, eps)
        assert max_iterations(rho, eps, delta) == want, (rho, eps, delta)
        want_ma = _doubling_largest_T(lambda T: ma_epsilon(rho, T, delta), eps)
        assert ma_max_iterations(rho, eps, delta) == want_ma, (rho, eps, delta)


def _count_acct_calls(monkeypatch) -> list[int]:
    calls = [0]
    real = gaussian.acct_epsilon

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(gaussian, "acct_epsilon", counted)
    return calls


def test_max_iterations_checks_few_integers(monkeypatch):
    calls = _count_acct_calls(monkeypatch)
    for rho, eps, delta in _solve_for_inputs(40):
        calls[0] = 0
        max_iterations(rho, eps, delta)
        assert calls[0] <= 4, (rho, eps, delta, calls[0])


def test_max_iterations_exact_mode(monkeypatch):
    calls = _count_acct_calls(monkeypatch)
    solves = _count_solves(monkeypatch)
    rho, delta = 1.0 / 800.0, 1e-5
    T = max_iterations(rho, 6.0, delta, "exact")
    assert T == 603
    assert calls[0] <= 3
    assert 1 <= solves[0] <= 130  # 484 with scans of all orders, 195 with golden section
    assert acct_epsilon(rho, T, delta, "exact").epsilon <= 6.0
    assert acct_epsilon(rho, T + 1, delta, "exact").epsilon > 6.0


def test_max_iterations_beyond_two_to_the_62():
    with pytest.raises(InfeasibleError, match="2\\^62"):
        max_iterations(1e-300, 1.0, 1e-5)
    with pytest.raises(InfeasibleError, match="2\\^62"):
        ma_max_iterations(1e-300, 1.0, 1e-5)


def test_total_rate_overflow_is_a_domain_error():
    rho = rho_gaussian(1e-154)  # 5e307: finite, but rho * T overflows
    for call in (
        lambda: acct_epsilon(rho, 1000, 1e-5),
        lambda: acct_epsilon(rho, 1000, 1e-5, "exact"),
        lambda: ma_epsilon(rho, 1000, 1e-5),
        lambda: privacy_curve(GaussianConfig(sigma=1e-154), 1e-5, [1, 2, 4]),
    ):
        with pytest.raises(DomainError, match=r"not finite at rho\*T = "):
            call()
    # every finite total rate still gets an answer
    assert math.isfinite(acct_epsilon(rho, 1, 1e-5).epsilon)
    assert ma_epsilon(rho, 1, 1e-5) == 5e307
    assert [row.eps_ma for row in privacy_curve(GaussianConfig(sigma=1e-154), 1e-5, [1, 2])] == [5e307, 1e308]


def test_ma_required_variance():
    v = ma_required_variance(1.0, 1.0, 1e-5)
    assert math.isclose(v, 24.015440960770643, rel_tol=1e-9)
    assert math.isclose(ma_required_variance(100.0, 1.0, 1e-5), 100.0 * v, rel_tol=1e-12)
    for T, eps, delta in [(1.0, 1.0, 1e-5), (500.0, 2.5, 1e-7), (30.0, 0.1, 1e-3)]:
        sigma_sq = ma_required_variance(T, eps, delta)
        assert abs(ma_epsilon(1.0 / (2.0 * sigma_sq / T), 1.0, delta) - eps) <= 1e-9
        assert abs(ma_epsilon(1.0 / (2.0 * sigma_sq), T, delta) - eps) <= 1e-9


def test_ma_required_variance_matches_mpmath():
    # sigma^2 = T / (2 x) at the root x = (eps / (sqrt(eps + L) + sqrt(L)))^2,
    # L = log(1/delta).  The difference of square roots (sqrt(eps + L) -
    # sqrt(L))^2 loses x to cancellation where eps << L: a quarter of it on
    # these inputs, and all of it below eps = 5e-17 L
    rng = random.Random(17)
    cases = [(_log_uniform(rng, 1e-12, 100.0), _log_uniform(rng, 1e-300, 0.999)) for _ in range(400)]
    for eps, delta in cases + [(1e-10, 1e-5), (1e-20, 1e-5), (1e-150, 1e-300)]:
        with mpmath.workdps(60):
            big_l = -mpmath.log(mpmath.mpf(delta))
            want = 1 / (2 * (eps / (mpmath.sqrt(eps + big_l) + mpmath.sqrt(big_l))) ** 2)
        assert abs(ma_required_variance(1.0, eps, delta) - want) <= 2e-15 * want, (eps, delta)


def test_ma_required_variance_when_the_rate_underflows():
    # eps^2 underflows below about 1e-160, and the rate with it
    with pytest.raises(InfeasibleError, match="admits no positive rate"):
        ma_required_variance(10.0, 1e-170, 1e-5)


def test_required_variance_frozen_point():
    r = required_variance(100.0, 1.0, 1e-6)
    assert math.isclose(r.sigma_sq, 2052.884744968447, rel_tol=1e-10)
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


def test_required_variance_budget_below_two_delta_log_one_over_delta():
    # 0.1 < 2 delta log(1/delta) = 0.733 at delta = 0.4: the budget is still met
    r = required_variance(10.0, 0.1, 0.4)
    assert r.sigma_sq > 0.0
    assert math.isclose(acct_epsilon(1.0 / (2.0 * r.sigma_sq), 10.0, 0.4).epsilon, 0.1, rel_tol=1e-6)


def test_required_variance_is_certified_by_its_order():
    rng = random.Random(7)
    for _ in range(200):
        T = round(_log_uniform(rng, 1.0, 1e5))
        eps = _log_uniform(rng, 1e-3, 50.0)
        delta = _log_uniform(rng, 1e-12, 0.9)
        r = required_variance(T, eps, delta)
        assert tuple(r) == (r.sigma_sq, r.argmin_alpha)
        assert 1.0 < r.argmin_alpha <= 1.0 / delta
        a = r.argmin_alpha
        assert epsilon_bound(a, a * T / (2.0 * r.sigma_sq), delta).value <= eps * (1.0 + 1e-12)


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


def _gaussian_orders(sigma: float) -> RenyiCurve:
    # the plain Gaussian's curve alpha/(2 sigma^2) at the integer orders 2-256
    rho = rho_gaussian(sigma)
    return RenyiCurve(range(2, 257), [rho * alpha for alpha in range(2, 257)])


def test_renyi_curve_validation():
    curve = RenyiCurve([2, 3.5], [0, 1.0])
    assert curve.orders == (2.0, 3.5) and curve.divergences == (0.0, 1.0)
    assert pickle.loads(pickle.dumps(curve)) == curve and copy.deepcopy(curve) == curve
    for orders, divergences in (
        ([], []), ([2.0], []), ([2.0, 3.0], [1.0]), (2.0, [1.0]),  # empty, unmatched, not a sequence
        ([3.0, 2.0], [1.0, 1.0]), ([2.0, 2.0], [1.0, 1.0]),  # unsorted, duplicated
        ([1.0], [1.0]), ([0.5], [1.0]), ([math.inf], [1.0]), ([math.nan], [1.0]), ([10**400], [1.0]),
        ([2.0], [-1.0]), ([2.0], [math.nan]), ([2.0], [math.inf]), ([2.0], [-math.inf]),
    ):
        with pytest.raises(DomainError):
            RenyiCurve(orders, divergences)
    with pytest.raises(DomainError):  # _replace builds through the same checks
        curve._replace(orders=(3.0, 2.0))
    # the accountants take the linear curve as the rate itself; a rate that underflows is refused when built
    assert GaussianConfig(sigma=20.0).curve == 0.00125
    with pytest.raises(DomainError, match="underflows"):
        GaussianConfig(sigma=1e200)


@pytest.mark.parametrize(
    "sigma, T, delta",
    [(20.0, 1000, 1e-5), (1.0, 1, 1e-5), (4.0, 10**5, 1e-9), (50.0, 7, 0.1), (0.7, 300, 1e-3), (2.0, 10**6, 1e-12)],
)
def test_finite_curve_is_the_order_minimum(sigma, T, delta):
    # on the plain Gaussian at integer orders, each accountant is the minimum
    # over the orders of its own conversion of (alpha, T D(alpha)), at the
    # lowest order on a tie; orders at or above 1/delta = 10 take the edge branch
    curve = _gaussian_orders(sigma)
    totals = [(alpha, T * d) for alpha, d in zip(curve.orders, curve.divergences)]
    closed = acct_epsilon(curve, T, delta)
    brute = min((epsilon_bound(a, g, delta).value, a) for a, g in totals)
    assert (closed.epsilon, closed.argmin_alpha) == brute
    assert closed.active_branch == epsilon_bound(brute[1], T * (rho_gaussian(sigma) * brute[1]), delta).active_branch
    assert closed.mode == "closed_form"
    assert ma_epsilon(curve, T, delta) == min(conversion.baseline_epsilon(a, g, delta) for a, g in totals)
    # integer orders cannot beat the minimum over every order, which the rate's solve finds
    continuous = acct_epsilon(rho_gaussian(sigma), T, delta).epsilon
    assert closed.epsilon >= continuous * (1.0 - 1e-12)
    assert closed.epsilon <= ma_epsilon(curve, T, delta)
    exact = acct_epsilon(curve, T, delta, "exact")
    assert (exact.epsilon, exact.argmin_alpha) == min((conversion.epsilon_exact(a, g, delta).value, a) for a, g in totals)
    assert exact.epsilon <= closed.epsilon and exact.active_branch is None and exact.mode == "exact"
    optimal = float(_gaussian_optimal_epsilon(math.sqrt(T) / sigma, delta))
    assert exact.epsilon >= optimal


def test_finite_curve_loses_to_the_continuous_order():
    # sigma = 20, T = 1000, delta = 1e-5: the continuous minimum lies at alpha = 3.85
    curve = _gaussian_orders(20.0)
    closed = acct_epsilon(curve, 1000, 1e-5)
    assert closed.argmin_alpha == 4.0 and closed.active_branch == "g_bound"
    assert round(closed.epsilon, 4) == 8.0879 and round(acct_epsilon(0.00125, 1000, 1e-5).epsilon, 4) == 8.0784


@pytest.mark.parametrize("sigma, delta", [(20.0, 1e-5), (1.0, 1e-5), (4.0, 1e-9), (50.0, 0.1)])
def test_finite_curve_max_iterations(sigma, delta):
    curve = _gaussian_orders(sigma)
    for budget, modes in ((0.5, ("closed_form", "exact")), (6.0, ("closed_form", "exact")), (20.0, ("closed_form",))):
        T_ma = ma_max_iterations(curve, budget, delta)
        assert T_ma == 0 or ma_epsilon(curve, T_ma, delta) <= budget
        assert ma_epsilon(curve, T_ma + 1, delta) > budget
        for mode in modes:
            T = max_iterations(curve, budget, delta, mode)
            assert T == 0 or acct_epsilon(curve, T, delta, mode).epsilon <= budget
            assert acct_epsilon(curve, T + 1, delta, mode).epsilon > budget
            assert T >= T_ma


def test_finite_curve_skips_orders_that_overflow():
    curve = RenyiCurve([2.0, 3.0], [1.0, 1e308])
    r = acct_epsilon(curve, 10, 1e-5)
    assert r.argmin_alpha == 2.0 and r.epsilon == epsilon_bound(2.0, 10.0, 1e-5).value
    assert ma_epsilon(curve, 10, 1e-5) == conversion.baseline_epsilon(2.0, 10.0, 1e-5)
    # every order overflows
    curve = RenyiCurve([2.0, 3.0], [1e10, 1e308])
    for call in (
        lambda: acct_epsilon(curve, 10**300, 1e-5),
        lambda: acct_epsilon(curve, 10**300, 1e-5, "exact"),
        lambda: ma_epsilon(curve, 10**300, 1e-5),
    ):
        with pytest.raises(DomainError, match=r"not finite at T\*D\(alpha\) = inf"):
            call()


def test_finite_curve_of_zero_divergence():
    # no privacy loss at all: epsilon 0 at the lowest order, and every T meets a budget
    curve = RenyiCurve([2.0, 8.0], [0.0, 0.0])
    assert acct_epsilon(curve, 10**9, 1e-5) == AccountedEpsilon(0.0, 2.0, None, "closed_form")
    assert acct_epsilon(curve, 10**9, 1e-5, "exact").epsilon == 0.0
    with pytest.raises(InfeasibleError):
        max_iterations(curve, 1.0, 1e-5)
    # the baseline's conversion of 0 is log(1/delta)/(alpha - 1): no step fits a smaller budget
    assert ma_max_iterations(curve, 1.0, 1e-5) == 0
    with pytest.raises(InfeasibleError):
        ma_max_iterations(curve, 2.0, 1e-5)


def test_accountants_check_arguments_in_order():
    # each call has two or more bad arguments, so its first message fixes the
    # order of the checks: ma_epsilon and acct_epsilon check the curve, T,
    # delta and then the mode; max_iterations the budget, the curve and then
    # the mode; ma_max_iterations the budget and then the curve.  A finite
    # curve skips only the rate's check
    curve = RenyiCurve([2.0], [1.0])
    cases = [
        (lambda: ma_epsilon(0.0, 0, 2.0), "rho must be finite and > 0, got 0.0"),
        (lambda: ma_epsilon(1.0, 0, 2.0), "T must be >= 1, got 0"),
        (lambda: ma_epsilon(curve, 0, 2.0), "T must be >= 1, got 0"),
        (lambda: ma_epsilon(1.0, 1, 2.0), "delta must lie in (0, 1), got 2.0"),
        (lambda: ma_epsilon(curve, 1, 2.0), "delta must lie in (0, 1), got 2.0"),
        (lambda: acct_epsilon(0.0, 0, 2.0, "x"), "rho must be finite and > 0, got 0.0"),
        (lambda: acct_epsilon(curve, 0, 2.0, "x"), "T must be >= 1, got 0"),
        (lambda: acct_epsilon(1.0, 10**400, 0.0, "x"), "T must be at most DBL_MAX"),
        (lambda: acct_epsilon(curve, 10**400, 0.0, "x"), "T must be at most DBL_MAX"),
        (lambda: acct_epsilon(1.0, 1, 1e-310, "x"), "delta must be at least 1/DBL_MAX"),
        (lambda: acct_epsilon(curve, 1, 2.0, "x"), "delta must lie in (0, 1), got 2.0"),
        (lambda: acct_epsilon(1.0, 1, 1e-5, "x"), "mode must be one of"),
        (lambda: acct_epsilon(curve, 1, 1e-5, "x"), "mode must be one of"),
        (lambda: max_iterations(0.0, 0.0, 1e-5, "x"), "epsilon budget must be finite and > 0, got 0.0"),
        (lambda: max_iterations(curve, 0.0, 2.0, "x"), "epsilon budget must be finite and > 0, got 0.0"),
        (lambda: max_iterations(0.0, 1.0, 2.0, "x"), "delta must lie in (0, 1), got 2.0"),
        (lambda: max_iterations(curve, 1.0, 1e-310, "x"), "delta must be at least 1/DBL_MAX"),
        (lambda: max_iterations(0.0, 1.0, 1e-5, "x"), "rho must be finite and > 0, got 0.0"),
        (lambda: max_iterations(curve, 1.0, 1e-5, "x"), "mode must be one of"),
        (lambda: ma_max_iterations(0.0, 0.0, 0.0), "epsilon budget must be finite and > 0, got 0.0"),
        (lambda: ma_max_iterations(curve, 0.0, 0.0), "epsilon budget must be finite and > 0, got 0.0"),
        (lambda: ma_max_iterations(0.0, 1.0, 0.0), "delta must lie in (0, 1), got 0.0"),
        (lambda: ma_max_iterations(curve, 1.0, 0.0), "delta must lie in (0, 1), got 0.0"),
        (lambda: ma_max_iterations(math.nan, 1.0, 1e-5), "rho must be finite and > 0, got nan"),
    ]
    for call, first in cases:
        with pytest.raises(DomainError, match=re.escape(first)):
            call()
    # a rate that is not a number at all is a TypeError, where a bad rate is named
    for call in (
        lambda: ma_epsilon("x", 0, 2.0),
        lambda: acct_epsilon("x", 0, 2.0, "x"),
        lambda: max_iterations("x", 1.0, 1e-5, "x"),
        lambda: ma_max_iterations("x", 1.0, 1e-5),
    ):
        with pytest.raises(TypeError):
            call()
    with pytest.raises(DomainError, match="epsilon budget"):
        max_iterations("x", 0.0, 1e-5, "x")


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


def _gaussian_optimal_epsilon(mu: float, delta: float) -> mpmath.mpf:
    # the optimal epsilon of mu-GDP (T Gaussian steps, mu = sqrt(T)/sigma):
    # delta(eps) = Phi(-eps/mu + mu/2) - e^eps Phi(-eps/mu - mu/2) decreases in
    # eps; returns the lower end of a 50-digit bisection bracket
    with mpmath.workdps(50):
        mu, delta = mpmath.mpf(mu), mpmath.mpf(delta)
        phi = lambda x: mpmath.erfc(-x / mpmath.sqrt(2)) / 2
        gap = lambda e: phi(-e / mu + mu / 2) - mpmath.exp(e) * phi(-e / mu - mu / 2) - delta
        lo, hi = mpmath.mpf(0), mu * mu / 2 + mu * mpmath.sqrt(2 * mpmath.log(1 / delta)) + 1
        if gap(lo) <= 0:
            return lo
        while hi - lo > mpmath.mpf(10) ** -20 * hi:
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if gap(mid) > 0 else (lo, mid)
        return lo


@pytest.mark.parametrize("sigma", [0.5, 1.0, 4.0, 20.0])
@pytest.mark.parametrize("T", [1, 10, 1000])
def test_accountant_is_never_below_the_gaussian_optimum(sigma, T):
    # every published epsilon is an upper bound on the true privacy loss of
    # T Gaussian steps, checked against the exact Gaussian trade-off; the tiny
    # deltas catch a frontier search that misses an argmin at the scale of delta
    for delta in (1e-20, 1e-16, 1e-13, 1e-9, 1e-5, 1e-2):
        optimal = float(_gaussian_optimal_epsilon(math.sqrt(T) / sigma, delta))
        for mode in ("closed_form", "exact"):
            assert acct_epsilon(rho_gaussian(sigma), T, delta, mode).epsilon >= optimal, (sigma, T, delta, mode)
