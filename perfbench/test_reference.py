"""Checks of the analytic-Gaussian reference against mpmath.

    python3 -m pytest perfbench/test_reference.py
"""

import math
import os
import sys

import pytest

mpmath = pytest.importorskip("mpmath")

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference  # noqa: E402


def _mp_delta(mu, eps):
    mp = mpmath.mp
    mu, eps = mp.mpf(mu), mp.mpf(eps)
    return mp.ncdf(mu / 2 - eps / mu) - mp.exp(eps) * mp.ncdf(-mu / 2 - eps / mu)


@pytest.fixture(autouse=True)
def _precision():
    with mpmath.workdps(60):
        yield


@pytest.mark.parametrize("x", [3.0, 0.0, -5.0, -19.999, -20.0, -20.001, -37.0, -50.0, -300.0])
def test_log_ndtr_matches_mpmath(x):
    want = float(mpmath.log(mpmath.ncdf(x)))
    assert math.isclose(reference.log_ndtr(x), want, rel_tol=1e-11, abs_tol=1e-15)


@pytest.mark.parametrize(
    "mu, eps",
    [(0.1, 0.01), (0.5, 1.0), (1.58, 7.5), (4.0, 25.0), (8.0, 60.0), (30.0, 800.0), (60.0, 1000.0), (2.0, 710.0)],
)
def test_log_delta_matches_mpmath(mu, eps):
    want = float(mpmath.log(_mp_delta(mu, eps)))
    # abs_tol covers delta near 1, where log delta is near 0
    assert math.isclose(reference.log_delta(mu, eps), want, rel_tol=1e-9, abs_tol=1e-12)


@pytest.mark.parametrize(
    "sigma, T, delta",
    [(20.0, 1000, 1e-5), (0.5, 4, 1e-9), (30.0, 9, 1e-3), (4.0, 256, 1e-6), (1.0, 100000, 1e-5)],
)
def test_eps_opt_inverts_mpmath_curve(sigma, T, delta):
    eps = reference.eps_opt(sigma, T, delta)
    mu = math.sqrt(T) / sigma
    root = mpmath.findroot(lambda e: mpmath.log(_mp_delta(mu, e)) - mpmath.log(delta), eps)
    assert math.isclose(eps, float(root), rel_tol=1e-10)
    # the returned end of the bisection bracket never overstates privacy
    assert _mp_delta(mu, eps) <= delta * (1 + 1e-12)


def test_anchor_value():
    assert round(reference.eps_opt(20.0, 1000, 1e-5), 4) == 7.5113


def test_zero_when_delta_is_already_met():
    # at eps = 0 the curve gives 2*Phi(mu/2) - 1, about 0.04 at mu = 0.1
    assert reference.eps_opt(10.0, 1, 0.5) == 0.0
