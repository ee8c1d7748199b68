"""Two-point divergences: examples, identities, and domain validation."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdpopt.divergences import (
    BernoulliPair,
    chi_alpha_binary,
    chi_of_gamma,
    gamma_of_chi,
    hockey_stick_binary,
    renyi_binary,
)
from rdpopt.errors import DomainError

# alpha <= 50 with p, q in [0.01, 0.99] keeps every exponent far below
# overflow, so the chi <-> Renyi identity is exercised on finite values
probs = st.floats(min_value=0.01, max_value=0.99)
orders = st.floats(min_value=1.0 + 1e-6, max_value=50.0)


def test_hockey_stick_examples():
    assert hockey_stick_binary(BernoulliPair(0.5, 0.5), 1.0) == 0.0
    assert math.isclose(hockey_stick_binary(BernoulliPair(0.6, 0.4), 1.0), 0.2, abs_tol=1e-15)
    assert hockey_stick_binary(BernoulliPair(0.6, 0.4), math.e) == 0.0


def test_hockey_stick_range_and_lam_monotonicity(rng):
    lams = np.linspace(1.0, 10.0, 40)
    for _ in range(100):
        pair = BernoulliPair(rng.uniform(1e-6, 1 - 1e-6), rng.uniform(1e-6, 1 - 1e-6))
        values = [hockey_stick_binary(pair, lam) for lam in lams]
        assert all(0.0 <= v < 1.0 for v in values)
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


def test_chi_examples():
    assert chi_alpha_binary(BernoulliPair(0.3, 0.3), 7.0) == 0.0
    assert math.isclose(chi_alpha_binary(BernoulliPair(0.6, 0.4), 2.0), 1.0 / 6.0, abs_tol=1e-12)
    pair = BernoulliPair(0.9, 0.1)
    assert math.isclose(
        chi_alpha_binary(pair, 3.0),
        chi_of_gamma(renyi_binary(pair, 3.0), 3.0),
        rel_tol=1e-10,
    )


def test_chi_nonnegative_zero_iff_equal(rng):
    grid = np.linspace(0.05, 0.95, 10)
    for p in grid:
        for q in grid:
            v = chi_alpha_binary(BernoulliPair(float(p), float(q)), 2.5)
            if p == q:
                assert abs(v) <= 1e-12
            else:
                assert v > 1e-12


def test_renyi_examples():
    assert renyi_binary(BernoulliPair(0.4, 0.4), 2.0) == 0.0
    # log(0.36/0.4 + 0.16/0.6) = log(7/6), 50-digit reference
    assert math.isclose(renyi_binary(BernoulliPair(0.6, 0.4), 2.0), 0.1541506798272583, abs_tol=1e-12)
    pair = BernoulliPair(0.6, 0.4)
    assert math.isclose(
        renyi_binary(pair, 2.0),
        gamma_of_chi(chi_alpha_binary(pair, 2.0), 2.0),
        rel_tol=1e-12,
    )


def test_chi_gamma_map_examples():
    assert chi_of_gamma(0.0, 2.0) == 0.0
    assert math.isclose(chi_of_gamma(1.0, 2.0), math.e - 1.0, rel_tol=1e-14)
    assert gamma_of_chi(0.0, 3.0) == 0.0
    assert math.isclose(gamma_of_chi(math.e - 1.0, 2.0), 1.0, rel_tol=1e-12)
    assert chi_of_gamma(800.0, 2.0) == math.inf  # exponent beyond double range


def test_gamma_of_chi_monotone(rng):
    ts = np.sort(rng.uniform(0.0, 100.0, size=50))
    vals = [gamma_of_chi(float(t), 4.0) for t in ts]
    assert all(a < b for a, b in zip(vals, vals[1:]))


@given(p=probs, q=probs, alpha=orders)
@settings(max_examples=300, deadline=None)
def test_identity_renyi_equals_mapped_chi(p, q, alpha):
    pair = BernoulliPair(p, q)
    lhs = renyi_binary(pair, alpha)
    rhs = gamma_of_chi(chi_alpha_binary(pair, alpha), alpha)
    assert math.isclose(lhs, rhs, rel_tol=1e-10, abs_tol=1e-10)


def test_identity_on_1000_random_samples(rng):
    for _ in range(1000):
        pair = BernoulliPair(rng.uniform(0.01, 0.99), rng.uniform(0.01, 0.99))
        alpha = 1.0 + 49.0 * rng.uniform(1e-4, 1.0)
        lhs = renyi_binary(pair, alpha)
        rhs = gamma_of_chi(chi_alpha_binary(pair, alpha), alpha)
        assert math.isclose(lhs, rhs, rel_tol=1e-10, abs_tol=1e-10)


@given(alpha=orders, frac=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=300, deadline=None)
def test_chi_gamma_mutual_inverses(alpha, frac):
    gamma = frac * 50.0 / (alpha - 1.0)
    t = chi_of_gamma(gamma, alpha)
    back = gamma_of_chi(t, alpha)
    assert math.isclose(back, gamma, rel_tol=1e-10, abs_tol=1e-12)


def test_log_domain_survives_large_alpha():
    # p^alpha q^(1-alpha) overflows in direct arithmetic here; the log-domain
    # path must still match an arbitrary-precision evaluation
    pair = BernoulliPair(0.9, 0.1)
    alpha = 350.0
    got = renyi_binary(pair, alpha)
    mp.mp.dps = 60
    a = mp.mpf(alpha)
    p, q = mp.mpf("0.9"), mp.mpf("0.1")
    want = mp.log(p**a * q ** (1 - a) + (1 - p) ** a * (1 - q) ** (1 - a)) / (a - 1)
    assert math.isclose(got, float(want), rel_tol=1e-12)
    assert chi_alpha_binary(pair, alpha) == math.inf  # moment exceeds e^709


def test_dataclass_validation():
    for bad in (0.0, 1.0, -0.1, 1.1, math.nan):
        with pytest.raises(DomainError):
            BernoulliPair(bad, 0.5)
        with pytest.raises(DomainError):
            BernoulliPair(0.5, bad)


def test_operation_domain_errors():
    pair = BernoulliPair(0.6, 0.4)
    with pytest.raises(DomainError):
        hockey_stick_binary(pair, 0.5)
    with pytest.raises(DomainError):
        chi_alpha_binary(pair, 1.0)
    with pytest.raises(DomainError):
        renyi_binary(pair, 0.99)
    with pytest.raises(DomainError):
        chi_of_gamma(-1.0, 2.0)
    with pytest.raises(DomainError):
        gamma_of_chi(-1e-12, 2.0)
