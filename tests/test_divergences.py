"""Two-point divergences: examples, arbitrary-precision references, and domain validation."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdpopt.divergences import BernoulliPair, hockey_stick_binary, renyi_binary
from rdpopt.errors import DomainError

# alpha <= 50 with p, q in [0.01, 0.99]: the box the Renyi divergence is checked on
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


def test_renyi_examples():
    assert renyi_binary(BernoulliPair(0.4, 0.4), 2.0) == 0.0
    # log(0.36/0.4 + 0.16/0.6) = log(7/6), 50-digit reference
    assert math.isclose(renyi_binary(BernoulliPair(0.6, 0.4), 2.0), 0.1541506798272583, abs_tol=1e-12)


def _renyi_reference(p, q, alpha):
    # the definition evaluated with 50 digits
    with mp.workdps(50):
        p, q, a = mp.mpf(p), mp.mpf(q), mp.mpf(alpha)
        return float(mp.log(p**a * q ** (1 - a) + (1 - p) ** a * (1 - q) ** (1 - a)) / (a - 1))


def _renyi_close(got, alpha, p, q):
    # no allowance grows as alpha -> 1: the log-moment there is summed as its
    # excess over 1, so its rounding is not divided by alpha - 1
    return math.isclose(got, _renyi_reference(p, q, alpha), rel_tol=1e-10, abs_tol=1e-10)


@given(p=probs, q=probs, alpha=orders)
@settings(max_examples=300, deadline=None)
def test_renyi_matches_arbitrary_precision(p, q, alpha):
    assert _renyi_close(renyi_binary(BernoulliPair(p, q), alpha), alpha, p, q)


def test_identity_on_1000_random_samples(rng):
    # renyi_binary against its 50-digit definition on the box of the test above
    for _ in range(1000):
        p, q = rng.uniform(0.01, 0.99), rng.uniform(0.01, 0.99)
        alpha = 1.0 + 49.0 * rng.uniform(1e-4, 1.0)
        assert _renyi_close(renyi_binary(BernoulliPair(p, q), alpha), alpha, p, q), (p, q, alpha)


def test_renyi_near_order_one():
    # the log of a moment near 1, divided by alpha - 1: the first point was
    # 1.09e-10 off its 50-digit value when the moment was summed in log domain
    for p, q, alpha in [(0.484375, 0.5, 1.000001), (0.3, 0.7, 1.0 + 1e-9), (0.01, 0.99, 1.0 + 1e-6)]:
        want = _renyi_reference(p, q, alpha)
        assert math.isclose(renyi_binary(BernoulliPair(p, q), alpha), want, rel_tol=1e-13, abs_tol=1e-17), (p, q, alpha)


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
        renyi_binary(pair, 0.99)
