"""Two-point divergences: the oracle's formulas against examples and arbitrary-precision references."""

import math

import mpmath as mp
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rdpopt import oracle

# alpha <= 50 with p, q in [0.01, 0.99]: the box the Renyi divergence is checked on
probs = st.floats(min_value=0.01, max_value=0.99)
orders = st.floats(min_value=1.0 + 1e-6, max_value=50.0)


def hockey_stick(p, q, lam):
    # the oracle's hockey-stick divergence E_lam at one pair
    return float(oracle._hockey_stick(np.array([p]), np.array([1.0 - p]), np.array([q]), np.array([1.0 - q]), lam)[0])


def renyi(p, q, alpha):
    # the oracle's one binary-Renyi formula at one pair
    return float(oracle._pair_renyi(alpha, np.array([p]), np.array([q]))[0])


def test_hockey_stick_examples():
    assert hockey_stick(0.5, 0.5, 1.0) == 0.0
    assert math.isclose(hockey_stick(0.6, 0.4, 1.0), 0.2, abs_tol=1e-15)
    assert hockey_stick(0.6, 0.4, math.e) == 0.0


def test_hockey_stick_range_and_lam_monotonicity(rng):
    lams = np.linspace(1.0, 10.0, 40)
    for _ in range(100):
        p, q = rng.uniform(1e-6, 1 - 1e-6), rng.uniform(1e-6, 1 - 1e-6)
        values = [hockey_stick(p, q, lam) for lam in lams]
        assert all(0.0 <= v < 1.0 for v in values)
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


def test_renyi_examples():
    assert renyi(0.4, 0.4, 2.0) == 0.0
    assert renyi(0.4, 0.4, 1.5) == 0.0
    # log(0.36/0.4 + 0.16/0.6) = log(7/6), 50-digit reference
    assert math.isclose(renyi(0.6, 0.4, 2.0), 0.1541506798272583, abs_tol=1e-12)


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
    assert _renyi_close(renyi(p, q, alpha), alpha, p, q)


def test_identity_on_1000_random_samples(rng):
    # the formula against its 50-digit definition on the box of the test above
    for _ in range(1000):
        p, q = rng.uniform(0.01, 0.99), rng.uniform(0.01, 0.99)
        alpha = 1.0 + 49.0 * rng.uniform(1e-4, 1.0)
        assert _renyi_close(renyi(p, q, alpha), alpha, p, q), (p, q, alpha)


def test_renyi_near_order_one():
    # the log of a moment near 1, divided by alpha - 1: summed as a log-sum,
    # the moment puts the first two points 2.2e-7 and 5.9e-9 relative off
    # their 50-digit values
    for p, q, alpha in [(0.484375, 0.5, 1.000001), (0.3, 0.7, 1.0 + 1e-9), (0.01, 0.99, 1.0 + 1e-6)]:
        want = _renyi_reference(p, q, alpha)
        assert math.isclose(renyi(p, q, alpha), want, rel_tol=1e-13, abs_tol=1e-17), (p, q, alpha)


def test_log_domain_survives_large_alpha():
    # p^alpha q^(1-alpha) overflows in direct arithmetic here; the log-domain
    # path must still match an arbitrary-precision evaluation
    alpha = 350.0
    got = renyi(0.9, 0.1, alpha)
    with mp.workdps(60):
        a = mp.mpf(alpha)
        p, q = mp.mpf("0.9"), mp.mpf("0.1")
        want = mp.log(p**a * q ** (1 - a) + (1 - p) ** a * (1 - q) ** (1 - a)) / (a - 1)
    assert math.isclose(got, float(want), rel_tol=1e-12)


def test_renyi_at_a_tiny_p_and_a_q_next_to_1():
    # a draw of the robustness probe: alpha log p is -6.3e6 and (1 - alpha) log q
    # about 2e-12, so the log-sum's tail term alone carries the value
    p, q, alpha = 1.386910859057998e-142, 0.9999999999999999, 19418.95116284495
    assert math.isclose(renyi(p, q, alpha), _renyi_reference(p, q, alpha), rel_tol=1e-12)
