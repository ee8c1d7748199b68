"""Shared sampling helpers for the test suite, Hypothesis's literal pool pinned to empty, and mpmath's precision guarded."""

import mpmath
import numpy as np
import pytest
from hypothesis.internal.conjecture import providers
from hypothesis.internal.constants_ast import Constants

# Hypothesis also draws literals that it collects from every local module
# loaded so far, so a derandomized test's draws would depend on the rest of
# the run and change with any literal anywhere.  The collector, which is
# private, is replaced by one that returns an empty pool;
# tests/test_robustness.py checks that this pin takes effect.
collect_local_constants = providers._get_local_constants
providers._get_local_constants = Constants
providers.CONSTANTS_CACHE.cache.clear()


@pytest.fixture(autouse=True)
def _mpmath_precision_kept():
    # mpmath's working precision is global: a test that sets mp.dps hands its
    # digits to every later reference, so a file checks different digits
    # alone and in the full suite.  Tests take precision by mpmath.workdps;
    # one that leaves it changed fails, and the precision is restored
    dps = mpmath.mp.dps
    yield
    if mpmath.mp.dps != dps:
        left = mpmath.mp.dps
        mpmath.mp.dps = dps
        pytest.fail(f"the test left mpmath.mp.dps at {left}, not {dps}; use mpmath.workdps")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20250814)


def sample_triples(rng: np.random.Generator, n: int) -> list[tuple[float, float, float]]:
    """Random (alpha, epsilon, delta) with alpha in (1, 50], eps in [0, 5], delta in [0, 0.5)."""
    alpha = 1.0 + 49.0 * rng.uniform(1e-6, 1.0, size=n)
    eps = 5.0 * rng.uniform(0.0, 1.0, size=n)
    delta = 0.5 * rng.uniform(0.0, 1.0, size=n)
    return list(zip(alpha.tolist(), eps.tolist(), delta.tolist()))


def sample_small_delta_triples(rng: np.random.Generator, n: int) -> list[tuple[float, float, float]]:
    """Random (alpha, gamma, delta) with alpha*delta < 1 and delta > 0."""
    out = []
    for _ in range(n):
        alpha = 1.0 + 49.0 * rng.uniform(1e-6, 1.0)
        gamma = 5.0 * rng.uniform(0.0, 1.0)
        delta = rng.uniform(1e-8, 1.0) * min(0.5, 0.999 / alpha)
        out.append((alpha, gamma, delta))
    return out


def bisect_reference(fn, target, lo, hi, abs_tol=1e-10):
    """Plain bisection for the smallest x in [lo, hi] with fn(x) >= target, fn increasing.

    Returns the right end of the final bracket.  Stops once the bracket is
    no wider than abs_tol, or once its ends are adjacent floats, where a
    large x leaves no float strictly between them.
    """
    left, right = lo, hi
    while right - left > abs_tol:
        mid = 0.5 * (left + right)
        if not left < mid < right:
            break
        if fn(mid) >= target:
            right = mid
        else:
            left = mid
    return right
