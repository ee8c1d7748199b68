"""Robustness contract of the library: every finite input gives finite float
fields or an AccountingError, never another exception, an inf or a NaN."""

import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rdpopt as rp


def _log_uniform(lo: float, hi: float):
    # values anywhere in [lo, hi], and magnitudes spread evenly over the range
    spread = st.floats(math.log(lo), math.log(hi)).map(lambda x: min(max(math.exp(x), lo), hi))
    return st.one_of(st.floats(lo, hi), spread)


_ALPHA = _log_uniform(1e-15, 1e6).map(lambda x: 1.0 + x)
_DELTA = st.one_of(_log_uniform(5e-324, 1.0 - 2.0**-53), _log_uniform(2.0**-53, 0.5).map(lambda x: 1.0 - x))
_RHO = _log_uniform(1e-300, 1e300)
_STEPS = st.one_of(st.integers(1, 10**9), _log_uniform(1.0, 1e9))
# gamma or epsilon: mostly up to 1e6, some up to DBL_MAX
_BUDGET = st.one_of(st.just(0.0), _log_uniform(1e-300, 1e6), _log_uniform(1e6, sys.float_info.max))
_SIGMA = _log_uniform(1e-300, 1e300)
_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


def _floats(value) -> list[float]:
    if isinstance(value, (tuple, list)):
        return [x for item in value for x in _floats(item)]
    return [value] if isinstance(value, float) else []


def _check_finite_or_typed_error(name: str, args: tuple) -> None:
    try:
        result = (_MECHANISMS.get(name) or getattr(rp, name))(*args)
    except rp.AccountingError:
        return
    assert result is not None and all(math.isfinite(x) for x in _floats(result)), (name, args, result)
    if name.endswith("variance"):  # a variance of 0 would add no noise at all
        assert _floats(result)[0] > 0.0, (name, args, result)


# the mechanism entry points that are not a bare call of one public function
_MECHANISMS = {
    "GaussianConfig.rho": lambda sigma, q: rp.GaussianConfig(sigma, subsampling_q=q).rho,
    "privacy_curve": lambda sigma, q, delta, t_values: rp.privacy_curve(
        rp.GaussianConfig(sigma, subsampling_q=q), delta, t_values
    ),
}


@st.composite
def _conversion_calls(draw):
    name = draw(st.sampled_from((
        "gamma_exact", "gamma_bound", "epsilon_exact", "epsilon_bound", "delta_exact", "delta_bound",
        "zero_epsilon_region", "baseline_epsilon", "baseline_delta", "balle_epsilon", "log_zeta",
        "boundary_objective", "renyi_binary", "hockey_stick_binary",
    )))
    alpha, budget = draw(_ALPHA), draw(_BUDGET)
    if name == "log_zeta":
        return name, (alpha,)
    if name == "zero_epsilon_region":
        return name, (alpha, budget)
    if name.endswith("binary"):
        # renyi_binary(pair, alpha), hockey_stick_binary(pair, lam) at lam = 1 + budget
        pair = rp.BernoulliPair(draw(_DELTA), draw(_DELTA))
        return name, (pair, alpha if name.startswith("renyi") else 1.0 + budget)
    delta = draw(_DELTA)
    if name == "boundary_objective":
        # p in (delta, 1); below delta = 1 - 2^-52 a float lies between them
        delta = min(delta, 1.0 - 2.0**-52)
        p = min(max(delta + (1.0 - delta) * draw(_UNIT), math.nextafter(delta, 1.0)), math.nextafter(1.0, 0.0))
        return name, (p, alpha, budget, delta)
    # gamma_*(alpha, eps, delta), epsilon_*(alpha, gamma, delta), delta_*(alpha, gamma, eps), and the baselines alike
    return name, (alpha, budget, draw(_BUDGET) if "delta" in name else delta)


@st.composite
def _accountant_calls(draw, names, mode=None):
    # acct_epsilon and max_iterations run in their default closed-form mode unless mode is given
    name = draw(st.sampled_from(names))
    delta = draw(_DELTA)
    if name.endswith("epsilon"):
        args = (draw(_RHO), draw(_STEPS), delta)
    elif name.endswith("iterations"):
        args = (draw(_RHO), draw(_BUDGET), delta)
    else:
        args = (draw(_STEPS), draw(_BUDGET), delta)
    return name, args if mode is None else (*args, mode)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(call=_conversion_calls())
def test_conversions_give_finite_fields_or_typed_errors(call):
    # twice the examples of the seven conversions alone, for twice the entry points
    _check_finite_or_typed_error(*call)


@st.composite
def _mechanism_calls(draw):
    name = draw(st.sampled_from(("rho_gaussian", "rho_subsampled", "GaussianConfig.rho", "privacy_curve")))
    sigma = draw(_SIGMA)
    if name == "rho_gaussian":
        return name, (sigma,)
    if name == "rho_subsampled":
        return name, (sigma, draw(_DELTA))
    q = draw(st.one_of(st.none(), _DELTA))
    if name == "GaussianConfig.rho":
        return name, (sigma, q)
    # the closed-form curve on one to three T values
    return name, (sigma, q, draw(_DELTA), draw(st.lists(_STEPS, min_size=1, max_size=3)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(call=_mechanism_calls())
def test_mechanisms_give_finite_fields_or_typed_errors(call):
    _check_finite_or_typed_error(*call)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(call=_accountant_calls((
    "acct_epsilon", "ma_epsilon", "max_iterations", "ma_max_iterations", "required_variance", "ma_required_variance",
)))
def test_closed_form_accountants_give_finite_fields_or_typed_errors(call):
    _check_finite_or_typed_error(*call)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(call=_accountant_calls(("acct_epsilon", "max_iterations"), "exact"))
# orders up to alpha = 1/delta = 1.8e150, where alpha^3 overflows: the order slopes stay in bounded ratios
@example(call=("acct_epsilon", (1e-300, 1, 5.421372662229435e-151, "exact")))
def test_exact_accountants_give_finite_fields_or_typed_errors(call):
    # fewer examples: each runs the numeric frontier at every order of a few order solves
    _check_finite_or_typed_error(*call)


def test_budgets_near_dbl_max():
    # each raised OverflowError or ValueError, or answered with no noise:
    # the moments accountant's squared root rate rounds past DBL_MAX, alpha
    # delta rounds up to 1 at the top order, (alpha - 1) eps overflows, and
    # 2 rho*T overflows
    big = sys.float_info.max
    assert rp.ma_required_variance(1, big, 0.5) > 0.0
    with pytest.raises(rp.InfeasibleError):
        rp.ma_max_iterations(1e-300, big, 1.0 - 2.0**-53)
    assert rp.max_iterations(1e300, 1e200, 0.9999999995744324) == 0
    assert rp.required_variance(1, big, 0.9999779128125048).sigma_sq > 0.0
    assert rp.required_variance(10**9, 1.7e308, 0.5).sigma_sq > 0.0
    # the budget is met with equality, not by a variance of 0
    answer = rp.required_variance(1, 1e10, 1e-300)
    assert answer.sigma_sq > 0.0
    assert math.isclose(rp.acct_epsilon(0.5 / answer.sigma_sq, 1, 1e-300).epsilon, 1e10, rel_tol=1e-9)
