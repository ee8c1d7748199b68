"""Robustness contract of the library: every finite input gives finite float
fields or an AccountingError, never another exception, an inf or a NaN."""

import importlib
import math
import sys

import pytest
from conftest import collect_local_constants
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.internal.conjecture import providers

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
    if isinstance(value, dict):
        value = list(value.values())
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


# the entry points that are not a bare call of one public function; the
# oracle's run on its smallest grids
_MECHANISMS = {
    "GaussianConfig.rho": lambda sigma, q: rp.GaussianConfig(sigma, subsampling_q=q).rho,
    "privacy_curve": lambda sigma, q, delta, t_values: rp.privacy_curve(
        rp.GaussianConfig(sigma, subsampling_q=q), delta, t_values
    ),
    "brute_force_gamma": lambda alpha, eps, delta: rp.brute_force_gamma(alpha, eps, delta, rp.GridSpec(64, 64)),
    "verify_q_star": lambda alpha, eps, delta: rp.verify_q_star(alpha, eps, delta, rp.GridSpec(64, 64), n_p=16),
    "joint_range_containment": lambda alpha, eps: rp.joint_range_containment(alpha, eps, n_samples=16),
    # an accountant on a finite curve, built in the call so that a curve refused when built counts too
    "RenyiCurve": lambda name, orders, divergences, *args: getattr(rp, name)(rp.RenyiCurve(orders, divergences), *args),
}


@st.composite
def _conversion_calls(draw):
    name = draw(st.sampled_from((
        "gamma_exact", "gamma_bound", "epsilon_exact", "epsilon_bound", "delta_exact", "delta_bound",
        "zero_epsilon_region", "baseline_epsilon", "baseline_delta", "balle_epsilon", "log_zeta",
        "boundary_objective",
    )))
    alpha, budget = draw(_ALPHA), draw(_BUDGET)
    if name == "log_zeta":
        return name, (alpha,)
    if name == "zero_epsilon_region":
        return name, (alpha, budget)
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
# draws that reached 0, +-DBL_MAX, a subnormal or delta near 1 through Hypothesis's literal pool, now pinned empty
@example(call=("baseline_delta", (1.0000000001077456, 6.797871965045391e+307, 139253.52826626372)))
@example(call=("delta_bound", (3.7182546457766743, 0.0, 0.0)))
@example(call=("baseline_epsilon", (55.598150033144236, 6.018818613815032e+307, 0.9999999999999997)))
@example(call=("delta_exact", (2.000000002, 1.8700627844904391e+307, 0.0)))
@example(call=("zero_epsilon_region", (3.718281828459045, 1.497963696778875e+307)))
@example(call=("baseline_delta", (804470.7589603815, 0.0, 1.000000000000001)))
@example(call=("epsilon_bound", (481203.6452644048, 0.0, 0.6321205588285577)))
@example(call=("zero_epsilon_region", (667437.0999144452, 8.218407461554972e+307)))
@example(call=("epsilon_exact", (1.0000000596046448, 0.0, 1.4068617124461467e-16)))
@example(call=("epsilon_bound", (1.000000002, 0.0, 3.368548365210348e-135)))
@example(call=("baseline_delta", (294072.1904404665, 30.0, 1.7145618108067364e+308)))
@example(call=("delta_bound", (463211.6606999663, 5.258302471208493e+16, 0.0)))
@example(call=("gamma_bound", (17.0, 3.478683761315068e+307, 8.3741418159315e-122)))
@example(call=("gamma_bound", (1.0000023890908567, 1.0202013400267558, 2.225073858507e-311)))
@example(call=("baseline_delta", (1.0000000000000144, 3.4225498820720185e-89, 0.0)))
@example(call=("gamma_bound", (5.0, 1.7976931348623155e+308, 0.9999999999999982)))
@example(call=("boundary_objective", (0.7463602324309517, 1.0000000015672759, 0.0, 0.7411839106438283)))
def test_conversions_give_finite_fields_or_typed_errors(call):
    # 600 examples for the twelve entry points, 50 each on average
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
# draws that reached 0, +-DBL_MAX, a subnormal or delta near 1 through Hypothesis's literal pool, now pinned empty
@example(call=("privacy_curve", (1.0059395449643493e+182, 0.9999999999999999, 0.716235886991667,
                                   [999999999.9999957, 454568291.3449122, 32416133])))
@example(call=("rho_subsampled", (1e-12, 0.9999999999999988)))
@example(call=("privacy_curve", (1.5349017910462683e-177, 1.4068617124461467e-16, 0.9999999999999998, [760653747.996973])))
@example(call=("privacy_curve", (5.082393856417887e+16, 0.9999999999999999, 0.4390874496055884, [605, 2147.156101507063])))
@example(call=("privacy_curve", (1.0, None, 1e-5, [10**400])))
def test_mechanisms_give_finite_fields_or_typed_errors(call):
    _check_finite_or_typed_error(*call)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(call=_accountant_calls((
    "acct_epsilon", "ma_epsilon", "max_iterations", "ma_max_iterations", "required_variance", "ma_required_variance",
)))
# draws that reached 0, +-DBL_MAX, a subnormal or delta near 1 through Hypothesis's literal pool, now pinned empty
@example(call=("max_iterations", (1e-12, 0.0, 0.8771350914517361)))
@example(call=("ma_max_iterations", (709.0, 0.0, 0.10572299322919411)))
@example(call=("acct_epsilon", (105.0, 1000000000.0, 0.9999999999997607)))
@example(call=("acct_epsilon", (6.968529230365001e+51, 826344933.2544188, 0.999999999999)))
@example(call=("ma_max_iterations", (1e-05, 2.356000358638826e+307, 0.05)))
# an integer T past DBL_MAX, which has no float form
@example(call=("acct_epsilon", (0.01, 10**400, 1e-5)))
@example(call=("ma_epsilon", (0.01, 10**400, 1e-5)))
@example(call=("required_variance", (10**400, 1.0, 1e-5)))
@example(call=("ma_required_variance", (10**400, 1.0, 1e-5)))
def test_closed_form_accountants_give_finite_fields_or_typed_errors(call):
    _check_finite_or_typed_error(*call)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(call=_accountant_calls(("acct_epsilon", "max_iterations"), "exact"))
# orders up to alpha = 1/delta = 1.8e150, where alpha^3 overflows: the order slopes stay in bounded ratios
@example(call=("acct_epsilon", (1e-300, 1, 5.421372662229435e-151, "exact")))
# draws that reached 0, +-DBL_MAX, a subnormal or delta near 1 through Hypothesis's literal pool, now pinned empty
@example(call=("max_iterations", (1.4277199034304217e-209, 0.0, 0.9999999979388464, "exact")))
@example(call=("acct_epsilon", (0.01, 10**400, 1e-5, "exact")))
def test_exact_accountants_give_finite_fields_or_typed_errors(call):
    # fewer examples: each runs the numeric frontier at every order of a few order solves
    _check_finite_or_typed_error(*call)


_BAD_ORDER = st.sampled_from((math.nan, math.inf, -math.inf, 1.0, 0.5, -2.0))
_BAD_DIVERGENCE = st.sampled_from((math.nan, math.inf, -math.inf, -1.0, -5e-324))
# divergences mostly positive: one D(alpha) = 0 lets any number of steps meet a budget the order's conversion of 0 meets
_DIVERGENCE = st.one_of(_log_uniform(1e-300, 1e6), _BUDGET)


@st.composite
def _curve_calls(draw):
    # one of the four accountants on a finite curve: mostly a valid one, with
    # divergences up to DBL_MAX, where T D(alpha) overflows; otherwise one flaw:
    # no orders, unsorted or duplicated orders, a bad value, or a divergence too few or too many
    orders = sorted(set(draw(st.lists(_ALPHA, min_size=1, max_size=6))))
    divergences = draw(st.lists(_DIVERGENCE, min_size=len(orders), max_size=len(orders)))
    flaw = draw(st.sampled_from((None,) * 6 + ("empty", "unsorted", "duplicated", "order", "divergence", "length")))
    at = draw(st.integers(0, len(orders) - 1))
    if flaw == "empty":
        orders, divergences = [], []
    elif flaw == "unsorted":
        orders, divergences = [*orders, 0.5 * (orders[0] + 1.0)], [*divergences, divergences[0]]
    elif flaw == "duplicated":
        orders, divergences = [*orders, orders[-1]], [*divergences, divergences[-1]]
    elif flaw == "order":
        orders[at] = draw(_BAD_ORDER)
    elif flaw == "divergence":
        divergences[at] = draw(_BAD_DIVERGENCE)
    elif flaw == "length":
        divergences = divergences[1:] if draw(st.booleans()) else [*divergences, 1.0]
    name = draw(st.sampled_from(("acct_epsilon", "ma_epsilon", "max_iterations", "ma_max_iterations")))
    # more budgets and deltas inside the accountants' domain than _BUDGET and _DELTA give, where the scan runs
    budget = st.one_of(_log_uniform(1e-3, 1e3), _BUDGET)
    args = (draw(_STEPS if name.endswith("epsilon") else budget), draw(st.one_of(_log_uniform(1e-300, 0.5), _DELTA)))
    if not name.startswith("ma_"):
        args = (*args, draw(st.sampled_from(("closed_form", "exact"))))
    return name, orders, divergences, *args


@settings(max_examples=600, deadline=None, derandomize=True)
@given(call=_curve_calls())
# every order's T D(alpha) overflows; zero divergences; subnormal ones, whose step estimate
# overflows at a budget of DBL_MAX; no orders; a NaN divergence
@example(call=("acct_epsilon", [2.0, 3.0], [1e300, 1e308], 10**9, 1e-5, "exact"))
@example(call=("max_iterations", [2.0, 64.0], [0.0, 0.0], 1.0, 1e-5, "exact"))
@example(call=("ma_max_iterations", [2.0, 1e6], [5e-324, 5e-324], sys.float_info.max, 0.5))
@example(call=("ma_epsilon", [], [], 10, 1e-5))
@example(call=("max_iterations", [2.0], [math.nan], 1.0, 1e-5, "closed_form"))
def test_curve_accountants_give_finite_fields_or_typed_errors(call):
    _check_finite_or_typed_error("RenyiCurve", call)


@pytest.mark.filterwarnings("error")  # a numpy overflow on the way is a failure too
@pytest.mark.parametrize("name", ("brute_force_gamma", "verify_q_star", "joint_range_containment"))
def test_oracle_gives_finite_fields_or_typed_errors(name):
    # a fixed list of extremes, since each call scans a grid: orders up to
    # DBL_MAX, where alpha log p overflows, and eps past log(DBL_MAX), where e^eps does
    big = sys.float_info.max
    deltas = (0.0, 5e-324, 1e-300, 1e-9, 0.1, 0.5, 1.0 - 2.0**-53) if name != "joint_range_containment" else (None,)
    for alpha in (1.0 + 2.0**-52, 1.000001, 2.0, 1e6, 3e306, 5e306, 1e307, 1e308, big):
        for eps in (0.0, 1e-300, 1.0, 30.0, 709.0, 710.0, 1e300, big):
            for delta in deltas:
                _check_finite_or_typed_error(name, (alpha, eps) if delta is None else (alpha, eps, delta))


# counts from 2**54 on size arrays of at least 2**57 bytes, past any 64-bit
# address space, so that no draw allocates; up to 2**63, past sys.maxsize
_HUGE_COUNT = st.integers(2**54, 2**63)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(name=st.sampled_from(("brute_force_gamma", "verify_q_star", "joint_range_containment")),
       counts=st.tuples(st.one_of(st.integers(64, 96), _HUGE_COUNT), st.one_of(st.integers(64, 96), _HUGE_COUNT)))
@example(name="joint_range_containment", counts=(sys.maxsize, 64))
@example(name="joint_range_containment", counts=(2**60, 64))
@example(name="brute_force_gamma", counts=(sys.maxsize, sys.maxsize))
@example(name="verify_q_star", counts=(64, 2**60))
def test_oracle_counts_give_finite_fields_or_typed_errors(name, counts):
    # grid steps or sample sizes on the smallest grids and up to 2**63
    if name == "joint_range_containment":
        call = lambda: rp.joint_range_containment(2.0, 1.0, n_samples=counts[0])
    else:
        call = lambda: getattr(rp, name)(2.0, 1.0, 0.1, rp.GridSpec(*counts))
    try:
        result = call()
    except rp.AccountingError:
        return
    assert all(math.isfinite(x) for x in _floats(result)), (name, counts, result)


def test_draws_ignore_the_literals_of_loaded_modules(tmp_path, monkeypatch):
    # tests/conftest.py pins Hypothesis's pool of local literals to empty.
    # A literal of a newly loaded local module enters the pool that
    # Hypothesis collects, and reaches a draw, only once the pin is lifted
    (tmp_path / "literal_probe.py").write_text("PROBE = 123456.789\n", encoding="utf-8")
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.setitem(sys.modules, "literal_probe", importlib.import_module("literal_probe"))

    def draws():
        seen = []

        @settings(max_examples=300, deadline=None, derandomize=True)
        @given(st.floats(123456.7, 123456.8))
        def probe(x):
            seen.append(x)

        probe()
        return seen

    assert 123456.789 not in draws()
    assert not providers._get_local_constants().floats
    try:
        monkeypatch.setattr(providers, "_get_local_constants", collect_local_constants)
        assert 123456.789 in providers._get_local_constants().floats
        assert 123456.789 in draws()
    finally:
        monkeypatch.undo()
        providers.CONSTANTS_CACHE.cache.clear()
    assert 123456.789 not in draws()


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
