"""Command-line interface: flags, record shape, determinism, exit codes."""

import contextlib
import csv
import importlib.resources
import io
import json
import math
import os
import pathlib
import shlex
import subprocess
import sys
import time

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rdpopt import cli, oracle
from rdpopt.conversion import balle_epsilon, baseline_delta, epsilon_bound, gamma_exact
from rdpopt.gaussian import (
    CurvePoint,
    acct_epsilon,
    ma_epsilon,
    ma_max_iterations,
    max_iterations,
    ma_required_variance,
    required_variance,
    rho_subsampled,
)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def output_schema() -> dict:
    text = importlib.resources.files("rdpopt").joinpath("output_record.schema.json").read_text()
    return json.loads(text)


def test_convert_baseline_delta_lossless(capsys):
    code, out, _ = run_cli(capsys, "convert", "--alpha", "2", "--gamma", "1", "--eps", "2", "--method", "baseline")
    assert code == 0
    record = json.loads(out)
    jsonschema.validate(record, output_schema())
    assert record["command"] == "convert"
    assert record["query"]["target"] == "delta"
    # JSON round trip preserves the double exactly
    assert record["results"]["baseline"]["value"] == baseline_delta(2.0, 1.0, 2.0)
    assert math.isclose(record["results"]["baseline"]["value"], math.exp(-1.0), rel_tol=1e-14)


def test_convert_gamma_exact(capsys):
    code, out, _ = run_cli(capsys, "convert", "--alpha", "2", "--eps", "1", "--delta", "0.1")
    assert code == 0
    record = json.loads(out)
    assert record["query"]["target"] == "gamma"
    got = record["results"]["exact"]
    assert math.isclose(got["value"], 0.5465668663746012, abs_tol=1e-9)
    assert got["method"] == "exact_numeric"
    assert 0.1 < got["argmin_p"] < 1.0


def test_convert_gamma_bound_branch(capsys):
    code, out, _ = run_cli(capsys, "convert", "--alpha", "20", "--eps", "1", "--delta", "0.1", "--method", "bound")
    assert code == 0
    got = json.loads(out)["results"]["bound"]
    assert math.isclose(got["value"], 1.1053605156578263, abs_tol=1e-12)
    assert got["active_branch"] == "alpha_delta_ge_1"


def test_convert_eps_zero(capsys):
    code, out, _ = run_cli(capsys, "convert", "--alpha", "2", "--gamma", "0", "--delta", "0.05")
    assert code == 0
    assert json.loads(out)["results"]["exact"]["value"] == 0.0


def test_convert_all_methods(capsys):
    code, out, _ = run_cli(
        capsys, "convert", "--alpha", "2", "--gamma", "0.5", "--delta", "0.01", "--method", "all"
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert set(results) == {"exact", "bound", "baseline", "balle"}
    assert results["exact"]["value"] <= results["bound"]["value"] + 1e-8
    assert results["bound"]["value"] <= max(results["balle"]["value"], 0.0) + 1e-10
    assert results["balle"]["value"] == balle_epsilon(2.0, 0.5, 0.01)
    assert results["balle"]["value"] <= results["baseline"]["value"]


def test_convert_usage_errors(capsys):
    code, _, err = run_cli(capsys, "convert", "--alpha", "2", "--gamma", "1", "--eps", "2", "--delta", "0.1")
    assert code == 2 and "usage error" in err
    code, _, err = run_cli(capsys, "convert", "--alpha", "2", "--gamma", "1")
    assert code == 2
    code, _, err = run_cli(capsys, "convert", "--alpha", "2", "--gamma", "1", "--eps", "2", "--method", "balle")
    assert code == 2 and "balle" in err
    code, _, _ = run_cli(capsys, "convert", "--gamma", "1", "--eps", "2")  # --alpha required
    assert code == 2
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2


def test_convert_infeasible_exit_code(capsys):
    code, _, err = run_cli(capsys, "convert", "--alpha", "2", "--gamma", "50", "--eps", "0")
    assert code == 3
    assert "infeasible" in err


def test_convert_domain_error_label(capsys):
    code, _, err = run_cli(capsys, "convert", "--alpha", "0.5", "--eps", "1", "--delta", "0.1")
    assert code == 3
    assert "domain error" in err and "infeasible" not in err


def test_convert_baseline_delta_overflow(capsys):
    code, out, _ = run_cli(capsys, "convert", "--alpha", "1000", "--gamma", "5", "--eps", "0.5", "--method", "all")
    assert code == 0
    assert json.loads(out)["results"]["baseline"]["value"] == 1.0


def test_convert_delta_bound_large_eps_minus_gamma(capsys):
    # e^(eps - gamma) overflows a double once eps - gamma > 709.78
    code, out, err = run_cli(capsys, "convert", "--alpha", "2", "--gamma", "1", "--eps", "1000")
    assert code == 0, err
    assert json.loads(out)["results"]["exact"]["value"] >= 0.0
    code, out, _ = run_cli(capsys, "convert", "--alpha", "2", "--gamma", "1", "--eps", "1000", "--method", "bound")
    # the bound underflows; it is reported as the smallest positive float, not as pure DP
    assert code == 0 and json.loads(out)["results"]["bound"]["value"] == math.ulp(0.0)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    alpha=st.floats(1.0, 1e4, exclude_min=True),
    gamma=st.floats(0.0, 2000.0),
    eps=st.floats(0.0, 2000.0),
    delta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    target=st.sampled_from(("gamma", "eps", "delta")),
    method=st.sampled_from(("exact", "bound", "baseline", "balle", "all")),
)
@example(alpha=2.0, gamma=0.0, eps=0.0, delta=0.9999999999999999, target="gamma", method="exact")
@example(alpha=2.0, gamma=1.0, eps=0.0, delta=0.9999999999999999, target="eps", method="exact")
def test_convert_finite_inputs_give_strict_json_or_typed_errors(alpha, gamma, eps, delta, target, method):
    given_flags = {"gamma": gamma, "eps": eps, "delta": delta}
    del given_flags[target]
    argv = ["convert", "--alpha", repr(alpha), "--method", method]
    for name, value in given_flags.items():
        argv += ["--" + name, repr(value)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2, 3), (argv, err.getvalue())
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    else:
        assert out.getvalue() == "" and err.getvalue().startswith("rdpopt: ")


_finite = st.floats(allow_nan=False, allow_infinity=False)
_unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


def _value(draw, typical):
    # mostly a value in the typical range, sometimes any finite float
    return repr(draw(st.one_of(typical, typical, _finite)))


@st.composite
def _accounting_argv(draw, commands=("compose", "max-t", "variance", "curve", "curve-json"), mode=None) -> list[str]:
    # --flag=value, so that argparse takes a negative value as a value
    command = draw(st.sampled_from(commands))
    argv = [command.removesuffix("-json")]
    if command != "variance":
        argv.append(f"--sigma={_value(draw, st.floats(1e-160, 1e6))}")
        if draw(st.booleans()):
            argv.append(f"--q={_value(draw, _unit)}")
    if command in ("compose", "variance"):
        argv.append(f"--T={draw(st.one_of(st.integers(1, 10**6), st.integers(-2, 2**63)))}")
    if command in ("max-t", "variance"):
        argv.append(f"--eps={_value(draw, st.floats(0.0, 1e3))}")
    argv.append(f"--delta={_value(draw, _unit)}")
    if command.startswith("curve"):
        t_from = draw(st.one_of(st.integers(1, 10**6), st.integers(-1, 2**62)))
        argv += [f"--t-from={t_from}", f"--t-to={t_from + draw(st.integers(-1, 3))}"]
        if command == "curve-json":
            argv.append("--format=json")
    if mode is not None:
        argv.append(f"--mode={mode}")
    return argv


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=_accounting_argv())
@example(argv=["curve", "--sigma", "1e-154", "--delta", "1e-5", "--t-from", "1", "--t-to", "2"])
@example(argv=["compose", "--sigma", "1e-154", "--T", "1000", "--delta", "1e-5"])
@example(argv=["variance", "--T=1", "--eps=1.7976931348623157e+308", "--delta=0.5"])
# draws that reached +-DBL_MAX or a subnormal through Hypothesis's literal pool, now pinned empty
@example(argv=["curve", "--sigma=3.2004014013030756e+16", "--q=0.05", "--delta=1.420337404968221e+302", "--t-from=428",
               "--t-to=430"])
@example(argv=["max-t", "--sigma=2.2250738585072014e-308", "--q=3.7767731773100205e-195", "--eps=-20.0",
               "--delta=4713623721396283.0"])
@example(argv=["variance", "--T=44965", "--eps=0.0001", "--delta=-4.607501335119796e+302"])
@example(argv=["variance", "--T=4800", "--eps=1e-08", "--delta=1.7976931348623155e+308"])
# an integer T past DBL_MAX, and a sweep with more rows than sys.maxsize
@example(argv=["compose", "--sigma=1", f"--T={10**400}", "--delta=1e-5"])
@example(argv=["variance", f"--T={10**400}", "--eps=1", "--delta=1e-5"])
@example(argv=["curve", "--sigma=1", "--delta=1e-5", f"--t-from={10**400}", f"--t-to={10**400}"])
@example(argv=["curve", "--sigma=1", "--delta=1e-5", "--t-from=1", f"--t-to={10**400}"])
def test_accounting_finite_inputs_give_clean_output_or_typed_errors(argv):
    # closed-form compose, max-t, variance and curve (CSV and JSON)
    _check_clean_output_or_typed_error(argv)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(argv=_accounting_argv(("compose", "max-t"), "exact"))
@example(argv=["compose", "--sigma=1e-154", "--T=1000", "--delta=1e-5", "--mode=exact"])
@example(argv=["max-t", "--sigma=20", "--eps=6", "--delta=1e-5", "--mode=exact"])
def test_exact_mode_finite_inputs_give_clean_output_or_typed_errors(argv):
    # compose and max-t under --mode exact, fewer examples: each runs the
    # numeric frontier at every order of a few scans
    _check_clean_output_or_typed_error(argv)


def _check_clean_output_or_typed_error(argv: list[str]) -> None:
    # exit 0 with strict, schema-valid JSON or a rectangular CSV of finite
    # cells, or a labelled usage (2) or infeasible/domain (3) error with
    # nothing on stdout
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2, 3), (argv, err.getvalue())
    if code != 0:
        assert out.getvalue() == "" and err.getvalue().startswith("rdpopt: ")
        return
    _check_output(out.getvalue())
    if out.getvalue().startswith("{"):
        jsonschema.validate(json.loads(out.getvalue()), output_schema())


@pytest.mark.parametrize(
    "argv",
    [
        ["convert", "--alpha", "2", "--eps", "1", "--delta", "0.1"],
        ["compose", "--sigma", "20", "--T", "10", "--delta", "1e-5"],
        ["max-t", "--sigma", "20", "--eps", "1", "--delta", "1e-5"],
        ["variance", "--T", "10", "--eps", "1", "--delta", "1e-5"],
        ["curve", "--fig", "2", "--t-to", "2"],
    ],
)
def test_search_tolerance_is_not_a_flag(capsys, argv):
    # the searches run at fixed tolerances; only oracle-check takes --tol
    code, out, err = run_cli(capsys, *argv, "--tol", "1e-6")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --tol" in err


def test_delta_too_small_to_invert(capsys):
    for argv in (
        ["compose", "--sigma", "20", "--T", "1000", "--delta", "1e-310"],
        ["max-t", "--sigma", "20", "--eps", "6", "--delta", "1e-310"],
        ["variance", "--T", "100", "--eps", "1", "--delta", "1e-310"],
        ["curve", "--sigma", "20", "--delta", "1e-310", "--t-from", "1", "--t-to", "2"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == "", argv
        assert err.startswith("rdpopt: domain error: delta must be at least 1/DBL_MAX"), (argv, err)


def test_non_finite_result_is_a_typed_error(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "ma_epsilon", lambda rho, T, delta: math.inf)
    code, out, err = run_cli(capsys, "compose", "--sigma", "20", "--T", "1000", "--delta", "1e-5")
    assert code == 3 and out == ""
    assert err.startswith("rdpopt: infeasible: result is not finite")
    # a JSON sweep is serialised before its --out file is opened
    monkeypatch.setattr(cli, "privacy_curve", lambda *args, **kwargs: [CurvePoint(1, math.inf, 1.0, None, math.inf)])
    path = tmp_path / "sweep.json"
    code, out, err = run_cli(capsys, "curve", "--fig", "2", "--format", "json", "--out", str(path))
    assert code == 3 and out == "" and not path.exists()
    assert err.startswith("rdpopt: infeasible: result is not finite")


def test_compose_record(capsys):
    code, out, _ = run_cli(capsys, "compose", "--sigma", "20", "--T", "1000", "--delta", "1e-5")
    assert code == 0
    record = json.loads(out)
    jsonschema.validate(record, output_schema())
    results = record["results"]
    assert results["rho"] == 0.00125
    assert results["eps_ma"] == ma_epsilon(0.00125, 1000.0, 1e-5)
    ours = results["eps_ours"]
    alpha = ours["argmin_alpha"]
    at_argmin = epsilon_bound(alpha, 0.00125 * 1000 * alpha, 1e-5)
    assert ours["epsilon"] == at_argmin.value
    assert ours["active_branch"] == at_argmin.active_branch
    assert math.isclose(ours["epsilon"], 8.078359548144448, rel_tol=1e-10)
    assert results["gap"] > 0.7


def test_compose_tiny_sigma_beats_the_moments_accountant(capsys):
    # the moments accountant's order alpha - 1 = sqrt(log(1/delta)/rho T) is
    # 4.8e-7 here, below exact mode's floor of 1e-6, where the closed-form
    # order solve once stopped and printed gap -13 527 651.5
    code, out, _ = run_cli(capsys, "compose", "--sigma", "1e-7", "--T", "1", "--delta", "1e-5")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["gap"] >= 0.0
    assert results["eps_ours"]["argmin_alpha"] - 1.0 < 1e-6


def test_compose_subsampled(capsys):
    code, out, _ = run_cli(capsys, "compose", "--sigma", "4", "--q", "0.001", "--T", "1000", "--delta", "1e-5")
    assert code == 0
    record = json.loads(out)
    assert record["results"]["rho"] == rho_subsampled(4.0, 0.001)
    assert record["query"]["q"] == 0.001


def test_compose_bad_T(capsys):
    code, _, err = run_cli(capsys, "compose", "--sigma", "20", "--T", "0", "--delta", "1e-5")
    assert code == 2 and "usage error" in err


def test_variance_bad_T(capsys):
    code, out, err = run_cli(capsys, "variance", "--T", "0", "--eps", "1", "--delta", "1e-5")
    assert code == 2 and out == ""
    assert "usage error: --T must be >= 1, got 0" in err


def test_tiny_sigma_domain_error(capsys):
    # sigma^2 underflows to 0.0
    for argv in (
        ["compose", "--sigma", "1e-200", "--T", "1", "--delta", "1e-5"],
        ["max-t", "--sigma", "1e-200", "--eps", "1", "--delta", "1e-5"],
        ["curve", "--sigma", "1e-200", "--delta", "1e-5", "--t-from", "1", "--t-to", "2"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and "domain error" in err and out == ""


def test_huge_sigma_names_sigma(capsys):
    # sigma^2 overflows and the rate underflows to 0: the error names the flags given, not rho
    code, out, err = run_cli(capsys, "max-t", "--sigma", "1e200", "--eps", "1", "--delta", "1e-5")
    assert code == 3 and out == ""
    assert "domain error: Renyi rate underflows to 0 at sigma = 1e+200" in err and "rho" not in err
    code, out, err = run_cli(capsys, "compose", "--sigma", "20", "--q", "1e-200", "--T", "10", "--delta", "1e-5")
    assert code == 3 and out == ""
    assert "domain error: Renyi rate underflows to 0 at sigma = 20.0, q = 1e-200" in err


def test_max_t_matches_library(capsys):
    code, out, _ = run_cli(capsys, "max-t", "--sigma", "20", "--eps", "6", "--delta", "1e-5")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["T_ours"] == max_iterations(0.00125, 6.0, 1e-5)
    assert results["T_ma"] == ma_max_iterations(0.00125, 6.0, 1e-5)
    assert results["advantage"] == results["T_ours"] - results["T_ma"]
    assert results["advantage"] > 0


def test_max_t_tiny_budget(capsys):
    code, out, _ = run_cli(capsys, "max-t", "--sigma", "0.2", "--eps", "1e-6", "--delta", "1e-5")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["T_ours"] == 0 and results["T_ma"] == 0


def test_max_t_epochs_with_subsampling(capsys):
    code, out, _ = run_cli(capsys, "max-t", "--sigma", "4", "--q", "0.01", "--eps", "1", "--delta", "1e-5")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["epochs_ours"] == 0.01 * results["T_ours"]
    assert results["epochs_ma"] == 0.01 * results["T_ma"]


def test_variance_record(capsys):
    code, out, _ = run_cli(capsys, "variance", "--T", "100", "--eps", "1", "--delta", "1e-6")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["sigma_sq"] == required_variance(100.0, 1.0, 1e-6).sigma_sq
    assert math.isclose(results["sigma_sq"], 2052.884744968447, rel_tol=1e-10)
    assert results["ma_sigma_sq"] == ma_required_variance(100.0, 1.0, 1e-6)
    assert results["sigma_sq"] <= results["ma_sigma_sq"]
    assert results["reduction"] > 0.0


def test_variance_budget_below_two_delta_log_one_over_delta(capsys):
    # eps = 0.1 is below 2 delta log(1/delta) = 0.733; compose at the answer spends the budget
    code, out, err = run_cli(capsys, "variance", "--T", "10", "--eps", "0.1", "--delta", "0.4")
    assert code == 0, err
    results = json.loads(out)["results"]
    assert list(results) == ["sigma_sq", "argmin_alpha", "ma_sigma_sq", "reduction"]
    sigma = repr(math.sqrt(results["sigma_sq"]))
    code, out, err = run_cli(capsys, "compose", "--sigma", sigma, "--T", "10", "--delta", "0.4")
    assert code == 0, err
    assert math.isclose(json.loads(out)["results"]["eps_ours"]["epsilon"], 0.1, rel_tol=1e-6)


def test_variance_budget_far_below_log_one_over_delta(capsys):
    # the moments accountant's rate rounded to 0 here once, which made this infeasible
    code, out, err = run_cli(capsys, "variance", "--T", "10", "--eps", "1e-20", "--delta", "1e-5")
    assert code == 0, err
    results = json.loads(out)["results"]
    assert results["ma_sigma_sq"] == ma_required_variance(10.0, 1e-20, 1e-5)
    assert results["ma_sigma_sq"] >= results["sigma_sq"] > 0.0


def test_variance_names_the_moments_accountant_variance_that_overflows(capsys):
    # the root rate rho*T = 2.17e-310 is finite and > 0; T / (2 rho*T) is what overflows
    code, out, err = run_cli(capsys, "variance", "--T", "10", "--eps", "1e-154", "--delta", "1e-5")
    assert code == 3 and out == ""
    assert err.startswith(
        "rdpopt: domain error: the moments-accountant variance T / (2 rho*T) is not finite at T = 10, rho*T = 2.17"
    )


def _parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_curve_generic_csv(capsys):
    code, out, _ = run_cli(
        capsys, "curve", "--sigma", "20", "--delta", "1e-5", "--t-from", "1", "--t-to", "5"
    )
    assert code == 0
    header, rows = _parse_csv(out)
    assert header == ["T", "eps_ma", "eps_ours", "gap"]
    assert len(rows) == 5
    assert [row[0] for row in rows] == ["1", "2", "3", "4", "5"]
    for row in rows:
        for cell in row[1:]:
            assert repr(float(cell)) == cell  # repr cells parse back losslessly
        assert float(row[2]) <= float(row[1]) + 1e-12
        assert math.isclose(float(row[3]), float(row[1]) - float(row[2]), abs_tol=1e-15)


def test_curve_out_file_matches_stdout(capsys, tmp_path):
    argv = ["curve", "--sigma", "20", "--delta", "1e-5", "--t-from", "1", "--t-to", "3"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    path = tmp_path / "sweep.csv"
    code2, out2, _ = run_cli(capsys, *argv, "--out", str(path))
    assert code2 == 0 and out2 == ""
    data = path.read_bytes()
    assert b"\r" not in data
    assert data.decode("utf-8") == out


def test_curve_preset_flag_override(capsys):
    code, out, _ = run_cli(capsys, "curve", "--fig", "2", "--t-to", "3", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["query"]["fig"] == 2 and record["query"]["t_to"] == 3
    assert [row["T"] for row in record["results"]["rows"]] == [1, 2, 3]
    # the preset is the generic sweep with its flags filled in
    _, preset, _ = run_cli(capsys, "curve", "--fig", "2", "--t-to", "3")
    _, generic, _ = run_cli(capsys, "curve", "--sigma", "20", "--delta", "1e-5", "--t-from", "1", "--t-to", "3")
    assert preset == generic


def test_curve_fig1_preset(capsys):
    code, out, _ = run_cli(capsys, "curve", "--fig", "1", "--alpha", "2", "--eps", "1")
    assert code == 0
    header, rows = _parse_csv(out)
    assert header == ["alpha", "eps", "delta", "gamma_exact", "gamma_bound"]
    assert len(rows) == 51
    for row in rows:
        assert float(row[4]) <= float(row[3]) + 1e-8
    assert float(rows[0][2]) == 0.0 and float(rows[-1][2]) == 0.5


def test_curve_fig1_needs_lists(capsys):
    code, _, err = run_cli(capsys, "curve", "--fig", "1")
    assert code == 2 and "usage error" in err
    code, _, err = run_cli(capsys, "curve", "--fig", "1", "--alpha", "2,3", "--eps", "1")
    assert code == 2


def test_curve_fig1_rejects_a_list_token_that_is_not_a_number(capsys):
    cases = [("abc", "1", "--alpha", "abc"), ("2,x", "1,2", "--alpha", "x"), ("2", "1, 1e", "--eps", "1e")]
    for alpha, eps, flag, token in cases:
        code, out, err = run_cli(capsys, "curve", "--fig", "1", "--alpha", alpha, "--eps", eps)
        assert code == 2 and out == ""
        assert f"usage error: {flag} takes comma-separated numbers, got {token!r}" in err


def test_curve_rejects_flags_of_the_other_sweep(capsys):
    code, out, err = run_cli(
        capsys, "curve", "--fig", "1", "--alpha", "2", "--eps", "1", "--sigma", "20", "--mode", "exact", "--delta-points", "2"
    )
    assert code == 2 and out == ""
    assert "usage error: --fig 1 does not take --sigma, --mode" in err
    code, out, err = run_cli(capsys, "curve", "--fig", "2", "--t-to", "2", "--alpha", "5", "--delta-points", "3")
    assert code == 2 and out == ""
    assert "usage error: only --fig 1 takes --alpha, --delta-points" in err
    code, _, err = run_cli(capsys, "curve", "--sigma", "20", "--delta", "1e-5", "--t-from", "1", "--t-to", "2", "--delta-from", "0.1")
    assert code == 2 and "--delta-from" in err


def test_curve_json_record(capsys):
    code, out, _ = run_cli(
        capsys,
        "curve", "--sigma", "20", "--delta", "1e-5", "--t-from", "1", "--t-to", "2",
        "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    jsonschema.validate(record, output_schema())
    assert record["command"] == "curve"
    assert record["results"]["columns"] == ["T", "eps_ma", "eps_ours", "gap"]
    rows = record["results"]["rows"]
    assert len(rows) == 2 and rows[0]["T"] == 1
    assert rows[0]["eps_ours"] == acct_epsilon(0.00125, 1.0, 1e-5).epsilon


def test_curve_exact_column(capsys):
    # --mode exact and --mode both are two spellings of one sweep: the exact
    # column sits between eps_ours and gap, after epochs when --q is set
    sweeps = [
        (["--sigma", "20", "--delta", "1e-5", "--t-from", "1", "--t-to", "3"], None),
        (["--sigma", "4", "--q", "0.01", "--delta", "1e-5", "--t-from", "100", "--t-to", "300", "--t-step", "100"], 0.01),
    ]
    for flags, q in sweeps:
        columns = ["T", *(["epochs"] if q else []), "eps_ma", "eps_ours", "eps_ours_exact", "gap"]
        outputs = {}
        for mode in ("exact", "both"):
            for fmt in ("csv", "json"):
                code, out, err = run_cli(capsys, "curve", *flags, "--mode", mode, "--format", fmt)
                assert code == 0, err
                outputs[mode, fmt] = out
        assert outputs["both", "csv"] == outputs["exact", "csv"]
        header, cells = _parse_csv(outputs["exact", "csv"])
        assert header == columns
        records = [json.loads(outputs[mode, "json"]) for mode in ("exact", "both")]
        for record in records:
            jsonschema.validate(record, output_schema())
            assert record["results"]["columns"] == columns
            rows = record["results"]["rows"]
            assert [list(row) for row in rows] == [columns] * len(rows)
            assert [[str(value) for value in row.values()] for row in rows] == cells
        assert records[0]["results"] == records[1]["results"]
        for row in records[0]["results"]["rows"]:
            assert row["eps_ours_exact"] <= row["eps_ours"]
            if q is not None:
                assert row["epochs"] == q * row["T"]
        first = records[0]["results"]["rows"][0]
        rho = rho_subsampled(4.0, q) if q else 1.0 / 800.0
        assert first["eps_ours_exact"] == acct_epsilon(rho, first["T"], 1e-5, "exact").epsilon


def test_curve_fig1_rejects_a_bad_delta_sweep(capsys):
    argv = ["curve", "--fig", "1", "--alpha", "2", "--eps", "1"]
    code, out, err = run_cli(capsys, *argv, "--delta-from", "0.4", "--delta-to", "0.2")
    assert code == 2 and out == ""
    assert "usage error: delta sweep must satisfy 0 <= from < to < 1, got [0.4, 0.2]" in err
    code, out, err = run_cli(capsys, *argv, "--delta-points", "1")
    assert code == 2 and out == ""
    assert "usage error: --delta-points must be >= 2, got 1" in err


def test_curve_empty_sweep(capsys):
    code, _, err = run_cli(capsys, "curve", "--sigma", "20", "--delta", "1e-5", "--t-from", "10", "--t-to", "5")
    assert code == 2 and "empty sweep" in err


def test_curve_missing_required_flags(capsys):
    code, _, err = run_cli(capsys, "curve", "--sigma", "20", "--t-from", "1", "--t-to", "5")
    assert code == 2 and "--delta" in err


def test_curve_out_io_error(capsys):
    code, _, err = run_cli(
        capsys,
        "curve", "--sigma", "20", "--delta", "1e-5", "--t-from", "1", "--t-to", "2",
        "--out", "/nonexistent_dir/sweep.csv",
    )
    assert code == 4 and "I/O error" in err


ORACLE_ARGS = (
    "oracle-check", "--alpha", "2", "--eps", "1", "--delta", "0.1",
    "--grid-n", "1024", "--samples", "500",
)


def test_oracle_check_passes(capsys):
    code, out, _ = run_cli(capsys, *ORACLE_ARGS)
    assert code == 0
    record = json.loads(out)
    jsonschema.validate(record, output_schema())
    results = record["results"]
    assert results["passed"] is True
    assert results["failures"] == []
    assert results["containment_violations"] == 0
    assert abs(results["gap"]) <= 1e-4
    assert results["q_star_max_gap"] <= 1e-4
    assert record["metadata"]["seed"] == results["seed"]


def test_oracle_check_deterministic_report(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    code1, out1, _ = run_cli(capsys, *ORACLE_ARGS, "--out", str(a))
    code2, out2, _ = run_cli(capsys, *ORACLE_ARGS, "--out", str(b))
    assert code1 == 0 and code2 == 0
    assert a.read_bytes() == b.read_bytes()  # report files carry no timing
    r1, r2 = json.loads(out1), json.loads(out2)
    r1["metadata"].pop("wall_time_s")
    r2["metadata"].pop("wall_time_s")
    assert r1 == r2


def test_oracle_check_tolerance_failure(capsys):
    code, out, err = run_cli(
        capsys,
        "oracle-check", "--alpha", "2", "--eps", "1", "--delta", "0.1",
        "--grid-n", "256", "--samples", "200", "--tol", "1e-15",
    )
    assert code == 5
    assert "validation failure" in err and "gap" in err
    record = json.loads(out)  # the record is still emitted for inspection
    assert record["results"]["passed"] is False
    assert record["results"]["failures"]


def test_oracle_check_rejects_a_tolerance_that_is_not_finite_and_positive(capsys, monkeypatch):
    # rejected before any work: the oracle is never run
    monkeypatch.setattr(cli, "gamma_exact", lambda *args: pytest.fail("the oracle ran"))
    for tol in ("nan", "inf", "-inf", "-1", "0"):
        code, out, err = run_cli(capsys, "oracle-check", "--alpha", "2", "--eps", "1", "--delta", "0.1", f"--tol={tol}")
        assert code == 2 and out == "", tol
        assert "usage error: --tol must be finite and > 0" in err, tol


def test_oracle_check_rejects_a_negative_seed(capsys, monkeypatch):
    # rejected before any work: neither the frontier nor any oracle check runs
    monkeypatch.setattr(cli, "gamma_exact", lambda *args: pytest.fail("the oracle ran"))
    for name in ("brute_force_gamma", "verify_q_star", "joint_range_containment"):
        monkeypatch.setattr(oracle, name, lambda *args, **kwargs: pytest.fail("the oracle ran"))
    for seed in ("-1", "-7"):
        code, out, err = run_cli(capsys, "oracle-check", "--alpha", "2", "--eps", "1", "--delta", "0.1", f"--seed={seed}")
        assert code == 2 and out == "", seed
        assert f"usage error: --seed must be >= 0, got {seed}" in err, seed


def test_oracle_check_rejects_too_few_samples_or_grid_steps(capsys, monkeypatch):
    # rejected before any work, naming the flag: neither the frontier nor any oracle check runs
    monkeypatch.setattr(cli, "gamma_exact", lambda *args: pytest.fail("the oracle ran"))
    for name in ("brute_force_gamma", "verify_q_star", "joint_range_containment"):
        monkeypatch.setattr(oracle, name, lambda *args, **kwargs: pytest.fail("the oracle ran"))
    cases = [("--samples", "0", 1), ("--samples", "-3", 1), ("--grid-n", "10", 64), ("--grid-n", "63", 64)]
    for flag, value, bound in cases:
        code, out, err = run_cli(capsys, "oracle-check", "--alpha", "2", "--eps", "1", "--delta", "0.1", f"{flag}={value}")
        assert code == 2 and out == "", (flag, value)
        assert f"usage error: {flag} must be >= {bound}, got {value}" in err, (flag, value)


def test_oracle_check_rejects_counts_past_the_index_range(capsys, monkeypatch):
    # rejected before any work, as counts that are too small are; a seed may be any size
    monkeypatch.setattr(cli, "gamma_exact", lambda *args: pytest.fail("the oracle ran"))
    for name in ("brute_force_gamma", "verify_q_star", "joint_range_containment"):
        monkeypatch.setattr(oracle, name, lambda *args, **kwargs: pytest.fail("the oracle ran"))
    for flag in ("--samples", "--grid-n"):
        for value in (str(sys.maxsize + 1), "1" + "0" * 400):
            code, out, err = run_cli(capsys, "oracle-check", "--alpha", "2", "--eps", "1", "--delta", "0.1",
                                     f"{flag}={value}")
            assert code == 2 and out == "", (flag, value)
            assert f"usage error: {flag} must be at most sys.maxsize" in err, (flag, value)


def test_oracle_check_counts_it_cannot_allocate_are_domain_errors(capsys, monkeypatch):
    # numpy's allocation failure for a huge --grid-n or --samples, raised here
    # without allocating, is a domain error naming the count, not a traceback
    def unallocatable(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000001,) and data type float64")

    monkeypatch.setattr(oracle, "_logit_grid", unallocatable)
    code, out, err = run_cli(capsys, "oracle-check", "--alpha", "2", "--eps", "1", "--delta", "0.1",
                             "--grid-n", "1000000000000")
    assert code == 3 and out == ""
    assert ("domain error: GridSpec(n_coarse=1000000000000, n_refine=1000000000000) is too large: "
            "the oracle's arrays for it do not fit in memory (Unable to allocate 7.28 TiB") in err
    monkeypatch.undo()
    # the sample's draws fill one array allocated before the first draw
    monkeypatch.setattr(oracle.np, "fromiter", unallocatable)
    code, out, err = run_cli(capsys, "oracle-check", "--alpha", "2", "--eps", "1", "--delta", "0.1",
                             "--grid-n", "64", "--samples", "1000000000000")
    assert code == 3 and out == ""
    assert "domain error: n_samples=1000000000000 is too large: the oracle's arrays for it do not fit" in err


def test_oracle_check_counts_numpy_cannot_size_are_domain_errors(capsys, monkeypatch):
    # numpy raises ValueError or OverflowError, or wraps, for arrays of more
    # than sys.maxsize bytes: each count is refused before its array is
    # allocated, with a domain error naming it
    def unallocated(*args, **kwargs):
        pytest.fail("the array was allocated")

    big = str(sys.maxsize)
    for flag, value, allocator, counts, floats in [
        ("--samples", big, "fromiter", f"n_samples={big}", 2 * sys.maxsize),
        ("--samples", str(2**60), "fromiter", f"n_samples={2**60}", 2**61),
        ("--grid-n", big, "arange", f"GridSpec(n_coarse={big}, n_refine={big})", sys.maxsize + 1),
    ]:
        with monkeypatch.context() as m:
            m.setattr(oracle.np, allocator, unallocated)
            code, out, err = run_cli(capsys, "oracle-check", "--alpha", "2", "--eps", "1", "--delta", "0.1",
                                     "--grid-n", "64", f"{flag}={value}")
        assert code == 3 and out == "", (flag, value, err)
        assert (f"domain error: {counts} is too large: the oracle's arrays for it do not fit in memory "
                f"({floats} floats take more than sys.maxsize = {sys.maxsize} bytes)") in err, (flag, value)


def test_oracle_check_rejects_orders_below_its_floor(capsys):
    # below alpha = 1 + 1e-8 the containment check gives false violations
    code, out, err = run_cli(capsys, "oracle-check", "--alpha", "1.0000000001", "--eps", "0.5", "--delta", "0.1",
                             "--samples", "2000")
    assert code == 3 and out == ""
    assert "domain error: order alpha=1.0000000001 is too close to 1" in err


@pytest.mark.parametrize("tol, exit_code", [("1e-4", 0), ("1e-15", 5)])
def test_oracle_check_report_file_is_the_sorted_results(capsys, tmp_path, tol, exit_code):
    # the --out report is the stdout record's results, keys sorted, written
    # whether or not the check passes
    path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, *ORACLE_ARGS, "--tol", tol, "--out", str(path))
    assert code == exit_code
    results = json.loads(out)["results"]
    assert path.read_text(encoding="utf-8") == json.dumps(results, indent=2, sort_keys=True) + "\n"


def test_oracle_check_flags_a_wrong_q_star(capsys, monkeypatch):
    # shift the value at q* up, as if the first-atom reduction were wrong; the
    # kernel's grid minima do not take _pair_renyi
    true_renyi = oracle._pair_renyi
    monkeypatch.setattr(oracle, "_pair_renyi", lambda alpha, p, q: true_renyi(alpha, p, q) + 1e-3)
    code, out, err = run_cli(capsys, *ORACLE_ARGS)
    assert code == 5
    assert "q_star max_gap" in err and "> 0.0001" in err
    assert json.loads(out)["results"]["q_star_max_gap"] >= 9e-4


def test_oracle_check_flags_containment_violations(capsys, monkeypatch):
    # lift the frontier the containment check compares against by 1 nat; the
    # gap checks take cli's own gamma_exact and still pass at --tol 1
    true_gamma = oracle.gamma_exact

    def lifted(*args):
        r = true_gamma(*args)
        return r._replace(value=r.value + 1.0)

    monkeypatch.setattr(oracle, "gamma_exact", lifted)
    code, out, err = run_cli(
        capsys,
        "oracle-check", "--alpha", "2", "--eps", "1", "--delta", "0.1",
        "--grid-n", "64", "--samples", "50", "--tol", "1",
    )
    assert code == 5
    assert "validation failure" in err and "containment violations" in err
    results = json.loads(out)["results"]
    assert results["passed"] is False
    assert results["containment_violations"] > 0
    assert results["failures"] == [f"containment violations = {results['containment_violations']}"]


def test_config_file_with_flag_override(capsys, tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# compose settings\nsigma=20\nT=10\ndelta=1e-5\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "compose", "--config", str(path), "--T", "5")
    assert code == 0
    record = json.loads(out)
    assert record["query"]["T"] == 5  # explicit flag wins over the file
    assert record["query"]["sigma"] == 20.0
    assert record["query"]["delta"] == 1e-5


def test_config_spellings_and_repeated_files(capsys, tmp_path):
    first = tmp_path / "first.cfg"
    first.write_text("q=0.01\nsigma=8\n", encoding="utf-8")
    later = tmp_path / "later.cfg"
    later.write_text("q=0.02\nsigma=16\n", encoding="utf-8")
    argv = ["compose", "--sigma", "4", "--T", "100", "--delta", "1e-5"]
    for spelling in (["--config=" + str(first)], ["--conf", str(first)]):
        code, out, _ = run_cli(capsys, *argv, *spelling)
        assert code == 0
        record = json.loads(out)
        assert record["query"]["q"] == 0.01 and record["query"]["sigma"] == 4.0
        assert record["results"]["rho"] == rho_subsampled(4.0, 0.01)
    code, out, _ = run_cli(capsys, *argv, "--config", str(first), "--config", str(later))
    assert code == 0
    query = json.loads(out)["query"]
    assert query["q"] == 0.02  # the later file wins
    assert query["sigma"] == 4.0  # explicit flags beat both files


def test_config_errors(capsys, tmp_path):
    code, _, err = run_cli(capsys, "compose", "--config")
    assert code == 2 and "--config needs a file path" in err
    code, _, err = run_cli(capsys, "--config", str(tmp_path / "x.cfg"))
    assert code == 2 and "after a subcommand" in err
    code, _, err = run_cli(capsys, "compose", "--config", str(tmp_path / "missing.cfg"))
    assert code == 4 and "I/O error" in err
    bad = tmp_path / "bad.cfg"
    bad.write_text("sigma 20\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "compose", "--config", str(bad))
    assert code == 2 and "key=value" in err


def test_config_that_is_not_utf8_is_a_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"sigma=\xff\n")
    code, out, err = run_cli(capsys, "compose", "--config", str(bad), "--T", "10", "--delta", "1e-5")
    assert code == 2 and out == ""
    assert err == f"rdpopt: usage error: {bad}: expected UTF-8 text\n"


def test_version_via_module_entry():
    # the child imports the same package as this process, installed or not
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "rdpopt", "--version"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "rdpopt 0.1.0"


def test_wall_time_metadata(capsys):
    code, out, _ = run_cli(capsys, "convert", "--alpha", "2", "--eps", "1", "--delta", "0.1", "--method", "bound")
    assert code == 0
    meta = json.loads(out)["metadata"]
    assert meta["tool"] == "rdpopt"
    assert meta["version"] == "0.1.0"
    assert meta["seed"] is None
    assert meta["wall_time_s"] >= 0.0


@pytest.mark.parametrize(
    "argv",
    [
        ["convert", "--alpha", "2", "--eps", "1", "--delta", "0.1"],
        ["compose", "--sigma", "20", "--T", "10", "--delta", "1e-5"],
        ["max-t", "--sigma", "20", "--eps", "1", "--delta", "1e-5"],
        ["variance", "--T", "10", "--eps", "1", "--delta", "1e-5"],
        ["curve", "--fig", "2", "--t-to", "2", "--format", "json"],
        list(ORACLE_ARGS),
    ],
)
def test_record_key_order(capsys, argv):
    # every record has one layout; only oracle-check, which samples, has a seed
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    record = json.loads(out)
    assert list(record) == ["command", "query", "results", "metadata"]
    assert record["command"] == argv[0]
    assert list(record["metadata"]) == ["tool", "version", "seed", "wall_time_s"]
    assert (record["metadata"]["seed"] is None) == (argv[0] != "oracle-check")


def test_wall_time_covers_the_handler(capsys, monkeypatch):
    def slow_acct_epsilon(*args):
        time.sleep(0.05)
        return acct_epsilon(*args)

    monkeypatch.setattr(cli, "acct_epsilon", slow_acct_epsilon)
    code, out, _ = run_cli(capsys, "compose", "--sigma", "20", "--T", "10", "--delta", "1e-5")
    assert code == 0
    assert json.loads(out)["metadata"]["wall_time_s"] >= 0.05


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _check_output(text: str) -> None:
    if text.startswith("{"):
        json.loads(text, parse_constant=_reject_constant)
        return
    rows = list(csv.reader(io.StringIO(text)))
    assert len(rows) >= 2 and all(len(row) == len(rows[0]) for row in rows)
    for row in rows[1:]:
        for cell in row:
            assert cell == "" or math.isfinite(float(cell))


def _readme_commands() -> list[list[str]]:
    text = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = text.split("```sh\n")[1:]
    lines = [line for block in blocks for line in block.split("```")[0].splitlines()]
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("rdpopt ")]


def test_readme_commands(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert len(commands) >= 9
    for argv in commands:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)
        outputs = [out] if out else []
        if "--out" in argv:
            outputs.append((tmp_path / argv[argv.index("--out") + 1]).read_text(encoding="utf-8"))
        assert outputs, argv
        for text in outputs:
            _check_output(text)
