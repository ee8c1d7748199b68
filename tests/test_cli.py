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


@settings(max_examples=150, deadline=None)
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


@settings(max_examples=200, deadline=None)
@given(argv=_accounting_argv())
@example(argv=["curve", "--sigma", "1e-154", "--delta", "1e-5", "--t-from", "1", "--t-to", "2"])
@example(argv=["compose", "--sigma", "1e-154", "--T", "1000", "--delta", "1e-5"])
def test_accounting_finite_inputs_give_clean_output_or_typed_errors(argv):
    # closed-form compose, max-t, variance and curve (CSV and JSON)
    _check_clean_output_or_typed_error(argv)


@settings(max_examples=25, deadline=None)
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


def test_compose_subsampled(capsys):
    code, out, _ = run_cli(capsys, "compose", "--sigma", "4", "--q", "0.001", "--T", "1000", "--delta", "1e-5")
    assert code == 0
    record = json.loads(out)
    assert record["results"]["rho"] == rho_subsampled(4.0, 0.001)
    assert record["query"]["q"] == 0.001


def test_compose_bad_T(capsys):
    code, _, err = run_cli(capsys, "compose", "--sigma", "20", "--T", "0", "--delta", "1e-5")
    assert code == 2 and "usage error" in err


def test_tiny_sigma_domain_error(capsys):
    # sigma^2 underflows to 0.0
    for argv in (
        ["compose", "--sigma", "1e-200", "--T", "1", "--delta", "1e-5"],
        ["max-t", "--sigma", "1e-200", "--eps", "1", "--delta", "1e-5"],
        ["curve", "--sigma", "1e-200", "--delta", "1e-5", "--t-from", "1", "--t-to", "2"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and "domain error" in err and out == ""


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


def test_oracle_check_flags_a_wrong_q_star(capsys, monkeypatch):
    # shift the value at q* up, as if the first-atom reduction were wrong
    true_renyi = oracle.renyi_binary
    monkeypatch.setattr(oracle, "renyi_binary", lambda pair, alpha: true_renyi(pair, alpha) + 1e-3)
    code, out, err = run_cli(capsys, *ORACLE_ARGS)
    assert code == 5
    assert "q_star max_gap" in err and "> 0.0001" in err
    assert json.loads(out)["results"]["q_star_max_gap"] >= 9e-4


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
