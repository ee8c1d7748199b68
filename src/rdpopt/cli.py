"""Command-line front end.

Subcommands:
  convert       one-shot conversion between (alpha, gamma) and (eps, delta)
  compose       epsilon after T compositions, ours versus moments accountant
  max-t         largest T within an epsilon budget, both accountants
  variance      noise variance needed for a target budget, both accountants
  curve         CSV/JSON sweeps, including figure presets
  oracle-check  brute-force validation of the conversion frontier

Exit codes: 0 success, 2 usage, 3 infeasible query or domain error,
4 I/O failure, 5 validation failure.  Output is a single JSON record per
invocation (curve emits a CSV or JSON table instead), deterministic for
fixed flags and seed apart from the wall-time field.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import asdict

from . import __version__
from .conversion import (
    ConversionResult,
    balle_epsilon,
    baseline_delta,
    baseline_epsilon,
    delta_bound,
    delta_exact,
    epsilon_bound,
    epsilon_exact,
    gamma_bound,
    gamma_exact,
)
from .errors import AccountingError, DomainError, InfeasibleError
from .gaussian import (
    GaussianConfig,
    acct_epsilon,
    ma_epsilon,
    ma_max_iterations,
    ma_required_variance,
    max_iterations,
    privacy_curve,
    required_variance,
)

TOOL_NAME = "rdpopt"

_EXIT_USAGE = 2
_EXIT_INFEASIBLE = 3
_EXIT_IO = 4
_EXIT_VALIDATION = 5


class UsageError(Exception):
    """Bad flag combination; maps to exit code 2."""


class ValidationFailure(Exception):
    """An oracle check exceeded its tolerance; maps to exit code 5."""


def _record(command: str, query: dict, results: dict, seed: int | None, started: float) -> dict:
    return {
        "command": command,
        "query": query,
        "results": results,
        "metadata": {
            "tool": TOOL_NAME,
            "version": __version__,
            "seed": seed,
            "wall_time_s": time.perf_counter() - started,
        },
    }


def _json_text(record: dict) -> str:
    # callers serialise before writing, so a non-finite value writes nothing
    try:
        return json.dumps(record, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise InfeasibleError(f"result is not finite and has no JSON form: {exc}") from None


def _flags(args: argparse.Namespace, *names: str) -> dict:
    # the query a record echoes: the named flags, in order
    return {name: getattr(args, name) for name in names}


def _emit(record: dict) -> None:
    sys.stdout.write(_json_text(record))


# target -> method -> call. The lambdas look each library function up by name
# when called, so a wrapper installed on this module after import sees the call.
_CONVERSIONS = {
    "gamma": {
        "exact": lambda a: gamma_exact(a.alpha, a.eps, a.delta),
        "bound": lambda a: gamma_bound(a.alpha, a.eps, a.delta),
    },
    "eps": {
        "exact": lambda a: epsilon_exact(a.alpha, a.gamma, a.delta),
        "bound": lambda a: epsilon_bound(a.alpha, a.gamma, a.delta),
        "baseline": lambda a: baseline_epsilon(a.alpha, a.gamma, a.delta),
        "balle": lambda a: balle_epsilon(a.alpha, a.gamma, a.delta),
    },
    "delta": {
        "exact": lambda a: delta_exact(a.alpha, a.gamma, a.eps),
        "bound": lambda a: delta_bound(a.alpha, a.gamma, a.eps),
        "baseline": lambda a: baseline_delta(a.alpha, a.gamma, a.eps),
    },
}


def cmd_convert(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    given = {"gamma": args.gamma, "eps": args.eps, "delta": args.delta}
    missing = [name for name, value in given.items() if value is None]
    if len(missing) != 1:
        raise UsageError("exactly two of --gamma, --eps, --delta must be supplied")
    target = missing[0]
    calls = _CONVERSIONS[target]
    if args.method != "all" and args.method not in calls:
        raise UsageError(f"method {args.method!r} cannot produce {target}; choose from {tuple(calls)}")
    methods = list(calls) if args.method == "all" else [args.method]
    results: dict = {}
    for method in methods:
        value = calls[method](args)
        results[method] = asdict(value) if isinstance(value, ConversionResult) else {"value": value}
    query = {**_flags(args, "alpha", "gamma", "eps", "delta"), "target": target, "method": args.method}
    _emit(_record("convert", query, results, None, started))
    return 0


def _mechanism(args: argparse.Namespace) -> GaussianConfig:
    return GaussianConfig(sigma=args.sigma, subsampling_q=args.q)


def cmd_compose(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    if args.T < 1:
        raise UsageError(f"--T must be >= 1, got {args.T}")
    rho = _mechanism(args).rho
    ours = acct_epsilon(rho, args.T, args.delta, args.mode)
    eps_ma = ma_epsilon(rho, args.T, args.delta)
    query = _flags(args, "sigma", "q", "T", "delta", "mode")
    results = {
        "rho": rho,
        "eps_ma": eps_ma,
        "eps_ours": asdict(ours),
        "gap": eps_ma - ours.epsilon,
    }
    _emit(_record("compose", query, results, None, started))
    return 0


def cmd_max_t(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    rho = _mechanism(args).rho
    t_ours = max_iterations(rho, args.eps, args.delta, args.mode)
    t_ma = ma_max_iterations(rho, args.eps, args.delta)
    query = _flags(args, "sigma", "q", "eps", "delta", "mode")
    results = {
        "rho": rho,
        "T_ours": t_ours,
        "T_ma": t_ma,
        "advantage": t_ours - t_ma,
    }
    if args.q is not None:
        results["epochs_ours"] = args.q * t_ours
        results["epochs_ma"] = args.q * t_ma
    _emit(_record("max-t", query, results, None, started))
    return 0


def cmd_variance(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    if args.T < 1:
        raise UsageError(f"--T must be >= 1, got {args.T}")
    ours = required_variance(args.T, args.eps, args.delta)
    ma_value = ma_required_variance(args.T, args.eps, args.delta)
    query = _flags(args, "T", "eps", "delta")
    results = {**asdict(ours), "ma_sigma_sq": ma_value, "reduction": ma_value - ours.sigma_sq}
    _emit(_record("variance", query, results, None, started))
    return 0


def _parse_float_list(text: str | None, flag: str) -> list[float]:
    values = []
    for part in (text or "").split(","):
        if not part.strip():
            continue
        try:
            values.append(float(part))
        except ValueError:
            raise UsageError(f"{flag} takes comma-separated numbers, got {part.strip()!r}") from None
    return values


# the flags each kind of sweep reads; a flag of one kind given to the other is
# a usage error, which is why these flags default to None in the parser
_T_SWEEP_FLAGS = ("sigma", "q", "delta", "t_from", "t_to", "t_step", "mode")
_FIG1_FLAGS = ("alpha", "eps", "delta_from", "delta_to", "delta_points")

# flag values behind each sweep: the frontier sweep --fig 1, the generic
# epsilon-versus-T sweep and the paper's --fig 2 and --fig 3; flags from the
# command line or a config file win
_T_SWEEP = {"t_step": 1, "mode": "closed_form"}
_SWEEPS = {
    1: {"delta_from": 0.0, "delta_to": 0.5, "delta_points": 51},
    None: _T_SWEEP,
    2: {**_T_SWEEP, "sigma": 20.0, "delta": 1e-5, "t_from": 1, "t_to": 1000},
    3: {**_T_SWEEP, "sigma": 4.0, "q": 0.001, "delta": 1e-5, "t_from": 1000, "t_to": 400000, "t_step": 1000},
}


def _curve_rows(args: argparse.Namespace) -> tuple[list[str], list[list], dict]:
    foreign = _T_SWEEP_FLAGS if args.fig == 1 else _FIG1_FLAGS
    given = ["--" + name.replace("_", "-") for name in foreign if getattr(args, name) is not None]
    if given and args.fig == 1:
        raise UsageError(f"--fig 1 does not take {', '.join(given)}")
    if given:
        raise UsageError(f"only --fig 1 takes {', '.join(given)}")
    for name, value in _SWEEPS[args.fig].items():
        if getattr(args, name) is None:
            setattr(args, name, value)
    if args.fig == 1:
        alphas = _parse_float_list(args.alpha, "--alpha")
        epss = _parse_float_list(args.eps, "--eps")
        if not alphas or len(alphas) != len(epss):
            raise UsageError("--fig 1 needs matching --alpha and --eps lists")
        lo, hi, n = args.delta_from, args.delta_to, args.delta_points
        if not (0.0 <= lo < hi < 1.0):
            raise UsageError(f"delta sweep must satisfy 0 <= from < to < 1, got [{lo}, {hi}]")
        if n < 2:
            raise UsageError(f"--delta-points must be >= 2, got {n}")
        header = ["alpha", "eps", "delta", "gamma_exact", "gamma_bound"]
        rows = []
        for alpha, eps in zip(alphas, epss):
            for i in range(n):
                d = lo + (hi - lo) * i / (n - 1)
                rows.append([alpha, eps, d, gamma_exact(alpha, eps, d).value, gamma_bound(alpha, eps, d).value])
        query = {"fig": 1, "alphas": alphas, "epss": epss, "delta_from": lo, "delta_to": hi, "delta_points": n}
        return header, rows, query

    for name in ("sigma", "delta", "t_from", "t_to"):
        if getattr(args, name) is None:
            raise UsageError(f"--{name.replace('_', '-')} is required without --fig")
    if args.t_from > args.t_to:
        raise UsageError(f"empty sweep: --t-from {args.t_from} > --t-to {args.t_to}")
    if args.t_from < 1 or args.t_step < 1:
        raise UsageError("--t-from and --t-step must be >= 1")
    exact = args.mode != "closed_form"  # exact or both
    mechanism = _mechanism(args)
    t_values = list(range(args.t_from, args.t_to + 1, args.t_step))
    query = _flags(args, "fig", "sigma", "q", "delta", "t_from", "t_to", "t_step", "mode")
    points = privacy_curve(mechanism, args.delta, t_values, exact=exact)
    q = mechanism.subsampling_q
    header = ["T"]
    if q is not None:
        header.append("epochs")
    header += ["eps_ma", "eps_ours"]
    if exact:
        header.append("eps_ours_exact")
    header.append("gap")
    rows = []
    for point in points:
        row: list = [int(point.T)]
        if q is not None:
            row.append(q * point.T)
        row += [point.eps_ma, point.eps_ours]
        if exact:
            row.append(point.eps_ours_exact)
        row.append(point.gap)
        rows.append(row)
    return header, rows, query


def cmd_curve(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    header, rows, query = _curve_rows(args)
    if args.format == "csv":
        # csv writes floats with repr and None as an empty cell
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows([header, *rows])
        text = buffer.getvalue()
    else:
        results = {"columns": header, "rows": [dict(zip(header, row)) for row in rows]}
        text = _json_text(_record("curve", query, results, None, started))
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    return 0


def cmd_oracle_check(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        raise UsageError(f"--tol must be finite and > 0, got {args.tol!r}")
    # the only subcommand that needs numpy, so the oracle is imported here; its
    # functions are looked up on the module, where a wrapper installed after
    # import sees the calls
    from . import oracle

    if args.seed is None:
        args.seed = oracle.DEFAULT_SEED
    grid = oracle.GridSpec() if args.grid_n is None else oracle.GridSpec(n_coarse=args.grid_n, n_refine=args.grid_n)
    exact = gamma_exact(args.alpha, args.eps, args.delta).value
    brute = oracle.brute_force_gamma(args.alpha, args.eps, args.delta, grid)
    gap = brute - exact
    q_report = oracle.verify_q_star(args.alpha, args.eps, args.delta, grid)
    containment = oracle.joint_range_containment(args.alpha, args.eps, n_samples=args.samples, seed=args.seed)
    failures = []
    if not abs(gap) <= args.tol:
        failures.append(f"frontier gap |{gap!r}| > {args.tol!r}")
    if not q_report["max_gap"] <= args.tol:
        failures.append(f"q_star max_gap {q_report['max_gap']!r} > {args.tol!r}")
    if containment["violations"] != 0:
        failures.append(f"containment violations = {containment['violations']}")
    report = {
        "alpha": args.alpha,
        "eps": args.eps,
        "delta": args.delta,
        "grid": {"n_coarse": grid.n_coarse, "n_refine": grid.n_refine, "refine_window": oracle.REFINE_WINDOW},
        "seed": args.seed,
        "samples": args.samples,
        "tolerance": args.tol,
        "gamma_exact": exact,
        "brute_force_gamma": brute,
        "gap": gap,
        "q_star_max_gap": q_report["max_gap"],
        "q_star_points": q_report["n_p_checked"],
        "containment_violations": containment["violations"],
        "containment_min_margin": containment["min_margin"],
        "passed": not failures,
        "failures": failures,
    }
    if args.out is not None:
        # the report file carries no timing, so fixed seeds reproduce it byte for byte
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    query = _flags(args, "alpha", "eps", "delta", "grid_n", "samples", "seed", "tol")
    _emit(_record("oracle-check", query, report, args.seed, started))
    if failures:
        raise ValidationFailure("; ".join(failures))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="Optimal Renyi-DP to approximate-DP conversion and Gaussian composition accounting.",
    )
    parser.add_argument("--version", action="version", version=f"{TOOL_NAME} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    convert = sub.add_parser("convert", help="convert between (alpha, gamma) and (eps, delta)")
    convert.add_argument("--config", default=None, help="key=value file mirroring flags; flags override")
    convert.add_argument("--alpha", type=float, required=True)
    convert.add_argument("--gamma", type=float, default=None)
    convert.add_argument("--eps", type=float, default=None)
    convert.add_argument("--delta", type=float, default=None)
    convert.add_argument("--method", choices=("exact", "bound", "baseline", "balle", "all"), default="exact")
    convert.set_defaults(func=cmd_convert)

    compose = sub.add_parser("compose", help="epsilon after T compositions")
    compose.add_argument("--config", default=None)
    compose.add_argument("--sigma", type=float, required=True)
    compose.add_argument("--q", type=float, default=None)
    compose.add_argument("--T", type=int, required=True)
    compose.add_argument("--delta", type=float, required=True)
    compose.add_argument("--mode", choices=("closed_form", "exact"), default="closed_form")
    compose.set_defaults(func=cmd_compose)

    max_t = sub.add_parser("max-t", help="largest T within an epsilon budget")
    max_t.add_argument("--config", default=None)
    max_t.add_argument("--sigma", type=float, required=True)
    max_t.add_argument("--q", type=float, default=None)
    max_t.add_argument("--eps", type=float, required=True)
    max_t.add_argument("--delta", type=float, required=True)
    max_t.add_argument("--mode", choices=("closed_form", "exact"), default="closed_form")
    max_t.set_defaults(func=cmd_max_t)

    variance = sub.add_parser("variance", help="noise variance needed for a target budget")
    variance.add_argument("--config", default=None)
    variance.add_argument("--T", type=int, required=True)
    variance.add_argument("--eps", type=float, required=True)
    variance.add_argument("--delta", type=float, required=True)
    variance.set_defaults(func=cmd_variance)

    curve = sub.add_parser("curve", help="emit an epsilon-versus-T or frontier sweep")
    curve.add_argument("--config", default=None)
    curve.add_argument("--fig", type=int, choices=(1, 2, 3), default=None)
    curve.add_argument("--sigma", type=float, default=None)
    curve.add_argument("--q", type=float, default=None)
    curve.add_argument("--delta", type=float, default=None)
    curve.add_argument("--t-from", dest="t_from", type=int, default=None)
    curve.add_argument("--t-to", dest="t_to", type=int, default=None)
    curve.add_argument("--t-step", dest="t_step", type=int, default=None)
    curve.add_argument("--alpha", default=None, help="comma-separated orders for --fig 1")
    curve.add_argument("--eps", default=None, help="comma-separated epsilons for --fig 1")
    curve.add_argument("--delta-from", dest="delta_from", type=float, default=None)
    curve.add_argument("--delta-to", dest="delta_to", type=float, default=None)
    curve.add_argument("--delta-points", dest="delta_points", type=int, default=None)
    curve.add_argument("--mode", choices=("closed_form", "exact", "both"), default=None)
    curve.add_argument("--out", default=None)
    curve.add_argument("--format", choices=("csv", "json"), default="csv")
    curve.set_defaults(func=cmd_curve)

    oracle = sub.add_parser("oracle-check", help="validate the frontier against brute force")
    oracle.add_argument("--config", default=None)
    oracle.add_argument("--alpha", type=float, required=True)
    oracle.add_argument("--eps", type=float, required=True)
    oracle.add_argument("--delta", type=float, required=True)
    oracle.add_argument("--grid-n", dest="grid_n", type=int, default=None)
    oracle.add_argument("--samples", type=int, default=10000)
    oracle.add_argument("--seed", type=int, default=None)  # cmd_oracle_check fills in DEFAULT_SEED
    oracle.add_argument("--tol", type=float, default=1e-4)
    oracle.add_argument("--out", default=None)
    oracle.set_defaults(func=cmd_oracle_check)

    return parser


def _apply_config(argv: list[str]) -> list[str]:
    """Splice config-file key=value pairs in as flags; later files and explicit flags override."""
    # declares only --config, so argparse's own spellings (--config=PATH, --conf)
    # match here exactly as they would in the subcommand's parser
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    pre.add_argument("--config", action="append", default=[])
    try:
        known, rest = pre.parse_known_args(argv)
    except argparse.ArgumentError:
        raise UsageError("--config needs a file path") from None
    if not known.config:
        return argv
    if not rest or rest[0].startswith("-"):
        raise UsageError("--config is only valid after a subcommand")
    pairs = []
    for path in known.config:
        with open(path, "r", encoding="utf-8") as handle:
            for line_no, raw in enumerate(handle, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{line_no}: expected key=value, got {line!r}")
                key, value = line.split("=", 1)
                pairs += ["--" + key.strip().replace("_", "-"), value.strip()]
    return [rest[0]] + pairs + rest[1:]


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(_apply_config(list(sys.argv[1:] if argv is None else argv)))
        return args.func(args)
    except SystemExit as exc:  # argparse exits after --help, --version or a usage message
        return int(exc.code) if exc.code is not None else 0
    except UsageError as exc:
        print(f"{TOOL_NAME}: usage error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except ValidationFailure as exc:
        print(f"{TOOL_NAME}: validation failure: {exc}", file=sys.stderr)
        return _EXIT_VALIDATION
    except DomainError as exc:
        print(f"{TOOL_NAME}: domain error: {exc}", file=sys.stderr)
        return _EXIT_INFEASIBLE
    except AccountingError as exc:
        print(f"{TOOL_NAME}: infeasible: {exc}", file=sys.stderr)
        return _EXIT_INFEASIBLE
    except OSError as exc:
        print(f"{TOOL_NAME}: I/O error: {exc}", file=sys.stderr)
        return _EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
