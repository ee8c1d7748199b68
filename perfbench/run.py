"""rdpopt benchmark: one seeded workload, every answer checked.

    python3 perfbench/run.py --workload accountant --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from ./src
and nothing is installed.  With --trace 0 the run times whole queries and
reports the end-to-end metrics; with --trace 1 it answers half the list once
untraced and once with every layer wrapped, and reports per-layer metrics.
A report with provenance, per-kind counts and every failing input is printed
first; the last line of stdout is the result object.  See README.md.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from importlib import metadata  # noqa: E402

import reference  # noqa: E402
import tracer  # noqa: E402
from speed import Clock  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

END_TO_END = [
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("eps_excess", "nat"),
    ("frontier_gap", "nat"),
]

SETUP_PROBES = 5  # fresh processes timed per run; setup_s is their median
TAIL_BEYOND = 10  # the tail percentile is the highest with this many samples above it


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _use_source_tree() -> None:
    if not os.path.isfile(os.path.join(SRC, "rdpopt", "__init__.py")):
        raise BenchmarkError(f"no rdpopt package under {SRC}; run from the root of a source checkout")
    sys.path.insert(0, SRC)


def prepare(name: str, seed: int, seconds: int, traced: bool):
    """Everything a run does before its first timed query: import, inputs, warm-up."""
    t0 = time.perf_counter()
    import rdpopt
    from rdpopt import conversion, gaussian, oracle  # noqa: F401

    t1 = time.perf_counter()
    if not os.path.abspath(rdpopt.__file__).startswith(SRC + os.sep):
        raise BenchmarkError(f"rdpopt was imported from {rdpopt.__file__}, not from {SRC}")
    workload = WORKLOADS[name](ROOT)
    # an untraced run spreads `seconds` over its passes; a traced run answers
    # half as many queries, once untraced and once traced
    work = seconds * workload.units_per_second * (0.5 if traced else 1.0 / workload.passes)
    queries = workload.generate(seed, max(1, round(work)))
    workload.warm_up(queries)
    return workload, queries, (t0, t1)


def timed_pass(workload, queries, clock: Clock | None, trace=None) -> None:
    """Answer every query once, one at a time, calibrating the clock between answers."""
    now = time.perf_counter
    if clock:
        clock.spend(0.02)
    for q in queries:
        token = trace.begin() if trace is not None else None
        t0 = now()
        try:
            answer = workload.execute(q)
        except Exception as exc:  # a failing query is counted, never dropped
            answer = None
            q.error = f"{type(exc).__name__}: {exc}"
        t1 = now()
        if token is not None:
            trace.end(token, f"query.{q.kind}")
        if not q.intervals:
            q.answer = answer
        elif q.error is None and answer != q.answer:
            q.error = "answer changed between passes"
        q.intervals.append((t0, t1))
        if clock:
            clock.measured(t1 - t0)
    if clock:
        clock.spend(0.02)


def latencies(queries, clock: Clock | None) -> list[float]:
    """Each query's mean duration over the passes, rescaled when there is a clock."""
    def duration(t0, t1):
        return clock.scaled(t0, t1) if clock else t1 - t0

    return [statistics.fmean(duration(*i) for i in q.intervals) for q in queries]


def check_queries(workload, queries) -> list[dict]:
    failures = []
    for q in queries:
        if q.error is None:
            try:
                reasons = workload.check(q)
            except Exception as exc:  # a check that cannot run is a failed answer
                reasons = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            reasons = [q.error]
        if reasons:
            failures.append({"kind": q.kind, "input": q.args, "reasons": reasons})
    return failures


# fixed oracle points: the gamma_exact anchor and a large-delta corner where
# the brute-force grid is coarsest.  The grid error jumps several-fold when
# delta moves by 0.1%, so a maximum over seeded inputs would spread by about
# 30% between seeds; a fixed panel compares commits exactly.
ORACLE_PANEL = [(2.0, 1.0, 0.1), (25.0, 2.5, 0.49)]


def check_anchors(with_panel: bool) -> tuple[dict, list[dict]]:
    """Published values the library must reproduce, checked once per run.

    The oracle panel costs about 3 s; traced runs, which report no
    frontier_gap, leave it out.
    """
    from rdpopt import conversion, gaussian, oracle

    rho = gaussian.rho_gaussian(20.0)
    v = {
        "eps_ours": gaussian.acct_epsilon(rho, 1000, 1e-5).epsilon,
        "eps_ma": gaussian.ma_epsilon(rho, 1000, 1e-5),
        "eps_opt": reference.eps_opt(20.0, 1000, 1e-5),
        "T_ours": gaussian.max_iterations(rho, 6.0, 1e-5),
        "T_ma": gaussian.ma_max_iterations(rho, 6.0, 1e-5),
        "sigma_sq": gaussian.required_variance(100, 1.0, 1e-6).sigma_sq,
        "ma_sigma_sq": gaussian.ma_required_variance(100, 1.0, 1e-6),
        "gamma_exact": conversion.gamma_exact(2.0, 1.0, 0.1).value,
    }
    v["eps_excess"] = v["eps_ours"] - v["eps_opt"]
    if with_panel:
        v["panel_gaps"] = [
            oracle.brute_force_gamma(a, e, d) - conversion.gamma_exact(a, e, d).value for a, e, d in ORACLE_PANEL
        ]
        v["frontier_gap"] = max(v["panel_gaps"])
    expect = [
        (round(v["eps_ours"], 4) == 8.0784, "eps_ours(20, 1000, 1e-5) = 8.0784"),
        (round(v["eps_ma"], 4) == 8.8371, "eps_ma(20, 1000, 1e-5) = 8.8371"),
        (round(v["eps_opt"], 4) == 7.5113, "eps_opt(20, 1000, 1e-5) = 7.5113"),
        (round(v["eps_excess"], 3) == 0.567, "eps_ours - eps_opt = 0.567"),
        (v["T_ours"] == 603 and v["T_ma"] == 501, "max_iterations 603 / 501"),
        (round(v["sigma_sq"], 1) == 2052.9 and round(v["ma_sigma_sq"], 1) == 2862.2, "required_variance 2052.9 / 2862.2"),
        (abs(v["gamma_exact"] - 0.5465668663746011) <= 1e-9, "gamma_exact(2, 1, 0.1) = 0.5465668663746011"),
    ]
    if with_panel:
        expect.append((all(-1e-9 <= g <= 1e-4 for g in v["panel_gaps"]),
                       f"brute_force_gamma within 1e-4 above gamma_exact at {ORACLE_PANEL}"))
    failures = [{"kind": "anchor", "input": what, "reasons": [f"got {v}"]} for ok, what in expect if not ok]
    return v, failures


def setup_samples(args) -> list[dict]:
    """Time SETUP_PROBES fresh processes from spawn to ready-for-first-query.

    Process start-up does not slow with the calibration loop (see speed.py),
    so these times are raw.
    """
    samples = []
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    for _ in range(SETUP_PROBES):
        spawn = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
        if proc.returncode != 0 or not line:
            raise BenchmarkError(f"setup probe exited with code {proc.returncode}")
        info = json.loads(line)
        samples.append({
            "setup_s": ready - spawn,
            "interpreter_s": info["start"] - spawn,
            "import_s": info["import"][1] - info["import"][0],
        })
    return samples


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * k / max(n - 1, 1)


def provenance(args, queries) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": _commit(),
        "queries_per_kind": dict(sorted(Counter(q.kind for q in queries).items())),
    }


def _commit():
    # the benchmark may run in an export without .git; then the commit is unknown
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return None


def run(args) -> tuple[dict, dict]:
    workload, queries, _ = prepare(args.workload, args.seed, args.seconds, bool(args.trace))
    report = provenance(args, queries)
    clock = Clock() if workload.rescale else None
    if args.trace:
        return run_traced(args, workload, queries, clock, report)

    for _ in range(workload.passes):
        timed_pass(workload, queries, clock)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF)
    failures = check_queries(workload, queries)
    anchors, anchor_failures = check_anchors(with_panel=True)
    failures += anchor_failures
    setups = setup_samples(args)

    per_query = latencies(queries, clock)
    tail_value, tail_pct = tail(per_query)
    excess = workload.eps_excess(queries)
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "queries_per_s": len(per_query) / sum(per_query),
        "latency_p50_ms": 1e3 * statistics.median(per_query),
        "latency_tail_ms": 1e3 * tail_value,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        # certify answers no composition query, so its eps_excess is the anchor's
        "eps_excess": statistics.fmean(excess) if excess else anchors["eps_excess"],
        "frontier_gap": anchors["frontier_gap"],
    }
    report.update({
        "passes": workload.passes,
        "latency_tail": {"percentile": tail_pct, "samples": len(per_query), "beyond": TAIL_BEYOND},
        "latency_p50_by_kind_ms": _p50_by_kind(queries, per_query),
        "eps_excess_answers": len(excess),
        **workload.extra_report(queries),
        "setup_samples_s": [s["setup_s"] for s in setups],
        "anchors": anchors,
        "failed_frac": len([f for f in failures if f["kind"] != "anchor"]) / len(queries),
        "failures": failures,
    })
    if clock:
        raw = latencies(queries, None)
        report["raw"] = {
            "queries_per_s": len(raw) / sum(raw),
            "latency_p50_ms": 1e3 * statistics.median(raw),
            "latency_tail_ms": 1e3 * tail(raw)[0],
        }
        report["slowdown"] = clock.factors()
    return report, _result(queries, failures, metrics, END_TO_END)


def run_traced(args, workload, queries, clock, report) -> tuple[dict, dict]:
    timed_pass(workload, queries, clock)
    untraced_s = sum(latencies(queries, clock))
    untraced = [q.answer for q in queries]
    for q in queries:
        q.intervals.clear()
    trace = tracer.Tracer()
    if args.workload == "cli":
        workload.tracer = trace  # the library runs in the CLI children, which trace themselves
        skipped = []
    else:
        skipped = trace.install()
    try:
        timed_pass(workload, queries, clock, trace)
    finally:
        trace.uninstall()
        workload.tracer = None
    traced_s = sum(latencies(queries, clock))
    traced_wall = sum(latencies(queries, None))
    failures = check_queries(workload, queries)
    for q, before in zip(queries, untraced):
        if args.workload != "cli" and q.error is None and q.answer != before:
            failures.append({"kind": q.kind, "input": q.args, "reasons": ["traced answer differs from untraced"]})
    _, anchor_failures = check_anchors(with_panel=False)
    failures += anchor_failures
    setups = setup_samples(args)
    cli_times = getattr(workload, "cli_times", None) or {
        "interpreter": [s["interpreter_s"] for s in setups],
        "import": [s["import_s"] for s in setups],
    }
    metrics = tracer.summary(trace, len(queries), traced_wall, cli_times)
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    # the self times of all spans add up to the queries' wall time when every
    # span nests inside its parent; the root spans open just outside t0, t1
    if not abs(metrics["trace.self_coverage"] - 1.0) <= 0.05:
        failures.append({"kind": "trace", "input": None,
                         "reasons": [f"self times sum to {metrics['trace.self_coverage']:.4f} of traced wall time"]})
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"{args.workload}.spans.csv")
    trace.write(spans_path)
    report.update({
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "spans": len(trace.spans),
        "spans_file": os.path.relpath(spans_path, ROOT),
        "patches_skipped": skipped,
        "layers": tracer.table(trace),
        "failed_frac": len([f for f in failures if f["kind"] not in ("anchor", "trace")]) / len(queries),
        "failures": failures,
    })
    return report, _result(queries, failures, metrics, tracer.PER_LAYER)


def _p50_by_kind(queries, latencies) -> dict:
    by_kind: dict[str, list[float]] = {}
    for q, latency in zip(queries, latencies):
        by_kind.setdefault(q.kind, []).append(latency)
    return {kind: 1e3 * statistics.median(v) for kind, v in sorted(by_kind.items())}


def _result(queries, failures, values, spec) -> dict:
    failed = len({id(f["input"]) for f in failures if f["kind"] not in ("anchor", "trace")})
    metrics = {}
    for name, unit in spec:
        value = float(values[name])
        if not math.isfinite(value):
            raise BenchmarkError(f"metric {name} is not finite: {value!r}")
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": not failures, "attempted": len(queries), "failed": failed, "metrics": metrics}


def probe(args) -> int:
    _, _, imported = prepare(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"start": _START, "import": imported}), flush=True)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    try:
        _use_source_tree()
        if args.setup_probe:
            return probe(args)
        report, result = run(args)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report, indent=1, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
