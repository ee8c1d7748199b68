"""Per-layer tracing of rdpopt from outside the package.

Tracer.install() replaces each layer's public functions with wrappers under
every name through which other modules call them (rdpopt.conversion.gamma_exact,
rdpopt.oracle.gamma_exact, rdpopt.cli.gamma_exact, ...), so calls made inside
the package are seen too.  A wrapper records a span (id, parent, name, start,
end) and counts taken at the same boundary.  Spans stay in memory until the
run ends; summary() derives self times (span duration minus the time its
children cover) and the per-layer metrics from them.

Objective evaluations of the scalar searches are counted by wrapping the
objective passed in, and boundary_objective is counted without a span: it
runs hundreds of times per answer, so a span per call would swamp the trace.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
import time
from collections import defaultdict

_now = time.perf_counter

# precedes the JSON line a traced CLI child appends to its stderr
SHIM_MARKER = "\n@@perfbench-trace "

# (module, attribute, layer): the layer's public functions under every name
# the package uses to call them; names a module does not have are skipped
_PATCHES = [
    ("rdpopt.optimize", "minimize_unimodal", "optimize.minimize_unimodal"),
    ("rdpopt.conversion", "minimize_unimodal", "optimize.minimize_unimodal"),
    ("rdpopt.gaussian", "minimize_unimodal", "optimize.minimize_unimodal"),
    ("rdpopt.optimize", "invert_monotone", "optimize.invert_monotone"),
    ("rdpopt.conversion", "invert_monotone", "optimize.invert_monotone"),
    ("rdpopt.conversion", "boundary_objective", "conversion.boundary_objective"),
    ("rdpopt.conversion", "gamma_exact", "conversion.gamma_exact"),
    ("rdpopt.oracle", "gamma_exact", "conversion.gamma_exact"),
    ("rdpopt.cli", "gamma_exact", "conversion.gamma_exact"),
    ("rdpopt.conversion", "epsilon_exact", "conversion.epsilon_exact"),
    ("rdpopt.gaussian", "epsilon_exact", "conversion.epsilon_exact"),
    ("rdpopt.cli", "epsilon_exact", "conversion.epsilon_exact"),
    ("rdpopt.conversion", "delta_exact", "conversion.delta_exact"),
    ("rdpopt.cli", "delta_exact", "conversion.delta_exact"),
    ("rdpopt.gaussian", "acct_epsilon", "gaussian.acct_epsilon"),
    ("rdpopt.cli", "acct_epsilon", "gaussian.acct_epsilon"),
    ("rdpopt.gaussian", "max_iterations", "gaussian.max_iterations"),
    ("rdpopt.cli", "max_iterations", "gaussian.max_iterations"),
    ("rdpopt.gaussian", "required_variance", "gaussian.required_variance"),
    ("rdpopt.cli", "required_variance", "gaussian.required_variance"),
    ("rdpopt.gaussian", "privacy_curve", "gaussian.privacy_curve"),
    ("rdpopt.cli", "privacy_curve", "gaussian.privacy_curve"),
    ("rdpopt.divergences", "renyi_binary", "divergences.renyi_binary"),
    ("rdpopt.oracle", "renyi_binary", "divergences.renyi_binary"),
    ("rdpopt.oracle", "brute_force_gamma", "oracle.brute_force_gamma"),
    ("rdpopt.cli", "brute_force_gamma", "oracle.brute_force_gamma"),
    ("rdpopt.oracle", "verify_q_star", "oracle.verify_q_star"),
    ("rdpopt.cli", "verify_q_star", "oracle.verify_q_star"),
    ("rdpopt.oracle", "joint_range_containment", "oracle.joint_range_containment"),
    ("rdpopt.cli", "joint_range_containment", "oracle.joint_range_containment"),
]

CLI_SUBCOMMANDS = ("convert", "compose", "variance", "max-t", "curve")

# per-layer metric names and units, in report order
PER_LAYER = [
    ("cli.interpreter_s", "s"),
    ("cli.import_s", "s"),
    *[(f"cli.main_s.{sub}", "s") for sub in CLI_SUBCOMMANDS],
    ("gaussian.acct_epsilon.closed_form.calls", "count"),
    ("gaussian.acct_epsilon.closed_form.self_s", "s"),
    ("gaussian.acct_epsilon.exact.calls", "count"),
    ("gaussian.acct_epsilon.exact.self_s", "s"),
    ("gaussian.max_iterations.acct_calls_per_solve", "count"),
    ("gaussian.required_variance.self_s", "s"),
    ("gaussian.privacy_curve.s_per_row", "s"),
    ("optimize.minimize_unimodal.calls", "count"),
    ("optimize.minimize_unimodal.evals", "count"),
    ("optimize.minimize_unimodal.evals_per_call", "count"),
    ("optimize.minimize_unimodal.self_s", "s"),
    ("optimize.minimize_unimodal.nonconverged", "count"),
    ("optimize.invert_monotone.calls", "count"),
    ("optimize.invert_monotone.evals", "count"),
    ("optimize.invert_monotone.self_s", "s"),
    ("optimize.invert_monotone.nonconverged", "count"),
    ("conversion.boundary_objective.evals_per_answer", "count"),
    ("conversion.gamma_exact.calls", "count"),
    ("conversion.gamma_exact.self_s", "s"),
    ("conversion.gamma_exact.edge_frac", "frac"),
    ("conversion.epsilon_exact.calls", "count"),
    ("conversion.epsilon_exact.self_s", "s"),
    ("conversion.delta_exact.calls", "count"),
    ("conversion.delta_exact.self_s", "s"),
    ("divergences.renyi_binary.calls", "count"),
    ("divergences.renyi_binary.self_s", "s"),
    ("oracle.brute_force_gamma.self_s", "s"),
    ("oracle.brute_force_gamma.cells_computed", "count"),
    ("oracle.brute_force_gamma.bytes_computed", "bytes"),
    ("oracle.verify_q_star.self_s", "s"),
    ("oracle.joint_range_containment.self_s", "s"),
    ("oracle.joint_range_containment.gamma_exact_calls", "count"),
    ("trace.overhead_frac", "frac"),
    ("trace.self_coverage", "frac"),
]

_POLISH_COLUMNS = 513  # q points per row in oracle._polish_rows (_N_POLISH + 1)


def _arg(args, kwargs, pos, name, default):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _default(fn, name):
    return inspect.signature(fn).parameters[name].default


class Tracer:
    """Spans and counts recorded by wrappers around rdpopt's layer functions."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack = [0]
        self._next_id = 1
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def begin(self) -> tuple[int, int, float]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent, _now()

    def end(self, token: tuple[int, int, float], name: str) -> None:
        sid, parent, start = token
        stop = _now()
        self._stack.pop()
        self.spans.append((sid, parent, name, start, stop))

    def add_span(self, name: str, start: float, stop: float) -> int:
        """Record a span measured elsewhere (a child process) under the current span."""
        sid = self._next_id
        self._next_id += 1
        self.spans.append((sid, self._stack[-1], name, start, stop))
        return sid

    def merge(self, child: dict, parent: int) -> None:
        """Adopt spans and counts a child process recorded, re-numbering its span ids."""
        remap = {0: parent}
        for sid, _, _, _, _ in child["spans"]:
            remap[sid] = self._next_id
            self._next_id += 1
        for sid, par, name, start, stop in child["spans"]:
            self.spans.append((remap[sid], remap[par], name, start, stop))
        for key, value in child["counts"].items():
            self.counts[key] += value

    # -- wrappers --------------------------------------------------------

    def _spanned(self, name, fn, after=None, name_of=None):
        tracer = self

        def wrapper(*args, **kwargs):
            token = tracer.begin()
            try:
                result = fn(*args, **kwargs)
            finally:
                label = name if name_of is None else name_of(args, kwargs)
                tracer.end(token, label)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_search(self, layer, fn, cfg_pos, overhead):
        """Span a scalar search and count the objective evaluations it makes.

        Evaluations are overhead(cfg) + iterations, so a search whose
        iterations reach cfg.max_iters used its whole budget.
        """
        tracer = self
        default_cfg = _default(fn, "cfg")

        def wrapper(objective, *rest, **kwargs):
            n = 0

            def counted(x):
                nonlocal n
                n += 1
                return objective(x)

            token = tracer.begin()
            try:
                return fn(counted, *rest, **kwargs)
            finally:
                tracer.end(token, layer)
                cfg = _arg(rest, kwargs, cfg_pos, "cfg", default_cfg)
                tracer.counts[layer + ".evals"] += n
                if n - overhead(cfg) >= cfg.max_iters:
                    tracer.counts[layer + ".nonconverged"] += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_counted(self, name, fn):
        counts = self.counts
        key = name + ".evals"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _make_wrapper(self, layer, fn):
        counts = self.counts
        if layer == "optimize.minimize_unimodal":
            return self._wrap_search(layer, fn, 2, lambda cfg: cfg.coarse_grid + 2)
        if layer == "optimize.invert_monotone":
            return self._wrap_search(layer, fn, 4, lambda cfg: 2)
        if layer == "conversion.boundary_objective":
            return self._wrap_counted(layer, fn)
        if layer == "conversion.gamma_exact":

            def after(args, kwargs, result):
                if _arg(args, kwargs, 2, "delta", None) != 0.0:
                    counts["conversion.gamma_exact.searched"] += 1
                    if result.argmin_p is None:
                        counts["conversion.gamma_exact.edge"] += 1

            return self._spanned(layer, fn, after=after)
        if layer == "gaussian.acct_epsilon":
            default_mode = _default(fn, "mode")

            def name_of(args, kwargs):
                return f"{layer}.{_arg(args, kwargs, 3, 'mode', default_mode)}"

            return self._spanned(layer, fn, name_of=name_of)
        if layer == "gaussian.privacy_curve":

            def after(args, kwargs, result):
                counts["gaussian.privacy_curve.rows"] += len(result)

            return self._spanned(layer, fn, after=after)
        if layer == "oracle.brute_force_gamma":
            default_grid = _default(fn, "grid")

            def after(args, kwargs, result):
                grid = _arg(args, kwargs, 3, "grid", default_grid)
                # coarse scan, fine scan, and a polish of every row of each;
                # an upper bound computed from grid sizes, not a measurement
                rows = (grid.n_coarse + 1) + (grid.n_refine + 1)
                counts["oracle.brute_force_gamma.cells_computed"] += rows * (grid.n_coarse + 1 + _POLISH_COLUMNS)

            return self._spanned(layer, fn, after=after)
        return self._spanned(layer, fn)

    def install(self) -> list[str]:
        """Patch every listed name of the modules imported so far; returns the names skipped."""
        made: dict[int, object] = {}
        skipped = []
        for module_name, attr, layer in _PATCHES:
            module = sys.modules.get(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                skipped.append(f"{module_name}.{attr}")
                continue
            wrapper = made.get(id(fn))
            if wrapper is None:
                wrapper = made[id(fn)] = self._make_wrapper(layer, fn)
            self._saved.append((module, attr, fn))
            setattr(module, attr, wrapper)
        return skipped

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    # -- output ----------------------------------------------------------

    def export(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id,parent,name,start,end\n")
            for sid, parent, name, start, stop in self.spans:
                handle.write(f"{sid},{parent},{name},{start!r},{stop!r}\n")

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self time (duration minus the time child spans cover) and span count per name."""
        covered: dict[int, float] = defaultdict(float)
        for sid, parent, name, start, stop in self.spans:
            if parent:
                covered[parent] += stop - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for sid, parent, name, start, stop in self.spans:
            self_s[name] += (stop - start) - covered.get(sid, 0.0)
            calls[name] += 1
        return self_s, calls

    def children_of(self, parent_name: str, child_name: str) -> int:
        names = {sid: name for sid, _, name, _, _ in self.spans}
        return sum(1 for _, parent, name, _, _ in self.spans if name == child_name and names.get(parent) == parent_name)

    def durations(self, name: str) -> list[float]:
        return [stop - start for _, _, n, start, stop in self.spans if n == name]


def summary(tracer: Tracer, answers: int, traced_wall: float, cli_times: dict) -> dict:
    """Per-layer metric values from a finished traced run."""
    self_s, calls = tracer.self_times()
    c = tracer.counts
    values: dict[str, float] = {}
    values["cli.interpreter_s"] = _median(cli_times.get("interpreter", []))
    values["cli.import_s"] = _median(cli_times.get("import", []))
    for sub in CLI_SUBCOMMANDS:
        values[f"cli.main_s.{sub}"] = _median(tracer.durations(f"cli.main.{sub}"))
    for mode in ("closed_form", "exact"):
        name = f"gaussian.acct_epsilon.{mode}"
        values[f"{name}.calls"] = calls.get(name, 0)
        values[f"{name}.self_s"] = self_s.get(name, 0.0)
    solves = calls.get("gaussian.max_iterations", 0)
    inner = sum(tracer.children_of("gaussian.max_iterations", f"gaussian.acct_epsilon.{m}") for m in ("closed_form", "exact"))
    values["gaussian.max_iterations.acct_calls_per_solve"] = inner / solves if solves else 0.0
    values["gaussian.required_variance.self_s"] = self_s.get("gaussian.required_variance", 0.0)
    rows = c.get("gaussian.privacy_curve.rows", 0)
    values["gaussian.privacy_curve.s_per_row"] = sum(tracer.durations("gaussian.privacy_curve")) / rows if rows else 0.0

    n_min = calls.get("optimize.minimize_unimodal", 0)
    values["optimize.minimize_unimodal.calls"] = n_min
    values["optimize.minimize_unimodal.evals"] = c.get("optimize.minimize_unimodal.evals", 0)
    values["optimize.minimize_unimodal.evals_per_call"] = values["optimize.minimize_unimodal.evals"] / n_min if n_min else 0.0
    values["optimize.minimize_unimodal.self_s"] = self_s.get("optimize.minimize_unimodal", 0.0)
    values["optimize.minimize_unimodal.nonconverged"] = c.get("optimize.minimize_unimodal.nonconverged", 0)
    values["optimize.invert_monotone.calls"] = calls.get("optimize.invert_monotone", 0)
    values["optimize.invert_monotone.evals"] = c.get("optimize.invert_monotone.evals", 0)
    values["optimize.invert_monotone.self_s"] = self_s.get("optimize.invert_monotone", 0.0)
    values["optimize.invert_monotone.nonconverged"] = c.get("optimize.invert_monotone.nonconverged", 0)

    values["conversion.boundary_objective.evals_per_answer"] = c.get("conversion.boundary_objective.evals", 0) / max(answers, 1)
    for fn in ("gamma_exact", "epsilon_exact", "delta_exact"):
        values[f"conversion.{fn}.calls"] = calls.get(f"conversion.{fn}", 0)
        values[f"conversion.{fn}.self_s"] = self_s.get(f"conversion.{fn}", 0.0)
    searched = c.get("conversion.gamma_exact.searched", 0)
    values["conversion.gamma_exact.edge_frac"] = c.get("conversion.gamma_exact.edge", 0) / searched if searched else 0.0

    values["divergences.renyi_binary.calls"] = calls.get("divergences.renyi_binary", 0)
    values["divergences.renyi_binary.self_s"] = self_s.get("divergences.renyi_binary", 0.0)
    values["oracle.brute_force_gamma.self_s"] = self_s.get("oracle.brute_force_gamma", 0.0)
    cells = c.get("oracle.brute_force_gamma.cells_computed", 0)
    values["oracle.brute_force_gamma.cells_computed"] = cells
    values["oracle.brute_force_gamma.bytes_computed"] = 8 * cells  # one float64 divergence per cell
    values["oracle.verify_q_star.self_s"] = self_s.get("oracle.verify_q_star", 0.0)
    values["oracle.joint_range_containment.self_s"] = self_s.get("oracle.joint_range_containment", 0.0)
    values["oracle.joint_range_containment.gamma_exact_calls"] = tracer.children_of(
        "oracle.joint_range_containment", "conversion.gamma_exact"
    )
    values["trace.self_coverage"] = sum(self_s.values()) / traced_wall
    return values


def table(tracer: Tracer) -> list[dict]:
    """Every span name with its call count and self time, largest self time first."""
    self_s, calls = tracer.self_times()
    return [
        {"span": name, "calls": calls[name], "self_s": self_s[name]}
        for name in sorted(self_s, key=lambda n: -self_s[n])
    ]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def dumps_child(tracer: Tracer, extra: dict) -> str:
    return json.dumps({**extra, **tracer.export()})
