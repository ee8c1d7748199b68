"""Seeded query lists, their execution, and the answer checks, per workload.

Every workload draws a fixed list of queries from its seed, so two commits
answer identical inputs.  Inputs are Latin-hypercube samples (each kind's
unit interval split into as many strata as it has queries; plain-Gaussian
composition inputs are drawn as in _composition_inputs), which keeps the
aggregate figures nearly the same from seed to seed.  The list length is set
by the run length and a per-workload nominal rate measured at the commit that
defined the benchmark, not by a clock, so a faster program answers the same
queries in less time.

Library functions are always looked up on their module at call time
(conversion.gamma_exact, not a local alias), so the tracer's wrappers see
the calls.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field

import reference
import tracer

# slack for comparisons that hold exactly in real arithmetic
REL_SLACK = 1e-12
# argument tolerance of the exact conversions' searches (ScalarSearchConfig.abs_tol
# is 1e-10 for the conversions and 1e-9 for the inner searches of exact mode)
SEARCH_TOL = 1e-9


@dataclass
class Query:
    kind: str
    args: dict
    answer: object = None
    error: str | None = None
    intervals: list = field(default_factory=list)


def _lhs(rng: random.Random, n: int, dims: int) -> list[tuple[float, ...]]:
    cols = []
    for _ in range(dims):
        perm = list(range(n))
        rng.shuffle(perm)
        cols.append([(perm[i] + rng.random()) / n for i in range(n)])
    return list(zip(*cols))


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _plain_gaussian(u_mu: float, u_T: float) -> tuple[float, int]:
    # mu = sqrt(T)/sigma in [0.1, 4] puts epsilon between about 0.3 and 25,
    # the range budgets are set in; sigma = sqrt(T)/mu stays in [0.5, 30]
    mu = _log_uniform(u_mu, 0.1, 4.0)
    t_lo = max(1, math.ceil((0.5 * mu) ** 2))
    t_hi = math.floor((30.0 * mu) ** 2)
    T = round(_log_uniform(u_T, t_lo, t_hi))
    return math.sqrt(T) / mu, T


def _composition_inputs(rng: random.Random, n: int) -> list[tuple[float, int, float]]:
    """(sigma, T, delta) for plain-Gaussian composition queries.

    The answer and its excess over the optimum depend on mu and delta alone,
    and a Latin hypercube leaves their interaction unstratified: the mean
    excess of 22 samples then moves by 4% between seeds.  (mu, delta) come
    from a randomly shifted rank-1 lattice, folded by the tent map, which
    brings that to about 1%.
    """
    z = max(1, round(n / ((1.0 + math.sqrt(5.0)) / 2.0)))
    while math.gcd(z, n) != 1:
        z += 1
    shift_mu, shift_delta = rng.random(), rng.random()
    out = []
    for i in range(n):
        u_mu = 1.0 - abs(2.0 * ((i / n + shift_mu) % 1.0) - 1.0)
        u_delta = 1.0 - abs(2.0 * ((i * z / n + shift_delta) % 1.0) - 1.0)
        sigma, T = _plain_gaussian(u_mu, rng.random())
        out.append((sigma, T, _delta(u_delta)))
    return out


def _subsampled(u_sigma: float, u_q: float, u_T: float) -> tuple[float, float, int]:
    # sigma in [1, 8], q in [1e-4, 3e-2], T up to 5e5 with rho*T <= 4
    sigma = _log_uniform(u_sigma, 1.0, 8.0)
    q = _log_uniform(u_q, 1e-4, 3e-2)
    rho = q * q / ((1.0 - q) * sigma * sigma)
    t_hi = min(5e5, 4.0 / rho)
    t_lo = min(100.0, t_hi)
    T = max(1, round(_log_uniform(u_T, t_lo, t_hi)))
    return sigma, q, T


def _delta(u: float) -> float:
    return _log_uniform(u, 1e-9, 1e-3)


def _le(a: float, b: float) -> bool:
    return a <= b + REL_SLACK * abs(b)


# ---------------------------------------------------------------------------


class Workload:
    """A named query mix; subclasses define generation, execution and checks."""

    name = ""
    # queries of each kind per unit; units answered per second at the commit
    # that defined the benchmark; passes over the list in an untraced run
    unit: dict[str, int] = {}
    units_per_second = 1.0
    passes = 1
    # rescale durations to the reference speed (speed.py); only pure-Python
    # work slows with the calibration loop
    rescale = True
    # the kind whose answers are plain-Gaussian compositions, for eps_excess
    composition_kind: str | None = None

    def __init__(self, root: str):
        self.root = root

    def generate(self, seed: int, units: int) -> list[Query]:
        queries = []
        for kind, per_unit in self.unit.items():
            rng = random.Random(f"{self.name}:{kind}:{seed}")
            queries += [Query(kind, args) for args in self.draw(kind, rng, per_unit * units)]
        random.Random(f"{self.name}:order:{seed}").shuffle(queries)
        return queries

    def draw(self, kind: str, rng: random.Random, n: int) -> list[dict]:
        raise NotImplementedError

    def execute(self, query: Query):
        raise NotImplementedError

    def warm_up(self, queries: list[Query]) -> None:
        seen = set()
        for q in queries:
            if q.kind not in seen:
                seen.add(q.kind)
                self.execute(q)

    def check(self, query: Query) -> list[str]:
        raise NotImplementedError

    def eps_excess(self, queries: list[Query]) -> list[float]:
        """eps_ours - eps_opt for each plain-Gaussian composition answer."""
        return [
            q.answer["eps_ours"] - reference.eps_opt(q.args["sigma"], q.args["T"], q.args["delta"])
            for q in queries
            if q.kind == self.composition_kind and q.error is None
        ]

    def extra_report(self, queries: list[Query]) -> dict:
        return {}


class Accountant(Workload):
    name = "accountant"
    unit = {"compose": 8, "compose_sub": 6, "variance": 4, "curve": 1, "max_t": 1}
    units_per_second = 35.0
    # a 0.5 ms answer lands wholly in one machine-speed state, so each is
    # repeated and averaged (see speed.py)
    passes = 4
    composition_kind = "compose"

    def draw(self, kind, rng, n):
        if kind == "compose":
            return [{"sigma": s, "q": None, "T": T, "delta": d} for s, T, d in _composition_inputs(rng, n)]
        out = []
        for u in _lhs(rng, n, 4):
            if kind == "compose_sub":
                sigma, q, T = _subsampled(u[0], u[1], u[3])
                out.append({"sigma": sigma, "q": q, "T": T, "delta": _delta(u[2])})
            elif kind == "variance":
                out.append({"T": round(_log_uniform(u[0], 1.0, 1e5)), "eps": _log_uniform(u[1], 0.1, 10.0), "delta": _delta(u[2])})
            elif kind == "max_t":
                eps = _log_uniform(u[1], 0.5, 10.0)
                if u[3] < 0.5:
                    out.append({"sigma": _log_uniform(u[0], 0.5, 30.0), "q": None, "eps": eps, "delta": _delta(u[2])})
                else:
                    sigma, q, _ = _subsampled(u[0], 2.0 * u[3] - 1.0, 0.0)
                    out.append({"sigma": sigma, "q": q, "eps": eps, "delta": _delta(u[2])})
            else:  # curve: a four-row sweep
                if u[3] < 0.5:
                    sigma, T = _plain_gaussian(u[0], u[1])
                    q = None
                else:
                    sigma, q, T = _subsampled(u[0], 2.0 * u[3] - 1.0, u[1])
                step = max(1, T // 4)
                out.append({"sigma": sigma, "q": q, "delta": _delta(u[2]), "T_values": [step * k for k in (1, 2, 3, 4)]})
        return out

    def execute(self, query):
        from rdpopt import gaussian

        a = query.args
        if query.kind in ("compose", "compose_sub"):
            rho = gaussian.rho_gaussian(a["sigma"]) if a["q"] is None else gaussian.rho_subsampled(a["sigma"], a["q"])
            ours = gaussian.acct_epsilon(rho, a["T"], a["delta"])
            return {"eps_ours": ours.epsilon, "eps_ma": gaussian.ma_epsilon(rho, a["T"], a["delta"])}
        if query.kind == "variance":
            ours = gaussian.required_variance(a["T"], a["eps"], a["delta"])
            return {"sigma_sq": ours.sigma_sq, "ma_sigma_sq": gaussian.ma_required_variance(a["T"], a["eps"], a["delta"])}
        if query.kind == "max_t":
            rho = gaussian.rho_gaussian(a["sigma"]) if a["q"] is None else gaussian.rho_subsampled(a["sigma"], a["q"])
            return {
                "T_ours": gaussian.max_iterations(rho, a["eps"], a["delta"]),
                "T_ma": gaussian.ma_max_iterations(rho, a["eps"], a["delta"]),
            }
        config = gaussian.GaussianConfig(sigma=a["sigma"], subsampling_q=a["q"])
        rows = gaussian.privacy_curve(config, a["delta"], a["T_values"])
        return [{"T": r.T, "eps_ours": r.eps_ours, "eps_ma": r.eps_ma} for r in rows]

    def check(self, query):
        a, ans, bad = query.args, query.answer, []
        if query.kind in ("compose", "compose_sub"):
            rows = [{"T": a["T"], **ans}]
        elif query.kind == "curve":
            rows = ans
        else:
            rows = []
        for row in rows:
            if not _le(row["eps_ours"], row["eps_ma"]):
                bad.append(f"eps_ours {row['eps_ours']!r} > eps_ma {row['eps_ma']!r} at T={row['T']}")
            if a.get("q") is None:
                opt = reference.eps_opt(a["sigma"], row["T"], a["delta"])
                if not _le(opt, row["eps_ours"]):
                    bad.append(f"eps_ours {row['eps_ours']!r} < optimal {opt!r} at T={row['T']}")
        if query.kind == "variance" and not _le(ans["sigma_sq"], ans["ma_sigma_sq"]):
            bad.append(f"sigma_sq {ans['sigma_sq']!r} > ma {ans['ma_sigma_sq']!r}")
        if query.kind == "max_t" and not ans["T_ours"] >= ans["T_ma"]:
            bad.append(f"T_ours {ans['T_ours']} < T_ma {ans['T_ma']}")
        return bad


class Exact(Workload):
    name = "exact"
    # one slow exact accountant call per unit puts about 22 of them in a run,
    # so the tail (ten answers beyond it) sits inside their mass and the
    # median inside the conversions'
    unit = {"gamma": 4, "epsilon": 6, "delta": 6, "acct_exact": 1}
    units_per_second = 1.45
    composition_kind = "acct_exact"

    def draw(self, kind, rng, n):
        if kind == "acct_exact":
            return [{"sigma": s, "T": T, "delta": d} for s, T, d in _composition_inputs(rng, n)]
        # alpha in (1, 50], eps and gamma in (0, 5], delta in (0, 0.5): the ranges of tests/conftest.py
        out = []
        for u in _lhs(rng, n, 3):
            alpha = 1.0 + 49.0 * max(u[0], 1e-6)
            if kind == "gamma":
                out.append({"alpha": alpha, "eps": 5.0 * u[1], "delta": 0.5 * u[2]})
            elif kind == "epsilon":
                delta = (1e-8 + (1.0 - 1e-8) * u[2]) * min(0.5, 0.999 / alpha)
                out.append({"alpha": alpha, "gamma": 5.0 * u[1], "delta": delta})
            else:
                out.append({"alpha": alpha, "gamma": 5.0 * u[1], "eps": 5.0 * u[2]})
        return out

    def execute(self, query):
        from rdpopt import conversion, gaussian

        a = query.args
        if query.kind == "gamma":
            r = conversion.gamma_exact(a["alpha"], a["eps"], a["delta"])
            return {"value": r.value, "argmin_p": r.argmin_p}
        if query.kind == "epsilon":
            return {"value": conversion.epsilon_exact(a["alpha"], a["gamma"], a["delta"]).value}
        if query.kind == "delta":
            return {"value": conversion.delta_exact(a["alpha"], a["gamma"], a["eps"]).value}
        rho = gaussian.rho_gaussian(a["sigma"])
        return {"eps_ours": gaussian.acct_epsilon(rho, a["T"], a["delta"], "exact").epsilon}

    def warm_up(self, queries):
        # one of each conversion; the exact accountant is warmed by the closed
        # form, which shares its order scan, instead of a 0.6 s call
        from rdpopt import gaussian

        super().warm_up([q for q in queries if q.kind != "acct_exact"])
        gaussian.acct_epsilon(gaussian.rho_gaussian(20.0), 1000, 1e-5)

    def check(self, query):
        from rdpopt import conversion, gaussian

        a, v, bad = query.args, query.answer, []
        if query.kind == "gamma":
            lower = conversion.gamma_bound(a["alpha"], a["eps"], a["delta"]).value
            edge = a["eps"] - math.log1p(-a["delta"])
            if not (lower - SEARCH_TOL <= v["value"] <= edge + SEARCH_TOL):
                bad.append(f"gamma {v['value']!r} outside [bound {lower!r}, edge {edge!r}]")
        elif query.kind == "epsilon":
            back = conversion.gamma_exact(a["alpha"], v["value"], a["delta"]).value
            if not back >= a["gamma"] - SEARCH_TOL:
                bad.append(f"round trip gamma {back!r} < {a['gamma']!r}")
            upper = conversion.epsilon_bound(a["alpha"], a["gamma"], a["delta"]).value
            if not v["value"] <= upper + SEARCH_TOL:
                bad.append(f"epsilon {v['value']!r} above closed-form bound {upper!r}")
        elif query.kind == "delta":
            back = conversion.gamma_exact(a["alpha"], a["eps"], v["value"]).value
            if not back >= a["gamma"] - SEARCH_TOL:
                bad.append(f"round trip gamma {back!r} < {a['gamma']!r}")
            upper = conversion.delta_bound(a["alpha"], a["gamma"], a["eps"]).value
            if not v["value"] <= upper + SEARCH_TOL:
                bad.append(f"delta {v['value']!r} above closed-form bound {upper!r}")
        else:
            rho = gaussian.rho_gaussian(a["sigma"])
            closed = gaussian.acct_epsilon(rho, a["T"], a["delta"]).epsilon
            ma = gaussian.ma_epsilon(rho, a["T"], a["delta"])
            opt = reference.eps_opt(a["sigma"], a["T"], a["delta"])
            if not v["eps_ours"] <= closed + SEARCH_TOL:
                bad.append(f"exact {v['eps_ours']!r} above closed form {closed!r}")
            if not _le(v["eps_ours"], ma):
                bad.append(f"exact {v['eps_ours']!r} above eps_ma {ma!r}")
            if not _le(opt, v["eps_ours"]):
                bad.append(f"exact {v['eps_ours']!r} below optimal {opt!r}")
        return bad


class Certify(Workload):
    name = "certify"
    unit = {"check": 1}
    # eleven checks in a 15 s run: the fewest that leave ten beyond the tail
    units_per_second = 0.75
    rescale = False  # numpy brute force
    containment_samples = 2000

    def draw(self, kind, rng, n):
        return [
            {"alpha": 1.0 + 49.0 * max(u[0], 1e-6), "eps": 5.0 * u[1], "delta": 0.5 * u[2], "seed": rng.randrange(2**31)}
            for u in _lhs(rng, n, 3)
        ]

    def execute(self, query):
        from rdpopt import conversion, oracle

        a = query.args
        exact = conversion.gamma_exact(a["alpha"], a["eps"], a["delta"]).value
        brute = oracle.brute_force_gamma(a["alpha"], a["eps"], a["delta"])
        q_star = oracle.verify_q_star(a["alpha"], a["eps"], a["delta"])
        contained = oracle.joint_range_containment(a["alpha"], a["eps"], n_samples=self.containment_samples, seed=a["seed"])
        return {
            "gamma_exact": exact,
            "brute_force_gamma": brute,
            "q_star_max_gap": q_star["max_gap"],
            "violations": contained["violations"],
        }

    def warm_up(self, queries):
        from rdpopt import conversion, oracle

        a = queries[0].args
        small = oracle.GridSpec(n_coarse=64, n_refine=64)
        conversion.gamma_exact(a["alpha"], a["eps"], a["delta"])
        oracle.brute_force_gamma(a["alpha"], a["eps"], a["delta"], small)
        oracle.verify_q_star(a["alpha"], a["eps"], a["delta"], small, n_p=16)
        oracle.joint_range_containment(a["alpha"], a["eps"], n_samples=16, seed=a["seed"])

    def check(self, query):
        v, bad = query.answer, []
        gap = v["brute_force_gamma"] - v["gamma_exact"]
        if not -SEARCH_TOL <= gap <= 1e-4:
            bad.append(f"frontier gap {gap!r} outside [-1e-9, 1e-4]")
        if not v["q_star_max_gap"] <= 1e-4:
            bad.append(f"q_star gap {v['q_star_max_gap']!r} > 1e-4")
        if v["violations"] != 0:
            bad.append(f"{v['violations']} containment violations")
        return bad

    def extra_report(self, queries):
        gaps = [q.answer["brute_force_gamma"] - q.answer["gamma_exact"] for q in queries if q.error is None]
        return {"checks_max_gap": max(gaps, default=None)}


def _reject_constant(text):
    raise ValueError(f"non-finite JSON constant {text}")


def _argv_float(x: float) -> str:
    return repr(float(x))


class Cli(Workload):
    name = "cli"
    unit = {"compose": 6, "compose_q": 1, "convert_exact": 1, "convert_all": 1, "variance": 1, "max_t": 1, "curve": 1}
    units_per_second = 0.37
    rescale = False  # process start-up

    def __init__(self, root):
        super().__init__(root)
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.shim = os.path.join(root, "perfbench", "cli_shim.py")
        self.tracer = None  # set by the traced pass; CLI calls then go through the shim
        self.cli_times = {"interpreter": [], "import": []}
        self._validator = None

    def draw(self, kind, rng, n):
        if kind == "compose":
            return [
                {"argv": ["compose", "--sigma", _argv_float(s), "--T", str(T), "--delta", _argv_float(d)]}
                for s, T, d in _composition_inputs(rng, n)
            ]
        out = []
        for u in _lhs(rng, n, 4):
            alpha = 1.0 + 49.0 * max(u[0], 1e-6)
            if kind == "compose_q":
                sigma, q, T = _subsampled(u[0], u[1], u[3])
                argv = ["compose", "--sigma", _argv_float(sigma), "--q", _argv_float(q), "--T", str(T), "--delta", _argv_float(_delta(u[2]))]
            elif kind == "convert_exact":
                delta = (1e-8 + (1.0 - 1e-8) * u[2]) * min(0.5, 0.999 / alpha)
                argv = ["convert", "--alpha", _argv_float(alpha), "--gamma", _argv_float(5.0 * u[1]), "--delta", _argv_float(delta), "--method", "exact"]
            elif kind == "convert_all":
                argv = ["convert", "--alpha", _argv_float(alpha), "--gamma", _argv_float(5.0 * u[1]), "--eps", _argv_float(5.0 * u[2]), "--method", "all"]
            elif kind == "variance":
                argv = ["variance", "--T", str(round(_log_uniform(u[0], 1.0, 1e5))), "--eps", _argv_float(_log_uniform(u[1], 0.1, 10.0)), "--delta", _argv_float(_delta(u[2]))]
            elif kind == "max_t":
                sigma, q, _ = _subsampled(u[0], u[3], 0.0)
                argv = ["max-t", "--sigma", _argv_float(sigma), "--q", _argv_float(q), "--eps", _argv_float(_log_uniform(u[1], 0.5, 10.0)), "--delta", _argv_float(_delta(u[2]))]
            else:
                sigma, T = _plain_gaussian(u[0], u[1])
                step = max(1, T // 5)
                argv = ["curve", "--sigma", _argv_float(sigma), "--delta", _argv_float(_delta(u[2])),
                        "--t-from", str(step), "--t-to", str(5 * step), "--t-step", str(step), "--format", "json"]
            out.append({"argv": argv})
        return out

    def execute(self, query):
        argv = query.args["argv"]
        if self.tracer is None:
            cmd = [sys.executable, "-m", "rdpopt", *argv]
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True, text=True)
            return {"returncode": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
        trace = self.tracer
        spawn = time.perf_counter()
        cmd = [sys.executable, self.shim, repr(spawn), *argv]
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True, text=True)
        stderr, _, report = proc.stderr.rpartition(tracer.SHIM_MARKER)
        child = json.loads(report)
        t = child.pop("times")
        trace.add_span("cli.interpreter", spawn, t["start"])
        trace.add_span("cli.import", t["import"][0], t["import"][1])
        main_id = trace.add_span(f"cli.main.{argv[0]}", t["main"][0], t["main"][1])
        trace.merge(child, parent=main_id)
        self.cli_times["interpreter"].append(t["start"] - spawn)
        self.cli_times["import"].append(t["import"][1] - t["import"][0])
        return {"returncode": proc.returncode, "stdout": proc.stdout, "stderr": stderr}

    def warm_up(self, queries):
        self.execute(queries[0])

    def _validate(self, record):
        if self._validator is None:
            import jsonschema

            path = os.path.join(self.root, "src", "rdpopt", "output_record.schema.json")
            with open(path, encoding="utf-8") as handle:
                schema = json.load(handle)
            self._validator = jsonschema.Draft202012Validator(schema)
        return [e.message for e in self._validator.iter_errors(record)]

    def check(self, query):
        ans = query.answer
        if ans["returncode"] != 0:
            return [f"exit code {ans['returncode']}: {ans['stderr'].strip()[-300:]}"]
        try:
            record = json.loads(ans["stdout"], parse_constant=_reject_constant)
        except ValueError as exc:
            return [f"stdout is not strict JSON: {exc}"]
        bad = [f"schema: {m}" for m in self._validate(record)]
        if bad:
            return bad
        results = record["results"]
        expected = self.library_answer(query.args["argv"])
        for key, value in expected.items():
            got = _dig(results, key)
            if got != value:
                bad.append(f"{key} = {got!r}, library gives {value!r}")
        bad += self._composition_checks(query.args["argv"], results)
        return bad

    def library_answer(self, argv) -> dict:
        """The library's own answer to a CLI query, keyed by dotted result path."""
        from rdpopt import conversion, gaussian

        f = _flags(argv)
        sub = argv[0]
        if sub == "compose":
            rho = gaussian.GaussianConfig(sigma=f["sigma"], subsampling_q=f.get("q")).rho
            ours = gaussian.acct_epsilon(rho, int(f["T"]), f["delta"])
            return {"rho": rho, "eps_ma": gaussian.ma_epsilon(rho, int(f["T"]), f["delta"]), "eps_ours.epsilon": ours.epsilon,
                    "eps_ours.argmin_alpha": ours.argmin_alpha}
        if sub == "convert":
            if "delta" in f:
                r = conversion.epsilon_exact(f["alpha"], f["gamma"], f["delta"])
                return {"exact.value": r.value}
            return {"exact.value": conversion.delta_exact(f["alpha"], f["gamma"], f["eps"]).value,
                    "bound.value": conversion.delta_bound(f["alpha"], f["gamma"], f["eps"]).value,
                    "baseline.value": conversion.baseline_delta(f["alpha"], f["gamma"], f["eps"])}
        if sub == "variance":
            ours = gaussian.required_variance(int(f["T"]), f["eps"], f["delta"])
            return {"sigma_sq": ours.sigma_sq, "ma_sigma_sq": gaussian.ma_required_variance(int(f["T"]), f["eps"], f["delta"])}
        if sub == "max-t":
            rho = gaussian.GaussianConfig(sigma=f["sigma"], subsampling_q=f.get("q")).rho
            return {"T_ours": gaussian.max_iterations(rho, f["eps"], f["delta"]), "T_ma": gaussian.ma_max_iterations(rho, f["eps"], f["delta"])}
        config = gaussian.GaussianConfig(sigma=f["sigma"])
        t_values = list(range(int(f["t-from"]), int(f["t-to"]) + 1, int(f["t-step"])))
        out = {}
        for i, row in enumerate(gaussian.privacy_curve(config, f["delta"], t_values)):
            out[f"rows.{i}.eps_ours"] = row.eps_ours
            out[f"rows.{i}.eps_ma"] = row.eps_ma
        return out

    def _composition_checks(self, argv, results):
        f = _flags(argv)
        bad = []
        if argv[0] == "compose":
            if not _le(results["eps_ours"]["epsilon"], results["eps_ma"]):
                bad.append("eps_ours > eps_ma")
            if f.get("q") is None:
                opt = reference.eps_opt(f["sigma"], int(f["T"]), f["delta"])
                if not _le(opt, results["eps_ours"]["epsilon"]):
                    bad.append(f"eps_ours below optimal {opt!r}")
        elif argv[0] == "variance" and not _le(results["sigma_sq"], results["ma_sigma_sq"]):
            bad.append("sigma_sq > ma_sigma_sq")
        elif argv[0] == "max-t" and not results["T_ours"] >= results["T_ma"]:
            bad.append("T_ours < T_ma")
        elif argv[0] == "curve":
            for row in results["rows"]:
                if not _le(row["eps_ours"], row["eps_ma"]):
                    bad.append(f"eps_ours > eps_ma at T={row['T']}")
        return bad

    def eps_excess(self, queries):
        out = []
        for q in queries:
            if q.kind == "compose" and q.answer is not None and q.answer["returncode"] == 0:
                f = _flags(q.args["argv"])
                try:
                    got = json.loads(q.answer["stdout"])["results"]["eps_ours"]["epsilon"]
                except (ValueError, KeyError, TypeError):
                    continue  # already counted as a failed answer
                out.append(got - reference.eps_opt(f["sigma"], int(f["T"]), f["delta"]))
        return out


def _flags(argv) -> dict:
    out = {}
    for i in range(1, len(argv) - 1):
        if argv[i].startswith("--") and not argv[i + 1].startswith("--"):
            try:
                out[argv[i][2:]] = float(argv[i + 1])
            except ValueError:
                pass
    return out


def _dig(obj, dotted: str):
    for part in dotted.split("."):
        obj = obj[int(part)] if isinstance(obj, list) else obj.get(part) if isinstance(obj, dict) else None
        if obj is None:
            return None
    return obj


WORKLOADS = {cls.name: cls for cls in (Accountant, Exact, Cli, Certify)}
