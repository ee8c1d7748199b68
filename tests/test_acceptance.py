"""Acceptance gate.

One test per criterion; each prints a single `criterion NN: PASS|FAIL - ...`
line (visible in the -rA summary) before asserting, and enforces its own
wall-clock budget.
"""

import math
import time

import numpy as np

from rdpopt import cli
from rdpopt.conversion import (
    balle_epsilon,
    delta_exact,
    epsilon_bound,
    epsilon_exact,
    gamma_bound,
    gamma_exact,
    zero_epsilon_region,
)
from rdpopt.gaussian import (
    GaussianConfig,
    acct_epsilon,
    ma_epsilon,
    ma_max_iterations,
    ma_required_variance,
    max_iterations,
    privacy_curve,
    required_variance,
    rho_subsampled,
)
from rdpopt.optimize import minimize_unimodal
from rdpopt.oracle import joint_range_containment, verify_q_star, brute_force_gamma

from conftest import sample_small_delta_triples, sample_triples


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_frontier_matches_brute_force(rng):
    t0 = time.perf_counter()
    worst = 0.0
    for alpha, eps, delta in sample_triples(rng, 20):
        exact = gamma_exact(alpha, eps, delta).value
        brute = brute_force_gamma(alpha, eps, delta)
        worst = max(worst, abs(brute - exact))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 60.0
    _line(1, ok, f"max |brute - exact| = {worst:.3g} over 20 triples (tol 1e-4) in {elapsed:.1f}s (budget 60s)")


def test_criterion_02_closed_form_when_alpha_delta_large(rng):
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        alpha = 2.0 + 48.0 * rng.uniform()
        delta = 1.0 / alpha + (0.5 - 1.0 / alpha) * rng.uniform()
        eps = 5.0 * rng.uniform()
        got = gamma_exact(alpha, eps, delta).value
        worst = max(worst, abs(got - (eps - math.log1p(-delta))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    _line(2, ok, f"max |gamma - (eps - log(1-delta))| = {worst:.3g} over 50 alpha*delta >= 1 triples (tol 1e-9) in {elapsed:.1f}s")


def test_criterion_03_closed_form_bound_is_sound(rng):
    t0 = time.perf_counter()
    triples = sample_triples(rng, 450)
    triples += [(1.0 + 49.0 * rng.uniform(), 5.0 * rng.uniform(), 0.0) for _ in range(50)]
    worst_excess = -math.inf
    worst_eq = 0.0
    for alpha, eps, delta in triples:
        exact = gamma_exact(alpha, eps, delta).value
        bound = gamma_bound(alpha, eps, delta).value
        worst_excess = max(worst_excess, bound - exact)
        if delta == 0.0 or alpha * delta >= 1.0:
            worst_eq = max(worst_eq, abs(bound - exact))
    elapsed = time.perf_counter() - t0
    ok = worst_excess <= 1e-8 and worst_eq <= 1e-9 and elapsed < 30.0
    _line(3, ok, f"bound - exact <= {worst_excess:.3g} over 500 triples, exact-regime gap {worst_eq:.3g}, in {elapsed:.1f}s")


def test_criterion_04_composition_sweep_dominates_ma():
    t0 = time.perf_counter()
    rows = privacy_curve(GaussianConfig(sigma=20.0), 1e-5, range(1, 1001))
    min_gap = min(row.gap for row in rows)
    max_gap = max(row.gap for row in rows)
    elapsed = time.perf_counter() - t0
    ok = min_gap >= 0.0 and 0.70 <= max_gap <= 0.80 and elapsed < 60.0
    _line(4, ok, f"sigma=20, T=1..1000: min gap {min_gap:.4f} >= 0, max gap {max_gap:.4f} in [0.70, 0.80], {elapsed:.1f}s")


def test_criterion_05_iteration_budget_advantage():
    t0 = time.perf_counter()
    advantages = {}
    for eps in (6.0, 6.5, 7.0, 7.5, 8.0):
        advantages[eps] = max_iterations(1.0 / 800.0, eps, 1e-5) - ma_max_iterations(1.0 / 800.0, eps, 1e-5)
    elapsed = time.perf_counter() - t0
    ok = all(a >= 100 for a in advantages.values()) and elapsed < 120.0
    _line(5, ok, f"extra iterations at sigma=20, delta=1e-5: {advantages} (each >= 100) in {elapsed:.1f}s")


def test_criterion_06_ma_closed_form_is_order_minimum(rng):
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        rho = 10.0 ** rng.uniform(-6.0, 0.0)
        T = 10.0 ** rng.uniform(0.0, 4.0)
        delta = 10.0 ** rng.uniform(-8.0, -0.35)
        s, ld = rho * T, math.log(delta)
        _, v = minimize_unimodal(lambda u: (1.0 + math.exp(u)) * s - ld / math.exp(u), -15.0, 15.0)
        worst = max(worst, abs(ma_epsilon(rho, T, delta) - v))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 10.0
    _line(6, ok, f"max |closed form - numeric alpha-min| = {worst:.3g} over 100 points (tol 1e-6) in {elapsed:.1f}s")


def test_criterion_07_epsilon_bound_never_worse_than_balle(rng):
    t0 = time.perf_counter()
    worst = -math.inf
    for alpha, gamma, delta in sample_small_delta_triples(rng, 200):
        worst = max(worst, epsilon_bound(alpha, gamma, delta).value - max(balle_epsilon(alpha, gamma, delta), 0.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    _line(7, ok, f"epsilon_bound - clamped balle <= {worst:.3g} over 200 alpha*delta < 1 triples in {elapsed:.1f}s")


def test_criterion_08_zero_epsilon_region(rng):
    t0 = time.perf_counter()
    missing = 0
    worst = 0.0
    for _ in range(50):
        alpha = 1.0 + 49.0 * rng.uniform(1e-6, 1.0)
        gamma = 0.9 * rng.uniform() * (-math.log1p(-1.0 / alpha))
        region = zero_epsilon_region(alpha, gamma)
        if region.interval is None:
            missing += 1
            continue
        lo, hi = region.interval
        for frac in (1.0 / 6.0, 2.0 / 6.0, 0.5, 4.0 / 6.0, 5.0 / 6.0):
            worst = max(worst, epsilon_exact(alpha, gamma, lo + (hi - lo) * frac).value)
        for frac in (0.25, 0.6):
            d = region.delta_free + (1.0 - region.delta_free) * frac
            worst = max(worst, epsilon_exact(alpha, gamma, d).value)
    elapsed = time.perf_counter() - t0
    ok = missing == 0 and worst <= 1e-3 and elapsed < 60.0
    _line(8, ok, f"50 regions, {missing} missing intervals, max epsilon inside {worst:.3g} (tol 1e-3) in {elapsed:.1f}s")


def test_criterion_09_variance_certificate():
    t0 = time.perf_counter()
    dominated = True
    worst_excess = -math.inf
    for delta in (1e-4, 1e-6, 1e-8):
        ours = required_variance(100.0, 1.0, delta).sigma_sq
        dominated = dominated and ours <= ma_required_variance(100.0, 1.0, delta)
        eps_back = acct_epsilon(1.0 / (2.0 * ours), 100.0, delta).epsilon
        worst_excess = max(worst_excess, eps_back - 1.0)
    elapsed = time.perf_counter() - t0
    ok = dominated and worst_excess <= 1e-6 and elapsed < 10.0
    _line(9, ok, f"T=100, eps=1: variance <= MA at all three deltas, budget excess {worst_excess:.3g} in {elapsed:.1f}s")


def test_criterion_10_subsampled_sweep_and_epochs():
    t0 = time.perf_counter()
    rho = rho_subsampled(4.0, 0.001)
    rows = privacy_curve(GaussianConfig(sigma=4.0, subsampling_q=0.001), 1e-5, range(1000, 400001, 1000))
    min_gap = min(row.gap for row in rows)
    epoch_gains = {}
    for eps in (1.0, 1.05, 1.09):
        epoch_gains[eps] = 0.001 * (max_iterations(rho, eps, 1e-5) - ma_max_iterations(rho, eps, 1e-5))
    elapsed = time.perf_counter() - t0
    ok = min_gap >= 0.0 and any(g >= 80.0 for g in epoch_gains.values()) and elapsed < 120.0
    _line(10, ok, f"subsampled sweep min gap {min_gap:.4g} >= 0, epoch gains {epoch_gains} (some >= 80) in {elapsed:.1f}s")


def test_criterion_11_property_families_and_cli_contract(rng, capsys, tmp_path):
    t0 = time.perf_counter()
    failures = []

    # frontier is midpoint-convex on the chi scale
    ds = np.linspace(0.0, 0.9, 21)
    vals = np.array([math.exp(1.0 * gamma_exact(2.0, 1.0, float(d)).value) for d in ds])
    if (0.5 * (vals[:-2] + vals[2:]) - vals[1:-1]).min() < -1e-8:
        failures.append("chi-scale midpoint convexity")

    # frontier is monotone in delta and in eps
    g_d = [gamma_exact(2.0, 1.0, d).value for d in np.linspace(0.0, 0.9, 30)]
    g_e = [gamma_exact(2.0, e, 0.1).value for e in np.linspace(0.0, 5.0, 20)]
    if not all(b >= a - 1e-12 for a, b in zip(g_d, g_d[1:])):
        failures.append("monotone in delta")
    if not all(b >= a - 1e-12 for a, b in zip(g_e, g_e[1:])):
        failures.append("monotone in eps")

    # conversion round trips
    for alpha, eps, delta in sample_triples(rng, 5):
        if delta < 1e-6:
            continue
        gamma = gamma_exact(alpha, eps, delta).value
        if abs(delta_exact(alpha, gamma, eps).value - delta) > 1e-6:
            failures.append(f"delta round trip at ({alpha:.3g}, {eps:.3g}, {delta:.3g})")
        if epsilon_exact(alpha, gamma, delta).value > eps + 1e-6:
            failures.append(f"epsilon round trip at ({alpha:.3g}, {eps:.3g}, {delta:.3g})")

    # reduction and containment oracles
    if verify_q_star(2.0, 1.0, 0.1)["max_gap"] > 1e-4:
        failures.append("q_star reduction")
    if joint_range_containment(2.0, 1.0, n_samples=100000)["violations"] != 0:
        failures.append("containment")

    # exit-code contract: 0 success, 2 usage, 3 infeasible, 4 I/O, 5 validation
    codes = {
        0: cli.main(["convert", "--alpha", "2", "--eps", "1", "--delta", "0.1", "--method", "bound"]),
        2: cli.main(["convert", "--alpha", "2", "--gamma", "1", "--eps", "2", "--delta", "0.1"]),
        3: cli.main(["compose", "--sigma", "1e-200", "--T", "10", "--delta", "1e-5"]),
        4: cli.main(["curve", "--sigma", "20", "--delta", "1e-5", "--t-from", "1", "--t-to", "2",
                     "--out", str(tmp_path / "no_such_dir" / "x.csv")]),
        5: cli.main(["oracle-check", "--alpha", "2", "--eps", "1", "--delta", "0.1",
                     "--grid-n", "256", "--samples", "100", "--tol", "1e-15"]),
    }
    for want, got in codes.items():
        if got != want:
            failures.append(f"exit code {want} came back as {got}")
    capsys.readouterr()  # drop CLI output so the criterion line stands alone

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 300.0
    detail = "all property families and the exit-code contract hold" if not failures else "; ".join(failures)
    _line(11, ok, f"{detail} in {elapsed:.1f}s")
