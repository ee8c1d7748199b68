"""Brute-force certification of the frontier."""

import math

import numpy as np
import pytest

from rdpopt import oracle
from rdpopt.conversion import gamma_exact
from rdpopt.divergences import BernoulliPair, hockey_stick_binary, renyi_binary
from rdpopt.errors import DomainError, InfeasibleError
from rdpopt.oracle import GridSpec, brute_force_gamma, joint_range_containment, verify_q_star

FAST = GridSpec(n_coarse=1024, n_refine=1024)


def test_grid_spec_validation():
    GridSpec(n_coarse=64, n_refine=64)
    with pytest.raises(DomainError):
        GridSpec(n_coarse=32)
    with pytest.raises(DomainError):
        GridSpec(n_refine=16)


_KERNEL_CASES = [(2.0, 1.0, 0.1), (20.0, 0.5, 0.3), (1.5, 2.0, 0.0), (49.0, 4.8, 0.49)]


def test_row_scan_matches_scalar_double_loop():
    u = oracle._logit_grid(-oracle._U_MAX, oracle._U_MAX, 64)
    probs = [1.0 / (1.0 + math.exp(-v)) for v in u]
    for alpha, eps, delta in _KERNEL_CASES:
        lam = math.exp(eps)
        row_min, row_arg = oracle._row_scan(alpha, lam, delta, u, u)
        for i, p in enumerate(probs):
            pairs = [BernoulliPair(p, q) for q in probs]
            values = [renyi_binary(pair, alpha) for pair in pairs if hockey_stick_binary(pair, lam) >= delta]
            expected = min(values, default=math.inf)
            assert row_min[i] == expected or abs(row_min[i] - expected) <= 1e-12, (alpha, eps, delta, i)
            if values:
                assert abs(renyi_binary(pairs[row_arg[i]], alpha) - expected) <= 1e-12


def test_row_scan_blocking_is_bit_identical(monkeypatch):
    # 65 rows in blocks of 6 (shared 65-point q grid) and of 12 (33-point
    # windows), against one block; centres at +-_U_MAX clip their windows
    u = oracle._logit_grid(-oracle._U_MAX, oracle._U_MAX, 64)
    offsets = (np.arange(33) / 32 - 0.5) * (2.0 * (u[1] - u[0]))
    centers = u[::-1].copy()
    assert centers[0] == oracle._U_MAX and centers[-1] == -oracle._U_MAX

    def scans():
        return [
            oracle._row_scan(alpha, math.exp(eps), delta, u, q_grid, centers=c)
            for alpha, eps, delta in _KERNEL_CASES
            for q_grid, c in ((u, None), (offsets, centers))
        ]

    whole = scans()
    monkeypatch.setattr(oracle, "_BLOCK_CELLS", 6 * len(u))
    assert len(u) % 6 != 0 and len(u) % -(-oracle._BLOCK_CELLS // len(offsets)) != 0
    for (m0, a0), (m1, a1) in zip(whole, scans()):
        assert np.array_equal(m0, m1) and np.array_equal(a0, a1)


def test_brute_force_delta_zero_is_zero():
    assert brute_force_gamma(2.0, 1.0, 0.0, FAST) == 0.0


def test_brute_force_matches_exact():
    for alpha, eps, delta in [(2.0, 1.0, 0.1), (20.0, 1.0, 0.1)]:
        exact = gamma_exact(alpha, eps, delta).value
        brute = brute_force_gamma(alpha, eps, delta)
        assert abs(brute - exact) <= 1e-4
        assert brute >= exact - 1e-9  # a grid minimum cannot beat the infimum


def test_brute_force_monotone_under_refinement():
    # the refinement grid is nested, so doubling n_refine can only lower the value
    for alpha, eps, delta in [(2.0, 1.0, 0.1), (49.0, 4.8, 0.49)]:
        values = [
            brute_force_gamma(alpha, eps, delta, GridSpec(n_coarse=1024, n_refine=n))
            for n in (512, 1024, 2048)
        ]
        assert values[1] <= values[0]
        assert values[2] <= values[1]
        assert values[2] >= gamma_exact(alpha, eps, delta).value - 1e-9


def test_brute_force_infeasible_constraint():
    # delta this close to 1 leaves no feasible q at the grid's edge resolution
    with pytest.raises(InfeasibleError):
        brute_force_gamma(2.0, 0.0, 1.0 - 1e-12, FAST)


def test_brute_force_domain():
    with pytest.raises(DomainError):
        brute_force_gamma(1.0, 1.0, 0.1)
    with pytest.raises(DomainError):
        brute_force_gamma(2.0, -1.0, 0.1)
    with pytest.raises(DomainError):
        brute_force_gamma(2.0, 1.0, 1.0)


def test_q_star_is_the_constrained_minimizer():
    for alpha, eps, delta in [(2.0, 1.0, 0.1), (20.0, 1.0, 0.1)]:
        report = verify_q_star(alpha, eps, delta)
        assert set(report) == {"alpha", "epsilon", "delta", "n_p_checked", "max_gap"}
        assert report["n_p_checked"] > 0
        assert 0.0 <= report["max_gap"] <= 1e-4


def test_q_star_check_runs_at_delta_zero():
    report = verify_q_star(2.0, 0.5, 0.0, FAST, n_p=64)
    assert report["max_gap"] <= 1e-3


def test_divergence_decreases_toward_q_star():
    # the reduction to q = (p - delta) e^{-eps} rests on this monotonicity
    alpha, eps, delta = 2.0, 1.0, 0.1
    for p in (0.3, 0.6, 0.9):
        q_star = (p - delta) * math.exp(-eps)
        qs = np.linspace(1e-6, q_star, 200)
        div = np.array([renyi_binary(BernoulliPair(p, float(q)), alpha) for q in qs])
        assert np.all(np.diff(div) <= 1e-12)


def test_joint_range_containment():
    report = joint_range_containment(2.0, 1.0, n_samples=10000)
    assert report["violations"] == 0
    assert report["min_margin"] > -1e-8
    assert report["n_samples"] == 10000


def test_joint_range_containment_deterministic():
    a = joint_range_containment(2.0, 0.5, n_samples=500, seed=11)
    b = joint_range_containment(2.0, 0.5, n_samples=500, seed=11)
    assert a == b


def test_oracle_check_domain():
    with pytest.raises(DomainError):
        verify_q_star(0.5, 1.0, 0.1)
    with pytest.raises(DomainError):
        joint_range_containment(2.0, -1.0)
    with pytest.raises(DomainError):
        joint_range_containment(2.0, 1.0, n_samples=0)
