"""Brute-force certification of the conversion frontier on two-point pairs.

The frontier computed by conversion.gamma_exact is the constrained minimum
of the order-alpha Renyi divergence over Bernoulli pairs whose
hockey-stick divergence at lam = e^eps is at least delta.  This module
re-derives it by direct grid search over (p, q), with no shared code path
with the 1-D reduction, so the two can check each other.

Grids are uniform in logit space, which concentrates points near both
endpoints where the optimizers live.  A single refinement pass re-scans a
small logit-space window around the coarse argmin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conversion import gamma_exact
from .divergences import BernoulliPair, renyi_binary
from .errors import DomainError, InfeasibleError, _check_alpha, _check_nonnegative, _check_unit
from .optimize import ScalarSearchConfig

_P_EDGE = 1e-9
_U_MAX = math.log((1.0 - _P_EDGE) / _P_EDGE)  # logit of the largest grid probability

DEFAULT_SEED = 7


@dataclass(frozen=True)
class GridSpec:
    """Resolution of the brute-force search."""

    n_coarse: int = 4096
    n_refine: int = 4096
    refine_window: float = 0.02

    def __post_init__(self):
        if self.n_coarse < 64:
            raise DomainError(f"n_coarse must be >= 64, got {self.n_coarse!r}")
        if self.n_refine < 64:
            raise DomainError(f"n_refine must be >= 64, got {self.n_refine!r}")
        if not (0.0 < self.refine_window <= 1.0):
            raise DomainError(f"refine_window must lie in (0, 1], got {self.refine_window!r}")


def _logit_grid(lo: float, hi: float, n: int) -> np.ndarray:
    # n counts steps, so the grid has n + 1 points and doubling n keeps
    # every existing point (arange(2k)/(2n) reproduces arange(k)/n exactly)
    return lo + (hi - lo) * (np.arange(n + 1) / n)


def _log_probs(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # exact log(sigmoid(u)) and log(1 - sigmoid(u)); avoids 1 - p cancellation
    return -np.log1p(np.exp(-u)), -np.log1p(np.exp(u))


_N_POLISH = 512  # per-row q refinement; fixed so grid-doubling only adds rows


def _row_scan(
    alpha: float,
    lam: float,
    delta: float,
    u_p: np.ndarray,
    u_q: np.ndarray,
    block: int = 256,
) -> tuple[np.ndarray, np.ndarray]:
    """Constrained q-minimum of the Renyi divergence for every p row.

    Returns (row minima, argmin u_q per row); rows with no feasible q get
    +inf minima.
    """
    lp, l1p = _log_probs(u_p)
    lq, l1q = _log_probs(u_q)
    p = np.exp(lp)
    one_m_p = np.exp(l1p)
    q = np.exp(lq)
    one_m_q = np.exp(l1q)
    n_p = len(u_p)
    row_min = np.full(n_p, np.inf)
    row_arg = np.zeros(n_p)
    for start in range(0, n_p, block):
        sl = slice(start, min(start + block, n_p))
        hs = np.maximum(p[sl][:, None] - lam * q[None, :], 0.0)
        hs += np.maximum(one_m_p[sl][:, None] - lam * one_m_q[None, :], 0.0)
        feasible = hs >= delta
        head = alpha * lp[sl][:, None] + (1.0 - alpha) * lq[None, :]
        tail = alpha * l1p[sl][:, None] + (1.0 - alpha) * l1q[None, :]
        div = np.logaddexp(head, tail) / (alpha - 1.0)
        div = np.where(feasible, div, np.inf)
        row_min[sl] = div.min(axis=1)
        row_arg[sl] = u_q[div.argmin(axis=1)]
    return row_min, row_arg


def _polish_rows(
    alpha: float,
    lam: float,
    delta: float,
    u_p: np.ndarray,
    center_uq: np.ndarray,
    q_step: float,
    row_min: np.ndarray,
    block: int = 1024,
) -> np.ndarray:
    """Rescan each row's q on a fine window around its coarse argmin.

    The coarse q step is the row-ranking noise floor (the feasibility cut
    snaps the minimizer); one fine pass per row removes it.  Windows are a
    full coarse step each side, so the true row minimizer is inside.
    """
    ok = np.isfinite(row_min)
    if not ok.any():
        return row_min
    offsets = ((np.arange(_N_POLISH + 1) / _N_POLISH) - 0.5) * (2.0 * q_step)
    out = row_min.copy()
    idx = np.flatnonzero(ok)
    for start in range(0, len(idx), block):
        rows = idx[start : start + block]
        u_q = np.clip(center_uq[rows][:, None] + offsets[None, :], -_U_MAX, _U_MAX)
        lq, l1q = _log_probs(u_q)
        q = np.exp(lq)
        one_m_q = np.exp(l1q)
        lp, l1p = _log_probs(u_p[rows])
        p = np.exp(lp)
        one_m_p = np.exp(l1p)
        hs = np.maximum(p[:, None] - lam * q, 0.0)
        hs += np.maximum(one_m_p[:, None] - lam * one_m_q, 0.0)
        feasible = hs >= delta
        div = np.logaddexp(
            alpha * lp[:, None] + (1.0 - alpha) * lq,
            alpha * l1p[:, None] + (1.0 - alpha) * l1q,
        ) / (alpha - 1.0)
        div = np.where(feasible, div, np.inf)
        out[rows] = np.minimum(out[rows], div.min(axis=1))
    return out


def brute_force_gamma(
    alpha: float,
    epsilon: float,
    delta: float,
    grid: GridSpec = GridSpec(),
) -> float:
    """Grid minimum of the Renyi divergence subject to the hockey-stick constraint.

    Coarse pass over (p, q), a per-row q polish so that row ranking is not
    dominated by feasibility-cut snap noise, then one refinement pass in p
    around the winning row.  Converges to gamma_exact from above as the
    grids densify; a grid minimum can never beat the true infimum.
    """
    _check_inputs(alpha, epsilon, delta)
    lam = math.exp(epsilon)
    u = _logit_grid(-_U_MAX, _U_MAX, grid.n_coarse)
    q_step = 2.0 * _U_MAX / grid.n_coarse
    row_min, row_arg = _row_scan(alpha, lam, delta, u, u)
    if not np.isfinite(row_min).any():
        raise InfeasibleError(
            f"no grid pair attains hockey-stick divergence >= {delta!r} at eps={epsilon!r}"
        )
    row_min = _polish_rows(alpha, lam, delta, u, row_arg, q_step, row_min)
    best_row = int(np.argmin(row_min))
    coarse_value = float(row_min[best_row])
    half = 0.5 * grid.refine_window * (2.0 * _U_MAX)
    u_center = float(u[best_row])
    fine_p = _logit_grid(max(u_center - half, -_U_MAX), min(u_center + half, _U_MAX), grid.n_refine)
    fine_min, fine_arg = _row_scan(alpha, lam, delta, fine_p, u)
    fine_min = _polish_rows(alpha, lam, delta, fine_p, fine_arg, q_step, fine_min)
    refined_value = float(fine_min.min())
    return max(min(coarse_value, refined_value), 0.0)


def _check_inputs(alpha: float, epsilon: float, delta: float) -> None:
    _check_alpha(alpha)
    _check_nonnegative(epsilon, "epsilon")
    _check_unit(delta, "delta", allow_zero=True)


def verify_q_star(
    alpha: float,
    epsilon: float,
    delta: float,
    grid: GridSpec = GridSpec(),
    n_p: int = 512,
) -> dict:
    """Check that the constrained q-minimum sits at q = (p - delta)/e^eps.

    For each p the divergence is decreasing in q on the feasible side of
    the first hockey-stick atom's constraint p - e^eps q >= delta, so the
    continuous minimum is at q_star.  Reports the largest excess of the
    (coarse + refined) q-grid minimum over the value at q_star; anything
    beyond grid-resolution error would mean the reduction is wrong.
    """
    _check_inputs(alpha, epsilon, delta)
    lam = math.exp(epsilon)
    u_all = _logit_grid(-_U_MAX, _U_MAX, grid.n_coarse)
    p_all = 1.0 / (1.0 + np.exp(-u_all))
    usable = p_all > delta + 2e-9 * lam  # need q_star on the grid's scale
    u_ps = u_all[usable]
    if len(u_ps) == 0:
        raise InfeasibleError(f"no usable p above delta={delta!r} on the grid")
    if len(u_ps) > n_p:
        idx = np.linspace(0, len(u_ps) - 1, n_p).round().astype(int)
        u_ps = u_ps[idx]
    uq = u_all
    lq, l1q = _log_probs(uq)
    q_grid = np.exp(lq)
    step = float(u_all[1] - u_all[0])
    max_gap = 0.0
    checked = 0
    for u_p in u_ps:
        p = 1.0 / (1.0 + math.exp(-u_p))
        q_star = (p - delta) / lam
        if not (0.0 < q_star < 1.0):
            continue
        exact = renyi_binary(BernoulliPair(p, q_star), alpha)
        lp = -math.log1p(math.exp(-u_p))
        l1p = -math.log1p(math.exp(u_p))

        def q_min(lq_v: np.ndarray, l1q_v: np.ndarray, q_v: np.ndarray) -> tuple[float, float]:
            ok = q_v <= q_star
            if not ok.any():
                return math.inf, math.nan
            div = np.logaddexp(alpha * lp + (1.0 - alpha) * lq_v, alpha * l1p + (1.0 - alpha) * l1q_v)
            div = np.where(ok, div / (alpha - 1.0), np.inf)
            k = int(np.argmin(div))
            return float(div[k]), float(np.log(q_v[k] / (1.0 - q_v[k])))

        coarse, u_at = q_min(lq, l1q, q_grid)
        if not coarse < math.inf:
            continue
        fine_u = _logit_grid(max(u_at - step, -_U_MAX), min(u_at + step, _U_MAX), grid.n_refine)
        flq, fl1q = _log_probs(fine_u)
        fine, _ = q_min(flq, fl1q, np.exp(flq))
        max_gap = max(max_gap, min(coarse, fine) - exact)
        checked += 1
    if checked == 0:
        raise InfeasibleError("no p admitted a feasible q on the grid")
    return {
        "alpha": alpha,
        "epsilon": epsilon,
        "delta": delta,
        "n_p_checked": checked,
        "max_gap": max_gap,
    }


def joint_range_containment(
    alpha: float,
    epsilon: float,
    n_samples: int = 10000,
    seed: int = DEFAULT_SEED,
    tolerance: float = 1e-8,
    cfg: ScalarSearchConfig | None = None,
) -> dict:
    """Sample random pairs and check none falls below the frontier.

    Every pair's (hockey-stick, Renyi) divergence point must lie on or
    above the curve delta -> gamma_exact(alpha, eps, delta); the comparison
    is made on the Renyi scale, where both sides stay finite for any order.
    """
    _check_alpha(alpha)
    _check_nonnegative(epsilon, "epsilon")
    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples!r}")
    if cfg is None:
        cfg = ScalarSearchConfig(abs_tol=1e-8, max_iters=200, coarse_grid=32)
    rng = np.random.default_rng(seed)
    p = np.clip(rng.uniform(size=n_samples), 1e-12, 1.0 - 1e-12)
    q = np.clip(rng.uniform(size=n_samples), 1e-12, 1.0 - 1e-12)
    lam = math.exp(epsilon)
    hs = np.maximum(p - lam * q, 0.0) + np.maximum((1.0 - p) - lam * (1.0 - q), 0.0)
    head = alpha * np.log(p) + (1.0 - alpha) * np.log(q)
    tail = alpha * np.log1p(-p) + (1.0 - alpha) * np.log1p(-q)
    div = np.logaddexp(head, tail) / (alpha - 1.0)
    violations = 0
    min_margin = math.inf
    for i in range(n_samples):
        boundary = gamma_exact(alpha, epsilon, float(hs[i]), cfg).value
        margin = float(div[i]) - boundary
        if margin < min_margin:
            min_margin = margin
        if margin < -tolerance:
            violations += 1
    return {
        "alpha": alpha,
        "epsilon": epsilon,
        "n_samples": n_samples,
        "seed": seed,
        "tolerance": tolerance,
        "violations": violations,
        "min_margin": min_margin,
    }
