"""Brute-force certification of the conversion frontier on two-point pairs.

The frontier computed by conversion.gamma_exact is the constrained minimum
of the order-alpha Renyi divergence over Bernoulli pairs whose
hockey-stick divergence at lam = e^eps is at least delta.  This module
re-derives it by direct grid search over (p, q), with no shared code path
with the 1-D reduction, so the two can check each other.

Grids are uniform in logit space, which concentrates points near both
endpoints where the optimizers live.  One blocked kernel, _row_scan, serves
both grids: it takes the q-minimum of every p row over the cells a caller's
rule admits, the hockey-stick constraint for the brute force and q <= q*(p)
for the q* check.  Each row scans a shared q grid and then a fine window
around its argmin.  Every divergence value comes from _renyi and
_hockey_stick.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conversion import gamma_exact
from .divergences import BernoulliPair, renyi_binary
from .errors import DomainError, InfeasibleError, _check_alpha, _check_alpha_eps_delta, _check_nonnegative
from .optimize import ScalarSearchConfig

_P_EDGE = 1e-9
_U_MAX = math.log((1.0 - _P_EDGE) / _P_EDGE)  # logit of the largest grid probability

DEFAULT_SEED = 7
REFINE_WINDOW = 0.02  # width of the p refinement window, as a share of the logit range
CONTAINMENT_TOLERANCE = 1e-8  # a pair below the frontier by more than this is a violation
_CONTAINMENT_SEARCH = ScalarSearchConfig(abs_tol=1e-8)  # each frontier solve to 1e-8 in log(p - delta)


@dataclass(frozen=True)
class GridSpec:
    """Resolution of the brute-force search."""

    n_coarse: int = 4096
    n_refine: int = 4096

    def __post_init__(self):
        if self.n_coarse < 64:
            raise DomainError(f"n_coarse must be >= 64, got {self.n_coarse!r}")
        if self.n_refine < 64:
            raise DomainError(f"n_refine must be >= 64, got {self.n_refine!r}")


def _logit_grid(lo: float, hi: float, n: int) -> np.ndarray:
    # n counts steps, so the grid has n + 1 points and doubling n keeps
    # every existing point (arange(2k)/(2n) reproduces arange(k)/n exactly)
    return lo + (hi - lo) * (np.arange(n + 1) / n)


def _log_probs(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # exact log(sigmoid(u)) and log(1 - sigmoid(u)); avoids 1 - p cancellation
    return -np.log1p(np.exp(-u)), -np.log1p(np.exp(u))


_N_POLISH = 512  # per-row q refinement; fixed so grid-doubling only adds rows
# (p, q) cells per block, at least: 128 rows of the 4097-point grid, 1023 of
# the 513-point polish window.  A full block's arrays are then just over
# 4 MiB, the size from which numpy asks Linux for transparent huge pages
_BLOCK_CELLS = 1 << 19


def _renyi(alpha, lp, l1p, lq, l1q):
    # order-alpha Renyi divergence of Bernoulli(p) from Bernoulli(q), given
    # log p, log(1 - p), log q and log(1 - q); in place, to allocate fewer
    # block-sized temporaries
    div = alpha * lp + (1.0 - alpha) * lq
    np.logaddexp(div, alpha * l1p + (1.0 - alpha) * l1q, out=div)
    div /= alpha - 1.0
    return div


def _hockey_stick(p, one_m_p, q, one_m_q, lam):
    # hockey-stick divergence at lam of Bernoulli(p) from Bernoulli(q); in
    # place, like _renyi, so the heap is not trimmed and regrown every block
    hs = p - lam * q
    np.maximum(hs, 0.0, out=hs)
    second = one_m_p - lam * one_m_q
    hs += np.maximum(second, 0.0, out=second)
    return hs


def _row_scan(alpha: float, u_p: np.ndarray, u_q: np.ndarray, feasible,
              centers: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Feasible q-minimum of the Renyi divergence for every p row.

    Every row scans the logit grid u_q, or, given centers, row i scans
    clip(centers[i] + u_q) to the grid's range.  feasible(rows, lp, l1p,
    lq, l1q) gets a block's row slice and its log-probabilities and returns
    the admissible cells.  Returns (row minima, argmin index into the row's
    q grid); rows with no feasible q get +inf.
    """
    lp, l1p = _log_probs(u_p)
    if centers is None:
        lq, l1q = _log_probs(u_q)
    block_rows = -(-_BLOCK_CELLS // len(u_q))
    row_min = np.empty(len(u_p))
    row_arg = np.empty(len(u_p), dtype=np.intp)
    for start in range(0, len(u_p), block_rows):
        sl = slice(start, start + block_rows)
        if centers is not None:
            lq, l1q = _log_probs(np.clip(centers[sl, None] + u_q, -_U_MAX, _U_MAX))
        ok = feasible(sl, lp[sl, None], l1p[sl, None], lq, l1q)
        div = _renyi(alpha, lp[sl, None], l1p[sl, None], lq, l1q)
        div[~ok] = np.inf
        row_min[sl] = div.min(axis=1)
        row_arg[sl] = div.argmin(axis=1)
    return row_min, row_arg


def _polished_rows(alpha: float, u_p: np.ndarray, u_q: np.ndarray, feasible, n_polish: int) -> np.ndarray:
    """Row minima over u_q, each finite one rescanned on a fine window around its argmin.

    The coarse q step is the row-ranking noise floor (the feasibility cut
    snaps the minimizer); one fine pass per row, n_polish steps over a full
    coarse step each side, removes it, and the true row minimizer is inside.
    """
    row_min, row_arg = _row_scan(alpha, u_p, u_q, feasible)
    ok = np.flatnonzero(np.isfinite(row_min))
    if len(ok):
        q_step = 2.0 * _U_MAX / (len(u_q) - 1)
        offsets = ((np.arange(n_polish + 1) / n_polish) - 0.5) * (2.0 * q_step)
        fine, _ = _row_scan(alpha, u_p[ok], offsets, lambda rows, *logs: feasible(ok[rows], *logs),
                            centers=u_q[row_arg[ok]])
        row_min[ok] = np.minimum(row_min[ok], fine)
    return row_min


def brute_force_gamma(alpha: float, epsilon: float, delta: float, grid: GridSpec = GridSpec()) -> float:
    """Grid minimum of the Renyi divergence subject to the hockey-stick constraint.

    Coarse pass over (p, q), a per-row q polish so that row ranking is not
    dominated by feasibility-cut snap noise, then one refinement pass in p
    around the winning row.  Converges to gamma_exact from above as the
    grids densify; a grid minimum can never beat the true infimum.
    """
    _check_alpha_eps_delta(alpha, epsilon, delta)
    lam = math.exp(epsilon)

    def feasible(rows, lp, l1p, lq, l1q):
        return _hockey_stick(np.exp(lp), np.exp(l1p), np.exp(lq), np.exp(l1q), lam) >= delta

    u = _logit_grid(-_U_MAX, _U_MAX, grid.n_coarse)
    row_min = _polished_rows(alpha, u, u, feasible, _N_POLISH)
    if not np.isfinite(row_min).any():
        raise InfeasibleError(
            f"no grid pair attains hockey-stick divergence >= {delta!r} at eps={epsilon!r}"
        )
    best_row = int(np.argmin(row_min))
    coarse_value = float(row_min[best_row])
    half = 0.5 * REFINE_WINDOW * (2.0 * _U_MAX)
    u_center = float(u[best_row])
    fine_p = _logit_grid(max(u_center - half, -_U_MAX), min(u_center + half, _U_MAX), grid.n_refine)
    refined_value = float(_polished_rows(alpha, fine_p, u, feasible, _N_POLISH).min())
    return max(min(coarse_value, refined_value), 0.0)


def verify_q_star(alpha: float, epsilon: float, delta: float, grid: GridSpec = GridSpec(),
                  n_p: int = 512) -> dict:
    """Check that the constrained q-minimum sits at q = (p - delta)/e^eps.

    For each p the divergence is decreasing in q on the feasible side of
    the first hockey-stick atom's constraint p - e^eps q >= delta, so the
    continuous minimum is at q_star.  Reports the largest distance, either
    way, between the polished grid minimum over q <= q_star and the value
    at q_star; anything beyond grid-resolution error would mean the
    reduction is wrong.
    """
    _check_alpha_eps_delta(alpha, epsilon, delta)
    lam = math.exp(epsilon)
    u_all = _logit_grid(-_U_MAX, _U_MAX, grid.n_coarse)
    p_all = 1.0 / (1.0 + np.exp(-u_all))
    usable = p_all > delta + 2e-9 * lam  # need q_star on the grid's scale
    u_ps, p = u_all[usable], p_all[usable]
    if len(u_ps) == 0:
        raise InfeasibleError(f"no usable p above delta={delta!r} on the grid")
    if len(u_ps) > n_p:
        idx = np.linspace(0, len(u_ps) - 1, n_p).round().astype(int)
        u_ps, p = u_ps[idx], p[idx]
    # every row has a feasible q: q_star > 2e-9 exceeds the smallest grid q, _P_EDGE
    q_star = (p - delta) / lam
    row_min = _polished_rows(alpha, u_ps, u_all, lambda rows, lp, l1p, lq, l1q: np.exp(lq) <= q_star[rows, None],
                             grid.n_refine)
    exact = [renyi_binary(BernoulliPair(pi, qi), alpha) for pi, qi in zip(p.tolist(), q_star.tolist())]
    return {
        "alpha": alpha,
        "epsilon": epsilon,
        "delta": delta,
        "n_p_checked": len(p),
        "max_gap": float(np.max(np.abs(row_min - exact))),
    }


def joint_range_containment(alpha: float, epsilon: float, n_samples: int = 10000,
                            seed: int = DEFAULT_SEED) -> dict:
    """Sample random pairs and check none falls below the frontier.

    Every pair's (hockey-stick, Renyi) divergence point must lie on or
    above the curve delta -> gamma_exact(alpha, eps, delta); the comparison
    is made on the Renyi scale, where both sides stay finite for any order.
    """
    _check_alpha(alpha)
    _check_nonnegative(epsilon, "epsilon")
    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples!r}")
    rng = np.random.default_rng(seed)
    p = np.clip(rng.uniform(size=n_samples), 1e-12, 1.0 - 1e-12)
    q = np.clip(rng.uniform(size=n_samples), 1e-12, 1.0 - 1e-12)
    lam = math.exp(epsilon)
    hs = _hockey_stick(p, 1.0 - p, q, 1.0 - q, lam)
    div = _renyi(alpha, np.log(p), np.log1p(-p), np.log(q), np.log1p(-q))
    violations = 0
    min_margin = math.inf
    for i in range(n_samples):
        boundary = gamma_exact(alpha, epsilon, float(hs[i]), _CONTAINMENT_SEARCH).value
        margin = float(div[i]) - boundary
        if margin < min_margin:
            min_margin = margin
        if margin < -CONTAINMENT_TOLERANCE:
            violations += 1
    return {
        "alpha": alpha,
        "epsilon": epsilon,
        "n_samples": n_samples,
        "seed": seed,
        "tolerance": CONTAINMENT_TOLERANCE,
        "violations": violations,
        "min_margin": min_margin,
    }
