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
around its argmin.  The kernel computes every cell of both: it prunes
nothing with the q* reduction or convexity, which would tie it to the path
it checks.  What it saves is repeated work.  The q side of the divergences
is tabulated once per distinct window (the shared grid, or a coarse point
that polish windows are centred on), every block reuses one workspace, and
the Renyi divergence is taken only on the cells the rule admits.  The
hockey-stick values come from _hockey_stick, and the Renyi values from
_renyi's operations, so they match it to the bit.

A scan shares its row blocks out among one worker per CPU the process may
run on: the calling thread and plain threads, each on its own slice of the
scan's one workspace.  Each row is computed by the same operations and
written by one worker only, so the answers do not depend on the worker
count; on one CPU no thread is started.
"""

from __future__ import annotations

import math
import os
import threading
from typing import NamedTuple

import numpy as np

from .conversion import gamma_exact
from .divergences import BernoulliPair, renyi_binary
from .errors import DomainError, InfeasibleError, _check_alpha, _check_alpha_eps_delta, _check_nonnegative

_P_EDGE = 1e-9
_U_MAX = math.log((1.0 - _P_EDGE) / _P_EDGE)  # logit of the largest grid probability

DEFAULT_SEED = 7
REFINE_WINDOW = 0.02  # width of the p refinement window, as a share of the logit range
CONTAINMENT_TOLERANCE = 1e-8  # a pair below the frontier by more than this is a violation


def _grid_lam(alpha: float, epsilon: float, p_min: float) -> float:
    # e^eps, for grids whose probabilities and their complements are at least
    # p_min.  The kernels' alpha log x and (1 - alpha) log y, and their
    # difference inside np.logaddexp, stay finite up to the order checked
    # here.  The exponent is capped at 709, where e^eps q > 1 for every such q
    # already, so that the hockey-stick divergence is 0 beyond, as it is exactly
    if not math.isfinite(2.0 * alpha * math.log(p_min)):
        raise DomainError(f"order alpha={alpha!r} is too large for the oracle's grids: 2 alpha log({p_min}) overflows")
    return math.exp(min(epsilon, 709.0))


def _check_count(value, name: str, least: int) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")


class _GridSpec(NamedTuple):
    n_coarse: int
    n_refine: int


class GridSpec(_GridSpec):
    """Resolution of the brute-force search."""

    __slots__ = ()

    def __new__(cls, n_coarse: int = 4096, n_refine: int = 4096):
        _check_count(n_coarse, "n_coarse", 64)
        _check_count(n_refine, "n_refine", 64)
        return super().__new__(cls, n_coarse, n_refine)

    @classmethod
    def _make(cls, iterable):  # _replace builds through here, so it validates too
        return cls(*iterable)


def _logit_grid(lo: float, hi: float, n: int) -> np.ndarray:
    # n counts steps, so the grid has n + 1 points and doubling n keeps
    # every existing point (arange(2k)/(2n) reproduces arange(k)/n exactly)
    return lo + (hi - lo) * (np.arange(n + 1) / n)


def _tables(scale: float, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    # x, 1 - x, scale log x and scale log(1 - x) for x = sigmoid(u), built in
    # four arrays of u's shape, the last of them u itself.  The logs are
    # -log1p(exp(-u)) and -log1p(exp(u)), which avoid the 1 - x cancellation
    lx = np.negative(u)
    np.exp(lx, out=lx)
    np.log1p(lx, out=lx)
    np.negative(lx, out=lx)
    l1x = np.exp(u, out=u)
    np.log1p(l1x, out=l1x)
    np.negative(l1x, out=l1x)
    x, one_m_x = np.exp(lx), np.exp(l1x)
    lx *= scale
    l1x *= scale
    return x, one_m_x, lx, l1x


_N_POLISH = 512  # per-row q refinement; fixed so grid-doubling only adds rows
# (p, q) cells in a scan's workspace, one bool and two float arrays split
# evenly among its workers.  A block is at least this many cells over the
# worker count: at one worker 128 rows of the 4097-point grid or 1023 of the
# 513-point polish window, at two workers half that.  The float arrays are
# one allocation of 8 MiB, past the 4 MiB from which numpy asks Linux for
# transparent huge pages, though each worker's share is 2 MiB.  The size
# matters little: on two workers, a default-grid brute_force_gamma and
# verify_q_star took 0.34-0.39 s and 3.3-3.9 k minor page faults a call at
# this size, 0.36-0.39 s and 4.5 k at 1 << 17 (no huge pages), and
# 0.38-0.40 s at 1 << 20 (2-vCPU Xeon, numpy 2.4)
_BLOCK_CELLS = 1 << 19


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _renyi(alpha, lp, l1p, lq, l1q):
    # order-alpha Renyi divergence of Bernoulli(p) from Bernoulli(q), given
    # log p, log(1 - p), log q and log(1 - q)
    div = alpha * lp + (1.0 - alpha) * lq
    np.logaddexp(div, alpha * l1p + (1.0 - alpha) * l1q, out=div)
    div /= alpha - 1.0
    return div


def _hockey_stick(p, one_m_p, q, one_m_q, lam, out=None, scratch=None):
    # hockey-stick divergence at lam of Bernoulli(p) from Bernoulli(q), written
    # to out, with scratch for the second atom's term.  out may be q itself and
    # scratch one_m_q: each is read before the array holding it is written
    hs = np.multiply(lam, q, out=out)
    np.subtract(p, hs, out=hs)
    np.maximum(hs, 0.0, out=hs)
    second = np.multiply(lam, one_m_q, out=scratch)
    np.subtract(one_m_p, second, out=second)
    hs += np.maximum(second, 0.0, out=second)
    return hs


def _row_scan(alpha: float, u_p: np.ndarray, u_q: np.ndarray, feasible,
              centers: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Feasible q-minimum of the Renyi divergence for every p row.

    Every row scans the logit grid u_q, or, given centers, row i scans
    clip(centers[i] + u_q) to the grid's range.  feasible(rows, p, one_m_p,
    q, one_m_q, out, scratch) gets a block's row slice, p and 1 - p as
    columns, and q and 1 - q as a row shared by the block or as one row per
    p; it writes the admissible cells into the bool array out.  scratch is
    two float arrays of out's shape, free to overwrite, which may be q and
    one_m_q themselves.  Returns (row minima, argmin index into the row's q
    grid); rows with no feasible q get +inf.

    q, 1 - q and the Renyi terms in q are computed once per distinct centre
    (polish windows share the few coarse-grid points their rows landed on)
    and gathered per block, and every block reuses its worker's slice of one
    workspace.  The divergence, the costliest step, is taken on admitted
    cells only.  Worker k of n scans blocks k, k + n, ...; worker 0 is the
    caller, the rest are threads, all joined before the scan returns, and the
    first error any of them raises is raised here.  feasible is called from
    every worker, so it may write only to out and scratch.
    """
    # p, 1 - p and the Renyi terms alpha log p and alpha log(1 - p), then the
    # same for q with 1 - alpha
    p, one_m_p, lp, l1p = _tables(alpha, u_p.copy())
    p, one_m_p = p[:, None], one_m_p[:, None]
    if centers is None:
        tables = _tables(1.0 - alpha, u_q.copy())
        gather = lambda table, rows, out: table
    else:
        centers, which = np.unique(centers, return_inverse=True)
        tables = _tables(1.0 - alpha, np.clip(np.add.outer(centers, u_q), -_U_MAX, _U_MAX))
        # every index is valid; mode="clip" keeps take from buffering out
        gather = lambda table, rows, out: np.take(table, which[rows], axis=0, out=out, mode="clip")
    n_rows, n_cols = len(u_p), len(u_q)
    # one worker per usable CPU, at most one per block of a single-worker
    # scan; the workers split one workspace of _BLOCK_CELLS cells
    n_workers = max(1, min(_usable_cpus(), -(-n_rows // -(-_BLOCK_CELLS // n_cols))))
    block_rows = -(-(_BLOCK_CELLS // n_workers) // n_cols)
    shape = (n_workers, min(block_rows, n_rows), n_cols)
    div_ws, tail_ws = np.empty((2, *shape))
    mask_ws = np.empty(shape, dtype=bool)
    row_min = np.empty(n_rows)
    row_arg = np.empty(n_rows, dtype=np.intp)
    errors = []

    def scan_share(k):
        # blocks k, k + n_workers, ... in worker k's workspace; a share stops
        # at its next block once any share has failed
        try:
            for start in range(k * block_rows, n_rows, n_workers * block_rows):
                if errors:
                    return
                sl = slice(start, min(start + block_rows, n_rows))
                n = sl.stop - start
                div, tail, mask = div_ws[k, :n], tail_ws[k, :n], mask_ws[k, :n]
                feasible(sl, p[sl], one_m_p[sl], gather(tables[0], sl, div), gather(tables[1], sl, tail), mask,
                         (div, tail))
                # _renyi's operations, from the tables' terms in q
                np.add(lp[sl, None], gather(tables[2], sl, div), out=div)
                np.add(l1p[sl, None], gather(tables[3], sl, tail), out=tail)
                np.logaddexp(div, tail, out=div, where=mask)
                np.divide(div, alpha - 1.0, out=div, where=mask)
                np.copyto(div, np.inf, where=np.logical_not(mask, out=mask))
                row_arg[sl] = div.argmin(axis=1)
                row_min[sl] = div[np.arange(n), row_arg[sl]]
        except BaseException as exc:
            errors.append(exc)

    threads = []
    try:
        for k in range(1, n_workers):
            thread = threading.Thread(target=scan_share, args=(k,))
            thread.start()
            threads.append(thread)
        scan_share(0)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
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
    lam = _grid_lam(alpha, epsilon, _P_EDGE)

    def feasible(rows, p, one_m_p, q, one_m_q, out, scratch):
        np.greater_equal(_hockey_stick(p, one_m_p, q, one_m_q, lam, *scratch), delta, out=out)

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
    _check_count(n_p, "n_p", 1)
    lam = _grid_lam(alpha, epsilon, _P_EDGE)
    u_all = _logit_grid(-_U_MAX, _U_MAX, grid.n_coarse)
    p_all = 1.0 / (1.0 + np.exp(-u_all))
    usable = p_all > delta + 2e-9 * lam  # need q_star on the grid's scale
    u_ps, p = u_all[usable], p_all[usable]
    if len(u_ps) == 0:
        raise InfeasibleError(f"no grid p has q* = (p - delta)/e^eps above 2e-9 at delta={delta!r}, eps={epsilon!r}")
    if len(u_ps) > n_p:
        idx = np.linspace(0, len(u_ps) - 1, n_p).round().astype(int)
        u_ps, p = u_ps[idx], p[idx]
    # every row has a feasible q: q_star > 2e-9 exceeds the smallest grid q, _P_EDGE
    q_star = (p - delta) / lam
    row_min = _polished_rows(alpha, u_ps, u_all,
                             lambda rows, p, one_m_p, q, one_m_q, out, scratch: np.less_equal(
                                 q, q_star[rows, None], out=out),
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
    _check_count(n_samples, "n_samples", 1)
    _check_count(seed, "seed", 0)
    lam = _grid_lam(alpha, epsilon, 1e-12)
    rng = np.random.default_rng(seed)
    p = np.clip(rng.uniform(size=n_samples), 1e-12, 1.0 - 1e-12)
    q = np.clip(rng.uniform(size=n_samples), 1e-12, 1.0 - 1e-12)
    hs = _hockey_stick(p, 1.0 - p, q, 1.0 - q, lam)
    div = _renyi(alpha, np.log(p), np.log1p(-p), np.log(q), np.log1p(-q))
    violations = 0
    min_margin = math.inf
    for i in range(n_samples):
        boundary = gamma_exact(alpha, epsilon, float(hs[i])).value
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
