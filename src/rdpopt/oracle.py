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
around its argmin.  The kernel tests every cell of both for admission and
gives each a lower bound on its divergence: it prunes nothing with the q*
reduction or convexity, which would tie it to the path it checks.  What it
saves is work whose result cannot change an answer.  The q side of the
divergences is tabulated once per scan on the shared grid, and per row block
in polish windows, as log q and log(1 - q) alone, once for each coarse point
that the block's rows are centred on; every block reuses one workspace,
which also takes the windows' q and 1 - q.  The Renyi divergence is taken
only in each row's band, the admitted cells that can still hold the row's
minimum, on the shared grid and in polish windows alike: a band that follows
from np.logaddexp never falling below its larger argument, not from the
rule, so it holds for any rule (see _row_scan).  The hockey-stick values come
from _hockey_stick and the Renyi values from _renyi, the one binary-Renyi
formula of the package, which the q* check and the containment sample take
too.  Below order 2 it sums the moment as its excess over 1, so that the
order floor is set by the frontier checked, not by the oracle's own rounding
(see _grid_lam).  The containment sample is drawn from Python's
random.Random, so no oracle call imports numpy.random.

A scan shares its row blocks out among one worker per CPU the process may
run on: the calling thread and plain threads, each on its own slice of the
scan's one workspace.  Each row is computed by the same operations and
written by one worker only, so the answers do not depend on the worker
count; on one CPU no thread is started.
"""

from __future__ import annotations

import contextlib
import math
import operator
import os
import random
import sys
import threading
from typing import NamedTuple

import numpy as np

from .conversion import gamma_exact
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
    # already, so that the hockey-stick divergence is 0 beyond, as it is exactly.
    # Below alpha = 1 + 1e-8 gamma_exact, the frontier checked, overshoots
    # by more than the containment tolerance (a seeded sweep: README, Validation)
    if not math.isfinite(2.0 * alpha * math.log(p_min)):
        raise DomainError(f"order alpha={alpha!r} is too large for the oracle's grids: 2 alpha log({p_min}) overflows")
    if alpha < 1.0 + 1e-8:
        raise DomainError(f"order alpha={alpha!r} is too close to 1 for the oracle: the frontier it checks "
                          f"overshoots below 1 + 1e-8")
    return math.exp(min(epsilon, 709.0))


def _check_count(value, name: str, least: int, most: float = sys.maxsize) -> None:
    # a count past sys.maxsize has no numpy index; a seed passes most = inf
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")
    if value > most:  # not echoed: an int of more than 4 300 digits has no repr
        raise DomainError(f"{name} must be at most sys.maxsize = {sys.maxsize}, got a larger value")


@contextlib.contextmanager
def _fits_in_memory(counts: str):
    # arrays that the counts size past what can be allocated make a domain
    # error that names the counts, not a traceback
    try:
        yield
    except MemoryError as exc:
        raise DomainError(f"{counts} is too large: the oracle's arrays for it do not fit in memory"
                          + (f" ({exc})" if str(exc) else "")) from None


def _check_floats(count: int) -> None:
    # numpy sizes an array in bytes as a signed index, so past sys.maxsize
    # bytes it raises ValueError or OverflowError or wraps the count, where
    # an array it can size but not allocate raises MemoryError; this raises
    # that MemoryError before numpy is asked
    if count * 8 > sys.maxsize:
        raise MemoryError(f"{count} floats take more than sys.maxsize = {sys.maxsize} bytes")


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


def _unit_steps(n: int) -> np.ndarray:
    # the n + 1 points k/n of [0, 1]; doubling n keeps every existing point
    # (arange(2k)/(2n) reproduces arange(k)/n exactly)
    _check_floats(n + 1)
    return np.arange(n + 1) / n


def _logit_grid(lo: float, hi: float, n: int) -> np.ndarray:
    # n counts steps, so the grid has n + 1 points
    return lo + (hi - lo) * _unit_steps(n)


def _log_tables(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # log x and log(1 - x) for x = sigmoid(u), the second built in u itself,
    # as -log1p(exp(-u)) and -log1p(exp(u)), which avoid the 1 - x
    # cancellation; x and 1 - x are their exponentials
    lx = np.negative(u)
    np.exp(lx, out=lx)
    np.log1p(lx, out=lx)
    np.negative(lx, out=lx)
    l1x = np.exp(u, out=u)
    np.log1p(l1x, out=l1x)
    np.negative(l1x, out=l1x)
    return lx, l1x


_N_POLISH = 512  # per-row q refinement; fixed so grid-doubling only adds rows
# (p, q) cells in a scan's workspace, one bool and three float arrays of a
# one-worker block, this many cells rounded up to whole rows, which the
# workers split: 32 rows of the 4097-point grid or 256 of the 513-point polish
# window, at two workers 16 and 128 each.  In a polish scan each worker also
# holds its block's q tables, log q and log(1 - q), two float arrays of at
# most a block's cells (one row per distinct centre), so a scan's arrays come
# to at most one bool and five float arrays of a one-worker block (about
# 5.1 MiB; the most traced for a default-grid call is 5.8 MiB on two workers and
# 6.4 MiB on 16 to 64).  Smaller blocks are faster while a worker's share
# outgrows its L2 cache.  On a 2-vCPU Xeon (2 MiB of L2 a core, numpy 2.4),
# default-grid brute_force_gamma and verify_q_star calls at (alpha, eps,
# delta) = (2, 1, 0.1), (1.3471, 0.856, 0.34), (1.05, 0.5, 0.2), (25, 2.5,
# 0.1) and (49, 4.8, 0.49), best of three each, took 1.07-1.11 s in all at
# this size, 1.05-1.19 s at 1 << 18 and 1.19-1.20 s at 1 << 19 on two workers,
# and 1.84-1.91, 2.05-2.11 and 2.39 s on one.  At 1 << 16 two workers took
# 1.44-1.49 s, barely faster than one, as their 8-row blocks spend their time
# in Python.  A 32-row block of the shared grid takes about 0.8 ms of one CPU
_BLOCK_CELLS = 1 << 17


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _renyi(alpha, p, one_m_p, head, tail, out=None, where=True):
    # order-alpha Renyi divergence of Bernoulli(p) from Bernoulli(q), written
    # to out where `where` is set; all of out is then divided by alpha - 1.
    # From alpha = 2, head = alpha log p + (1 - alpha) log q and tail, the
    # same in 1 - p and 1 - q, are the log-moment's terms, and it is their
    # log-sum.  Below 2 that log-sum's rounding, about 1e-16 absolute, would
    # be divided by alpha - 1 < 1.  There head = log p - log q and tail =
    # log(1 - p) - log(1 - q), both overwritten, and the log-moment is
    # log1p(X), X = p expm1((alpha - 1) head) + (1 - p) expm1((alpha - 1) tail),
    # the moment less 1, whose rounding shrinks with alpha - 1 as X does.  X is
    # at least 0 for every pair, and above -1 in floats, as its terms are above
    # -p and -(1 - p); so log1p keeps its digits wherever X falls, and no
    # log-sum is needed
    if alpha >= 2.0:
        out = np.logaddexp(head, tail, out=out, where=where)
    else:
        for ell, weight in ((head, p), (tail, one_m_p)):
            ell *= alpha - 1.0
            np.expm1(ell, out=ell, where=where)
            ell *= weight
        head += tail
        out = np.log1p(head, out=out, where=where)
    out /= alpha - 1.0
    return out


def _pair_renyi(alpha, p, q):
    # _renyi of each pair (p[i], q[i]) of two arrays
    lp, l1p, lq, l1q = np.log(p), np.log1p(-p), np.log(q), np.log1p(-q)
    if alpha < 2.0:
        return _renyi(alpha, p, 1.0 - p, lp - lq, l1p - l1q)
    return _renyi(alpha, p, 1.0 - p, alpha * lp + (1.0 - alpha) * lq, alpha * l1p + (1.0 - alpha) * l1q)


def _hockey_stick(p, one_m_p, q, one_m_q, lam, out=None, scratch=None):
    # hockey-stick divergence at lam of Bernoulli(p) from Bernoulli(q), written
    # to out, with scratch for the second atom's term.  out may be q itself and
    # scratch one_m_q: each is read before the array holding it is written.
    # lam q and lam (1 - q) are taken once per column when the block shares q
    if np.ndim(q) < np.ndim(out):
        lam_q, lam_one_m_q = lam * q, lam * one_m_q
    else:
        lam_q, lam_one_m_q = np.multiply(lam, q, out=out), np.multiply(lam, one_m_q, out=scratch)
    hs = np.subtract(p, lam_q, out=out)
    np.maximum(hs, 0.0, out=hs)
    second = np.subtract(one_m_p, lam_one_m_q, out=scratch)
    hs += np.maximum(second, 0.0, out=second)
    return hs


def _band_top(cap, c):
    # a bound past which every cell divides, as the divergence does, to more
    # than cap: one float above the cap's successor times c
    return np.nextafter(np.nextafter(cap, np.inf) * c, np.inf)


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

    q, 1 - q and the Renyi terms in q are computed once on the shared grid.
    In polish windows each block tabulates only log q and log(1 - q), once
    per distinct centre of its rows (they share the few coarse-grid points
    they landed on), and exponentiates them into the free first rows of its
    workspace, from which each row takes its q and 1 - q.  So a scan holds
    no table of every centre at once, and a block two tables of its own;
    every block reuses its worker's slice of one workspace.  The divergence,
    the costliest step, is taken only in each row's band, on the shared grid
    and in polish windows alike.  With
    a = alpha log p + (1 - alpha) log q and b the same in 1 - p and 1 - q, a
    cell's divergence is fl(logaddexp(a, b)/(alpha - 1)), and np.logaddexp
    returns at least max(a, b).  A row's cap is the divergence of its
    admitted cell of least bound max(a, b), one logaddexp a row.  Division
    by alpha - 1 > 0 is monotone, so any cell whose bound divided by
    alpha - 1 exceeds the cap lies strictly above that cell, and the band is
    the admitted cells that do not.  Cutting on the divided scale keeps the
    cells that division may round onto the minimum, so the row minima and
    first-index argmins are those of the divergence on every admitted cell,
    to the bit.  The cut is made on the bounds themselves, at a top
    (_band_top) that keeps every bound dividing to at most the cap and at
    most a few floats more, which changes no minimum.  Cells off the band
    keep their bound, divided like the rest, and so stay above the cap; a
    row with no admitted cell has bound +inf throughout and takes no band.
    Below alpha = 2 the divergence is _renyi's near-one form, which rounds
    apart from the bounds and may fall below its cell's bound by that
    bound's rounding.  There the top is raised by 1e-12, over 100 times the
    most a bound can round on grids within 1e-9 of 0 and 1: 9e-15, three
    half-ulps of terms below 42 and 21 in size and their sum (3.7e-15 was
    measured).  So the band keeps every cell whose divergence is at most
    the cap, and the row minima and first-index argmins are again those of
    every admitted cell, to the bit.  The near-one form's log p - log q and
    log(1 - p) - log(1 - q) come from unscaled tables, as the scaled terms
    would cancel to about 1e-16 absolute: the q tables then hold log q and
    log(1 - q), and the terms are scaled per block, to the bits that scaled
    tables hold.

    Worker k of n scans blocks k, k + n, ...; worker 0 is the
    caller, the rest are threads, all joined before the scan returns, and the
    first error any of them raises is raised here.  feasible is called from
    every worker, so it may write only to out and scratch.
    """
    # p, 1 - p, log p and log(1 - p), and the Renyi terms alpha log p and
    # alpha log(1 - p); then the same for q with 1 - alpha, its terms left
    # unscaled below alpha = 2
    near_one = alpha < 2.0
    lp, l1p = _log_tables(u_p.copy())
    p, one_m_p, ap, a1p = np.exp(lp)[:, None], np.exp(l1p)[:, None], alpha * lp, alpha * l1p
    q_scale = 1.0 if near_one else 1.0 - alpha
    if centers is None:
        lq, l1q = _log_tables(u_q.copy())
        shared = np.exp(lq), np.exp(l1q), lq * q_scale, l1q * q_scale
    n_rows, n_cols = len(u_p), len(u_q)
    # one worker per usable CPU, but no more than the rows of a one-worker
    # block or such blocks in the scan; the workers split that block's rows
    rows = -(-_BLOCK_CELLS // n_cols)
    n_workers = max(1, min(_usable_cpus(), rows, -(-n_rows // rows)))
    block_rows = rows // n_workers
    shape = (n_workers, min(block_rows, n_rows), n_cols)
    a_ws, b_ws, div_ws = np.empty((3, *shape))
    mask_ws = np.empty(shape, dtype=bool)
    row_min = np.empty(n_rows)
    row_arg = np.empty(n_rows, dtype=np.intp)
    errors = []

    def scan_block(k, sl):
        # rows sl in worker k's workspace.  gather(table, out) gives each row
        # its row of a q table: the shared grid's one row, or the window of
        # the row's centre, tabulated once per distinct centre of the block;
        # the block's tables go when it returns
        n = sl.stop - sl.start
        a, b, div, mask = a_ws[k, :n], b_ws[k, :n], div_ws[k, :n], mask_ws[k, :n]
        if centers is None:
            (q, one_m_q, lq, l1q), gather = shared, lambda table, out: table
        else:
            block_centers, which = np.unique(centers[sl], return_inverse=True)
            windows = np.add.outer(block_centers, u_q)
            lq, l1q = _log_tables(np.clip(windows, -_U_MAX, _U_MAX, out=windows))
            # every index is valid; mode="clip" keeps take from buffering out
            gather = lambda table, out: np.take(table, which, axis=0, out=out, mode="clip")
            # q and 1 - q are taken once per centre, in rows of div that are
            # free until the bounds, and gathered into a and b
            per_centre = div[:len(block_centers)]
            q = gather(np.exp(lq, out=per_centre), a)
            one_m_q = gather(np.exp(l1q, out=per_centre), b)
            lq *= q_scale
            l1q *= q_scale
        feasible(sl, p[sl], one_m_p[sl], q, one_m_q, mask, (a, b))
        # the log-moment's terms; below alpha = 2 the q terms are scaled here,
        # to the bits a scaled table holds
        terms_q, terms_1q = gather(lq, a), gather(l1q, b)
        if near_one:
            terms_q = np.multiply(terms_q, 1.0 - alpha, out=a)
            terms_1q = np.multiply(terms_1q, 1.0 - alpha, out=b)
        np.add(ap[sl, None], terms_q, out=a)
        np.add(a1p[sl, None], terms_1q, out=b)
        # the bounds, +inf off the admitted cells, and the band under the
        # divergence of each row's least-bound cell
        np.maximum(a, b, out=div)
        np.copyto(div, np.inf, where=np.logical_not(mask, out=mask))
        rows = np.arange(n)
        least = div.argmin(axis=1)
        if near_one:
            np.subtract(lp[sl, None], gather(lq, a), out=a)
            np.subtract(l1p[sl, None], gather(l1q, b), out=b)
        cap = _renyi(alpha, p[sl, 0], one_m_p[sl, 0], a[rows, least], b[rows, least])
        top = _band_top(cap, alpha - 1.0)
        if near_one:
            top += 1e-12
        np.less_equal(div, top[:, None], out=mask)
        _renyi(alpha, p[sl], one_m_p[sl], a, b, out=div, where=mask)
        row_arg[sl] = div.argmin(axis=1)
        row_min[sl] = div[rows, row_arg[sl]]

    def scan_share(k):
        # blocks k, k + n_workers, ... in worker k's workspace; a share stops
        # at its next block once any share has failed
        try:
            for start in range(k * block_rows, n_rows, n_workers * block_rows):
                if errors:
                    return
                scan_block(k, slice(start, min(start + block_rows, n_rows)))
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
        offsets = (_unit_steps(n_polish) - 0.5) * (2.0 * q_step)
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

    with _fits_in_memory(repr(grid)):
        u = _logit_grid(-_U_MAX, _U_MAX, grid.n_coarse)
        # once e^eps times the grid's smallest probability reaches its largest,
        # every grid pair, polish windows included, has hockey-stick divergence 0
        x, one_m_x = np.exp(_log_tables(u.copy()))
        if delta > 0.0 and lam * x.min() >= x.max() and lam * one_m_x.min() >= one_m_x.max():
            raise InfeasibleError(
                f"eps={epsilon!r} is past the oracle's grid of probabilities {_P_EDGE:g} to 1 - {_P_EDGE:g}: "
                f"e^eps * {_P_EDGE:g} >= 1 - {_P_EDGE:g}, so every grid pair has hockey-stick divergence 0 < delta={delta!r}"
            )
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
    with _fits_in_memory(repr(grid)):
        u_all = _logit_grid(-_U_MAX, _U_MAX, grid.n_coarse)
        p_all = np.exp(_log_tables(u_all.copy())[0])  # the p of the kernel's rows, to the bit
        usable = p_all > delta + 2e-9 * lam  # need q_star on the grid's scale
        u_ps, p = u_all[usable], p_all[usable]
        if len(u_ps) == 0:
            raise InfeasibleError(f"no grid p has q* = (p - delta)/e^eps above 2e-9 "
                                  f"at delta={delta!r}, eps={epsilon!r}")
        if len(u_ps) > n_p:
            idx = np.linspace(0, len(u_ps) - 1, n_p).round().astype(int)
            u_ps, p = u_ps[idx], p[idx]
        # every row has a feasible q: q_star > 2e-9 exceeds the smallest grid q, _P_EDGE
        q_star = (p - delta) / lam
        row_min = _polished_rows(alpha, u_ps, u_all,
                                 lambda rows, p, one_m_p, q, one_m_q, out, scratch: np.less_equal(
                                     q, q_star[rows, None], out=out),
                                 grid.n_refine)
        max_gap = float(np.max(np.abs(row_min - _pair_renyi(alpha, p, q_star))))
    return {
        "alpha": alpha,
        "epsilon": epsilon,
        "delta": delta,
        "n_p_checked": len(p),
        "max_gap": max_gap,
    }


def joint_range_containment(alpha: float, epsilon: float, n_samples: int = 10000,
                            seed: int = DEFAULT_SEED) -> dict:
    """Sample random pairs and check none falls below the frontier.

    Every pair's (hockey-stick, Renyi) divergence point must lie on or
    above the curve delta -> gamma_exact(alpha, eps, delta); the comparison
    is made on the Renyi scale, where both sides stay finite for any order.
    The pairs are drawn from random.Random(seed), so a seed always draws the
    same pairs.
    """
    _check_alpha(alpha)
    _check_nonnegative(epsilon, "epsilon")
    _check_count(n_samples, "n_samples", 1)
    _check_count(seed, "seed", 0, math.inf)
    lam = _grid_lam(alpha, epsilon, 1e-12)
    with _fits_in_memory(f"n_samples={n_samples}"):
        # p from the first n draws and q from the next n; fromiter allocates
        # its count before it takes the first draw
        _check_floats(2 * n_samples)
        draws = np.fromiter(iter(random.Random(operator.index(seed)).random, None), float, count=2 * n_samples)
        p, q = np.clip(draws, 1e-12, 1.0 - 1e-12, out=draws).reshape(2, n_samples)
        hs = _hockey_stick(p, 1.0 - p, q, 1.0 - q, lam)
        div = _pair_renyi(alpha, p, q)
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
