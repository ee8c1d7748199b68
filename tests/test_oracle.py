"""Brute-force certification of the frontier."""

import functools
import math
import random
import sys
import threading
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from rdpopt import oracle
from rdpopt.conversion import gamma_exact
from rdpopt.errors import DomainError, InfeasibleError
from rdpopt.oracle import GridSpec, brute_force_gamma, joint_range_containment, verify_q_star

FAST = GridSpec(n_coarse=1024, n_refine=1024)


def test_grid_spec_validation():
    GridSpec(n_coarse=64, n_refine=64)
    with pytest.raises(DomainError):
        GridSpec(n_coarse=32)
    with pytest.raises(DomainError):
        GridSpec(n_refine=16)


@pytest.mark.parametrize("value", [float("nan"), 100.5, 100.0, True, "100", None])
def test_grid_spec_counts_are_integers(value):
    GridSpec(n_coarse=np.int64(100), n_refine=100)
    with pytest.raises(DomainError, match="n_coarse must be an integer >= 64"):
        GridSpec(n_coarse=value)
    with pytest.raises(DomainError, match="n_refine must be an integer >= 64"):
        GridSpec(n_refine=value)


@pytest.mark.parametrize("n_p", [0, -1, 2.5, True, float("nan")])
def test_q_star_check_row_count_is_a_positive_integer(monkeypatch, n_p):
    # checked before any work: no scan runs
    monkeypatch.setattr(oracle, "_polished_rows", lambda *args: pytest.fail("the scan ran"))
    with pytest.raises(DomainError, match="n_p must be an integer >= 1"):
        verify_q_star(2.0, 1.0, 0.1, FAST, n_p=n_p)


@pytest.mark.parametrize("n_samples", [0, -1, 2.5, True, float("nan")])
def test_containment_sample_count_is_a_positive_integer(monkeypatch, n_samples):
    monkeypatch.setattr(oracle.random, "Random", lambda *args: pytest.fail("the oracle ran"))
    with pytest.raises(DomainError, match="n_samples must be an integer >= 1"):
        joint_range_containment(2.0, 1.0, n_samples=n_samples)


_KERNEL_CASES = [(2.0, 1.0, 0.1), (20.0, 0.5, 0.3), (1.5, 2.0, 0.0), (49.0, 4.8, 0.49)]


def _hockey_stick_rule(lam, delta):
    return lambda rows, p, one_m_p, q, one_m_q, out, scratch: np.greater_equal(
        oracle._hockey_stick(p, one_m_p, q, one_m_q, lam, *scratch), delta, out=out
    )


def _first_atom_rule(q_star):
    return lambda rows, p, one_m_p, q, one_m_q, out, scratch: np.less_equal(q, q_star[rows, None], out=out)


def _hockey_stick(p, q, lam):
    # E_lam of Bernoulli(p) from Bernoulli(q), the scalar reference of the rule
    return max(p - lam * q, 0.0) + max((1.0 - p) - lam * (1.0 - q), 0.0)


def _renyi(alpha, p, q):
    # the oracle's binary-Renyi formula on the pairs (p, q[j]), or (p[i], q[i])
    p, q = np.broadcast_arrays(np.atleast_1d(p).astype(float), np.atleast_1d(q).astype(float))
    return oracle._pair_renyi(alpha, p, q)


def _renyi_of_logs(alpha, p, one_m_p, lp, l1p, lq, l1q):
    # the oracle's binary-Renyi formula from the pairs' logs, as the kernel takes them
    if alpha < 2.0:
        return oracle._renyi(alpha, p, one_m_p, lp - lq, l1p - l1q)
    return oracle._renyi(alpha, p, one_m_p, alpha * lp + (1.0 - alpha) * lq, alpha * l1p + (1.0 - alpha) * l1q)


def _rules(u, eps, delta):
    # the brute force's rule and the q* check's rule, each with its scalar twin
    lam = math.exp(eps)
    q_star = (1.0 / (1.0 + np.exp(-u)) - delta) / lam
    return [
        (_hockey_stick_rule(lam, delta), lambda i, p, q: _hockey_stick(p, q, lam) >= delta),
        (_first_atom_rule(q_star), lambda i, p, q: q <= q_star[i]),
    ]


def test_row_scan_matches_scalar_double_loop():
    u = oracle._logit_grid(-oracle._U_MAX, oracle._U_MAX, 64)
    probs = [1.0 / (1.0 + math.exp(-v)) for v in u]
    for alpha, eps, delta in _KERNEL_CASES:
        for rule, admits in _rules(u, eps, delta):
            row_min, row_arg = oracle._row_scan(alpha, u, u, rule)
            for i, p in enumerate(probs):
                div = _renyi(alpha, p, probs)
                values = [d for q, d in zip(probs, div.tolist()) if admits(i, p, q)]
                expected = min(values, default=math.inf)
                assert row_min[i] == expected or abs(row_min[i] - expected) <= 1e-12, (alpha, eps, delta, i)
                if values:
                    assert abs(div[row_arg[i]] - expected) <= 1e-12


def _scan_grids(u):
    # the shared grid u, and 33-point windows around distinct centres (u
    # reversed) and around five centres taken in turn, each 13 times
    offsets = (np.arange(33) / 32 - 0.5) * (2.0 * (u[1] - u[0]))
    return (u, None), (offsets, u[::-1].copy()), (offsets, u[np.arange(len(u)) * 7 % 5 * 16])


def test_row_scan_blocking_is_bit_identical(monkeypatch):
    # 65 rows in blocks of 6 (shared 65-point q grid) and of 12 (33-point
    # windows), against one block and against every row scanned alone;
    # centres at +-_U_MAX clip their windows.  Window rows share per-centre
    # tables, so besides the distinct centres u[::-1] the rows take five
    # centres in turn, each repeated 13 times across the blocks
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: 1)
    u = oracle._logit_grid(-oracle._U_MAX, oracle._U_MAX, 64)
    grids = _scan_grids(u)
    (_, _), (offsets, distinct), (_, repeated) = grids
    assert distinct[0] == oracle._U_MAX and distinct[-1] == -oracle._U_MAX
    assert sorted(repeated.tolist()) == sorted(np.repeat(u[::16], 13).tolist())

    def scans():
        return [
            oracle._row_scan(alpha, u, q_grid, rule, centers=c)
            for alpha, eps, delta in _KERNEL_CASES
            for rule, _ in _rules(u, eps, delta)
            for q_grid, c in grids
        ]

    def alone(alpha, eps, delta, k, q_grid, c):
        # every row on its own, with its own rule and at most one centre
        rows = [
            oracle._row_scan(alpha, u[i:i + 1], q_grid, _rules(u[i:i + 1], eps, delta)[k][0],
                             centers=None if c is None else c[i:i + 1])
            for i in range(len(u))
        ]
        return np.concatenate([m for m, _ in rows]), np.concatenate([a for _, a in rows])

    whole = scans()
    monkeypatch.setattr(oracle, "_BLOCK_CELLS", 6 * len(u))
    assert len(u) % 6 != 0 and len(u) % -(-oracle._BLOCK_CELLS // len(offsets)) != 0
    blocked = scans()
    singles = [alone(*case, k, *grid) for case in _KERNEL_CASES for k in range(2) for grid in grids]
    for (m0, a0), (m1, a1), (m2, a2) in zip(whole, blocked, singles):
        assert np.array_equal(m0, m1) and np.array_equal(a0, a1)
        assert np.array_equal(m0, m2) and np.array_equal(a0, a2)
    # some blocks mix rows that have admitted cells with rows that have none,
    # on the shared grid and in the windows
    for j, rows in enumerate((6, 12, 12)):
        assert any(
            np.isinf(block).any() and np.isfinite(block).any()
            for row_min, _ in blocked[j::len(grids)]
            for block in np.split(row_min, range(rows, len(row_min), rows))
        ), j


def _admitted(alpha, u_p, u_q, feasible, centers=None):
    # the cells feasible admits, p and 1 - p as columns, and the unscaled log
    # tables of one block of the scan
    lp, l1p = oracle._log_tables(u_p.copy())
    u = u_q.copy() if centers is None else np.clip(np.add.outer(centers, u_q), -oracle._U_MAX, oracle._U_MAX)
    lq, l1q = oracle._log_tables(u)
    q, one_m_q = np.exp(lq), np.exp(l1q)
    p, one_m_p, lp, l1p = np.exp(lp)[:, None], np.exp(l1p)[:, None], lp[:, None], l1p[:, None]
    shape = (len(u_p), len(u_q))
    admitted = np.empty(shape, dtype=bool)
    feasible(slice(0, len(u_p)), p, one_m_p, q, one_m_q, admitted, (np.empty(shape), np.empty(shape)))
    return admitted, p, one_m_p, lp, l1p, lq, l1q


def _reference_row_scan(alpha, u_p, u_q, feasible, centers=None):
    # the kernel before its band: one block, the divergence on every admitted
    # cell, from the terms the kernel takes
    admitted, *tables = _admitted(alpha, u_p, u_q, feasible, centers)
    div = np.where(admitted, _renyi_of_logs(alpha, *tables), np.inf)
    row_arg = div.argmin(axis=1)
    return div[np.arange(len(u_p)), row_arg], row_arg


def _bounds(alpha, u_p, u_q):
    # max(a, b) of every cell of a shared-grid scan, the kernel's lower bound
    lp, l1p = oracle._log_tables(u_p.copy())
    lq, l1q = oracle._log_tables(u_q.copy())
    return np.maximum((alpha * lp)[:, None] + (1.0 - alpha) * lq, (alpha * l1p)[:, None] + (1.0 - alpha) * l1q)


def _all_admitted(rows, p, one_m_p, q, one_m_q, out, scratch):
    out[...] = True


def _none_admitted(rows, p, one_m_p, q, one_m_q, out, scratch):
    out[...] = False


def _counted_divergence(monkeypatch):
    # cells the divergence is taken on, one (band?, cells) entry a call of
    # _renyi: a call with a where= mask is a band, one without takes the rows' caps
    calls = []
    real = oracle._renyi

    def counted(alpha, p, one_m_p, head, tail, out=None, where=True):
        calls.append((where is not True, np.size(head) if where is True else int(np.count_nonzero(where))))
        return real(alpha, p, one_m_p, head, tail, out=out, where=where)

    monkeypatch.setattr(oracle, "_renyi", counted)
    return calls


def test_row_scan_matches_the_reference_kernel(monkeypatch):
    # the band leaves every row minimum and first-index argmin in place, on
    # the shared grid and in polish windows, for both rules.  Besides the
    # windows of _scan_grids, each row scans a window as wide as a
    # default-grid polish window around its own shared-grid argmin, where
    # the divergence is flattest and the band widest
    calls = _counted_divergence(monkeypatch)
    u = oracle._logit_grid(-oracle._U_MAX, oracle._U_MAX, 64)
    tied = np.concatenate([u[::-1], u])  # every q twice, so rows have tied minima
    polish = (np.arange(33) / 32 - 0.5) * (2.0 * (2.0 * oracle._U_MAX / 4096))
    # rows with no admitted cell, then the default grid's wide-band case
    cases = [*_KERNEL_CASES, (1.000001, 1.0, 0.1), (2.0, 0.0, 1.0 - 1e-12), (1.3471, 0.856, 0.34)]
    empty_rows = tied_rows = band_cells = admitted_cells = 0
    for alpha, eps, delta in cases:
        for rule, _ in _rules(u, eps, delta):
            own = u[_reference_row_scan(alpha, u, u, rule)[1]]
            for q_grid, c in (*_scan_grids(u), (tied, None), (polish, own)):
                m0, a0 = _reference_row_scan(alpha, u, q_grid, rule, c)
                del calls[:]
                m1, a1 = oracle._row_scan(alpha, u, q_grid, rule, centers=c)
                assert np.array_equal(m0, m1) and np.array_equal(a0, a1), (alpha, eps, delta)
                empty_rows += np.isinf(m0).sum()
                if q_grid is tied:  # the first of the two equal cells wins
                    finite = np.isfinite(m0)
                    assert np.all(a0[finite] < len(u))
                    tied_rows += finite.sum()
                if alpha == 1.3471 and c is own:
                    band_cells += sum(cells for band, cells in calls if band)
                    admitted_cells += _admitted(alpha, u, q_grid, rule, c)[0].sum()
    assert empty_rows > 0 and tied_rows > 0
    # on this grid the wide-band case's windows put about a quarter of their
    # admitted cells in the band (57% in a default-grid brute force)
    assert band_cells >= 0.15 * admitted_cells


def test_row_scan_below_order_two_matches_a_50_digit_reference():
    # below alpha = 2 the kernel takes _renyi's near-one form.  Every row
    # minimum lies within 1e-14 relative of the least 50-digit divergence over
    # the row's admitted cells, of the pairs sigmoid(u) its tables stand for:
    # 8.7e-16 at most was measured, where the log-sum the kernel took before
    # was 3.1e-9 off at alpha - 1 = 1e-7 and 2.4e-10 at 1e-6
    u = oracle._logit_grid(-oracle._U_MAX, oracle._U_MAX, 64)
    with mp.workdps(50):
        @functools.cache
        def logs(v):  # log sigmoid(v) and log sigmoid(-v)
            return -mp.log1p(mp.exp(-mp.mpf(v))), -mp.log1p(mp.exp(mp.mpf(v)))

        def divergence(alpha, u_p, u_q):
            a = mp.mpf(alpha)
            (lp, l1p), (lq, l1q) = logs(u_p), logs(u_q)
            return mp.log(mp.exp(a * lp + (1 - a) * lq) + mp.exp(a * l1p + (1 - a) * l1q)) / (a - 1)

        checked = empty = 0
        for alpha in (1.0 + 1e-8, 1.0 + 1e-6, 1.0 + 1e-3, 1.5):
            for rule, _ in _rules(u, 1.0, 0.1):
                for q_grid, c in _scan_grids(u):
                    row_min, _ = oracle._row_scan(alpha, u, q_grid, rule, centers=c)
                    admitted = _admitted(alpha, u, q_grid, rule, c)[0]
                    u_q = q_grid if c is None else np.clip(np.add.outer(c, q_grid), -oracle._U_MAX, oracle._U_MAX)
                    u_q = np.broadcast_to(u_q, admitted.shape)
                    for i, cells in enumerate(admitted):
                        want = min((divergence(alpha, u[i], v) for v in u_q[i][cells].tolist()), default=mp.inf)
                        assert row_min[i] == want or math.isclose(row_min[i], want, rel_tol=1e-14), (alpha, i)
                    checked += np.isfinite(row_min).sum()
                    empty += np.isinf(row_min).sum()
        assert checked > 900 and empty > 0  # of 1 560 rows


def test_row_scan_keeps_cells_that_division_rounds_onto_the_minimum():
    # one row, its least bound m above 2^53, where m + 1 rounds to m; q steps
    # down by one ulp of u.  Some orders put the row's first minimum on a cell
    # whose bound exceeds fl(m + 1) but divides by alpha - 1 to the same
    # value, which a band cut before the division would lose
    u_p = np.array([-7.9463223608750315])
    u_q = (1.9333761272867527 + np.arange(32) * 2.0**-52)[::-1].copy()
    rounded_onto = 0
    for k in range(40):
        alpha = 8.869876166492475e17 * (1.0 + 0.005 * k)
        m0, a0 = _reference_row_scan(alpha, u_p, u_q, _all_admitted)
        m1, a1 = oracle._row_scan(alpha, u_p, u_q, _all_admitted)
        assert np.array_equal(m0, m1) and np.array_equal(a0, a1), alpha
        bounds = _bounds(alpha, u_p, u_q)[0]
        least = bounds.min()
        assert least > 2.0**53
        rounded_onto += bool(least + 1.0 == least and bounds[a0[0]] > least)
    assert rounded_onto > 0


def test_band_takes_logaddexp_on_few_cells(monkeypatch):
    # capped at fl(fl(m + 1)/(alpha - 1)) on the shared grid, with no band in
    # the polish windows, a default-grid brute force at alpha = 25 took
    # logaddexp on 2.52 M cells; capped at the divergence of each row's
    # least-bound cell it takes 33 k, two a row in the windows
    calls = _counted_divergence(monkeypatch)
    windows = []  # (rows, cells) of each polish-window scan
    real_scan = oracle._row_scan

    def scan(alpha, u_p, u_q, feasible, centers=None):
        start = len(calls)
        result = real_scan(alpha, u_p, u_q, feasible, centers)
        if centers is not None:
            windows.append((len(u_p), sum(cells for _, cells in calls[start:])))
        return result

    monkeypatch.setattr(oracle, "_row_scan", scan)
    brute_force_gamma(25, 2.5, 0.1)
    assert sum(cells for _, cells in calls) <= 100_000
    assert len(windows) == 2 and all(cells <= 3 * rows for rows, cells in windows), windows


def test_rows_with_no_admitted_cell_take_no_band(monkeypatch):
    # such a row's bounds are all +inf, above any cap: the divergence is taken
    # at its cap and nowhere else, the row minimum is +inf at index 0, and no step warns
    calls = _counted_divergence(monkeypatch)
    u = oracle._logit_grid(-oracle._U_MAX, oracle._U_MAX, 64)
    for order in (1.0 + 1e-7, 2.0, 4e306):
        for q_grid, c in _scan_grids(u):
            del calls[:]
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                row_min, row_arg = oracle._row_scan(order, u, q_grid, _none_admitted, centers=c)
            assert np.all(np.isinf(row_min)) and not row_arg.any()
            assert calls and not any(band and cells for band, cells in calls)


def test_logaddexp_lies_within_one_of_its_larger_argument():
    # max(a, b) <= logaddexp(a, b) <= fl(max(a, b) + 1).  The band rests on the
    # lower half only: a cell's bound max(a, b) never exceeds its divergence
    big, tiny, normal = 1e308, 5e-324, 2.2250738585072014e-308
    edges = [0.0, -0.0, tiny, -tiny, 3 * tiny, normal, -normal, 0.5, 1.0, -1.0, 37.0, -745.0, 709.0,
             2.0**53, -(2.0**53), 2.0**53 + 2.0, 1e15, -1e300, big, -big, np.finfo(float).max, -np.finfo(float).max]
    a, b = (x.ravel() for x in np.meshgrid(edges, edges))  # equal arguments and |a - b| up to 2 DBL_MAX
    # and random pairs, of magnitudes spread from subnormal to 1e308, half of them equal
    rng = np.random.default_rng(33)
    x, y = rng.choice([-1.0, 1.0], size=(2, 100_000)) * 10.0 ** rng.uniform(-323, 308, size=(2, 100_000))
    a, b = np.concatenate([a, x]), np.concatenate([b, np.where(rng.uniform(size=100_000) < 0.5, x, y)])
    with np.errstate(over="ignore"):  # a - b overflows for a = -b = DBL_MAX
        value = np.logaddexp(a, b)
    top = np.maximum(a, b)
    assert np.all(top <= value) and np.all(value <= top + 1.0)


def test_band_top_keeps_every_bound_that_divides_to_the_cap():
    # the band cut on the bounds keeps every cell with fl(bound / c) <= cap,
    # and, where the cap is a normal float, at most three floats more; a cap
    # of 0 or a subnormal one keeps more, never fewer
    rng = np.random.default_rng(34)
    for c in (2.0**-52, 1e-6, 0.5, 1.0, 3.0, 48.0, 8.869876166492475e17, 4e306):
        cap = rng.standard_normal(256) * 10.0 ** rng.uniform(-3, 18, size=256) / c
        cap[1:5] = 0.0, -0.0, 5e-324, 2.0**-53 / c  # the last is subnormal for large c
        top = oracle._band_top(cap, c)
        assert np.all(np.isfinite(top)) and np.all(top / c > cap)
        normal = np.abs(cap) >= np.finfo(float).tiny
        below = top[normal]
        for _ in range(3):
            below = np.nextafter(below, -np.inf)
        assert np.all(below / c <= cap[normal]), c


def test_kernel_terms_stay_finite_up_to_the_largest_order():
    # a row holding a NaN cell would give NaN, and the band would drop it; the
    # order check of _grid_lam keeps alpha log p and (1 - alpha) log q finite,
    # their sums of opposite signs, and so every value the kernel takes
    alpha = np.finfo(float).max / (2.0 * -math.log(oracle._P_EDGE))
    while math.isfinite(2.0 * math.nextafter(alpha, math.inf) * math.log(oracle._P_EDGE)):
        alpha = math.nextafter(alpha, math.inf)
    while not math.isfinite(2.0 * alpha * math.log(oracle._P_EDGE)):
        alpha = math.nextafter(alpha, 0.0)
    oracle._grid_lam(alpha, 1.0, oracle._P_EDGE)
    with pytest.raises(DomainError):
        oracle._grid_lam(math.nextafter(alpha, math.inf), 1.0, oracle._P_EDGE)
    u = oracle._logit_grid(-oracle._U_MAX, oracle._U_MAX, 64)
    for order in (alpha, 1.0 + 2.0**-52):
        lx, l1x = oracle._log_tables(u.copy())
        a = (order * lx)[:, None] + (1.0 - order) * lx
        b = (order * l1x)[:, None] + (1.0 - order) * l1x
        assert np.isfinite(np.logaddexp(a, b) / (order - 1.0)).all()
        for eps, delta in ((0.0, 0.0), (1.0, 0.1), (709.0, 0.0)):
            for rule, _ in _rules(u, eps, delta):
                for q_grid, c in _scan_grids(u):
                    assert not np.isnan(oracle._row_scan(order, u, q_grid, rule, centers=c)[0]).any()


def _counted_threads(monkeypatch):
    # every threading.Thread built from here on is appended to the returned list
    built = []

    class Counted(threading.Thread):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(oracle.threading, "Thread", Counted)
    return built


def test_parallel_scan_is_bit_identical_on_any_worker_count(monkeypatch):
    # blocks of 6 shared-grid rows (11 blocks) and of 12 window rows (6
    # blocks) at one worker; 2 and 3 workers split that workspace, and a
    # count of 64 CPUs is capped at 6 workers in each scan: one a row of the
    # shared grid's 6-row block, and one a block of the windows
    u = oracle._logit_grid(-oracle._U_MAX, oracle._U_MAX, 64)
    monkeypatch.setattr(oracle, "_BLOCK_CELLS", 6 * len(u))
    built = _counted_threads(monkeypatch)
    cases = [(alpha, rule) for alpha, eps, delta in _KERNEL_CASES for rule, _ in _rules(u, eps, delta)]

    def scans(cpus):
        monkeypatch.setattr(oracle, "_usable_cpus", lambda: cpus)
        del built[:]
        rows = [oracle._row_scan(alpha, u, q_grid, rule, centers=c) for alpha, rule in cases
                for q_grid, c in _scan_grids(u)]
        n_threads = len(built)
        polished = [oracle._polished_rows(alpha, u, u, rule, 32) for alpha, rule in cases]
        return rows, polished, n_threads

    one_rows, one_polished, none = scans(1)
    assert none == 0
    # one thread for every worker but the caller, in each of the three scans
    for cpus, threads_per_case in ((2, 1 + 1 + 1), (3, 2 + 2 + 2), (64, 5 + 5 + 5)):
        rows, polished, threads = scans(cpus)
        assert threads == len(cases) * threads_per_case, (cpus, threads)
        for (m0, a0), (m1, a1) in zip(one_rows, rows):
            assert np.array_equal(m0, m1) and np.array_equal(a0, a1), cpus
        for w0, w1 in zip(one_polished, polished):
            assert np.array_equal(w0, w1), cpus


def test_shared_grid_matches_windows_centred_at_zero(monkeypatch):
    # the shared grid and the polish windows tabulate q apart but form every
    # cell by the same operations, so windows all centred at 0, which clip
    # nothing, give the shared grid's minima and argmins to the bit; on one
    # worker and on two, in blocks of 6 rows, at every kernel order and one
    # within 1e-7 of 1
    u = oracle._logit_grid(-oracle._U_MAX, oracle._U_MAX, 64)
    monkeypatch.setattr(oracle, "_BLOCK_CELLS", 6 * len(u))
    for cpus in (1, 2):
        monkeypatch.setattr(oracle, "_usable_cpus", lambda: cpus)
        for alpha, eps, delta in [*_KERNEL_CASES, (1.0 + 1e-7, 1.0, 0.1)]:
            for rule, _ in _rules(u, eps, delta):
                shared_min, shared_arg = oracle._row_scan(alpha, u, u, rule)
                window_min, window_arg = oracle._row_scan(alpha, u, u, rule, centers=np.zeros(len(u)))
                assert np.isfinite(shared_min).any(), (alpha, eps, delta)
                assert np.array_equal(shared_min, window_min), (cpus, alpha, eps, delta)
                assert np.array_equal(shared_arg, window_arg), (cpus, alpha, eps, delta)


def test_workspace_holds_no_more_than_a_one_worker_block(monkeypatch):
    # the workers split a one-worker block of whole rows.  On the 4 097-point
    # grid, where one worker holds 32 rows, 31 workers that each rounded
    # their share up to whole rows would hold 62, and 64 CPUs, a worker for
    # each of the 33 blocks of the 1 025 rows scanned here, 33; the 513-point
    # polish windows 260 where one worker holds 256
    shapes = []
    real_empty = np.empty

    def empty(shape, dtype=float):
        shapes.append(shape)
        return real_empty(shape, dtype=dtype)

    u = oracle._logit_grid(-oracle._U_MAX, oracle._U_MAX, GridSpec().n_coarse)
    rule = _hockey_stick_rule(math.e, 0.1)
    monkeypatch.setattr(oracle.np, "empty", empty)
    for cpus in (31, 64):
        monkeypatch.setattr(oracle, "_usable_cpus", lambda: cpus)
        shapes.clear()
        oracle._polished_rows(2.0, u[::4], u, rule, oracle._N_POLISH)
        workspaces = [s[-3:] for s in shapes if isinstance(s, tuple) and len(s) >= 3]
        assert {n_cols for _, _, n_cols in workspaces} == {len(u), oracle._N_POLISH + 1}
        for n_workers, block_rows, n_cols in workspaces:
            assert n_workers * block_rows <= -(-oracle._BLOCK_CELLS // n_cols), (cpus, n_workers, block_rows, n_cols)


def test_a_worker_error_leaves_no_thread_behind(monkeypatch):
    # 3 workers with 2-row blocks: worker 1 scans rows 2, 8, 14, ...; an error
    # on its second block, or on the caller's first, ends the scan
    u = oracle._logit_grid(-oracle._U_MAX, oracle._U_MAX, 64)
    monkeypatch.setattr(oracle, "_BLOCK_CELLS", 6 * len(u))
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: 3)
    rule = _hockey_stick_rule(math.e, 0.1)
    for failing_row, caller in ((8, False), (0, True)):
        raised_in = []

        def failing(rows, *args):
            if rows.start == failing_row:
                raised_in.append(threading.current_thread() is threading.main_thread())
                raise ZeroDivisionError(f"row {rows.start}")
            rule(rows, *args)

        before = threading.active_count()
        with pytest.raises(ZeroDivisionError, match=f"row {failing_row}$"):
            oracle._row_scan(2.0, u, u, failing)
        assert raised_in == [caller]
        assert threading.active_count() == before


def test_one_worker_starts_no_thread(monkeypatch):
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: 1)
    built = _counted_threads(monkeypatch)
    u = oracle._logit_grid(-oracle._U_MAX, oracle._U_MAX, 64)
    rule = _hockey_stick_rule(math.e, 0.1)
    brute_force_gamma(2.0, 1.0, 0.1, FAST)
    verify_q_star(2.0, 1.0, 0.1, FAST, n_p=64)
    assert built == []
    # nor does a scan with no rows, or one block, whatever the CPU count
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: 64)
    row_min, row_arg = oracle._row_scan(2.0, u[:0], u, rule)
    assert len(row_min) == len(row_arg) == 0
    oracle._row_scan(2.0, u, u, rule)
    assert built == []


def test_usable_cpus_without_an_affinity_call(monkeypatch):
    # where os.sched_getaffinity is missing, the count is os.cpu_count(), or 1 where that is unknown
    monkeypatch.delattr(oracle.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 3)
    assert oracle._usable_cpus() == 3
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: None)
    assert oracle._usable_cpus() == 1


def test_polished_rows_keep_their_own_rule():
    # rows with no feasible q are left out of the polish; the rows that are
    # polished must still see their own q_star, as when polished alone
    u = oracle._logit_grid(-oracle._U_MAX, oracle._U_MAX, 64)
    for alpha, eps, delta in _KERNEL_CASES:
        q_star = (1.0 / (1.0 + np.exp(-u)) - delta) / math.exp(eps)
        q_star[::3] = 0.0
        whole = oracle._polished_rows(alpha, u, u, _first_atom_rule(q_star), 32)
        assert not np.isfinite(whole[::3]).any() and np.isfinite(whole).any()
        alone = [oracle._polished_rows(alpha, u[i:i + 1], u, _first_atom_rule(q_star[i:i + 1]), 32)[0]
                 for i in range(len(u))]
        assert np.array_equal(whole, alone)


def test_kernel_values_are_pinned():
    # values of the kernel before it reused a workspace and per-centre tables;
    # the rewrite must leave every bit in place.  The q* gap is the one taken
    # at the p of the kernel's rows (3.423267383118045e-06 at 1/(1 + e^-u))
    assert brute_force_gamma(2, 1, 0.1) == 0.5465683757695481
    assert brute_force_gamma(25, 2.5, 0.49) == 3.1733612290412467
    assert verify_q_star(2, 1, 0.1)["max_gap"] == 3.4232673833400895e-06


def test_value_at_q_star_is_taken_at_the_p_the_kernel_scans(monkeypatch):
    # q* and the divergence there are taken at the p of the kernel's rows, to
    # the bit: 1/(1 + e^-u) differs from it on most grid points
    seen = []
    real_rows, real_renyi = oracle._polished_rows, oracle._pair_renyi
    monkeypatch.setattr(oracle, "_polished_rows",
                        lambda alpha, u_p, *args: seen.append(u_p) or real_rows(alpha, u_p, *args))
    monkeypatch.setattr(oracle, "_pair_renyi", lambda alpha, p, q: seen.append(p) or real_renyi(alpha, p, q))
    verify_q_star(2.0, 1.0, 0.1, FAST, n_p=64)
    u_p, p = seen
    assert np.array_equal(p, np.exp(oracle._log_tables(u_p.copy())[0]))
    assert not np.array_equal(p, 1.0 / (1.0 + np.exp(-u_p)))


def test_kernel_peak_memory(monkeypatch):
    # traced peak of one default-grid call on two workers, against the peak
    # of a call whose polish blocks have as many centres as rows (delta = 0:
    # 5.8 MiB for the brute force, 5.3 MiB for the q* check), with half a MiB
    # to spare, less than one float array of a one-worker block (1 MiB).  So
    # polish blocks that tabulated q and 1 - q beside their logs fail it (7.8
    # and 7.3 MiB), as does a scan that held the windows of all its centres
    # at once (8.6 to 67.9 MiB on all but the first call).  The
    # worker count is fixed, as blocks round up to whole rows: at 16 workers
    # the brute force at delta = 0 traces 6.4 MiB
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: 2)
    brute, q_star = 5.8 + 0.5, 5.3 + 0.5
    for call, bound_mib in (
        (lambda: brute_force_gamma(11.82, 1.68, 0.245), brute),
        (lambda: verify_q_star(11.82, 1.68, 0.245), q_star),
        (lambda: brute_force_gamma(1.3471, 0.856, 0.34), brute),
        (lambda: verify_q_star(2, 1, 0.1), q_star),
        (lambda: brute_force_gamma(1.5, 2.0, 0.0), brute),
        (lambda: verify_q_star(1.5, 2.0, 0.0), q_star),
    ):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mib * 2**20, (peak / 2**20, bound_mib)


def test_polish_tables_hold_only_their_blocks_centres(monkeypatch):
    # a polish scan tabulates the windows of each block's own centres, so no
    # window table has more rows than a block.  The scans below have more
    # centres than a block has rows: 113 of 4 097-point windows in the q*
    # check, against 32-row blocks, and at delta = 0, where each row is its
    # own centre, as many as the brute force has finite rows
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: 1)
    real_tables = oracle._log_tables
    shapes = []

    def tables(u):
        if u.ndim == 2:  # one window a row; the shared grid and p are 1-D
            shapes.append(u.shape)
        return real_tables(u)

    monkeypatch.setattr(oracle, "_log_tables", tables)
    for call in (lambda: verify_q_star(2, 1, 0.1), lambda: brute_force_gamma(1.5, 2.0, 0.0)):
        shapes.clear()
        call()
        assert shapes
        for n_centres, n_cols in shapes:
            assert n_centres <= -(-oracle._BLOCK_CELLS // n_cols), (n_centres, n_cols)


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


def _grid_limit_eps():
    # the least eps at which e^eps times the grid's smallest probability
    # reaches its largest; the grid's ends, and so this eps, do not depend on n
    x = np.exp(oracle._log_tables(oracle._logit_grid(-oracle._U_MAX, oracle._U_MAX, 64))[0])
    lo, hi = 20.0, 21.0
    while math.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if math.exp(mid) * x.min() >= x.max() else (mid, hi)
    return hi


def test_brute_force_stops_at_the_grid_limit_before_any_scan(monkeypatch):
    # from eps ~ 20.72 on, e^eps q >= p and e^eps (1 - q) >= 1 - p for every
    # grid pair, so no pair meets a delta > 0; the error says so before any scan
    limit = _grid_limit_eps()
    u = oracle._logit_grid(-oracle._U_MAX, oracle._U_MAX, FAST.n_coarse)
    steps = [limit]
    for _ in range(3):
        steps = [math.nextafter(steps[0], 0.0), *steps, math.nextafter(steps[-1], math.inf)]
    below, above = steps[:3], steps[3:]
    for eps in below:  # the corner pair (1 - 1e-9, 1e-9) still has divergence > 0
        assert math.isfinite(brute_force_gamma(2.0, eps, 5e-324, FAST))
    for eps in above:
        # the scan itself would admit no cell
        row_min, _ = oracle._row_scan(2.0, u, u, _hockey_stick_rule(math.exp(eps), 5e-324))
        assert np.isinf(row_min).all()
    scans = []
    real_scan = oracle._row_scan
    monkeypatch.setattr(oracle, "_row_scan", lambda *args, **kwargs: scans.append(args) or real_scan(*args, **kwargs))
    for eps in (*above, 30.0, 709.0, 1e300):
        with pytest.raises(InfeasibleError, match=r"past the oracle's grid .* e\^eps \* 1e-09 >= 1 - 1e-09"):
            brute_force_gamma(2.0, eps, 5e-324, FAST)
    assert scans == []
    # at delta = 0 every pair is admitted, and the scans run
    assert brute_force_gamma(2.0, limit, 0.0, FAST) == 0.0
    assert len(scans) == 4


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


def _verify_q_star_reference(alpha, epsilon, delta, grid, n_p):
    # a per-p scalar loop: coarse q grid, then +-1 coarse step in n_refine steps
    def log_probs(u):  # log(sigmoid(u)) and log(1 - sigmoid(u)), without the 1 - q cancellation
        return -np.log1p(np.exp(-u)), -np.log1p(np.exp(u))

    lam = math.exp(epsilon)
    u_all = oracle._logit_grid(-oracle._U_MAX, oracle._U_MAX, grid.n_coarse)
    u_ps = u_all[1.0 / (1.0 + np.exp(-u_all)) > delta + 2e-9 * lam]
    if len(u_ps) > n_p:
        u_ps = u_ps[np.linspace(0, len(u_ps) - 1, n_p).round().astype(int)]
    lq, l1q = log_probs(u_all)
    step = float(u_all[1] - u_all[0])
    max_gap, checked = 0.0, 0
    for u_p in u_ps:
        p = 1.0 / (1.0 + math.exp(-u_p))
        q_star = (p - delta) / lam
        lp, l1p = -math.log1p(math.exp(-u_p)), -math.log1p(math.exp(u_p))

        def q_min(lq_v, l1q_v):
            q_v = np.exp(lq_v)
            div = np.where(q_v <= q_star, _renyi_of_logs(alpha, p, 1.0 - p, lp, l1p, lq_v, l1q_v), np.inf)
            k = int(np.argmin(div))
            return float(div[k]), float(np.log(q_v[k] / (1.0 - q_v[k])))

        coarse, u_at = q_min(lq, l1q)
        if not coarse < math.inf:
            continue
        fine_u = oracle._logit_grid(max(u_at - step, -oracle._U_MAX), min(u_at + step, oracle._U_MAX), grid.n_refine)
        fine, _ = q_min(*log_probs(fine_u))
        max_gap = max(max_gap, abs(min(coarse, fine) - _renyi(alpha, p, q_star)[0]))
        checked += 1
    return checked, max_gap


def test_q_star_check_matches_scalar_reference():
    for alpha, eps, delta in _KERNEL_CASES:
        report = verify_q_star(alpha, eps, delta, FAST, n_p=64)
        checked, max_gap = _verify_q_star_reference(alpha, eps, delta, FAST, 64)
        assert report["n_p_checked"] == checked
        assert abs(report["max_gap"] - max_gap) <= 1e-12


def test_q_star_check_counts_every_scanned_row():
    # a usable p has q* > 2e-9, above the smallest grid q, so every scanned row
    # is checked; the last triple puts delta + 2e-9 e^eps just below the
    # fourth-largest grid p, so only four rows are usable
    u = oracle._logit_grid(-oracle._U_MAX, oracle._U_MAX, FAST.n_coarse)
    p = 1.0 / (1.0 + np.exp(-u))
    edge_eps = math.log((0.5 * (p[-4] + p[-5]) - 0.5) / 2e-9)
    for alpha, eps, delta in [*_KERNEL_CASES, (2.0, edge_eps, 0.5), (20.0, edge_eps, 0.5)]:
        usable = int(np.count_nonzero(p > delta + 2e-9 * math.exp(eps)))
        report = verify_q_star(alpha, eps, delta, FAST, n_p=64)
        assert report["n_p_checked"] == min(usable, 64)
        assert math.isfinite(report["max_gap"])
    assert verify_q_star(2.0, edge_eps, 0.5, FAST)["n_p_checked"] == 4
    with pytest.raises(InfeasibleError):
        verify_q_star(2.0, 25.0, 0.0, FAST)  # 2e-9 e^25 > 1: no usable p


def test_q_star_check_flags_a_wrong_reduction(monkeypatch):
    # a reference value above every grid minimum is what a wrong reduction
    # gives; the check must report it rather than clip it to zero
    real = oracle._pair_renyi
    monkeypatch.setattr(oracle, "_pair_renyi", lambda alpha, p, q: real(alpha, p, q) + 1e-3)
    report = verify_q_star(2.0, 1.0, 0.1, FAST, n_p=64)
    assert 9e-4 <= report["max_gap"] <= 1.1e-3


def test_q_star_check_runs_at_delta_zero():
    report = verify_q_star(2.0, 0.5, 0.0, FAST, n_p=64)
    assert report["max_gap"] <= 1e-3


def test_divergence_decreases_toward_q_star():
    # the reduction to q = (p - delta) e^{-eps} rests on this monotonicity
    alpha, eps, delta = 2.0, 1.0, 0.1
    for p in (0.3, 0.6, 0.9):
        q_star = (p - delta) * math.exp(-eps)
        qs = np.linspace(1e-6, q_star, 200)
        div = _renyi(alpha, p, qs)
        assert np.all(np.diff(div) <= 1e-12)


def test_joint_range_containment():
    report = joint_range_containment(2.0, 1.0, n_samples=10000)
    assert report["violations"] == 0
    assert report["min_margin"] > -1e-8
    assert report["n_samples"] == 10000


def test_joint_range_containment_counts_pairs_below_the_frontier(monkeypatch):
    # with the frontier lifted by 1 nat, pairs on or near the true frontier fall below it
    def lifted(*args):
        r = gamma_exact(*args)
        return r._replace(value=r.value + 1.0)

    monkeypatch.setattr(oracle, "gamma_exact", lifted)
    report = joint_range_containment(2.0, 1.0, n_samples=50)
    assert report["violations"] > 0
    assert report["min_margin"] < -oracle.CONTAINMENT_TOLERANCE


def test_joint_range_containment_deterministic(monkeypatch):
    # the pairs are random.Random(seed)'s draws, p the first n and q the next
    # n, for a numpy integer seed too
    a = joint_range_containment(2.0, 0.5, n_samples=500, seed=11)
    b = joint_range_containment(2.0, 0.5, n_samples=500, seed=11)
    assert a == b
    pairs = []
    real_renyi = oracle._pair_renyi
    monkeypatch.setattr(oracle, "_pair_renyi", lambda alpha, p, q: pairs.append((p, q)) or real_renyi(alpha, p, q))
    assert joint_range_containment(2.0, 0.5, n_samples=500, seed=np.int64(11)) == a
    rng = random.Random(11)
    draws = [rng.random() for _ in range(1000)]
    [(p, q)] = pairs
    assert p.tolist() == draws[:500] and q.tolist() == draws[500:]


def test_containment_sample_is_allocated_before_it_is_drawn(monkeypatch):
    # a sample too large to hold is a domain error before its first draw: the
    # 2**62 bytes of 2**58 pairs' draws exceed any 64-bit address space
    class Undrawable(random.Random):
        def random(self):
            pytest.fail("a sample was drawn")

    monkeypatch.setattr(oracle.random, "Random", Undrawable)
    monkeypatch.setattr(oracle, "gamma_exact", lambda *args: pytest.fail("the oracle ran"))
    with pytest.raises(DomainError, match=f"n_samples={2**58} is too large: the oracle's arrays for it do not fit"):
        joint_range_containment(2.0, 1.0, n_samples=2**58)


def test_arrays_numpy_cannot_size_are_refused_before_allocation(monkeypatch):
    # past sys.maxsize bytes numpy raises ValueError or OverflowError, or its
    # count wraps: a refined grid of n_refine + 1 floats, a polish window of
    # n_refine + 1 and a sample of 2 n_samples are each refused before numpy
    # is asked (tests/test_cli.py pins the coarse grid through oracle-check)
    real_arange = np.arange

    def small_arange(*args):
        assert max(args) <= 4097, "the array was allocated"
        return real_arange(*args)

    monkeypatch.setattr(oracle.np, "arange", small_arange)
    monkeypatch.setattr(oracle.np, "fromiter", lambda *args, **kwargs: pytest.fail("the array was allocated"))
    big = sys.maxsize
    grids = [(GridSpec(64, big), big + 1, brute_force_gamma), (GridSpec(64, 2**60), 2**60 + 1, verify_q_star)]
    cases = [(repr(grid), floats, functools.partial(fn, 2.0, 1.0, 0.1, grid)) for grid, floats, fn in grids]
    cases.append((f"n_samples={2**62}", 2**63, functools.partial(joint_range_containment, 2.0, 1.0, n_samples=2**62)))
    for counts, floats, call in cases:
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == (f"{counts} is too large: the oracle's arrays for it do not fit in memory "
                                   f"({floats} floats take more than sys.maxsize = {big} bytes)")


def test_counts_past_the_index_range_are_rejected_before_any_work(monkeypatch):
    # a count above sys.maxsize has no numpy index; a seed may be any size
    monkeypatch.setattr(oracle, "_polished_rows", lambda *args: pytest.fail("the scan ran"))
    monkeypatch.setattr(oracle, "gamma_exact", lambda *args: pytest.fail("the oracle ran"))
    GridSpec(n_coarse=sys.maxsize, n_refine=np.int64(sys.maxsize))
    too_many = sys.maxsize + 1
    for name, call in [
        ("n_coarse", lambda: GridSpec(n_coarse=too_many)),
        ("n_refine", lambda: GridSpec(n_refine=np.uint64(too_many))),
        ("n_p", lambda: verify_q_star(2.0, 1.0, 0.1, FAST, n_p=10**400)),
        ("n_samples", lambda: joint_range_containment(2.0, 1.0, n_samples=10**400)),
    ]:
        with pytest.raises(DomainError, match=f"{name} must be at most sys.maxsize"):
            call()
    monkeypatch.undo()
    assert joint_range_containment(2.0, 1.0, n_samples=10, seed=10**400)["violations"] == 0


def test_orders_below_the_floor_are_rejected(monkeypatch):
    # below alpha = 1 + 1e-8 gamma_exact, the frontier checked, overshoots by
    # more than the containment tolerance: at 1 + 1e-9, eps = 0 and delta =
    # 1.91e-4 it is 156% above the 50-digit frontier, and a seeded 2 000-sample
    # sweep found violations in 3 of 64 runs.  Every entry point names the
    # order before any work; at the floor all three run
    floor = 1.0 + 1e-8
    below = math.nextafter(floor, 1.0)
    for alpha in (below, 1.0 + 1e-9, 1.0 + 2.0**-52):
        with monkeypatch.context() as m:
            m.setattr(oracle, "_polished_rows", lambda *args: pytest.fail("the scan ran"))
            m.setattr(oracle, "gamma_exact", lambda *args: pytest.fail("the oracle ran"))
            for call in (lambda: brute_force_gamma(alpha, 0.5, 0.1), lambda: verify_q_star(alpha, 0.5, 0.1),
                         lambda: joint_range_containment(alpha, 0.5)):
                with pytest.raises(DomainError, match=f"order alpha={alpha!r} is too close to 1"):
                    call()
    report = joint_range_containment(floor, 0.5, n_samples=2000)
    assert report["violations"] == 0 and report["min_margin"] > -1e-9, report
    exact = gamma_exact(floor, 0.5, 0.1).value
    assert abs(brute_force_gamma(floor, 0.5, 0.1, FAST) - exact) <= 1e-4
    assert verify_q_star(floor, 0.5, 0.1, FAST, n_p=64)["max_gap"] <= 1e-4


def test_containment_seed_must_be_a_nonnegative_integer(monkeypatch):
    # checked before any work: no generator is built and no frontier is solved
    monkeypatch.setattr(oracle, "gamma_exact", lambda *args: pytest.fail("the oracle ran"))
    monkeypatch.setattr(oracle.random, "Random", lambda *args: pytest.fail("the oracle ran"))
    for seed in (-1, -(2**63), 1.5, 7.0, True, "7", None):
        with pytest.raises(DomainError, match="seed must be an integer >= 0"):
            joint_range_containment(2.0, 1.0, n_samples=10, seed=seed)


def test_oracle_check_domain():
    with pytest.raises(DomainError):
        verify_q_star(0.5, 1.0, 0.1)
    with pytest.raises(DomainError):
        joint_range_containment(2.0, -1.0)
    with pytest.raises(DomainError):
        joint_range_containment(2.0, 1.0, n_samples=0)
