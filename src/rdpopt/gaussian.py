"""Privacy accounting for T-fold composition of Gaussian mechanisms.

A Gaussian mechanism with noise sigma and sensitivity Delta satisfies
(alpha, rho * alpha)-Renyi DP for every alpha > 1 with rate
rho = Delta^2 / (2 sigma^2); T-fold composition multiplies the rate by T.
Poisson-subsampled gradient steps use the rate rho = q^2 / ((1-q) sigma^2)
with unit sensitivity.

The moments-accountant baseline converts via delta = e^{-(alpha-1)(eps -
alpha rho T)}, whose optimized closed form is

    eps_ma = rho T + sqrt(4 rho T log(1/delta)).

The accountant here applies the conversion of the conversion module at
every order instead: epsilon = min over alpha in (1, 1/delta] of
convert(alpha, rho T alpha, delta), where convert is epsilon_bound in mode
"closed_form".  Mode "exact" converts through the numeric frontier
gamma_exact and solves the dual: the smallest epsilon at which
max over alpha of gamma_exact(alpha, epsilon, delta) / alpha reaches rho T,
by Newton steps from the closed-form answer, each scanning the orders near
the order the step before won, the first near the closed-form argmin.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .conversion import (
    Branch,
    ConversionResult,
    _chi_epsilon_piece,
    _chi_gamma_piece,
    _epsilon_bound,
    _gamma_of_epsilon_bound,
    _gamma_slope,
    _moment_epsilon_piece,
    _moment_gamma_piece,
    gamma_exact,
)
from .errors import DomainError, InfeasibleError, _check_positive, _check_unit
from .optimize import DEFAULT_SEARCH, ScalarSearchConfig, _newton_invert, minimize_unimodal

MODES = ("closed_form", "exact")

# exact mode's order scan and the gamma_exact solve at each order it visits:
# every order costs a frontier search, so both run coarser than DEFAULT_SEARCH.
# The scan refines its order to 1e-6 in log(alpha - 1), on a window of +-1
# around a given order and on all orders only as a fallback.  Each solve
# brackets its minimum on gamma_exact's 8-point grid, which the frontier
# objective's convexity makes enough, and refines to 1e-9
_EXACT_ORDERS = ScalarSearchConfig(abs_tol=1e-6)
_EXACT_INNER = ScalarSearchConfig(abs_tol=1e-9)


def rho_gaussian(sigma: float, sensitivity: float = 1.0) -> float:
    """Renyi rate Delta^2 / (2 sigma^2) of a single Gaussian mechanism."""
    _check_positive(sigma, "sigma")
    _check_positive(sensitivity, "sensitivity")
    return _rate(sensitivity * sensitivity, 2.0 * sigma * sigma, sigma)


def rho_subsampled(sigma: float, q: float) -> float:
    """Renyi rate q^2 / ((1-q) sigma^2) of a Poisson-subsampled unit-sensitivity step.

    Valid in the small-q, moderate-alpha regime where the subsampled
    mechanism's Renyi curve is linear in alpha.
    """
    _check_positive(sigma, "sigma")
    _check_unit(q, "sampling rate q")
    return _rate(q * q, (1.0 - q) * sigma * sigma, sigma)


def _rate(numerator: float, denominator: float, sigma: float) -> float:
    # a tiny finite sigma squares to 0.0, or to a subnormal whose reciprocal overflows
    rate = numerator / denominator if denominator > 0.0 else math.inf
    if math.isinf(rate):
        raise DomainError(f"Renyi rate is not finite at sigma = {sigma!r}: {numerator!r} / {denominator!r}")
    return rate


@dataclass(frozen=True)
class GaussianConfig:
    """Mechanism parameters; rho is derived, with unit sensitivity under subsampling."""

    sigma: float
    sensitivity: float = 1.0
    subsampling_q: Optional[float] = None

    def __post_init__(self):
        self.rho  # rho_gaussian or rho_subsampled validates sigma, sensitivity and q
        if self.subsampling_q is not None and self.sensitivity != 1.0:
            raise DomainError("subsampled accounting assumes unit sensitivity")

    @property
    def rho(self) -> float:
        if self.subsampling_q is not None:
            return rho_subsampled(self.sigma, self.subsampling_q)
        return rho_gaussian(self.sigma, self.sensitivity)


def ma_epsilon(rho: float, T: float, delta: float) -> float:
    """Moments-accountant epsilon: rho*T + sqrt(4*rho*T*log(1/delta)).

    This is the closed form of min over alpha > 1 of
    alpha*rho*T - log(delta)/(alpha - 1).
    """
    _check_positive(rho, "rho")
    _check_steps(T)
    _check_delta(delta)
    s = rho * T
    return _check_finite(s + math.sqrt(4.0 * s * math.log(1.0 / delta)), s)


def _check_steps(T: float) -> None:
    if not (math.isfinite(T) and T >= 1):
        raise DomainError(f"T must be >= 1, got {T!r}")


def _check_finite(value: float, rho_T: float) -> float:
    # a total rate or an answer that overflowed; rho_T is the total rate behind it.
    # acct_epsilon checks rho_T alone: its order scan keeps only finite values
    if not math.isfinite(value):
        raise DomainError(f"the accounting is not finite at rho*T = {rho_T!r}")
    return value


def _check_budget(epsilon: float, delta: float) -> None:
    _check_positive(epsilon, "epsilon budget")
    _check_delta(delta)


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise DomainError(f"mode must be one of {MODES}, got {mode!r}")


def _check_delta(delta: float) -> None:
    # the accountants take log(1/delta), which is infinite below 1/DBL_MAX
    _check_unit(delta, "delta")
    if 1.0 / delta == math.inf:
        raise DomainError(f"delta must be at least 1/DBL_MAX so that log(1/delta) is finite, got {delta!r}")


@dataclass(frozen=True)
class AccountedEpsilon:
    """Composed epsilon with its minimizing order.

    active_branch is the epsilon_bound branch that wins at argmin_alpha in
    closed-form mode, and None in exact mode.
    """

    epsilon: float
    argmin_alpha: float
    active_branch: Optional[Branch]
    mode: str


def _order_range(delta: float) -> tuple[float, float]:
    # the range of u = log(alpha - 1) that the order scans search, alpha in
    # (1, 1/delta): in log(alpha - 1), orders near 1 and near 1/delta get
    # comparable resolution.  1 + e^u rounds to 1 below u = log(2^-53) = -36.7,
    # which the scan would reach within a few ulps of delta = 1, where
    # u_hi >= log(2^-52) = -36.04
    u_hi = math.log(1.0 / delta - 1.0)
    return max(min(math.log(1e-6), u_hi - 1.0), -36.5), u_hi


def _at_u(objective):
    return lambda u: objective(1.0 + math.exp(u))


def _min_over_orders(
    pieces, objective, delta: float, cfg: ScalarSearchConfig, centre: Optional[float] = None
) -> tuple[float, float]:
    # minimize over alpha in (1, 1/delta] an objective that is the smaller of
    # pieces below alpha = 1/delta.  Its minimum over the open range is the
    # smallest of the pieces' own minima, so each piece is scanned on its own
    # in u = log(alpha - 1) at cfg, and objective is evaluated at the winning
    # piece's order and at the end alpha = 1/delta, where the lower value wins.
    # Given a centre order, only the window of +-1 around its u is scanned,
    # and the whole range as well when the window's minimum lies within one
    # grid step of a window edge that is not also an edge of the range.
    #
    # cfg's 8 grid points bracket a piece's minimum when the piece is
    # unimodal in u.  For the moment piece of epsilon_bound at
    # gamma = rho_T alpha this is proved.  Write L = log(1/delta); since
    # log zeta(alpha)/(alpha - 1) = log(1 - 1/alpha) - log(alpha)/(alpha - 1),
    #     eps_g(alpha) = rho_T alpha + log(1 - 1/alpha) + (L - log alpha)/(alpha - 1),
    #     d eps_g / d alpha = rho_T - (L - log alpha)/(alpha - 1)^2.
    # On (1, 1/delta) the numerator L - log alpha is positive and falls, and
    # (alpha - 1)^2 grows, so the slope increases strictly and eps_g is
    # convex in alpha.  Its clamp at 0 keeps it convex, hence unimodal in
    # alpha and in the increasing u.  The argument needs only that the total
    # rate, here rho_T alpha, is convex in alpha.  The chi piece and both
    # pieces that _largest_rate inverts have no such proof; they are
    # unimodal as sampled on random inputs over their whole ranges, and
    # tests/test_gaussian.py keeps sampling them.  Nor has exact mode's
    # rate, which wiggles at rounding level near alpha = 1; a test holds its
    # scan of all orders to the minimum of a 256-order sample
    u_lo, u_hi = _order_range(delta)

    def scan(lo: float, hi: float) -> float:
        return min((minimize_unimodal(_at_u(piece), lo, hi, cfg) for piece in pieces), key=lambda r: r[1])[0]

    if centre is None:
        u = scan(u_lo, u_hi)
    else:
        u_c = min(max(math.log(centre - 1.0), u_lo), u_hi)
        lo, hi = max(u_c - 1.0, u_lo), min(u_c + 1.0, u_hi)
        u = scan(lo, hi)
        step = (hi - lo) / (cfg.coarse_grid - 1)
        if (lo > u_lo and u - lo <= step) or (hi < u_hi and hi - u <= step):
            u = scan(u_lo, u_hi)
    alpha, alpha_end = 1.0 + math.exp(u), 1.0 / delta
    value, v_end = objective(alpha), objective(alpha_end)
    return (alpha_end, v_end) if v_end < value else (alpha, value)


def acct_epsilon(rho: float, T: float, delta: float, mode: str = "closed_form") -> AccountedEpsilon:
    """Epsilon after T compositions at rate rho, via the conversion frontier.

    The T-fold composition satisfies (alpha, rho T alpha)-Renyi DP at every
    order, so epsilon is the minimum over alpha in (1, 1/delta] of the
    conversion of that guarantee.  Closed-form mode minimizes
    epsilon_bound(alpha, rho T alpha, delta), which below alpha = 1/delta is
    the smaller of its moment and chi pieces: each piece is scanned over the
    orders on its own at DEFAULT_SEARCH, an 8-point grid refined by Brent's
    steps (the moment piece is convex in alpha, the chi piece unimodal as
    sampled), and epsilon_bound is evaluated at the lower piece's order and
    at alpha = 1/delta.  About 55 objective evaluations an answer.

    Exact mode computes the same minimum for epsilon_exact through its dual:
    the smallest epsilon at which gamma_exact(alpha, epsilon, delta) reaches
    rho T alpha at some order.  Each step scans the orders of
    gamma_exact / alpha (to 1e-6, each solve to 1e-9), and the step itself is
    Newton's, with the slope in epsilon from the envelope theorem at the
    winning order and p.  A margin at any order certifies epsilon, so the
    scan is local: a window of +-1 in log(alpha - 1) around the order the
    step before won (the closed-form argmin for the first step), plus
    alpha = 1/delta, and all orders only when the window's minimum lies at
    one of its inner edges; a window that misses the optimum therefore falls
    back once an answer, not on every step.  The steps start at the
    closed-form answer, so exact mode is never worse than closed-form mode,
    and end, usually after two or three scans of about 17 frontier solves
    each, at an epsilon that gamma_exact certifies at the reported order,
    within 1e-10 of the crossing.
    """
    _check_positive(rho, "rho")
    _check_steps(T)
    _check_delta(delta)
    _check_mode(mode)
    rho_T = rho * T
    _check_finite(rho_T, rho_T)
    bound = lambda a: _epsilon_bound(a, rho_T * a, delta)
    pieces = (lambda a: _moment_epsilon_piece(a, rho_T * a, delta), lambda a: _chi_epsilon_piece(a, rho_T * a, delta))
    a_closed, _ = _min_over_orders(pieces, lambda a: bound(a)[0], delta, DEFAULT_SEARCH)
    eps_closed, branch = bound(a_closed)
    if mode == "closed_form":
        return AccountedEpsilon(eps_closed, a_closed, branch, mode)

    certified = {}  # the order that meets the budget at each epsilon tried
    centre = a_closed  # the order the last scan won, around which the next one looks

    def margin(eps: float) -> tuple[float, float]:
        # gamma_exact - rho_T alpha at the order alpha maximizing gamma_exact / alpha,
        # and its slope in eps by the envelope theorem.  Its sign is that of
        # g(eps) - rho_T for the dual g = max over orders of gamma_exact / alpha,
        # its Newton step is g's, and a margin >= 0 certifies eps at alpha
        nonlocal centre
        alpha, r = _exact_rate(eps, delta, centre)
        centre = alpha
        value = r.value - rho_T * alpha
        if value >= 0.0:
            certified[eps] = alpha
        return value, _gamma_slope(alpha, eps, delta, r.argmin_p)

    eps = _newton_invert(margin, 0.0, 0.0, eps_closed, DEFAULT_SEARCH.abs_tol)
    return AccountedEpsilon(eps, certified.get(eps, a_closed), None, mode)


def _exact_rate(epsilon: float, delta: float, centre: float) -> tuple[float, ConversionResult]:
    # the order maximizing gamma_exact(alpha, eps, delta) / alpha, scanned in
    # the window around the order centre, and the frontier solve there.  Any
    # order gives a sound rate, so the window costs only tightness
    solves: dict[float, ConversionResult] = {}

    def neg_rate(alpha: float) -> float:
        if alpha not in solves:  # the scan evaluates its winning order a second time
            solves[alpha] = gamma_exact(alpha, epsilon, delta, _EXACT_INNER)
        return -solves[alpha].value / alpha

    alpha, _ = _min_over_orders((neg_rate,), neg_rate, delta, _EXACT_ORDERS, centre)
    return alpha, solves[alpha]


def _largest_rate(epsilon: float, delta: float, mode: str) -> tuple[float, float]:
    # the largest rho*T whose accounted epsilon meets the budget, and the order
    # attaining it.  Each conversion increases with gamma, so the budget is met
    # exactly when rho*T*alpha <= gamma_alpha(eps) at some order, where
    # gamma_alpha inverts the conversion at that order.  Below alpha = 1/delta
    # the closed-form gamma_alpha is the larger of the two pieces' inverses,
    # so -gamma_alpha/alpha is the smaller of two pieces, each scanned on its
    # own (unimodal as sampled; see _min_over_orders).  Exact mode then scans
    # gamma_exact/alpha in the window around the closed-form order
    pieces = (lambda a: -_moment_gamma_piece(a, epsilon, delta) / a, lambda a: -_chi_gamma_piece(a, epsilon, delta) / a)
    neg_rate = lambda a: -_gamma_of_epsilon_bound(a, epsilon, delta) / a
    alpha, value = _min_over_orders(pieces, neg_rate, delta, DEFAULT_SEARCH)
    if mode == "closed_form":
        return -value, alpha
    alpha, r = _exact_rate(epsilon, delta, alpha)
    return r.value / alpha, alpha


def max_iterations(rho: float, epsilon: float, delta: float, mode: str = "closed_form") -> int:
    """Largest integer T whose accounted epsilon stays within the budget.

    The largest total rate rho*T that meets the budget, a maximum over orders
    of the inverse conversion, estimates T.  acct_epsilon in the given mode
    then checks the integers around the estimate, so the answer satisfies
    acct_epsilon(T) <= epsilon < acct_epsilon(T + 1).
    """
    _check_budget(epsilon, delta)
    _check_positive(rho, "rho")
    _check_mode(mode)
    rho_T, _ = _largest_rate(epsilon, delta, mode)
    return _largest_T(lambda T: acct_epsilon(rho, T, delta, mode).epsilon, epsilon, rho_T / rho)


def ma_max_iterations(rho: float, epsilon: float, delta: float) -> int:
    """Largest integer T whose moments-accountant epsilon stays within the budget.

    Estimated from the root of ma_epsilon in rho*T, then checked like max_iterations.
    """
    _check_budget(epsilon, delta)
    _check_positive(rho, "rho")
    return _largest_T(lambda T: ma_epsilon(rho, T, delta), epsilon, _ma_rate(epsilon, delta) / rho)


def _largest_T(eps_at, budget: float, estimate: float) -> int:
    # eps_at is nondecreasing in T.  Gallops outwards from the estimate in
    # doubling steps until the budget is crossed, keeping eps_at(lo) <= budget
    # < eps_at(hi) as if T = 0 always met it and 2^62 + 1 never did, then bisects
    lo, hi = 0, 2**62 + 1
    probe, step = int(min(max(estimate, 1.0), 2**62)), 1
    while hi - lo > 1 and (lo == 0 or hi > 2**62):
        if eps_at(probe) <= budget:
            lo, probe = probe, min(probe + step, 2**62)
        else:
            hi, probe = probe, max(probe - step, 1)
        step *= 2
    if lo == 2**62:
        raise InfeasibleError("iteration budget exceeds 2^62; rate is effectively zero")
    return lo + bisect.bisect_right(range(lo + 1, hi), budget, key=eps_at)


def _ma_rate(epsilon: float, delta: float) -> float:
    # the root x = rho*T of x + sqrt(4 x log(1/delta)) = eps, which rounds to 0
    # when eps is below log(1/delta) by about 16 orders of magnitude
    big_l = math.log(1.0 / delta)
    return (math.sqrt(epsilon + big_l) - math.sqrt(big_l)) ** 2


def ma_required_variance(T: float, epsilon: float, delta: float) -> float:
    """Noise variance making the moments-accountant epsilon equal the budget.

    sigma^2 = T / (2 x) at x = (sqrt(eps + log(1/delta)) - sqrt(log(1/delta)))^2,
    the root in x = rho*T of eps = x + sqrt(4 x log(1/delta)); the same root
    estimates ma_max_iterations.
    """
    _check_steps(T)
    _check_budget(epsilon, delta)
    x = _ma_rate(epsilon, delta)
    if not x > 0.0:
        raise InfeasibleError(f"budget epsilon={epsilon!r} admits no positive rate at delta={delta!r}")
    return _check_finite(T / (2.0 * x), x)


@dataclass(frozen=True)
class RequiredVariance:
    """Noise variance and the order alpha whose closed-form conversion certifies it."""

    sigma_sq: float
    argmin_alpha: float


def required_variance(T: float, epsilon: float, delta: float) -> RequiredVariance:
    """Smallest unit-sensitivity variance whose accounted epsilon meets the budget.

    sigma^2 = T / (2 rho_T), where rho_T is the largest total rate whose
    closed-form accounted epsilon meets the budget: the maximum over orders
    alpha in (1, 1/delta] of gamma_alpha(eps) / alpha, where gamma_alpha
    inverts epsilon_bound in gamma.  gamma_alpha is the larger of the two
    pieces' inverses, and each is scanned over the orders on its own on an
    8-point grid: about 63 objective evaluations an answer.  Every positive
    budget is feasible.
    """
    _check_steps(T)
    _check_budget(epsilon, delta)
    rho_T, alpha = _largest_rate(epsilon, delta, "closed_form")
    # unit sensitivity: T steps at rho = 1/(2 sigma^2) add up to rho_T = T/(2 sigma^2)
    return RequiredVariance(_check_finite(T / (2.0 * rho_T) if rho_T > 0.0 else math.inf, rho_T), alpha)


@dataclass(frozen=True)
class CurvePoint:
    """One row of an epsilon-versus-T sweep."""

    T: float
    eps_ma: float
    eps_ours: float
    eps_ours_exact: Optional[float]
    gap: float


def privacy_curve(
    config: GaussianConfig,
    delta: float,
    T_values: Sequence[float] | Iterable[float],
    exact: bool = False,
) -> list[CurvePoint]:
    """Sweep epsilon over T for the baseline and this accountant.

    The closed-form column is always produced; exact=True adds the
    exact-mode column eps_ours_exact, which is None otherwise.
    gap = eps_ma - eps_ours.
    """
    _check_delta(delta)
    t_list = list(T_values)
    if not t_list:
        raise DomainError("T_values must be non-empty")
    rho = config.rho
    rows = []
    for T in t_list:
        ma = ma_epsilon(rho, T, delta)
        ours = acct_epsilon(rho, T, delta, "closed_form").epsilon
        exact_value = acct_epsilon(rho, T, delta, "exact").epsilon if exact else None
        rows.append(CurvePoint(T=T, eps_ma=ma, eps_ours=ours, eps_ours_exact=exact_value, gap=ma - ours))
    return rows
