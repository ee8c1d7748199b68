"""Privacy accounting for T-fold composition of Gaussian mechanisms.

sigma is the noise multiplier: for sensitivity Delta, pass sigma / Delta.
A Gaussian step satisfies (alpha, rho * alpha)-Renyi DP for every alpha > 1
with rate rho = 1 / (2 sigma^2); T-fold composition multiplies the rate by T.
Poisson-subsampled steps use the rate rho = q^2 / ((1-q) sigma^2).

The accountants take a per-step Renyi curve D: T steps satisfy
(alpha, T D(alpha))-Renyi DP at every order alpha the curve holds at.  A
float is the linear curve D(alpha) = rho alpha on (1, infinity), the rate
itself; a RenyiCurve holds at a finite set of orders, such as a mechanism's
divergences at integer orders.  GaussianConfig.curve is its mechanism's
curve, the one every caller passes on.  Everything below up to "On a finite
curve" is about the linear curve.

The moments-accountant baseline converts via delta = e^{-(alpha-1)(eps -
alpha rho T)}, whose optimized closed form is

    eps_ma = rho T + sqrt(4 rho T log(1/delta)).

The accountant here applies the conversion of the conversion module at
every order instead: epsilon = min over alpha in (1, 1/delta] of
convert(alpha, rho T alpha, delta), where convert is epsilon_bound in mode
"closed_form".  Its minimum over the orders is its moment piece's (the chi
piece's lies above it, as sampled), the crossing of that piece's slope in
log(alpha - 1) with 0, found by Newton steps; epsilon_bound itself, both
pieces included, is evaluated at that order and at alpha = 1/delta.
Mode "exact" converts through the numeric frontier
gamma_exact and solves the dual: the smallest epsilon at which
max over alpha of gamma_exact(alpha, epsilon, delta) / alpha reaches rho T,
by Newton steps from the closed-form answer.  Each step finds that maximum
by the same order solve, Newton steps on the rate's slope in log(alpha - 1)
from the order the step before won, the first from the closed-form argmin;
each frontier solve hands back the slopes both searches take (conversion._envelope).

On a finite curve there is no slope to step on, so one scan serves both
accountants: the minimum over the curve's orders of one conversion of
(alpha, T D(alpha)), epsilon_bound in closed-form mode, epsilon_exact in
exact mode and the baseline gamma + log(1/delta)/(alpha - 1) for the moments
accountant, skipping orders where T D(alpha) overflows.  The largest T
within a budget is estimated as the most steps any order allows, the
conversion inverted in gamma at that order over D(alpha), and checked like
the linear curve's.
"""

from __future__ import annotations

import bisect
import math
import sys
from typing import Iterable, NamedTuple, Optional, Sequence

from .conversion import (
    Branch,
    _envelope,
    _epsilon_bound,
    _epsilon_exact,
    _frontier,
    _gamma_of_epsilon_bound,
    _moment_epsilon_slopes,
    _moment_gamma_piece,
    baseline_epsilon,
)
from .errors import DomainError, InfeasibleError, _check_alpha, _check_nonnegative, _check_positive, _check_unit
from .optimize import DEFAULT_ABS_TOL, _newton_invert

MODES = ("closed_form", "exact")


def rho_gaussian(sigma: float) -> float:
    """Renyi rate 1 / (2 sigma^2) at noise multiplier sigma; for sensitivity Delta, pass sigma / Delta."""
    _check_positive(sigma, "sigma")
    return _rate(1.0, 2.0 * sigma * sigma, sigma)


def rho_subsampled(sigma: float, q: float) -> float:
    """Renyi rate q^2 / ((1-q) sigma^2) of a Poisson-subsampled Gaussian step.

    Valid in the small-q, moderate-alpha regime where the subsampled
    mechanism's Renyi curve is linear in alpha.  The accountant applies it at
    every order up to 1/delta, past that regime, so its answers can be
    optimistic: at sigma = 1, q = 0.01, T = 1, delta = 1e-5 it gives
    epsilon 0.0453, where the true one-step epsilon is 0.1995.
    """
    _check_positive(sigma, "sigma")
    _check_unit(q, "sampling rate q")
    return _rate(q * q, (1.0 - q) * sigma * sigma, sigma, q)


def _rate(numerator: float, denominator: float, sigma: float, q: Optional[float] = None) -> float:
    # a tiny finite sigma squares to 0.0, or to a subnormal whose reciprocal
    # overflows; a huge sigma squares to inf, and a tiny q to 0.0, where the rate underflows
    rate = numerator / denominator if denominator > 0.0 else math.inf
    if math.isinf(rate):
        raise DomainError(f"Renyi rate is not finite at sigma = {sigma!r}: {numerator!r} / {denominator!r}")
    if rate == 0.0:
        at = f"sigma = {sigma!r}" if q is None else f"sigma = {sigma!r}, q = {q!r}"
        raise DomainError(f"Renyi rate underflows to 0 at {at}: {numerator!r} / {denominator!r}")
    return rate


def _floats(values: Iterable[float], name: str) -> tuple[float, ...]:
    try:
        return tuple(map(float, values))
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{name} must be a sequence of real numbers") from None


class _RenyiCurve(NamedTuple):
    orders: tuple[float, ...]
    divergences: tuple[float, ...]


class RenyiCurve(_RenyiCurve):
    """A per-step Renyi curve known at finitely many orders.

    One step satisfies (alpha, D(alpha))-Renyi DP at each alpha in orders,
    with D(alpha) the divergence at the same position.  The orders are
    finite, > 1 and strictly increasing; the divergences are finite, >= 0
    and one per order.  The accountants take it wherever they take a rate.
    """

    __slots__ = ()

    def __new__(cls, orders: Iterable[float], divergences: Iterable[float]):
        orders, divergences = _floats(orders, "orders"), _floats(divergences, "divergences")
        if not orders or len(orders) != len(divergences):
            raise DomainError(
                f"a curve needs at least one order and one divergence per order, "
                f"got {len(orders)} orders and {len(divergences)} divergences"
            )
        for alpha, d in zip(orders, divergences):
            _check_alpha(alpha)
            _check_nonnegative(d, "divergence D(alpha)")
        for lo, hi in zip(orders, orders[1:]):
            if not lo < hi:
                raise DomainError(f"orders must be strictly increasing, got {lo!r} then {hi!r}")
        return super().__new__(cls, orders, divergences)

    @classmethod
    def _make(cls, iterable):  # _replace builds through here, so it validates too
        return cls(*iterable)


class _GaussianConfig(NamedTuple):
    sigma: float
    subsampling_q: Optional[float]


class GaussianConfig(_GaussianConfig):
    """Noise multiplier sigma (for sensitivity Delta, pass sigma / Delta), optional sampling rate q; rho is derived.

    With a sampling rate, rho is rho_subsampled's linear model, whose
    accounted epsilon can be optimistic (see there).  curve is what every
    accountant call takes; rho is the rate a record reports.
    """

    __slots__ = ()

    # q is keyword-only: a sensitivity passed by position, as in
    # GaussianConfig(4.0, 2.0), fails instead of reading as q
    def __new__(cls, sigma: float, *, subsampling_q: Optional[float] = None):
        self = super().__new__(cls, sigma, subsampling_q)
        self.rho  # rho_gaussian or rho_subsampled validates sigma and q
        return self

    @classmethod
    def _make(cls, iterable):  # _replace builds through here, so it validates too
        sigma, subsampling_q = iterable
        return cls(sigma, subsampling_q=subsampling_q)

    def __getnewargs_ex__(self):  # copy and pickle rebuild through __new__
        return (self.sigma,), {"subsampling_q": self.subsampling_q}

    @property
    def rho(self) -> float:
        if self.subsampling_q is not None:
            return rho_subsampled(self.sigma, self.subsampling_q)
        return rho_gaussian(self.sigma)

    @property
    def curve(self) -> float:
        """The per-step Renyi curve the accountants take: the linear curve at rate rho."""
        return self.rho


def ma_epsilon(curve: float | RenyiCurve, T: float, delta: float) -> float:
    """Moments-accountant epsilon: rho*T + sqrt(4*rho*T*log(1/delta)) at rate rho.

    This is the closed form of min over alpha > 1 of
    alpha*rho*T - log(delta)/(alpha - 1).  On a finite curve it is the
    minimum over its orders of the same conversion,
    T D(alpha) + log(1/delta)/(alpha - 1) (baseline_epsilon).
    """
    rho = _linear_rate(curve)
    _check_steps(T)
    _check_delta(delta)
    if rho is None:
        return _scan(curve, T, lambda a, g: (baseline_epsilon(a, g, delta), None))[0]
    s = rho * T
    big_l = math.log(1.0 / delta)
    # 4 s L overflows from s near DBL_MAX/(4 L) on, where the root, taken in two parts, is still finite
    root = math.sqrt(4.0 * s * big_l)
    if root == math.inf:
        root = math.sqrt(s) * math.sqrt(4.0 * big_l)
    return _check_finite(s + root, s)


def _linear_rate(curve: float | RenyiCurve) -> Optional[float]:
    # the one kind check of an accountant call: None for a finite curve, else the rate, validated
    if isinstance(curve, RenyiCurve):
        return None
    _check_positive(curve, "rho")
    return curve


def _check_steps(T: float) -> None:
    # compared, never converted: an integer T past DBL_MAX has no float form (nor, past 4 300 digits, a repr)
    if not T >= 1:
        raise DomainError(f"T must be >= 1, got {T!r}")
    if not T <= sys.float_info.max:
        raise DomainError(f"T must be at most DBL_MAX = {sys.float_info.max!r}, got a larger value")


def _check_finite(value: float, rho_T: float, name: str = "rho*T") -> float:
    # a total rate or an answer that overflowed; rho_T is the total rate behind it, by name.
    # acct_epsilon checks rho_T alone: its order scan keeps only finite values
    if not math.isfinite(value):
        raise DomainError(f"the accounting is not finite at {name} = {rho_T!r}")
    return value


def _variance(T: float, rho_T: float, name: str) -> float:
    # T steps at rho = 1/(2 sigma^2) add up to rho_T = T/(2 sigma^2).
    # The error names the variance, which overflows where the rate is tiny
    sigma_sq = 0.5 * T / rho_T if rho_T > 0.0 else math.inf  # 2 rho_T overflows near DBL_MAX
    if not math.isfinite(sigma_sq):
        raise DomainError(f"the {name} T / (2 rho*T) is not finite at T = {T!r}, rho*T = {rho_T!r}")
    return sigma_sq


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


class AccountedEpsilon(NamedTuple):
    """Composed epsilon with its minimizing order.

    active_branch is the epsilon_bound branch that wins at argmin_alpha in
    closed-form mode, and None in exact mode.
    """

    epsilon: float
    argmin_alpha: float
    active_branch: Optional[Branch]
    mode: str


# The lowest u = log(alpha - 1) an order solve searches.  1 + e^u rounds to
# 1 below u = log(2^-53) = -36.7, and just above it to 1 + 2^-52, the lowest
# float order above 1.  The moment piece, its slopes and its inverse in
# gamma stay within 1.3 ulps of 60-digit mpmath at the float order down to
# that lowest order (400 seeded points near the optimum, alpha - 1 from 2^-52
# to 3e-5), so the closed-form solves search down to it.  Exact mode's
# rate stops at alpha - 1 = 1e-6: see _exact_rate
_FLOAT_FLOOR = -36.5
_EXACT_FLOOR = math.log(1e-6)


def _order_range(delta: float, floor: float = _FLOAT_FLOOR) -> tuple[float, float]:
    # the range of u = log(alpha - 1) that the order scans search, alpha in
    # (1, 1/delta): in log(alpha - 1), orders near 1 and near 1/delta get
    # comparable resolution.  It starts at floor, or one unit below u_hi
    # where delta is so near 1 that that is lower, but never below
    # _FLOAT_FLOOR, which u_hi >= log(2^-52) = -36.04 stays above
    u_hi = math.log(1.0 / delta - 1.0)
    return max(min(floor, u_hi - 1.0), _FLOAT_FLOOR), u_hi


def _solve_orders(
    piece, objective, delta: float, start: float, tol: float = DEFAULT_ABS_TOL, floor: float = _FLOAT_FLOOR
) -> tuple[float, float]:
    # minimize over alpha in (1, 1/delta] an objective that below alpha =
    # 1/delta is at most piece, a function of u = log(alpha - 1) returning its
    # value and its first and second derivatives in u, or a positive multiple
    # of the slope with a curvature that gives the same Newton step at the
    # minimum (_rate_piece).  The piece's minimum is the crossing of its slope
    # with 0, found by _newton_invert's bracketed Newton steps from the order
    # start over _order_range from floor, to tol in u; the order of the smallest value
    # any step evaluated is compared with the end under objective, as in
    # _end_order.  A piece still falling at the top of the range loses to the
    # end, where each conversion's edge value is at most the piece's limit.
    # This is the one order solve: the closed-form moment pieces for an
    # epsilon and for a largest rate, and exact mode's rate -gamma_exact/alpha
    # (_exact_rate), where the piece is the objective itself.
    #
    # The crossing is the minimum when the piece is unimodal in u.  For the
    # moment piece of epsilon_bound at gamma = rho_T alpha this is proved.
    # Write L = log(1/delta); since
    # log zeta(alpha)/(alpha - 1) = log(1 - 1/alpha) - log(alpha)/(alpha - 1),
    #     eps_g(alpha) = rho_T alpha + log(1 - 1/alpha) + (L - log alpha)/(alpha - 1),
    #     d eps_g / d alpha = rho_T - (L - log alpha)/(alpha - 1)^2.
    # On (1, 1/delta) the numerator L - log alpha is positive and falls, and
    # (alpha - 1)^2 grows, so the slope increases strictly and eps_g is
    # convex in alpha; in u its curvature is positive as well (see
    # conversion._moment_epsilon_slopes), so its slope crosses 0 once.  The
    # argument needs only that the total rate, here rho_T alpha, is convex in
    # alpha.  The moment piece's largest rate and exact mode's rate have no
    # such proof; they are unimodal as sampled on random inputs over their
    # whole ranges, and tests/test_gaussian.py keeps sampling them, exact
    # mode's rate against a 256-order sample.  Where a piece's curvature is
    # not positive, the Newton step bisects instead
    u_lo, u_hi = _order_range(delta, floor)
    start = min(max(start, u_lo), u_hi)
    best, best_u = math.inf, start
    # float orders near 1 lie 2^-52 apart, so below alpha - 1 = 2^-51/tol two
    # of them span more than tol in u, and a Newton step may never get within
    # tol.  There a step within two float orders ends the search: the order it
    # would reach is within one of the order evaluated, where the piece, near
    # quadratic in alpha, differs by about 2^-52 relative at most
    u_coarse = math.log(2.0**-51 / tol)

    def slope(u: float) -> tuple[float, float]:
        nonlocal best, best_u
        value, first, second = piece(u)
        if value < best:
            best, best_u = value, u
        if u < u_coarse and abs(first) * math.exp(u) <= 2.0**-51 * second:
            return 0.0, second
        return first, second

    _newton_invert(slope, 0.0, u_lo, u_hi, tol, start=start)
    return _end_order(1.0 + math.exp(best_u), objective, delta)


def _epsilon_piece(rho_T: float, delta: float):
    # epsilon_bound's moment piece below alpha = 1/delta at gamma = rho_T alpha,
    # as a function of u = log(alpha - 1) returning value, slope and curvature.
    # The closed-form accountant solves this piece alone.  Below 1/delta
    # epsilon_bound is the smaller of it and the chi piece, but with
    # gamma = rho_T alpha the chi piece exceeds the (unclamped) moment piece by
    #     log(1 - (1 - alpha delta) e^{-(alpha - 1) gamma})/(alpha - 1) + log(alpha/(alpha - 1)),
    # which is positive wherever (alpha - 1) gamma is large: the chi piece can
    # dip below only where (alpha - 1) gamma is small, far from the
    # accountant's minimum.  That is an argument, not a proof; the chi
    # piece's minimum lies above this one's as sampled, and
    # tests/test_gaussian.py compares every answer with scans of both pieces.
    # The answer is epsilon_bound at the order found, both pieces included,
    # so were the claim to fail an answer would lose tightness, never soundness
    def piece(u: float) -> tuple[float, float, float]:
        alpha = 1.0 + math.exp(u)
        return _moment_epsilon_slopes(alpha, rho_T * alpha, delta)

    return piece


def _rate_piece(epsilon: float, delta: float):
    # the moment piece's negated largest rate -gamma_alpha(eps)/alpha, where
    # gamma_alpha inverts the piece in gamma at the order alpha = 1 + e^u,
    # with the epsilon piece's slope and curvature in u at gamma_alpha(eps).
    # Write Phi(u, x) for the epsilon piece at rate x and R(u) for the
    # largest rate, Phi(u, R(u)) = eps.  Then R' = -Phi_u/Phi_x with
    # Phi_x > 0, so Phi_u has the sign of the negated rate's slope; and where
    # R' = 0, R'' = -Phi_uu/Phi_x, so there Phi_u/Phi_uu is its Newton step,
    # all that _newton_invert uses.  The chi piece's rate is never the larger
    # at the maximum, as sampled, for the reason given at _epsilon_piece
    def piece(u: float) -> tuple[float, float, float]:
        alpha = 1.0 + math.exp(u)
        gamma = _moment_gamma_piece(alpha, epsilon, delta)
        _, first, second = _moment_epsilon_slopes(alpha, gamma, delta)
        return -gamma / alpha, first, second

    return piece


def _end_order(alpha: float, objective, delta: float) -> tuple[float, float]:
    # the order alpha or the end alpha = 1/delta, whichever objective puts
    # lower.  Where 1/delta rounds down, so that alpha delta < 1, the end moves
    # up one float, where the conversions take their alpha delta >= 1 edge values
    alpha_end = 1.0 / delta
    if alpha_end * delta < 1.0 and math.nextafter(alpha_end, math.inf) < math.inf:
        alpha_end = math.nextafter(alpha_end, math.inf)  # 1/delta rounded down
    value, v_end = objective(alpha), objective(alpha_end)
    return (alpha_end, v_end) if v_end < value else (alpha, value)


def _scan(curve: RenyiCurve, T: float, convert) -> tuple[float, Optional[Branch], float]:
    # the smallest value of convert(alpha, T D(alpha)), a (value, branch) pair,
    # over a finite curve's orders, with its branch and its order (the lowest
    # on a tie).  An order whose T D(alpha) overflows is skipped; if every one
    # does, the accounting is not finite
    best = (math.inf, None, math.inf)
    for alpha, d in zip(curve.orders, curve.divergences):
        gamma = T * d
        if gamma < math.inf:
            value, branch = convert(alpha, gamma)
            if value < best[0]:
                best = (value, branch, alpha)
    _check_finite(best[0], math.inf, "T*D(alpha)")
    return best


def _most_steps(curve: RenyiCurve, gamma_at) -> float:
    # the most steps any order of a finite curve allows, gamma_at(alpha)/D(alpha),
    # where gamma_at inverts a conversion in gamma at the budget.  An order with
    # D(alpha) = 0 allows any number if its conversion of 0 meets the budget, none otherwise
    steps = -math.inf
    for alpha, d in zip(curve.orders, curve.divergences):
        gamma = gamma_at(alpha)
        steps = max(steps, gamma / d if d > 0.0 else math.copysign(math.inf, gamma))
    return steps


def acct_epsilon(curve: float | RenyiCurve, T: float, delta: float, mode: str = "closed_form") -> AccountedEpsilon:
    """Epsilon after T compositions on a per-step curve, via the conversion frontier.

    On a finite curve (RenyiCurve) the answer is the minimum over its orders
    of epsilon_bound(alpha, T D(alpha), delta) in closed-form mode and of
    epsilon_exact in exact mode, with the order attaining it; orders where
    T D(alpha) overflows are skipped.  An order at or above 1/delta takes
    the conversions' alpha delta >= 1 edge value.  The rest is about a
    float rate rho, the linear curve.

    The T-fold composition satisfies (alpha, rho T alpha)-Renyi DP at every
    order, so epsilon is the minimum over alpha in (1, 1/delta] of the
    conversion of that guarantee.  Closed-form mode minimizes
    epsilon_bound(alpha, rho T alpha, delta), which below alpha = 1/delta is
    the smaller of its moment and chi pieces.  The chi piece's minimum lies
    above the moment piece's (as sampled), so only the moment piece is
    solved: its minimum over the orders is the crossing of its slope in
    u = log(alpha - 1) with 0 (it is convex in alpha), found by bracketed
    Newton steps from the moments accountant's order with the piece's slope
    and curvature in closed form, to DEFAULT_ABS_TOL in u; epsilon_bound,
    both pieces included, is evaluated at that order and at alpha = 1/delta.
    About 4 piece evaluations an answer.

    Exact mode computes the same minimum for epsilon_exact through its dual:
    the smallest epsilon at which gamma_exact(alpha, epsilon, delta) reaches
    rho T alpha at some order.  Each step maximizes gamma_exact / alpha over
    the orders, and the step itself is Newton's, with the slope in epsilon
    from the envelope theorem at the winning order and p, read off that
    order's frontier solve.  The maximum is the crossing of the rate's slope
    in log(alpha - 1) with 0, found by bracketed Newton steps (to 1e-6, each
    frontier solve to 1e-10) with the slope and curvature from the envelope
    and implicit-function theorems at the frontier's argmin, from the order
    the step before won (the closed-form argmin for the first step), then
    compared with alpha = 1/delta.  A margin at any order certifies epsilon, so a solve
    that misses the maximum costs tightness, not soundness.  The steps start
    at the closed-form answer, so exact mode is never worse than closed-form
    mode, and end, usually after two or three order solves of one to four
    frontier solves each (about 5 an answer), at the last epsilon gamma_exact
    certified, within 1e-10 of the crossing, with the order that met the
    budget there, or, where it certified none, at the closed-form answer and order.
    """
    rho = _linear_rate(curve)
    _check_steps(T)
    _check_delta(delta)
    _check_mode(mode)
    if rho is None:
        if mode == "closed_form":
            convert = lambda a, g: _epsilon_bound(a, g, delta)
        else:
            convert = lambda a, g: (_epsilon_exact(a, g, delta), None)
        eps, branch, alpha = _scan(curve, T, convert)
        return AccountedEpsilon(eps, alpha, branch, mode)
    rho_T = rho * T
    _check_finite(rho_T, rho_T)
    bound = lambda a: _epsilon_bound(a, rho_T * a, delta)
    # the solve starts at the moments accountant's order, alpha - 1 = sqrt(L / rho_T)
    start = 0.5 * (math.log(-math.log(delta)) - math.log(rho_T))
    a_closed, _ = _solve_orders(_epsilon_piece(rho_T, delta), lambda a: bound(a)[0], delta, start)
    eps_closed, branch = bound(a_closed)
    if mode == "closed_form":
        return AccountedEpsilon(eps_closed, a_closed, branch, mode)

    centre = a_closed  # the order the last scan won, around which the next one looks
    certified = a_closed  # the order of the last margin >= 0, whose epsilon the search returns

    def margin(eps: float) -> tuple[float, float]:
        # gamma_exact - rho_T alpha at the order alpha maximizing gamma_exact / alpha,
        # and its slope in eps by the envelope theorem.  Its sign is that of
        # g(eps) - rho_T for the dual g = max over orders of gamma_exact / alpha,
        # its Newton step is g's, and a margin >= 0 certifies eps at alpha
        nonlocal centre, certified
        alpha, gamma, slopes = _exact_rate(eps, delta, centre)
        centre = alpha
        value = gamma - rho_T * alpha
        if value >= 0.0:
            certified = alpha
        return value, slopes[0]

    eps = _newton_invert(margin, 0.0, 0.0, eps_closed, DEFAULT_ABS_TOL)
    return AccountedEpsilon(eps, certified, None, mode)


def _exact_rate(epsilon: float, delta: float, centre: float) -> tuple[float, float, tuple]:
    # the order maximizing gamma_exact(alpha, eps, delta) / alpha, solved from
    # the order centre, with the frontier value and its _envelope there, one
    # frontier solve per order visited.  Any order gives a sound rate, so the solve costs
    # only tightness if it misses the maximum.  The piece is f = -gamma/alpha in
    # u = log(alpha - 1): with a = alpha - 1, c = a/alpha and gamma_u = a gamma',
    # gamma_uu = a gamma' + a^2 gamma'' from the frontier's order slopes,
    #     f' = (gamma c - gamma_u)/alpha,
    #     f'' = -c (a gamma'') + (gamma_u (2c - 1) + gamma c (1 - a)/alpha)/alpha,
    # in ratios that stay bounded at every order (gamma/alpha^3 overflows at
    # alpha = 1/delta for delta below about 2e-103).  The solve stops at 1e-6
    # in u rather than DEFAULT_ABS_TOL's 1e-10: the slope carries
    # gamma_exact's rounding, which the curvature divides into steps of about
    # 1e-9 near the maximum, where the rate is flat to rounding within 1e-5.
    # It searches no order below alpha - 1 = 1e-6 (_EXACT_FLOOR): nearer 1,
    # gamma_exact is rounding noise wherever gamma (alpha - 1) nears 1e-16
    solves: dict[float, tuple[float, tuple]] = {}

    def solve(alpha: float) -> tuple[float, tuple]:
        if alpha not in solves:  # _end_order evaluates the winning order a second time
            gamma, state = _frontier(alpha, epsilon, delta)
            solves[alpha] = gamma, _envelope(alpha, epsilon, delta, state)
        return solves[alpha]

    def neg_rate(alpha: float) -> float:
        return -solve(alpha)[0] / alpha

    def piece(u: float) -> tuple[float, float, float]:
        alpha = 1.0 + math.exp(u)
        a = alpha - 1.0
        gamma, (_, _, slope, curvature) = solve(alpha)
        c, gamma_u = a / alpha, a * slope
        first = (gamma * c - gamma_u) / alpha
        second = -c * (a * curvature) + (gamma_u * (2.0 * c - 1.0) + gamma * c * (1.0 - a) / alpha) / alpha
        return -gamma / alpha, first, second

    alpha, _ = _solve_orders(piece, neg_rate, delta, math.log(centre - 1.0), 1e-6, _EXACT_FLOOR)
    return (alpha, *solves[alpha])


def _largest_rate(epsilon: float, delta: float, mode: str) -> tuple[float, float]:
    # the largest rho*T whose accounted epsilon meets the budget, and the order
    # attaining it.  Each conversion increases with gamma, so the budget is met
    # exactly when rho*T*alpha <= gamma_alpha(eps) at some order, where
    # gamma_alpha inverts the conversion at that order.  Below alpha = 1/delta
    # the closed-form gamma_alpha is the larger of the two pieces' inverses.
    # The moment piece's attains the maximum over orders, as sampled, so only
    # its rate is solved, by Newton steps on the moment epsilon piece's slope
    # at gamma_alpha(eps) (_rate_piece), and the full gamma_alpha is compared
    # at that order and at 1/delta.  The solve starts at the moments
    # accountant's order for its largest rate
    # x = (sqrt(eps + L) - sqrt(L))^2, alpha - 1 = sqrt(L / x), in logs, which
    # underflow nowhere; but no higher than half a unit below the end, since
    # at large orders the moment piece's rate peaks where
    # L - log(alpha) = (1 + (alpha - 1) eps)/2 >= 1/2 (a start at the end
    # costs 0.03 evaluations more a required_variance answer).  Exact mode then
    # solves for the order maximizing gamma_exact/alpha from the closed-form order
    big_l = -math.log(delta)
    log_x = 2.0 * (math.log(epsilon) - math.log(math.sqrt(epsilon + big_l) + math.sqrt(big_l)))
    start = min(0.5 * (math.log(big_l) - log_x), _order_range(delta)[1] - 0.5)
    neg_rate = lambda a: -_gamma_of_epsilon_bound(a, epsilon, delta) / a
    alpha, value = _solve_orders(_rate_piece(epsilon, delta), neg_rate, delta, start)
    if mode == "closed_form":
        return -value, alpha
    alpha, gamma, _ = _exact_rate(epsilon, delta, alpha)
    return gamma / alpha, alpha


def max_iterations(curve: float | RenyiCurve, epsilon: float, delta: float, mode: str = "closed_form") -> int:
    """Largest integer T whose accounted epsilon stays within the budget.

    The largest total rate rho*T that meets the budget, a maximum over orders
    of the inverse conversion, estimates T.  On a finite curve the estimate
    is the maximum over its orders of the closed-form inverse
    gamma_alpha(eps)/D(alpha), in either mode.  acct_epsilon in the given mode
    then checks the integers around the estimate, so the answer satisfies
    acct_epsilon(T) <= epsilon < acct_epsilon(T + 1).
    """
    _check_budget(epsilon, delta)
    rho = _linear_rate(curve)
    _check_mode(mode)
    if rho is None:
        steps = _most_steps(curve, lambda a: _gamma_of_epsilon_bound(a, epsilon, delta))
    else:
        steps = _largest_rate(epsilon, delta, mode)[0] / rho
    return _largest_T(lambda T: acct_epsilon(curve, T, delta, mode).epsilon, epsilon, steps)


def ma_max_iterations(curve: float | RenyiCurve, epsilon: float, delta: float) -> int:
    """Largest integer T whose moments-accountant epsilon stays within the budget.

    Estimated from the root of ma_epsilon in rho*T, or on a finite curve from
    the maximum over its orders of (eps - log(1/delta)/(alpha - 1))/D(alpha),
    then checked like max_iterations.
    """
    _check_budget(epsilon, delta)
    rho = _linear_rate(curve)
    if rho is None:
        steps = _most_steps(curve, lambda a: epsilon + math.log(delta) / (a - 1.0))
    else:
        steps = _ma_rate(epsilon, delta) / rho
    return _largest_T(lambda T: ma_epsilon(curve, T, delta), epsilon, steps)


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
    # the root x = rho*T of x + sqrt(4 x log(1/delta)) = eps, (sqrt(eps + L) -
    # sqrt(L))^2 with L = log(1/delta), rationalised so that no two close
    # square roots cancel when eps << L.  It underflows to 0 only where eps^2
    # does, below about 1e-160.  The root is below eps, so its square
    # overflows only by rounding, next to DBL_MAX
    big_l = math.log(1.0 / delta)
    try:
        return (epsilon / (math.sqrt(epsilon + big_l) + math.sqrt(big_l))) ** 2
    except OverflowError:
        return sys.float_info.max


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
    return _variance(T, x, "moments-accountant variance")


class RequiredVariance(NamedTuple):
    """Noise variance and the order alpha whose closed-form conversion certifies it."""

    sigma_sq: float
    argmin_alpha: float


def required_variance(T: float, epsilon: float, delta: float) -> RequiredVariance:
    """Smallest noise-multiplier variance sigma^2 whose accounted epsilon meets the budget.

    sigma^2 = T / (2 rho_T), where rho_T is the largest total rate whose
    closed-form accounted epsilon meets the budget: the maximum over orders
    alpha in (1, 1/delta] of gamma_alpha(eps) / alpha, where gamma_alpha
    inverts epsilon_bound in gamma.  gamma_alpha is the larger of the two
    pieces' inverses, and the moment piece's inverse attains the maximum
    (as sampled), so only its maximum over the orders is solved, by Newton
    steps in log(alpha - 1) on the slope and curvature of the moment
    epsilon piece at gamma_alpha(eps), the formula acct_epsilon steps on:
    that slope has the sign of the rate's, and at the maximum gives its
    Newton step.  The full gamma_alpha is then taken at that order and at
    alpha = 1/delta.  About 5 piece evaluations an answer.  Every positive
    budget is feasible.
    """
    _check_steps(T)
    _check_budget(epsilon, delta)
    rho_T, alpha = _largest_rate(epsilon, delta, "closed_form")
    return RequiredVariance(_variance(T, rho_T, "variance"), alpha)


class CurvePoint(NamedTuple):
    """One row of an epsilon-versus-T sweep; its fields, in order, are rdpopt curve's columns."""

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
    curve = config.curve
    rows = []
    for T in t_list:
        ma = ma_epsilon(curve, T, delta)
        ours = acct_epsilon(curve, T, delta, "closed_form").epsilon
        exact_value = acct_epsilon(curve, T, delta, "exact").epsilon if exact else None
        rows.append(CurvePoint(T=T, eps_ma=ma, eps_ours=ours, eps_ours_exact=exact_value, gap=ma - ours))
    return rows
