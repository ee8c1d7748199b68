"""Conversions between Renyi-divergence guarantees and approximate DP.

The exact frontier is the map

    gamma(alpha, eps, delta) = eps + (1/(alpha-1)) * min_{p in (delta, 1)}
        log( p^alpha (p - delta)^(1-alpha)
             + (1-p)^alpha (e^eps - p + delta)^(1-alpha) ),

the smallest order-alpha Renyi divergence among pairs of distributions
whose hockey-stick divergence at lam = e^eps is at least delta.  A
mechanism with Renyi guarantee (alpha, gamma) satisfies (eps, delta)-DP
exactly when gamma <= gamma(alpha, eps, delta), so inverting the frontier
in delta or eps yields the optimal conversions in both directions.

Closed-form companions: a lower bound on the frontier that is exact when
alpha * delta >= 1 (equivalently, upper bounds on the converted delta and
eps), the classical Markov-style baseline delta = e^{-(alpha-1)(eps-gamma)},
and the slightly looser conversion of Balle et al. (arXiv:1905.09982,
Thm 21) for comparison.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Literal, NamedTuple, Optional

from .errors import DomainError, InfeasibleError, _check_alpha, _check_nonnegative
from .errors import _check_alpha_eps_delta, _check_alpha_gamma_delta, _check_alpha_gamma_eps
from .optimize import DEFAULT_ABS_TOL, _newton_invert, log_add

_LOG_TINY = math.log(math.ulp(0.0))  # the smallest t with e^t > 0

Method = Literal["exact_numeric", "closed_form_bound"]
Branch = Literal["alpha_delta_ge_1", "g_bound", "f_bound", "chi_bound"]

class ConversionResult(NamedTuple):
    """Converted value plus how it was obtained.

    argmin_p is the interior minimizer of the frontier objective when the
    numeric search won (None when the p -> 1 boundary value is optimal or
    no search ran).  active_branch names the winning closed-form piece.
    """

    value: float
    method: Method
    argmin_p: Optional[float] = None
    active_branch: Optional[Branch] = None


def log_zeta(alpha: float) -> float:
    """log zeta(alpha), assembled from log1p for stability at large alpha.

    zeta(alpha) = (1/alpha) * (1 - 1/alpha)^(alpha - 1) lies in
    (1/(e*alpha), 1/alpha).
    """
    _check_alpha(alpha)
    return _log_zeta(alpha)


def _log_zeta(alpha: float) -> float:
    return (alpha - 1.0) * math.log1p(-1.0 / alpha) - math.log(alpha)


def boundary_objective(p: float, alpha: float, epsilon: float, delta: float) -> float:
    """Log of the two-atom tradeoff term whose minimum over p gives the frontier.

    Computed entirely in log domain, as a function of log(p - delta);
    requires delta < p < 1.
    """
    _check_alpha_eps_delta(alpha, epsilon, delta)
    if not (delta < p < 1.0):
        raise DomainError(f"p must lie in (delta, 1) = ({delta!r}, 1), got {p!r}")
    return _objective(alpha, epsilon, delta)(math.log(p - delta))


def _objective(alpha: float, epsilon: float, delta: float) -> Callable[..., float | tuple[float, float, float]]:
    # boundary_objective at t = log(p - delta), for arguments already checked:
    # a search builds it once and evaluates it hundreds of times.  The head
    # atom's log is alpha log(p) + (1 - alpha) t, the tail atom's
    # tail = alpha log(1 - p) + (1 - alpha) log_rest with
    # log_rest = log(e^eps - p + delta), and the objective is their log-sum.
    # With s = e^t, log(p) = t + log1p(delta/s), so that no two large terms
    # cancel at tiny delta; log(1 - p) = log(1 - delta) + log1p(-s/(1 - delta)),
    # which stays finite for every s < 1 - delta; log_rest = eps + log1p(-s e^-eps).
    # With parts=True it returns (objective, tail, log_rest): e^(tail -
    # objective) is the tail's share of the objective, which the envelope
    # slopes weigh
    exp, log1p = math.exp, math.log1p
    one_minus_alpha = 1.0 - alpha
    exp_neg_eps = exp(-epsilon)
    log_keep = log1p(-delta)
    keep = 1.0 - delta

    def objective(t: float, parts: bool = False):
        s = exp(t)
        head = t + alpha * log1p(delta / s) if s > 0.0 else math.inf
        log_rest = epsilon + log1p(-s * exp_neg_eps)
        share = s / keep
        # at s = 1 - delta the tail atom (1 - p)^alpha vanishes
        tail = alpha * (log_keep + log1p(-share)) + one_minus_alpha * log_rest if share < 1.0 else -math.inf
        # log_add(head, tail), inlined on this hot path; tail may be -inf, head +inf
        big, small = (head, tail) if head >= tail else (tail, head)
        value = big + log1p(exp(small - big))
        return (value, tail, log_rest) if parts else value

    return objective


def gamma_exact(alpha: float, epsilon: float, delta: float) -> ConversionResult:
    """Exact frontier value gamma(alpha, eps, delta) by numeric minimization.

    The interior search runs over t = log(p - delta), which resolves the
    minimizer relative to its distance from delta however small delta is,
    and stops at DEFAULT_ABS_TOL (1e-10) in t.  The objective F is unimodal
    in t with its minimizer between p = alpha * delta and p = 1, so Newton's
    steps from p = alpha * delta find the root of dF/dt there, with
    bisection wherever a step would leave the bracket: 1 to about 45
    objective evaluations a solve, 14 on average over orders up to 300 and
    deltas down to 1e-30.  The value is the smallest F evaluated; for
    1e-12 <= alpha - 1 < 1 each F is taken exact to rounding relative to
    itself, since gamma = eps + F/(alpha - 1) divides F's rounding by
    alpha - 1 (see _objective_near_one).  The interior minimum is compared
    against the p -> 1 boundary value eps - log(1 - delta), which is the
    true infimum whenever alpha * delta >= 1; no search runs there.
    """
    _check_alpha_eps_delta(alpha, epsilon, delta)
    if delta == 0.0:
        return ConversionResult(0.0, "exact_numeric")
    edge = ConversionResult(max(epsilon - math.log1p(-delta), 0.0), "exact_numeric")
    if alpha * delta >= 1.0:
        return edge
    # the objective is log S(p), with
    # S(p) = p^alpha (p - delta)^(1-alpha) + (1-p)^alpha (e^eps - p + delta)^(1-alpha).
    # For alpha > 1 each term is the perspective y (x/y)^alpha of the convex
    # map x -> x^alpha at an (x, y) affine in p, so each term, and S, is
    # convex in p on (delta, 1), and log S is unimodal, in p and in t.  Its
    # slope in t is negative at p = alpha * delta, where the head atom is
    # stationary and the tail atom falls, and 1 - alpha delta > 0 at p = 1,
    # where the tail atom vanishes; so the minimizer lies between, and the
    # slope crosses 0 there once.  Below t = log(5e-324) every p - delta
    # rounds to 0 and the objective to +inf, so the bracket starts no lower;
    # where its two ends round together it starts one unit of t lower
    t_hi = math.log1p(-delta)
    t_lo = max(math.log(alpha - 1.0) + math.log(delta), _LOG_TINY)
    if not t_lo < t_hi:
        t_lo = t_hi - 1.0
    slopes = _objective_slopes(alpha, epsilon, delta)
    m_interior, t = math.inf, t_hi
    near_one = alpha < 2.0  # where _objective_near_one can change a value

    def slope(x: float) -> tuple[float, float]:
        nonlocal m_interior, t
        value, first, second = slopes(x)
        if near_one:
            value = _objective_near_one(alpha, epsilon, delta, x, value)
        if value < m_interior:
            m_interior, t = value, x
        return first, second

    _newton_invert(slope, 0.0, t_lo, t_hi, DEFAULT_ABS_TOL, start=t_lo)
    if (1.0 - alpha) * t_hi < m_interior:  # a tie reports the interior point
        return edge
    value = epsilon + m_interior / (alpha - 1.0)
    # p = delta + e^t, kept inside (delta, 1) where the sum rounds onto an end
    argmin_p = min(max(delta + math.exp(t), math.nextafter(delta, 1.0)), math.nextafter(1.0, 0.0))
    return ConversionResult(max(value, 0.0), "exact_numeric", argmin_p=argmin_p)


def _objective_near_one(alpha: float, epsilon: float, delta: float, t: float, value: float) -> float:
    # the objective at t, given as value, the log-sum of _objective, made exact
    # to rounding relative to itself for 1e-12 <= alpha - 1 < 1.  The log-sum
    # rounds to about 1e-16 absolute, which gamma = eps + m/(alpha - 1) divides
    # by alpha - 1, so that near alpha = 1 gamma would wiggle by far more than
    # its own rounding.  Both atoms' logs are linear in alpha: with
    # a = alpha - 1, head = log p + a H and tail = log(1 - p) + a T, where
    # H = log1p(delta/s) is at most log1p(1/a) on the search's range and
    # T = log((1 - p)/(e^eps - s)) < 0.  So the objective is log1p(X),
    # X = p expm1(a H) + (1 - p) expm1(a T), whose two terms lie in [0, 1) and
    # (-1, 0], and X keeps its digits as a -> 0.  Where X <= -1/2 the
    # objective is at least log 2 in size, and value is as good.  Below
    # a = 1e-12 the objective's slope in t, of size a, is lost in its own
    # rounding, so no search places the argmin; value stays, noise as it is
    a = alpha - 1.0
    if not 1e-12 <= a < 1.0:
        return value
    s = math.exp(t)
    keep = 1.0 - delta
    x = (delta + s) * math.expm1(a * math.log1p(delta / s))
    if s < keep:  # at s = 1 - delta the tail atom vanishes
        t_alpha = math.log1p(-delta) + math.log1p(-s / keep) - epsilon - math.log1p(-s * math.exp(-epsilon))
        x += (keep - s) * math.expm1(a * t_alpha)
    return math.log1p(x) if x > -0.5 else value


def _objective_slopes(alpha: float, epsilon: float, delta: float) -> Callable[[float], tuple[float, ...]]:
    # the objective F of _objective at t, with dF/dt and d2F/dt2, from its
    # parts in ratios bounded by the search range.  With s = e^t, p = delta + s,
    # r = s/p and q = delta/p, the head atom's log has slope
    # a = 1 - alpha q = r - (alpha - 1) q and curvature alpha r q.  r and q
    # are the logistic of t - log(delta), exact to rounding however small
    # delta and s are, and a in its second form keeps its digits as alpha
    # approaches 1.  With u = s/(1 - delta - s) and v = s/(e^eps - s) =
    # z/(1 - z), z = s e^-eps, the tail atom's log has slope
    # b = (alpha - 1) v - alpha u and curvature b + (alpha - 1) v^2 - alpha u^2.
    # With the tail's share w, F' = a + w (b - a) and
    # F'' = (1 - w) alpha r q + w (b + (alpha - 1) v^2 - alpha u^2) + w (1 - w) (a - b)^2.
    # A vanished tail (w = 0) adds nothing.
    #
    # With orders=True it also returns F's derivatives in alpha at t.  Both
    # atoms' logs are linear in alpha, with slopes H = log1p(delta/s) = -log r
    # and T = log(1 - p) - log_rest = (tail - log_rest)/alpha, so with
    # d = T - H, F_alpha = H + w d and F_alpha_alpha = w (1 - w) d^2; and
    # H_t = -q, T_t = v - u and w_t = w (1 - w)(b - a) give
    # F_alpha_t = -q (1 - w) + w (v - u) + w (1 - w) d (b - a)
    exp = math.exp
    objective = _objective(alpha, epsilon, delta)
    exp_neg_eps = exp(-epsilon)
    keep = 1.0 - delta
    log_delta = math.log(delta)

    def slopes(t: float, orders: bool = False) -> tuple[float, ...]:
        value, tail, log_rest = objective(t, parts=True)
        x = t - log_delta
        e = exp(-abs(x))
        k = 1.0 / (1.0 + e)
        r, q = (k, e * k) if x >= 0.0 else (e * k, k)
        a = r - (alpha - 1.0) * q
        first, second = a, alpha * r * q
        w = exp(tail - value)
        if w > 0.0:
            s = exp(t)
            z = s * exp_neg_eps
            u, v = s / (keep - s), z / (1.0 - z)
            b = (alpha - 1.0) * v - alpha * u
            gap = b - a
            first += w * gap
            second = (1.0 - w) * second + w * (b + (alpha - 1.0) * v * v - alpha * u * u) + w * (1.0 - w) * gap * gap
        if not orders:
            return value, first, second
        h = -math.log(r)
        if not w > 0.0:
            return value, first, second, h, -q, 0.0
        d = (tail - log_rest) / alpha - h
        mix = w * (1.0 - w) * d
        return value, first, second, h + w * d, -q * (1.0 - w) + w * (v - u) + mix * gap, mix * d

    return slopes


def _f_lower_bound(alpha: float, epsilon: float, delta: float) -> tuple[float, float]:
    """Tangent-at-zero lower bound on the frontier, valid for alpha*delta < 1, and its slope in delta.

    f = eps + (1/(alpha-1)) * log(S),
    S = (e^eps - alpha*delta) * ((1-delta)/(e^eps - delta))^alpha + alpha*delta.
    """
    # with lead = log of the first term of S, dS/ddelta = alpha (1 - c e^lead),
    # c = 1/(1 - delta) + (alpha-1) delta / ((e^eps - delta)(e^eps - alpha delta));
    # 1/S is capped where it would overflow (S < e^-709, only at tiny delta)
    ad = alpha * delta
    log_rest = epsilon + math.log1p(-delta * math.exp(-epsilon))  # log(e^eps - delta)
    log_lead = epsilon + math.log1p(-ad * math.exp(-epsilon))  # log(e^eps - alpha delta)
    lead = log_lead + alpha * (math.log1p(-delta) - log_rest)
    inner = log_add(lead, math.log(ad)) if ad > 0.0 else lead
    c = 1.0 / (1.0 - delta) + (alpha - 1.0) * delta * math.exp(-log_rest - log_lead)
    slope = alpha / (alpha - 1.0) * (math.exp(min(-inner, 709.0)) - c * math.exp(lead - inner))
    value = epsilon + inner / (alpha - 1.0) if ad > 0.0 else 0.0
    return value, min(slope, sys.float_info.max)


def gamma_bound(alpha: float, epsilon: float, delta: float) -> ConversionResult:
    """Closed-form lower bound on the frontier; exact when alpha*delta >= 1.

    For alpha*delta < 1 it is the larger of the moment-based piece
    g = eps - (1/(alpha-1)) log(zeta(alpha)/delta) and the tangent piece f.
    """
    _check_alpha_eps_delta(alpha, epsilon, delta)
    if delta == 0.0:
        return ConversionResult(0.0, "closed_form_bound")
    if alpha * delta >= 1.0:
        value = epsilon - math.log1p(-delta)
        return ConversionResult(value, "closed_form_bound", active_branch="alpha_delta_ge_1")
    g = _moment_gamma_piece(alpha, epsilon, delta)
    f = _f_lower_bound(alpha, epsilon, delta)[0]
    if g >= f:
        return ConversionResult(g, "closed_form_bound", active_branch="g_bound")
    return ConversionResult(f, "closed_form_bound", active_branch="f_bound")


def delta_exact(alpha: float, gamma: float, epsilon: float) -> ConversionResult:
    """Smallest delta such that (alpha, gamma) implies (epsilon, delta)-DP.

    Inverts the frontier, which is continuous and increasing in delta, by
    Newton steps that start at the closed-form upper bound delta_bound and
    take the slope in delta from the envelope theorem at the frontier's
    argmin p, falling back to bisection on [0, bound].  Returns the bound
    itself when the frontier there falls short of gamma by rounding, so the
    answer never exceeds delta_bound; raises InfeasibleError when the
    frontier at 1 - 1e-12 does not reach gamma.  Each frontier solve is
    gamma_exact's default search, and delta is found to within
    DEFAULT_ABS_TOL relative to the bound, so small deltas keep
    their digits.
    """
    _check_alpha_gamma_eps(alpha, gamma, epsilon)
    if gamma == 0.0:
        return ConversionResult(0.0, "exact_numeric")
    top = 1.0 - 1e-12

    def frontier(d: float) -> tuple[float, float]:
        r = gamma_exact(alpha, epsilon, d)
        return r.value, _gamma_delta_slope(alpha, epsilon, d, r.argmin_p)

    hi = min(delta_bound(alpha, gamma, epsilon).value, top)
    d = _newton_invert(frontier, gamma, 0.0, hi, DEFAULT_ABS_TOL * hi)
    if d == top:
        gamma_top = gamma_exact(alpha, epsilon, top).value
        if gamma_top < gamma:
            raise InfeasibleError(
                f"no delta < 1 reaches gamma={gamma!r} at eps={epsilon!r} "
                f"(frontier tops out near {gamma_top!r})"
            )
    return ConversionResult(d, "exact_numeric")


def delta_bound(alpha: float, gamma: float, epsilon: float) -> ConversionResult:
    """Closed-form upper bound on the optimal delta; exact when it is >= 1/alpha.

    Inverts each closed-form frontier piece separately and takes the best:
    the moment piece inverts to zeta(alpha) * e^{-(alpha-1)(eps-gamma)},
    the tangent piece by Newton steps on [0, 1/alpha) with its closed-form
    slope, to DEFAULT_ABS_TOL.  For gamma > 0 a delta that underflows to 0
    is reported as the smallest positive float.
    """
    _check_alpha_gamma_eps(alpha, gamma, epsilon)
    # 1 - e^(eps - gamma), which can reach 1/alpha only when eps < gamma; the
    # exponent is capped at 0 so that a large eps - gamma does not overflow
    d_closed = -math.expm1(min(epsilon - gamma, 0.0))
    if d_closed >= 1.0 / alpha:
        return ConversionResult(d_closed, "closed_form_bound", active_branch="alpha_delta_ge_1")
    d_g = math.exp(_log_zeta(alpha) - (alpha - 1.0) * (epsilon - gamma))
    cap = (1.0 / alpha) * (1.0 - 1e-12)
    if gamma <= _f_lower_bound(alpha, epsilon, cap)[0]:
        # the tangent piece is 0 at delta = 0 and gamma >= 0, so gamma lies
        # in the range the piece attains on [0, cap]
        d_f = _newton_invert(lambda t: _f_lower_bound(alpha, epsilon, t), gamma, 0.0, cap, DEFAULT_ABS_TOL)
    else:
        # the tangent piece stays below gamma on its whole domain; it only
        # certifies delta <= 1/alpha, which the moment piece already beats
        d_f = 1.0 / alpha
    value = min(d_g, d_f)
    branch: Branch = "g_bound" if d_g <= d_f else "f_bound"
    value = _no_false_zero(min(value, 1.0 - 1e-15), gamma)
    return ConversionResult(value, "closed_form_bound", active_branch=branch)


def _no_false_zero(delta: float, gamma: float) -> float:
    # a delta of 0 claims pure DP, which no gamma > 0 gives: such a 0 is an
    # underflow, and the true value lies below the smallest positive float
    return math.ulp(0.0) if delta == 0.0 and gamma > 0.0 else delta


def epsilon_exact(alpha: float, gamma: float, delta: float) -> ConversionResult:
    """Smallest epsilon such that (alpha, gamma) implies (epsilon, delta)-DP.

    Inverts the frontier, which increases in eps, by Newton steps that start
    at the closed-form upper bound epsilon_bound and take the slope in eps
    from the envelope theorem at the frontier's argmin p, falling back to
    bisection on [0, bound].  Returns 0 when the frontier at eps = 0 already
    dominates gamma, and the bound itself when the frontier there falls
    short of gamma by rounding, so the answer never exceeds epsilon_bound.
    Each frontier solve is gamma_exact's default search, and epsilon is
    found to DEFAULT_ABS_TOL: one frontier solve an answer where the
    bound is tight, usually two to four elsewhere.
    """
    _check_alpha_gamma_delta(alpha, gamma, delta)
    if gamma == 0.0:
        return ConversionResult(0.0, "exact_numeric")

    def frontier(e: float) -> tuple[float, float]:
        r = gamma_exact(alpha, e, delta)
        return r.value, _gamma_slope(alpha, e, delta, r.argmin_p)

    eps = _newton_invert(frontier, gamma, 0.0, _epsilon_bound(alpha, gamma, delta)[0], DEFAULT_ABS_TOL)
    return ConversionResult(eps, "exact_numeric")


def _gamma_slope(alpha: float, epsilon: float, delta: float, argmin_p: Optional[float]) -> float:
    # d gamma_exact / d eps at the argmin_p it reports, by the envelope theorem.
    # Only the tail atom's log(e^eps - p + delta) depends on eps, so the slope
    # is 1 - w e^eps / (e^eps - p + delta).  The edge value eps - log(1 - delta)
    # (argmin_p None) has slope 1
    if argmin_p is None:
        return 1.0
    objective, tail, log_rest = _objective(alpha, epsilon, delta)(math.log(argmin_p - delta), parts=True)
    return -math.expm1(tail + epsilon - log_rest - objective)


def _gamma_delta_slope(alpha: float, epsilon: float, delta: float, argmin_p: Optional[float]) -> float:
    # d gamma_exact / d delta at the argmin_p it reports, by the envelope
    # theorem: delta enters both atoms, and the slope is
    # (1 - w)/(p - delta) - w/(e^eps - p + delta).  The edge value
    # eps - log(1 - delta) (argmin_p None, also at delta = 0) has slope 1/(1 - delta)
    if argmin_p is None:
        return 1.0 / (1.0 - delta)
    objective, tail, log_rest = _objective(alpha, epsilon, delta)(math.log(argmin_p - delta), parts=True)
    log_w = tail - objective
    return -math.expm1(log_w) / (argmin_p - delta) - math.exp(log_w - log_rest)


def _gamma_order_slopes(alpha: float, epsilon: float, delta: float, result: ConversionResult) -> tuple[float, float]:
    # d gamma_exact / d alpha and d2 gamma_exact / d alpha2 at the argmin_p it
    # reports.  gamma = eps + m/(alpha - 1) for the minimum m of the objective
    # F over t; by the envelope theorem m' = F_alpha at the argmin, and by the
    # implicit-function theorem m'' = F_alpha_alpha - F_alpha_t^2 / F_tt
    # (_objective_slopes gives all five).  The solve stops up to its
    # tolerance from the argmin, so m' is taken one Newton step on, at
    # F_alpha - F_alpha_t F_t / F_tt, which leaves an error of the step's
    # square.  With a = alpha - 1 and X = m' - m/a = a gamma', bounded where
    # gamma is,
    #     gamma' = X/a,  gamma'' = (m'' - 2 X/a)/a.
    # The edge value eps - log(1 - delta) (argmin_p None) does not move with alpha
    if result.argmin_p is None:
        return 0.0, 0.0
    t = math.log(result.argmin_p - delta)
    m, f_t, f_tt, f_a, f_at, f_aa = _objective_slopes(alpha, epsilon, delta)(t, orders=True)
    m = _objective_near_one(alpha, epsilon, delta, t, m)
    if f_tt > 0.0:
        f_a -= f_at * f_t / f_tt
        f_aa -= f_at * f_at / f_tt
    a = alpha - 1.0
    x = f_a - m / a
    return x / a, (f_aa - 2.0 * x / a) / a


def epsilon_bound(alpha: float, gamma: float, delta: float) -> ConversionResult:
    """Closed-form upper bound on the optimal epsilon; exact when alpha*delta >= 1.

    For alpha*delta < 1 it is the smaller of the clamped moment piece
    (gamma + log(zeta(alpha)/delta)/(alpha-1))_+ and the power-divergence
    piece (1/(alpha-1)) log(1 + (alpha-1) chi(gamma)/(alpha delta)).
    """
    _check_alpha_gamma_delta(alpha, gamma, delta)
    value, branch = _epsilon_bound(alpha, gamma, delta)
    return ConversionResult(value, "closed_form_bound", active_branch=branch)


def _epsilon_bound(alpha: float, gamma: float, delta: float) -> tuple[float, Optional[Branch]]:
    # epsilon_bound's value and winning branch, for arguments already checked;
    # the accountant scans it over orders without re-validating each one
    if gamma == 0.0:
        return 0.0, None
    if alpha * delta >= 1.0:
        return max(gamma + math.log1p(-delta), 0.0), "alpha_delta_ge_1"
    piece_g = _moment_epsilon_piece(alpha, gamma, delta)
    piece_chi = _chi_epsilon_piece(alpha, gamma, delta)
    if piece_g <= piece_chi:
        return piece_g, "g_bound"
    return piece_chi, "chi_bound"


def _moment_epsilon_piece(alpha: float, gamma: float, delta: float) -> float:
    # (gamma + log(zeta(alpha)/delta)/(alpha-1))_+, Balle et al.'s conversion
    # clamped at 0; for alpha * delta < 1
    return max(gamma + (_log_zeta(alpha) - math.log(delta)) / (alpha - 1.0), 0.0)


def _chi_epsilon_piece(alpha: float, gamma: float, delta: float) -> float:
    # (1/(alpha-1)) log(1 + (e^{(alpha-1)gamma} - 1)/(alpha delta)),
    # x = (alpha-1)gamma, c = alpha delta; log1p keeps expm1(x) << c exact, and
    # where expm1(x)/c overflows c is negligible next to expm1(x)
    x = (alpha - 1.0) * gamma
    c = alpha * delta
    if x < 30.0:
        e = math.expm1(x)
        return (math.log1p(e / c) if e / c < math.inf else math.log(e) - math.log(c)) / (alpha - 1.0)
    if x > 709.0:
        return (x - math.log(c)) / (alpha - 1.0)
    return (x + math.log1p((c - 1.0) * math.exp(-x)) - math.log(c)) / (alpha - 1.0)


def _moment_epsilon_slopes(alpha: float, gamma: float, delta: float) -> tuple[float, float, float]:
    # the moment piece at order alpha and divergence gamma, with its first and
    # second derivatives in u = log(alpha - 1) along gamma = rate alpha, the
    # rate gamma/alpha held.  With a = alpha - 1, L = log(1/delta) and
    # R = L - log(alpha) > 0 below alpha = 1/delta, the unclamped piece is
    # rate alpha + log(1 - 1/alpha) + R/a, whose slope a rate - R/a increases,
    # with curvature a rate + 1/alpha + R/a > 0, so it crosses 0 once; the
    # clamp at 0 leaves that crossing a minimizer.  a rate is formed as
    # gamma (a/alpha), which neither overflows nor loses a subnormal rate
    a = alpha - 1.0
    tail = (-math.log(delta) - math.log(alpha)) / a
    rate_a = gamma * (a / alpha)
    return _moment_epsilon_piece(alpha, gamma, delta), rate_a - tail, rate_a + 1.0 / alpha + tail


def _moment_gamma_piece(alpha: float, epsilon: float, delta: float) -> float:
    # the moment piece inverted in gamma: the largest gamma at which it is at
    # most epsilon > 0, and gamma_bound's moment piece of the frontier
    return epsilon - (_log_zeta(alpha) - math.log(delta)) / (alpha - 1.0)


def _chi_gamma_piece(alpha: float, epsilon: float, delta: float) -> float:
    # the chi piece inverted in gamma: log(1 + c expm1(x))/(alpha-1),
    # x = (alpha-1) eps, c = alpha delta, which past x = 700 is the log of
    # c e^x + (1 - c).  1 - c has no mass where c rounds up to 1 at the top
    # order, and where x overflows the log is x + log c, divided term by term
    x, c = (alpha - 1.0) * epsilon, alpha * delta
    if x == math.inf:
        return epsilon + math.log(c) / (alpha - 1.0)
    if x < 700.0:
        return math.log1p(c * math.expm1(x)) / (alpha - 1.0)
    return log_add(math.log(c) + x, math.log1p(-c) if c < 1.0 else -math.inf) / (alpha - 1.0)


def _gamma_of_epsilon_bound(alpha: float, epsilon: float, delta: float) -> float:
    # the largest gamma with _epsilon_bound(alpha, gamma, delta) <= epsilon > 0:
    # each piece inverted in gamma; below alpha*delta = 1 the bound is the
    # smaller piece, so the larger inverse wins
    if alpha * delta >= 1.0:
        return epsilon - math.log1p(-delta)
    return max(_moment_gamma_piece(alpha, epsilon, delta), _chi_gamma_piece(alpha, epsilon, delta))


def baseline_delta(alpha: float, gamma: float, epsilon: float) -> float:
    """Markov-style conversion delta = e^{-(alpha-1)(eps-gamma)}, capped at 1.

    For gamma > 0 a delta that underflows to 0 is reported as the smallest
    positive float.
    """
    _check_alpha_gamma_eps(alpha, gamma, epsilon)
    # cap the exponent rather than the result: for eps < gamma it can exceed 709
    return _no_false_zero(math.exp(min(-(alpha - 1.0) * (epsilon - gamma), 0.0)), gamma)


def baseline_epsilon(alpha: float, gamma: float, delta: float) -> float:
    """Markov-style conversion eps = gamma + log(1/delta)/(alpha-1)."""
    _check_alpha_gamma_delta(alpha, gamma, delta)
    return gamma - math.log(delta) / (alpha - 1.0)


def balle_epsilon(alpha: float, gamma: float, delta: float) -> float:
    """Conversion eps = gamma + log(zeta(alpha)/delta)/(alpha-1), reported unclamped.

    From Balle et al. (arXiv:1905.09982, Thm 21); always at most the
    baseline, and matches the moment piece of epsilon_bound before its
    clamp at zero.
    """
    _check_alpha_gamma_delta(alpha, gamma, delta)
    return gamma + (_log_zeta(alpha) - math.log(delta)) / (alpha - 1.0)


class ZeroEpsilonRegion(NamedTuple):
    """Deltas for which the guarantee already implies (0, delta)-DP.

    interval is a closed sub-interval of [0, 1/alpha] when the simple
    sufficient condition applies, else None; delta_free is the threshold
    above which epsilon = 0 always holds.
    """

    interval: Optional[tuple[float, float]]
    delta_free: float


def zero_epsilon_region(alpha: float, gamma: float) -> ZeroEpsilonRegion:
    """Where the optimal epsilon is exactly zero for an (alpha, gamma) guarantee.

    If 1 - e^{-gamma} < 1/alpha the interval
    [zeta(alpha) e^{(alpha-1)gamma}, 1/alpha] gives eps = 0; independent of
    that, eps = 0 for every delta > max(1 - e^{-gamma}, 1/alpha).
    """
    _check_alpha(alpha)
    _check_nonnegative(gamma, "gamma")
    tail = -math.expm1(-gamma)  # 1 - e^-gamma
    delta_free = max(tail, 1.0 / alpha)
    if tail < 1.0 / alpha:
        lo = math.exp(_log_zeta(alpha) + (alpha - 1.0) * gamma)
        return ZeroEpsilonRegion(interval=(lo, 1.0 / alpha), delta_free=delta_free)
    return ZeroEpsilonRegion(interval=None, delta_free=delta_free)
