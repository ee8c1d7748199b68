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
from dataclasses import dataclass
from typing import Callable, Literal, Optional

from .errors import DomainError, InfeasibleError, _check_alpha, _check_nonnegative
from .errors import _check_alpha_eps_delta, _check_alpha_gamma_delta, _check_alpha_gamma_eps
from .optimize import DEFAULT_SEARCH, ScalarSearchConfig, _newton_invert, log_add, minimize_unimodal

Method = Literal["exact_numeric", "closed_form_bound"]
Branch = Literal["alpha_delta_ge_1", "g_bound", "f_bound", "chi_bound"]

@dataclass(frozen=True)
class ConversionResult:
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


def gamma_exact(
    alpha: float,
    epsilon: float,
    delta: float,
    cfg: ScalarSearchConfig = DEFAULT_SEARCH,
) -> ConversionResult:
    """Exact frontier value gamma(alpha, eps, delta) by numeric minimization.

    The interior search runs over t = log(p - delta), which resolves the
    minimizer relative to its distance from delta however small delta is,
    so cfg.abs_tol applies to log(p - delta).  The objective is unimodal in
    t, so DEFAULT_SEARCH's 8-point grid brackets its minimum, and Brent's
    steps refine it to 1e-10 in t: about 50 objective evaluations a solve.
    The interior minimum is compared against the p -> 1 boundary value
    eps - log(1 - delta), which is the true infimum whenever
    alpha * delta >= 1; no search runs there.
    """
    _check_alpha_eps_delta(alpha, epsilon, delta)
    if delta == 0.0:
        return ConversionResult(0.0, "exact_numeric")
    edge = ConversionResult(max(epsilon - math.log1p(-delta), 0.0), "exact_numeric")
    if alpha * delta >= 1.0:
        return edge
    # the objective decreases in p up to p = alpha * delta, and at small delta
    # its minimizer sits just above that point; the range starts one unit of
    # t below it, so that the minimizer lies inside the range, where parabolic
    # steps reach it, rather than on its end.  The objective is log S(p), with
    # S(p) = p^alpha (p - delta)^(1-alpha) + (1-p)^alpha (e^eps - p + delta)^(1-alpha).
    # For alpha > 1 each term is the perspective y (x/y)^alpha of the convex
    # map x -> x^alpha at an (x, y) affine in p, so each term, and S, is
    # convex in p on (delta, 1).  log S is then unimodal, in p and in t, and
    # the best point of any grid and its two neighbours bracket the minimum
    t_lo, t_hi = math.log(alpha - 1.0) + math.log(delta) - 1.0, math.log1p(-delta)
    t, m_interior = minimize_unimodal(_objective(alpha, epsilon, delta), t_lo, t_hi, cfg)
    if (1.0 - alpha) * t_hi <= m_interior:
        return edge
    value = epsilon + m_interior / (alpha - 1.0)
    # p = delta + e^t, kept inside (delta, 1) where the sum rounds onto an end
    argmin_p = min(max(delta + math.exp(t), math.nextafter(delta, 1.0)), math.nextafter(1.0, 0.0))
    return ConversionResult(max(value, 0.0), "exact_numeric", argmin_p=argmin_p)


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
    DEFAULT_SEARCH.abs_tol relative to the bound, so small deltas keep
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
    d = _newton_invert(frontier, gamma, 0.0, hi, DEFAULT_SEARCH.abs_tol * hi)
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
    slope, at DEFAULT_SEARCH.  For gamma > 0 a delta that underflows to 0
    is reported as the smallest positive float.
    """
    _check_alpha_gamma_eps(alpha, gamma, epsilon)
    # 1 - e^(eps - gamma), which can reach 1/alpha only when eps < gamma; the
    # exponent is capped at 0 so that a large eps - gamma does not overflow
    d_closed = -math.expm1(min(epsilon - gamma, 0.0))
    if d_closed >= 1.0 / alpha:
        return ConversionResult(d_closed, "closed_form_bound", active_branch="alpha_delta_ge_1")
    d_g = math.exp(log_zeta(alpha) - (alpha - 1.0) * (epsilon - gamma))
    cap = (1.0 / alpha) * (1.0 - 1e-12)
    if gamma <= _f_lower_bound(alpha, epsilon, cap)[0]:
        # the tangent piece is 0 at delta = 0 and gamma >= 0, so gamma lies
        # in the range the piece attains on [0, cap]
        d_f = _newton_invert(lambda t: _f_lower_bound(alpha, epsilon, t), gamma, 0.0, cap, DEFAULT_SEARCH.abs_tol)
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
    found to DEFAULT_SEARCH.abs_tol: one frontier solve an answer where the
    bound is tight, usually two to four elsewhere.
    """
    _check_alpha_gamma_delta(alpha, gamma, delta)
    if gamma == 0.0:
        return ConversionResult(0.0, "exact_numeric")

    def frontier(e: float) -> tuple[float, float]:
        r = gamma_exact(alpha, e, delta)
        return r.value, _gamma_slope(alpha, e, delta, r.argmin_p)

    eps = _newton_invert(frontier, gamma, 0.0, _epsilon_bound(alpha, gamma, delta)[0], DEFAULT_SEARCH.abs_tol)
    return ConversionResult(eps, "exact_numeric")


def _tail_atom(alpha: float, epsilon: float, delta: float, p: float) -> tuple[float, float, float]:
    # the tail atom's log and log(e^eps - p + delta) at p, with the objective
    # there: e^(tail - objective) is the tail's share w of the objective,
    # which both envelope slopes below weigh
    objective, tail, log_rest = _objective(alpha, epsilon, delta)(math.log(p - delta), parts=True)
    return tail, log_rest, objective


def _gamma_slope(alpha: float, epsilon: float, delta: float, argmin_p: Optional[float]) -> float:
    # d gamma_exact / d eps at the argmin_p it reports, by the envelope theorem.
    # Only the tail atom's log(e^eps - p + delta) depends on eps, so the slope
    # is 1 - w e^eps / (e^eps - p + delta).  The edge value eps - log(1 - delta)
    # (argmin_p None) has slope 1
    if argmin_p is None:
        return 1.0
    tail, log_rest, objective = _tail_atom(alpha, epsilon, delta, argmin_p)
    return -math.expm1(tail + epsilon - log_rest - objective)


def _gamma_delta_slope(alpha: float, epsilon: float, delta: float, argmin_p: Optional[float]) -> float:
    # d gamma_exact / d delta at the argmin_p it reports, by the envelope
    # theorem: delta enters both atoms, and the slope is
    # (1 - w)/(p - delta) - w/(e^eps - p + delta).  The edge value
    # eps - log(1 - delta) (argmin_p None, also at delta = 0) has slope 1/(1 - delta)
    if argmin_p is None:
        return 1.0 / (1.0 - delta)
    tail, log_rest, objective = _tail_atom(alpha, epsilon, delta, argmin_p)
    log_w = tail - objective
    return -math.expm1(log_w) / (argmin_p - delta) - math.exp(log_w - log_rest)


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


def _moment_gamma_piece(alpha: float, epsilon: float, delta: float) -> float:
    # the moment piece inverted in gamma: the largest gamma at which it is at
    # most epsilon > 0, and gamma_bound's moment piece of the frontier
    return epsilon - (_log_zeta(alpha) - math.log(delta)) / (alpha - 1.0)


def _chi_gamma_piece(alpha: float, epsilon: float, delta: float) -> float:
    # the chi piece inverted in gamma: log(1 + c expm1(x))/(alpha-1),
    # x = (alpha-1) eps, c = alpha delta, which past x = 700 is the log of
    # c e^x + (1 - c)
    x, c = (alpha - 1.0) * epsilon, alpha * delta
    log_chi = math.log1p(c * math.expm1(x)) if x < 700.0 else log_add(math.log(c) + x, math.log1p(-c))
    return log_chi / (alpha - 1.0)


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
    return gamma + (log_zeta(alpha) - math.log(delta)) / (alpha - 1.0)


@dataclass(frozen=True)
class ZeroEpsilonRegion:
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
        lo = math.exp(log_zeta(alpha) + (alpha - 1.0) * gamma)
        return ZeroEpsilonRegion(interval=(lo, 1.0 / alpha), delta_free=delta_free)
    return ZeroEpsilonRegion(interval=None, delta_free=delta_free)
