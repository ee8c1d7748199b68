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
from dataclasses import dataclass
from typing import Callable, Literal, Optional

from .errors import DomainError, InfeasibleError, _check_alpha, _check_nonnegative, _check_unit
from .optimize import DEFAULT_SEARCH, ScalarSearchConfig, invert_monotone, log_add, minimize_unimodal

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

    Computed entirely in log domain; requires delta < p < 1.
    """
    _check_alpha(alpha)
    _check_nonnegative(epsilon, "epsilon")
    _check_unit(delta, "delta", allow_zero=True)
    if not (delta < p < 1.0):
        raise DomainError(f"p must lie in (delta, 1) = ({delta!r}, 1), got {p!r}")
    return _objective(alpha, epsilon, delta)(p)


def _objective(alpha: float, epsilon: float, delta: float) -> Callable[[float], float]:
    # boundary_objective as a function of p alone, for arguments already
    # checked: a search builds it once and evaluates it hundreds of times
    one_minus_alpha = 1.0 - alpha
    exp_neg_eps = math.exp(-epsilon)

    def objective(p: float) -> float:
        head = alpha * math.log(p) + one_minus_alpha * math.log(p - delta)
        # log(e^eps - p + delta) = eps + log1p((delta - p) e^{-eps}), always finite here
        log_rest = epsilon + math.log1p((delta - p) * exp_neg_eps)
        tail = alpha * math.log1p(-p) + one_minus_alpha * log_rest
        return log_add(head, tail)

    return objective


def gamma_exact(
    alpha: float,
    epsilon: float,
    delta: float,
    cfg: ScalarSearchConfig = DEFAULT_SEARCH,
) -> ConversionResult:
    """Exact frontier value gamma(alpha, eps, delta) by numeric minimization.

    The interior search over p in (delta, 1) is compared against the
    p -> 1 boundary value eps - log(1 - delta), which is the true infimum
    whenever alpha * delta >= 1.
    """
    _check_alpha(alpha)
    _check_nonnegative(epsilon, "epsilon")
    _check_unit(delta, "delta", allow_zero=True)
    if delta == 0.0:
        return ConversionResult(0.0, "exact_numeric")
    if math.nextafter(delta, 1.0) == 1.0:
        # no float lies inside (delta, 1) to search; alpha * delta >= 1 holds
        # there for every float alpha > 1, so the boundary value is exact
        return ConversionResult(max(epsilon - math.log1p(-delta), 0.0), "exact_numeric")
    argmin_p, m_interior = minimize_unimodal(_objective(alpha, epsilon, delta), delta, 1.0, cfg)
    m_edge = (1.0 - alpha) * math.log1p(-delta)
    if m_edge <= m_interior:
        return ConversionResult(max(epsilon - math.log1p(-delta), 0.0), "exact_numeric")
    value = epsilon + m_interior / (alpha - 1.0)
    return ConversionResult(max(value, 0.0), "exact_numeric", argmin_p=argmin_p)


def _f_lower_bound(alpha: float, epsilon: float, delta: float) -> float:
    """Tangent-at-zero lower bound on the frontier, valid for alpha*delta < 1.

    f = eps + (1/(alpha-1)) * log( (e^eps - alpha*delta) *
        ((1-delta)/(e^eps - delta))^alpha + alpha*delta ).
    """
    ad = alpha * delta
    if ad == 0.0:
        return 0.0
    log_lead = epsilon + math.log1p(-ad * math.exp(-epsilon))
    log_ratio = math.log1p(-delta) - (epsilon + math.log1p(-delta * math.exp(-epsilon)))
    inner = log_add(log_lead + alpha * log_ratio, math.log(ad))
    return epsilon + inner / (alpha - 1.0)


def gamma_bound(alpha: float, epsilon: float, delta: float) -> ConversionResult:
    """Closed-form lower bound on the frontier; exact when alpha*delta >= 1.

    For alpha*delta < 1 it is the larger of the moment-based piece
    g = eps - (1/(alpha-1)) log(zeta(alpha)/delta) and the tangent piece f.
    """
    _check_alpha(alpha)
    _check_nonnegative(epsilon, "epsilon")
    _check_unit(delta, "delta", allow_zero=True)
    if delta == 0.0:
        return ConversionResult(0.0, "closed_form_bound")
    if alpha * delta >= 1.0:
        value = epsilon - math.log1p(-delta)
        return ConversionResult(value, "closed_form_bound", active_branch="alpha_delta_ge_1")
    g = epsilon - (log_zeta(alpha) - math.log(delta)) / (alpha - 1.0)
    f = _f_lower_bound(alpha, epsilon, delta)
    if g >= f:
        return ConversionResult(g, "closed_form_bound", active_branch="g_bound")
    return ConversionResult(f, "closed_form_bound", active_branch="f_bound")


def delta_exact(alpha: float, gamma: float, epsilon: float) -> ConversionResult:
    """Smallest delta such that (alpha, gamma) implies (epsilon, delta)-DP.

    Inverts the frontier, which is continuous and increasing in delta, by
    secant steps between 0 and the closed-form upper bound delta_bound
    (or 1 - 1e-12 when the frontier does not reach gamma at that bound).
    Every search runs at DEFAULT_SEARCH.
    """
    _check_alpha(alpha)
    _check_nonnegative(gamma, "gamma")
    _check_nonnegative(epsilon, "epsilon")
    if gamma == 0.0:
        return ConversionResult(0.0, "exact_numeric")
    top = 1.0 - 1e-12
    hi = min(delta_bound(alpha, gamma, epsilon).value * (1.0 + 1e-9) + 1e-15, top)
    gamma_hi = gamma_exact(alpha, epsilon, hi).value
    if gamma_hi < gamma and hi < top:
        hi = top
        gamma_hi = gamma_exact(alpha, epsilon, hi).value
    if gamma > gamma_hi:
        raise InfeasibleError(
            f"no delta < 1 reaches gamma={gamma!r} at eps={epsilon!r} "
            f"(frontier tops out near {gamma_hi!r})"
        )
    d = invert_monotone(
        lambda t: gamma_exact(alpha, epsilon, t).value,
        gamma,
        0.0,
        hi,
        increasing=True,
        f_lo=0.0,  # gamma_exact at delta = 0
        f_hi=gamma_hi,
    )
    return ConversionResult(min(max(d, 0.0), hi), "exact_numeric")


def delta_bound(alpha: float, gamma: float, epsilon: float) -> ConversionResult:
    """Closed-form upper bound on the optimal delta; exact when it is >= 1/alpha.

    Inverts each closed-form frontier piece separately and takes the best:
    the moment piece inverts to zeta(alpha) * e^{-(alpha-1)(eps-gamma)},
    the tangent piece is inverted numerically on [0, 1/alpha) at
    DEFAULT_SEARCH.
    """
    _check_alpha(alpha)
    _check_nonnegative(gamma, "gamma")
    _check_nonnegative(epsilon, "epsilon")
    # 1 - e^(eps - gamma), which can reach 1/alpha only when eps < gamma; the
    # exponent is capped at 0 so that a large eps - gamma does not overflow
    d_closed = -math.expm1(min(epsilon - gamma, 0.0))
    if d_closed >= 1.0 / alpha:
        return ConversionResult(d_closed, "closed_form_bound", active_branch="alpha_delta_ge_1")
    d_g = math.exp(log_zeta(alpha) - (alpha - 1.0) * (epsilon - gamma))
    cap = (1.0 / alpha) * (1.0 - 1e-12)
    f_cap = _f_lower_bound(alpha, epsilon, cap)
    if gamma <= f_cap:
        # the tangent piece is 0 at delta = 0 and gamma >= 0, so gamma lies
        # in the range the piece attains on [0, cap]
        d_f = invert_monotone(
            lambda t: _f_lower_bound(alpha, epsilon, t),
            gamma,
            0.0,
            cap,
            increasing=True,
            f_lo=0.0,
            f_hi=f_cap,
        )
    else:
        # the tangent piece stays below gamma on its whole domain; it only
        # certifies delta <= 1/alpha, which the moment piece already beats
        d_f = 1.0 / alpha
    value = min(d_g, d_f)
    branch: Branch = "g_bound" if d_g <= d_f else "f_bound"
    return ConversionResult(min(max(value, 0.0), 1.0 - 1e-15), "closed_form_bound", active_branch=branch)


def epsilon_exact(
    alpha: float,
    gamma: float,
    delta: float,
    cfg: ScalarSearchConfig = DEFAULT_SEARCH,
) -> ConversionResult:
    """Smallest epsilon such that (alpha, gamma) implies (epsilon, delta)-DP.

    Returns 0 when the frontier at eps = 0 already dominates gamma;
    otherwise inverts the frontier by secant steps between 0 and the
    closed-form upper bound (doubled until the frontier reaches gamma).
    """
    _check_alpha(alpha)
    _check_nonnegative(gamma, "gamma")
    _check_unit(delta, "delta")
    if gamma == 0.0:
        return ConversionResult(0.0, "exact_numeric")
    gamma_lo = gamma_exact(alpha, 0.0, delta, cfg).value
    if gamma_lo >= gamma:
        return ConversionResult(0.0, "exact_numeric")
    hi = max(_epsilon_bound(alpha, gamma, delta)[0], 1e-9) * (1.0 + 1e-9) + 1e-12
    gamma_hi = gamma_exact(alpha, hi, delta, cfg).value
    guard = 0
    while gamma_hi < gamma:
        hi *= 2.0
        guard += 1
        if guard > 200:
            raise InfeasibleError(f"no epsilon reaches gamma={gamma!r} at delta={delta!r}")
        gamma_hi = gamma_exact(alpha, hi, delta, cfg).value
    eps = invert_monotone(
        lambda e: gamma_exact(alpha, e, delta, cfg).value,
        gamma,
        0.0,
        hi,
        increasing=True,
        cfg=cfg,
        f_lo=gamma_lo,
        f_hi=gamma_hi,
    )
    return ConversionResult(max(eps, 0.0), "exact_numeric")


def epsilon_bound(alpha: float, gamma: float, delta: float) -> ConversionResult:
    """Closed-form upper bound on the optimal epsilon; exact when alpha*delta >= 1.

    For alpha*delta < 1 it is the smaller of the clamped moment piece
    (gamma + log(zeta(alpha)/delta)/(alpha-1))_+ and the power-divergence
    piece (1/(alpha-1)) log(1 + (alpha-1) chi(gamma)/(alpha delta)).
    """
    _check_alpha(alpha)
    _check_nonnegative(gamma, "gamma")
    _check_unit(delta, "delta")
    value, branch = _epsilon_bound(alpha, gamma, delta)
    return ConversionResult(value, "closed_form_bound", active_branch=branch)


def _epsilon_bound(alpha: float, gamma: float, delta: float) -> tuple[float, Optional[Branch]]:
    # epsilon_bound's value and winning branch, for arguments already checked;
    # the accountant scans it over orders without re-validating each one
    if gamma == 0.0:
        return 0.0, None
    if alpha * delta >= 1.0:
        return max(gamma + math.log1p(-delta), 0.0), "alpha_delta_ge_1"
    piece_g = max(gamma + (_log_zeta(alpha) - math.log(delta)) / (alpha - 1.0), 0.0)
    piece_chi = _chi_epsilon_piece(alpha, gamma, delta)
    if piece_g <= piece_chi:
        return piece_g, "g_bound"
    return piece_chi, "chi_bound"


def _chi_epsilon_piece(alpha: float, gamma: float, delta: float) -> float:
    # (1/(alpha-1)) log(1 + (e^{(alpha-1)gamma} - 1)/(alpha delta)),
    # written as log(expm1(x) + c) - log(c) with x = (alpha-1)gamma, c = alpha delta
    x = (alpha - 1.0) * gamma
    c = alpha * delta
    if x < 30.0:
        return (math.log(math.expm1(x) + c) - math.log(c)) / (alpha - 1.0)
    if x > 709.0:
        return (x - math.log(c)) / (alpha - 1.0)
    return (x + math.log1p((c - 1.0) * math.exp(-x)) - math.log(c)) / (alpha - 1.0)


def _gamma_of_epsilon_bound(alpha: float, epsilon: float, delta: float) -> float:
    # the largest gamma with _epsilon_bound(alpha, gamma, delta) <= epsilon > 0:
    # each piece inverted in gamma; below alpha*delta = 1 the bound is the
    # smaller piece, so the larger inverse wins.  The chi piece inverts to
    # log(1 + c expm1(x))/(alpha-1), x = (alpha-1) eps, c = alpha delta, which
    # past x = 700 is the log of c e^x + (1 - c)
    if alpha * delta >= 1.0:
        return epsilon - math.log1p(-delta)
    x, c = (alpha - 1.0) * epsilon, alpha * delta
    log_chi = math.log1p(c * math.expm1(x)) if x < 700.0 else log_add(math.log(c) + x, math.log1p(-c))
    return max(epsilon - (_log_zeta(alpha) - math.log(delta)) / (alpha - 1.0), log_chi / (alpha - 1.0))


def baseline_delta(alpha: float, gamma: float, epsilon: float) -> float:
    """Markov-style conversion delta = e^{-(alpha-1)(eps-gamma)}, capped at 1."""
    _check_alpha(alpha)
    _check_nonnegative(gamma, "gamma")
    _check_nonnegative(epsilon, "epsilon")
    # cap the exponent rather than the result: for eps < gamma it can exceed 709
    return math.exp(min(-(alpha - 1.0) * (epsilon - gamma), 0.0))


def baseline_epsilon(alpha: float, gamma: float, delta: float) -> float:
    """Markov-style conversion eps = gamma + log(1/delta)/(alpha-1)."""
    _check_alpha(alpha)
    _check_nonnegative(gamma, "gamma")
    _check_unit(delta, "delta")
    return gamma - math.log(delta) / (alpha - 1.0)


def balle_epsilon(alpha: float, gamma: float, delta: float) -> float:
    """Conversion eps = gamma + log(zeta(alpha)/delta)/(alpha-1), reported unclamped.

    From Balle et al. (arXiv:1905.09982, Thm 21); always at most the
    baseline, and matches the moment piece of epsilon_bound before its
    clamp at zero.
    """
    _check_alpha(alpha)
    _check_nonnegative(gamma, "gamma")
    _check_unit(delta, "delta")
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
