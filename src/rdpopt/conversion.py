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
    return _objective(alpha, epsilon, delta)(math.log(p - delta))[0]


def _objective(alpha: float, epsilon: float, delta: float) -> Callable[[float], tuple[float, ...]]:
    # boundary_objective at t = log(p - delta) for arguments already checked,
    # with its slopes and its near-one form, all from the same terms: a search
    # builds it once and evaluates it hundreds of times.  With s = e^t and
    # H = log1p(delta/s), the head atom's log is head = t + alpha H, so that
    # no two large terms cancel at tiny delta; where s is subnormal or 0, and
    # so has lost its digits, H = log1p(e^-(t - log delta)) from t itself.
    # The tail atom's log is
    # tail = alpha log(1 - p) + (1 - alpha) log_rest, with
    # log(1 - p) = log(1 - delta) + log1p(-s/(1 - delta)), finite for every
    # s < 1 - delta, and log_rest = log(e^eps - s) = eps + log1p(-z),
    # z = s e^-eps.  F is their log-sum.
    # Slopes: with p = delta + s, r = s/p and q = delta/p (the logistic of
    # t - log(delta), exact to rounding however small delta and s are), the
    # head atom's log has slope a = 1 - alpha q = r - (alpha - 1) q, which
    # keeps its digits as alpha approaches 1, and curvature alpha r q.  With
    # u = s/(1 - delta - s) and v = z/(1 - z), the tail atom's log has slope
    # b = (alpha - 1) v - alpha u and curvature b + (alpha - 1) v^2 - alpha u^2.
    # With the tail's share w = e^(tail - F), F' = a + w (b - a) and
    # F'' = (1 - w) alpha r q + w (b + (alpha - 1) v^2 - alpha u^2) + w (1 - w) (a - b)^2;
    # a vanished tail (w = 0) adds nothing.
    # Near one: F rounds to about 1e-16 absolute, which gamma =
    # eps + F/(alpha - 1) divides by alpha - 1.  With c = alpha - 1, head =
    # log p + c H and tail = log(1 - p) + c T, T = log((1 - p)/(e^eps - s)) < 0,
    # so F = log1p(X), X = p expm1(c H) + (1 - p) expm1(c T), whose terms lie
    # in [0, 1) and (-1, 0] on the search's range (H <= log1p(1/c) there): X
    # keeps its digits as c -> 0.  So for 1e-12 <= c < 1 gamma takes log1p(X),
    # exact to rounding relative to itself, except where X <= -1/2: there F
    # is at least log 2 in size and the log-sum is as good.  Below c = 1e-12
    # F's slope in t, of size c, is lost in its own rounding, so no search
    # places the argmin.
    # Returns (F, F', F'', tail, log_rest, r, q, w, u, v, b - a, F as gamma
    # takes it); _envelope reads the middle parts, u = v = b - a = 0 where
    # the tail vanished
    exp, log1p, expm1 = math.exp, math.log1p, math.expm1
    c = alpha - 1.0
    exp_neg_eps = exp(-epsilon)
    log_keep = log1p(-delta)
    keep = 1.0 - delta
    log_delta = math.log(delta) if delta > 0.0 else -math.inf
    tiny = sys.float_info.min
    near_one = 1e-12 <= c < 1.0

    def objective(t: float) -> tuple[float, ...]:
        s = exp(t)
        odds = t - log_delta
        e = exp(-abs(odds))
        if s >= tiny:
            h = log1p(delta / s)
        else:
            h = log1p(e) - odds if odds < 0.0 else log1p(e)
        head = t + alpha * h
        z = s * exp_neg_eps
        log_z = log1p(-z)
        log_rest = epsilon + log_z
        share = s / keep
        # at s = 1 - delta the tail atom (1 - p)^alpha vanishes
        l1p = log_keep + log1p(-share) if share < 1.0 else -math.inf
        tail = alpha * l1p - c * log_rest if share < 1.0 else -math.inf
        # log_add(head, tail), inlined on this hot path; tail may be -inf, head +inf
        big, small = (head, tail) if head >= tail else (tail, head)
        value = big + log1p(exp(small - big))
        k = 1.0 / (1.0 + e)
        r, q = (k, e * k) if odds >= 0.0 else (e * k, k)
        a = r - c * q
        w = exp(tail - value)
        if w > 0.0:
            u, v = s / (keep - s), z / (1.0 - z)
            b = c * v - alpha * u
            gap = b - a
            first = a + w * gap
            second = (1.0 - w) * (alpha * r * q) + w * (b + c * v * v - alpha * u * u) + w * (1.0 - w) * gap * gap
        else:
            u = v = gap = 0.0
            first, second = a, alpha * r * q
        near = value
        if near_one:
            x = (delta + s) * expm1(c * h)
            if share < 1.0:
                x += (keep - s) * expm1(c * (l1p - epsilon - log_z))
            if x > -0.5:
                near = log1p(x)
        return value, first, second, tail, log_rest, r, q, w, u, v, gap, near

    return objective


def gamma_exact(alpha: float, epsilon: float, delta: float) -> ConversionResult:
    """Exact frontier value gamma(alpha, eps, delta) by numeric minimization.

    The interior search runs over t = log(p - delta), which resolves the
    minimizer relative to its distance from delta however small delta is,
    subnormal deltas included, where p - delta itself may underflow, and
    stops at DEFAULT_ABS_TOL (1e-10) in t.  The objective F is unimodal
    in t with its minimizer between p = alpha * delta and p = 1, so Newton's
    steps from p = alpha * delta find the root of dF/dt there, with
    bisection wherever a step would leave the bracket: 1 to about 45
    objective evaluations a solve, 14 on average over orders up to 300 and
    deltas down to 1e-30.  The value is the smallest F evaluated; for
    1e-12 <= alpha - 1 < 1 each F is taken exact to rounding relative to
    itself, since gamma = eps + F/(alpha - 1) divides F's rounding by
    alpha - 1 (see _objective).  The interior minimum is compared
    against the p -> 1 boundary value eps - log(1 - delta), which is the
    true infimum whenever alpha * delta >= 1; no search runs there.
    argmin_p is delta + e^t at the minimum kept, held inside (delta, 1)
    where that sum rounds onto an end.  The searches that invert the
    frontier (epsilon_exact, delta_exact and the accountant's exact mode)
    read the same solve's value as a float and build no record of it.
    """
    _check_alpha_eps_delta(alpha, epsilon, delta)
    gamma, state = _frontier(alpha, epsilon, delta)
    if state is None:
        return ConversionResult(gamma, "exact_numeric")
    # p = delta + e^t, kept inside (delta, 1) where the sum rounds onto an end
    argmin_p = min(max(delta + math.exp(state[0]), math.nextafter(delta, 1.0)), math.nextafter(1.0, 0.0))
    return ConversionResult(gamma, "exact_numeric", argmin_p=argmin_p)


def _frontier(alpha: float, epsilon: float, delta: float) -> tuple[float, Optional[tuple]]:
    # gamma_exact's value for arguments already checked, with the search's
    # state at the minimum it kept for _envelope, (t, all _objective returned
    # at t), or None for the edge and delta = 0
    if delta == 0.0:
        return 0.0, None
    edge = epsilon - math.log1p(-delta), None
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
    # slope crosses 0 there once.  The objective takes H from t itself where
    # p - delta = e^t is subnormal or 0, so the bracket starts at
    # p = alpha * delta however small delta is; where its two ends round
    # together it starts one unit of t lower
    t_hi = math.log1p(-delta)
    t_lo = math.log(alpha - 1.0) + math.log(delta)
    if not t_lo < t_hi:
        t_lo = t_hi - 1.0
    objective = _objective(alpha, epsilon, delta)
    m_interior, t, kept = math.inf, t_hi, None

    def slope(x: float) -> tuple[float, float]:
        nonlocal m_interior, t, kept
        parts = objective(x)
        if parts[-1] < m_interior:
            m_interior, t, kept = parts[-1], x, parts
        return parts[1], parts[2]

    _newton_invert(slope, 0.0, t_lo, t_hi, DEFAULT_ABS_TOL, start=t_lo)
    if (1.0 - alpha) * t_hi < m_interior:  # a tie reports the interior point
        return edge
    return max(epsilon + m_interior / (alpha - 1.0), 0.0), (t, kept)


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
    DEFAULT_ABS_TOL relative to the bound, so small deltas keep their
    digits; at gamma = 0 the bound is 0, and so is the answer, with no solve.

    No frontier solve runs where a closed-form tail bound certifies the
    bound.  Where its moment piece d_g wins, the frontier there lies in
    [g, g + eta], with g = eps - log(zeta(alpha)/d_g)/(alpha - 1) = gamma
    the moment piece and eta = log1p(r)/(alpha - 1), r the tail atom over the
    head atom at p = alpha d_g: the head atom alone is least at that p, where
    it gives g, and both atoms there bound the minimum from above.  The
    frontier's slope in delta there is about 1/((alpha - 1) d_g), so where
    (alpha - 1) eta <= DEFAULT_ABS_TOL/16 the search's first step is within
    its tolerance, and d_g is returned as the search would return it.
    Soundness does not rest on this: d_g is delta_bound, an upper bound
    wherever it is returned.
    """
    _check_alpha_gamma_eps(alpha, gamma, epsilon)
    top = 1.0 - 1e-12
    bound, branch = _delta_bound(alpha, gamma, epsilon)
    # the tail bound needs alpha * bound < 1; a bound above top is searched from top
    if branch == "g_bound" and alpha * bound < 1.0 and bound < top:
        if (alpha - 1.0) * _tail_excess(alpha, epsilon, bound) <= DEFAULT_ABS_TOL / 16.0:
            return ConversionResult(bound, "exact_numeric")
    solved = {}  # frontier value by delta: an answer of top was the search's first point

    def frontier(d: float) -> tuple[float, float]:
        gamma_d, state = _frontier(alpha, epsilon, d)
        solved[d] = gamma_d
        return gamma_d, _envelope(alpha, epsilon, d, state)[1]

    hi = min(bound, top)
    d = _newton_invert(frontier, gamma, 0.0, hi, DEFAULT_ABS_TOL * hi)
    if d == top and solved[top] < gamma:
        raise InfeasibleError(
            f"no delta < 1 reaches gamma={gamma!r} at eps={epsilon!r} "
            f"(frontier tops out near {solved[top]!r})"
        )
    return ConversionResult(d, "exact_numeric")


def delta_bound(alpha: float, gamma: float, epsilon: float) -> ConversionResult:
    """Closed-form upper bound on the optimal delta; exact when it is >= 1/alpha.

    Inverts each closed-form frontier piece separately and takes the best:
    the moment piece inverts to d_g = zeta(alpha) * e^{-(alpha-1)(eps-gamma)},
    the tangent piece by Newton steps on [0, 1/alpha) with its closed-form
    slope, to DEFAULT_ABS_TOL.  That search runs only where the tangent
    piece reaches gamma by min(cap, d_g), cap just below 1/alpha: the piece
    increases in delta, so elsewhere its inverse lies past d_g and cannot
    win.  That it increases is sampled, not proved.  Its slope was positive
    at all of 1 000 000 seeded points with eps > 0 (20 000 draws of alpha - 1
    from 1e-6 to 1e4 and eps from 1e-8 to 1e3, each at 50 ordered deltas
    below 1/alpha), and between ordered deltas its values fell only by
    rounding: at most 1.6e-8 absolute, at alpha - 1 near 2e-6 and eps near
    270, where ulp(eps)/(alpha - 1) is 3.4e-8.  Soundness does not depend
    on it: d_g and 1/alpha are upper bounds by themselves, so a skipped
    search can only leave a looser bound, never an optimistic one.
    At gamma = 0 it is 0 with no branch, as delta_exact is.  For gamma > 0
    a delta that underflows to 0 is reported as the smallest positive float.
    """
    _check_alpha_gamma_eps(alpha, gamma, epsilon)
    value, branch = _delta_bound(alpha, gamma, epsilon)
    return ConversionResult(value, "closed_form_bound", active_branch=branch)


def _delta_bound(alpha: float, gamma: float, epsilon: float) -> tuple[float, Optional[Branch]]:
    # delta_bound's value and winning branch, for arguments already checked;
    # gamma = 0 makes the pair identical, so delta is 0
    if gamma == 0.0:
        return 0.0, None
    # 1 - e^(eps - gamma), which can reach 1/alpha only when eps < gamma; the
    # exponent is capped at 0 so that a large eps - gamma does not overflow
    d_closed = -math.expm1(min(epsilon - gamma, 0.0))
    if d_closed >= 1.0 / alpha:
        return d_closed, "alpha_delta_ge_1"
    d_g = math.exp(_log_zeta(alpha) - (alpha - 1.0) * (epsilon - gamma))
    cap = (1.0 / alpha) * (1.0 - 1e-12)
    if gamma <= _f_lower_bound(alpha, epsilon, min(cap, d_g))[0]:
        # the tangent piece is 0 at delta = 0 and gamma >= 0, so gamma lies
        # in the range the piece attains on [0, cap]
        d_f = _newton_invert(lambda t: _f_lower_bound(alpha, epsilon, t), gamma, 0.0, cap, DEFAULT_ABS_TOL)
    else:
        # the tangent piece is below gamma at min(cap, d_g) and increases in
        # delta, so its inverse lies past d_g or past its domain: it cannot
        # win, and it certifies only delta <= 1/alpha.  d_g and 1/alpha are
        # upper bounds whatever the piece does, so an answer given here is
        # sound even where rounding makes the piece fall
        d_f = 1.0 / alpha
    value = min(d_g, d_f)
    branch: Branch = "g_bound" if d_g <= d_f else "f_bound"
    return _no_false_zero(min(value, 1.0 - 1e-15), gamma), branch


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
    short of gamma by rounding, so the answer never exceeds epsilon_bound
    (at gamma = 0 the bound is 0, and so is the answer, with no solve).
    Each frontier solve is gamma_exact's default search, and epsilon is
    found to DEFAULT_ABS_TOL: none where a closed-form tail bound certifies
    the bound, usually two to four elsewhere.  Where the bound's moment
    piece wins, at eps_b = gamma + log(zeta(alpha)/delta)/(alpha - 1), the
    frontier lies in [g, g + eta], with g = eps_b - log(zeta(alpha)/delta)/(alpha - 1)
    = gamma the moment piece and eta = log1p(r)/(alpha - 1), r the tail atom
    over the head atom at p = alpha delta: the head atom alone is least at
    that p, where it gives g, and both atoms there bound the minimum from
    above.  Where eta <= DEFAULT_ABS_TOL/16 the frontier at eps_b exceeds
    gamma by less than the search's tolerance, its slope in eps being about
    1 where the tail atom is that small, so the search would stop at its
    first point, and eps_b is returned with no solve.  Soundness does not
    rest on this: eps_b is an upper bound wherever it is returned.
    """
    _check_alpha_gamma_delta(alpha, gamma, delta)
    return ConversionResult(_epsilon_exact(alpha, gamma, delta), "exact_numeric")


def _epsilon_exact(alpha: float, gamma: float, delta: float) -> float:
    # epsilon_exact's value, for arguments already checked; the accountant
    # scans it over a curve's orders without re-validating each one
    bound, branch = _epsilon_bound(alpha, gamma, delta)
    if branch == "g_bound" and _tail_excess(alpha, bound, delta) <= DEFAULT_ABS_TOL / 16.0:
        return bound

    def frontier(e: float) -> tuple[float, float]:
        gamma_e, state = _frontier(alpha, e, delta)
        return gamma_e, _envelope(alpha, e, delta, state)[0]

    return _newton_invert(frontier, gamma, 0.0, bound, DEFAULT_ABS_TOL)


def _envelope(alpha: float, epsilon: float, delta: float, state: Optional[tuple]) -> tuple[float, float, float, float]:
    # d gamma/d eps, d gamma/d delta, d gamma/d alpha and d2 gamma/d alpha2 at
    # the minimum a frontier solve kept, from its state (_frontier), with no
    # new evaluation; the edge value eps - log(1 - delta) (state None) has
    # 1, 1/(1 - delta), 0 and 0.  With the tail's share w, by the envelope
    # theorem gamma_eps = 1 - w e^eps/(e^eps - p + delta) and gamma_delta =
    # (1 - w)/(p - delta) - w/(e^eps - p + delta).  In the order, gamma =
    # eps + m/(alpha - 1), m the minimum of F over t.  Both atoms' logs are
    # linear in alpha, with slopes H = -log r and T = (tail - log_rest)/alpha
    # (see _objective); with d = T - H, F_alpha = H + w d,
    # F_alpha_alpha = w (1 - w) d^2, and H_t = -q, T_t = v - u and
    # w_t = w (1 - w)(b - a) give F_alpha_t = -q (1 - w) + w (v - u) + w (1 - w) d (b - a).
    # m' = F_alpha (envelope theorem), taken one Newton step on from where the
    # solve stopped, at F_alpha - F_alpha_t F_t/F_tt, which leaves the step's
    # square; m'' = F_alpha_alpha - F_alpha_t^2/F_tt (implicit-function
    # theorem).  With a = alpha - 1 and X = m' - m/a = a gamma', bounded where
    # gamma is, gamma' = X/a and gamma'' = (m'' - 2 X/a)/a
    if state is None:
        return 1.0, 1.0 / (1.0 - delta), 0.0, 0.0
    t, (value, f_t, f_tt, tail, log_rest, r, q, w, u, v, gap, m) = state
    log_w = tail - value
    slope_eps = -math.expm1(tail + epsilon - log_rest - value)
    # the head atom's share 1 - w over p - delta = e^t; where e^t is subnormal
    # or 0 it has lost its digits, and the ratio is taken in logs from t
    # itself, capped where it would overflow
    s = math.exp(t)
    if s >= sys.float_info.min:
        head_slope = -math.expm1(log_w) / s
    else:
        head_slope = math.exp(min(math.log(-math.expm1(log_w)) - t, 709.0)) if log_w < 0.0 else 0.0
    slope_delta = head_slope - math.exp(log_w - log_rest)
    h = -math.log(r)
    f_a, f_at, f_aa = h, -q, 0.0
    if w > 0.0:
        d = (tail - log_rest) / alpha - h
        mix = w * (1.0 - w) * d
        f_a, f_at, f_aa = h + w * d, -q * (1.0 - w) + w * (v - u) + mix * gap, mix * d
    if f_tt > 0.0:
        f_a -= f_at * f_t / f_tt
        f_aa -= f_at * f_at / f_tt
    a = alpha - 1.0
    x = f_a - m / a
    return slope_eps, slope_delta, x / a, (f_aa - 2.0 * x / a) / a


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
    return max(gamma + _moment_shift(alpha, delta), 0.0)


def _moment_shift(alpha: float, delta: float) -> float:
    # log(zeta(alpha)/delta)/(alpha - 1), the moment piece's shift of gamma:
    # Balle et al.'s conversion adds it, its inverse in gamma subtracts it
    return (_log_zeta(alpha) - math.log(delta)) / (alpha - 1.0)


def _chi_epsilon_piece(alpha: float, gamma: float, delta: float) -> float:
    # (1/(alpha-1)) log(1 + (e^{(alpha-1)gamma} - 1)/(alpha delta)),
    # x = (alpha-1)gamma, c = alpha delta < 1.  Below x = 30 log1p keeps
    # expm1(x) << c exact, and where expm1(x)/c overflows c is negligible next
    # to expm1(x); from 30 on it is x + log1p((c - 1) e^-x) - log c, whose
    # log1p term past x = 709 is below ulp(x)/2, x = inf included
    x = (alpha - 1.0) * gamma
    c = alpha * delta
    if x < 30.0:
        e = math.expm1(x)
        return (math.log1p(e / c) if e / c < math.inf else math.log(e) - math.log(c)) / (alpha - 1.0)
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
    return epsilon - _moment_shift(alpha, delta)


def _tail_excess(alpha: float, epsilon: float, delta: float) -> float:
    # eta = log1p(r)/(alpha - 1), r the tail atom of _objective over its head
    # atom at p = alpha delta < 1, t = log((alpha - 1) delta): the frontier
    # lies in [g, g + eta], g = _moment_gamma_piece.  The head atom is least
    # there, at delta/zeta(alpha), so g is the minimum with the tail dropped,
    # and the two atoms' sum there is an upper bound
    c = alpha - 1.0
    log_r = (
        alpha * math.log1p(-alpha * delta)
        - c * (epsilon + math.log1p(-c * delta * math.exp(-epsilon)))
        - math.log(delta)
        + _log_zeta(alpha)
    )
    return log_add(0.0, log_r) / c


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
    return gamma + _moment_shift(alpha, delta)


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
