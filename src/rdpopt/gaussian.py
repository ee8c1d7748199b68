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
"closed_form" and the numeric inversion epsilon_exact in mode "exact".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .conversion import Branch, _epsilon_bound, epsilon_exact, log_zeta
from .errors import DomainError, InfeasibleError, _check_positive, _check_unit
from .optimize import DEFAULT_SEARCH, ScalarSearchConfig, minimize_unimodal

MODES = ("closed_form", "exact")

# exact mode's order scan and the epsilon_exact inversion at each order it
# visits: every order costs a nested search, so both run coarser than
# DEFAULT_SEARCH
_EXACT_ORDERS = ScalarSearchConfig(abs_tol=1e-6, coarse_grid=64)
_EXACT_INNER = ScalarSearchConfig(abs_tol=1e-9, coarse_grid=32)


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
    return s + math.sqrt(4.0 * s * math.log(1.0 / delta))


def _check_steps(T: float) -> None:
    if not (math.isfinite(T) and T >= 1):
        raise DomainError(f"T must be >= 1, got {T!r}")


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


def _min_over_orders(objective, delta: float, cfg: ScalarSearchConfig = DEFAULT_SEARCH) -> tuple[float, float]:
    # minimize over alpha in (1, 1/delta], searching log(alpha - 1) so that
    # orders near 1 and near 1/delta get comparable resolution
    u_hi = math.log(1.0 / delta - 1.0)
    u_lo = min(math.log(1e-6), u_hi - 1.0)
    u, value = minimize_unimodal(lambda t: objective(1.0 + math.exp(t)), u_lo, u_hi, cfg)
    alpha_end = 1.0 / delta
    v_end = objective(alpha_end)
    if v_end < value:
        return alpha_end, v_end
    return 1.0 + math.exp(u), value


def acct_epsilon(rho: float, T: float, delta: float, mode: str = "closed_form") -> AccountedEpsilon:
    """Epsilon after T compositions at rate rho, via the conversion frontier.

    The T-fold composition satisfies (alpha, rho T alpha)-Renyi DP at every
    order, so epsilon is the minimum over alpha in (1, 1/delta] of the
    conversion of that guarantee:

      closed_form   epsilon_bound(alpha, rho T alpha, delta)
      exact         epsilon_exact(alpha, rho T alpha, delta)

    Exact mode also tries the closed-form argmin, so it is never worse than
    closed-form mode up to search tolerance.  The closed-form order scan
    runs at DEFAULT_SEARCH; exact mode scans orders to 1e-6 and inverts at
    each one to 1e-9.
    """
    _check_positive(rho, "rho")
    _check_steps(T)
    _check_delta(delta)
    if mode not in MODES:
        raise DomainError(f"mode must be one of {MODES}, got {mode!r}")
    rho_T = rho * T
    a_closed, _ = _min_over_orders(lambda a: _epsilon_bound(a, rho_T * a, delta)[0], delta)
    eps_closed, branch = _epsilon_bound(a_closed, rho_T * a_closed, delta)
    if mode == "closed_form":
        return AccountedEpsilon(eps_closed, a_closed, branch, mode)

    def exact_at(alpha: float) -> float:
        return epsilon_exact(alpha, rho_T * alpha, delta, _EXACT_INNER).value

    # _min_over_orders already compares the alpha = 1/delta endpoint
    a_best, v_best = _min_over_orders(exact_at, delta, _EXACT_ORDERS)
    v_seed = exact_at(a_closed)
    if v_seed < v_best:
        a_best, v_best = a_closed, v_seed
    return AccountedEpsilon(v_best, a_best, None, mode)


def max_iterations(rho: float, epsilon: float, delta: float, mode: str = "closed_form") -> int:
    """Largest integer T whose accounted epsilon stays within the budget.

    Each candidate T is accounted by acct_epsilon in the given mode.
    """
    _check_positive(epsilon, "epsilon budget")
    return _largest_T(lambda T: acct_epsilon(rho, T, delta, mode).epsilon, epsilon)


def ma_max_iterations(rho: float, epsilon: float, delta: float) -> int:
    """Largest integer T whose moments-accountant epsilon stays within the budget."""
    _check_positive(epsilon, "epsilon budget")
    return _largest_T(lambda T: ma_epsilon(rho, T, delta), epsilon)


def _largest_T(eps_at, budget: float) -> int:
    # eps_at is nondecreasing in T; exponential bracket then integer bisection
    if eps_at(1) > budget:
        return 0
    lo, hi = 1, 2
    while eps_at(hi) <= budget:
        lo = hi
        hi *= 2
        if hi > 2**62:
            raise InfeasibleError("iteration budget exceeds 2^62; rate is effectively zero")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if eps_at(mid) <= budget:
            lo = mid
        else:
            hi = mid
    return lo


def ma_required_variance(T: float, epsilon: float, delta: float) -> float:
    """Noise variance making the moments-accountant epsilon equal the budget.

    Inverts eps = x + sqrt(4 x log(1/delta)) at x = rho*T, using the stable
    root x = (sqrt(eps + log(1/delta)) - sqrt(log(1/delta)))^2, then
    sigma^2 = T / (2 x).
    """
    _check_steps(T)
    _check_positive(epsilon, "epsilon budget")
    _check_delta(delta)
    big_l = math.log(1.0 / delta)
    x = (math.sqrt(epsilon + big_l) - math.sqrt(big_l)) ** 2
    if not x > 0.0:
        raise InfeasibleError(f"budget epsilon={epsilon!r} admits no positive rate at delta={delta!r}")
    return T / (2.0 * x)


@dataclass(frozen=True)
class RequiredVariance:
    """Noise variance certified by the frontier's moment piece.

    sigma_sq is the numeric infimum over feasible orders (the primary
    answer); sigma_sq_at_alpha_star is the plug-in evaluation at
    alpha_star = 2 log(1/delta)/eps, or None when that order is infeasible.
    """

    sigma_sq: float
    argmin_alpha: float
    alpha_star: float
    sigma_sq_at_alpha_star: Optional[float]


def required_variance(T: float, epsilon: float, delta: float) -> RequiredVariance:
    """Smallest unit-sensitivity variance whose accounted epsilon meets the budget.

    Minimizes sigma^2(alpha) = alpha T / (2 eps + (2/(alpha-1)) log(delta/zeta(alpha)))
    over the orders where the denominator is positive, searching at
    DEFAULT_SEARCH.  Requires eps > 2 delta log(1/delta) so that some order
    is feasible.
    """
    _check_steps(T)
    _check_positive(epsilon, "epsilon budget")
    _check_delta(delta)
    threshold = 2.0 * delta * math.log(1.0 / delta)
    if not epsilon > threshold:
        raise DomainError(
            f"epsilon must exceed 2*delta*log(1/delta) = {threshold!r}, got {epsilon!r}"
        )
    ld = math.log(delta)

    def denom(alpha: float) -> float:
        return 2.0 * epsilon + 2.0 * (ld - log_zeta(alpha)) / (alpha - 1.0)

    def objective(alpha: float) -> float:
        d = denom(alpha)
        return alpha * T / d if d > 0.0 else math.inf

    argmin_alpha, sigma_sq = _min_over_orders(objective, delta)
    alpha_star = 2.0 * math.log(1.0 / delta) / epsilon
    plug = None
    if 1.0 < alpha_star <= 1.0 / delta:
        d_star = denom(alpha_star)
        if d_star > 0.0:
            plug = alpha_star * T / d_star
    return RequiredVariance(
        sigma_sq=sigma_sq,
        argmin_alpha=argmin_alpha,
        alpha_star=alpha_star,
        sigma_sq_at_alpha_star=plug,
    )


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
