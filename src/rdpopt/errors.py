"""Exception types shared across the package, and the argument range checks that raise them."""

import math


class AccountingError(Exception):
    """Base class for every error this package raises deliberately."""


class DomainError(AccountingError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class InfeasibleError(AccountingError):
    """No value in the searched region can satisfy the requested constraint."""


def _check_alpha(alpha: float) -> None:
    if not (math.isfinite(alpha) and alpha > 1.0):
        raise DomainError(f"order alpha must be finite and > 1, got {alpha!r}")


def _check_positive(x: float, name: str) -> None:
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"{name} must be finite and > 0, got {x!r}")


def _check_nonnegative(x: float, name: str) -> None:
    if not (math.isfinite(x) and x >= 0.0):
        raise DomainError(f"{name} must be finite and >= 0, got {x!r}")


def _check_unit(x: float, name: str, *, allow_zero: bool = False) -> None:
    # membership in (0, 1), or [0, 1) with allow_zero; NaN fails both comparisons
    lo_ok = x >= 0.0 if allow_zero else x > 0.0
    if not (lo_ok and x < 1.0):
        raise DomainError(f"{name} must lie in {'[0, 1)' if allow_zero else '(0, 1)'}, got {x!r}")


def _check_alpha_eps_delta(alpha: float, epsilon: float, delta: float) -> None:
    _check_alpha(alpha)
    _check_nonnegative(epsilon, "epsilon")
    _check_unit(delta, "delta", allow_zero=True)


def _check_alpha_gamma_delta(alpha: float, gamma: float, delta: float) -> None:
    _check_alpha(alpha)
    _check_nonnegative(gamma, "gamma")
    _check_unit(delta, "delta")


def _check_alpha_gamma_eps(alpha: float, gamma: float, epsilon: float) -> None:
    _check_alpha(alpha)
    _check_nonnegative(gamma, "gamma")
    _check_nonnegative(epsilon, "epsilon")
