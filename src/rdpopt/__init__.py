"""Optimal conversion from Renyi DP to approximate DP, with composition accounting.

The package is organized bottom-up:

  divergences   two-point hockey-stick and Renyi divergences
  optimize      Brent minimization and bracketed Newton inversion
  conversion    the exact conversion frontier and its closed-form bounds
  gaussian      T-fold Gaussian composition, ours versus moments accountant
  oracle        brute-force grid validation of the frontier
  cli           command-line front end (see `rdpopt --help`)

Only oracle needs numpy, so it is loaded on first use: importing the package
or running a subcommand other than oracle-check does not import numpy.
"""

from importlib import import_module

from .conversion import (
    ConversionResult,
    ZeroEpsilonRegion,
    balle_epsilon,
    baseline_delta,
    baseline_epsilon,
    boundary_objective,
    delta_bound,
    delta_exact,
    epsilon_bound,
    epsilon_exact,
    gamma_bound,
    gamma_exact,
    log_zeta,
    zero_epsilon_region,
)
from .divergences import BernoulliPair, hockey_stick_binary, renyi_binary
from .errors import AccountingError, DomainError, InfeasibleError
from .gaussian import (
    AccountedEpsilon,
    CurvePoint,
    GaussianConfig,
    RequiredVariance,
    acct_epsilon,
    ma_epsilon,
    ma_max_iterations,
    ma_required_variance,
    max_iterations,
    privacy_curve,
    required_variance,
    rho_gaussian,
    rho_subsampled,
)
from .optimize import ScalarSearchConfig, log_add, minimize_unimodal

# served by __getattr__ below, so that importing the package does not import numpy
_ORACLE_NAMES = frozenset({"GridSpec", "brute_force_gamma", "joint_range_containment", "verify_q_star"})

__version__ = "0.1.0"

__all__ = [
    "AccountedEpsilon",
    "AccountingError",
    "BernoulliPair",
    "ConversionResult",
    "CurvePoint",
    "DomainError",
    "GaussianConfig",
    "GridSpec",
    "InfeasibleError",
    "RequiredVariance",
    "ScalarSearchConfig",
    "ZeroEpsilonRegion",
    "acct_epsilon",
    "balle_epsilon",
    "baseline_delta",
    "baseline_epsilon",
    "boundary_objective",
    "brute_force_gamma",
    "delta_bound",
    "delta_exact",
    "epsilon_bound",
    "epsilon_exact",
    "gamma_bound",
    "gamma_exact",
    "hockey_stick_binary",
    "joint_range_containment",
    "log_add",
    "log_zeta",
    "ma_epsilon",
    "ma_max_iterations",
    "ma_required_variance",
    "max_iterations",
    "minimize_unimodal",
    "privacy_curve",
    "renyi_binary",
    "required_variance",
    "rho_gaussian",
    "rho_subsampled",
    "verify_q_star",
    "zero_epsilon_region",
]


def __getattr__(name: str):
    # PEP 562: called only for names not yet in the module namespace
    if name == "oracle":
        return import_module(".oracle", __name__)
    if name in _ORACLE_NAMES:
        return getattr(import_module(".oracle", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
