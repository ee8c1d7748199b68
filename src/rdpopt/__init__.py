"""Optimal conversion from Renyi DP to approximate DP, with composition accounting.

The package is organized bottom-up:

  optimize      bracketed Newton inversion, the one search, and log_add
  conversion    the exact conversion frontier and its closed-form bounds
  gaussian      T-fold Gaussian composition, ours versus moments accountant
  oracle        two-point divergences and brute-force grid validation of the frontier
  cli           command-line front end (see `rdpopt --help`)

Every public name, and the submodule that defines it, is loaded on first
use, so importing the package loads no submodule; only oracle needs numpy,
so a subcommand other than oracle-check does not import numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name and the submodule that defines it
_NAMES = {
    "AccountedEpsilon": "gaussian",
    "AccountingError": "errors",
    "ConversionResult": "conversion",
    "CurvePoint": "gaussian",
    "DomainError": "errors",
    "GaussianConfig": "gaussian",
    "GridSpec": "oracle",
    "InfeasibleError": "errors",
    "RenyiCurve": "gaussian",
    "RequiredVariance": "gaussian",
    "ZeroEpsilonRegion": "conversion",
    "acct_epsilon": "gaussian",
    "balle_epsilon": "conversion",
    "baseline_delta": "conversion",
    "baseline_epsilon": "conversion",
    "boundary_objective": "conversion",
    "brute_force_gamma": "oracle",
    "delta_bound": "conversion",
    "delta_exact": "conversion",
    "epsilon_bound": "conversion",
    "epsilon_exact": "conversion",
    "gamma_bound": "conversion",
    "gamma_exact": "conversion",
    "joint_range_containment": "oracle",
    "log_add": "optimize",
    "log_zeta": "conversion",
    "ma_epsilon": "gaussian",
    "ma_max_iterations": "gaussian",
    "ma_required_variance": "gaussian",
    "max_iterations": "gaussian",
    "privacy_curve": "gaussian",
    "required_variance": "gaussian",
    "rho_gaussian": "gaussian",
    "rho_subsampled": "gaussian",
    "verify_q_star": "oracle",
    "zero_epsilon_region": "conversion",
}

__all__ = list(_NAMES)


def __getattr__(name: str):
    # PEP 562: called only for names not yet in the module namespace, so each
    # is looked up once and then served from the module's globals
    if name in _NAMES:
        value = getattr(import_module("." + _NAMES[name], __name__), name)
    elif name in _NAMES.values():
        value = import_module("." + name, __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    # the names __getattr__ serves are listed before their first use too
    return sorted({*globals(), *_NAMES, *_NAMES.values()})
