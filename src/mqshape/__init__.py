"""Optimal shape parameter selection for (inverse) multiquadric kernels.

The package derives the admissibility constants of the underlying error
bound, evaluates the c-dependent criterion curves in the log domain,
minimizes them over the admissible interval, and validates the machinery
by fitting real interpolants and comparing measured errors against the
full bounds.

Importing the package loads neither numpy nor scipy: the selection layers
(constants, criterion, optimizer) are pure ``math`` code.  The exports of
:mod:`mqshape.rbf` and :mod:`mqshape.verify`, and those two submodules,
are resolved on first use, which imports numpy; the first factorization
in :func:`fit` loads scipy's LAPACK extension, but not the
``scipy.linalg`` package.
"""

import importlib

from .constants import (
    DerivedConstants,
    LogScalar,
    Mode,
    ProblemSpec,
    cpd_order,
    d0_constant,
    derive_constants,
    gamma_seq,
    multiindex_count,
    rho_delta0,
)
from .criterion import (
    CriterionKind,
    CurveSample,
    Regime,
    kind_for,
    log_h_beta_neg1_multid,
    log_h_beta_neg1_oned,
    log_h_general,
    log_h_unified,
    log_lambda_pow,
    regime_for,
    sample_curve,
    xi_star,
)
from .errors import (
    ConditioningError,
    InputError,
    MqShapeError,
    NumericError,
    PreconditionError,
    SpecError,
)
from .optimizer import (
    OptimalResult,
    minimize_scalar,
    optimal_c,
)
# Exports resolved on first use: name -> the submodule that defines it.
_LAZY = {
    "Interpolant": "rbf",
    "Kernel": "rbf",
    "NodeSet": "rbf",
    "condition_estimate": "rbf",
    "evaluate": "rbf",
    "fill_distance": "rbf",
    "fit": "rbf",
    "kernel_eval": "rbf",
    "poly_basis": "rbf",
    "uniform_grid": "rbf",
    "BoundReport": "verify",
    "GaussianBump": "verify",
    "e_sigma_norm": "verify",
    "error_bound": "verify",
    "run_bound_experiment": "verify",
}
_LAZY_SUBMODULES = ("rbf", "verify")

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "ConditioningError",
    "CriterionKind",
    "CurveSample",
    "DerivedConstants",
    "GaussianBump",
    "InputError",
    "Interpolant",
    "Kernel",
    "LogScalar",
    "Mode",
    "MqShapeError",
    "NodeSet",
    "NumericError",
    "OptimalResult",
    "PreconditionError",
    "ProblemSpec",
    "Regime",
    "SpecError",
    "condition_estimate",
    "cpd_order",
    "d0_constant",
    "derive_constants",
    "e_sigma_norm",
    "error_bound",
    "evaluate",
    "fill_distance",
    "fit",
    "gamma_seq",
    "kernel_eval",
    "kind_for",
    "log_h_beta_neg1_multid",
    "log_h_beta_neg1_oned",
    "log_h_general",
    "log_h_unified",
    "log_lambda_pow",
    "minimize_scalar",
    "multiindex_count",
    "optimal_c",
    "poly_basis",
    "regime_for",
    "rho_delta0",
    "run_bound_experiment",
    "sample_curve",
    "uniform_grid",
    "xi_star",
]


def __getattr__(name: str):
    if name in _LAZY_SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _LAZY:
        value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY, *_LAZY_SUBMODULES})
