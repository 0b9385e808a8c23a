"""Optimal uniform-grid quadrature on [0,1] for the seminorm |f''+f'|_L2.

Weights from the printed closed form and from the exact solve of the
stationarity system, four cross-validated evaluations of the squared
error-functional norm, and a CLI for reproducible reports.

`import optquad` loads the standard library alone: the norm report and
its routes, the system's exact minimizer, the printed rule's norm and
spectral constants are bound here on import.  Every record in the package,
NormReport and SpectralConstants as well as the array modules' ones, is a
namedtuple, read with _asdict(), _replace() and _fields: no module uses
dataclasses, which would load inspect, ast, dis and tokenize.  The names
backed by numpy arrays (weights as arrays, the kernel and its moment, the
system solution with its residual and the quadrature audits, whose catalog
carries each function's seminorm in closed form) are imported from their
modules on first access, through the module __getattr__ below, and that
first access loads numpy.  Nothing in the package integrates numerically;
the adaptive integrator is a test oracle (tests/oracles.py).
"""
import importlib

from .norm import (
    NormReport,
    build_report,
    closed_rule_norm,
    double_moment,
    geometric_sums,
    minimizer_audit,
    minimizer_weights,
    multiplier_routes,
    norm_theorem2,
)
from .spectral import DENSE_MAX_N, SpectralConstants, constants, lambda1

__version__ = "0.1.0"

__all__ = [
    "CATALOG",
    "DENSE_MAX_N",
    "ConvergenceRow",
    "ErrorCheck",
    "NormReport",
    "QuadratureRule",
    "SpectralConstants",
    "SystemSolution",
    "TestFunction",
    "apply_rule",
    "build_report",
    "closed_rule_norm",
    "constants",
    "constraint_residuals",
    "convergence_table",
    "double_moment",
    "error_check",
    "geometric_sums",
    "lambda1",
    "minimizer_audit",
    "minimizer_weights",
    "moment",
    "multiplier_routes",
    "norm_theorem2",
    "optimal_coefficients",
    "psi",
    "solve_uniform",
]

# The numpy-backed names of __all__, by the module that defines them.
_ARRAY_MODULES = {
    "coefficients": ("QuadratureRule", "constraint_residuals", "optimal_coefficients"),
    "kernel": ("moment", "psi"),
    "quadrature": ("CATALOG", "ConvergenceRow", "ErrorCheck", "TestFunction", "apply_rule",
                   "convergence_table", "error_check"),
    "wiener_hopf": ("SystemSolution", "solve_uniform"),
}
_ARRAY_NAMES = {name: module for module, names in _ARRAY_MODULES.items() for name in names}


def __getattr__(name: str):
    """A numpy-backed name of __all__, imported from its module on first access."""
    module = _ARRAY_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups find it without __getattr__
    return value
