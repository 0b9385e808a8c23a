"""Optimal uniform-grid quadrature on [0,1] for the seminorm |f''+f'|_L2.

Weights from the printed closed form and from the O(n) stationarity-system
solve, four cross-validated evaluations of the squared error-functional
norm, and a CLI for reproducible reports.
"""
from .coefficients import (
    QuadratureRule,
    constraint_residuals,
    make_rule,
    optimal_coefficients,
)
from .kernel import (
    IntegrationBudgetError,
    IntegrationResult,
    double_moment,
    integrate_adaptive,
    moment,
    psi,
)
from .norm import (
    MultiplierPair,
    NormReport,
    build_report,
    closed_rule_norm,
    geometric_sums,
    minimizer_audit,
    multiplier_routes,
    multipliers_closed_form,
    norm_theorem2,
)
from .quadrature import (
    CATALOG,
    ConvergenceRow,
    ErrorCheck,
    TestFunction,
    apply_rule,
    convergence_table,
    error_check,
    sobolev_seminorm,
)
from .spectral import SpectralConstants, constants, lambda1
from .wiener_hopf import (
    DENSE_MAX_N,
    SingularSystemError,
    SystemSolution,
    solve_uniform,
    solve_weights,
)

__version__ = "0.1.0"

__all__ = [
    "CATALOG",
    "DENSE_MAX_N",
    "ConvergenceRow",
    "ErrorCheck",
    "IntegrationBudgetError",
    "IntegrationResult",
    "MultiplierPair",
    "NormReport",
    "QuadratureRule",
    "SingularSystemError",
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
    "integrate_adaptive",
    "lambda1",
    "make_rule",
    "minimizer_audit",
    "moment",
    "multiplier_routes",
    "multipliers_closed_form",
    "norm_theorem2",
    "optimal_coefficients",
    "psi",
    "solve_uniform",
    "solve_weights",
    "sobolev_seminorm",
]
