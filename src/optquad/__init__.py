"""Optimal uniform-grid quadrature on [0,1] for the seminorm |f''+f'|_L2.

Weights from the printed closed form, the dense stationarity-system oracle,
four cross-validated evaluations of the squared error-functional norm, and
a CLI for reproducible reports.
"""
from .coefficients import (
    QuadratureRule,
    constraint_residuals,
    make_rule,
    optimal_coefficients,
    trapezoid_rule,
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
    InconsistentMultipliersError,
    MultiplierPair,
    NormReport,
    build_report,
    dense_multipliers,
    geometric_sums,
    multiplier_routes,
    multipliers_closed_form,
    norm_expanded,
    norm_quadratic_form,
    norm_theorem2,
    norm_via_multipliers,
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
    build_system,
    solve_dense,
    solve_for_nodes,
    solve_uniform,
)

__version__ = "0.1.0"

__all__ = [
    "CATALOG",
    "DENSE_MAX_N",
    "ConvergenceRow",
    "ErrorCheck",
    "IntegrationBudgetError",
    "IntegrationResult",
    "InconsistentMultipliersError",
    "MultiplierPair",
    "NormReport",
    "QuadratureRule",
    "SingularSystemError",
    "SpectralConstants",
    "SystemSolution",
    "TestFunction",
    "apply_rule",
    "build_report",
    "build_system",
    "constants",
    "constraint_residuals",
    "convergence_table",
    "dense_multipliers",
    "double_moment",
    "error_check",
    "geometric_sums",
    "integrate_adaptive",
    "lambda1",
    "make_rule",
    "moment",
    "multiplier_routes",
    "multipliers_closed_form",
    "norm_expanded",
    "norm_quadratic_form",
    "norm_theorem2",
    "norm_via_multipliers",
    "optimal_coefficients",
    "psi",
    "solve_dense",
    "solve_for_nodes",
    "solve_uniform",
    "sobolev_seminorm",
    "trapezoid_rule",
]
