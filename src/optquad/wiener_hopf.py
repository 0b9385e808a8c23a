"""The stationarity system for the rule weights, and its solution on the uniform grid.

Minimizing the error-norm quadratic form over the weights, subject to the
two moment constraints, yields a discrete Wiener-Hopf-type linear system:
one kernel row per node,

    sum_g C_g psi_2(x_b - x_g) + b0 + d e^(-x_b) = moment(x_b),

plus the constraint rows sum C = 1 and sum C e^(-x) = 1 - e^-1, where b0 and
d are the Lagrange multipliers of the constraints.

On the uniform grid with n subintervals its solution is known in closed
form.  By Schoenberg's theorem (Bull. AMS 70, 1964) the minimizing rule
integrates the natural spline of span{1, x, e^x, e^-x} through the
samples (an exponential spline in tension 1), so its weights are the
trapezoid weights plus the second differences over h of the solution of
that spline's adjoint tridiagonal system.  The system is Toeplitz inside
with two end rows, so its solution is a constant plus mu^k and mu^(n-k),
mu the root of its symbol inside the unit circle, and the end rows fix
the two amplitudes through one 2 x 2 system.  The weights are h plus
two geometric boundary layers in mu at every n >= 1, and the kernel rows
0 and n give the multipliers.  That is norm's exact minimizer, formed in
56-digit decimal in O(1) work at every n; the norm report and `norm
--methods multiplier|expanded` read it too.  (Sobolev's discrete
analogue of the operator, a five-tap filter on the kernel rows, gives
the same layers: Sobolev, Introduction to the Theory of Cubature
Formulas, 1974; Hayotov, Milovanovic and Shadimetov, Numer. Algorithms
57, 2011.  The tests keep that bordered solve as an oracle.)

solve_uniform returns its weights and multipliers in float64 together
with their residual in the system above, which `coeffs --method
system` prints: the worst kernel row, an O(n^2) convolution that keeps
the size cap of spectral.DENSE_MAX_N subintervals, or either of the
constraint residuals printed beside it (coefficients.constraint_residuals,
compensated).  The CLI imports this module for `coeffs --method system`
alone.  The dense assembly for arbitrary nodes, O(count^3), is a test
oracle (tests/oracles.py).
"""
from __future__ import annotations

from collections import namedtuple

import numpy as np

from .coefficients import QuadratureRule, constraint_residuals
from .kernel import moment, psi
from .norm import minimizer_weights
from .spectral import DENSE_MAX_N

__all__ = [
    "SystemSolution",
    "solve_uniform",
]


SystemSolution = namedtuple("SystemSolution", ["nodes", "c", "b0", "d", "residual_inf",
                                               "residual_constraint_sum", "residual_constraint_exp_neg"])
SystemSolution.__doc__ = ("The system's weights c and multipliers b0, d on the nodes, their largest residual"
                          " and its two constraint terms.")


def solve_uniform(n: int) -> SystemSolution:
    """The system's solution on the uniform grid with n subintervals, 1 <= n <= DENSE_MAX_N.

    The weights, b0 and d are norm.minimizer_weights(n), the exact
    minimizer in float64: h, with its two end windows filled in, as
    coefficients.optimal_coefficients fills the printed rule's; the
    nodes are k/n, correctly rounded.
    residual_inf is the largest residual in the system: the
    worst kernel row, an O(n^2) convolution, or either of the two
    constraint_residuals, which it carries for `coeffs` to print beside it.
    """
    if n < 1:
        raise ValueError("grid size must be >= 1")
    if n > DENSE_MAX_N:
        raise ValueError(f"the system solve is capped at n = {DENSE_MAX_N}")
    windows, h, b0, d = minimizer_weights(n)
    c = np.full(n + 1, h)
    for first, last, weights in windows:
        c[first:last + 1] = weights
    x = np.arange(n + 1) / n
    rule = QuadratureRule(n=n, h=h, nodes=x, coefficients=c)
    samples = psi(2, x)
    toeplitz = np.concatenate([samples[:0:-1], samples])  # matrix-free kernel rows
    rows = np.convolve(toeplitz, rule.coefficients, "valid") + b0 + d * np.exp(-x) - moment(x)
    r1, r2 = constraint_residuals(rule)
    return SystemSolution(nodes=x, c=rule.coefficients, b0=b0, d=d,
                          residual_inf=float(max(np.abs(rows).max(), r1, r2)),
                          residual_constraint_sum=r1, residual_constraint_exp_neg=r2)
