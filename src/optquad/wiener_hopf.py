"""The stationarity system for the rule weights, and its solution on the uniform grid.

Minimizing the error-norm quadratic form over the weights, subject to the
two moment constraints, yields a discrete Wiener-Hopf-type linear system:
one kernel row per node,

    sum_g C_g psi_2(x_b - x_g) + b0 + d e^(-x_b) = moment(x_b),

plus the constraint rows sum C = 1 and sum C e^(-x) = 1 - e^-1, where b0 and
d are the Lagrange multipliers of the constraints.

On the uniform grid with n subintervals it is solved by Sobolev's discrete
analogue of the operator (Sobolev, Introduction to the Theory of Cubature
Formulas, 1974; Hayotov, Milovanovic and Shadimetov, Numer. Algorithms 57,
2011).  The samples psi_2(kh) satisfy the recurrence with characteristic
polynomial (z-1)^2 (z-e^h) (z-e^-h), so the filter

    [1, -(a+2), 2a+2, -(a+2), 1],  a = 2 cosh h,

applied to kernel rows i-2 .. i+2 removes both multiplier columns and
leaves the band g1 C_(i-1) + g0 C_i + g1 C_(i+1) (spectral.filter_band)
with the right-hand side (g0 + 2 g1) h, for every i = 2 .. n-2.  Its
solutions are h plus A mu^(b-1) + B mu^(n-1-b) on the interior nodes, mu
the root of g1 z^2 + g0 z + g1 inside the unit circle.  The amplitudes A
and B, the end weights and both multipliers then solve a bordered system
of at most 6 x 6: four unfiltered kernel rows and the two constraints.
Below n = 4 no row is filtered and the same bordered solve keeps every
row.  That solve is norm's exact minimizer, every entry a closed-form sum
in 56-digit decimal, O(1) work at every n; the norm report and `norm
--methods multiplier|expanded` read it too.

solve_uniform returns its weights and multipliers in float64 together
with their residual in the unfiltered system, an O(n^2) convolution that
`coeffs --method system` prints; that residual keeps the size cap of
spectral.DENSE_MAX_N subintervals.  The residual is numpy float64, so the
CLI imports this module for `coeffs --method system` alone.  The dense
assembly for arbitrary nodes, O(count^3), is a test oracle
(tests/oracles.py).
"""
from __future__ import annotations

from collections import namedtuple

import numpy as np

from .kernel import moment, psi
from .norm import minimizer_weights
from .spectral import DENSE_MAX_N

__all__ = [
    "SystemSolution",
    "solve_uniform",
]


SystemSolution = namedtuple("SystemSolution", ["nodes", "c", "b0", "d", "residual_inf"])
SystemSolution.__doc__ = "The system's weights c and multipliers b0, d on the nodes, and their largest residual."


def _residual_inf(x: np.ndarray, c: np.ndarray, b0: float, d: float) -> float:
    """Largest residual of (c, b0, d) in the unfiltered system on the nodes x, matrix-free."""
    samples = psi(2, x)
    en = np.exp(-x)
    toeplitz = np.concatenate([samples[:0:-1], samples])
    rows = np.convolve(toeplitz, c, "valid") + b0 + d * en - moment(x)
    constraints = [c.sum() - 1.0, en @ c + np.expm1(-1.0)]
    return float(max(np.abs(rows).max(), *np.abs(constraints)))


def solve_uniform(n: int) -> SystemSolution:
    """The system's solution on the uniform grid with n subintervals, 1 <= n <= DENSE_MAX_N.

    The weights, b0 and d are norm.minimizer_weights(n), the exact
    minimizer in float64; the nodes are k/n, correctly rounded.
    residual_inf is the largest residual in the unfiltered system, every
    kernel row and both constraints, an O(n^2) convolution.
    """
    if n < 1:
        raise ValueError("grid size must be >= 1")
    if n > DENSE_MAX_N:
        raise ValueError(f"the system solve is capped at n = {DENSE_MAX_N}")
    c, b0, d = minimizer_weights(n)
    x = np.arange(n + 1) / n
    c = np.array(c)
    return SystemSolution(nodes=x, c=c, b0=b0, d=d, residual_inf=_residual_inf(x, c, b0, d))
