"""The stationarity system for the rule weights and its O(n) solve.

Minimizing the error-norm quadratic form over the weights, subject to the
two moment constraints, yields a discrete Wiener-Hopf-type linear system:
one kernel row per node,

    sum_g C_g psi_2(x_b - x_g) + b0 + d e^(-x_b) = moment(x_b),

plus the constraint rows sum C = 1 and sum C e^(-x) = 1 - e^-1, where b0 and
d are the Lagrange multipliers of the constraints.

solve_uniform solves it on the uniform grid with n subintervals in O(n),
by Sobolev's discrete analogue of the operator (Sobolev, Introduction to
the Theory of Cubature Formulas, 1974; Hayotov, Milovanovic and
Shadimetov, Numer. Algorithms 57, 2011).  The samples psi_2(kh) satisfy
the recurrence with characteristic polynomial (z-1)^2 (z-e^h) (z-e^-h),
so the filter

    [1, -(a+2), 2a+2, -(a+2), 1],  a = 2 cosh h,

applied to kernel rows i-2 .. i+2 removes both multiplier columns and
leaves the band g1 C_(i-1) + g0 C_i + g1 C_(i+1) (spectral.filter_band,
which the norm report's decimal solve shares) with the right-hand side
(g0 + 2 g1) h, for every i = 2 .. n-2.  Its solutions are
h plus A mu^(b-1) + B mu^(n-1-b) on the interior nodes, mu the root of
g1 z^2 + g0 z + g1 inside the unit circle.  The amplitudes A and B, the
end weights and both multipliers then solve a bordered system of at most
6 x 6: four unfiltered kernel rows (kept_rows) and the two constraints,
each entry an O(n) dot product.  Below n = 4 no row is filtered and the
same bordered solve keeps every row.  solve_weights returns the weights
and multipliers; solve_uniform returns them with the residual in the
unfiltered system, an O(n^2) convolution that only `coeffs --method
system` prints.  Both keep the size cap of spectral.DENSE_MAX_N
subintervals.  The solve is numpy float64, so the CLI imports this module
only for `coeffs --method system` and norm's multiplier|expanded routes.
The norm report solves a bordered system of the same shape in decimal,
every entry in closed form (norm.build_report), without numpy.
The dense assembly for arbitrary nodes, O(count^3), is a test oracle
(tests/oracles.py) and shares _equilibrated_solve with solve_uniform.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import moment, psi
from .spectral import DENSE_MAX_N, filter_band

__all__ = [
    "SingularSystemError",
    "SystemSolution",
    "kept_rows",
    "solve_uniform",
    "solve_weights",
]

_RCOND_FLOOR = float(np.finfo(float).eps)


class SingularSystemError(ValueError):
    """The system is singular to working precision."""


@dataclass(frozen=True, eq=False)
class SystemSolution:
    nodes: np.ndarray
    c: np.ndarray
    b0: float
    d: float
    residual_inf: float


def _equilibrated_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve by LAPACK after scaling every row to unit max-norm.

    SingularSystemError is raised on an identically zero row, on a singular
    LU factor, or when the 1-norm reciprocal condition number of the
    equilibrated matrix is below machine epsilon.
    """
    scale = np.abs(matrix).max(axis=1)
    if not np.all(scale > 0.0):
        raise SingularSystemError("system has an identically zero row")
    a = matrix / scale[:, None]
    try:
        x = np.linalg.solve(a, rhs / scale)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"LAPACK: {exc}") from None
    rcond = 1.0 / np.linalg.cond(a, 1)
    if rcond < _RCOND_FLOOR:
        raise SingularSystemError(f"reciprocal condition number {rcond:.3e} below {_RCOND_FLOOR:.3e}")
    return x


def kept_rows(n: int) -> np.ndarray:
    """The kernel rows the O(n) solve keeps unfiltered, n subintervals.

    Every row below n = 4, where no row is filtered; from n = 4 the rows
    0, n//3, 2n//3 and n.  Kernel-row residuals away from these rows are
    interpolated between them by span{1, x, e^x, e^-x}, so spread rows
    pass on their rounding about unchanged.  Rows 0, 1, n-1 and n would
    amplify it about 40-fold at n = 512, to a residual of 1.6e-16, and
    through it an error of 0.5 % in the multiplier route.
    """
    if n < 4:
        return np.arange(n + 1)
    return np.array([0, n // 3, 2 * n // 3, n])


class _UniformGrid:
    """Samples and bordered-system basis of the uniform grid with n subintervals.

    The nodes are k/n, correctly rounded, and psi_k = psi_2(k/n): the
    kernel matrix is the symmetric Toeplitz matrix of psi_0 .. psi_n.
    """

    def __init__(self, n: int):
        self.n = n
        self.x = np.arange(n + 1) / n
        self.en = np.exp(-self.x)
        self.psi = psi(2, self.x)
        self.rows = kept_rows(n)
        self.kept = self.psi[np.abs(self.rows[:, None] - np.arange(n + 1))]
        if n < 4:
            self.basis = np.eye(n + 1)
            return
        g0, g1 = filter_band(*self.psi[1:4], 2.0 * math.cosh(1.0 / n))
        kappa = g1 / g0
        self.mu = -2.0 * kappa / (1.0 + math.sqrt(1.0 - 4.0 * kappa * kappa))
        # C_0, C_n and the interior homogeneous solutions mu^(b-1), mu^(n-1-b)
        self.basis = np.zeros((n + 1, 4))
        self.basis[0, 0] = self.basis[n, 1] = 1.0
        self.basis[1:n, 2] = self.mu ** np.arange(n - 1)
        self.basis[1:n, 3] = self.basis[n - 1:0:-1, 2]

    def solve(self) -> np.ndarray:
        """Unknowns C_0 .. C_n, b0, d, from the bordered system.

        The weights are h on the interior (nothing below n = 4) plus
        basis @ theta; theta and both multipliers solve the kept kernel
        rows and the two constraints.
        """
        n = self.n
        particular = np.zeros(n + 1)
        if n >= 4:
            particular[1:n] = 1.0 / n
        kept_rhs = moment(self.x[self.rows])
        constraint_rhs = np.array([1.0, -np.expm1(-1.0)])
        q = self.basis.shape[1]
        k = self.rows.size
        m = np.zeros((k + 2, q + 2))
        m[:k, :q] = self.kept @ self.basis
        m[:k, q] = 1.0
        m[:k, q + 1] = self.en[self.rows]
        m[k, :q] = self.basis.sum(axis=0)
        m[k + 1, :q] = self.en @ self.basis
        r = np.concatenate([
            kept_rhs - self.kept @ particular,
            constraint_rhs - [particular.sum(), self.en @ particular],
        ])
        theta = _equilibrated_solve(m, r)
        return np.concatenate([particular + self.basis @ theta[:q], theta[q:]])

    def residual_inf(self, x: np.ndarray) -> float:
        """Largest residual of x in the unfiltered system, matrix-free."""
        n = self.n
        c = x[:n + 1]
        toeplitz = np.concatenate([self.psi[:0:-1], self.psi])
        rows = np.convolve(toeplitz, c, "valid") + x[n + 1] + x[n + 2] * self.en - moment(self.x)
        constraints = [c.sum() - 1.0, self.en @ c + np.expm1(-1.0)]
        return float(max(np.abs(rows).max(), *np.abs(constraints)))


def _solved_grid(n: int) -> tuple[_UniformGrid, np.ndarray]:
    """The grid with n subintervals, 1 <= n <= DENSE_MAX_N, and its unknowns."""
    if n < 1:
        raise ValueError("grid size must be >= 1")
    if n > DENSE_MAX_N:
        raise ValueError(f"the system solve is capped at n = {DENSE_MAX_N}")
    grid = _UniformGrid(n)
    return grid, grid.solve()


def solve_weights(n: int) -> tuple[np.ndarray, np.ndarray, float, float]:
    """(nodes, c, b0, d) of solve_uniform(n), without its residual; O(n).

    The same solve, bit for bit, minus the O(n^2) unfiltered-system
    residual, for callers that do not print it (norm.multiplier_routes).
    """
    grid, x = _solved_grid(n)
    return grid.x, x[:n + 1], float(x[n + 1]), float(x[n + 2])


def solve_uniform(n: int) -> SystemSolution:
    """Solve on the uniform grid with n subintervals, 1 <= n <= DENSE_MAX_N; O(n).

    From n = 4 the interior weights h + A mu^(b-1) + B mu^(n-1-b) meet
    every filtered row exactly and the bordered system fixes the rest.
    SingularSystemError is raised by _equilibrated_solve on the bordered
    matrix.  residual_inf is the largest residual in the unfiltered
    system, every kernel row and both constraints, an O(n^2) convolution
    formed only here, for `coeffs --method system`, which prints it;
    solve_weights skips it.  The nodes are the k/n it was solved on.
    """
    grid, x = _solved_grid(n)
    return SystemSolution(
        nodes=grid.x,
        c=x[:n + 1],
        b0=float(x[n + 1]),
        d=float(x[n + 2]),
        residual_inf=grid.residual_inf(x),
    )
