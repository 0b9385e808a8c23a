"""Dense assembly and solve of the stationarity system for the rule weights.

Minimizing the error-norm quadratic form over the weights, subject to the
two moment constraints, yields a discrete Wiener-Hopf-type linear system:
one kernel row per node,

    sum_g C_g psi_2(x_b - x_g) + b0 + d e^(-x_b) = moment(x_b),

plus the constraint rows sum C = 1 and sum C e^(-x) = 1 - e^-1, where b0 and
d are the Lagrange multipliers of the constraints.  Solving it directly is
the independent oracle against which every closed form is judged.

Arbitrary strictly increasing nodes in [0,1] are accepted; cost is
O(count^3), so solve_uniform caps the uniform grid at DENSE_MAX_N
subintervals.  A solution keeps its row-equilibrated matrix, so that
resolve can solve the same system for another right-hand side (the norm
report's refinement corrections) without assembling or checking it again.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import moment, psi

__all__ = [
    "DENSE_MAX_N",
    "SingularSystemError",
    "SystemSolution",
    "build_system",
    "resolve",
    "solve_dense",
    "solve_for_nodes",
    "solve_uniform",
]

# Largest uniform grid, in subintervals, that the O(n^3) dense solve accepts.
DENSE_MAX_N = 513

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
    # the row-equilibrated matrix handed to LAPACK and its row scales
    equilibrated: np.ndarray
    scale: np.ndarray


def build_system(nodes) -> tuple[np.ndarray, np.ndarray]:
    """Assemble the (count+2) x (count+2) matrix and right-hand side.

    Unknown ordering: C_0..C_count-1, then b0, then d.  The kernel block is
    symmetric (the kernel is even) with a zero diagonal.
    """
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1 or nodes.size < 2:
        raise ValueError("need at least two nodes")
    if np.any(np.diff(nodes) <= 0.0):
        raise ValueError("nodes must be strictly increasing (no duplicates)")
    if nodes[0] < 0.0 or nodes[-1] > 1.0:
        raise ValueError("nodes must lie within [0, 1]")
    n = nodes.size
    m = np.zeros((n + 2, n + 2))
    m[:n, :n] = psi(2, nodes[:, None] - nodes[None, :])
    m[:n, n] = 1.0
    m[:n, n + 1] = np.exp(-nodes)
    m[n, :n] = 1.0
    m[n + 1, :n] = np.exp(-nodes)
    rhs = np.concatenate([moment(nodes), [1.0, -np.expm1(-1.0)]])
    return m, rhs


def solve_dense(matrix, rhs, nodes=None) -> SystemSolution:
    """Solve a system from build_system; residual is recomputed explicitly.

    Rows are equilibrated to unit max-norm and the result is handed to
    LAPACK.  SingularSystemError is raised on an identically zero row, on a
    singular LU factor, or when the 1-norm reciprocal condition number of
    the equilibrated matrix is below machine epsilon.  `nodes` is stored on
    the solution record; when omitted it is taken as unknown (empty).
    """
    matrix = np.asarray(matrix, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or matrix.shape[0] != rhs.size:
        raise ValueError("matrix and right-hand side sizes do not match")
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
    residual = matrix @ x - rhs
    n = rhs.size - 2
    stored = np.asarray(nodes, dtype=float) if nodes is not None else np.empty(0)
    return SystemSolution(
        nodes=stored,
        c=x[:n],
        b0=float(x[n]),
        d=float(x[n + 1]),
        residual_inf=float(np.abs(residual).max()),
        equilibrated=a,
        scale=scale,
    )


def resolve(solution: SystemSolution, rhs) -> np.ndarray:
    """Solve solution's own equilibrated system for another right-hand side.

    The matrix was checked when solution was computed; no residual or
    condition estimate is formed here.  Returns the unknowns in
    build_system's ordering: the weights, then b0, then d.
    """
    return np.linalg.solve(solution.equilibrated, np.asarray(rhs, dtype=float) / solution.scale)


def solve_for_nodes(nodes) -> SystemSolution:
    matrix, rhs = build_system(nodes)
    return solve_dense(matrix, rhs, nodes=nodes)


def solve_uniform(n: int) -> SystemSolution:
    """Solve on the uniform grid with n subintervals, 1 <= n <= DENSE_MAX_N."""
    if n < 1:
        raise ValueError("grid size must be >= 1")
    if n > DENSE_MAX_N:
        raise ValueError(f"the dense solve is capped at n = {DENSE_MAX_N} (O(n^3) oracle)")
    return solve_for_nodes(np.linspace(0.0, 1.0, n + 1))
