"""Float64 test oracles: the dense stationarity system, the O(n^2) quadratic form.

The double-precision counterpart of highprec.py.  build_system assembles
the stationarity system for arbitrary strictly increasing nodes in [0,1]
and solve_dense factors it in O(count^3), through the same row-equilibrated
LAPACK solve (and SingularSystemError checks) as optquad's O(n)
solve_uniform.  norm_quadratic_form sums the kernel quadratic form of any
rule, feasible or not; trapezoid_rule is a deliberately suboptimal
comparison rule.
"""
import math

import numpy as np

from optquad.coefficients import QuadratureRule
from optquad.kernel import double_moment, moment, psi
from optquad.wiener_hopf import SystemSolution, _equilibrated_solve


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


def solve_dense(nodes) -> SystemSolution:
    """Assemble the system on nodes and solve it densely; O(count^3).

    The solve is wiener_hopf's _equilibrated_solve, with its
    SingularSystemError; the residual is recomputed explicitly.
    """
    nodes = np.asarray(nodes, dtype=float)
    matrix, rhs = build_system(nodes)
    x = _equilibrated_solve(matrix, rhs)
    n = nodes.size
    return SystemSolution(
        nodes=nodes,
        c=x[:n],
        b0=float(x[n]),
        d=float(x[n + 1]),
        residual_inf=float(np.abs(matrix @ x - rhs).max()),
    )


def norm_quadratic_form(rule: QuadratureRule) -> float:
    """Squared norm via the kernel quadratic form; O(count^2), compensated.

    math.fsum over the complete term list makes the result the correctly
    rounded sum of the computed terms, hence independent of term order.
    Valid for any rule, but the terms cancel down to the h^4 result: it is
    7.5e-3 relative off at n = 512.  Feasible rules use norm_peano.
    """
    x = rule.nodes
    c = rule.coefficients
    kernel_terms = (c[:, None] * c[None, :] * psi(2, x[:, None] - x[None, :])).ravel()
    moment_terms = -2.0 * c * moment(x)
    return math.fsum(np.concatenate([kernel_terms, moment_terms, [double_moment()]]))


def trapezoid_rule(n: int) -> QuadratureRule:
    """Uniform trapezoid weights, a deliberately suboptimal comparison rule."""
    if n < 1:
        raise ValueError("grid size must be >= 1")
    h = 1.0 / n
    c = np.full(n + 1, h)
    c[0] = c[-1] = h / 2.0
    return QuadratureRule(n=n, h=h, nodes=np.linspace(0.0, 1.0, n + 1), coefficients=c)
