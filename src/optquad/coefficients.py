"""Closed-form quadrature weights on the uniform grid, overflow-safe.

The closed form states, with K and lambda1 from the spectral module,

    C_0 = (e^h - 1 - h)/(e^h - 1)        - K (lambda1 - lambda1^N)
    C_b = h - K [(lambda1 - e^h) lambda1^b + (lambda1 e^h - 1) lambda1^(N-b)]
    C_N = (h e^h - e^h + 1)/(e^h - 1)    - K (lambda1 - lambda1^N) e^h

for 1 <= b <= N-1.  Every lambda1 power is rewritten exactly through
q = 1/lambda1 and Kscaled = K lambda1^(N+1):

    K (lambda1 - lambda1^N)                       = Kscaled (q^N - q)
    K [(lambda1-e^h) lambda1^b
       + (lambda1 e^h - 1) lambda1^(N-b)]         = Kscaled [(1 - e^h q) q^(N-b)
                                                             + (e^h - q) q^b]

so only nonnegative powers of q appear and grids up to N = 10^6 evaluate
without overflow (deep q powers underflow to exact zero, a correction far
below double precision).  Only the powers that do not underflow are
formed (layer_width): past them, a few dozen nodes from each end, every
interior weight is h exactly.  spectral.closed_weights evaluates the
formulas on any window of nodes, in Python floats, so a caller that needs
only the ends does O(1) work and loads no numpy (the norm report, and
validate, which takes all of its at most 514 weights from there).  This
module packages the weights as float64 arrays for the commands that need
all n + 1 of them (coeffs, apply, convergence) and loads numpy.

Note: these are the printed closed-form weights.  They satisfy both moment
constraints exactly, but they do *not* coincide with the minimizer computed
by the stationarity-system solve (see `wiener_hopf`); the validation suite
measures and reports that discrepancy rather than hiding it.
"""
from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .spectral import SpectralConstants, closed_weights, constants, layer_width

__all__ = [
    "QuadratureRule",
    "constraint_residuals",
    "constraint_sums",
    "make_rule",
    "optimal_coefficients",
]


QuadratureRule = namedtuple("QuadratureRule", ["n", "h", "nodes", "coefficients"])
QuadratureRule.__doc__ = "A rule on [0,1]: n subintervals, step h, and its nodes and weights as float64 arrays."


def make_rule(nodes, coefficients) -> QuadratureRule:
    """Package arbitrary nodes/weights on [0,1] as a rule (no optimality implied)."""
    nodes = np.asarray(nodes, dtype=float)
    coefficients = np.asarray(coefficients, dtype=float)
    if nodes.ndim != 1 or nodes.shape != coefficients.shape:
        raise ValueError("nodes and coefficients must be 1-D arrays of equal length")
    if nodes.size < 1:
        raise ValueError("a rule needs at least one node")
    if not np.all(np.isfinite(nodes)):
        raise ValueError("nodes must be finite")
    if np.any(np.diff(nodes) <= 0.0):
        raise ValueError("nodes must be strictly increasing")
    if nodes[0] < 0.0 or nodes[-1] > 1.0:
        raise ValueError("nodes must lie within [0, 1]")
    n = nodes.size - 1
    h = (nodes[-1] - nodes[0]) / n if n else 1.0
    return QuadratureRule(n=n, h=float(h), nodes=nodes, coefficients=coefficients)


def optimal_coefficients(n: int) -> QuadratureRule:
    """Closed-form weights on the uniform grid with n subintervals."""
    sc: SpectralConstants = constants(n)  # validates n
    c = np.full(n + 1, sc.h)
    # the ends, up to the first q power that underflows, one window where they meet
    k = min(n, layer_width(sc.q))
    for first, last in [(0, n)] if n < 2 * k else [(0, k - 1), (n - k + 1, n)]:
        c[first:last + 1] = closed_weights(sc, first, last)
    nodes = np.linspace(0.0, 1.0, n + 1)
    return QuadratureRule(n=n, h=sc.h, nodes=nodes, coefficients=c)


def constraint_sums(rule: QuadratureRule) -> tuple[float, float]:
    """(sum C, sum C e^(-x)), the two moments the constraints fix, compensated.

    math.fsum keeps the summation error-free, so the sums carry formula
    error only.
    """
    c = rule.coefficients
    # a memoryview hands fsum Python floats one at a time, with no list of them
    return math.fsum(memoryview(c)), math.fsum(memoryview(c * np.exp(-rule.nodes)))


def constraint_residuals(rule: QuadratureRule) -> tuple[float, float]:
    """Absolute residuals of the two moment constraints.

    Returns (|sum C - 1|, |sum C e^(-x) - (1 - e^-1)|) from constraint_sums.
    """
    s1, s2 = constraint_sums(rule)
    return abs(s1 - 1.0), abs(s2 + math.expm1(-1.0))  # targets 1 and 1 - e^-1
