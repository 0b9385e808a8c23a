"""Applying rules to integrands and auditing the a-priori error bound.

The error of a rule on a function f is bounded by ||l|| * |f|, where
||l||^2 is the squared norm (for the printed rule, closed_rule_norm, exact
in O(1)) and |f| the seminorm sqrt(int_0^1 (f'' + f')^2 dx), which every
catalog entry carries in closed form.  The functional annihilates
span{1, e^-x} (the seminorm's null space), so rules here are exact on that
span by construction.
"""
from __future__ import annotations

import math
import random
from collections import namedtuple

import numpy as np

from .coefficients import QuadratureRule, optimal_coefficients
from .norm import closed_rule_norm

__all__ = [
    "CATALOG",
    "ConvergenceRow",
    "ErrorCheck",
    "TestFunction",
    "apply_rule",
    "convergence_table",
    "error_check",
]


TestFunction = namedtuple("TestFunction", ["name", "value", "exact_integral", "seminorm"])
TestFunction.__doc__ = "A catalog integrand: its values, and its exact integral and seminorm |f| in closed form."
TestFunction.__test__ = False  # not a pytest class, despite the name


def _affine_exp_neg() -> TestFunction:
    # fixed pseudo-random draw so CLI output stays byte-reproducible
    rng = random.Random(20240917)
    a = rng.uniform(-10.0, 10.0)
    b = rng.uniform(-10.0, 10.0)
    return TestFunction(
        name="affine_exp_neg",
        value=lambda x, a=a, b=b: a + b * np.exp(-x),
        exact_integral=a - b * math.expm1(-1.0),
        seminorm=0.0,
    )


# Each seminorm sqrt(int_0^1 (f'' + f')^2 dx) is its closed form, written
# as the correctly rounded literal so that no libm rounding enters it:
# f'' + f' is 0 on span{1, e^-x}, 1 for x, 2 + 2x for x^2 (sqrt(28/3)),
# 2e^x for e^x (sqrt(2 expm1(2))) and cos x - sin x for sin x, whose
# square 1 - sin 2x integrates to cos^2 1 (cos 1).
CATALOG: dict[str, TestFunction] = {
    f.name: f
    for f in (
        TestFunction("const1", lambda x: np.ones_like(np.asarray(x, dtype=float)), 1.0, 0.0),
        TestFunction("x", lambda x: np.asarray(x, dtype=float), 0.5, 1.0),
        TestFunction("x_squared", lambda x: np.asarray(x, dtype=float) ** 2, 1.0 / 3.0,
                     3.0550504633038935),
        TestFunction("exp_neg", lambda x: np.exp(-np.asarray(x, dtype=float)),
                     -math.expm1(-1.0), 0.0),
        TestFunction("exp", np.exp, math.expm1(1.0), 3.5746485418655216),
        TestFunction("sin", np.sin, 1.0 - math.cos(1.0), 0.5403023058681398),
        _affine_exp_neg(),
    )
}


ErrorCheck = namedtuple("ErrorCheck", ["quad_value", "true_value", "abs_error", "norm_bound", "bound_satisfied"])
ErrorCheck.__doc__ = "A rule's value on f, the exact integral, their gap and the bound ||l|| * |f| it must keep."

ConvergenceRow = namedtuple("ConvergenceRow", ["n", "h", "norm_sq", "ratio", "order_estimate", "abs_error"])
ConvergenceRow.__doc__ = "One grid of a refinement: the squared norm, its ratio and order, and f's error if given."


def apply_rule(rule: QuadratureRule, f: TestFunction) -> float:
    """sum_b C_b f(x_b), compensated."""
    values = np.asarray(f.value(rule.nodes), dtype=float)
    # a memoryview hands fsum Python floats one at a time, with no list of them
    return math.fsum(memoryview(rule.coefficients * values))


def error_check(rule: QuadratureRule, f: TestFunction, norm_sq: float) -> ErrorCheck:
    """Audit |quad - exact| against the Cauchy-Schwarz bound ||l|| * |f|.

    The additive 1e-14 slack absorbs the null-space functions whose bound is
    exactly zero while the quadrature error sits at rounding level.
    """
    quad = apply_rule(rule, f)
    err = abs(quad - f.exact_integral)
    bound = math.sqrt(max(norm_sq, 0.0)) * f.seminorm
    return ErrorCheck(
        quad_value=quad,
        true_value=f.exact_integral,
        abs_error=err,
        norm_bound=bound,
        bound_satisfied=err <= bound * (1.0 + 1e-8) + 1e-14,
    )


def convergence_table(ns, f: TestFunction | None = None) -> list[ConvergenceRow]:
    """Norm decay along a grid refinement; per-function errors when f given.

    norm_sq is closed_rule_norm, the printed rule's exact squared norm in
    O(1) per grid size; the O(n) weights are built only when f is given.

    The empirical order log2(prev/current)/log2(n_cur/n_prev) is computed on
    the squared norm to keep square-root noise out of the estimate.
    """
    ns = list(ns)
    if not ns:
        raise ValueError("the list of grid sizes is empty")
    if any(n < 1 for n in ns):
        raise ValueError("grid sizes must all be >= 1")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("grid sizes must be strictly increasing")
    rows: list[ConvergenceRow] = []
    prev: ConvergenceRow | None = None
    for n in ns:
        norm_sq = closed_rule_norm(n)
        ratio = order = None
        if prev is not None:
            ratio = norm_sq / prev.norm_sq
            order = math.log2(prev.norm_sq / norm_sq) / math.log2(n / prev.n)
        abs_err = None
        if f is not None:
            abs_err = abs(apply_rule(optimal_coefficients(n), f) - f.exact_integral)
        row = ConvergenceRow(n=n, h=1.0 / n, norm_sq=norm_sq, ratio=ratio,
                             order_estimate=order, abs_error=abs_err)
        rows.append(row)
        prev = row
    return rows
