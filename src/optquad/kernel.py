"""Kernel evaluation, its analytic moments, and an adaptive integration oracle.

The quadrature error norm is a quadratic form in the rule weights built from
the even order-2 kernel

    psi_2(x) = (sinh|x| - |x|)/2,

the fundamental-solution remainder of sinh after removing its linear Taylor
term.  It has a triple zero at the origin: naive evaluation of sinh x - x
loses every significant digit below |x| ~ 1e-5, so the implementation
switches to the odd Taylor tail under a fixed seam.

The m = 2 moments over [0,1] have closed forms (`moment`, `double_moment`);
`integrate_adaptive` is the independent numerical oracle used to cross-check
them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "IntegrationBudgetError",
    "IntegrationResult",
    "double_moment",
    "integrate_adaptive",
    "moment",
    "psi",
]

# Series/direct seam for sinh x - x.  The tail polynomial runs through x^15:
# at x = 0.5 the first dropped term (x^17/17!) is ~1e-18 relative to the
# x^3/6 lead, so the series branch carries full double precision up to the
# seam, where the direct branch is itself good to ~5e-15 relative.  The seam
# also covers every argument moment() feeds the series (its halves are
# <= 0.5), keeping the analytic moments at full precision.
_SEAM = 0.5

# 1/(2k+1)! for x^3 .. x^15, highest order first (Horner in x^2).
_TAIL_COEFFS = tuple(1.0 / math.factorial(k) for k in (15, 13, 11, 9, 7, 5, 3))


def _sinh_minus_x_series(t):
    """Odd Taylor tail of sinh t - t, valid to ~1 ulp for 0 <= t <= 0.5."""
    t2 = t * t
    acc = _TAIL_COEFFS[0]
    for c in _TAIL_COEFFS[1:]:
        acc = acc * t2 + c
    return acc * t2 * t


def _sinh_minus_x_direct(t):
    return np.sinh(t) - t


def _sinh_minus_x(t):
    """sinh t - t for t >= 0 (scalar or array), cancellation-free."""
    return np.where(t <= _SEAM, _sinh_minus_x_series(t), _sinh_minus_x_direct(t))


def psi(m: int, x):
    """Evaluate the order-m kernel at x (scalar or ndarray); m must be 2.

    psi_2(x) = (sinh|x| - |x|)/2, even in x by construction (only |x|
    enters) with psi_2(0) = 0.  Any other order m raises ValueError.
    """
    if m != 2:
        raise ValueError(f"only the order-2 kernel is implemented, got m={m!r}")
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("kernel argument must be finite")
    out = _sinh_minus_x(np.abs(arr)) / 2.0
    if arr.ndim == 0:
        return float(out)
    return out


def moment(y):
    """Integral of the m=2 kernel over [0,1] shifted by y in [0,1].

    Uses the closed form

        moment(y) = [sinh^2(y/2) - (y/2)^2] + [sinh^2((1-y)/2) - ((1-y)/2)^2],

    algebraically equal to
    (e^y + e^-y + e^(1-y) + e^(y-1) - 4)/4 - (y^2 + (1-y)^2)/4 but built from
    the stable sinh t - t primitive, so it is exact near the endpoints and
    manifestly symmetric (moment(y) == moment(1-y)) and positive.
    """
    arr = np.asarray(y, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise ValueError("moment argument must lie in [0, 1]")

    def half_piece(u):
        # sinh^2 u - u^2 = (sinh u - u)(sinh u + u), with s = sinh u - u
        s = _sinh_minus_x(u)
        return s * (s + 2.0 * u)

    out = half_piece(arr / 2.0) + half_piece((1.0 - arr) / 2.0)
    if arr.ndim == 0:
        return float(out)
    return out


def double_moment() -> float:
    """Integral of the m=2 kernel over the unit square: sinh(1) - 7/6.

    sinh(1) is exactly (e^2 - 1)/(2e); the sinh form avoids the needless
    division rounding.
    """
    return math.sinh(1.0) - 7.0 / 6.0


@dataclass(frozen=True)
class IntegrationResult:
    value: float
    error_estimate: float
    evaluations: int


class IntegrationBudgetError(RuntimeError):
    """Adaptive integration ran out of its evaluation budget.

    Carries the best available estimate in `best`.
    """

    def __init__(self, message: str, best: IntegrationResult):
        super().__init__(message)
        self.best = best


# Embedded Gauss-Legendre pair: the 15-point value is kept, |GL15 - GL7|
# serves as the panel error estimate.  Degree-29 exactness makes polynomial
# integrands exact on a single panel.
_GL7_X, _GL7_W = np.polynomial.legendre.leggauss(7)
_GL15_X, _GL15_W = np.polynomial.legendre.leggauss(15)


def _panel_estimates(f, lo: float, hi: float):
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    f7 = np.array([f(mid + half * t) for t in _GL7_X], dtype=float)
    f15 = np.array([f(mid + half * t) for t in _GL15_X], dtype=float)
    if not (np.all(np.isfinite(f7)) and np.all(np.isfinite(f15))):
        raise ValueError(f"integrand is not finite on [{lo}, {hi}]")
    i7 = half * float(_GL7_W @ f7)
    i15 = half * float(_GL15_W @ f15)
    return i15, abs(i15 - i7)


def integrate_adaptive(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float,
    max_evals: int = 1_000_000,
) -> IntegrationResult:
    """Deterministic adaptive integration of f over [a, b].

    Interval bisection with the embedded GL7/GL15 pair, processed left to
    right.  A panel is accepted once its error estimate fits its share of the
    absolute tolerance or a small relative floor; the total error estimate is
    the sum of accepted panel estimates.  Exceeding `max_evals` raises
    IntegrationBudgetError carrying the best estimate so far.
    """
    if not (math.isfinite(a) and math.isfinite(b)) or a > b:
        raise ValueError(f"invalid interval [{a}, {b}]")
    if not tol > 0.0:
        raise ValueError("tolerance must be positive")
    if a == b:
        if not math.isfinite(float(f(a))):
            raise ValueError(f"integrand is not finite at {a}")
        return IntegrationResult(0.0, 0.0, 1)

    width = b - a
    value, err = _panel_estimates(f, a, b)
    evals = 22
    accepted_values: list[float] = []
    accepted_errors: list[float] = []
    stack = [(a, b, value, err)]  # every stacked panel carries its estimate
    while stack:
        lo, hi, value, err = stack.pop()
        panel_tol = tol * (hi - lo) / width
        too_narrow = (hi - lo) <= 8.0 * math.ulp(max(abs(lo), abs(hi), 1.0))
        if err <= panel_tol or err <= 1e-15 * abs(value) or too_narrow:
            accepted_values.append(value)
            accepted_errors.append(err)
            continue
        if evals + 44 > max_evals:
            pending = [(value, err)] + [(v, e) for _, _, v, e in stack]
            best = IntegrationResult(
                math.fsum(accepted_values + [v for v, _ in pending]),
                math.fsum(accepted_errors + [e for _, e in pending]),
                evals,
            )
            raise IntegrationBudgetError(
                f"no convergence to tol={tol} within {max_evals} evaluations", best
            )
        mid = 0.5 * (lo + hi)
        right = _panel_estimates(f, mid, hi)
        left = _panel_estimates(f, lo, mid)
        evals += 44
        stack.append((mid, hi, *right))
        stack.append((lo, mid, *left))  # popped first: left-to-right order
    return IntegrationResult(
        math.fsum(accepted_values), math.fsum(accepted_errors), evals
    )
