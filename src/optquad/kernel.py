"""Kernel evaluation and its analytic moments.

The quadrature error norm is a quadratic form in the rule weights built from
the even order-2 kernel

    psi_2(x) = (sinh|x| - |x|)/2,

the fundamental-solution remainder of sinh after removing its linear Taylor
term.  It has a triple zero at the origin: naive evaluation of sinh x - x
loses every significant digit below |x| ~ 1e-5, so the implementation
switches to the odd Taylor tail under a fixed seam.

The m = 2 moments over [0,1] have closed forms (`moment` here, in numpy
float64, and `norm.double_moment`, which the norm routes sum in decimal).
wiener_hopf reads psi and moment for the residual of the stationarity
system, so the CLI loads this module with wiener_hopf, for `coeffs
--method system`, and for no other command.  The adaptive integration
oracle that cross-checks the moments lives in the tests
(tests/oracles.py).
"""
from __future__ import annotations

import math

import numpy as np

__all__ = ["moment", "psi"]

# Series/direct seam for sinh x - x.  The tail polynomial runs through x^15:
# at x = 0.5 the first dropped term (x^17/17!) is ~1e-18 relative to the
# x^3/6 lead, so the series branch carries full double precision up to the
# seam, where the direct branch is itself good to ~5e-15 relative.  The seam
# also covers every argument moment() feeds the series (its halves are
# <= 0.5), keeping the analytic moments at full precision.
_SERIES_MAX = 0.5

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
    return np.where(t <= _SERIES_MAX, _sinh_minus_x_series(t), _sinh_minus_x_direct(t))


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
