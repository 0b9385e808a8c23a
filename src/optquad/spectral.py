"""Spectral constants of the closed-form optimal weights.

lambda1 is the printed root of the grid recurrence attached to the closed
form; it exceeds 1 for every h in (0, 1], so its powers overflow for large
grids.  All downstream arithmetic therefore runs on q = 1/lambda1 and on the
rescaled amplitude

    Kscaled = K * lambda1^(N+1)
            = (2e^h - 2 - he^h - h)(lambda1 - 1) / [2(e^h - 1)^2 (1 + q^N)],

which stays O(1) for every N, while the raw K underflows harmlessly and is
retained for reporting only.

Both the numerator A = h(e^(2h)+1) - e^(2h) + 1 and the denominator
D = 1 - e^(2h) + 2he^h of lambda1 are Theta(h^3) differences of Theta(h)
quantities, and so is the shape factor 2e^h - 2 - he^h - h of Kscaled.
Each is summed as a power series whose terms all have one sign, which
holds full float64 precision on all of (0, 1]: against a 50-digit
reference lambda1 and the shape factor are within 1e-15 relative on
h in [0.25, 1], which the spectral test suite checks, and on h in
{1, 1/2, ..., 1/1024}.  The powers of q are libm's pow through **, which returns 0.0
where q^m underflows.

closed_weights evaluates the printed weights from these constants (see the
coefficients module for the formulas) on a window of nodes, in Python
floats.  A float64 rule of h and two geometric boundary layers, the
printed rule's in q and the minimizer's in mu, is float(h) outside its
end windows: layer_width is the one rule for how far in from its anchor
a layer can still move float(h), closed_width applies it to the printed
weights, and end_windows gives the node ranges of a width at both ends.
This module, like norm, runs on the standard library alone: `import optquad`,
the norm report and `validate` load no numpy.  SpectralConstants is a
namedtuple, as every record in the package is.
"""
from __future__ import annotations

import math
import operator
from collections import namedtuple

__all__ = [
    "DENSE_MAX_N",
    "SpectralConstants",
    "closed_weights",
    "closed_width",
    "constants",
    "end_windows",
    "lambda1",
    "layer_width",
]

# Largest uniform grid, in subintervals, that the system solution with its
# O(n^2) residual (wiener_hopf.solve_uniform) and `validate` accept.
DENSE_MAX_N = 513

# A(h) = sum_{j>=3} (j-2) 2^(j-1) / j! * h^j       (all coefficients > 0)
# D(h) = sum_{j>=3} 2 (j - 2^(j-1)) / j! * h^j     (all coefficients < 0)
_A_COEFFS = tuple((j - 2) * 2 ** (j - 1) / math.factorial(j) for j in range(3, 36))
_D_COEFFS = tuple(2 * (j - 2 ** (j - 1)) / math.factorial(j) for j in range(3, 36))
# 2e^h - 2 - he^h - h = sum_{j>=3} (2 - j) / j! * h^j   (all coefficients < 0)
_S_COEFFS = tuple((2.0 - j) / math.factorial(j) for j in range(3, 21))


def _poly_h3(coeffs, h: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * h + c
    return acc * h * h * h


def lambda1(h: float) -> float:
    """Root (> 1) of the grid recurrence for step h in (0, 1].

    lambda1 = [A - (e^h - 1) sqrt(h^2 (e^h+1)^2 + 2h (1 - e^h))] / D.
    """
    if not (isinstance(h, (int, float)) and math.isfinite(h)):
        raise ValueError(f"step must be a finite number, got {h!r}")
    if not 0.0 < h <= 1.0:
        raise ValueError(f"step must lie in (0, 1], got {h}")
    h = float(h)
    em1 = math.expm1(h)
    radicand = h * h * (math.exp(h) + 1.0) ** 2 - 2.0 * h * em1
    den = _poly_h3(_D_COEFFS, h)
    if radicand <= 0.0 or den == 0.0:
        raise ArithmeticError(f"degenerate recurrence data at h={h}")
    lam = (_poly_h3(_A_COEFFS, h) - em1 * math.sqrt(radicand)) / den
    if not lam > 1.0:
        raise ArithmeticError(f"root selection failed at h={h}: {lam}")
    return lam


SpectralConstants = namedtuple("SpectralConstants", ["n", "h", "lambda1", "q", "k", "k_scaled"])
SpectralConstants.__doc__ = "The grid size and step, lambda1, q = 1/lambda1, K and Kscaled of one grid."


def _shape_factor(h: float) -> float:
    """2e^h - 2 - he^h - h = -(h^3/6)(1 + h/2 + ...), strictly negative; its same-sign power series."""
    return _poly_h3(_S_COEFFS, h)


def constants(n: int) -> SpectralConstants:
    """Spectral constants for the uniform grid with n subintervals."""
    if isinstance(n, bool):
        raise ValueError(f"grid size must be an integer >= 1, got {n!r}")
    try:
        n = int(operator.index(n))
    except TypeError:
        raise ValueError(f"grid size must be an integer >= 1, got {n!r}") from None
    if n < 1:
        raise ValueError(f"grid size must be an integer >= 1, got {n!r}")
    h = 1.0 / n
    lam = lambda1(h)
    q = 1.0 / lam
    em1 = math.expm1(h)
    k_scaled = _shape_factor(h) * (lam - 1.0) / (2.0 * em1 * em1 * (1.0 + q**n))
    # K = Kscaled * q^(N+1) exactly; computed this way so large grids
    # underflow to 0.0 instead of overflowing lambda1^(N+1).
    k = k_scaled * q ** (n + 1)
    return SpectralConstants(n=n, h=h, lambda1=lam, q=q, k=k, k_scaled=k_scaled)


def layer_width(start: float, ratio: float, h: float) -> int:
    """The nodes from its anchor on where a layer start * ratio**j may exceed ulp(h)/8, plus one.

    0 < |ratio| < 1.  Two such layers sum to less than ulp(h)/4 past their
    widths, which leaves float(h) as it is even where h is a power of two,
    so a float64 rule of h and two layers is float(h) there.  The spare
    node covers the rounding of the logarithms.
    """
    return max(0, math.ceil(math.log(math.ulp(h) / 8 / abs(start)) / math.log(abs(ratio)))) + 1


def end_windows(n: int, width: int) -> list[tuple[int, int]]:
    """The node ranges (first, last) within width nodes of either end of the grid 0..n.

    A float64 rule whose layers are layer_width nodes wide, counted from
    the grid's ends, is float(h) outside them.  Where the two ends meet,
    n < 2 width, the one range is 0..n.
    """
    return [(0, n)] if n < 2 * width else [(0, width - 1), (n - width + 1, n)]


def closed_width(sc: SpectralConstants) -> int:
    """The end-window width outside which the printed weights of sc's grid are float(h).

    layer_width of the larger of their two layers, -Kscaled (e^h - q) q^b
    and -Kscaled (1 - e^h q) q^(N-b): 15 nodes at N = 4, 4 at N = 10^9.
    """
    return layer_width(sc.k_scaled * (math.exp(sc.h) - sc.q), sc.q, sc.h)


def closed_weights(sc: SpectralConstants, first: int, last: int) -> list[float]:
    """The closed-form weights C_b of sc's grid at the nodes b = first..last, in Python floats.

    0 <= first <= last <= n, in O(last - first) work; validate takes
    every weight from here and optimal_coefficients every weight that is
    not h.  Each power is libm's q**j, 0.0 where it underflows, which a
    float64 weight cannot tell from numpy's power of the same q
    (tests/oracles.py keeps that form).
    """
    n, h, q, ks = sc.n, sc.h, sc.q, sc.k_scaled
    eh = math.exp(h)
    em1 = math.expm1(h)
    # interior: h - Kscaled [(1 - e^h q) q^(N-b) + (e^h - q) q^b]
    a, b = 1.0 - eh * q, eh - q
    c = [h - ks * (a * q ** (n - j) + b * q**j) for j in range(first, last + 1)]
    # boundary corrections: Kscaled (q^N - q), cancelling exactly at N = 1
    corr = ks * (q**n - q)
    if first == 0:
        c[0] = (em1 - h) / em1 - corr  # (e^h - 1 - h)/(e^h - 1) - corr
    if last == n:
        c[-1] = (h * eh - em1) / em1 - corr * eh  # (he^h - e^h + 1)/(e^h - 1) - corr*e^h
    return c

