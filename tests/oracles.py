"""Float64 test oracles: the dense stationarity system, two norm evaluations, integration.

The double-precision counterpart of highprec.py.  build_system assembles
the stationarity system for arbitrary strictly increasing nodes in [0,1]
and solve_dense factors it in O(count^3), through a row-equilibrated
LAPACK solve that raises SingularSystemError on a system singular to
working precision.  multipliers_closed_form is the printed closed form of
the multipliers d and b0, implemented verbatim as a formula under test
(README defect 3).  norm_quadratic_form sums the kernel quadratic form of any
rule, feasible or not, in O(count^2); norm_peano integrates the Peano
kernel of any feasible rule in O(count), the float64 check on optquad's
exact closed_rule_norm.  float_weights spells out every float64 weight of
an exact solution, the O(n) check on the report's end-window
coefficient_max_deviation.  bordered_solution is the exact minimizer as
the package once found it, a filtered band and a 6 x 6 bordered system
in decimal (filter_band, gauss_solve, kernel_row), the check on norm's
closed form.  geom, row_expansion and pair are the generic closed-form
range sums of pieces r^j on any range, the reference for norm's
straight-line sums of its one layout; piece_sum and moment_sums take a
rule's moments and kernel_row the one-sided or in-range kernel row of
one piece through them.
closed_weights_array and float_weights_on are the numpy forms of the
printed weights and of the exact solution's window weights, which the
package forms in Python floats.  make_rule packages
any checked nodes and weights as a QuadratureRule, and trapezoid_rule is
a deliberately suboptimal comparison rule.

integrate_adaptive is deterministic adaptive Gauss-Legendre integration,
the numerical oracle for the kernel's closed-form moments and for the
catalog's exact integrals and seminorms.  CATALOG_DERIVATIVES holds the
derivative pair (f', f'') of each catalog function, which the package
does not keep: it carries each seminorm in closed form, and
seminorm_by_integration integrates (f'' + f')^2 from the pair.
"""
import functools
import math
from collections import namedtuple
from dataclasses import dataclass
from decimal import Decimal, localcontext
from typing import Callable

import numpy as np

from optquad import norm
from optquad._expsums import ONE, ExpSums
from optquad.coefficients import QuadratureRule, constraint_residuals
from optquad.kernel import moment, psi
from optquad.norm import double_moment
from optquad.quadrature import CATALOG
from optquad.spectral import constants
from optquad.wiener_hopf import SystemSolution

_RCOND_FLOOR = float(np.finfo(float).eps)


class SingularSystemError(ValueError):
    """The system is singular to working precision."""


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

    The solve is _equilibrated_solve, with its SingularSystemError; the
    residual is recomputed explicitly, its two constraint rows included.
    """
    nodes = np.asarray(nodes, dtype=float)
    matrix, rhs = build_system(nodes)
    x = _equilibrated_solve(matrix, rhs)
    n = nodes.size
    residual = np.abs(matrix @ x - rhs)
    return SystemSolution(
        nodes=nodes,
        c=x[:n],
        b0=float(x[n]),
        d=float(x[n + 1]),
        residual_inf=float(residual.max()),
        residual_constraint_sum=float(residual[n]),
        residual_constraint_exp_neg=float(residual[n + 1]),
    )


MultiplierPair = namedtuple("MultiplierPair", ["d", "b0"])


def multipliers_closed_form(rule) -> MultiplierPair:
    """The printed closed forms for d and b0 of rule = optimal_coefficients(n), q-safe.

    The printed forms carry the amplitudes A = K (e^h - lam) = -Kscaled a q^N
    and B = K (1 - lam e^h) = -Kscaled b q^N.  Exact rewrites
    (a = 1 - e^h q, b = e^h - q):

      A lam e^h / (1 - lam e^h)   =  Kscaled a q^N e^h / b
      B lam^N e^h / (lam - e^h)   = -Kscaled b q   e^h / a
      h A lam / (1 - lam)^2       = -h Kscaled a q^(N+1) / (1-q)^2
      h B lam^(N+1) / (1-lam)^2   = -h Kscaled b q       / (1-q)^2

    The d value produced by the printed formula does not reproduce the
    system's multiplier (the b0 value does); callers compare, they must
    not assume equality.
    """
    n = rule.n
    sc = constants(n)
    h, q, ks = sc.h, sc.q, sc.k_scaled
    eh = math.exp(h)
    em1 = math.expm1(h)
    e = math.e
    qn = q**n
    a = 1.0 - eh * q
    b = eh - q

    c, x = rule.coefficients, rule.nodes
    s_exp, s_x = math.fsum(c * np.exp(x)), math.fsum(c * x)

    # h e^h / (1 - e^h) = -h e^h / expm1(h)
    d = (
        c[0] / 2.0
        + 0.5 * (-h * eh / em1 + ks * a * qn * eh / b - ks * b * q * eh / a)
        - s_exp / 4.0
        + (1.0 + e) / 4.0
    )
    # h (1 + e^h) / (2 (1 - e^h)) = -h (1 + e^h) / (2 expm1(h))
    minus_b0 = (
        -h * (1.0 + eh) / (2.0 * em1)
        - h * ks * (a * q ** (n + 1) + b * q) / (1.0 - q) ** 2
        - s_x / 2.0
        + 1.25
    )
    return MultiplierPair(d=d, b0=-minus_b0)


def norm_quadratic_form(rule: QuadratureRule) -> float:
    """Squared norm via the kernel quadratic form; O(count^2), compensated.

    math.fsum over the complete term list makes the result the correctly
    rounded sum of the computed terms, hence independent of term order.
    Valid for any rule, but the terms cancel down to the h^4 result: it is
    7.5e-3 relative off at n = 512.  Feasible rules can use norm_peano.
    """
    x = rule.nodes
    c = rule.coefficients
    kernel_terms = (c[:, None] * c[None, :] * psi(2, x[:, None] - x[None, :])).ravel()
    moment_terms = -2.0 * c * moment(x)
    return math.fsum(np.concatenate([kernel_terms, moment_terms, [double_moment()]]))


# A rule must meet both moment constraints to this absolute residual before
# norm_peano accepts it: the Peano kernel represents only functionals that
# annihilate span{1, e^-x}.  It is absolute while the norm falls like h^4,
# so it suits rules feasible to rounding, not a check of feasibility at
# large n (a weight raised by 5e-13 passes at n = 10^5 and moves the norm
# by 5.3e-4).
FEASIBILITY_TOL = 1e-12

# Panels per chunk of norm_peano: bounds its (chunk, 15) temporaries.  Each
# panel value is formed on its own and all are summed by one fsum, so the
# result does not depend on this size.
_PEANO_CHUNK = 4096

_GL15_T, _GL15_W = np.polynomial.legendre.leggauss(15)
_GL15_S = 0.5 * (1.0 + _GL15_T)  # nodes mapped to [0, 1]
_GL15_HALF_W = 0.5 * _GL15_W

# phi(u) = u + expm1(-u) = sum_{k>=2} (-u)^k/k!.  Horner coefficients for
# k = 17 .. 2: at the seam u = 0.5 the first dropped term is ~5e-21 of phi,
# while the direct form loses about a factor 5 to cancellation there.
_PHI_SEAM = 0.5
_PHI_COEFFS = tuple((-1.0) ** k / math.factorial(k) for k in range(17, 1, -1))


def _phi(u, em):
    """phi(u) = u + expm1(-u) for u >= 0, given em = expm1(-u)."""
    acc = _PHI_COEFFS[0]
    for coef in _PHI_COEFFS[1:]:
        acc = acc * u + coef
    return np.where(u <= _PHI_SEAM, acc * u * u, u + em)


def norm_peano(rule: QuadratureRule) -> float:
    """Squared norm of a feasible rule as the Peano-kernel integral; O(n).

    The error functional of a rule exact on span{1, e^-x}, the null space
    of L = D^2 + D, is l(f) = int_0^1 K(t) (Lf)(t) dt with

        K(t) = (e^(t-1) - t) - sum_{x_b > t} c_b (1 - e^-(x_b - t)),

    so its squared norm is int_0^1 K(t)^2 dt (Sard, Linear Approximation,
    1963).  Raises ValueError unless both constraint residuals are at most
    FEASIBILITY_TOL.

    K is not summed as written: its terms cancel to the h^2 result.  Each
    panel [x_j, x_j+1] of width w carries the 2-point rule exact on
    {1, e^-x}, with beta = phi(w)/(-expm1(-w)) at x_j+1 and w - beta at x_j.
    With delta_b the summed reference weight minus c_b and u = x_j+1 - t,
    K on panel j is

        (1 + beta_j) phi(u) - beta_j u + T_j - S_j expm1(-u),
        S_j = e^(x_j+1) sum_{b>j} delta_b e^-x_b,  T_j = sum_{b>j} delta_b - S_j.

    delta is small, so plain suffix sums of it are accurate.  Each panel is
    integrated by 15-point Gauss-Legendre; one fsum adds the panel values.
    Nodes need not include 0 and 1: a zero weight is added there.
    """
    r_sum, r_exp = constraint_residuals(rule)
    if not (r_sum <= FEASIBILITY_TOL and r_exp <= FEASIBILITY_TOL):
        raise ValueError(
            f"rule is not exact on span{{1, e^-x}} (constraint residuals {r_sum:.3e}, "
            f"{r_exp:.3e}; tolerance {FEASIBILITY_TOL}); its Peano-kernel norm is undefined"
        )
    x = rule.nodes
    c = rule.coefficients
    if x[0] > 0.0:
        x, c = np.concatenate([[0.0], x]), np.concatenate([[0.0], c])
    if x[-1] < 1.0:
        x, c = np.concatenate([x, [1.0]]), np.concatenate([c, [0.0]])

    width = np.diff(x)
    em_w = np.expm1(-width)
    beta = _phi(width, em_w) / -em_w
    # delta_b = beta_(b-1) + (width_b - beta_b) - c_b, grouped so that the
    # near-equal pairs cancel exactly on a uniform grid
    delta = np.append(width, 0.0) - c
    delta -= np.diff(np.concatenate([[0.0], beta, [0.0]]))
    d_tail = np.cumsum(delta[::-1])[::-1][1:]
    s = np.exp(x[1:]) * np.cumsum((delta * np.exp(-x))[::-1])[::-1][1:]
    t = d_tail - s

    panels = np.empty(width.size)
    for lo in range(0, width.size, _PEANO_CHUNK):
        hi = min(lo + _PEANO_CHUNK, width.size)
        w = width[lo:hi, None]
        b = beta[lo:hi, None]
        u = w * _GL15_S
        em = np.expm1(-u)
        k = (1.0 + b) * _phi(u, em) - b * u + t[lo:hi, None] - s[lo:hi, None] * em
        panels[lo:hi] = width[lo:hi] * (k * k * _GL15_HALF_W).sum(axis=1)
    return math.fsum(panels)


def float_weights(sol) -> np.ndarray:
    """Every weight of an exact solution (optquad.norm) in float64; O(n) float work.

    Each piece is anchored at the end of its range where it is largest and
    stepped from there by its ratio, so nothing overflows or underflows.
    """
    c = np.zeros(sol.sums.n + 1)
    for amp, (scale, ratio, lo, hi) in zip(sol.amplitudes, sol.pieces):
        step = sol.sums.power(ratio, 1)
        grows = abs(step) > 1
        anchor = hi if grows else lo
        start = float(amp * scale * sol.sums.power(ratio, anchor))
        steps = float(1 / step if grows else step) ** np.arange(hi - lo + 1)
        c[lo:hi + 1] += start * (steps[::-1] if grows else steps)
    return c


def closed_weights_array(sc, b: np.ndarray) -> np.ndarray:
    """The printed closed-form weights at the ascending node indices b, in numpy float64.

    The array form of optquad.spectral.closed_weights, which forms the same
    weights in Python floats; tests pin that one to this, bit for bit.
    Its q powers are numpy's power at every exponent n - b and b, 0.0
    where they underflow; they may differ from libm's pow in the last bit
    (on AVX-512 hardware) without moving a weight.
    """
    n, h, q, ks = sc.n, sc.h, sc.q, sc.k_scaled
    eh = math.exp(h)
    em1 = math.expm1(h)
    b = np.asarray(b, dtype=float)
    c = h - ks * ((1.0 - eh * q) * np.power(q, n - b) + (eh - q) * np.power(q, b))
    corr = ks * (q**n - q)
    if b[0] == 0:
        c[0] = (em1 - h) / em1 - corr
    if b[-1] == n:
        c[-1] = (h * eh - em1) / em1 - corr * eh
    return c


def float_weights_on(sol, first: int, last: int) -> np.ndarray:
    """The float64 weights of an exact solution (optquad.norm) at the nodes first..last, in numpy.

    The array form of optquad.norm's window weights, which forms them in
    Python floats; tests pin that one to this, bit for bit.  Each piece is
    anchored at the end of its range where it is largest and stepped from
    there by its float64 ratio, ratio ** (distance from the anchor).
    """
    c = np.zeros(last - first + 1)
    for amp, (scale, ratio, lo, hi) in zip(sol.amplitudes, sol.pieces):
        a, b = max(first, lo), min(last, hi)
        if a > b:
            continue
        step = sol.sums.power(ratio, 1)
        grows = abs(step) > 1
        anchor = hi if grows else lo
        start = float(amp * scale * sol.sums.power(ratio, anchor))
        distance = np.arange(hi - a, hi - b - 1, -1) if grows else np.arange(a - lo, b - lo + 1)
        c[a - first:b - first + 1] += start * float(1 / step if grows else step) ** distance
    return c


def filter_band(psi1, psi2, psi3, a):
    """(g0, g1): the band that the stationarity system's filter leaves of the kernel rows.

    The samples psi_2(kh) satisfy the recurrence with characteristic
    polynomial (z-1)^2 (z-e^h) (z-e^-h), so the filter
    [1, -(a+2), 2a+2, -(a+2), 1] applied to kernel rows i-2 .. i+2 removes
    both multiplier columns and leaves g1 C_(i-1) + g0 C_i + g1 C_(i+1),
    with the right-hand side (g0 + 2 g1) h (Sobolev's discrete analogue of
    the operator).  psi1, psi2, psi3 are psi_2(h), psi_2(2h), psi_2(3h)
    and a = 2 cosh h; the result has their type.
    """
    g0 = 2 * psi2 - 2 * (a + 2) * psi1
    g1 = psi3 - (a + 2) * psi2 + (2 * a + 3) * psi1
    return g0, g1


def gauss_solve(matrix, rhs):
    """Solve a small dense Decimal system by Gaussian elimination with partial pivoting.

    It has no condition check: a singular matrix ends in a decimal
    ArithmeticError, never in a returned solution.
    """
    size = len(rhs)
    a = [list(row) + [r] for row, r in zip(matrix, rhs)]
    for k in range(size):
        pivot = max(range(k, size), key=lambda i: abs(a[i][k]))
        a[k], a[pivot] = a[pivot], a[k]
        for i in range(k + 1, size):
            f = a[i][k] / a[k][k]
            for j in range(k + 1, size + 1):
                a[i][j] -= f * a[k][j]
    x = [None] * size
    for k in reversed(range(size)):
        x[k] = (a[k][size] - norm._fsum(p * q for p, q in zip(a[k][k + 1:size], x[k + 1:]))) / a[k][k]
    return x


def _times(r, s):
    return (r[0] + s[0], r[1] + s[1])


def _power_sum(k: int, m: int) -> int:
    """sum_{j=0}^{m} j^k for k in 0, 1, 2 and m >= -1, in integers."""
    return (m + 1, m * (m + 1) // 2, m * (m + 1) * (2 * m + 1) // 6)[k]


def _closed_sum(k: int, power, gap, lo: int, hi: int):
    """sum_{j=lo}^{hi} j^k r^j, r^j = power(j) and 1 - r = gap, in the current context.

    From (1 - r) S_k = lo^k r^lo - hi^k r^(hi+1)
                       + sum_{j=lo+1}^{hi} (j^k - (j-1)^k) r^j.
    """
    if hi < lo:
        return Decimal(0)
    if hi == lo:
        return lo**k * power(lo)
    ends = lo**k * power(lo) - hi**k * power(hi + 1)
    if k == 1:
        ends += _closed_sum(0, power, gap, lo + 1, hi)
    elif k == 2:
        ends += 2 * _closed_sum(1, power, gap, lo + 1, hi) - _closed_sum(0, power, gap, lo + 1, hi)
    return ends / gap


def geom(sums: ExpSums, k: int, r, lo: int, hi: int):
    """sum_{j=lo}^{hi} j^k r^j for k in 0, 1, 2 on sums' grid; zero on an empty range.

    The generic range sum: any ratio r = mu^a e^(b h), any range.  norm
    takes the sums of its one layout straight-line (norm._layout_sums);
    this is their reference.  A ratio e^(bh) (a = 0) is near 1, and on a
    short range its closed form cancels the ends against 1 - e^(bh): its
    sums are formed in the grid's guard digits (ExpSums.wide) on the
    unrounded powers of e^h, and rounded once to the working digits.
    """
    if hi < lo:
        return Decimal(0)
    if r == ONE:
        return Decimal(_power_sum(k, hi) - _power_sum(k, lo - 1))
    if r[0]:
        return _closed_sum(k, lambda j: sums.power(r, j), sums.gap(r), lo, hi)
    with localcontext(sums.wide):
        total = _closed_sum(k, lambda j: sums.eh ** (r[1] * j), 1 - sums.eh ** r[1], lo, hi)
    return +total  # the unary plus rounds to the working digits


def row_expansion(sums: ExpSums, r, lo: int, hi: int):
    """Row i of the piece r^j on lo .. hi, for lo <= i <= hi, as [(c, k, rho)].

    row(i) = sum c i^k rho^i with rho in e^h, e^-h, r and 1.  The row
    splits psi_2 at i into sum_{j <= i} g(i - j) r^j - sum_{j > i} g(i - j) r^j;
    with u = r e^-h the e^(ih) part is e^(ih)/4 times
    sum_{j <= i} u^j - sum_{j > i} u^j = (u^lo + u^(hi+1) - 2 u^(i+1)) / (1 - u),
    or 2 i + 1 - lo - hi when u is 1, and the e^(-ih) part the same on
    r e^h.  The lag part is -h/2 times
    sum_j |i - j| r^j = i (r^lo + r^(hi+1)) / (1 - r) + 2 r^(i+1) / (1 - r)^2
                        - (lo r^lo + hi r^(hi+1)) / (1 - r) - (r^(lo+1) + r^(hi+1)) / (1 - r)^2,
    or i^2 - (lo + hi) i + (lo (lo - 1) + hi (hi + 1)) / 2 when r is 1.
    Every 1 - r is ExpSums.gap's, so 1 - e^(bh) keeps the guard digits.
    """
    terms = {}

    def add(k, rho, c):
        terms[k, rho] = terms.get((k, rho), 0) + c

    for side in (1, -1):  # e^(ih) on r e^-h, e^(-ih) on r e^h
        u, part = _times(r, (0, -side)), Decimal(side) / 4
        if u == ONE:
            add(1, (0, side), 2 * part)
            add(0, (0, side), (1 - lo - hi) * part)
        else:
            gu = sums.gap(u)
            add(0, (0, side), part * (sums.power(u, lo) + sums.power(u, hi + 1)) / gu)
            add(0, r, -2 * part * sums.power(u, 1) / gu)
    lag = -sums.h / 2
    if r == ONE:
        add(2, ONE, lag)
        add(1, ONE, -(lo + hi) * lag)
        add(0, ONE, (lo * (lo - 1) + hi * (hi + 1)) // 2 * lag)
    else:
        g, step, r_lo, r_end = sums.gap(r), sums.power(r, 1), sums.power(r, lo), sums.power(r, hi + 1)
        add(1, ONE, lag * (r_lo + r_end) / g)
        add(0, r, lag * 2 * step / (g * g))
        add(0, ONE, -lag * ((lo * r_lo + hi * r_end) / g + (step * r_lo + r_end) / (g * g)))
    return [(c, k, rho) for (k, rho), c in terms.items()]


def pair(sums: ExpSums, r1, r2, lo: int, hi: int):
    """sum_{i=lo}^{hi} sum_{j=lo}^{hi} r1^i r2^j psi_2(|i - j| h), generically.

    The sum over i of r2^i times row i of r1, whose terms c i^k rho^i
    (row_expansion) each sum to c times the geometric sum of i^k (r2 rho)^i
    over the range.
    """
    if hi < lo:
        return Decimal(0)
    return sum(c * geom(sums, k, _times(r2, rho), lo, hi) for c, k, rho in row_expansion(sums, r1, lo, hi))


def piece_sum(sums: ExpSums, piece, k: int, shift: int):
    """sum_j j^k e^(shift x_j) piece(j) of a norm._Piece, by geom."""
    return piece.scale * geom(sums, k, (piece.ratio[0], piece.ratio[1] + shift), piece.lo, piece.hi)


def moment_sums(sums: ExpSums, pieces, amplitudes):
    """The norm._Moments of the weights sum_p amplitude_p piece_p(j), for any pieces, by piece_sum."""
    h = sums.h

    def weighted(k, shift):
        """sum_j j^k e^(shift x_j) c_j."""
        return norm._fsum(a * piece_sum(sums, p, k, shift) for a, p in zip(amplitudes, pieces))

    e = sums.exp(sums.n)
    s_c, s_ep, s_en = weighted(0, 0), weighted(0, 1), weighted(0, -1)
    s_x, s_xx = h * weighted(1, 0), h * h * weighted(2, 0)
    # moment(x) = ((1 + 1/e) e^x + (1 + e) e^-x)/4 - 5/4 - x^2/2 + x/2
    s_m = norm._fsum([(1 + 1 / e) * s_ep / 4, (1 + e) * s_en / 4, -s_c * 5 / 4, -s_xx / 2, s_x / 2])
    return norm._Moments(s_c, s_ep, s_en, s_x, s_xx, s_m)


def kernel_row(sums: ExpSums, r, i: int, lo: int, hi: int):
    """sum_{j=lo}^{hi} psi_2(|i - j| h) r^j: kernel row i of the piece r^j, by the generic sums.

    Inside the range the row is the piece's exponential-polynomial
    (row_expansion), the row that pair sums against the other piece.
    Outside it psi_2(|i - j| h) is -g(i - j) for every j (i < lo) or
    g(i - j) (i > hi), and g(i - j) separates into
    (e^(ih) (r e^-h)^j - e^(-ih) (r e^h)^j)/4 - (i - j) h r^j/2, so the
    row comes from the whole range's sums of j^k (r e^(0, +-h))^j.
    """
    if hi == lo:
        return sums.power(r, lo) * sums.kernel(i - lo)
    if lo <= i <= hi:
        return sum(c * i**k * sums.power(rho, i) for c, k, rho in row_expansion(sums, r, lo, hi))
    down, up = (r[0], r[1] - 1), (r[0], r[1] + 1)
    exps = sums.exp(i) * geom(sums, 0, down, lo, hi) - sums.exp(-i) * geom(sums, 0, up, lo, hi)
    odd = exps / 4 - (i * geom(sums, 0, r, lo, hi) - geom(sums, 1, r, lo, hi)) * sums.h / 2
    return -odd if i < lo else odd


def bordered_solution(n: int):
    """The exact minimizer by the filtered band and a bordered solve, as an optquad.norm._ExactSolution.

    From n = 4 the band (filter_band) holds on every row i = 2 .. n-2, so
    the interior weights are h + A mu^(b-1) + B mu^(n-1-b), mu the root of
    g1 z^2 + g0 z + g1 inside the unit circle: norm's five pieces.  c_0,
    c_n, A, B, b0 and d then solve the kernel rows 0, n//3, n - n//3 and n
    and the two constraints, a 6 x 6 system of closed-form sums (ExpSums)
    solved by gauss_solve.  Once the band holds, the kernel rows' residual
    is a combination of 1, x, e^x and e^-x over the nodes, so any four
    rows fix the same solution.  Below n = 4 the unknowns are every
    weight, one delta per node, and every row is kept.  In norm's working
    digits; mu from the short-lag kernel values carries their
    cancellation, 6.6e-37 relative at n = 10^6.  Its kernel rows are
    kernel_row's, per piece, and its moments moment_sums'; it has no
    norm._LayoutSums, since below n = 4 its pieces are not norm's layout.
    """
    with localcontext(norm._CONTEXT):
        sums = ExpSums(n)
        if n < 4:
            pieces, kept, free = tuple(norm._Piece(1, ONE, k, k) for k in range(n + 1)), range(n + 1), n + 1
        else:
            a = sums.exp(1) + sums.exp(-1)
            g0, g1 = filter_band(sums.kernel(1), sums.kernel(2), sums.kernel(3), a)
            kappa = g1 / g0
            sums.mu = -2 * kappa / (1 + (1 - 4 * kappa * kappa).sqrt())
            pieces, kept, free = norm._layout(sums), (0, n // 3, n - n // 3, n), 4
        e = sums.exp(n)
        matrix, rhs = [], []
        for i in kept:
            row = [piece.scale * kernel_row(sums, piece.ratio, i, piece.lo, piece.hi) for piece in pieces]
            y, ep, en = Decimal(i) / n, sums.exp(i), sums.exp(-i)
            moment_i = (ep + en + en * e + ep / e - 4) / 4 - (y * y + (1 - y) * (1 - y)) / 4
            matrix.append([*row[:free], Decimal(1), en])
            rhs.append(moment_i - sum(row[free:]))
        for shift, target in ((0, 1), (-1, 1 - 1 / e)):
            sums_p = [piece_sum(sums, piece, 0, shift) for piece in pieces]
            matrix.append([*sums_p[:free], Decimal(0), Decimal(0)])
            rhs.append(target - sum(sums_p[free:]))
        *amplitudes, b0, d = gauss_solve(matrix, rhs)
        amplitudes = (*amplitudes, *[1] * (len(pieces) - free))
        moments = moment_sums(sums, pieces, amplitudes)
        return norm._ExactSolution(sums, pieces, amplitudes, None, moments, norm._end_rows(sums, moments), b0, d)


def make_rule(nodes, coefficients) -> QuadratureRule:
    """Package arbitrary nodes/weights on [0,1] as a rule (no optimality implied), checked."""
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


def trapezoid_rule(n: int) -> QuadratureRule:
    """Uniform trapezoid weights, a deliberately suboptimal comparison rule."""
    if n < 1:
        raise ValueError("grid size must be >= 1")
    h = 1.0 / n
    c = np.full(n + 1, h)
    c[0] = c[-1] = h / 2.0
    return QuadratureRule(n=n, h=h, nodes=np.linspace(0.0, 1.0, n + 1), coefficients=c)


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


@functools.cache
def _gauss_legendre():
    """The embedded Gauss-Legendre pair ((x7, w7), (x15, w15)), formed on first use.

    The 15-point value is kept, |GL15 - GL7| serves as the panel error
    estimate.  Degree-29 exactness makes polynomial integrands exact on a
    single panel.
    """
    return np.polynomial.legendre.leggauss(7), np.polynomial.legendre.leggauss(15)


def _panel_estimates(f, lo: float, hi: float):
    (x7, w7), (x15, w15) = _gauss_legendre()
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    f7 = np.array([f(mid + half * t) for t in x7], dtype=float)
    f15 = np.array([f(mid + half * t) for t in x15], dtype=float)
    if not (np.all(np.isfinite(f7)) and np.all(np.isfinite(f15))):
        raise ValueError(f"integrand is not finite on [{lo}, {hi}]")
    i7 = half * float(w7 @ f7)
    i15 = half * float(w15 @ f15)
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


def _affine_exp_neg_b() -> float:
    """b of the catalog's affine_exp_neg, a + b e^-x, read off f(0) - f(1) = b (1 - 1/e).

    The integrated seminorm of (-b e^-x, b e^-x) is exactly 0 whatever b is,
    and the finite-difference check needs b only to about 1e-6.
    """
    v = CATALOG["affine_exp_neg"].value
    return (float(v(0.0)) - float(v(1.0))) / -math.expm1(-1.0)


def _constant(v: float):
    return lambda x: np.full_like(np.asarray(x, dtype=float), v)


def _exp_neg_pair(b: float):
    """(f', f'') of a + b e^-x."""
    return (lambda x: -b * np.exp(-np.asarray(x, dtype=float)),
            lambda x: b * np.exp(-np.asarray(x, dtype=float)))


CATALOG_DERIVATIVES = {
    "const1": (_constant(0.0), _constant(0.0)),
    "x": (_constant(1.0), _constant(0.0)),
    "x_squared": (lambda x: 2.0 * np.asarray(x, dtype=float), _constant(2.0)),
    "exp_neg": _exp_neg_pair(1.0),
    "exp": (np.exp, np.exp),
    "sin": (np.cos, lambda x: -np.sin(np.asarray(x, dtype=float))),
    "affine_exp_neg": _exp_neg_pair(_affine_exp_neg_b()),
}


def seminorm_by_integration(name: str) -> float:
    """sqrt(int_0^1 (f'' + f')^2 dx) of the catalog function name, by integrate_adaptive."""
    first, second = CATALOG_DERIVATIVES[name]

    def integrand(x: float) -> float:
        g = float(second(x)) + float(first(x))
        return g * g

    return math.sqrt(max(integrate_adaptive(integrand, 0.0, 1.0, 1e-12).value, 0.0))
