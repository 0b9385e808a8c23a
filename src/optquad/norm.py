"""Four independent evaluations of the squared error-functional norm.

Routes, in decreasing order of independence:

  1. quadratic form        sum_bb' C C' psi_2(x_b - x_b')
                           - 2 sum_b C moment(x_b) + double_moment
                           -- meaningful for ANY rule; the ground truth.
                           For a feasible rule (exact on span{1, e^-x}) it
                           equals the Peano-kernel integral int_0^1 K^2,
                           which norm_peano evaluates in O(n) without the
                           cancellation of the O(n^2) float64 sum (the
                           tests keep that sum as the small-n cross-check
                           for arbitrary rules).
  2. multiplier form       -sum_b C (b0 + d e^(-x_b)) - sum_b C moment(x_b)
                           + double_moment
                           -- equals route 1 exactly when (C, b0, d) solve
                           the stationarity system.
  3. expanded form         the multiplier form with the moment integral
                           written out through sum C e^(+x), sum C x,
                           sum C x^2 and the two constraints.
  4. theorem-2 closed form a printed closed expression in h, lambda1, K --
                           implemented verbatim (in overflow-safe q powers)
                           as a formula under test, never as an oracle.

`build_report` evaluates all four and classifies the outcome.  Routes 1-3
are compared on the solution of the stationarity system (the one object
for which the 2->1 and 3->1 reductions are mathematically valid); because
the compared values decay like h^4 while any double-stored solution
carries residuals around 1e-17, the report solves the system and
evaluates the three routes in 56-digit arithmetic (stdlib decimal, which
is libmpdec in C), then rounds the results.  On the uniform grid the
solution's weights are a few pieces (two end weights, h plus two
geometric boundary layers in mu), and
psi_2 is exponential-polynomial, so every entry of the 6 x 6 bordered
system and every sum the routes take -- route 1's quadratic form
included, from kernel rows and pair sums of the pieces -- has a closed
form (ExpSums).  The report's decimal work is therefore the same at
every n, and the report has one path with no size cap.  Route 1 sums
terms near 1 down to about h^4/720, which costs about 4 log10 n + 3
digits (27 at n = 10^6); 56 digits leave room for that well past
n = 10^6.  Only the float64 weights behind
coefficient_max_deviation, norm_peano and the printed rule are O(n).  The
closed-form rule's norm (closed_rule_quadratic_form) is norm_peano.
Routes 2 and 3 behind their public entry multiplier_routes(n) run in
float64 on the weight arrays of solve_uniform (or, above the cap, on the
printed rule and its printed multipliers); route 3's formula serves both
precisions.

The printed theorem-2 expression disagrees with route 1 by several orders of
magnitude (its h-block diverges like 3/h^2 as the grid refines); the report
measures and classifies that discrepancy, it does not repair the formula.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from typing import NamedTuple

import numpy as np

from ._expsums import ONE, ExpSums
from .coefficients import QuadratureRule, constraint_residuals, make_rule, optimal_coefficients
from .kernel import double_moment, moment
from .spectral import constants, pow_q
from .wiener_hopf import DENSE_MAX_N, filter_band, solve_uniform

__all__ = [
    "FEASIBILITY_TOL",
    "MultiplierPair",
    "NormReport",
    "build_report",
    "geometric_sums",
    "multiplier_routes",
    "multipliers_closed_form",
    "norm_peano",
    "norm_theorem2",
]

# Verdict threshold on the symmetric relative differences.
CONSISTENCY_RTOL = 1e-6

_TINY = 1e-300

# The exact solve's working digits.  Route 1 sums terms near 1 (moment
# sums of about 1.25) down to about h^4/720, 5.4e-30 at n = 4e6, so it
# keeps about _DIGITS - 4 log10 n - 3 of them.  56 hold route 1 within
# 1.0e-26 relative of an 80-digit evaluation at n = 4e6 (3e-29 at 10^6);
# 52 would leave it 2.5e-22 off there.  The pair sums form mu^(-2n), past
# the default exponent range from about n = 2e6, so the range is the
# widest decimal allows.
_DIGITS = 56
_CONTEXT = Context(prec=_DIGITS, Emax=MAX_EMAX, Emin=MIN_EMIN)


@dataclass(frozen=True)
class MultiplierPair:
    """Lagrange multipliers d and b0 of the stationarity system."""

    d: float
    b0: float


@dataclass(frozen=True)
class NormReport:
    n: int
    h: float
    via_quadratic_form: float
    via_multipliers: float
    via_expanded: float
    via_theorem2: float
    rel_diff_qf_mult: float
    rel_diff_qf_expanded: float
    rel_diff_qf_thm2: float
    verdict: str
    multiplier_source: str
    closed_rule_quadratic_form: float
    coefficient_max_deviation: float


def _rel_diff(a, b):
    """|a - b| / max(|a|, |b|) in the type of a, float or Decimal."""
    return abs(a - b) / max(abs(a), abs(b), type(a)(_TINY))


def _verdict(d_mult: float, d_expanded: float, d_thm2: float) -> str:
    if d_mult <= CONSISTENCY_RTOL and d_expanded <= CONSISTENCY_RTOL:
        if d_thm2 <= CONSISTENCY_RTOL:
            return "consistent"
        return "theorem2_discrepant"
    return "inconsistent"


# ----------------------------------------------------------------- route 1


# A rule must meet both moment constraints to this absolute residual before
# norm_peano accepts it: the Peano kernel represents only functionals that
# annihilate span{1, e^-x}.
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


# ----------------------------------------------------------- routes 2 and 3


def _expanded_route(b0, d, s_ep, s_x, s_xx, dm, fsum, e):
    """Route 3 from sum C e^x, sum C x and sum C x^2, in e's type.

    Either float64 with math.fsum and e = math.e, or Decimal with _fsum and
    a Decimal e.
    """
    return fsum([
        -b0,
        (1 - e) / e * d,
        -(e + 1) / (4 * e) * s_ep,
        -(1 + e) / 4 * (1 - 1 / e),
        type(e)(5) / 4,
        s_xx / 2,
        -s_x / 2,
        dm,
    ])


# ----------------------------------------------------------------- route 4


def norm_theorem2(n: int) -> float:
    """The printed closed-form expression, verbatim, in q-safe arithmetic.

    Every lambda1 power is paired with the q^(N+1) hidden inside K so that
    only nonnegative powers of q = 1/lambda1 are evaluated.  The rewrites
    used below are exact algebraic identities, term by term:

      K = Kscaled q^(N+1)
      q^(N+1) (lam^N + lam^2)      = q + q^(N-1)
      q^(N+1) (lam^(N+1) + lam)    = 1 + q^N
      1 / (1 - lam)                = -q / (1 - q)
      (lam^2 + lam) / (1 - lam)^2  = (1 + q) / (1 - q)^2
      q^(N+1) (lam^N - 1)          = q (1 - q^N) / ... paired as q - q^(N+1)
      lam - e^h                    = (1 - e^h q) / q        =: a/q
      1 - lam e^h                  = -(e^h - q) / q         =: -b/q
      q^(N+1) (lam^N - lam e^h)    = q - e^h q^N
      q^(N+1) (lam - lam^N e^h)    = q^N - e^h q
    """
    sc = constants(n)
    h, q, ks = sc.h, sc.q, sc.k_scaled
    eh = math.exp(h)
    em1 = math.expm1(h)
    qn = pow_q(q, n)

    lead = h * h / 12.0
    # the printed h-block; note (1 - e^h)^2 = expm1(h)^2
    h_block = (h * (2.0 - eh - 3.0 * eh * eh) + 4.0 + 2.0 * eh + 6.0 * eh * eh) / (
        4.0 * em1 * em1
    )

    # K [(lam^N + lam^2)(1+e^h) - (lam^(N+1) + lam)(1+2e^h)] / (2 (1-lam))
    t1 = (
        -ks
        * q
        * ((q + pow_q(q, n - 1)) * (1.0 + eh) - (1.0 + qn) * (1.0 + 2.0 * eh))
        / (2.0 * (1.0 - q))
    )
    # K h^2 (lam^2 + lam)(lam^N - 1)(1 + e^h) / (2 (1-lam)^2)
    t2 = ks * h * h * q * (1.0 + q) * (1.0 - qn) * (1.0 + eh) / (2.0 * (1.0 - q) ** 2)
    # K [(lam-e^h)^2 (lam^N - lam e^h) - (1-lam e^h)^2 (lam - lam^N e^h)]
    #   / (2 (1-lam e^h)(lam-e^h))
    a = 1.0 - eh * q
    b = eh - q
    t3 = ks * (b * b * (qn - eh * q) - a * a * (q - eh * qn)) / (2.0 * a * b)

    return lead + h_block + t1 + t2 + t3


# ------------------------------------------------------- closed multipliers


def multipliers_closed_form(rule: QuadratureRule) -> MultiplierPair:
    """The printed closed forms for d and b0 of rule = optimal_coefficients(n), q-safe.

    The printed forms carry the amplitudes A = K (e^h - lam) = -Kscaled a q^N
    and B = K (1 - lam e^h) = -Kscaled b q^N.  Exact rewrites
    (a = 1 - e^h q, b = e^h - q):

      A lam e^h / (1 - lam e^h)   =  Kscaled a q^N e^h / b
      B lam^N e^h / (lam - e^h)   = -Kscaled b q   e^h / a
      h A lam / (1 - lam)^2       = -h Kscaled a q^(N+1) / (1-q)^2
      h B lam^(N+1) / (1-lam)^2   = -h Kscaled b q       / (1-q)^2

    The d value produced by the printed formula does not reproduce the
    dense-solve multiplier (the b0 value does); callers compare, they must
    not assume equality.
    """
    n = rule.n
    sc = constants(n)
    h, q, ks = sc.h, sc.q, sc.k_scaled
    eh = math.exp(h)
    em1 = math.expm1(h)
    e = math.e
    qn = pow_q(q, n)
    a = 1.0 - eh * q
    b = eh - q

    c = rule.coefficients
    x = rule.nodes
    s_exp = math.fsum(c * np.exp(x))
    s_x = math.fsum(c * x)

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
        - h * ks * (a * pow_q(q, n + 1) + b * q) / (1.0 - q) ** 2
        - s_x / 2.0
        + 1.25
    )
    return MultiplierPair(d=d, b0=-minus_b0)


# --------------------------------------------------------- geometric sums


def geometric_sums(lam: float, n: int) -> tuple[float, float]:
    """Closed forms for sum_{g=1}^{N-1} lam^g g and sum lam^g g^2.

    The one production caller, validate, checks them against brute-force
    sums at random lam in [-0.9, 0.9] and n <= 50, where every lam^N is
    representable.
    """
    if lam == 1.0:
        raise ValueError("the closed forms are singular at lam = 1")
    if n < 2:
        raise ValueError("need n >= 2 so the summation range 1..n-1 is nonempty")
    lam = float(lam)
    ln = lam**n
    one = 1.0 - lam
    s1 = (lam - ln * lam - n * ln * one) / (one * one)
    cube = (lam - 1.0) ** 3
    s2 = (ln * (lam * lam + lam + n * n * one * one + 2.0 * n * (lam - lam * lam))) / cube - (
        lam * lam + lam
    ) / cube
    return s1, s2


def _float_routes(rule: QuadratureRule, pair: MultiplierPair) -> tuple[float, float]:
    """(via_multipliers, via_expanded) of rule and its multipliers, in float64."""
    c, x = rule.coefficients, rule.nodes
    dm = double_moment()
    mult = math.fsum(np.concatenate([-c * (np.exp(-x) * pair.d + pair.b0), -c * moment(x), [dm]]))
    expanded = _expanded_route(pair.b0, pair.d, math.fsum(c * np.exp(x)), math.fsum(c * x),
                               math.fsum(c * x * x), dm, math.fsum, math.e)
    return mult, expanded


def multiplier_routes(n: int) -> tuple[str, float, float]:
    """Routes 2 and 3 in float64, with the source of their multipliers.

    The one public entry to both routes.  For n <= DENSE_MAX_N the system's
    solution (solve_uniform) supplies the rule and the multipliers
    ("dense_solve"); above the cap the printed closed-form weights and
    multipliers are inserted verbatim ("closed_form").  Neither is
    rechecked against the system; the printed pair does not solve it (see
    multipliers_closed_form).
    Returns (multiplier_source, via_multipliers, via_expanded).
    """
    if n <= DENSE_MAX_N:
        sol = solve_uniform(n)
        pair = MultiplierPair(d=sol.d, b0=sol.b0)
        return ("dense_solve", *_float_routes(make_rule(sol.nodes, sol.c), pair))
    rule = optimal_coefficients(n)
    return ("closed_form", *_float_routes(rule, multipliers_closed_form(rule)))


# ------------------------------------------------------------- the report


class _Piece(NamedTuple):
    """Weights scale * ratio^j for lo <= j <= hi, ratio as ExpSums exponents."""

    scale: object
    ratio: tuple[int, int]
    lo: int
    hi: int


@dataclass(frozen=True)
class _ExactSolution:
    """The uniform system's solution in decimal, weights c_j = sum_p amplitude_p piece_p(j).

    From n = 4 the pieces are the deltas at 0 and n, mu^(j-1) and
    mu^(n-1-j) on 1 .. n-1 (amplitudes c_0, c_n, A, B) and the constant h
    there (amplitude 1); below, one delta per node.  mirror[p] is the
    piece whose values are piece p's read from the other end,
    piece_p(j) = piece_mirror[p](n - j).  rows maps each kept row i to the
    kernel row sums sum_j psi_2(|i - j| h) piece_p(j).
    """

    sums: ExpSums
    pieces: tuple[_Piece, ...]
    mirror: tuple[int, ...]
    amplitudes: tuple
    b0: object
    d: object
    rows: dict


def _piece_sum(sums: ExpSums, piece: _Piece, k: int, shift: int):
    """sum_j j^k e^(shift x_j) piece(j)."""
    ratio = (piece.ratio[0], piece.ratio[1] + shift)
    return piece.scale * sums.geom(k, ratio, piece.lo, piece.hi)


def _fsum(terms):
    """Sum Decimals in twice the working digits, then round once to them."""
    terms = list(terms)  # a generator's terms are formed in the working digits
    with localcontext() as wide:
        wide.prec *= 2
        total = sum(terms, Decimal(0))
    return +total  # rounds to the working digits


def _gauss_solve(matrix, rhs):
    """Solve a small dense system by Gaussian elimination with partial pivoting."""
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
        x[k] = (a[k][size] - _fsum(p * q for p, q in zip(a[k][k + 1:size], x[k + 1:]))) / a[k][k]
    return x


def _exact_solution(n: int) -> _ExactSolution:
    """The exact minimizer of the uniform system in the working decimal context; O(1) per n.

    From n = 4 the interior weights h + A mu^(b-1) + B mu^(n-1-b) meet
    every filtered row of wiener_hopf's O(n) solve exactly, with mu from
    filter_band in decimal.  c_0, c_n, A, B, b0 and d then solve four kernel
    rows and the two constraints, a 6 x 6 system whose entries are
    closed-form sums (ExpSums).  Once the filtered rows hold, the kernel
    rows' residual is a combination of 1, x, e^x and e^-x over the nodes,
    which vanishes when it vanishes at any four nodes, so any four rows
    fix the same solution.  The rows 0, n//3, n - n//3 and n are
    mirror-symmetric, and a piece's row i is row n - i of its mirror image
    (mu^(n-1-b) of mu^(b-1), c_n of c_0, h of itself), so half of their
    row sums serve twice.  Below n = 4 the unknowns are every weight and
    every row is kept.  No size cap: the cost does not grow with n.
    """
    sums = ExpSums(n)
    h = sums.h
    if n < 4:
        pieces = [_Piece(1, ONE, k, k) for k in range(n + 1)]
        mirror = tuple(range(n, -1, -1))
        kept = range(n + 1)
    else:
        a = sums.exp(1) + sums.exp(-1)
        g0, g1 = filter_band(sums.kernel(1), sums.kernel(2), sums.kernel(3), a)
        kappa = g1 / g0
        sums.mu = mu = -2 * kappa / (1 + (1 - 4 * kappa * kappa).sqrt())
        pieces = [
            _Piece(1, ONE, 0, 0),
            _Piece(1, ONE, n, n),
            _Piece(1 / mu, (1, 0), 1, n - 1),
            _Piece(mu ** (n - 1), (-1, 0), 1, n - 1),
            _Piece(h, ONE, 1, n - 1),
        ]
        mirror = (1, 0, 3, 2, 4)
        kept = [0, n // 3, n - n // 3, n]
    cache = {}

    def row_sum(p, i):
        p, i = min((p, i), (mirror[p], n - i))
        if (p, i) not in cache:
            piece = pieces[p]
            cache[p, i] = piece.scale * sums.row(piece.ratio, i, piece.lo, piece.hi)
        return cache[p, i]

    rows = {i: [row_sum(p, i) for p in range(len(pieces))] for i in kept}

    e = sums.exp(n)
    free = n + 1 if n < 4 else 4
    matrix, rhs = [], []
    for i in kept:
        y, ep, en = Decimal(i) / n, sums.exp(i), sums.exp(-i)
        moment_i = (ep + en + en * e + ep / e - 4) / 4 - (y * y + (1 - y) * (1 - y)) / 4
        matrix.append([*rows[i][:free], Decimal(1), en])
        rhs.append(moment_i - sum(rows[i][free:]))
    for shift, target in ((0, 1), (-1, 1 - 1 / e)):
        sums_p = [_piece_sum(sums, piece, 0, shift) for piece in pieces]
        matrix.append([*sums_p[:free], Decimal(0), Decimal(0)])
        rhs.append(target - sum(sums_p[free:]))
    *amplitudes, b0, d = _gauss_solve(matrix, rhs)
    amplitudes += [1] * (len(pieces) - free)
    return _ExactSolution(sums, tuple(pieces), mirror, tuple(amplitudes), b0, d, rows)


def _kernel_form(sol: _ExactSolution):
    """sum_ij c_i c_j psi_2(|i - j| h) over the pieces, in O(1) decimal operations.

    A delta piece at node k pairs with every piece through kernel row k,
    which the solve kept; two spread pieces pair through their pair sum,
    which equals that of their mirror images.
    """
    pieces, amps, mirror = sol.pieces, sol.amplitudes, sol.mirror
    deltas = [p for p, piece in enumerate(pieces) if piece.lo == piece.hi]
    spread = [p for p, piece in enumerate(pieces) if piece.lo < piece.hi]
    terms = []
    for p in deltas:
        row = sol.rows[pieces[p].lo]
        terms += [amps[p] * amps[q] * row[q] for q in deltas]
        terms += [2 * amps[p] * amps[q] * row[q] for q in spread]
    pairs = {}
    for k, p in enumerate(spread):
        for q in spread[k:]:
            key = min(tuple(sorted((p, q))), tuple(sorted((mirror[p], mirror[q]))))
            if key not in pairs:
                a, b = pieces[key[0]], pieces[key[1]]
                pairs[key] = a.scale * b.scale * sol.sums.pair(a.ratio, b.ratio, a.lo, a.hi)
            terms.append((1 if p == q else 2) * amps[p] * amps[q] * pairs[key])
    return _fsum(terms)


def _exact_routes(sol: _ExactSolution):
    """Routes 1-3 on the exact solution, in decimal, from closed-form sums."""
    sums, h = sol.sums, sol.sums.h

    def weighted(k, shift):
        """sum_j j^k e^(shift x_j) c_j."""
        return _fsum(a * _piece_sum(sums, p, k, shift) for a, p in zip(sol.amplitudes, sol.pieces))

    e = sums.exp(sums.n)
    dm = double_moment(Decimal)
    s_c, s_ep, s_en = weighted(0, 0), weighted(0, 1), weighted(0, -1)
    s_x, s_xx = h * weighted(1, 0), h * h * weighted(2, 0)
    # moment(x) = ((1 + 1/e) e^x + (1 + e) e^-x)/4 - 5/4 - x^2/2 + x/2
    s_m = _fsum([(1 + 1 / e) * s_ep / 4, (1 + e) * s_en / 4, -s_c * 5 / 4, -s_xx / 2, s_x / 2])
    qf = _fsum([_kernel_form(sol), -2 * s_m, dm])
    mult = _fsum([-sol.d * s_en, -sol.b0 * s_c, -s_m, dm])
    expanded = _expanded_route(sol.b0, sol.d, s_ep, s_x, s_xx, dm, _fsum, e)
    return qf, mult, expanded


def _float_weights(sol: _ExactSolution) -> np.ndarray:
    """The weights in float64 from the Decimal amplitudes; O(n) float work.

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


def build_report(n: int) -> NormReport:
    """Evaluate all four routes and classify their agreement.

    The three reduction routes are compared on the exact solution of the
    system, solved and evaluated in 56 digits at every n (multiplier_source
    is always "dense_solve").  coefficient_max_deviation is the largest
    gap between its float64 weights and the printed rule's.  The printed
    rule's norm is norm_peano.
    """
    if n < 1:
        raise ValueError("grid size must be >= 1")
    closed_rule = optimal_coefficients(n)
    closed_qf = norm_peano(closed_rule)
    thm2 = norm_theorem2(n)
    with localcontext(_CONTEXT):
        sol = _exact_solution(n)
        qf, mult, expanded = _exact_routes(sol)
        d_mult = float(_rel_diff(qf, mult))
        d_exp = float(_rel_diff(qf, expanded))
        qf, mult, expanded = float(qf), float(mult), float(expanded)
        dev = float(np.max(np.abs(_float_weights(sol) - closed_rule.coefficients)))
    d_thm2 = _rel_diff(qf, thm2)
    return NormReport(
        n=n,
        h=1.0 / n,
        via_quadratic_form=qf,
        via_multipliers=mult,
        via_expanded=expanded,
        via_theorem2=thm2,
        rel_diff_qf_mult=d_mult,
        rel_diff_qf_expanded=d_exp,
        rel_diff_qf_thm2=d_thm2,
        verdict=_verdict(d_mult, d_exp, d_thm2),
        multiplier_source="dense_solve",
        closed_rule_quadratic_form=closed_qf,
        coefficient_max_deviation=dev,
    )
