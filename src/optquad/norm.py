"""Four independent evaluations of the squared error-functional norm.

Routes, in decreasing order of independence:

  1. quadratic form        sum_bb' C C' psi_2(x_b - x_b')
                           - 2 sum_b C moment(x_b) + double_moment
                           -- meaningful for ANY rule; the ground truth.
                           Here it is evaluated exactly, in O(1), for the
                           two uniform-grid rules: the system's minimizer
                           and the printed rule (the tests keep float64
                           O(n^2) and Peano-kernel O(n) evaluations for
                           arbitrary rules).
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
geometric boundary layers in mu) at every n, with amplitudes, mu and
multipliers in closed form: by Schoenberg's theorem the minimizer
integrates the natural spline of span{1, x, e^x, e^-x} through the
samples, whose adjoint tridiagonal system is solved exactly by one 2 x 2
(_exact_solution).  psi_2 is exponential-polynomial, so every sum the
routes take has a closed form, and since every rule here has the same
five pieces (_ExactSolution: the deltas c_0 and c_n, and h and the
layers mu^(j-1) and mu^(n-1-j) on 1 .. n-1; four amplitudes, as h has
none) they are taken straight-line: S_k(r) = sum_{j=1}^{n-1} j^k r^j,
k <= 2, of mu from the package's one closed form (power_sums, which
validate checks), and S_0 of mu e^(+-h) and e^(+-h) (_layout_sums), the
mirror layer mu^(n-1-j) read off the layer mu^(j-1) from the other end.
Each solution forms its five moment sums (sum c, sum c e^(+-x),
sum c x, sum c x^2) from them once (_moment_sums); on [0, 1] psi_2(x)
and psi_2(1 - x) lie in span{e^x, e^-x, x, 1}, so the kernel rows 0 and
n, which give the multipliers and route 1's delta terms, are fixed
combinations of them (_end_rows), also formed once.  The rest of
route 1's quadratic form is the four pair sums of the spread pieces on
1 .. n-1 (_pair_sums): each piece's kernel image is one short
exponential-polynomial in the row index, summed against the other piece
by the same S_k.  The report's decimal work is therefore the same at
every n, and the report has one path with no size cap.  Route 1 sums
terms near 1 down to about h^4/720, which costs about 4 log10 n + 3
digits (27 at n = 10^6); 56 digits leave room for that well past
n = 10^6.  Each grid's values are formed once, straight-line, into one
record (_grid): its guard-digit context, 4 digits(n) + 12 past the
working digits, e^h there, the grid's one exponential, correctly
rounded from a short integer Taylor sum (_exp_reciprocal; Brent, JACM
23, 1976, with Ziv's rounding test, ACM TOMS 17, 1991), and from it
e^(+-1), e^(+-h), 1 - e^(+-h) and psi_2(1); e, e^h and 1 - e^h are
formed there and rounded once.  The printed rule has the same pieces
with q = 1/lambda1 for mu, its constants formed in the same context, so
its norm (closed_rule_norm) is route 1 from the same moment and pair
sums, and coefficient_max_deviation reads both float64 weight sets, in
Python floats, on the end windows only (spectral.end_windows), outside
which both are float(h) (spectral.layer_width).  The same solve serves
every caller that needs the system's solution: multiplier_routes(n,
method), behind `norm --methods multiplier|expanded`, forms route 2 or
route 3 of it alone, written once with the report, so it prints the
report's own values; minimizer_weights steps its weights out in float64
on the two end windows, 30 nodes each, and returns them with float(h),
the weight between them, for `coeffs --method system`
(wiener_hopf.solve_uniform).  The module runs on the standard library
alone, and so do `norm` and `validate`.
Its records are namedtuples, as every record in the package is.

The printed theorem-2 expression disagrees with route 1 by several orders of
magnitude (its h-block diverges like 3/h^2 as the grid refines); the report
measures and classifies that discrepancy, it does not repair the formula.
"""
from __future__ import annotations

import math
from collections import namedtuple
from functools import reduce
from itertools import accumulate, chain, count, takewhile
from operator import floordiv
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, getcontext, localcontext

from .spectral import closed_weights, closed_width, constants, end_windows, layer_width

__all__ = [
    "NormReport",
    "build_report",
    "closed_rule_norm",
    "double_moment",
    "minimizer_audit",
    "minimizer_weights",
    "multiplier_routes",
    "norm_theorem2",
    "power_sums",
]

# Verdict threshold on the symmetric relative differences.
CONSISTENCY_RTOL = 1e-6

_TINY = 1e-300
_DECIMAL_TINY = Decimal(_TINY)  # its exact 750-digit value, converted once

def double_moment(kind=float):
    """Integral of the m=2 kernel over the unit square: sinh(1) - 7/6.

    Summed smallest term first, in kind (float, or Decimal at the caller's
    working precision), as the positive series sum_{k=2}^{22} 1/(2k+1)!.
    The float value lands within 0.5 ulp of the true value; sinh(1.0) - 7/6
    cancels 1.175 against 1.167 and comes out 1.5e-16 (88 ulp) low.  The
    first omitted term, 1/47!, is 5e-58 of the sum.
    """
    one = kind(1)
    return sum(one / math.factorial(2 * k + 1) for k in range(22, 1, -1))


# The exact solve's working digits.  Route 1 sums terms near 1 (moment
# sums of about 1.25) down to about h^4/720, 5.4e-30 at n = 4e6, so it
# keeps about _DIGITS - 4 log10 n - 3 of them.  56 hold route 1 within
# 1.0e-26 relative of an 80-digit evaluation at n = 4e6 (3e-29 at 10^6);
# 52 would leave it 2.5e-22 off there.  mu^n falls below the default
# exponent range from about n = 1.75e6, so the range is the widest
# decimal allows.  From about n = 1.75e18 mu^n underflows even that, to
# an exact 0 that every sum absorbs; no power of 1/mu is formed, so
# nothing overflows.
_DIGITS = 56
_CONTEXT = Context(prec=_DIGITS, Emax=MAX_EMAX, Emin=MIN_EMIN)
_SUM = Context(prec=2 * _DIGITS, Emax=MAX_EMAX, Emin=MIN_EMIN)  # _fsum's at the working digits, twice them


def _working_double_moment() -> Decimal:
    """double_moment in the working digits: the routes' constant term."""
    with localcontext(_CONTEXT):
        return double_moment(Decimal)


_DOUBLE_MOMENT = _working_double_moment()  # summed once

# The records are namedtuples, as in every module of the package: the
# dataclasses module imports inspect and through it ast, dis and tokenize,
# about 10 ms of a cold `import optquad`.  Read them with _asdict(),
# _replace() and _fields.
NormReport = namedtuple("NormReport", [
    "n",
    "h",
    "via_quadratic_form",
    "via_multipliers",
    "via_expanded",
    "via_theorem2",
    "rel_diff_qf_mult",
    "rel_diff_qf_expanded",
    "rel_diff_qf_thm2",
    "verdict",
    "multiplier_source",
    "closed_rule_quadratic_form",
    "coefficient_max_deviation",
])
NormReport.__doc__ = "The four routes at one n, their gaps and verdict, and the printed rule's norm."


def _rel_diff(a, b):
    """|a - b| / max(|a|, |b|, 1e-300) in the type of a, float or Decimal."""
    return abs(a - b) / max(abs(a), abs(b), _DECIMAL_TINY if isinstance(a, Decimal) else _TINY)


def _verdict(d_mult: float, d_expanded: float, d_thm2: float) -> str:
    if d_mult <= CONSISTENCY_RTOL and d_expanded <= CONSISTENCY_RTOL:
        if d_thm2 <= CONSISTENCY_RTOL:
            return "consistent"
        return "theorem2_discrepant"
    return "inconsistent"


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
    qn = q**n

    lead = h * h / 12.0
    # the printed h-block; note (1 - e^h)^2 = expm1(h)^2
    h_block = (h * (2.0 - eh - 3.0 * eh * eh) + 4.0 + 2.0 * eh + 6.0 * eh * eh) / (
        4.0 * em1 * em1
    )

    # K [(lam^N + lam^2)(1+e^h) - (lam^(N+1) + lam)(1+2e^h)] / (2 (1-lam))
    t1 = (
        -ks
        * q
        * ((q + q ** (n - 1)) * (1.0 + eh) - (1.0 + qn) * (1.0 + 2.0 * eh))
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


# ------------------------------------------------------------- power sums


def power_sums(r, n: int):
    """(r^n, S_0, S_1, S_2): S_k = sum_{j=1}^{n-1} j^k r^j in closed form, in the type of r.

    With m = n - 1, (1 - r) S_0 = r - r^n, (1 - r) S_1 = S_0 - m r^n and
    (1 - r) S_2 = 2 S_1 - S_0 - m^2 r^n.  The exact core takes them in
    Decimal, for each rule's layer ratio (_layout_sums); validate checks
    them in float against brute-force sums at random r in [-0.9, 0.9] and
    n <= 50.  At n = 1 the range is empty and the sums are 0.  Raises
    ValueError at r = 1, where the forms are singular, and unless n >= 1.
    """
    if r == 1:
        raise ValueError("the closed forms are singular at r = 1")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    m = n - 1
    r_n, gap = r**n, 1 - r
    s0 = (r - r_n) / gap
    s1 = (s0 - m * r_n) / gap
    return r_n, s0, s1, (2 * s1 - s0 - m * m * r_n) / gap


# ------------------------------------------------------------- the report


_Grid = namedtuple("_Grid", ["n", "h", "wide", "wide_eh", "e", "ei", "eh", "ehi", "gap_eh", "gap_ehi",
                             "psi_1"])
_Grid.__doc__ = """The values of grid n that both rules read, each formed once (_grid).

wide is the grid's guard-digit context and wide_eh is e^h in it; the
rest are in the working digits: h = 1/n, e and ei = e^(+-1), eh and
ehi = e^(+-h), the gaps gap_eh and gap_ehi = 1 - e^(+-h) and
psi_1 = psi_2(1).
"""

_LayoutSums = namedtuple("_LayoutSums", ["mu", "inv", "gap", "mu_n", "mu_up", "mu_down", "gap_up", "gap_down",
                                         "s0", "s1", "s2", "up", "down", "flat_up", "flat_down"])
_LayoutSums.__doc__ = """S_k(r) = sum_{j=1}^{n-1} j^k r^j of the ratios of a rule's spread pieces.

mu is the rule's layer ratio.  s0, s1 and s2 are S_0, S_1 and S_2 of mu;
up and down are S_0 of mu e^h and mu e^-h, flat_up and flat_down S_0 of
e^h and e^-h.  The sums of the ratio 1 are integers, formed where they
are read.  The values the sums share are formed once with them and read
from here: inv = 1/mu, gap = 1 - mu, mu_n = mu^n, mu_up and
mu_down = mu e^(+-h), and gap_up and gap_down = 1 - mu e^(+-h).
"""

_Moments = namedtuple("_Moments", ["c", "ep", "en", "x", "xx", "moment"])
_Moments.__doc__ = "sum c, sum c e^x, sum c e^-x, sum c x, sum c x^2 and sum c moment(x) of a rule."

_ExactSolution = namedtuple("_ExactSolution",
                            ["grid", "amplitudes", "layout_sums", "moments", "rows", "b0", "d"],
                            defaults=(None, None))
_ExactSolution.__doc__ = """A uniform-grid rule in decimal: the five pieces with these amplitudes.

The weights are c_0 at node 0 and c_n at node n, and
A mu^(j-1) + B mu^(n-1-j) + h at the nodes j = 1 .. n-1, for the four
amplitudes (c_0, c_n, A, B); the constant piece h has none.  Below
n = 4 those ranges hold one or two nodes, and none at n = 1.  grid is
the _Grid.  Each rule forms once (_rule) its _LayoutSums, which carry
mu, its weights' _Moments and from them its kernel rows (row_0, row_n)
(_end_rows); the multipliers and the routes read them.  b0 and d are the
system's multipliers; the printed rule (_printed_solution) has none.
"""


# The guard digits of _exp_reciprocal's first integer sum, and of each retry.
_EXP_GUARD = 8


def _exp_reciprocal(n: int, wide: Context, guard: int = _EXP_GUARD) -> Decimal:
    """e^r correctly rounded in wide, where r is 1/n rounded in wide; O(1) decimal work.

    The digits Decimal.exp gives, r.exp() in wide, from integer sums and
    without its argument reduction.  With p = wide.prec and g = p + guard
    fraction digits, the terms T_0 = 10^g and T_j = floor(T_(j-1) / (j n))
    of 10^g e^(1/n) are summed, S, up to the last nonzero one, T_K, by C
    iterators: no Python loop runs once per term.  The bracket follows
    from the truncation, nothing in it is tuned:

      * each floor leaves T_j below its exact term t_j by
        e_j < 1 + e_(j-1)/(j n) < 2, and t_(K+1) = e_(K+1) < 2 starts a
        tail of ratio at most 1/(3n), so 0 <= 10^g e^(1/n) - S < 2K + 3;
      * r = a/b is 1/n rounded, delta = r - 1/n = (a n - b)/(n b) exactly,
        and |delta| < 10^-p (r < 1 from n = 2; r = 1 at n = 1);
      * 10^g e^r = (10^g e^(1/n)) e^delta lies at or above
        L = S + floor(S delta) and below L + 2K + 6: the floor's remainder
        (< 1), S (e^delta - 1 - delta) (< 1 while guard < p) and
        (2K + 3) e^delta (< 2K + 4) are all nonnegative.

    Rounding is monotone, so when L and L + 2K + 6 round to one value in
    wide, e^r rounds to it too (Ziv's test).  Otherwise e^r lies within
    2K + 6 units of a rounding boundary, about 10^-7 of a result ulp at
    the default guard, and the sum is taken again with _EXP_GUARD more
    digits; e^r is transcendental, never on a boundary, so the retries
    end.  wide rounds half-even, as every context of the package does and
    as Decimal.exp always rounds.
    """
    g = wide.prec + guard
    terms = list(takewhile(bool, accumulate(chain((10**g,), count(n, n)), floordiv)))
    total = sum(terms)
    a, b = wide.divide(1, n).as_integer_ratio()
    low = total + total * (a * n - b) // (n * b)
    lo, hi = wide.create_decimal(low), wide.create_decimal(low + 2 * len(terms) + 4)
    if lo != hi:
        return _exp_reciprocal(n, wide, guard + _EXP_GUARD)
    return wide.scaleb(lo, -g)


def _grid(n: int) -> _Grid:
    """The _Grid of n in the current context; straight-line, O(1).

    wide is the working precision plus 4 digits(n) + 12, and e^h is taken
    there, correctly rounded, from integer sums (_exp_reciprocal).  e^h
    and e = e^(nh), its integer power n in wide, are rounded once to the
    working precision, and e^(-kh) is 1 / e^(kh).  1 - e^h cancels about
    log10 n digits, so it is formed in wide too, and
    1 - e^-h = -(1 - e^h) e^-h.  The power's relative error is about n
    guard-digit ulps: 10^-98 at n = 10^9 in 56 working digits, far below
    one working ulp.
    """
    wide = getcontext().copy()
    wide.prec += 4 * len(str(n)) + 12
    wide_eh = _exp_reciprocal(n, wide)
    e, expm1 = wide.power(wide_eh, n), wide.subtract(wide_eh, 1)
    h = Decimal(1) / n
    e, eh = +e, +wide_eh  # the unary plus rounds to the working precision
    ei, ehi = 1 / e, 1 / eh
    gap_eh = -expm1  # the negation rounds to the working precision
    return _Grid(n, h, wide, wide_eh, e, ei, eh, ehi, gap_eh, -gap_eh * ehi, (e - ei) / 4 - n * h / 2)


def _layout_sums(grid: _Grid, mu) -> _LayoutSums:
    """The _LayoutSums of the layer ratio mu on grid; straight-line, O(1).

    mu's end power and S_k are power_sums'.  The other ratios take S_0
    alone, (1 - r) S_0 = r - r^n, from their end powers, mu^n times one
    of 1 and e^(+-1), and their gaps.  1 - e^(+-h) cancel about log10 n
    digits and are the grid's guard-digit gaps.
    """
    e, ei, eh, ehi = grid.e, grid.ei, grid.eh, grid.ehi
    mu_n, s0, s1, s2 = power_sums(mu, grid.n)
    up, down = mu * eh, mu * ehi
    gap_up, gap_down = 1 - up, 1 - down
    return _LayoutSums(mu, 1 / mu, 1 - mu, mu_n, up, down, gap_up, gap_down, s0, s1, s2,
                       (up - mu_n * e) / gap_up, (down - mu_n * ei) / gap_down,
                       (eh - e) / grid.gap_eh, (ehi - ei) / grid.gap_ehi)


def _fsum(terms):
    """Sum Decimals in twice the current context's digits, then round once to them.

    Through a context's own add, with no local context entered per call:
    _SUM at the working digits, and at any other precision (the tests'
    wider references) a context of twice it.
    """
    prec = getcontext().prec
    wide = _SUM if prec == _DIGITS else Context(prec=2 * prec, Emax=MAX_EMAX, Emin=MIN_EMIN)
    return +reduce(wide.add, terms, Decimal(0))  # the unary plus rounds to the current digits


def _moment_sums(grid: _Grid, ls: _LayoutSums, amplitudes) -> _Moments:
    """The _Moments of the five pieces with these four amplitudes, from ls; straight-line.

    The layer mu^(j-1) sums to S_k(mu e^(+-h)) / mu.  The mirror mu^(n-1-j)
    is the layer read from the other end, j -> n - j, so its sums are the
    same S_k: e^(+-1) S_0(mu e^(-+h)) / mu, (n S_0 - S_1) / mu and
    (n^2 S_0 - 2n S_1 + S_2) / mu, with no power of 1/mu.
    """
    n, h, e, ei = grid.n, grid.h, grid.e, grid.ei
    m = n - 1
    c_0, c_n, a, b = amplitudes
    a, b = a * ls.inv, b * ls.inv  # the amplitudes times the layers' scale 1/mu
    s_c = _fsum([c_0, c_n, a * ls.s0, b * ls.s0, h * m])
    s_ep = _fsum([c_0, c_n * e, a * ls.up, b * (e * ls.down), h * ls.flat_up])
    s_en = _fsum([c_0, c_n * ei, a * ls.down, b * (ei * ls.up), h * ls.flat_down])
    s_x = h * _fsum([c_n * n, a * ls.s1, b * (n * ls.s0 - ls.s1), h * (m * n // 2)])
    s_xx = h * h * _fsum([c_n * (n * n), a * ls.s2, b * (n * n * ls.s0 - 2 * n * ls.s1 + ls.s2),
                          h * (m * n * (2 * n - 1) // 6)])
    # moment(x) = ((1 + 1/e) e^x + (1 + e) e^-x)/4 - 5/4 - x^2/2 + x/2
    s_m = _fsum([(1 + 1 / e) * s_ep / 4, (1 + e) * s_en / 4, -s_c * 5 / 4, -s_xx / 2, s_x / 2])
    return _Moments(s_c, s_ep, s_en, s_x, s_xx, s_m)


def _end_rows(grid: _Grid, m: _Moments):
    """(row_0, row_n) of the rule whose _Moments are m, on grid.

    The rows are sum_j c_j psi_2(x_j) and sum_j c_j psi_2(1 - x_j).  On
    [0, 1] psi_2(x) = (e^x - e^-x)/4 - x/2 and
    psi_2(1 - x) = (e e^-x - e^x/e)/4 - 1/2 + x/2, so both rows are fixed
    combinations of the moment sums sum c e^x, sum c e^-x, sum c x and
    sum c, whatever the pieces.
    """
    e = grid.e
    row_0 = _fsum([m.ep / 4, -m.en / 4, -m.x / 2])
    row_n = _fsum([e * m.en / 4, -m.ep / (4 * e), -m.c / 2, m.x / 2])
    return row_0, row_n


def _rule(grid: _Grid, mu, amplitudes) -> _ExactSolution:
    """The rule of the five pieces with ratio mu and these amplitudes on grid, without multipliers.

    mu and the amplitudes are rounded to the working digits first.
    """
    mu, amplitudes = +mu, tuple(+a for a in amplitudes)
    ls = _layout_sums(grid, mu)
    moments = _moment_sums(grid, ls, amplitudes)
    return _ExactSolution(grid, amplitudes, ls, moments, _end_rows(grid, moments))


def _exact_solution(n: int) -> _ExactSolution:
    """The exact minimizer of the uniform system in the working decimal context; O(1) per n.

    By Schoenberg's theorem (Bull. AMS 70, 1964) the minimizer integrates
    the natural spline of span{1, x, e^x, e^-x} through the samples, so its
    weights are the trapezoid weights plus the second differences over h
    of the spline's adjoint values y_0 .. y_n.  Those solve a tridiagonal
    system with the rows t y_(k-1) + 2c y_k + t y_(k+1) = 2 gamma inside
    and (c - 1) y_0 + t y_1 = gamma, t y_(n-1) + (1 + c) y_n = gamma at the
    ends, where t = 1/h - 1/sinh h, c = coth h - 1/h and
    gamma = tanh(h/2) - h/2.  Its solution is y_k = Y + P mu^k + Q mu^(n-k)
    with Y = gamma/(t + c) and mu = -s + sqrt(s^2 - 1), s = c/t, the root
    of t z^2 + 2c z + t inside the unit circle; the two end rows are a
    2 x 2 system for P and Q, solved by Cramer's rule.  The weights are
    then the five pieces with the amplitudes

        c_0 = h/2 - (1 - mu)(P - Q mu^(n-1))/h,  A = (1 - mu)^2 P/h,
        c_n = h/2 - (1 - mu)(Q - P mu^(n-1))/h,  B = (1 - mu)^2 Q/h,

    at every n >= 1.  t, c and gamma cancel O(1/h) or O(h) terms down to
    O(h), about 2 log10 n digits, so mu and the amplitudes are formed in
    the grid's guard-digit context (_Grid.wide) from its e^h.  The
    multipliers follow from the kernel rows 0 and n, read off the moment
    sums (_end_rows): b0 + d = moment(0) - row_0 and
    b0 + d/e = moment(1) - row_n, where moment(0) = moment(1).  No size
    cap: the cost does not grow with n.
    """
    grid = _grid(n)
    with localcontext(grid.wide):
        eh, e2h = grid.wide_eh, grid.wide_eh * grid.wide_eh
        t = n - 2 * eh / (e2h - 1)
        c = (e2h + 1) / (e2h - 1) - n
        gamma = (eh - 1) / (eh + 1) - Decimal(1) / (2 * n)
        s = c / t
        mu = (s * s - 1).sqrt() - s
        y, layer = gamma / (t + c), mu ** (n - 1)
        # the end rows: P a_0 + Q b_0 = Y and P b_n + Q a_n = -Y
        a_0, b_0 = c - 1 + t * mu, ((c - 1) * mu + t) * layer
        a_n, b_n = 1 + c + t * mu, (t + (1 + c) * mu) * layer
        det = a_0 * a_n - b_0 * b_n
        p, q = y * (a_n + b_0) / det, -y * (a_0 + b_n) / det
        step, half = (1 - mu) * n, Decimal(1) / (2 * n)
        amplitudes = [half - step * (p - q * layer), half - step * (q - p * layer),
                      step * (1 - mu) * p, step * (1 - mu) * q]
    sol = _rule(grid, mu, amplitudes)
    row_0, row_n = sol.rows
    e, ei = grid.e, grid.ei
    d = (row_n - row_0) / (1 - ei)
    b0 = (e + ei - 3) / 4 - row_0 - d  # moment(0) = (e + 1/e - 3)/4
    return sol._replace(b0=b0, d=d)


def _printed_solution(n: int) -> _ExactSolution:
    """The printed rule optimal_coefficients(n) in the working decimal context; O(1) per n.

    Its weights are the five pieces with mu = q = 1/lambda1 (see the
    coefficients module) and amplitudes c_0, c_n, -Kscaled (e^h - q) q and
    -Kscaled (1 - e^h q) q.  lambda1, Kscaled and the end weights
    cancel O(1) terms down to h^3, about 3 log10 n digits, so they are
    formed in the grid's guard-digit context (_Grid.wide, 4 digits(n) +
    12 past the working digits) from its e^h.
    """
    grid = _grid(n)
    with localcontext(grid.wide):
        h = Decimal(1) / n
        eh = grid.wide_eh
        em1, e2h = eh - 1, eh * eh
        root = (h * h * (eh + 1) ** 2 - 2 * h * em1).sqrt()
        lam = (h * (e2h + 1) - e2h + 1 - em1 * root) / (1 - e2h + 2 * h * eh)
        q = 1 / lam
        qn = q**n
        ks = (2 * em1 - h * eh - h) * (lam - 1) / (2 * em1 * em1 * (1 + qn))
        corr = ks * (qn - q)
        c_0, c_n = (em1 - h) / em1 - corr, (h * eh - em1) / em1 - corr * eh
        amplitudes = [c_0, c_n, -ks * (eh - q) * q, -ks * (1 - eh * q) * q]
    return _rule(grid, q, amplitudes)


def _pair_sums(grid: _Grid, ls: _LayoutSums):
    """(layer, mirror, cross, flat): the pair sums of the spread pieces, straight-line.

    A pair sum is sum_{i,j=1}^{n-1} p_i q_j psi_2(|i - j| h); these are the
    layer mu^(j-1) with itself, with its mirror mu^(n-1-j) and with the
    constant h, and the constant with itself.  The mirror's pairs with
    itself and with the constant are the layer's, read from the other end.
    Row i of a ratio r on 1 .. n-1 splits psi_2 at i: with u = r e^-h its
    e^(ih) part is e^(ih)/4 times
    sum_{j <= i} u^j - sum_{j > i} u^j = (u + u^n - 2 u^(i+1)) / (1 - u),
    its e^(-ih) part the same on u = r e^h, and its lag part -h/2 times
    sum_j |i - j| r^j = i (r + r^n) / (1 - r) + 2 r^(i+1) / (1 - r)^2
                        - (r + (n-1) r^n) / (1 - r) - (r^2 + r^n) / (1 - r)^2,
    or i^2 - n i + n (n - 1)/2 when r is 1.  So the row is
    al_up e^(ih) + al_down e^(-ih) + beta r^i + gamma i + delta, and the
    pair sum is that row summed against the other piece: the _LayoutSums,
    their mirror images as in _moment_sums, and S_0(mu^2).
    """
    n, h, e, ei, mu, mu_n = grid.n, grid.h, grid.e, grid.ei, ls.mu, ls.mu_n
    m = n - 1
    lag = -h / 2

    def exponentials(up, down, gap_up, gap_down, r_n):
        """al_up, al_down and the e^(+-x) part of beta for the ratio r = up e^-h = down e^h."""
        return ((down + r_n * ei) / (4 * gap_down), -(up + r_n * e) / (4 * gap_up),
                up / (2 * gap_up) - down / (2 * gap_down))

    gap, inv, sq = ls.gap, ls.inv, mu * mu
    al_up, al_down, beta = exponentials(ls.mu_up, ls.mu_down, ls.gap_up, ls.gap_down, mu_n)
    beta += lag * 2 * mu / (gap * gap)
    gamma = lag * (mu + mu_n) / gap
    delta = -lag * ((mu + m * mu_n) / gap + (sq + mu_n) / (gap * gap))
    layer = inv * inv * (al_up * ls.up + al_down * ls.down + beta * ((sq - mu_n * mu_n) / (1 - sq))
                         + gamma * ls.s1 + delta * ls.s0)
    mirror = inv * inv * (al_up * (e * ls.down) + al_down * (ei * ls.up) + beta * (m * mu_n)
                          + gamma * (n * ls.s0 - ls.s1) + delta * ls.s0)
    cross = inv * h * (al_up * ls.flat_up + al_down * ls.flat_down + beta * ls.s0
                       + gamma * (m * n // 2) + delta * m)
    al_up, al_down, beta = exponentials(grid.eh, grid.ehi, grid.gap_eh, grid.gap_ehi, 1)
    flat = h * h * (al_up * ls.flat_up + al_down * ls.flat_down + beta * m
                    + lag * ((n - 2) * m * n // 3))  # sum_ij |i - j| = (n - 2)(n - 1) n / 3
    return layer, mirror, cross, flat


def _kernel_form(sol: _ExactSolution):
    """sum_ij c_i c_j psi_2(|i - j| h) over the pieces, in O(1) decimal operations.

    With c the deltas c_0 and c_n at the nodes 0 and n plus the spread
    pieces s on 1 .. n-1, the form is

        2 c_0 row_0 + 2 c_n row_n - 2 c_0 c_n psi_2(1) + s^T G s,

    the rows of the whole rule (sol.rows) counting the pair c_0 c_n twice
    over, and s^T G s the spread pieces' pair sums (_pair_sums).
    """
    c_0, c_n, a, b = sol.amplitudes
    row_0, row_n = sol.rows
    layer, mirror, cross, flat = _pair_sums(sol.grid, sol.layout_sums)
    return _fsum([2 * c_0 * row_0, 2 * c_n * row_n, -2 * c_0 * c_n * sol.grid.psi_1,
                  a * a * layer, 2 * a * b * mirror, 2 * a * cross,
                  b * b * layer, 2 * b * cross, flat])


def _route1(sol: _ExactSolution):
    """Route 1, the quadratic form of sol's weights."""
    return _fsum([_kernel_form(sol), -2 * sol.moments.moment, _DOUBLE_MOMENT])


def _route2(sol: _ExactSolution):
    """Route 2, the multiplier form of sol and its multipliers."""
    m = sol.moments
    return _fsum([-sol.d * m.en, -sol.b0 * m.c, -m.moment, _DOUBLE_MOMENT])


def _route3(sol: _ExactSolution):
    """Route 3, the expanded form of sol and its multipliers.

    Route 2 with the moment sum written out through sum c e^x, sum c x,
    sum c x^2 and the two constraints.
    """
    m, e = sol.moments, sol.grid.e
    return _fsum([
        -sol.b0,
        (1 - e) / e * sol.d,
        -(e + 1) / (4 * e) * m.ep,
        -(1 + e) / 4 * (1 - 1 / e),
        Decimal(5) / 4,
        m.xx / 2,
        -m.x / 2,
        _DOUBLE_MOMENT,
    ])


# the reduction routes by their `norm --methods` names
_REDUCED_ROUTES = {"multiplier": _route2, "expanded": _route3}


def _float_weights_on(sol: _ExactSolution, windows) -> list[list[float]]:
    """The weights in float64 from the Decimal amplitudes, at the nodes first..last of each window.

    windows are (first, last) pairs.  c_0 and c_n are rounded at the
    nodes 0 and n.  Each layer is its amplitude at its end of 1 .. n-1,
    where it is largest (mu^(j-1) at node 1, mu^(n-1-j) at node n - 1),
    and is stepped from there by mu ** (distance from that end) in
    float64, so nothing overflows: between the deltas the weight is
    ((0.0 + A' mu'^(j-1)) + B' mu'^(n-1-j)) + float(h), where A', B' and
    mu' are float(A), float(B) and float(mu).  The tests' piece form
    (oracles.float_weights_on) starts from A (1/mu) mu and
    B mu^(n-1) mu^-(n-1) and steps by 1/(1/mu), in the working digits:
    A, B and mu times 1 + O(10^-55), which round to the same floats
    unless one lies within that of a float64 rounding boundary; the tests
    pin the two bit for bit at every n up to 2048, on a ladder to 10^7
    and at 10^9.  mu is negative, and libm's pow and numpy's power form its
    powers alike.  A power that underflows adds an exact 0.0, which leaves
    every weight as it is (none is ever -0.0).
    """
    n = sol.grid.n
    c_0, c_n, a, b = map(float, sol.amplitudes)
    mu, flat = float(sol.layout_sums.mu), float(sol.grid.h)
    return [[c_0 if j == 0 else c_n if j == n
             else ((0.0 + a * mu ** (j - 1)) + b * mu ** (n - 1 - j)) + flat
             for j in range(first, last + 1)] for first, last in windows]


def _window_width(sol: _ExactSolution) -> int:
    """The end-window width outside which sol's float64 weights are float(h).

    Its layers mu^(j-1) and mu^(n-1-j), amplitudes A and B, start one
    node in, so the width is one more than spectral.layer_width of the
    larger.
    """
    return 1 + layer_width(float(max(map(abs, sol.amplitudes[2:]))), float(sol.layout_sums.mu),
                           float(sol.grid.h))


def _coefficient_max_deviation(sol: _ExactSolution) -> float:
    """max_j |minimizer's float64 C_j - printed C_j|, read on the end windows; O(1).

    Outside both rules' end windows (_window_width and
    spectral.closed_width) both weight sets are float(h), so the windows
    of the wider hold the maximum.  From n = 2 * 30 = 60 they are two, and
    below it the one window is the whole grid.
    """
    n = sol.grid.n
    sc = constants(n)
    windows = end_windows(n, max(_window_width(sol), closed_width(sc)))
    return max(
        abs(x - y)
        for (first, last), weights in zip(windows, _float_weights_on(sol, windows))
        for x, y in zip(weights, closed_weights(sc, first, last))
    )


# Route 1 loses about 4 log10 n + 3 of the working digits: against the
# same closed forms in 90 digits the printed rule's is 3.3e-29 relative off
# at n = 10^6, 2.6e-21 at 10^8 and 1.1e-17 at 10^9 (the minimizer's
# 9.0e-30, 5.0e-22 and 5.4e-17), but 7.5e-13 at 10^10 and 5.4e-9 at
# 10^11, past what a float64 result may carry.  Routes 2 and 3 cancel their
# terms down to the same h^4/720.
_MAX_N = 10**9


def _check_n(n: int, what: str) -> None:
    if not 1 <= n <= _MAX_N:
        raise ValueError(f"{what} is evaluated for 1 <= n <= 10^9, got {n}")


def closed_rule_norm(n: int) -> float:
    """Squared norm of the printed rule optimal_coefficients(n), exact, in O(1).

    Route 1 of _printed_solution, from the straight-line layout sums the
    report takes for the minimizer (_layout_sums): the end rows read off
    the rule's moment sums and the pair sums of its spread pieces.  Raises
    ValueError unless 1 <= n <= 10^9.
    """
    _check_n(n, "the printed rule's norm")
    with localcontext(_CONTEXT):
        return float(_route1(_printed_solution(n)))


def minimizer_weights(n: int) -> tuple[list[tuple[int, int, list[float]]], float, float, float]:
    """(windows, h, b0, d): the exact minimizer's float64 weights and its multipliers; O(1).

    windows are (first, last, weights) for the nodes first..last of its
    two end windows, about 30 nodes each (one window 0..n where they
    meet), stepped out in float64 from the 56-digit solve of
    _exact_solution (_float_weights_on).  Every weight between them is h,
    float(1/n); b0 and d are each rounded once.  wiener_hopf.solve_uniform
    fills the n + 1 weights from them.  Raises ValueError unless
    1 <= n <= 10^9.
    """
    _check_n(n, "the minimizer's weights")
    with localcontext(_CONTEXT):
        sol = _exact_solution(n)
        windows = end_windows(n, _window_width(sol))
        return ([(first, last, weights)
                 for (first, last), weights in zip(windows, _float_weights_on(sol, windows))],
                float(sol.grid.h), float(sol.b0), float(sol.d))


def multiplier_routes(n: int, method: str) -> float:
    """Route 2 ("multiplier") or route 3 ("expanded") of the exact minimizer; O(1).

    The one public entry to the two reduction routes, one per call: only
    the route that method names is formed, from the 56-digit solve and
    sums that give build_report its via_multipliers and via_expanded, so
    it returns the same float.  Raises ValueError on another method, or
    unless 1 <= n <= 10^9.
    """
    route = _REDUCED_ROUTES.get(method)
    if route is None:
        raise ValueError(f"method must be 'multiplier' or 'expanded', got {method!r}")
    _check_n(n, f"the {method} route")
    with localcontext(_CONTEXT):
        return float(route(_exact_solution(n)))


def minimizer_audit(n: int) -> dict:
    """The NormReport fields of the exact minimizer on the uniform grid with n subintervals.

    Routes 1-3 (via_*) and their gaps (rel_diff_qf_*) are solved and
    evaluated in 56 digits, in O(1) decimal work; coefficient_max_deviation
    is the largest gap between the minimizer's float64 weights and those of
    the printed rule optimal_coefficients(n), read on the end windows in
    O(1) float work.  build_report and validate read it.  Raises ValueError
    unless 1 <= n <= 10^9.
    """
    _check_n(n, "the minimizer audit")
    with localcontext(_CONTEXT):
        sol = _exact_solution(n)
        qf, mult, expanded = _route1(sol), _route2(sol), _route3(sol)
        return {
            "via_quadratic_form": float(qf),
            "via_multipliers": float(mult),
            "via_expanded": float(expanded),
            "rel_diff_qf_mult": float(_rel_diff(qf, mult)),
            "rel_diff_qf_expanded": float(_rel_diff(qf, expanded)),
            "coefficient_max_deviation": _coefficient_max_deviation(sol),
        }


def build_report(n: int) -> NormReport:
    """Evaluate all four routes and classify their agreement.

    The three reduction routes are compared on the exact solution of the
    system, formed and evaluated in 56 digits at every n; see
    minimizer_audit.  multiplier_source is the fixed string "dense_solve",
    kept for the record's schema.  The printed rule's norm is
    closed_rule_norm.
    """
    _check_n(n, "the norm report")
    audit = minimizer_audit(n)
    thm2 = norm_theorem2(n)
    d_thm2 = _rel_diff(audit["via_quadratic_form"], thm2)
    return NormReport(
        n=n,
        h=1.0 / n,
        via_theorem2=thm2,
        rel_diff_qf_thm2=d_thm2,
        verdict=_verdict(audit["rel_diff_qf_mult"], audit["rel_diff_qf_expanded"], d_thm2),
        multiplier_source="dense_solve",
        closed_rule_quadratic_form=closed_rule_norm(n),
        **audit,
    )
