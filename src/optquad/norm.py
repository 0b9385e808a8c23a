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
geometric boundary layers in mu), and
psi_2 is exponential-polynomial, so every entry of the 6 x 6 bordered
system and every sum the routes take -- route 1's quadratic form
included, from kernel rows and pair sums of the pieces -- has a closed
form (ExpSums).  Each spread piece's kernel image is one short
exponential-polynomial in the row index, so its rows inside the range
and its pair sums reuse the geometric sums the moments take; the rows 0
and n, outside the 1 .. n-1 pieces, are one-sided sums over the whole
range.  The report's decimal work is therefore the same at
every n, and the report has one path with no size cap.  Route 1 sums
terms near 1 down to about h^4/720, which costs about 4 log10 n + 3
digits (27 at n = 10^6); 56 digits leave room for that well past
n = 10^6.  Each grid takes one Decimal.exp, of e^h in 4 digits(n) + 12
guard digits; every e^(kh) is its integer power k there, rounded once to
the working digits, and every 1 - e^(bh) is formed there too (ExpSums).
The printed rule has the same pieces with q = 1/lambda1 for mu, so its
norm (closed_rule_norm) is route 1 from the same sums, and
coefficient_max_deviation reads both float64 weight sets, in Python
floats, on the end windows only, where their float64 boundary layers have
not yet underflowed.  The same solve serves every caller that needs the
system's solution: multiplier_routes(n, method), behind `norm --methods
multiplier|expanded`, forms route 2 or route 3 of it alone, written once
with the report, so it prints the report's own values; minimizer_weights
steps its weights out over the grid in float64 for `coeffs --method
system` (wiener_hopf.solve_uniform).  The module runs on the standard
library alone, and so do `norm` and `validate`.  Its records are
namedtuples, as every record in the package is.

The printed theorem-2 expression disagrees with route 1 by several orders of
magnitude (its h-block diverges like 3/h^2 as the grid refines); the report
measures and classifies that discrepancy, it does not repair the formula.
"""
from __future__ import annotations

import math
from collections import namedtuple
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext

from ._expsums import ONE, ExpSums
from .spectral import closed_weights, constants, filter_band, layer_width

__all__ = [
    "NormReport",
    "build_report",
    "closed_rule_norm",
    "double_moment",
    "geometric_sums",
    "minimizer_audit",
    "minimizer_weights",
    "multiplier_routes",
    "norm_theorem2",
]

# Verdict threshold on the symmetric relative differences.
CONSISTENCY_RTOL = 1e-6

_TINY = 1e-300

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
# 52 would leave it 2.5e-22 off there.  The pair sums form mu^(-2n), past
# the default exponent range from about n = 2e6, so the range is the
# widest decimal allows.
_DIGITS = 56
_CONTEXT = Context(prec=_DIGITS, Emax=MAX_EMAX, Emin=MIN_EMIN)


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
    """|a - b| / max(|a|, |b|) in the type of a, float or Decimal."""
    return abs(a - b) / max(abs(a), abs(b), type(a)(_TINY))


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


# ------------------------------------------------------------- the report


_Piece = namedtuple("_Piece", ["scale", "ratio", "lo", "hi"])
_Piece.__doc__ = "Weights scale * ratio^j for lo <= j <= hi, ratio as ExpSums exponents."

_ExactSolution = namedtuple("_ExactSolution", ["sums", "pieces", "mirror", "amplitudes", "rows", "b0", "d"],
                            defaults=(None, None))
_ExactSolution.__doc__ = """A uniform-grid rule in decimal, weights c_j = sum_p amplitude_p piece_p(j).

sums is the grid's ExpSums, pieces are _layout's _Piece tuples and mirror
their mirror map.  rows maps each kept row i to the kernel row sums
sum_j psi_2(|i - j| h) piece_p(j).  b0 and d are the system's
multipliers; the printed rule (_printed_solution) has none.
"""


def _layout(sums: ExpSums) -> tuple[tuple[_Piece, ...], tuple[int, ...]]:
    """The pieces of a rule on sums' grid, mu read from sums, and their mirror map.

    From n = 4 the deltas at 0 and n, mu^(j-1) and mu^(n-1-j) on 1 .. n-1
    and the constant h there; below, one delta per node.  mirror[p] is the
    piece with piece_p(j) = piece_mirror[p](n - j).
    """
    n, mu = sums.n, sums.mu
    if n < 4:
        return tuple(_Piece(1, ONE, k, k) for k in range(n + 1)), tuple(range(n, -1, -1))
    pieces = (
        _Piece(1, ONE, 0, 0),
        _Piece(1, ONE, n, n),
        _Piece(1 / mu, (1, 0), 1, n - 1),
        _Piece(mu ** (n - 1), (-1, 0), 1, n - 1),
        _Piece(sums.h, ONE, 1, n - 1),
    )
    return pieces, (1, 0, 3, 2, 4)


def _kernel_rows(sums: ExpSums, pieces, mirror, kept) -> dict:
    """{i: [sum_j psi_2(|i - j| h) piece_p(j) for each piece p] for i in kept}.

    A piece's row i is row n - i of its mirror image (mu^(n-1-j) of
    mu^(j-1), c_n of c_0, h of itself), so mirror-symmetric rows share
    half of their sums.
    """
    n = sums.n
    cache = {}

    def row_sum(p, i):
        p, i = min((p, i), (mirror[p], n - i))
        if (p, i) not in cache:
            piece = pieces[p]
            cache[p, i] = piece.scale * sums.row(piece.ratio, i, piece.lo, piece.hi)
        return cache[p, i]

    return {i: [row_sum(p, i) for p in range(len(pieces))] for i in kept}


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
    every filtered row of the system (see wiener_hopf) exactly, with mu
    from filter_band in decimal.  c_0, c_n, A, B, b0 and d then solve four
    kernel rows and the two constraints, a 6 x 6 system whose entries are
    closed-form sums (ExpSums).  Once the filtered rows hold, the kernel
    rows' residual is a combination of 1, x, e^x and e^-x over the nodes,
    which vanishes when it vanishes at any four nodes, so any four rows
    fix the same solution.  The rows 0, n//3, n - n//3 and n are
    mirror-symmetric, so half of their row sums serve twice.  Below n = 4
    the unknowns are every weight and every row is kept.  No size cap: the
    cost does not grow with n.
    """
    sums = ExpSums(n)
    if n >= 4:
        a = sums.exp(1) + sums.exp(-1)
        g0, g1 = filter_band(sums.kernel(1), sums.kernel(2), sums.kernel(3), a)
        kappa = g1 / g0
        sums.mu = -2 * kappa / (1 + (1 - 4 * kappa * kappa).sqrt())
    pieces, mirror = _layout(sums)
    kept = range(n + 1) if n < 4 else [0, n // 3, n - n // 3, n]
    rows = _kernel_rows(sums, pieces, mirror, kept)

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
    return _ExactSolution(sums, pieces, mirror, tuple(amplitudes), rows, b0, d)


def _printed_solution(n: int) -> _ExactSolution:
    """The printed rule optimal_coefficients(n) in the working decimal context; O(1) per n.

    Its weights are _layout's pieces with mu = q = 1/lambda1 (see the
    coefficients module), amplitudes c_0, c_n, -Kscaled (e^h - q) q,
    -Kscaled (1 - e^h q) q and 1.  lambda1, Kscaled and the end weights
    cancel O(1) terms down to h^3, about 3 log10 n digits, so they are
    formed with 4 digits(n) + 10 guard digits, from the wide e^h of the
    solution's ExpSums.  Only the rows of the deltas are kept, which is
    all route 1 reads.
    """
    sums = ExpSums(n)
    with localcontext() as wide:
        wide.prec += 4 * len(str(n)) + 10
        h = Decimal(1) / n
        eh = sums.eh
        em1, e2h = eh - 1, eh * eh
        root = (h * h * (eh + 1) ** 2 - 2 * h * em1).sqrt()
        lam = (h * (e2h + 1) - e2h + 1 - em1 * root) / (1 - e2h + 2 * h * eh)
        q = 1 / lam
        qn = q**n
        ks = (2 * em1 - h * eh - h) * (lam - 1) / (2 * em1 * em1 * (1 + qn))
        corr = ks * (qn - q)
        c_0, c_n = (em1 - h) / em1 - corr, (h * eh - em1) / em1 - corr * eh
        alpha, beta = -ks * (eh - q), -ks * (1 - eh * q)  # of q^b and q^(n-b)
        if n < 4:
            amplitudes = [c_0, *(h + alpha * q**b + beta * q ** (n - b) for b in range(1, n)), c_n]
        else:
            amplitudes = [c_0, c_n, alpha * q, beta * q, 1]
    sums.mu = +q  # the unary plus rounds to the working digits
    pieces, mirror = _layout(sums)
    rows = _kernel_rows(sums, pieces, mirror, range(n + 1) if n < 4 else (0, n))
    return _ExactSolution(sums, pieces, mirror, tuple(+a for a in amplitudes), rows)


def _kernel_form(sol: _ExactSolution):
    """sum_ij c_i c_j psi_2(|i - j| h) over the pieces, in O(1) decimal operations.

    A delta piece at node k pairs with every piece through kernel row k,
    which the solution kept; two spread pieces pair through their pair sum
    (the first one's row expansion summed against the second), which
    equals that of their mirror images.
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


def _moment_sums(sol: _ExactSolution):
    """sum c, sum c e^x, sum c e^-x, sum c x, sum c x^2 and sum c moment(x), in decimal."""
    sums, h = sol.sums, sol.sums.h

    def weighted(k, shift):
        """sum_j j^k e^(shift x_j) c_j."""
        return _fsum(a * _piece_sum(sums, p, k, shift) for a, p in zip(sol.amplitudes, sol.pieces))

    e = sums.exp(sums.n)
    s_c, s_ep, s_en = weighted(0, 0), weighted(0, 1), weighted(0, -1)
    s_x, s_xx = h * weighted(1, 0), h * h * weighted(2, 0)
    # moment(x) = ((1 + 1/e) e^x + (1 + e) e^-x)/4 - 5/4 - x^2/2 + x/2
    s_m = _fsum([(1 + 1 / e) * s_ep / 4, (1 + e) * s_en / 4, -s_c * 5 / 4, -s_xx / 2, s_x / 2])
    return s_c, s_ep, s_en, s_x, s_xx, s_m


def _route1(sol: _ExactSolution, s_m):
    """Route 1, the quadratic form of sol's weights, given their sum c moment(x)."""
    return _fsum([_kernel_form(sol), -2 * s_m, _DOUBLE_MOMENT])


def _route2(sol: _ExactSolution, moments):
    """Route 2, the multiplier form of sol and its multipliers, given _moment_sums(sol)."""
    s_c, _, s_en, _, _, s_m = moments
    return _fsum([-sol.d * s_en, -sol.b0 * s_c, -s_m, _DOUBLE_MOMENT])


def _route3(sol: _ExactSolution, moments):
    """Route 3, the expanded form of sol and its multipliers, given _moment_sums(sol).

    Route 2 with the moment sum written out through sum c e^x, sum c x,
    sum c x^2 and the two constraints.
    """
    _, s_ep, _, s_x, s_xx, _ = moments
    e = sol.sums.exp(sol.sums.n)
    return _fsum([
        -sol.b0,
        (1 - e) / e * sol.d,
        -(e + 1) / (4 * e) * s_ep,
        -(1 + e) / 4 * (1 - 1 / e),
        Decimal(5) / 4,
        s_xx / 2,
        -s_x / 2,
        _DOUBLE_MOMENT,
    ])


# the reduction routes by their `norm --methods` names
_REDUCED_ROUTES = {"multiplier": _route2, "expanded": _route3}


def _exact_routes(sol: _ExactSolution):
    """Routes 1-3 on the exact solution, in decimal, from closed-form sums."""
    moments = _moment_sums(sol)
    return _route1(sol, moments[-1]), _route2(sol, moments), _route3(sol, moments)


def _float_weights_on(sol: _ExactSolution, first: int, last: int) -> list[float]:
    """The weights in float64 from the Decimal amplitudes, at the nodes first..last.

    Each piece is anchored at the end of its range where it is largest and
    stepped from there by its float64 ratio, ratio ** (distance from the
    anchor), so nothing overflows or underflows.  The ratios are mu < 0
    and 1, whose powers libm's pow and numpy's power form alike.  From
    layer_width(ratio) nodes past the anchor on, a layer adds 0.0, which
    leaves every weight as it is (none is ever -0.0), so it is not added.
    """
    c = [0.0] * (last - first + 1)
    for amp, (scale, ratio, lo, hi) in zip(sol.amplitudes, sol.pieces):
        step = sol.sums.power(ratio, 1)
        grows = abs(step) > 1
        r = float(1 / step if grows else step)
        a, b = max(first, lo), min(last, hi)
        if abs(r) < 1:
            if grows:
                a = max(a, hi - layer_width(r) + 1)
            else:
                b = min(b, lo + layer_width(r) - 1)
        if a > b:
            continue
        anchor = hi if grows else lo
        start = float(amp * scale * sol.sums.power(ratio, anchor))
        distance = range(hi - a, hi - b - 1, -1) if grows else range(a - lo, b - lo + 1)
        window = slice(a - first, b - first + 1)
        c[window] = [x + start * r**d for x, d in zip(c[window], distance)]
    return c


def _coefficient_max_deviation(sol: _ExactSolution) -> float:
    """max_j |minimizer's float64 C_j - printed C_j|, read on the end windows; O(1).

    Past layer_width of its float64 ratio a boundary layer's powers are
    exactly 0.0, so from node w to node n - w both weight sets are their
    constant interior values: the minimizer's layers mu^(j-1) and
    mu^(n-1-j) start one node in, the printed rule's q^b and q^(n-b) at
    the ends.  Nodes w and n - w stand for all the nodes between them.
    Up to n = 2w + 1 = 1137 the one window is the whole grid.
    """
    n = sol.sums.n
    sc = constants(n)
    w = layer_width(sc.q)
    if sol.sums.mu is not None:
        w = max(w, 1 + layer_width(float(sol.sums.mu)))
    windows = [(0, n)] if n <= 2 * w + 1 else [(0, w), (n - w, n)]
    return max(
        abs(x - y)
        for first, last in windows
        for x, y in zip(_float_weights_on(sol, first, last), closed_weights(sc, first, last))
    )


# Route 1 loses about 4 log10 n + 3 of the working digits: against the
# same closed forms in 90 digits it is 2.8e-29 relative off at n = 10^6,
# 1.0e-21 at 10^8 and 3.6e-18 at 10^9, but 5.4e-13 at 10^10 and 3.2e-9 at
# 10^11, past what a float64 result may carry.  Routes 2 and 3 cancel their
# terms down to the same h^4/720.
_MAX_N = 10**9


def _check_n(n: int, what: str) -> None:
    if not 1 <= n <= _MAX_N:
        raise ValueError(f"{what} is evaluated for 1 <= n <= 10^9, got {n}")


def closed_rule_norm(n: int) -> float:
    """Squared norm of the printed rule optimal_coefficients(n), exact, in O(1).

    Route 1 of _printed_solution, from the closed-form sums the report
    takes for the minimizer.  Raises ValueError unless 1 <= n <= 10^9.
    """
    _check_n(n, "the printed rule's norm")
    with localcontext(_CONTEXT):
        sol = _printed_solution(n)
        return float(_route1(sol, _moment_sums(sol)[-1]))


def minimizer_weights(n: int) -> tuple[list[float], float, float]:
    """(c, b0, d): the exact minimizer's weights at the nodes 0..n and its multipliers, in float64.

    The 56-digit solve of _exact_solution, O(1), with its weights stepped
    out over the grid in float64 (_float_weights_on), O(n), and b0 and d
    each rounded once.  wiener_hopf.solve_uniform reads them.  Raises
    ValueError unless 1 <= n <= 10^9.
    """
    _check_n(n, "the minimizer's weights")
    with localcontext(_CONTEXT):
        sol = _exact_solution(n)
        return _float_weights_on(sol, 0, n), float(sol.b0), float(sol.d)


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
        sol = _exact_solution(n)
        return float(route(sol, _moment_sums(sol)))


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
        qf, mult, expanded = _exact_routes(sol)
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
    system, solved and evaluated in 56 digits at every n (multiplier_source
    is always "dense_solve"); see minimizer_audit.  The printed rule's norm
    is closed_rule_norm.
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
