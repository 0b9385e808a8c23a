"""Closed forms for exponential-polynomial sums on the uniform grid, in decimal.

On the grid x_j = j h, h = 1/n, the stationarity system's weights are sums
of pieces r^j over index ranges: deltas, a constant and two geometric
boundary layers.  psi_2(|i - j| h) = g(|i - j|) with the odd function

    g(k) = (e^(kh) - e^(-kh))/4 - k h/2,

which separates into products of i- and j-factors.  So every moment and
every pairwise kernel sum of such pieces has a closed form in O(1)
decimal operations, whatever the range (Sobolev's discrete analogue of
the operator: Sobolev, Introduction to the Theory of Cubature Formulas,
1974).  Inside its range the kernel image of a piece r^j on lo .. hi is a
short exponential-polynomial in i, sum c i^k rho^i with rho in e^h,
e^-h, r and 1, whose coefficients come from the piece's end powers over
1 - r and 1 - r e^(+-h) (a ratio among those that is exactly 1 gives the
terms i e^(+-ih), i and i^2 instead).  A pair sum is the expansion summed
against the other piece: one geometric sum per term, on the same range
and ratios as the moments, plus the ratio r1 r2.  The kernel rows 0 and
n of a whole rule need no sums here: psi_2(x) and psi_2(1 - x) lie in
span{e^x, e^-x, x, 1} on [0, 1], so norm reads them off the rule's moment
sums.

A ratio r is carried as its integer exponents (a, b), r = mu^a e^(b h),
so the sums recognise a ratio of exactly 1 by (a, b) == (0, 0) instead of
comparing Decimal values; mu^a e^(bh) for a != 0 is far from 1 on every
grid.  Each grid has one guard-digit context, wide, 4 digits(n) + 12
digits past the working precision, and takes one Decimal.exp there: e^h
(wide_eh).  e^(kh) for k > 0 is its integer power k in wide, rounded
once to the working precision, and e^(-kh) is 1 / e^(kh); 1 - e^(bh)
for b > 0 is 1 - (e^h)^b in wide too, since the subtraction cancels
about log10(n / b) of the guard digits, and so are norm's printed-rule
constants.  The power's relative error is about k guard-digit ulps:
10^-98 at k = 10^9 + 1 in 56 working digits, far below one working ulp.
Every result is a Decimal in the precision of the decimal context the
instance was made in, whose exponent range must hold mu^(-2n).
"""
from __future__ import annotations

from decimal import Decimal, getcontext, localcontext

__all__ = ["ONE", "ExpSums"]

# The exponents (a, b) of the ratio 1.
ONE = (0, 0)


def _times(r, s):
    return (r[0] + s[0], r[1] + s[1])


def _power_sum(k: int, m: int) -> int:
    """sum_{j=0}^{m} j^k for k in 0, 1, 2 and m >= -1, in integers."""
    return (m + 1, m * (m + 1) // 2, m * (m + 1) * (2 * m + 1) // 6)[k]


class ExpSums:
    """Sums of j^k r^j and pair sums of psi_2 against them, grid n, boundary ratio mu.

    mu is read only by ratios with a != 0 and may be set after
    construction.  wide is the grid's guard-digit context, the working
    precision plus 4 digits(n) + 12, and eh is e^h in it, taken once at
    construction.  Powers of mu and of e^h, the gaps 1 - r, the sums of
    j^k r^j and pair's row expansions are cached on the instance, so the
    sums of one grid share them; an instance therefore serves the working
    precision it was made in.
    """

    def __init__(self, n: int, mu=None):
        self.n = n
        self.h = Decimal(1) / n
        self.mu = mu
        self.wide = getcontext().copy()
        self.wide.prec += 4 * len(str(n)) + 12
        self.eh = self.wide_eh()
        self._exp = {0: Decimal(1)}
        self._mu = {0: Decimal(1)}
        self._gap = {}
        self._geom = {}
        self._expansions = {}

    def wide_eh(self):
        """e^h in wide: the grid's one Decimal.exp."""
        with localcontext(self.wide):
            return (1 / Decimal(self.n)).exp()

    def exp(self, k: int):
        """e^(k h); e^(-kh) as 1 / e^(kh), one rounding more for one power less."""
        if k not in self._exp:
            if k < 0:
                self._exp[k] = 1 / self.exp(-k)
            else:
                with localcontext(self.wide):
                    power = self.eh**k
                self._exp[k] = +power  # the unary plus rounds to the working precision
        return self._exp[k]

    def kernel(self, k: int):
        """psi_2(k h) = g(|k|)."""
        k = abs(k)
        return (self.exp(k) - self.exp(-k)) / 4 - k * self.h / 2

    def power(self, r, j: int):
        """r^j = mu^(a j) e^(b j h)."""
        a, b = r[0] * j, r[1] * j
        if a == 0:
            return self.exp(b)
        if a not in self._mu:
            self._mu[a] = self.mu**a
        return self._mu[a] * self.exp(b) if b else self._mu[a]

    def gap(self, r):
        """1 - r, for r != 1."""
        if r not in self._gap:
            a, b = r
            if a:
                self._gap[r] = 1 - self.power(r, 1)
            elif b > 0:
                with localcontext(self.wide):
                    expm1 = self.eh**b - 1
                self._gap[r] = -expm1  # the negation rounds to the working precision
            else:  # 1 - e^-x = (e^x - 1) e^-x
                self._gap[r] = -self.gap((0, -b)) * self.exp(b)
        return self._gap[r]

    def geom(self, k: int, r, lo: int, hi: int):
        """sum_{j=lo}^{hi} j^k r^j for k in 0, 1, 2; zero on an empty range.

        From (1 - r) S_k = lo^k r^lo - hi^k r^(hi+1)
                           + sum_{j=lo+1}^{hi} (j^k - (j-1)^k) r^j.
        """
        if hi < lo:
            return Decimal(0)
        if r == ONE:
            return Decimal(_power_sum(k, hi) - _power_sum(k, lo - 1))
        if hi == lo:
            return lo**k * self.power(r, lo)
        key = (k, r, lo, hi)
        if key not in self._geom:
            ends = lo**k * self.power(r, lo) - hi**k * self.power(r, hi + 1)
            if k == 1:
                ends += self.geom(0, r, lo + 1, hi)
            elif k == 2:
                ends += 2 * self.geom(1, r, lo + 1, hi) - self.geom(0, r, lo + 1, hi)
            self._geom[key] = ends / self.gap(r)
        return self._geom[key]

    def _expansion(self, r, lo: int, hi: int):
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
        Every 1 - r is gap's, so 1 - e^(bh) keeps the guard digits.  Cached
        per (r, lo, hi).
        """
        key = (r, lo, hi)
        if key not in self._expansions:
            terms = {}

            def add(k, rho, c):
                terms[k, rho] = terms.get((k, rho), 0) + c

            for side in (1, -1):  # e^(ih) on r e^-h, e^(-ih) on r e^h
                u, part = _times(r, (0, -side)), Decimal(side) / 4
                if u == ONE:
                    add(1, (0, side), 2 * part)
                    add(0, (0, side), (1 - lo - hi) * part)
                else:
                    gu = self.gap(u)
                    add(0, (0, side), part * (self.power(u, lo) + self.power(u, hi + 1)) / gu)
                    add(0, r, -2 * part * self.power(u, 1) / gu)
            lag = -self.h / 2
            if r == ONE:
                add(2, ONE, lag)
                add(1, ONE, -(lo + hi) * lag)
                add(0, ONE, (lo * (lo - 1) + hi * (hi + 1)) // 2 * lag)
            else:
                g, step, r_lo, r_end = self.gap(r), self.power(r, 1), self.power(r, lo), self.power(r, hi + 1)
                add(1, ONE, lag * (r_lo + r_end) / g)
                add(0, r, lag * 2 * step / (g * g))
                add(0, ONE, -lag * ((lo * r_lo + hi * r_end) / g + (step * r_lo + r_end) / (g * g)))
            self._expansions[key] = [(c, k, rho) for (k, rho), c in terms.items()]
        return self._expansions[key]

    def pair(self, r1, r2, lo: int, hi: int):
        """sum_{i=lo}^{hi} sum_{j=lo}^{hi} r1^i r2^j psi_2(|i - j| h).

        The sum over i of r2^i times row i of r1, whose terms c i^k rho^i
        (_expansion) each sum to c times the geometric sum of i^k (r2 rho)^i
        over the range.
        """
        if hi < lo:
            return Decimal(0)
        return sum(c * self.geom(k, _times(r2, rho), lo, hi) for c, k, rho in self._expansion(r1, lo, hi))
