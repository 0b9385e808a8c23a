"""Closed forms for exponential-polynomial sums on the uniform grid, in decimal.

On the grid x_j = j h, h = 1/n, the stationarity system's weights are sums
of pieces r^j over index ranges: deltas, a constant and two geometric
boundary layers.  psi_2(|i - j| h) = g(|i - j|) with the odd function

    g(k) = (e^(kh) - e^(-kh))/4 - k h/2,

which separates into products of i- and j-factors.  So every moment, every
kernel row sum and every pairwise kernel sum of such pieces has a closed
form in O(1) decimal operations, whatever the range (Sobolev's discrete
analogue of the operator: Sobolev, Introduction to the Theory of Cubature
Formulas, 1974).

A ratio r is carried as its integer exponents (a, b), r = mu^a e^(b h),
so the sums recognise a ratio of exactly 1 by (a, b) == (0, 0) instead of
comparing Decimal values; mu^a e^(bh) for a != 0 is far from 1 on every
grid.  Each grid takes one Decimal.exp: e^h, in 4 digits(n) + 12 guard
digits past the working precision (wide_eh).  e^(kh) for k > 0 is its
integer power k in those digits, rounded once to the working precision,
and e^(-kh) is 1 / e^(kh); 1 - e^(bh) for b > 0 is 1 - (e^h)^b in the
guard digits too, since the subtraction cancels about log10(n / b) of
them.  The power's relative error is about k guard-digit ulps: 10^-98
at k = 10^9 + 1 in 56 working digits, far below one working ulp.
Every result is a Decimal in the precision of the decimal context the
instance was made in, whose exponent range must hold mu^(-2n).
"""
from __future__ import annotations

from decimal import Decimal, localcontext

__all__ = ["ONE", "ExpSums"]

# The exponents (a, b) of the ratio 1.
ONE = (0, 0)


def _times(r, s):
    return (r[0] + s[0], r[1] + s[1])


def _power_sum(k: int, m: int) -> int:
    """sum_{j=0}^{m} j^k for k in 0, 1, 2 and m >= -1, in integers."""
    return (m + 1, m * (m + 1) // 2, m * (m + 1) * (2 * m + 1) // 6)[k]


class ExpSums:
    """Sums of j^k r^j and of psi_2 against them, grid n, boundary ratio mu.

    mu is read only by ratios with a != 0 and may be set after
    construction.  eh is e^h in the guard digits, taken once at
    construction.  Powers of mu and of e^h, the gaps 1 - r and the sums of
    j^k r^j are cached on the instance, so the sums of one grid share them;
    an instance therefore serves the working precision it was made in.
    """

    def __init__(self, n: int, mu=None):
        self.n = n
        self.h = Decimal(1) / n
        self.mu = mu
        self._guard = 4 * len(str(n)) + 12
        self.eh = self.wide_eh()
        self._exp = {0: Decimal(1)}
        self._mu = {0: Decimal(1)}
        self._gap = {}
        self._geom = {}

    def wide_eh(self):
        """e^h in the working precision plus the guard digits: the grid's one Decimal.exp."""
        with localcontext() as wide:
            wide.prec += self._guard
            return (1 / Decimal(self.n)).exp()

    def exp(self, k: int):
        """e^(k h); e^(-kh) as 1 / e^(kh), one rounding more for one power less."""
        if k not in self._exp:
            if k < 0:
                self._exp[k] = 1 / self.exp(-k)
            else:
                with localcontext() as wide:
                    wide.prec += self._guard
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
                with localcontext() as wide:
                    wide.prec += self._guard
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

    def _odd(self, r, i: int, lo: int, hi: int):
        """sum_{j=lo}^{hi} g(i - j) r^j."""
        if hi < lo:
            return Decimal(0)
        exps = (self.exp(i) * self.geom(0, _times(r, (0, -1)), lo, hi)
                - self.exp(-i) * self.geom(0, _times(r, (0, 1)), lo, hi))
        return exps / 4 - (i * self.geom(0, r, lo, hi) - self.geom(1, r, lo, hi)) * self.h / 2

    def row(self, r, i: int, lo: int, hi: int):
        """sum_{j=lo}^{hi} psi_2(|i - j| h) r^j: kernel row i of the piece r^j.

        psi_2(|i - j| h) is g(i - j) for j <= i and -g(i - j) above, so the
        row is the whole range's sum less twice the part above i; the
        whole range's sums of j^k r^j then serve every row.
        """
        if hi == lo:
            return self.power(r, lo) * self.kernel(i - lo)
        if i < lo:  # the whole range lies above i
            return -self._odd(r, i, lo, hi)
        return self._odd(r, i, lo, hi) - 2 * self._odd(r, i, i + 1, hi)

    def _lower(self, k: int, l: int, u, v, lo: int, hi: int):
        """sum over lo <= j < i <= hi of i^k j^l u^i v^j, for (k, l) in (0, 0), (1, 0), (0, 1).

        The inner sum over j is geometric in v, so the outer one runs over
        i = lo+1 .. hi on the ratios u and uv.
        """
        first = lo + 1
        if v == ONE:
            if l == 0:
                return self.geom(k + 1, u, first, hi) - lo * self.geom(k, u, first, hi)
            return (self.geom(2, u, first, hi) - self.geom(1, u, first, hi)
                    - lo * (lo - 1) * self.geom(0, u, first, hi)) / 2
        uv = _times(u, v)
        gv = self.gap(v)
        if l == 0:
            return (self.power(v, lo) * self.geom(k, u, first, hi)
                    - self.geom(k, uv, first, hi)) / gv
        s0_u = self.geom(0, u, first, hi)
        s0_uv = self.geom(0, uv, first, hi)
        tail = (self.power(v, lo + 1) * s0_u - s0_uv) / gv
        return (lo * self.power(v, lo) * s0_u - self.geom(1, uv, first, hi) + s0_uv + tail) / gv

    def _triangle(self, u, v, lo: int, hi: int):
        """sum over lo <= j < i <= hi of u^i v^j g(i - j)."""
        exps = (self._lower(0, 0, _times(u, (0, 1)), _times(v, (0, -1)), lo, hi)
                - self._lower(0, 0, _times(u, (0, -1)), _times(v, (0, 1)), lo, hi))
        lags = self._lower(1, 0, u, v, lo, hi) - self._lower(0, 1, u, v, lo, hi)
        return exps / 4 - lags * self.h / 2

    def pair(self, r1, r2, lo: int, hi: int):
        """sum_{i=lo}^{hi} sum_{j=lo}^{hi} r1^i r2^j psi_2(|i - j| h)."""
        if r1 == r2:
            return 2 * self._triangle(r1, r1, lo, hi)
        return self._triangle(r1, r2, lo, hi) + self._triangle(r2, r1, lo, hi)
