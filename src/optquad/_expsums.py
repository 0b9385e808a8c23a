"""The uniform grid's exponential primitives in decimal: e^(kh), mu powers, 1 - r and psi_2.

On the grid x_j = j h, h = 1/n, the exact rules' weights are a few pieces
r^j over index ranges: deltas, a constant and two geometric boundary
layers in mu.  psi_2(|i - j| h) = g(|i - j|) with the odd function

    g(k) = (e^(kh) - e^(-kh))/4 - k h/2,

which separates into products of i- and j-factors, so every moment and
every pairwise kernel sum of such pieces has a closed form in O(1)
decimal operations (Sobolev's discrete analogue of the operator: Sobolev,
Introduction to the Theory of Cubature Formulas, 1974).  norm takes
those closed forms straight-line for its one five-piece layout
(norm._layout_sums); this module holds the grid primitives they read.

A ratio r is carried as its integer exponents (a, b), r = mu^a e^(b h).
Each grid has one guard-digit context, wide, 4 digits(n) + 12 digits
past the working precision, and takes one Decimal.exp there: e^h
(wide_eh).  e^(kh) for k > 0 is its integer power k in wide, rounded
once to the working precision, and e^(-kh) is 1 / e^(kh); 1 - e^(bh)
for b > 0 is 1 - (e^h)^b in wide too, since the subtraction cancels
about log10(n / b) of the guard digits, and so are norm's printed-rule
constants.  The power's relative error is about k guard-digit ulps:
10^-98 at k = 10^9 + 1 in 56 working digits, far below one working ulp.
Every result is a Decimal in the precision of the decimal context the
instance was made in.
"""
from __future__ import annotations

from decimal import Decimal, getcontext, localcontext

__all__ = ["ONE", "ExpSums"]

# The exponents (a, b) of the ratio 1.
ONE = (0, 0)


class ExpSums:
    """The exponential primitives of grid n with boundary ratio mu.

    mu is read only by ratios with a != 0 and may be set after
    construction.  wide is the grid's guard-digit context, the working
    precision plus 4 digits(n) + 12, and eh is e^h in it, taken once at
    construction.  Powers of mu and of e^h and the gaps 1 - r are cached
    on the instance, so the sums of one grid share them; an instance
    therefore serves the working precision it was made in.
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
