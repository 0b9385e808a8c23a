"""The closed-form exponential-polynomial sums against brute-force 50-digit sums."""
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, getcontext, localcontext

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from optquad._expsums import ONE, ExpSums

from highprec import DPS, psi2_ref
from oracles import kernel_row

ratios = st.tuples(st.integers(-1, 1), st.integers(-2, 2))


def _value(mu, n, r, j):
    return mu ** (r[0] * j) * mp.exp(mp.mpf(r[1] * j) / n)


def _size(i, j, h):
    return mp.cosh((i - j) * h) + (i + j) * h


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 40), mu=st.floats(-0.3, -0.2), r1=ratios, r2=ratios,
       lo=st.integers(0, 40), width=st.integers(0, 14), i=st.integers(0, 45))
@example(n=16, mu=-0.27, r1=ONE, r2=ONE, lo=1, width=15, i=5)  # a ratio of exactly 1
@example(n=16, mu=-0.27, r1=(1, 0), r2=(-1, 0), lo=1, width=15, i=0)  # mu^j against mu^-j
@example(n=16, mu=-0.27, r1=(1, 1), r2=(-1, -1), lo=3, width=0, i=3)  # empty range
@example(n=16, mu=-0.27, r1=(-1, 2), r2=(0, 1), lo=7, width=1, i=7)  # one element
# r e^-h or r e^h is 1: the row's and the pair's polynomial terms i e^(+-ih)
@example(n=16, mu=-0.27, r1=(0, 1), r2=(0, -1), lo=2, width=12, i=7)  # i inside
@example(n=40, mu=-0.22, r1=(0, -1), r2=(0, -1), lo=1, width=10, i=5)  # i inside
@example(n=16, mu=-0.27, r1=(0, -1), r2=(1, 0), lo=0, width=10, i=20)  # i above
@example(n=33, mu=-0.25, r1=(1, 1), r2=(0, 1), lo=5, width=14, i=0)  # i below
def test_sums_match_brute_force(n, mu, r1, r2, lo, width, i):
    # 40-digit decimal closed forms against 50-digit mpmath sums over the
    # range lo .. lo+width-1, each within 1e-36 of a bound on the closed
    # forms' intermediate terms: the absolute values of the summands, with
    # psi_2(|i - j| h) replaced by its parts' sizes cosh((i - j) h) + (i + j) h
    hi = lo + width - 1
    with localcontext(Context(prec=40)):
        sums = ExpSums(n, Decimal(mu))
        closed = [sums.geom(k, r1, lo, hi) for k in range(3)]
        closed += [kernel_row(sums, r1, i, lo, hi), sums.pair(r1, r2, lo, hi)]
    with mp.workdps(DPS):
        *geoms, row, pair = [mp.mpf(str(value)) for value in closed]
        mu = mp.mpf(mu)
        h = mp.mpf(1) / n
        span = range(lo, hi + 1)
        v1 = {j: _value(mu, n, r1, j) for j in span}
        v2 = {j: _value(mu, n, r2, j) for j in span}
        tol = mp.mpf("1e-36")
        for k in range(3):
            ref = mp.fsum(j**k * v1[j] for j in span)
            assert abs(geoms[k] - ref) <= tol * mp.fsum(j**k * abs(v1[j]) for j in span)
        ref = mp.fsum(psi2_ref((i - j) * h) * v1[j] for j in span)
        assert abs(row - ref) <= tol * mp.fsum(_size(i, j, h) * abs(v1[j]) for j in span)
        ref = mp.fsum(psi2_ref((a - b) * h) * v1[a] * v2[b] for a in span for b in span)
        gross = mp.fsum(_size(a, b, h) * abs(v1[a] * v2[b]) for a in span for b in span)
        assert abs(pair - ref) <= tol * gross


def _ulp(value):
    """One unit in the last place of value in the current precision."""
    return Decimal(1).scaleb(value.adjusted() - getcontext().prec + 1)


@pytest.mark.parametrize("n", [4, 64, 513, 10**6, 10**9])
def test_powers_of_the_wide_exponential(n):
    # e^(kh) as a power of the one wide e^h, and 1 - e^(kh) from it, each
    # within one working ulp of a direct exponential: exp in the working
    # digits, and a 120-digit expm1 rounded to them
    with localcontext(Context(prec=56)):
        sums = ExpSums(n)
        for k in (1, 2, 3, n // 3, n - n // 3, n, n + 1):
            direct = (Decimal(k) / n).exp()
            assert abs(sums.exp(k) - direct) <= _ulp(direct), (n, k)
            with localcontext(Context(prec=120)):
                gap = -((Decimal(k) / n).exp() - 1)
            gap = +gap
            assert abs(sums.gap((0, k)) - gap) <= _ulp(gap), (n, k)


# The production ratios on 1 .. n-1 at n = 10^6, in the norm's 56 digits,
# against the same closed forms in 90: kernel_row at the bordered solve's
# kept rows 0, n//3, n - n//3 and n, and the four pair sums the quadratic
# form takes (the others are their mirror images).  A 1 - e^(bh) formed
# in the working digits instead of the guard digits puts the rows and
# pairs of the ratio 1 about 1e-48 off.  Where the row or pair is a one-sided sum of a layer
# decaying away from it (mu^j at row 0, mu^-j at row n) or a layer paired
# with itself, psi_2's parts e^(+-x)/4 and x/2 cancel to about h^3 of
# their size, in any precision, so that value is pinned against its parts'
# size (cosh((i - j) h) + (i + j) h, as in test_sums_match_brute_force).
_PIN_N = 10**6
_PIN_MU = Decimal("-0.27")  # near the grids' mu, -0.2679...
_UP, _DOWN = (1, 0), (-1, 0)
_PINS = [
    *((("row", r, i), (r, i) in ((_UP, 0), (_DOWN, _PIN_N)))
      for r in (ONE, _UP, _DOWN) for i in (0, _PIN_N // 3, _PIN_N - _PIN_N // 3, _PIN_N)),
    (("pair", _UP, _UP), True),
    (("pair", _UP, _DOWN), False),
    (("pair", _UP, ONE), False),
    (("pair", ONE, ONE), False),
]


def _pin(digits, pin):
    kind, r, other = pin
    with localcontext(Context(prec=digits, Emax=MAX_EMAX, Emin=MIN_EMIN)):
        sums = ExpSums(_PIN_N, _PIN_MU)
        if kind == "row":
            return kernel_row(sums, r, other, 1, _PIN_N - 1)
        return sums.pair(r, other, 1, _PIN_N - 1)


def _parts(pin):
    """The pin's sum with psi_2(|i - j| h) replaced by cosh((i - j) h) + (i + j) h
    and r^j by |r^j|, in 90 digits; the sizes of the closed form's terms."""
    kind, r, other = pin
    with localcontext(Context(prec=90, Emax=MAX_EMAX, Emin=MIN_EMIN)):
        sums, h = ExpSums(_PIN_N, abs(_PIN_MU)), Decimal(1) / _PIN_N

        def s(k, ratio, shift=0):
            return sums.geom(k, (ratio[0], ratio[1] + shift), 1, _PIN_N - 1)

        if kind == "row":
            i = other
            return ((sums.exp(i) * s(0, r, -1) + sums.exp(-i) * s(0, r, 1)) / 2
                    + h * (i * s(0, r) + s(1, r)))
        return ((s(0, r, 1) * s(0, other, -1) + s(0, r, -1) * s(0, other, 1)) / 2
                + h * (s(1, r) * s(0, other) + s(0, r) * s(1, other)))


@pytest.mark.parametrize("pin, cancels", _PINS,
                         ids=["-".join(map(str, pin)).replace(" ", "") for pin, _ in _PINS])
def test_production_sums_keep_56_digits_at_a_million(pin, cancels):
    # measured worst 9.3e-54 relative (row n - n//3 of mu^-j); the
    # cancelling ones 4.0e-57 of their parts
    value, ref = _pin(56, pin), _pin(90, pin)
    with localcontext(Context(prec=90, Emax=MAX_EMAX, Emin=MIN_EMIN)):
        scale = _parts(pin) if cancels else abs(ref)
        assert abs(value - ref) <= Decimal("1e-50") * scale, pin
