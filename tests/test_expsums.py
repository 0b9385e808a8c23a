"""The closed-form exponential-polynomial sums against brute-force 50-digit sums."""
from decimal import Context, Decimal, getcontext, localcontext

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from optquad._expsums import ONE, ExpSums

from highprec import DPS, psi2_ref

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
def test_sums_match_brute_force(n, mu, r1, r2, lo, width, i):
    # 40-digit decimal closed forms against 50-digit mpmath sums over the
    # range lo .. lo+width-1, each within 1e-36 of a bound on the closed
    # forms' intermediate terms: the absolute values of the summands, with
    # psi_2(|i - j| h) replaced by its parts' sizes cosh((i - j) h) + (i + j) h
    hi = lo + width - 1
    with localcontext(Context(prec=40)):
        sums = ExpSums(n, Decimal(mu))
        closed = [sums.geom(k, r1, lo, hi) for k in range(3)]
        closed += [sums.row(r1, i, lo, hi), sums.pair(r1, r2, lo, hi)]
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
