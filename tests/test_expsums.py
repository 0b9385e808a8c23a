"""The generic closed-form range sums (oracles.geom, kernel_row, pair) against brute-force 50-digit sums,
norm's grid values (norm._grid) and the oracle's other powers of e^h against 120-digit exponentials,
norm's integer-sum e^h against Decimal.exp, digit for digit,
and norm's straight-line pair sums and the oracle's rows in 56 digits against 90 at n = 10^6."""
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, getcontext, localcontext

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from optquad import norm

from highprec import DPS, psi2_ref
from oracles import ONE, ExpSums, geom, kernel_row, layout, pair

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
# e^h on a short range: 1 - e^h cancels the ends, which the guard digits absorb
@example(n=33, mu=-0.25, r1=(0, 1), r2=(0, 0), lo=0, width=4, i=0)
def test_sums_match_brute_force(n, mu, r1, r2, lo, width, i):
    # 40-digit decimal closed forms against 50-digit mpmath sums over the
    # range lo .. lo+width-1, each within 1e-36 of a bound on the closed
    # forms' intermediate terms: the absolute values of the summands, with
    # psi_2(|i - j| h) replaced by its parts' sizes cosh((i - j) h) + (i + j) h
    hi = lo + width - 1
    with localcontext(Context(prec=40)):
        sums = ExpSums(n, Decimal(mu))
        closed = [geom(sums, k, r1, lo, hi) for k in range(3)]
        closed += [kernel_row(sums, r1, i, lo, hi), pair(sums, r1, r2, lo, hi)]
    with mp.workdps(DPS):
        *geoms, row, pair_sum = [mp.mpf(str(value)) for value in closed]
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
        assert abs(pair_sum - ref) <= tol * gross


def _ulp(value, digits=None):
    """One unit in the last place of value in digits, by default the current precision."""
    return Decimal(1).scaleb(value.adjusted() - (digits or getcontext().prec) + 1)


@pytest.mark.parametrize("n", [1, 4, 64, 513, 10**6, 10**9])
def test_powers_of_the_wide_exponential(n):
    # norm's grid values against 120-digit exponentials: e^(+-1), e^(+-h)
    # and 1 - e^(+-h) each within one working ulp, 10^-55 relative (the
    # working digits' spacing at 1), and psi_2(1) = (e - 1/e)/4 - 1/2 within
    # one working ulp of its parts (e + 1/e)/4 + 1/2, which it cancels
    # about a digit of.  e, e^h and 1 - e^h are powers of the one wide e^h
    # (norm._exp_reciprocal, an integer sum correctly rounded in wide)
    # rounded once, each within one ulp of its own; measured worst 0.45 of
    # it (e^h at n = 64).  The others take one or two roundings more,
    # measured worst 6.1e-56 relative (1 - e^-h at n = 10^6) and 2.0e-56 of
    # psi_2(1)'s parts (n = 513)
    with localcontext(Context(prec=56)):
        grid = norm._grid(n)
    with localcontext(Context(prec=120)):
        x = Decimal(1) / n
        ref = {"e": Decimal(1).exp(), "eh": x.exp(), "gap_eh": 1 - x.exp(),
               "ei": Decimal(-1).exp(), "ehi": (-x).exp(), "gap_ehi": 1 - (-x).exp()}
        psi_1 = (ref["e"] - ref["ei"]) / 4 - Decimal(1) / 2
        parts = (ref["e"] + ref["ei"]) / 4 + Decimal(1) / 2
        for name, value in ref.items():
            bound = _ulp(value, 56) if name in ("e", "eh", "gap_eh") else Decimal("1e-55") * abs(value)
            assert abs(getattr(grid, name) - value) <= bound, (n, name)
        assert abs(grid.psi_1 - psi_1) <= Decimal("1e-55") * parts, n
    # the oracle's ExpSums forms every other e^(kh) and 1 - e^(kh) the same
    # way: each within one working ulp of a direct exponential, exp in the
    # working digits and a 120-digit expm1 rounded to them
    with localcontext(Context(prec=56)):
        sums = ExpSums(n)
        for k in sorted({2, 3, n // 3, n - n // 3, n + 1} - {0, 1, n}):
            direct = (Decimal(k) / n).exp()
            assert abs(sums.exp(k) - direct) <= _ulp(direct), (n, k)
            with localcontext(Context(prec=120)):
                gap = -((Decimal(k) / n).exp() - 1)
            gap = +gap
            assert abs(sums.gap((0, k)) - gap) <= _ulp(gap), (n, k)


_EXP_NS = (*range(1, 4097), 12345, *(10**k for k in range(4, 10)), *(10**k + 1 for k in range(4, 10)),
           *(2**k for k in range(12, 30)))


@pytest.mark.parametrize("digits", [56, 80, 90, 110])
def test_grid_exponential_is_decimal_exp(digits):
    # norm._grid takes e^h from integer sums; Decimal.exp rounds the same
    # argument, 1/n rounded in wide, correctly too, so the two agree digit
    # for digit (as strings: the same coefficient and exponent) at the
    # working 56 digits and at the tests' wider references
    for n in _EXP_NS:
        with localcontext(Context(prec=digits, Emax=MAX_EMAX, Emin=MIN_EMIN)):
            grid = norm._grid(n)
        with localcontext(grid.wide):
            assert str(grid.wide_eh) == str((1 / Decimal(n)).exp()), (digits, n)


@pytest.mark.parametrize("n", [1, 7, 64, 1000, 10**9])
def test_exp_reciprocal_retries_a_bracket_that_straddles(monkeypatch, n):
    # with no guard digits the bracket of the integer sum, 2K + 6 units
    # wide, spans a whole result ulp of 10 units, so it straddles a
    # rounding boundary and the sum is taken again with more guard digits,
    # which gives Decimal.exp's digits
    calls = []
    plain = norm._exp_reciprocal

    def counted(n, wide, guard=norm._EXP_GUARD):
        calls.append(guard)
        return plain(n, wide, guard)

    monkeypatch.setattr(norm, "_exp_reciprocal", counted)
    with localcontext(Context(prec=56, Emax=MAX_EMAX, Emin=MIN_EMIN)):
        wide = norm._grid(n).wide
    calls.clear()
    got = norm._exp_reciprocal(n, wide, 0)
    assert calls[:2] == [0, norm._EXP_GUARD], n
    with localcontext(wide):
        assert str(got) == str((1 / Decimal(n)).exp()), n


# The layout's ratios on 1 .. n-1 at n = 10^6, in the norm's 56 digits,
# against the same sums in 90: the generic oracle's kernel_row at the
# bordered solve's kept rows 0, n//3, n - n//3 and n (the one-sided rows
# test_norm reads the end rows against), and norm's own straight-line
# pair sums (norm._pair_sums), the four the quadratic form takes (the
# others are their mirror images).  A 1 - e^(bh) formed in the working
# digits instead of the guard digits puts the rows and pairs of the
# ratio 1 about 1e-48 off.  Where the row or pair is a one-sided sum of a layer
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
# norm._pair_sums' order: the layer mu^(j-1) with itself, with its mirror
# mu^(n-1-j) and with the constant h, and the constant with itself
_LAYOUT_PAIRS = [(_UP, _UP), (_UP, _DOWN), (_UP, ONE), (ONE, ONE)]


def _pin(digits, pin):
    kind, r, other = pin
    with localcontext(Context(prec=digits, Emax=MAX_EMAX, Emin=MIN_EMIN)):
        if kind == "row":
            return kernel_row(ExpSums(_PIN_N, _PIN_MU), r, other, 1, _PIN_N - 1)
        grid = norm._grid(_PIN_N)
        return norm._pair_sums(grid, norm._layout_sums(grid, _PIN_MU))[_LAYOUT_PAIRS.index((r, other))]


def _parts(pin):
    """The pin's sum with psi_2(|i - j| h) replaced by cosh((i - j) h) + (i + j) h
    and r^j by |r^j|, in 90 digits; the sizes of the closed form's terms.  A
    pair carries its pieces' scales in oracles.layout, as norm._pair_sums does."""
    kind, r, other = pin
    with localcontext(Context(prec=90, Emax=MAX_EMAX, Emin=MIN_EMIN)):
        sums, h = ExpSums(_PIN_N, abs(_PIN_MU)), Decimal(1) / _PIN_N

        def s(k, ratio, shift=0):
            return geom(sums, k, (ratio[0], ratio[1] + shift), 1, _PIN_N - 1)

        if kind == "row":
            i = other
            return ((sums.exp(i) * s(0, r, -1) + sums.exp(-i) * s(0, r, 1)) / 2
                    + h * (i * s(0, r) + s(1, r)))
        scale = {p.ratio: p.scale for p in layout(sums)[2:]}
        return scale[r] * scale[other] * (
            (s(0, r, 1) * s(0, other, -1) + s(0, r, -1) * s(0, other, 1)) / 2
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
