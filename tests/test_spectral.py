import math
from decimal import Decimal, localcontext

import mpmath as mp
import pytest

from optquad.spectral import _shape_factor, constants, end_windows, lambda1, layer_width

from highprec import lambda1_ref, spectral_ref

# 50-digit reference values of the root at dyadic steps, frozen.
_DYADIC_REFERENCE = {
    1: 3.7148600079868490408,
    2: 7.7793343878674969579,
    4: 16.156375432168201601,
    8: 33.066695409377204789,
    16: 66.975977974451694953,
    32: 134.84185216521654875,
    64: 270.59804875446348861,
    128: 542.12287038445478583,
    256: 1085.1787797015971010,
    512: 2171.2937444155267512,
    1024: 4343.5252501576335553,
}


def test_lambda1_desk_anchors():
    assert abs(lambda1(1.0) - 3.714869) <= 1e-4
    assert abs(lambda1(0.5) - 7.77933) <= 1e-3
    assert abs(lambda1(0.1) - 41.5) <= 0.2
    assert lambda1(0.1) == pytest.approx(41.539382784197294, rel=1e-12)


def test_lambda1_against_frozen_dyadic_reference():
    for denom, ref in _DYADIC_REFERENCE.items():
        assert lambda1(1.0 / denom) == pytest.approx(ref, rel=1e-13)


def test_lambda1_against_live_reference():
    for k in range(0, 11):
        h = 1.0 / 2**k
        ref = float(lambda1_ref(h))
        assert abs(lambda1(h) - ref) / ref <= 1e-9


def test_lambda1_times_h_bracket():
    prev = 0.0
    for k in range(0, 11):
        h = 1.0 / 2**k
        prod = lambda1(h) * h
        assert 3.7 <= prod <= 4.25
        assert prod > prev  # increases as h decreases
        prev = prod


def test_lambda1_domain():
    for bad in (0.0, -0.5, 1.5, float("nan")):
        with pytest.raises(ValueError):
            lambda1(bad)


def test_series_hold_full_precision_up_to_h_1():
    # lambda1's A and D and the shape factor are summed as same-sign power
    # series on all of (0, 1]; this is where their leading h^3 is largest
    worst_lam = worst_shape = 0.0
    for i in range(1501):
        h = 0.25 + 0.75 * i / 1500
        ref = lambda1_ref(h)
        worst_lam = max(worst_lam, abs(float((lambda1(h) - ref) / ref)))
        with mp.workdps(50):
            x = mp.mpf(h)
            ref = 2 * mp.e**x - 2 - x * mp.e**x - x
            worst_shape = max(worst_shape, abs(float((_shape_factor(h) - ref) / ref)))
    assert worst_lam <= 1e-15
    assert worst_shape <= 1e-15


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_constants_of_the_coarsest_grids_are_accurate(n):
    _, lam_ref, q_ref, _, kt_ref = spectral_ref(n)
    sc = constants(n)
    for value, ref in ((sc.lambda1, lam_ref), (sc.q, q_ref), (sc.k_scaled, kt_ref)):
        assert abs(float((value - ref) / ref)) <= 5e-16


def test_constants_n2_desk_values():
    sc = constants(2)
    assert abs(sc.k_scaled - (-0.21331)) <= 5e-4
    assert sc.k_scaled == pytest.approx(-0.21328850634008417, rel=1e-13)
    assert abs(sc.k - (-4.531e-4)) <= 2e-6
    assert sc.k == pytest.approx(-4.5304374005848912e-4, rel=1e-12)


def test_constants_invariants():
    for n in (1, 2, 3, 10, 100, 1024, 4096):
        sc = constants(n)
        assert sc.lambda1 > 1.0
        assert 0.0 < sc.q < 1.0
        assert abs(sc.lambda1 * sc.q - 1.0) <= 1e-14
        assert sc.h == 1.0 / n
        assert sc.k_scaled < 0.0  # the shape factor 2e^h-2-he^h-h is negative
        if sc.k != 0.0:
            assert sc.k == pytest.approx(sc.k_scaled * sc.q ** (n + 1), rel=1e-12)


def test_constants_against_live_reference():
    for n in (1, 2, 5, 17, 64):
        _, _, q_ref, k_ref, kt_ref = spectral_ref(n)
        sc = constants(n)
        assert sc.q == pytest.approx(float(q_ref), rel=1e-13)
        assert sc.k_scaled == pytest.approx(float(kt_ref), rel=1e-12)
        assert sc.k == pytest.approx(float(k_ref), rel=1e-12)


def test_constants_large_n_underflows_k_not_kscaled():
    sc = constants(10**6)
    assert sc.k == 0.0
    assert math.isfinite(sc.k_scaled) and sc.k_scaled < 0.0


def test_constants_rejects_bad_n():
    for bad in (0, -3, 2.0, True):
        with pytest.raises(ValueError):
            constants(bad)


def test_shape_factor_negative():
    for h in (1e-6, 1e-3, 0.1, 0.25, 0.5, 1.0):
        assert _shape_factor(h) < 0.0
        eh = math.exp(h)
        if h >= 0.3:  # direct evaluation is safe here; cross-check the series path
            assert _shape_factor(h) == pytest.approx(2 * eh - 2 - h * eh - h, rel=1e-12)


@pytest.mark.parametrize("width", [1, 2, 5, 568])
def test_end_windows_meet_at_twice_the_width(width):
    assert end_windows(2 * width - 1, width) == [(0, 2 * width - 1)]
    assert end_windows(2 * width, width) == [(0, width - 1), (width + 1, 2 * width)]
    assert end_windows(2 * width + 1, width) == [(0, width - 1), (width + 2, 2 * width + 1)]


@pytest.mark.parametrize("n, width", [(1, 1), (1, 5), (7, 7), (7, 600)])
def test_end_windows_are_the_whole_grid_when_width_covers_it(n, width):
    assert end_windows(n, width) == [(0, n)]


@pytest.mark.parametrize("start, ratio, h", [
    (-0.35, 2.357e-7, 1e-6),       # the printed rule's layer at n = 10^6
    (0.0358, -0.268, 0.25),        # the minimizer's at n = 4
    (1.3e-10, -0.268, 1e-9),       # and at n = 10^9
    (0.5, 0.5, 0.5),               # h a power of two: ulp(h)/8 = 2^-56
    (1e-20, 0.9, 0.125),           # at or below ulp(h)/8 from its anchor on
])
def test_layer_width_is_where_the_layer_stays_below_an_eighth_ulp(start, ratio, h):
    # from width nodes past the anchor on the layer is at most ulp(h)/8,
    # and the width is no more than the one node to spare past that
    width = layer_width(start, ratio, h)
    with localcontext(prec=50):
        tiny = Decimal(math.ulp(h)) / 8
        layer = lambda j: abs(Decimal(start)) * abs(Decimal(ratio)) ** j
        assert layer(width) <= tiny
        assert width == 1 if layer(0) <= tiny else layer(width - 3) > tiny
