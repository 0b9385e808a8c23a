import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optquad.kernel import _sinh_minus_x, _sinh_minus_x_direct, _sinh_minus_x_series, moment, psi
from optquad.norm import double_moment

from highprec import DPS, double_moment_ref, moment_ref, psi2_ref
from oracles import IntegrationBudgetError, integrate_adaptive


def test_psi_values():
    assert psi(2, 0.0) == 0.0
    assert psi(2, 1.0) == pytest.approx(0.08760059682190073, rel=1e-14)
    assert psi(2, -0.5) == psi(2, 0.5)
    assert psi(2, 0.5) == pytest.approx(0.010547652746873681, rel=1e-14)


def test_psi_matches_reference_on_grid():
    for x in np.linspace(0.001, 2.0, 57):
        ref = float(psi2_ref(x))
        assert psi(2, float(x)) == pytest.approx(ref, rel=5e-14)


def test_psi_evenness_bitwise():
    xs = np.linspace(-2.0, 2.0, 801)
    assert np.all(psi(2, xs) == psi(2, -xs))


@given(st.floats(-2.0, 2.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_psi_evenness_property(x):
    assert psi(2, x) == psi(2, -x)


def test_psi_small_argument_series():
    # sinh x - x = x^3/6 (1 + x^2/20 + ...), so psi_2 ~ x|x|^2/12 (1 + x^2/20)
    for x in (1e-4, 3.3e-5, 1e-6, 1e-9, -7e-5):
        lead = x * abs(x) ** 2 / 12.0 * (1.0 + x * x / 20.0)
        assert psi(2, x) == pytest.approx(abs(lead), rel=1e-12)


def test_psi_branch_seam_agreement():
    s = float(_sinh_minus_x_series(0.5))
    d = float(_sinh_minus_x_direct(0.5))
    assert abs(s - d) / s < 1e-14


def test_psi_rejects_bad_input():
    for m in (0, 1, 3):
        with pytest.raises(ValueError):
            psi(m, 1.0)
    with pytest.raises(ValueError):
        psi(2, float("nan"))
    with pytest.raises(ValueError):
        psi(2, float("inf"))


def test_moment_values():
    assert moment(0.0) == pytest.approx(0.021540317407621889, rel=1e-14)
    assert moment(0.0) == pytest.approx((math.cosh(1.0) - 1.0) / 2.0 - 0.25, rel=1e-13)
    assert moment(0.5) == pytest.approx(0.0026259652063807852, rel=1e-14)
    assert moment(0.5) == pytest.approx(math.cosh(0.5) - 9.0 / 8.0, rel=1e-11)
    assert moment(1.0) == moment(0.0)


def test_moment_symmetry_and_positivity():
    ys = np.linspace(0.0, 1.0, 129)  # 1 - y exact for these
    vals = moment(ys)
    assert np.all(vals > 0.0)
    assert np.all(vals == moment(1.0 - ys))


def test_moment_domain():
    with pytest.raises(ValueError):
        moment(-0.01)
    with pytest.raises(ValueError):
        moment(1.01)


def _two_pass_moment(y):
    """moment as it was formed before its halves shared one sinh t - t pass."""
    arr = np.asarray(y, dtype=float)

    def half_piece(u):
        s = _sinh_minus_x(u)
        return s * (s + 2.0 * u)

    out = half_piece(arr / 2.0) + half_piece((1.0 - arr) / 2.0)
    return float(out) if arr.ndim == 0 else out


def test_moment_is_the_two_pass_form_bit_for_bit():
    # both halves in one pass change no bit: every step is elementwise
    for n in range(1, 514):
        y = np.arange(n + 1) / n
        np.testing.assert_array_equal(moment(y).view(np.uint64), _two_pass_moment(y).view(np.uint64),
                                      err_msg=str(n))
    for y in (0.0, 0.25, 1 / 3, 0.5, 1.0, np.float64(0.7), np.array(0.9)):
        value = moment(y)
        assert type(value) is float and value.hex() == _two_pass_moment(y).hex(), y
    grid = np.random.default_rng(5).random((9, 7))
    grid[0, :3] = 0.0, 0.5, 1.0
    out = moment(grid)
    assert out.shape == grid.shape
    np.testing.assert_array_equal(out.view(np.uint64), _two_pass_moment(grid).view(np.uint64))


def test_moment_against_adaptive_oracle():
    worst = 0.0
    for y in np.linspace(0.0, 1.0, 101):
        oracle = integrate_adaptive(lambda x, y=y: psi(2, x - y), 0.0, 1.0, 1e-12)
        worst = max(worst, abs(moment(float(y)) - oracle.value))
    assert worst <= 1e-11


def test_double_moment_forms():
    assert double_moment() == pytest.approx(math.sinh(1.0) - 7.0 / 6.0, rel=1e-13)
    assert double_moment() == pytest.approx((math.e**2 - 1) / (2 * math.e) - 7.0 / 6.0, rel=1e-13)
    assert double_moment() == pytest.approx(float(double_moment_ref()), rel=1e-12)
    assert double_moment() == pytest.approx(0.0085345269771347902, rel=1e-12)


def test_double_moment_is_correctly_rounded():
    # sinh(1.0) - 7/6 was 88 ulp low; the series sum is within half an ulp
    with mp.workdps(DPS):
        ref = mp.sinh(1) - mp.mpf(7) / 6
        assert abs(mp.mpf(double_moment()) - ref) <= math.ulp(float(ref)) / 2
        # the same series in mp, as the norm report sums it: measured 3.1e-49
        # relative, most of it the reference's own cancellation of e^2 - 1
        # against 7/6 (the series is within 5.8e-52 of sinh(1) - 7/6)
        assert abs(double_moment(mp.mpf) - double_moment_ref()) <= mp.mpf("1e-48") * ref


def test_double_moment_against_iterated_oracle():
    def inner(y):
        return integrate_adaptive(lambda x: psi(2, x - y), 0.0, 1.0, 1e-12).value

    outer = integrate_adaptive(inner, 0.0, 1.0, 1e-10)
    assert abs(outer.value - double_moment()) <= 1e-9


def test_integrate_adaptive_polynomial_and_exponential():
    r = integrate_adaptive(lambda x: x, 0.0, 1.0, 1e-12)
    assert r.value == pytest.approx(0.5, abs=1e-14)
    assert r.evaluations > 0
    r = integrate_adaptive(math.exp, 0.0, 1.0, 1e-12)
    assert r.value == pytest.approx(math.e - 1.0, rel=1e-13)
    r = integrate_adaptive(lambda x: math.exp(-x), 0.0, 1.0, 1e-12)
    assert r.value == pytest.approx(0.6321205588285577, rel=1e-13)


def test_integrate_adaptive_kernel_moment():
    r = integrate_adaptive(lambda x: psi(2, x), 0.0, 1.0, 1e-12)
    assert abs(r.value - moment(0.0)) <= max(1e-12, r.error_estimate)


def test_integrate_adaptive_degenerate_interval():
    r = integrate_adaptive(lambda x: x * x, 0.3, 0.3, 1e-10)
    assert r.value == 0.0 and r.error_estimate == 0.0 and r.evaluations > 0


def test_integrate_adaptive_validates_input():
    with pytest.raises(ValueError):
        integrate_adaptive(lambda x: x, 1.0, 0.0, 1e-10)
    with pytest.raises(ValueError):
        integrate_adaptive(lambda x: x, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate_adaptive(lambda x: float("nan"), 0.0, 1.0, 1e-10)


def test_integrate_adaptive_budget_error_carries_best():
    with pytest.raises(IntegrationBudgetError) as info:
        integrate_adaptive(lambda x: math.sin(40.0 * x), 0.0, 1.0, 1e-300, max_evals=200)
    best = info.value.best
    assert best.evaluations <= 200
    assert abs(best.value - (1.0 - math.cos(40.0)) / 40.0) <= max(best.error_estimate, 1e-6)
