import math

import mpmath as mp
import numpy as np
import pytest

from optquad.coefficients import optimal_coefficients
from optquad.quadrature import CATALOG, TestFunction, apply_rule, convergence_table, error_check

from oracles import (
    CATALOG_DERIVATIVES,
    integrate_adaptive,
    norm_quadratic_form,
    seminorm_by_integration,
)


def _affine(a, b):
    return TestFunction(
        name=f"affine({a},{b})",
        value=lambda x: a + b * np.exp(-np.asarray(x, dtype=float)),
        exact_integral=a - b * math.expm1(-1.0),
        seminorm=0.0,
    )


def test_apply_exact_on_constants():
    for n in (1, 2, 8, 33):
        rule = optimal_coefficients(n)
        assert abs(apply_rule(rule, CATALOG["const1"]) - 1.0) <= 1e-12


def test_apply_exact_on_exp_neg():
    f = CATALOG["exp_neg"]
    for n in (1, 2, 16, 64):
        rule = optimal_coefficients(n)
        assert abs(apply_rule(rule, f) - f.exact_integral) <= 1e-12


def test_apply_x_desk_value():
    rule = optimal_coefficients(2)
    value = apply_rule(rule, CATALOG["x"])
    assert value == pytest.approx(0.512995, abs=1e-4)
    assert abs(value - 0.5) > 0.01  # x is outside the annihilated span


def test_exactness_on_annihilated_span():
    rng = np.random.default_rng(42)
    for n in (1, 2, 7, 33, 64):
        rule = optimal_coefficients(n)
        for _ in range(25):
            a, b = rng.uniform(-10.0, 10.0, size=2)
            f = _affine(a, b)
            err = abs(apply_rule(rule, f) - f.exact_integral)
            assert err <= 1e-11 * (abs(a) + abs(b))


def test_seminorm_null_space():
    for name in ("const1", "exp_neg", "affine_exp_neg"):
        assert CATALOG[name].seminorm == 0.0
        assert seminorm_by_integration(name) == 0.0


def test_seminorm_known_values():
    # the closed forms at 40 digits: (f'' + f')^2 is 1 for x, (2 + 2x)^2 for
    # x^2, 4e^(2x) for e^x and (cos x - sin x)^2 = 1 - sin 2x for sin x
    with mp.workdps(40):
        exact = {
            "const1": mp.mpf(0),
            "x": mp.mpf(1),
            "x_squared": mp.sqrt(mp.mpf(28) / 3),
            "exp_neg": mp.mpf(0),
            "exp": mp.sqrt(2 * mp.expm1(2)),
            "sin": mp.cos(1),
            "affine_exp_neg": mp.mpf(0),
        }
        assert sorted(exact) == sorted(CATALOG)
        for name, f in CATALOG.items():
            assert f.seminorm == float(exact[name]), name
            assert f.seminorm == pytest.approx(seminorm_by_integration(name), rel=1e-12), name


def test_catalog_derivatives_match_finite_differences():
    step = 1e-6
    assert sorted(CATALOG_DERIVATIVES) == sorted(CATALOG)
    for name, f in CATALOG.items():
        first, second = CATALOG_DERIVATIVES[name]
        for x in (0.21, 0.5, 0.83):
            fd1 = (float(f.value(x + step)) - float(f.value(x - step))) / (2 * step)
            fd2 = (float(f.value(x + step)) - 2 * float(f.value(x)) + float(f.value(x - step))) / step**2
            d1 = float(first(x))
            d2 = float(second(x))
            assert abs(fd1 - d1) <= 1e-6 * max(1.0, abs(d1))
            assert abs(fd2 - d2) <= 2e-3 * max(1.0, abs(d2))


def test_catalog_exact_integrals():
    for f in CATALOG.values():
        oracle = integrate_adaptive(lambda x: float(f.value(x)), 0.0, 1.0, 1e-12)
        assert f.exact_integral == pytest.approx(oracle.value, rel=1e-11, abs=1e-12)


def test_error_check_null_space_function():
    rule = optimal_coefficients(4)
    chk = error_check(rule, CATALOG["const1"], norm_quadratic_form(rule))
    assert chk.abs_error <= 1e-12
    assert chk.norm_bound == 0.0
    assert chk.bound_satisfied  # via the additive slack


def test_error_check_sin_n8():
    rule = optimal_coefficients(8)
    chk = error_check(rule, CATALOG["sin"], norm_quadratic_form(rule))
    assert chk.bound_satisfied


def test_error_check_x_n2_is_tight():
    rule = optimal_coefficients(2)
    chk = error_check(rule, CATALOG["x"], norm_quadratic_form(rule))
    assert chk.abs_error == pytest.approx(0.013, abs=5e-4)
    assert chk.norm_bound == pytest.approx(0.0166, abs=5e-4)
    assert chk.bound_satisfied


def test_cauchy_schwarz_over_catalog():
    for n in (1, 2, 4, 8, 16, 32, 64):
        rule = optimal_coefficients(n)
        norm_sq = norm_quadratic_form(rule)
        for f in CATALOG.values():
            assert error_check(rule, f, norm_sq).bound_satisfied, (n, f.name)


def test_convergence_table_ratios():
    rows = convergence_table([2, 4])
    assert rows[0].ratio is None and rows[0].order_estimate is None
    assert rows[1].ratio < 0.25


def test_convergence_table_single_row():
    rows = convergence_table([2])
    assert len(rows) == 1
    assert rows[0].ratio is None and rows[0].order_estimate is None
    assert rows[0].abs_error is None


def test_convergence_table_exp_neg_errors():
    rows = convergence_table([2, 4, 8, 16, 32, 64], CATALOG["exp_neg"])
    for row in rows:
        assert row.abs_error <= 1e-12


def test_convergence_table_monotone_and_order():
    rows = convergence_table([2, 4, 8, 16, 32, 64])
    for prev, cur in zip(rows, rows[1:]):
        assert cur.norm_sq < prev.norm_sq
        assert cur.ratio <= 0.25
        assert cur.order_estimate > 2.0


def test_convergence_table_validation():
    with pytest.raises(ValueError):
        convergence_table([4, 2])
    with pytest.raises(ValueError):
        convergence_table([2, 2])
    with pytest.raises(ValueError):
        convergence_table([0, 2])
    with pytest.raises(ValueError):
        convergence_table([])
