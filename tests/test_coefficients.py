import math
import tracemalloc

import numpy as np
import pytest

from optquad.coefficients import (
    constraint_residuals,
    make_rule,
    optimal_coefficients,
)
from optquad.spectral import closed_weights, constants, layer_width

import oracles
from highprec import coefficients_ref
from oracles import trapezoid_rule


def test_n1_is_constraint_determined():
    rule = optimal_coefficients(1)
    e = math.e
    assert rule.coefficients[0] == pytest.approx((e - 2) / (e - 1), rel=1e-15)
    assert rule.coefficients[1] == pytest.approx(1 / (e - 1), rel=1e-15)
    assert rule.nodes[0] == 0.0 and rule.nodes[-1] == 1.0


def test_n2_frozen_values():
    rule = optimal_coefficients(2)
    expected = [0.20536001670131206, 0.56328574377523104, 0.2313542395234569]
    assert np.allclose(rule.coefficients, expected, rtol=1e-13, atol=0.0)
    # hand-computed published triple carries ~1e-5 slop
    assert np.allclose(rule.coefficients, [0.205357, 0.563292, 0.231349], atol=1e-5)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 33, 64])
def test_matches_live_reference(n):
    rule = optimal_coefficients(n)
    ref = [float(v) for v in coefficients_ref(n)]
    assert np.allclose(rule.coefficients, ref, rtol=0.0, atol=5e-15)


def test_constraints_hold_to_1e12():
    for n in list(range(1, 65)) + [128, 256, 512, 1024]:
        r1, r2 = constraint_residuals(optimal_coefficients(n))
        assert r1 <= 1e-12, n
        assert r2 <= 1e-12, n
    r1, r2 = constraint_residuals(optimal_coefficients(2))
    assert r1 <= 1e-13 and r2 <= 1e-13


def test_grid_structure():
    rule = optimal_coefficients(10)
    assert rule.nodes.shape == (11,)
    assert rule.coefficients.shape == (11,)
    assert rule.nodes[0] == 0.0 and rule.nodes[-1] == 1.0
    assert np.allclose(np.diff(rule.nodes), rule.h, rtol=1e-15)


def test_boundary_asymmetry():
    # the kernel is exponential-weighted, so the rule is not symmetric
    for n in range(1, 65):
        c = optimal_coefficients(n).coefficients
        assert c[-1] > c[0], n


def test_interior_decay_bound():
    for n in (10, 100, 1000):
        sc = constants(n)
        rule = optimal_coefficients(n)
        eh = math.exp(sc.h)
        beta = np.arange(1, n)
        qmin = sc.q ** np.minimum(beta, n - beta).astype(float)
        bound = abs(sc.k_scaled) * (abs(1 - eh * sc.q) + abs(eh - sc.q)) * qmin
        dev = np.abs(rule.coefficients[1:n] - sc.h)
        assert np.all(dev <= bound * (1 + 1e-9) + 1e-300), n


def test_interior_flatness_n1000():
    n = 1000
    rule = optimal_coefficients(n)
    beta = np.arange(n + 1)
    interior = np.minimum(beta, n - beta) >= 50
    assert np.all(np.abs(rule.coefficients[interior] - rule.h) <= 1e-15)


def test_positivity_observed():
    # observed property, not a theorem; sampled rather than exhaustive
    for n in (1, 2, 3, 10, 64, 256, 1024):
        assert np.all(optimal_coefficients(n).coefficients > 0.0), n


def test_large_grid_is_finite():
    rule = optimal_coefficients(10**5)
    assert np.all(np.isfinite(rule.coefficients))


def _full_power_table_interior(n):
    """The interior weights from every power q^0 .. q^n, underflowed ones included."""
    sc = constants(n)
    h, q, ks = sc.h, sc.q, sc.k_scaled
    eh = math.exp(h)
    qp = np.power(q, np.arange(n + 1, dtype=float))
    return h - ks * ((1.0 - eh * q) * qp[n - 1:0:-1] + (eh - q) * qp[1:n])


@pytest.mark.parametrize(
    "ns", [range(2, 3000), (10**4, 10**5, 123_457, 10**6)], ids=["n<3000", "large"]
)
def test_interior_from_the_nonzero_powers_is_bitwise_the_full_table(ns):
    for n in ns:
        interior = optimal_coefficients(n).coefficients[1:n]
        np.testing.assert_array_equal(interior.view(np.uint64),
                                      _full_power_table_interior(n).view(np.uint64), err_msg=str(n))


# Every grid up to 2048 (whose windows include the report's seam at
# 1133..1137, where its two end windows meet), and three large ones.
PINNED_NS = (*range(1, 2049), 10**5, 10**6, 10**9)


def _bits(values):
    """The float64 bit patterns of values: equal exactly when every float.hex is."""
    return np.asarray(values, dtype=float).view(np.uint64)


def test_closed_weights_are_bitwise_the_numpy_form():
    # the Python-float weights against the numpy array form they replace,
    # on the whole grid up to 2048 and on both end windows above; numpy's
    # power may differ from libm's in the last bit without moving a weight
    for n in PINNED_NS:
        sc = constants(n)
        k = min(n, layer_width(sc.q))
        for first, last in [(0, n)] if n <= 2048 else [(0, k), (n - k, n)]:
            ref = _bits(oracles.closed_weights_array(sc, np.arange(first, last + 1)))
            np.testing.assert_array_equal(_bits(closed_weights(sc, first, last)), ref,
                                          err_msg=f"{n} {first}..{last}")
        if n <= 2048:
            np.testing.assert_array_equal(_bits(optimal_coefficients(n).coefficients), ref,
                                          err_msg=str(n))


@pytest.mark.parametrize("ns", [range(1, 514), [10**5, 10**6]], ids=["1-513", "large"])
def test_validate_node_list_is_bitwise_the_rule_nodes(ns):
    # `validate` forms e^-x at the nodes of optimal_coefficients(n) without
    # numpy, from the list [-j h for j < n] + [-1.0]; it must be those
    # nodes, negated, to the bit.  0.0 - x negates exactly and, like -0 * h,
    # leaves the first node +0.0
    for n in ns:
        h = constants(n).h
        stdlib = np.array([-j * h for j in range(n)] + [-1.0])
        negated = 0.0 - optimal_coefficients(n).nodes
        assert np.array_equal(stdlib.view(np.uint64), negated.view(np.uint64)), n


def test_rejects_bad_n():
    with pytest.raises(ValueError):
        optimal_coefficients(0)
    with pytest.raises(ValueError):
        optimal_coefficients(-2)


def test_constraint_residuals_on_handmade_rules():
    nodes = np.array([0.0, 0.5, 1.0])
    # flat rectangle weights: sum = (N+1) h = 1 + h, so first residual is h
    rect = make_rule(nodes, [0.5, 0.5, 0.5])
    r1, _ = constraint_residuals(rect)
    assert r1 == pytest.approx(0.5, abs=1e-16)
    # trapezoid satisfies the mass constraint but not the exponential one
    r1, r2 = constraint_residuals(trapezoid_rule(2))
    assert r1 == 0.0
    expected = abs(0.25 + 0.5 * math.exp(-0.5) + 0.25 * math.exp(-1.0) - (1 - math.exp(-1.0)))
    assert r2 == pytest.approx(expected, rel=1e-12)
    assert r2 > 1e-3


def test_constraint_residuals_build_no_list_of_the_weights():
    # two float64 temporaries of 0.8 MB each; a list of the 10^5 weights
    # as Python floats would add 3.2 MB (30 MB at n = 10^6)
    rule = optimal_coefficients(10**5)
    tracemalloc.start()
    try:
        constraint_residuals(rule)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_400_000


def test_make_rule_validation():
    with pytest.raises(ValueError):
        make_rule([0.0, 0.0, 1.0], [0.3, 0.3, 0.4])
    with pytest.raises(ValueError):
        make_rule([0.0, 1.2], [0.5, 0.5])
    with pytest.raises(ValueError):
        make_rule([0.0, 1.0], [0.5])
    # every comparison with NaN is false, so NaN nodes pass the order checks
    with pytest.raises(ValueError):
        make_rule([0.0, math.nan, 1.0], [0.5, 0.0, 0.5])
    with pytest.raises(ValueError):
        make_rule([math.nan], [1.0])
