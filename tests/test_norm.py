import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from optquad.coefficients import make_rule, optimal_coefficients, trapezoid_rule
from optquad.norm import (
    InconsistentMultipliersError,
    MultiplierPair,
    build_report,
    dense_multipliers,
    geometric_sums,
    multipliers_closed_form,
    norm_expanded,
    norm_quadratic_form,
    norm_theorem2,
    norm_via_multipliers,
)
from optquad.wiener_hopf import DENSE_MAX_N

from highprec import quadratic_form_ref, theorem2_ref

QF_CLOSED_N2 = 2.7556816080848494e-4
QF_DENSE_N2 = 1.9522972545191564e-4
QF_TRAP_N2 = 5.9214533930654721e-4
QF_CLOSED_N1 = 8.0768069331463791e-3
THM2_N1 = 2.7578743721317276
THM2_N2 = 11.70134244458473


def test_quadratic_form_frozen_values():
    assert norm_quadratic_form(optimal_coefficients(2)) == pytest.approx(QF_CLOSED_N2, abs=1e-15)
    assert norm_quadratic_form(optimal_coefficients(1)) == pytest.approx(QF_CLOSED_N1, rel=1e-12)
    assert norm_quadratic_form(trapezoid_rule(2)) == pytest.approx(QF_TRAP_N2, rel=1e-11)


def test_quadratic_form_desk_anchor():
    # ~2.75e-4, checked to 1e-5 absolute against the 50-digit re-evaluation
    rule = optimal_coefficients(2)
    value = norm_quadratic_form(rule)
    ref = float(quadratic_form_ref(rule.nodes, rule.coefficients))
    assert abs(value - ref) <= 1e-5
    assert abs(value - 2.75e-4) <= 1e-5


def test_quadratic_form_positive_and_ordered():
    v_opt = norm_quadratic_form(optimal_coefficients(2))
    v_trap = norm_quadratic_form(trapezoid_rule(2))
    assert 0.0 < v_opt < v_trap


def test_quadratic_form_order_independent():
    # fsum returns the correctly rounded sum of the terms, so re-evaluating
    # on the same rule is bitwise stable, and the mirrored rule (equal value
    # by the kernel's evenness and the moment's symmetry, but evaluated at
    # reflected float nodes) agrees to rounding level
    rule = optimal_coefficients(5)
    a = norm_quadratic_form(rule)
    assert norm_quadratic_form(rule) == a
    mirrored = make_rule(np.sort(1.0 - rule.nodes), rule.coefficients[::-1])
    assert norm_quadratic_form(mirrored) == pytest.approx(a, rel=1e-11)


def test_via_multipliers_matches_quadratic_form_on_dense_pair():
    for n in (1, 2, 3, 8):
        rule, pair = dense_multipliers(n)
        qf = norm_quadratic_form(rule)
        mult = norm_via_multipliers(rule, pair)
        assert abs(qf - mult) / qf <= 1e-8, n
    rule, pair = dense_multipliers(1)
    assert abs(norm_quadratic_form(rule) - norm_via_multipliers(rule, pair)) / QF_CLOSED_N1 <= 1e-10


def test_via_multipliers_frozen_value():
    rule, pair = dense_multipliers(2)
    assert norm_via_multipliers(rule, pair) == pytest.approx(QF_DENSE_N2, rel=1e-10)


def test_via_multipliers_rejects_non_solution():
    # the closed-form rule does not solve the system, so pairing it with the
    # dense multipliers must trip the residual recheck
    _, pair = dense_multipliers(2)
    with pytest.raises(InconsistentMultipliersError):
        norm_via_multipliers(optimal_coefficients(2), pair)
    with pytest.raises(InconsistentMultipliersError):
        norm_expanded(optimal_coefficients(2), pair)


def test_expanded_matches_multiplier_route():
    for n in (1, 2, 5, 16):
        rule, pair = dense_multipliers(n)
        a = norm_via_multipliers(rule, pair)
        b = norm_expanded(rule, pair)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a) / 1e-8), n


def test_expanded_partial_sums_desk_values():
    rule = optimal_coefficients(2)
    c, x = rule.coefficients, rule.nodes
    assert math.fsum(c * x * x) == pytest.approx(0.372172, abs=1e-4)
    assert math.fsum(c * np.exp(x)) == pytest.approx(1.762988, abs=1e-4)


def test_theorem2_frozen_and_desk():
    assert norm_theorem2(2) == pytest.approx(THM2_N2, rel=1e-12)
    assert norm_theorem2(1) == pytest.approx(THM2_N1, rel=1e-12)
    assert abs(norm_theorem2(2) - 11.70) <= 0.01 * 11.70
    # second fraction dominates: ~11.706 at n=2
    h = 0.5
    eh = math.exp(h)
    frac = (h * (2 - eh - 3 * eh * eh) + 4 + 2 * eh + 6 * eh * eh) / (4 * (1 - eh) ** 2)
    assert frac == pytest.approx(11.706, abs=1e-3)


def test_theorem2_matches_verbatim_reference():
    for n in (1, 2, 3, 4, 8, 64, 1000):
        ref = float(theorem2_ref(n))
        assert norm_theorem2(n) == pytest.approx(ref, rel=1e-11), n


def test_theorem2_bracket_desk_value():
    from optquad.spectral import constants

    sc = constants(2)
    bracket = (norm_theorem2(2) - 0.5**2 / 12 - 11.705982984523) / sc.k
    assert bracket == pytest.approx(56.2, abs=0.3)
    assert sc.k * bracket == pytest.approx(-0.0255, abs=3e-4)


def test_multipliers_closed_form_signs_and_finiteness():
    pair = multipliers_closed_form(2)
    assert pair.a1 > 0.0 and pair.b1 > 0.0
    assert pair.a1 == pytest.approx(0.0027774358954531, rel=1e-10)
    assert pair.b1 == pytest.approx(0.0053576744648792, rel=1e-10)
    pair1 = multipliers_closed_form(1)
    assert math.isfinite(pair1.d) and math.isfinite(pair1.b0)


def test_multipliers_closed_form_vs_dense():
    # the printed b0 reproduces the dense multiplier, the printed d does not;
    # both facts are recorded, neither is "corrected"
    for n in (1, 2, 4):
        printed = multipliers_closed_form(n)
        _, dense = dense_multipliers(n)
        assert printed.b0 == pytest.approx(dense.b0, rel=1e-9, abs=1e-14), n
        assert abs(printed.d - dense.d) > 1e-4 * max(1.0, abs(dense.d)), n


def test_geometric_sums_exact_small_cases():
    s1, s2 = geometric_sums(0.5, 4)
    assert s1 == pytest.approx(1.375, rel=1e-15)
    assert s2 == pytest.approx(2.625, rel=1e-15)
    s1, _ = geometric_sums(0.5, 2)
    assert s1 == pytest.approx(0.5, rel=1e-14)


def test_geometric_sums_domain():
    with pytest.raises(ValueError):
        geometric_sums(1.0, 5)
    with pytest.raises(ValueError):
        geometric_sums(0.5, 1)


@given(st.floats(-0.9, 0.9), st.integers(2, 50))
@settings(max_examples=300, deadline=None)
def test_geometric_sums_match_brute_force(lam, n):
    assume(abs(lam) > 1e-6)
    b1 = math.fsum(lam**g * g for g in range(1, n))
    b2 = math.fsum(lam**g * g * g for g in range(1, n))
    gross1 = math.fsum(abs(lam) ** g * g for g in range(1, n))
    gross2 = math.fsum(abs(lam) ** g * g * g for g in range(1, n))
    assume(abs(b1) > 1e-9 * gross1 and abs(b2) > 1e-9 * gross2)
    s1, s2 = geometric_sums(lam, n)
    assert s1 == pytest.approx(b1, rel=1e-11)
    assert s2 == pytest.approx(b2, rel=1e-11)


def test_report_n2():
    rep = build_report(2)
    assert rep.verdict == "theorem2_discrepant"
    assert rep.multiplier_source == "dense_solve"
    assert rep.via_quadratic_form == pytest.approx(QF_DENSE_N2, rel=1e-12)
    assert rep.closed_rule_quadratic_form == pytest.approx(QF_CLOSED_N2, rel=1e-10)
    assert rep.via_theorem2 == pytest.approx(THM2_N2, rel=1e-12)
    assert rep.rel_diff_qf_mult <= 1e-12
    assert rep.rel_diff_qf_expanded <= 1e-12
    assert rep.rel_diff_qf_thm2 > 0.99
    assert rep.coefficient_max_deviation == pytest.approx(0.063257, rel=1e-4)


def test_report_n1():
    rep = build_report(1)
    assert rep.via_quadratic_form > 0.0
    assert rep.via_quadratic_form == pytest.approx(QF_CLOSED_N1, rel=1e-11)
    assert rep.coefficient_max_deviation <= 1e-12  # constraints pin n=1 exactly
    assert rep.verdict == "theorem2_discrepant"


def test_report_norm_decreases():
    assert build_report(4).via_quadratic_form < build_report(2).via_quadratic_form


def test_report_closed_form_fallback_above_cap():
    rep = build_report(DENSE_MAX_N + 7)
    assert rep.multiplier_source == "closed_form"
    assert rep.coefficient_max_deviation is None
    assert rep.verdict == "inconsistent"
    assert rep.via_quadratic_form > 0.0
    for value in (rep.via_quadratic_form, rep.via_multipliers, rep.via_expanded, rep.via_theorem2):
        assert math.isfinite(value)


def test_optimality_witness_at_dense_minimizer():
    rule, _ = dense_multipliers(2)
    base = norm_quadratic_form(rule)
    rng = np.random.default_rng(20240917)
    cons = np.stack([np.ones(3), np.exp(-rule.nodes)])
    basis, _ = np.linalg.qr(cons.T)  # orthonormal span of the constraint rows
    eps = 1e-3
    done = 0
    while done < 20:
        v = rng.standard_normal(3)
        v -= basis @ (basis.T @ v)  # project onto the constraint tangent
        norm_v = float(np.linalg.norm(v))
        if norm_v < 1e-10:
            continue
        done += 1
        v /= norm_v
        perturbed = make_rule(rule.nodes, rule.coefficients + eps * v)
        assert math.fsum(v) == pytest.approx(0.0, abs=1e-13)
        assert norm_quadratic_form(perturbed) > base


def test_closed_form_rule_is_not_the_constrained_minimizer():
    # moving from the closed-form weights toward the dense solution lowers
    # the quadratic form: the printed weights are not optimal for it
    closed = optimal_coefficients(2)
    dense, _ = dense_multipliers(2)
    direction = dense.coefficients - closed.coefficients
    probe = make_rule(closed.nodes, closed.coefficients + 1e-3 * direction)
    assert norm_quadratic_form(probe) < norm_quadratic_form(closed)


def test_dense_multipliers_cap():
    with pytest.raises(ValueError):
        dense_multipliers(DENSE_MAX_N + 1)


def test_report_rejects_bad_n():
    with pytest.raises(ValueError):
        build_report(0)
