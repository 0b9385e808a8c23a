import functools
import math
import random
import sys
import tracemalloc
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from optquad import coefficients, norm
from optquad.cli import main
from optquad.coefficients import optimal_coefficients
from optquad.norm import (
    build_report,
    closed_rule_norm,
    geometric_sums,
    multiplier_routes,
    norm_theorem2,
    _CONTEXT,
    _coefficient_max_deviation,
    _end_rows,
    _exact_solution,
    _float_weights_on,
    _fsum,
    _kernel_form,
    _moment_sums,
    _printed_solution,
    _route1,
    _window_width,
    minimizer_weights,
)
from optquad.spectral import DENSE_MAX_N, closed_width, constants
from optquad.wiener_hopf import solve_uniform

from highprec import (
    DPS,
    closed_quadratic_form_ref,
    mp_grid,
    piece_weights,
    psi2_ref,
    psi2_rows,
    quadratic_form_ref,
    spline_weights,
    theorem2_ref,
)
import oracles
from oracles import ExpSums, layout, piece_rule
from oracles import make_rule, multipliers_closed_form, norm_peano, norm_quadratic_form, trapezoid_rule

QF_CLOSED_N2 = 2.7556816080848494e-4
QF_DENSE_N2 = 1.9522972545191564e-4
QF_TRAP_N2 = 5.9214533930654721e-4
QF_CLOSED_N1 = 8.0768069331463791e-3
THM2_N1 = 2.7578743721317276
THM2_N2 = 11.70134244458473


def _system_rule(n):
    """The rule of solve_uniform's weights, the system's minimizer."""
    sol = solve_uniform(n)
    return make_rule(sol.nodes, sol.c)


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
    # route 2 of multiplier_routes against the O(n^2) oracle on the same dense rule
    for n in (1, 2, 3, 5, 8, 16):
        mult = multiplier_routes(n, "multiplier")
        qf = norm_quadratic_form(_system_rule(n))
        assert abs(qf - mult) / qf <= 1e-8, n
    # the two constraints alone fix the n = 1 rule
    qf1 = norm_quadratic_form(_system_rule(1))
    assert abs(qf1 - multiplier_routes(1, "multiplier")) / QF_CLOSED_N1 <= 1e-10


def test_via_multipliers_frozen_value():
    assert multiplier_routes(2, "multiplier") == pytest.approx(QF_DENSE_N2, rel=1e-10)


def test_expanded_matches_multiplier_route():
    for n in (1, 2, 3, 5, 8, 16):
        a, b = (multiplier_routes(n, method) for method in ("multiplier", "expanded"))
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a) / 1e-8), n


def test_multiplier_routes_rejects_other_routes():
    for method in ("all", "quadform", "theorem2", ""):
        with pytest.raises(ValueError):
            multiplier_routes(16, method)
    # the routes cancel down to h^4/720 as route 1 does, so they share its range
    for n in (0, 10**9 + 1):
        with pytest.raises(ValueError, match="1 <= n <= 10"):
            multiplier_routes(n, "multiplier")


def test_norm_routes_build_no_printed_rule(monkeypatch):
    # the single routes and the report read the system's exact solution and
    # the printed weights on their end windows only (spectral.closed_weights),
    # so neither builds the printed rule as an array
    def refused(n):
        raise AssertionError(f"optimal_coefficients({n})")

    monkeypatch.setattr(coefficients, "optimal_coefficients", refused)
    for method in ("multiplier", "expanded"):
        multiplier_routes(DENSE_MAX_N + 1, method)
    build_report(DENSE_MAX_N + 1)


@pytest.mark.parametrize("n", [2, 16, DENSE_MAX_N])
def test_build_report_factors_its_system_once(monkeypatch, capsys, n):
    # every uniform-grid path forms the system's solution in closed form,
    # in decimal, once: numpy's LAPACK is never called, so the dense
    # (n+3)-size system is never factored
    def refused(*args):
        raise AssertionError("np.linalg called")

    monkeypatch.setattr(np.linalg, "solve", refused)
    monkeypatch.setattr(np.linalg, "cond", refused)
    build_report(n)
    for argv in (
        ["coeffs", "--method", "system"],
        ["norm", "--methods", "multiplier"],
        ["norm", "--methods", "expanded"],
        ["norm", "--methods", "all"],
    ):
        assert main([*argv, "--n", str(n)]) == 0
    capsys.readouterr()


def test_rel_diff_in_floats_and_decimals():
    # the symmetric relative gap, in the type of its first argument; the
    # floor 1e-300 keeps two zeros at 0 in either type, and the Decimal
    # floor, converted once, is 1e-300's exact value
    assert norm._DECIMAL_TINY == Decimal(1e-300) and norm._DECIMAL_TINY != Decimal("1e-300")
    assert norm._rel_diff(1.0, 0.75) == 0.25 and type(norm._rel_diff(1.0, 0.75)) is float
    assert norm._rel_diff(-2.0, 2.0) == 2.0
    assert norm._rel_diff(1e-310, 0.0) == 1e-310 / 1e-300
    with localcontext(_CONTEXT):
        gap = norm._rel_diff(Decimal(3), Decimal(4))
        assert type(gap) is Decimal and gap == Decimal("0.25")
        assert norm._rel_diff(Decimal("1e-400"), Decimal(0)) == Decimal("1e-400") / Decimal(1e-300)
    assert norm._rel_diff(0.0, 0.0) == 0.0 and type(norm._rel_diff(0.0, 0.0)) is float
    zero = norm._rel_diff(Decimal(0), Decimal(0))
    assert zero == 0 and type(zero) is Decimal


def test_gauss_solve_raises_on_a_zero_pivot():
    # the bordered oracle's elimination has no condition check of its own:
    # a singular matrix, such as the four kept rows 0, 0, 2, 2 would give at
    # n = 2, ends in a decimal ArithmeticError, never in a solution
    with localcontext(_CONTEXT):
        with pytest.raises(ArithmeticError):
            oracles.gauss_solve([[Decimal(1), Decimal(1)], [Decimal(1), Decimal(1)]], [Decimal(1)] * 2)


@pytest.mark.parametrize("n", [1, 2, 8, 16])
def test_float64_routes_agree_with_the_40_digit_report(n):
    # one evaluator: the single routes are the report's, bit for bit
    mult, expanded = (multiplier_routes(n, method) for method in ("multiplier", "expanded"))
    report = build_report(n)
    assert (mult, expanded) == (report.via_multipliers, report.via_expanded)


def test_float64_multiplier_route_near_the_cap():
    # the route cancels terms near 1e-2 down to about 2e-14 here, so any
    # rounding in the solve behind it shows; it reads the report's own solve
    for n in (383, 384, 511, 512, DENSE_MAX_N):
        assert multiplier_routes(n, "multiplier") == build_report(n).via_multipliers, n


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
    for n in (1, 2):
        pair = multipliers_closed_form(optimal_coefficients(n))
        assert math.isfinite(pair.d) and math.isfinite(pair.b0), n


def test_multipliers_closed_form_vs_dense():
    # the printed b0 reproduces the system's multiplier, the printed d does
    # not: printed d over the system's d (measured against the 50-digit
    # exact solve) has the wrong sign at n = 1 and tends to sqrt(3).  Both
    # facts are recorded, neither is "corrected"
    for n in (1, 2, 4):
        printed = multipliers_closed_form(optimal_coefficients(n))
        assert printed.b0 == pytest.approx(solve_uniform(n).b0, rel=1e-9, abs=1e-14), n
    for n, d_ratio in ((1, -8.114), (2, 1.2143), (4, 1.6553), (16, 1.7287)):
        printed = multipliers_closed_form(optimal_coefficients(n))
        assert printed.d / solve_uniform(n).d == pytest.approx(d_ratio, rel=1e-3), n


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


@pytest.mark.parametrize("n", [DENSE_MAX_N + 1, 600, 4096, 100_000, 1_000_000])
def test_report_above_the_cap_solves_the_system(n):
    # the report has no cap: above it the exact 56-digit solve still gives
    # three positive, agreeing routes (measured worst 4.5e-30, at 10^6),
    # and the printed rule's norm is not below the minimizer's (720 n^4 N:
    # 1.0000036191 against 1.0000028868 at 10^6)
    rep = build_report(n)
    assert rep.verdict == "theorem2_discrepant"
    assert rep.multiplier_source == "dense_solve"
    assert min(rep.via_quadratic_form, rep.via_multipliers, rep.via_expanded) > 0.0
    assert max(rep.rel_diff_qf_mult, rep.rel_diff_qf_expanded) <= 1e-20
    assert rep.via_quadratic_form <= rep.closed_rule_quadratic_form
    assert math.isfinite(rep.coefficient_max_deviation)
    assert rep.coefficient_max_deviation > 0.0


def test_optimality_witness_at_dense_minimizer():
    rule = _system_rule(2)
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
    dense = _system_rule(2)
    direction = dense.coefficients - closed.coefficients
    probe = make_rule(closed.nodes, closed.coefficients + 1e-3 * direction)
    assert norm_quadratic_form(probe) < norm_quadratic_form(closed)


def test_report_rejects_bad_n():
    with pytest.raises(ValueError):
        build_report(0)
    with pytest.raises(ValueError):
        closed_rule_norm(0)


@pytest.mark.parametrize("n", [0, -3, 10**9 + 1])
@pytest.mark.parametrize("public", ["minimizer_audit", "minimizer_weights"])
def test_minimizer_entries_reject_bad_n(monkeypatch, public, n):
    # each checks n before its 56-digit solve, and so before the O(n) weights
    def refused(n):
        raise AssertionError(f"_exact_solution({n})")

    monkeypatch.setattr(norm, "_exact_solution", refused)
    with pytest.raises(ValueError, match=r"1 <= n <= 10\^9, got " + str(n)):
        getattr(norm, public)(n)


# ------------------------------------------------------------ Peano kernel


@pytest.mark.parametrize("n", [1, 2, 16, 64, 256])
def test_peano_matches_highprec_closed_form(n):
    ref = closed_quadratic_form_ref(n)
    assert abs(norm_peano(optimal_coefficients(n)) - float(ref)) <= 1e-11 * float(ref)


@given(st.integers(2, 16), st.floats(0.0, 1e-3), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_peano_matches_quadratic_form_on_feasible_perturbations(n, amplitude, seed):
    # n = 1 has no tangent direction: the two constraints fix both weights
    rule = _system_rule(n)
    cons = np.stack([np.ones(n + 1), np.exp(-rule.nodes)])
    basis, _ = np.linalg.qr(cons.T)
    v = np.random.default_rng(seed).standard_normal(n + 1)
    v -= basis @ (basis.T @ v)
    v /= np.linalg.norm(v)
    perturbed = make_rule(rule.nodes, rule.coefficients + amplitude * v)
    value = norm_peano(perturbed)
    assert abs(value - norm_quadratic_form(perturbed)) <= 1e-8 * value + 1e-15


def test_peano_rejects_infeasible_rules():
    for n in (2, 16, 64):
        with pytest.raises(ValueError):
            norm_peano(trapezoid_rule(n))
    rule = optimal_coefficients(8)
    bad = rule.coefficients.copy()
    bad[3] = np.nan
    with pytest.raises(ValueError):
        norm_peano(make_rule(rule.nodes, bad))


def test_peano_accepts_nodes_inside_the_interval():
    # a 2-point rule exact on {1, e^-x} over [0, 1] has the same functional
    # whether or not zero-weight endpoints are listed
    x = np.array([0.25, 0.75])
    c = np.linalg.solve(np.stack([np.ones(2), np.exp(-x)]), [1.0, -math.expm1(-1.0)])
    inner = make_rule(x, c)
    padded = make_rule([0.0, *x, 1.0], [0.0, *c, 0.0])
    assert norm_peano(inner) == norm_peano(padded)
    assert norm_peano(inner) == pytest.approx(norm_quadratic_form(inner), rel=1e-9)


def test_peano_does_not_depend_on_chunk_size(monkeypatch):
    rule = optimal_coefficients(1000)
    value = norm_peano(rule)
    monkeypatch.setattr(oracles, "_PEANO_CHUNK", 7)
    assert norm_peano(rule) == value


@pytest.mark.parametrize("n", [100_000, 1_000_000])
def test_peano_follows_the_h4_asymptote(n):
    # 720 n^4 N - 1 ~ 10/(3n); at n = 10^6 rounding in the float64 weights
    # adds about 3e-7, still inside the bound
    excess = 720.0 * n**4 * norm_peano(optimal_coefficients(n)) - 1.0
    assert 0.0 < excess < 4.0 / n


def test_closed_rule_norm_is_not_below_the_minimum():
    # the exact minimum bounds every feasible rule's norm from below;
    # the float64 quadratic form broke this at n = 512 (2.019e-14 < 2.032e-14).
    # Every n <= 32, the powers of two with their neighbours, and the cap.
    for n in [*range(1, 33), 64, 127, 128, 255, 256, 383, 511, 512, DENSE_MAX_N]:
        rep = build_report(n)
        closed = closed_rule_norm(n)
        assert rep.closed_rule_quadratic_form == closed, n
        assert closed >= rep.via_quadratic_form, n
        # measured worst over every n <= 513: 5.1e-42, at n = 487
        assert max(rep.rel_diff_qf_mult, rep.rel_diff_qf_expanded) <= 1e-20, n


# ------------------------------------------------ the printed rule's exact norm


@pytest.mark.parametrize("n", [1, 2, 3, 4, 16, 64, 257])
def test_closed_rule_norm_matches_highprec(n):
    # the five pieces hold at every n, with one- or two-node layers below
    # n = 4 and none at n = 1; measured worst 7.9e-17 relative, at n = 1,
    # the rounding of the float64 result
    ref = float(closed_quadratic_form_ref(n))
    assert abs(closed_rule_norm(n) - ref) <= 1e-15 * ref


def _printed_route1(n, digits):
    with localcontext(Context(prec=digits, Emax=MAX_EMAX, Emin=MIN_EMIN)):
        return _route1(_printed_solution(n))


@pytest.mark.parametrize("n", [10**6, 10**7, 10**8])
def test_closed_rule_norm_matches_90_digits(n):
    # the same closed forms in 90 digits; the 56-digit route is 3.3e-29,
    # 9.6e-25 and 2.6e-21 relative off them, so only the final rounding shows
    ref = _printed_route1(n, 90)
    assert abs(Decimal(closed_rule_norm(n)) - ref) <= Decimal("2.2e-16") * ref


@pytest.mark.parametrize("n, rtol", [
    *((n, 1e-11) for n in (1, 2, 3, 4, 5, 16, 64, 257, 512, 1024, 2048)),
    (1_000_000, 4e-7),
])
def test_closed_rule_norm_matches_norm_peano(n, rtol):
    # the float64 O(n) oracle on the float64 printed weights: measured worst
    # 2.3e-12 up to 2048, and 2.9e-7 at 10^6, the weights' rounding floor
    closed = closed_rule_norm(n)
    assert abs(norm_peano(optimal_coefficients(n)) - closed) <= rtol * closed


def test_closed_rule_norm_follows_the_asymptote():
    # n (720 n^4 N - 1) -> 10/3; 3.3333341 at 10^6
    n = 10**6
    assert abs(n * (720.0 * n**4 * closed_rule_norm(n) - 1.0) - 10 / 3) <= 1e-5


# --------------------------------------------------- the report's exact solve


def _toeplitz_rows_ref(n, c):
    """sum_j psi_2(|i - j| / n) c_j at DPS digits, one psi2_ref per lag."""
    with mp.workdps(DPS):
        h = mp.mpf(1) / n
        psi_k = [psi2_ref(k * h) for k in range(n + 1)]
        return [mp.fsum(psi_k[abs(i - j)] * c[j] for j in range(n + 1)) for i in range(n + 1)]


@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_psi2_rows_match_the_toeplitz_sum(n):
    # the O(n) oracle against the O(n^2) one
    rng = random.Random(n)
    with localcontext(_CONTEXT):
        sol = _exact_solution(n)
    with mp.workdps(DPS):
        x, ep, en, _ = mp_grid(n)
        # weights in [-1, 1) carrying about 39 random digits
        weights = np.array(
            [mp.mpf(rng.getrandbits(130)) / 2**129 - 1 for _ in range(n + 1)], dtype=object
        )
        exact = piece_weights(piece_rule(sol))
        for c in (weights, exact):
            rows = psi2_rows(x, ep, en, c)
            ref = _toeplitz_rows_ref(n, c)
            assert max(abs(a - b) for a, b in zip(rows, ref)) <= mp.mpf("1e-35")


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 16, 128, 513, 4096])
def test_refined_solution_solves_the_exact_system(n):
    # the closed-form 56-digit decimal solve, which has no size cap, against
    # the O(n) oracle in 50-digit mpmath: each of the n + 3 equations holds
    # to 1e-30 of its row's scale (sum of the absolute values of its terms);
    # measured worst 2.4e-48, at n = 513
    with localcontext(_CONTEXT):
        sol = _exact_solution(n)
    with mp.workdps(DPS):
        c = piece_weights(piece_rule(sol))
        b0, d = mp.mpf(str(sol.b0)), mp.mpf(str(sol.d))
        x, ep, en, m = mp_grid(n)
        rows = psi2_rows(x, ep, en, c)
        gross = psi2_rows(x, ep, en, np.abs(c))  # psi_2 >= 0
        worst = max(
            abs(m[i] - rows[i] - b0 - d * en[i])
            / (abs(m[i]) + gross[i] + abs(b0) + abs(d * en[i]))
            for i in range(n + 1))
        target = 1 - mp.exp(-1)
        worst = max(worst,
                    abs(1 - mp.fsum(c)) / (1 + mp.fsum(np.abs(c))),
                    abs(target - mp.fsum(c * en)) / (target + mp.fsum(np.abs(c) * en)))
        assert worst <= mp.mpf("1e-30")


def _trial(n):
    """_exact_solution(n) with random amplitudes for its five pieces, and their moment sums and end rows.

    The moment sums and rows are formed again for the new amplitudes:
    route 1 reads them, and _replace alone would leave the solution's.
    In the working context.
    """
    rng = random.Random(n)
    sol = _exact_solution(n)
    amplitudes = tuple(Decimal(rng.uniform(-1.0, 1.0)) for _ in sol.amplitudes)
    moments = _moment_sums(sol.grid, sol.layout_sums, amplitudes)
    return sol._replace(amplitudes=amplitudes, moments=moments, rows=_end_rows(sol.grid, moments))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 16, 64, 4096])
def test_end_rows_match_the_o_n_rows(n):
    # the kernel rows 0 and n read off the moment sums against the O(n)
    # oracle, for random amplitudes of the five pieces; measured worst
    # 1.2e-48 of the gross row, at n = 4096
    with localcontext(_CONTEXT):
        trial = _trial(n)
        rows = trial.rows
    with mp.workdps(DPS):
        c = piece_weights(piece_rule(trial))
        x, ep, en, _ = mp_grid(n)
        ref = psi2_rows(x, ep, en, c)
        gross = psi2_rows(x, ep, en, np.abs(c))  # psi_2 >= 0
        for i, value in zip((0, n), rows):
            assert abs(mp.mpf(str(value)) - ref[i]) <= mp.mpf("1e-35") * gross[i], (n, i)


def _row_parts(rule, i):
    """Row i of the PieceRule's weights with psi_2(|i - j| h) replaced by its parts' sizes
    cosh((i - j) h) + (i + j) h and each piece's terms by their absolute values,
    in 90 digits: the sizes of the terms that either form of the row cancels."""
    with localcontext(Context(prec=90, Emax=MAX_EMAX, Emin=MIN_EMIN)):
        sums = ExpSums(rule.sums.n, abs(rule.sums.mu))

        def s(k, piece, shift=0):
            return oracles.geom(sums, k, (piece.ratio[0], piece.ratio[1] + shift), piece.lo, piece.hi)

        return sum(abs(a * p.scale) * ((sums.exp(i) * s(0, p, -1) + sums.exp(-i) * s(0, p, 1)) / 2
                                       + sums.h * (i * s(0, p) + s(1, p)))
                   for a, p in zip(rule.amplitudes, rule.pieces))


@pytest.mark.parametrize("n", [10**6, 10**9])
def test_end_rows_are_the_one_sided_row_sums(n):
    # past the O(n) oracle's reach: the rows read off the moment sums
    # against the one-sided closed-form row sums of each piece
    # (oracles.kernel_row), both in the working digits, on the scale of
    # their parts; measured worst 2.8e-57 of them (row n at 10^6)
    with localcontext(_CONTEXT):
        trial = _trial(n)
        rows, rule = trial.rows, piece_rule(trial)
        one_sided = [_fsum(a * p.scale * oracles.kernel_row(rule.sums, p.ratio, i, p.lo, p.hi)
                           for a, p in zip(rule.amplitudes, rule.pieces)) for i in (0, n)]
    for i, value, ref in zip((0, n), rows, one_sided):
        assert abs(value - ref) <= Decimal("1e-50") * _row_parts(rule, i), (n, i)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 16, 64, 4096])
def test_kernel_form_matches_the_o_n_quadratic_form(n):
    # route 1's quadratic form, from the end rows and the spread pieces'
    # pair sums, against the O(n) oracle, for random amplitudes of the
    # five pieces, the mirrored one included; measured worst 8.5e-49 of
    # the gross sum, at n = 4096
    with localcontext(_CONTEXT):
        trial = _trial(n)
        value = _kernel_form(trial)
    with mp.workdps(DPS):
        c = piece_weights(piece_rule(trial))
        x, ep, en, _ = mp_grid(n)
        ref = mp.fsum(c * psi2_rows(x, ep, en, c))
        gross = mp.fsum(np.abs(c) * psi2_rows(x, ep, en, np.abs(c)))
        assert abs(mp.mpf(str(value)) - ref) <= mp.mpf("1e-35") * gross


# ------------------------- the layout's straight-line sums against the generic


_WIDE90 = Context(prec=90, Emax=MAX_EMAX, Emin=MIN_EMIN)
_UP, _DOWN = (1, 0), (-1, 0)
# the _LayoutSums fields as generic sums on 1 .. n-1: (k, ratio)
_LAYOUT_RATIOS = {"s0": (0, _UP), "s1": (1, _UP), "s2": (2, _UP), "up": (0, (1, 1)), "down": (0, (1, -1)),
                  "flat_up": (0, (0, 1)), "flat_down": (0, (0, -1))}


def _generic_layout_sums(n, mu, amplitudes):
    """({field: S_k}, moments, pairs) of the five pieces on (n, mu) by the generic range sums
    (oracles.geom, moment_sums and pair), in the current context."""
    sums = ExpSums(n, mu)
    pieces = layout(sums)
    layer, mirror, flat = pieces[2:]
    s = {name: oracles.geom(sums, k, r, 1, n - 1) for name, (k, r) in _LAYOUT_RATIOS.items()}
    moments = oracles.moment_sums(sums, pieces, amplitudes)
    pairs = [p.scale * q.scale * oracles.pair(sums, p.ratio, q.ratio, 1, n - 1)
             for p, q in ((layer, layer), (layer, mirror), (layer, flat), (flat, flat))]
    return s, moments, pairs


def _pair_parts(sums, p, q):
    """The pair sum of the pieces p and q with psi_2(|i - j| h) replaced by its parts'
    sizes cosh((i - j) h) + (i + j) h, as in test_expsums._parts; on |mu| in sums."""
    def s(k, piece, shift=0):
        return oracles.geom(sums, k, (piece.ratio[0], piece.ratio[1] + shift), 1, sums.n - 1)

    return abs(p.scale * q.scale) * ((s(0, p, 1) * s(0, q, -1) + s(0, p, -1) * s(0, q, 1)) / 2
                                     + sums.h * (s(1, p) * s(0, q) + s(0, p) * s(1, q)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 16, 513, 4096, 10**6, 10**9])
@pytest.mark.parametrize("mu", ["random", "printed"])
def test_layout_sums_are_the_generic_range_sums(n, mu):
    # norm's straight-line sums of its one layout (_layout_sums, _moment_sums,
    # _pair_sums) in the working digits against the generic range sums in
    # 90: each S_k, the six moment sums of random amplitudes and the four
    # pair sums, within 1e-45 of their parts' size (the same sums on |mu|
    # and |amplitudes|, psi_2 replaced by cosh((i - j) h) + (i + j) h),
    # at a random mu in (-0.3, -0.2) and at the printed rule's q; measured
    # worst 1.0e-55 (S_2 of mu at n = 16)
    rng = random.Random(n)
    amplitudes = tuple(Decimal(rng.uniform(-1.0, 1.0)) for _ in range(5))
    with localcontext(_CONTEXT):
        mu = Decimal(rng.uniform(-0.3, -0.2)) if mu == "random" else _printed_solution(n).layout_sums.mu
        grid = norm._grid(n)
        ls = norm._layout_sums(grid, mu)
        moments = _moment_sums(grid, ls, amplitudes)
        pairs = norm._pair_sums(grid, ls)
    with localcontext(_WIDE90):
        s, ref_moments, ref_pairs = _generic_layout_sums(n, mu, amplitudes)
        size, size_moments, _ = _generic_layout_sums(n, abs(mu), tuple(map(abs, amplitudes)))
        e = grid.e
        c, ep, en, x, xx, _ = size_moments
        size_moments = size_moments._replace(
            moment=(1 + 1 / e) * ep / 4 + (1 + e) * en / 4 + 5 * c / 4 + xx / 2 + x / 2)
        abs_sums = ExpSums(n, abs(mu))
        layer, mirror, flat = layout(abs_sums)[2:]
        size_pairs = [_pair_parts(abs_sums, p, q)
                      for p, q in ((layer, layer), (layer, mirror), (layer, flat), (flat, flat))]
        tol = Decimal("1e-45")
        for name in _LAYOUT_RATIOS:
            assert abs(getattr(ls, name) - s[name]) <= tol * size[name], (n, name)
        for name, value, ref, scale in zip(moments._fields, moments, ref_moments, size_moments):
            assert abs(value - ref) <= tol * scale, (n, name)
        for k, (value, ref, scale) in enumerate(zip(pairs, ref_pairs, size_pairs)):
            assert abs(value - ref) <= tol * scale, (n, k)


_PIN_N, _PIN_MU = 10**6, Decimal("-0.27")  # test_expsums' pin, near the grids' mu


def _pinned_layout(context, mu, amplitudes):
    """_layout_sums, _moment_sums and _end_rows on (_PIN_N, mu) with these amplitudes, in context."""
    with localcontext(context):
        grid = norm._grid(_PIN_N)
        ls = norm._layout_sums(grid, mu)
        moments = _moment_sums(grid, ls, amplitudes)
        return ls, moments, _end_rows(grid, moments)


def test_layout_sums_keep_56_digits_at_a_million():
    # norm's straight-line sums in the working digits against the same
    # sums in 90, at test_expsums' pin (n = 10^6, mu = -0.27), whose
    # test_production_sums_keep_56_digits_at_a_million holds the four pair
    # sums: every _LayoutSums field within 1e-50 relative, and the moment
    # sums and end rows of random amplitudes within 1e-50 of their parts'
    # size (the same sums on |mu| and |amplitudes|, every term added);
    # measured worst 4.5e-56 relative (mu e^h) and 1.9e-56 of the parts
    # (sum c e^x)
    rng = random.Random(_PIN_N)
    amplitudes = tuple(Decimal(rng.uniform(-1.0, 1.0)) for _ in range(5))
    ls, moments, rows = _pinned_layout(_CONTEXT, _PIN_MU, amplitudes)
    ref_ls, ref_moments, ref_rows = _pinned_layout(_WIDE90, _PIN_MU, amplitudes)
    _, size, _ = _pinned_layout(_WIDE90, abs(_PIN_MU), tuple(map(abs, amplitudes)))
    with localcontext(_WIDE90):
        e = norm._grid(_PIN_N).e
        size = size._replace(
            moment=(1 + 1 / e) * size.ep / 4 + (1 + e) * size.en / 4 + 5 * size.c / 4 + size.xx / 2 + size.x / 2)
        row_sizes = ((size.ep + size.en) / 4 + size.x / 2, (e * size.en + size.ep / e) / 4 + (size.c + size.x) / 2)
        tol = Decimal("1e-50")
        for name, value, ref in zip(ls._fields, ls, ref_ls):
            assert abs(value - ref) <= tol * abs(ref), name
        for name, value, ref, scale in zip(moments._fields, moments, ref_moments, size):
            assert abs(value - ref) <= tol * scale, name
        for i, value, ref, scale in zip((0, _PIN_N), rows, ref_rows, row_sizes):
            assert abs(value - ref) <= tol * scale, i


# ---------------------------------- the closed form against its two oracles


def _assert_closed_form_is_the_bordered_solve(n, rtol):
    # the amplitudes within rtol relative (below n = 4, where the bordered
    # solve has one delta per node, the weights).  b0 and d cancel kernel
    # rows near moment(0) ~ 0.02 down to O(h^4), which carries the bordered
    # solve's mu error into its b0 (up to 5.5e-42 relative at n <= 600),
    # so both are compared on the scale of moment(0): measured worst
    # 5.2e-53 of it, at n = 305
    with localcontext(_CONTEXT):
        sol, ref = _exact_solution(n), oracles.bordered_solution(n)
        if n >= 4:
            gap = float(max(abs(a - b) / abs(b) for a, b in zip(sol.amplitudes, ref.amplitudes)))
        else:
            with mp.workdps(DPS):
                gap = float(max(abs(a - b) / abs(b)
                                for a, b in zip(piece_weights(piece_rule(sol)), piece_weights(ref))))
        assert gap <= rtol, (n, gap)
        e = sol.grid.e
        scale = (e + 1 / e - 3) / 4  # moment(0)
        assert max(abs(sol.b0 - ref.b0), abs(sol.d - ref.d)) <= Decimal("1e-50") * scale, n


def test_closed_form_is_the_bordered_solve_up_to_600():
    # measured worst 1.8e-46, the bordered solve's own mu error
    for n in range(1, 601):
        _assert_closed_form_is_the_bordered_solve(n, 1e-45)


@pytest.mark.parametrize("n, rtol", [(10**4, 1.3e-42), (10**6, 7e-37), (10**9, 2.1e-28)])
def test_closed_form_is_the_bordered_solve_on_a_ladder(n, rtol):
    # the bordered solve's mu, from the short-lag kernel values, is 1.24e-42,
    # 6.6e-37 and 2.0e-28 relative off its closed form there, and its
    # amplitudes 0.42 of that off the closed form's
    _assert_closed_form_is_the_bordered_solve(n, rtol)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 16, 513, 10**4, 10**6, 10**9])
def test_mu_is_its_closed_form(n):
    # mu = -s + sqrt(s^2 - 1), s = (h cosh h - sinh h)/(sinh h - h), in
    # 120-digit mpmath; measured worst 1.7e-56, at n = 4 (1.1e-56 at n = 1)
    with localcontext(_CONTEXT):
        mu = _exact_solution(n).layout_sums.mu
    with mp.workdps(120):
        h = mp.mpf(1) / n
        s = (h * mp.cosh(h) - mp.sinh(h)) / (mp.sinh(h) - h)
        ref = -s + mp.sqrt(s * s - 1)
        assert abs(mp.mpf(str(mu)) - ref) <= mp.mpf("1e-54") * abs(ref)


_spline = functools.cache(spline_weights)  # two tests read n <= 64


@pytest.mark.parametrize("ns", [range(1, 129), (513, 10**4)], ids=["1-128", "ladder"])
def test_minimizer_weights_are_the_splines(ns):
    # the natural exponential spline's weights, which share no code with
    # the package: every float64 weight within one ulp of them.  A weight
    # that is the spline's rounded to nearest is within half an ulp; the
    # others measured at most 0.995 ulp off, at n = 513
    for n in ns:
        off = [(x, w) for x, w in zip(minimizer_weights(n)[0], _spline(n)) if x != float(w)]
        with mp.workdps(DPS):
            worst = max((abs(x - w) / math.ulp(float(w)) for x, w in off), default=0)
        assert worst <= 1, (n, worst)


def test_exact_solution_weights_are_the_splines():
    # the 56-digit weights within 1e-45 relative; measured worst 1.0e-50
    for n in range(1, 65):
        with localcontext(_CONTEXT):
            sol = _exact_solution(n)
        with mp.workdps(DPS):
            worst = max(abs(a - b) / abs(b) for a, b in zip(piece_weights(piece_rule(sol)), _spline(n)))
        assert worst <= mp.mpf("1e-45"), (n, worst)


# Route 1 at the two largest grids, from the same closed forms in 80-digit
# mpmath.  Route 1 cancels terms near 1 down to these values, so about 30
# of the working digits are lost at 4e6.
ROUTE1_80_DIGITS = {
    10**6: "1.3888928982657251925069625312827637594747268e-27",
    4 * 10**6: "5.4253511376293131452743464608216237460410755e-30",
}


@pytest.mark.parametrize("n", sorted(ROUTE1_80_DIGITS))
def test_route1_matches_80_digit_values(n):
    # O(1) work; measured 3.0e-30 relative at 10^6 and 7.7e-27 at 4e6.
    # e^(kh) formed as (e^h)^k in the working digits alone is 3e-23 off
    # at 10^6 and 7e-21 at 4e6, so the grid (_grid) takes it in guard digits
    with localcontext(_CONTEXT):
        qf = _route1(_exact_solution(n))
        ref = Decimal(ROUTE1_80_DIGITS[n])
        assert abs(qf - ref) <= Decimal("1e-23") * ref


def test_report_exact_work_does_not_grow_with_n(monkeypatch):
    # every high-precision operation of the report is a closed-form sum:
    # the Python lines that the exact solve and routes and the printed
    # rule's norm run, _grid and every other helper included, are as
    # many at every n on either side of the cap, where an O(n) decimal loop
    # would add lines per node (measured 3552 per report and 1414 for the
    # printed rule's norm alone, at each n)
    lines = []

    def count(frame, event, arg):
        if event == "line":
            lines.append(1)
        return count

    def traced(plain):
        def wrapper(*args):
            outer = sys.gettrace()
            sys.settrace(count)
            try:
                return plain(*args)
            finally:
                sys.settrace(outer)
        return wrapper

    for name in ("_exact_solution", "_route1", "_route2", "_route3", "closed_rule_norm"):
        monkeypatch.setattr(norm, name, traced(getattr(norm, name)))
    for run, ns in ((build_report, (64, 512, DENSE_MAX_N + 1, 100_000)),
                    (norm.closed_rule_norm, (64, 512, 100_000, 10**7))):
        counts = []
        for n in ns:
            lines.clear()
            run(n)
            counts.append(len(lines))
        assert counts[0] > 0
        assert all(abs(count - counts[0]) <= 16 for count in counts), (run, counts)


# ------------------------------------------ the report's O(1) float work


def _assert_window_weights_are_the_numpy_form(sol, n):
    # the Python-float window weights against the numpy array form they
    # replace, on the whole grid up to 2048 and past both end windows above
    # (equal bit patterns: equal float.hex)
    windows, rule = [(0, n)] if n <= 2048 else [(0, 1000), (n - 1000, n)], piece_rule(sol)
    for (first, last), weights in zip(windows, _float_weights_on(sol, windows)):
        np.testing.assert_array_equal(
            np.array(weights).view(np.uint64),
            oracles.float_weights_on(rule, first, last).view(np.uint64), err_msg=f"{n} {first}..{last}")


@functools.cache
def _oracle_weights(n):
    """_exact_solution(n) and the oracle's every float64 weight of it, O(n), once per n.

    The two tests that read both share them.  A ladder grid's array holds
    up to 80 MB, so the weights are kept as their middle one and the
    (index, value) pairs whose bits differ from it, at most a few hundred
    past n = 2048; _solution_and_oracle rebuilds the array bit for bit.
    """
    with localcontext(_CONTEXT):
        sol = _exact_solution(n)
        weights = oracles.float_weights(piece_rule(sol))
    middle = weights[n // 2]
    other = np.flatnonzero(weights.view(np.uint64) != middle.view(np.uint64))
    return sol, middle, other, weights[other]


def _solution_and_oracle(n):
    sol, middle, other, values = _oracle_weights(n)
    weights = np.full(n + 1, middle)
    weights[other] = values
    return sol, weights


def _assert_windowed_deviation_is_the_oracle(ns):
    # the oracle takes every weight of both rules, O(n); the audit reads
    # them on the end windows alone
    for n in ns:
        sol, weights = _solution_and_oracle(n)
        with localcontext(_CONTEXT):
            printed = optimal_coefficients(n).coefficients
            oracle = float(np.max(np.abs(weights - printed))).hex()
            assert _coefficient_max_deviation(sol).hex() == oracle, n
            _assert_window_weights_are_the_numpy_form(sol, n)


LADDER = (3000, 10**4, 12345, 10**5, 654321, 10**6, 4 * 10**6, 10**7)


def test_windowed_deviation_is_the_o_n_one_up_to_2048():
    # both float64 weight sets are float(h) from 30 nodes in (the
    # minimizer's windows; the printed rule's are 4-15 nodes), so the end
    # windows hold the maximum: the same bits at every n, including the
    # grids that fit one window
    _assert_windowed_deviation_is_the_oracle(range(1, 2049))


def test_windowed_deviation_is_the_o_n_one_on_a_ladder():
    _assert_windowed_deviation_is_the_oracle(LADDER)


def test_window_weights_at_a_billion_nodes_are_the_numpy_form():
    # up to 10^7 the tests above pin them; the windows hold every weight
    # that is not h, and 1000 nodes are well past them
    with localcontext(_CONTEXT):
        _assert_window_weights_are_the_numpy_form(_exact_solution(10**9), 10**9)


@pytest.mark.parametrize("ns", [range(1, 2049), LADDER], ids=["1-2048", "ladder"])
def test_minimizer_weights_are_the_oracles_every_weight(ns):
    # minimizer_weights steps the weights out on the end windows only and
    # puts float(h) between them; the oracle steps out every weight, O(n)
    for n in ns:
        c = minimizer_weights(n)[0]
        oracle = _solution_and_oracle(n)[1]
        np.testing.assert_array_equal(np.array(c).view(np.uint64), oracle.view(np.uint64), err_msg=str(n))


@pytest.mark.parametrize("n", [4, 64, 513, 10**4, 10**6, 10**9])
def test_every_layer_is_below_an_eighth_ulp_past_its_window(n):
    # at the first middle node, the first past an end window, each layer
    # of either rule is at most ulp(h)/8, so the two cannot move float(h);
    # evaluated in 60 digits, the printed layers from their float64
    # constants and the minimizer's from its 56-digit amplitudes and mu
    sc = constants(n)
    eh = math.exp(sc.h)
    w = closed_width(sc)
    with localcontext(_CONTEXT):
        sol = _exact_solution(n)
        wm = _window_width(sol)
        _, _, a, b, _ = sol.amplitudes
        mu = sol.layout_sums.mu
    with localcontext(prec=60):
        tiny = Decimal(math.ulp(sc.h)) / 8
        q = Decimal(sc.q)
        printed = [Decimal(sc.k_scaled) * (Decimal(eh) - q), Decimal(sc.k_scaled) * (1 - Decimal(eh) * q)]
        # the printed layers are anchored at 0 and n, the minimizer's at 1 and n - 1
        assert max(abs(start) * q**w for start in printed) <= tiny, (n, w)
        assert max(abs(start) * abs(mu) ** (wm - 1) for start in (a, b)) <= tiny, (n, wm)
    assert wm == 30 and 4 <= w <= 15, (n, w, wm)  # the widths the docs quote


@pytest.mark.parametrize("n", [64, 10**7])
def test_one_exponential_per_grid(monkeypatch, n):
    # every e^(kh) and 1 - e^(bh) of a grid is a power of one wide e^h,
    # the one exponential of _grid (an integer sum, _exp_reciprocal): one
    # grid per rule, the minimizer's and the printed rule's
    made = []
    grid = norm._grid

    def counted(m):
        made.append(m)
        return grid(m)

    monkeypatch.setattr(norm, "_grid", counted)
    build_report(n)
    assert made == [n, n]
    made.clear()
    closed_rule_norm(n)
    assert made == [n]


def test_build_report_allocates_no_o_n_array():
    # at 10^7 one float64 weight array is 80 MB; the report's arrays are
    # its two end windows of about 570 nodes each
    build_report(10**7)  # warm the import-time and first-call caches
    tracemalloc.start()
    try:
        build_report(10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
