"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.

Criterion 1 FAILS because the closed-form weight formulas are genuinely
inconsistent with the stationarity system they are paired with, not because
of a defect in this package.  The gap (6.3e-2 at n=2, decaying to 8.0e-4 at
n=64) is confirmed by 50-digit solves and by an independent
finite-difference variational minimization, both of which side with the
dense solve.  See README.md ("Known inconsistencies of the printed closed
forms").
"""
import math
import time

import numpy as np
import pytest

from optquad.coefficients import constraint_residuals, optimal_coefficients
from optquad.norm import build_report, geometric_sums, norm_theorem2
from optquad.quadrature import TestFunction, apply_rule, convergence_table
from optquad.spectral import constants, lambda1
from optquad.wiener_hopf import solve_uniform

from highprec import lambda1_ref, quadratic_form_ref, theorem2_ref
from oracles import make_rule, norm_quadratic_form, trapezoid_rule


def _line(ok: bool, label: str, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    print(f"{tag}  {label}" + (f"  [{detail}]" if detail else ""))
    return ok


def test_criterion_01_coefficient_oracle_agreement():
    t0 = time.perf_counter()
    worst, worst_n = 0.0, 0
    for n in range(1, 65):
        closed = optimal_coefficients(n).coefficients
        dense = solve_uniform(n).c
        gap = float(np.abs(closed - dense).max())
        if gap > worst:
            worst, worst_n = gap, n
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed <= 10.0
    _line(
        ok,
        "criterion 1: closed form == dense solve to 1e-9 for n=1..64",
        f"max gap {worst:.3e} at n={worst_n}, {elapsed:.2f}s; the printed closed "
        "form does not solve the printed system (independently confirmed)",
    )
    assert elapsed <= 10.0
    assert worst <= 1e-9, (
        f"closed-form weights deviate from the dense-solve minimizer by "
        f"{worst:.3e} (n={worst_n}); the formulas themselves are inconsistent, "
        "see README"
    )


def test_criterion_02_constraint_residuals():
    worst = 0.0
    for n in range(1, 1025):
        r1, r2 = constraint_residuals(optimal_coefficients(n))
        worst = max(worst, r1, r2)
    desk = (0.205357, 0.563292, 0.231349)
    desk_ok = abs(math.fsum(desk) - 1.0) <= 5e-6
    ok = worst <= 1e-12 and desk_ok
    _line(ok, "criterion 2: constraint residuals <= 1e-12 for n=1..1024",
          f"worst {worst:.3e}; desk triple sums to 1 within 5e-6: {desk_ok}")
    assert worst <= 1e-12
    assert desk_ok
    assert np.allclose(optimal_coefficients(2).coefficients, desk, atol=1e-5)


def test_criterion_03_norm_route_agreement():
    worst = 0.0
    for n in range(1, 65):
        rep = build_report(n)
        worst = max(worst, rep.rel_diff_qf_mult)
    rule2 = optimal_coefficients(2)
    value = norm_quadratic_form(rule2)
    ref = float(quadratic_form_ref(rule2.nodes, rule2.coefficients))
    anchor_ok = abs(value - ref) <= 1e-5 and abs(value - 2.75e-4) <= 1e-5
    ok = worst <= 1e-8 and anchor_ok
    _line(ok, "criterion 3: |quadratic form - multiplier form| / value <= 1e-8, n=1..64",
          f"worst {worst:.3e}; n=2 anchor 2.75e-4 ok: {anchor_ok}")
    assert worst <= 1e-8
    assert anchor_ok


def test_criterion_04_exactness_on_annihilated_span():
    rng = np.random.default_rng(20240917)
    pairs = rng.uniform(-10.0, 10.0, size=(100, 2))
    worst = 0.0
    for n in range(1, 65):
        rule = optimal_coefficients(n)
        for a, b in pairs:
            f = TestFunction(
                "affine", lambda x, a=a, b=b: a + b * np.exp(-np.asarray(x, dtype=float)),
                a - b * math.expm1(-1.0), 0.0,
            )
            err = abs(apply_rule(rule, f) - f.exact_integral)
            worst = max(worst, err / (abs(a) + abs(b)))
    ok = worst <= 1e-11
    _line(ok, "criterion 4: exact on a + b e^(-x) to 1e-11 (|a|+|b|), n=1..64",
          f"worst scaled error {worst:.3e}")
    assert ok


def test_criterion_05_optimality_witness_n2():
    v_closed = norm_quadratic_form(optimal_coefficients(2))
    v_trap = norm_quadratic_form(trapezoid_rule(2))
    values_ok = (
        v_closed < v_trap
        and abs(v_closed - 2.75e-4) <= 1e-5
        and abs(v_trap - 5.92e-4) <= 1e-5
    )

    # perturbation witness at the constrained minimizer (the system's solution)
    sol = solve_uniform(2)
    rule = make_rule(sol.nodes, sol.c)
    base = norm_quadratic_form(rule)
    rng = np.random.default_rng(20240917)
    cons = np.stack([np.ones(3), np.exp(-rule.nodes)])
    basis, _ = np.linalg.qr(cons.T)
    increased = 0
    tried = 0
    while tried < 100:
        v = rng.standard_normal(3)
        v -= basis @ (basis.T @ v)  # constraint-tangent direction
        norm_v = float(np.linalg.norm(v))
        if norm_v < 1e-12:
            continue
        tried += 1
        v /= norm_v
        probe = make_rule(rule.nodes, rule.coefficients + 1e-3 * v)
        if norm_quadratic_form(probe) > base:
            increased += 1
    witness_ok = increased == 100

    # informational: the printed closed-form weights admit a descent
    # direction, so they are not the minimizer the witness certifies
    closed = optimal_coefficients(2)
    towards_dense = rule.coefficients - closed.coefficients
    descent = norm_quadratic_form(
        make_rule(closed.nodes, closed.coefficients + 1e-3 * towards_dense)
    ) < v_closed

    ok = values_ok and witness_ok
    _line(ok, "criterion 5: optimal 2.75e-4 < trapezoid 5.92e-4; 100 tangent "
              "perturbations all increase the form at the minimizer",
          f"increased {increased}/100; closed-form rule has a descent direction: {descent}")
    assert values_ok
    assert witness_ok


def test_criterion_06_convergence_behavior():
    rows = convergence_table([2, 4, 8, 16, 32, 64])
    decreasing = all(b.norm_sq < a.norm_sq for a, b in zip(rows, rows[1:]))
    ratios_ok = all(r.ratio <= 0.25 for r in rows[1:])
    orders = [round(r.order_estimate, 3) for r in rows[1:]]
    ok = decreasing and ratios_ok
    _line(ok, "criterion 6: norm^2 strictly decreasing, per-doubling ratio <= 0.25",
          f"measured orders {orders} (expected near 4, logged only)")
    assert decreasing
    assert ratios_ok


def test_criterion_07_theorem2_verdict():
    value = norm_theorem2(2)
    ref = float(theorem2_ref(2))
    verbatim_ok = abs(value - ref) / abs(ref) <= 0.01 and abs(value - 11.70) <= 0.01 * 11.70
    rep = build_report(2)
    verdict_ok = rep.verdict == "theorem2_discrepant"
    ok = verbatim_ok and verdict_ok
    _line(ok, "criterion 7: printed theorem-2 value ~ 11.70 at n=2, classified discrepant",
          f"value {value:.6f}, 50-digit ref {ref:.6f}, verdict {rep.verdict}")
    assert verbatim_ok
    assert verdict_ok


def test_criterion_08_stability_at_scale():
    n = 10**6
    t0 = time.perf_counter()
    rule = optimal_coefficients(n)
    sc = constants(n)
    eh = math.exp(sc.h)
    c = rule.coefficients
    finite = bool(np.all(np.isfinite(c)))
    qp = np.power(sc.q, np.arange(n + 1, dtype=float))
    qmin = np.maximum(qp[1:n], qp[n - 1:0:-1])  # q^min(b, n-b) == max of the two powers
    bound = abs(sc.k_scaled) * (abs(1.0 - eh * sc.q) + abs(eh - sc.q)) * qmin
    decay_ok = bool(np.all(np.abs(c[1:n] - sc.h) <= bound * (1 + 1e-12) + 1e-300))
    elapsed = time.perf_counter() - t0
    ok = finite and decay_ok and elapsed <= 5.0
    _line(ok, "criterion 8: n=1e6 weights finite with geometric interior decay",
          f"finite {finite}, decay bound {decay_ok}, {elapsed:.2f}s")
    assert finite
    assert decay_ok
    assert elapsed <= 5.0


def test_criterion_09_geometric_sum_identities():
    rng = np.random.default_rng(20240917)
    worst = 0.0
    count = 0
    while count < 1000:
        lam = float(rng.uniform(-0.9, 0.9))
        if lam == 0.0:
            continue
        n = int(rng.integers(2, 51))
        count += 1
        s1, s2 = geometric_sums(lam, n)
        b1 = math.fsum(lam**g * g for g in range(1, n))
        b2 = math.fsum(lam**g * g * g for g in range(1, n))
        worst = max(
            worst,
            abs(s1 - b1) / max(abs(b1), 1e-300),
            abs(s2 - b2) / max(abs(b2), 1e-300),
        )
    ok = worst <= 1e-12
    _line(ok, "criterion 9: geometric-sum closed forms match brute force (1000 draws)",
          f"worst rel {worst:.3e}")
    assert ok


def test_criterion_10_lambda1_cancellation_control():
    worst = 0.0
    for k in range(0, 11):
        h = 1.0 / 2**k
        ref = float(lambda1_ref(h))
        worst = max(worst, abs(lambda1(h) - ref) / ref)
    anchors_ok = (
        abs(lambda1(1.0) - 3.7149) <= 1e-4
        and abs(lambda1(0.5) - 7.7793) <= 1e-3
        and abs(lambda1(0.1) - 41.5) <= 0.2
    )
    ok = worst <= 1e-9 and anchors_ok
    _line(ok, "criterion 10: lambda1 matches 50-digit reference to 1e-9 on dyadic h",
          f"worst rel {worst:.3e}; desk anchors ok: {anchors_ok}")
    assert worst <= 1e-9
    assert anchors_ok
