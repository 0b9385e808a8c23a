"""Four independent evaluations of the squared error-functional norm.

Routes, in decreasing order of independence:

  1. quadratic form        sum_bb' C C' psi_2(x_b - x_b')
                           - 2 sum_b C moment(x_b) + double_moment
                           -- meaningful for ANY rule; the ground truth.
  2. multiplier form       -sum_b C (b0 + d e^(-x_b)) - sum_b C moment(x_b)
                           + double_moment
                           -- equals route 1 exactly when (C, b0, d) solve
                           the stationarity system.
  3. expanded form         the multiplier form with the moment integral
                           written out through sum C e^(+x), sum C x,
                           sum C x^2 and the two constraints.
  4. theorem-2 closed form a printed closed expression in h, lambda1, K --
                           implemented verbatim (in overflow-safe q powers)
                           as a formula under test, never as an oracle.

`build_report` evaluates all four and classifies the outcome.  Routes 1-3
are compared on the dense-solve solution (the one object for which the
2->1 and 3->1 reductions are mathematically valid); because the compared
values decay like h^4 while any double-stored solution carries residuals
around 1e-17, the report refines the dense solution and evaluates the three
routes in 40-digit arithmetic, then rounds the results.  The double
precision entry points below stay pure float64.

The printed theorem-2 expression disagrees with route 1 by several orders of
magnitude (its h-block diverges like 3/h^2 as the grid refines); the report
measures and classifies that discrepancy, it does not repair the formula.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import mpmath as mp
import numpy as np

from .coefficients import QuadratureRule, make_rule, optimal_coefficients
from .kernel import double_moment, moment, psi
from .spectral import constants, pow_q
from .wiener_hopf import DENSE_MAX_N, build_system, solve_dense, solve_uniform

__all__ = [
    "InconsistentMultipliersError",
    "MultiplierPair",
    "NormReport",
    "build_report",
    "dense_multipliers",
    "geometric_sums",
    "multiplier_routes",
    "multipliers_closed_form",
    "norm_expanded",
    "norm_quadratic_form",
    "norm_theorem2",
    "norm_via_multipliers",
]

# Verdict threshold on the symmetric relative differences.
CONSISTENCY_RTOL = 1e-6

# Multiplier-based routes require the inputs to actually solve the system.
MULTIPLIER_RESIDUAL_TOL = 1e-8

_TINY = 1e-300
_MP_DPS = 40


class InconsistentMultipliersError(ValueError):
    """(rule, multipliers) do not satisfy the stationarity system."""


@dataclass(frozen=True)
class MultiplierPair:
    """Lagrange multipliers d and b0, plus the derived amplitudes a1, b1.

    a1 = K (e^h - lambda1) and b1 = K (1 - lambda1 e^h); stored in the
    overflow-safe forms a1 = -Kscaled (1 - e^h q) q^N and
    b1 = -Kscaled (e^h - q) q^N.
    """

    d: float
    b0: float
    a1: float
    b1: float


@dataclass(frozen=True)
class NormReport:
    n: int
    h: float
    via_quadratic_form: float
    via_multipliers: float
    via_expanded: float
    via_theorem2: float
    rel_diff_qf_mult: float
    rel_diff_qf_expanded: float
    rel_diff_qf_thm2: float
    verdict: str
    multiplier_source: str
    closed_rule_quadratic_form: float
    coefficient_max_deviation: Optional[float]


def _rel_diff(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), _TINY)


def _verdict(d_mult: float, d_expanded: float, d_thm2: float) -> str:
    if d_mult <= CONSISTENCY_RTOL and d_expanded <= CONSISTENCY_RTOL:
        if d_thm2 <= CONSISTENCY_RTOL:
            return "consistent"
        return "theorem2_discrepant"
    return "inconsistent"


# ----------------------------------------------------------------- route 1


def norm_quadratic_form(rule: QuadratureRule) -> float:
    """Squared norm via the kernel quadratic form; O(count^2), compensated.

    math.fsum over the complete term list makes the result the correctly
    rounded sum of the computed terms, hence independent of term order.
    """
    x = rule.nodes
    c = rule.coefficients
    kernel_terms = (c[:, None] * c[None, :] * psi(2, x[:, None] - x[None, :])).ravel()
    moment_terms = -2.0 * c * moment(x)
    return math.fsum(np.concatenate([kernel_terms, moment_terms, [double_moment()]]))


# ----------------------------------------------------------- routes 2 and 3


def _system_residual_inf(rule: QuadratureRule, mult: MultiplierPair) -> float:
    x = rule.nodes
    c = rule.coefficients
    rows = psi(2, x[:, None] - x[None, :]) @ c + mult.b0 + mult.d * np.exp(-x) - moment(x)
    r_sum = math.fsum(c) - 1.0
    r_exp = math.fsum(c * np.exp(-x)) + math.expm1(-1.0)
    return max(float(np.abs(rows).max()), abs(r_sum), abs(r_exp))


def _check_multipliers(rule: QuadratureRule, mult: MultiplierPair) -> None:
    resid = _system_residual_inf(rule, mult)
    if resid > MULTIPLIER_RESIDUAL_TOL:
        raise InconsistentMultipliersError(
            f"(rule, multipliers) leave a system residual of {resid:.3e} "
            f"(tolerance {MULTIPLIER_RESIDUAL_TOL}); the multiplier-based norm "
            "routes are only valid at an actual solution"
        )


def _multiplier_form_value(rule: QuadratureRule, mult: MultiplierPair) -> float:
    x = rule.nodes
    c = rule.coefficients
    terms = np.concatenate([
        -c * (mult.b0 + mult.d * np.exp(-x)),
        -c * moment(x),
        [double_moment()],
    ])
    return math.fsum(terms)


def norm_via_multipliers(rule: QuadratureRule, mult: MultiplierPair) -> float:
    """Squared norm via the Lagrange multipliers; requires a solving pair."""
    _check_multipliers(rule, mult)
    return _multiplier_form_value(rule, mult)


def _expanded_form_value(rule: QuadratureRule, mult: MultiplierPair) -> float:
    x = rule.nodes
    c = rule.coefficients
    e = math.e
    s_exp = math.fsum(c * np.exp(x))
    s_x2 = math.fsum(c * x * x)
    s_x = math.fsum(c * x)
    return math.fsum([
        -mult.b0,
        (1.0 - e) / e * mult.d,
        -(e + 1.0) / (4.0 * e) * s_exp,
        -(1.0 + e) / 4.0 * (1.0 - math.exp(-1.0)),
        1.25,
        0.5 * s_x2,
        -0.5 * s_x,
        (e * e - 1.0) / (2.0 * e) - 7.0 / 6.0,
    ])


def norm_expanded(rule: QuadratureRule, mult: MultiplierPair) -> float:
    """Squared norm via the expanded multiplier identity, exactly as printed."""
    _check_multipliers(rule, mult)
    return _expanded_form_value(rule, mult)


# ----------------------------------------------------------------- route 4


def norm_theorem2(n: int) -> float:
    """The printed closed-form expression, verbatim, in q-safe arithmetic.

    Every lambda1 power is paired with the q^(N+1) hidden inside K so that
    only nonnegative powers of q = 1/lambda1 are evaluated.  The rewrites
    used below are exact algebraic identities, term by term:

      K = Kscaled q^(N+1)
      q^(N+1) (lam^N + lam^2)      = q + q^(N-1)
      q^(N+1) (lam^(N+1) + lam)    = 1 + q^N
      1 / (1 - lam)                = -q / (1 - q)
      (lam^2 + lam) / (1 - lam)^2  = (1 + q) / (1 - q)^2
      q^(N+1) (lam^N - 1)          = q (1 - q^N) / ... paired as q - q^(N+1)
      lam - e^h                    = (1 - e^h q) / q        =: a/q
      1 - lam e^h                  = -(e^h - q) / q         =: -b/q
      q^(N+1) (lam^N - lam e^h)    = q - e^h q^N
      q^(N+1) (lam - lam^N e^h)    = q^N - e^h q
    """
    sc = constants(n)
    h, q, ks = sc.h, sc.q, sc.k_scaled
    eh = math.exp(h)
    em1 = math.expm1(h)
    qn = pow_q(q, n)

    lead = h * h / 12.0
    # the printed h-block; note (1 - e^h)^2 = expm1(h)^2
    h_block = (h * (2.0 - eh - 3.0 * eh * eh) + 4.0 + 2.0 * eh + 6.0 * eh * eh) / (
        4.0 * em1 * em1
    )

    # K [(lam^N + lam^2)(1+e^h) - (lam^(N+1) + lam)(1+2e^h)] / (2 (1-lam))
    t1 = (
        -ks
        * q
        * ((q + pow_q(q, n - 1)) * (1.0 + eh) - (1.0 + qn) * (1.0 + 2.0 * eh))
        / (2.0 * (1.0 - q))
    )
    # K h^2 (lam^2 + lam)(lam^N - 1)(1 + e^h) / (2 (1-lam)^2)
    t2 = ks * h * h * q * (1.0 + q) * (1.0 - qn) * (1.0 + eh) / (2.0 * (1.0 - q) ** 2)
    # K [(lam-e^h)^2 (lam^N - lam e^h) - (1-lam e^h)^2 (lam - lam^N e^h)]
    #   / (2 (1-lam e^h)(lam-e^h))
    a = 1.0 - eh * q
    b = eh - q
    t3 = ks * (b * b * (qn - eh * q) - a * a * (q - eh * qn)) / (2.0 * a * b)

    return lead + h_block + t1 + t2 + t3


# ------------------------------------------------------- closed multipliers


def multipliers_closed_form(n: int) -> MultiplierPair:
    """The printed closed forms for d and b0, in q-safe arithmetic.

    Exact rewrites (a = 1 - e^h q, b = e^h - q):

      a1 = K (e^h - lam)           = -Kscaled a q^N
      b1 = K (1 - lam e^h)        = -Kscaled b q^N
      a1 lam e^h / (1 - lam e^h)  =  Kscaled a q^N e^h / b
      b1 lam^N e^h / (lam - e^h)  = -Kscaled b q   e^h / a
      h a1 lam / (1 - lam)^2      = -h Kscaled a q^(N+1) / (1-q)^2
      h b1 lam^(N+1) / (1-lam)^2  = -h Kscaled b q       / (1-q)^2

    The d value produced by the printed formula does not reproduce the
    dense-solve multiplier (the b0 value does); callers compare, they must
    not assume equality.
    """
    sc = constants(n)
    rule = optimal_coefficients(n)
    h, q, ks = sc.h, sc.q, sc.k_scaled
    eh = math.exp(h)
    em1 = math.expm1(h)
    e = math.e
    qn = pow_q(q, n)
    a = 1.0 - eh * q
    b = eh - q
    a1 = -ks * a * qn
    b1 = -ks * b * qn

    c = rule.coefficients
    x = rule.nodes
    s_exp = math.fsum(c * np.exp(x))
    s_x = math.fsum(c * x)

    # h e^h / (1 - e^h) = -h e^h / expm1(h)
    d = (
        c[0] / 2.0
        + 0.5 * (-h * eh / em1 + ks * a * qn * eh / b - ks * b * q * eh / a)
        - s_exp / 4.0
        + (1.0 + e) / 4.0
    )
    # h (1 + e^h) / (2 (1 - e^h)) = -h (1 + e^h) / (2 expm1(h))
    minus_b0 = (
        -h * (1.0 + eh) / (2.0 * em1)
        - h * ks * (a * pow_q(q, n + 1) + b * q) / (1.0 - q) ** 2
        - s_x / 2.0
        + 1.25
    )
    return MultiplierPair(d=d, b0=-minus_b0, a1=a1, b1=b1)


# --------------------------------------------------------- geometric sums


def geometric_sums(lam: float, n: int) -> tuple[float, float]:
    """Closed forms for sum_{g=1}^{N-1} lam^g g and sum lam^g g^2.

    Production callers pass |lam| < 1 (powers of q), for which lam^(N+1) is
    always representable.
    """
    if lam == 1.0:
        raise ValueError("the closed forms are singular at lam = 1")
    if n < 2:
        raise ValueError("need n >= 2 so the summation range 1..n-1 is nonempty")
    lam = float(lam)
    ln = lam**n
    one = 1.0 - lam
    s1 = (lam - ln * lam - n * ln * one) / (one * one)
    cube = (lam - 1.0) ** 3
    s2 = (ln * (lam * lam + lam + n * n * one * one + 2.0 * n * (lam - lam * lam))) / cube - (
        lam * lam + lam
    ) / cube
    return s1, s2


def dense_multipliers(n: int) -> tuple[QuadratureRule, MultiplierPair]:
    """Solve the uniform system and package its rule and multipliers.

    The a1/b1 amplitudes are not unknowns of the linear system; they are
    filled in from their closed forms for reporting.  solve_uniform enforces
    the DENSE_MAX_N cap.
    """
    sol = solve_uniform(n)
    sc = constants(n)
    qn = pow_q(sc.q, n)
    eh = math.exp(sc.h)
    a1 = -sc.k_scaled * (1.0 - eh * sc.q) * qn
    b1 = -sc.k_scaled * (eh - sc.q) * qn
    rule = make_rule(sol.nodes, sol.c)
    return rule, MultiplierPair(d=sol.d, b0=sol.b0, a1=a1, b1=b1)


def multiplier_routes(n: int) -> tuple[str, float, float]:
    """Routes 2 and 3 in float64, with the source of their multipliers.

    For n <= DENSE_MAX_N the dense solution supplies the rule and the
    multipliers ("dense_solve"); above the cap the printed closed-form
    weights and multipliers are inserted verbatim ("closed_form").  Neither
    is rechecked against the system, unlike norm_via_multipliers and
    norm_expanded.  Returns (multiplier_source, via_multipliers,
    via_expanded).
    """
    if n <= DENSE_MAX_N:
        rule, pair = dense_multipliers(n)
        source = "dense_solve"
    else:
        rule, pair = optimal_coefficients(n), multipliers_closed_form(n)
        source = "closed_form"
    return source, _multiplier_form_value(rule, pair), _expanded_form_value(rule, pair)


# ------------------------------------------------------------- the report


def _mp_psi2(x):
    return mp.sign(x) / 2 * (mp.sinh(x) - x)


def _mp_moment(y):
    return (mp.e**y + mp.e**-y + mp.e ** (1 - y) + mp.e ** (y - 1) - 4) / 4 - (
        y * y + (1 - y) * (1 - y)
    ) / 4


def _mp_double_moment():
    return (mp.e**2 - 1) / (2 * mp.e) - mp.mpf(7) / 6


def _refined_uniform_solution(n: int):
    """Dense solution of the exact uniform-grid system, with mp refinement.

    The float64 solve seeds two rounds of iterative refinement whose
    residuals are computed in mp arithmetic against the exact-rational-node
    system, leaving a true residual far below double precision.  Returns
    (h, psi_k, moment_k, expneg_k, c, b0, d) with mp scalars/lists.
    """
    seed = solve_uniform(n)
    matrix_f, _ = build_system(np.linspace(0.0, 1.0, n + 1))
    h = mp.mpf(1) / n
    psi_k = [_mp_psi2(k * h) for k in range(n + 1)]
    m_k = [_mp_moment(k * h) for k in range(n + 1)]
    en_k = [mp.e ** (-k * h) for k in range(n + 1)]
    c = [mp.mpf(float(v)) for v in seed.c]
    b0 = mp.mpf(seed.b0)
    d = mp.mpf(seed.d)
    target_exp = 1 - mp.e**-1
    for _ in range(2):
        rows = [
            m_k[i] - mp.fsum(psi_k[abs(i - j)] * c[j] for j in range(n + 1)) - b0 - d * en_k[i]
            for i in range(n + 1)
        ]
        rows.append(1 - mp.fsum(c))
        rows.append(target_exp - mp.fsum(c[j] * en_k[j] for j in range(n + 1)))
        r = np.array([float(v) for v in rows])
        delta = solve_dense(matrix_f, r)
        c = [c[j] + mp.mpf(float(delta.c[j])) for j in range(n + 1)]
        b0 += mp.mpf(delta.b0)
        d += mp.mpf(delta.d)
    return h, psi_k, m_k, en_k, c, b0, d


def _mp_routes(n, h, psi_k, m_k, en_k, c, b0, d):
    """Routes 1-3 evaluated in mp on the refined dense solution."""
    dm = _mp_double_moment()
    s_moment = mp.fsum(c[i] * m_k[i] for i in range(n + 1))
    qf = (
        mp.fsum(c[i] * c[j] * psi_k[abs(i - j)] for i in range(n + 1) for j in range(n + 1))
        - 2 * s_moment
        + dm
    )
    mult = -mp.fsum(c[i] * (b0 + d * en_k[i]) for i in range(n + 1)) - s_moment + dm
    e = mp.e
    s_exp = mp.fsum(c[i] * e ** (i * h) for i in range(n + 1))
    s_x2 = mp.fsum(c[i] * (i * h) ** 2 for i in range(n + 1))
    s_x = mp.fsum(c[i] * (i * h) for i in range(n + 1))
    expanded = (
        -b0
        + (1 - e) / e * d
        - (e + 1) / (4 * e) * s_exp
        - (1 + e) / 4 * (1 - e**-1)
        + mp.mpf(5) / 4
        + s_x2 / 2
        - s_x / 2
        + (e**2 - 1) / (2 * e)
        - mp.mpf(7) / 6
    )
    tiny = mp.mpf("1e-300")
    d_mult = abs(qf - mult) / max(abs(qf), abs(mult), tiny)
    d_exp = abs(qf - expanded) / max(abs(qf), abs(expanded), tiny)
    return float(qf), float(mult), float(expanded), float(d_mult), float(d_exp)


def build_report(n: int) -> NormReport:
    """Evaluate all four routes and classify their agreement.

    For n <= DENSE_MAX_N the three reduction routes are compared on the
    refined dense solution; above the cap the dense oracle is skipped and
    routes 2 and 3 come from multiplier_routes on the printed closed forms
    (multiplier_source = "closed_form", coefficient_max_deviation = None).
    """
    if n < 1:
        raise ValueError("grid size must be >= 1")
    closed_rule = optimal_coefficients(n)
    closed_qf = norm_quadratic_form(closed_rule)
    thm2 = norm_theorem2(n)

    if n <= DENSE_MAX_N:
        with mp.workdps(_MP_DPS):
            h, psi_k, m_k, en_k, c, b0, d = _refined_uniform_solution(n)
            qf, mult, expanded, d_mult, d_exp = _mp_routes(n, h, psi_k, m_k, en_k, c, b0, d)
            dev = float(max(abs(c[i] - mp.mpf(float(closed_rule.coefficients[i]))) for i in range(n + 1)))
        source = "dense_solve"
    else:
        source, mult, expanded = multiplier_routes(n)
        qf = closed_qf
        d_mult = _rel_diff(qf, mult)
        d_exp = _rel_diff(qf, expanded)
        dev = None

    d_thm2 = _rel_diff(qf, thm2)
    return NormReport(
        n=n,
        h=1.0 / n,
        via_quadratic_form=qf,
        via_multipliers=mult,
        via_expanded=expanded,
        via_theorem2=thm2,
        rel_diff_qf_mult=d_mult,
        rel_diff_qf_expanded=d_exp,
        rel_diff_qf_thm2=d_thm2,
        verdict=_verdict(d_mult, d_exp, d_thm2),
        multiplier_source=source,
        closed_rule_quadratic_form=closed_qf,
        coefficient_max_deviation=dev,
    )
