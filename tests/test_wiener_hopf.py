import json
import math
from decimal import localcontext

import mpmath as mp
import numpy as np
import pytest

from optquad.coefficients import constraint_residuals, optimal_coefficients
from optquad.kernel import moment, psi
from optquad.norm import _CONTEXT, _exact_solution
from optquad.cli import main
from optquad.norm import minimizer_weights
from optquad.spectral import DENSE_MAX_N
from optquad.wiener_hopf import solve_uniform

from highprec import DPS, moment_ref, mp_grid, piece_weights, psi2_ref, psi2_rows
from oracles import (
    SingularSystemError,
    _equilibrated_solve,
    build_system,
    filter_band,
    make_rule,
    piece_rule,
    solve_dense,
)

# Frozen 50-digit dense solution of the uniform 3-node system.
DENSE_C_N2 = [0.18147809599809316, 0.62654229512702072, 0.19197960887488613]
DENSE_B0_N2 = -0.00043043972139265708
DENSE_D_N2 = -0.0014553217462896086


def test_build_system_structure():
    nodes = np.array([0.0, 0.5, 1.0])
    m, rhs = build_system(nodes)
    assert m.shape == (5, 5) and rhs.shape == (5,)
    assert np.all(np.diag(m)[:3] == 0.0)  # kernel vanishes at zero lag
    assert m[0, 2] == psi(2, 1.0)
    assert np.allclose(m[:3, :3], m[:3, :3].T)  # even kernel -> symmetric block
    assert rhs[0] == moment(0.0)
    assert rhs[3] == 1.0
    assert rhs[4] == pytest.approx(1.0 - math.exp(-1.0), rel=1e-15)
    assert np.all(m[:3, 3] == 1.0)
    assert np.allclose(m[:3, 4], np.exp(-nodes))


def test_build_system_validation():
    with pytest.raises(ValueError):
        build_system([0.5])
    with pytest.raises(ValueError):
        build_system([0.0, 0.5, 0.5, 1.0])
    with pytest.raises(ValueError):
        build_system([0.2, 0.1])
    with pytest.raises(ValueError):
        build_system([-0.1, 0.5])
    with pytest.raises(ValueError):
        build_system([0.5, 1.5])


def test_uniform_n1_constraint_determined():
    sol = solve_uniform(1)
    e = math.e
    assert sol.c[0] == pytest.approx((e - 2) / (e - 1), rel=1e-12)
    assert sol.c[1] == pytest.approx(1 / (e - 1), rel=1e-12)


def test_uniform_n2_frozen_solution():
    sol = solve_uniform(2)
    assert np.allclose(sol.c, DENSE_C_N2, rtol=1e-10)
    assert sol.b0 == pytest.approx(DENSE_B0_N2, rel=1e-9)
    assert sol.d == pytest.approx(DENSE_D_N2, rel=1e-9)
    assert sol.residual_inf <= 1e-10


def test_residual_invariant_across_sizes():
    for n in (1, 2, 5, 16, 64):
        sol = solve_uniform(n)
        assert sol.residual_inf <= 1e-10, n


def test_residual_inf_covers_the_printed_constraint_residuals():
    # residual_inf takes its constraint rows from constraint_residuals, the
    # values the solution carries for `coeffs` to print beside it, so it is
    # never below either of them
    for n in range(1, DENSE_MAX_N + 1):
        sol = solve_uniform(n)
        r1, r2 = constraint_residuals(make_rule(sol.nodes, sol.c))
        assert (sol.residual_constraint_sum, sol.residual_constraint_exp_neg) == (r1, r2), n
        assert sol.residual_inf >= max(r1, r2), (n, sol.residual_inf, r1, r2)


def test_residual_inf_is_not_an_uncompensated_sums_rounding():
    # at n = 333 both compensated constraint residuals are 0.0 and the
    # worst kernel row is 5 * 2^-58; the float64 c.sum() lands 2^-52 off 1
    sol = solve_uniform(333)
    assert constraint_residuals(make_rule(sol.nodes, sol.c)) == (0.0, 0.0)
    assert sol.residual_inf == 1.734723475976807e-17


def test_solution_satisfies_constraints_for_arbitrary_nodes():
    rng = np.random.default_rng(7)
    for _ in range(5):
        interior = np.sort(rng.uniform(0.05, 0.95, size=6))
        nodes = np.concatenate([[0.0], interior, [1.0]])
        sol = solve_dense(nodes)
        assert abs(math.fsum(sol.c) - 1.0) <= 1e-11
        assert abs(math.fsum(sol.c * np.exp(-nodes)) - (1 - math.exp(-1))) <= 1e-11


def test_multiplier_rows_close():
    # substituting (C, b0, d) back into each kernel row
    nodes = np.array([0.0, 0.25, 0.6, 1.0])
    sol = solve_dense(nodes)
    rows = psi(2, nodes[:, None] - nodes[None, :]) @ sol.c + sol.b0 + sol.d * np.exp(-nodes)
    assert np.abs(rows - moment(nodes)).max() <= 1e-10


def test_dense_solution_differs_from_closed_form():
    # the printed closed form does NOT solve this system; the gap is real
    # and shrinks with n but never reaches solver precision
    for n, expected_gap in ((2, 0.063257), (4, 0.020120), (8, 0.0070035)):
        sol = solve_uniform(n)
        closed = optimal_coefficients(n).coefficients
        gap = float(np.abs(sol.c - closed).max())
        assert gap == pytest.approx(expected_gap, rel=1e-3)


def test_asymmetry_matches_closed_form_direction():
    for n in range(1, 33):
        sol = solve_uniform(n)
        assert sol.c[-1] > sol.c[0], n


def test_filter_leaves_the_band():
    # 50 digits at n = 16: the filter applied to kernel rows i-2 .. i+2
    # leaves g1, g0, g1 around column i and nothing else, removes both
    # multiplier columns and turns the moments into (g0 + 2 g1) h
    n = 16
    with mp.workdps(DPS):
        h = mp.mpf(1) / n
        a = 2 * mp.cosh(h)
        taps = [1, -(a + 2), 2 * a + 2, -(a + 2), 1]
        lag = [psi2_ref(k * h) for k in range(n + 1)]
        g0, g1 = filter_band(lag[1], lag[2], lag[3], a)
        tiny = mp.mpf("1e-40")
        for i in range(2, n - 1):
            rows = range(i - 2, i + 3)
            for j in range(n + 1):
                band = {0: g0, 1: g1}.get(abs(i - j), 0)
                assert abs(mp.fsum(t * lag[abs(r - j)] for t, r in zip(taps, rows)) - band) <= tiny
            assert abs(mp.fsum(t * mp.exp(-r * h) for t, r in zip(taps, rows))) <= tiny
            filtered_moment = mp.fsum(t * moment_ref(r * h) for t, r in zip(taps, rows))
            assert abs(filtered_moment - (g0 + 2 * g1) * h) <= tiny
        assert abs(mp.fsum(taps)) <= tiny


def test_solve_uniform_is_closer_to_the_minimizer_than_the_dense_solve():
    # the 56-digit exact minimizer as reference; measured worst 2.2e-16
    # relative (one eps, at n = 9) for solve_uniform, its weights stepped out
    # in float64, against 3.6e-5 for LAPACK at n = 513
    for n in [*range(1, 33), 64, 127, 128, 255, 256, 383, 511, 512, 513]:
        with localcontext(_CONTEXT):
            sol = _exact_solution(n)
        with mp.workdps(DPS):
            ref = piece_weights(piece_rule(sol)).astype(float)
        scale = np.abs(ref).max()
        err = np.abs(solve_uniform(n).c - ref).max() / scale
        dense = np.abs(solve_dense(np.linspace(0.0, 1.0, n + 1)).c - ref).max() / scale
        assert err <= 4 * np.finfo(float).eps, n
        assert err <= max(dense, 8 * np.finfo(float).eps), n


@pytest.mark.parametrize("n", [2, 16, 513])
def test_coeffs_system_multipliers_match_60_digits(capsys, n):
    # b0 and d from kernel rows 0 and n, in 60-digit mpmath on the exact
    # solution's weights: row i reads psi rows + b0 + d e^(-x_i) = moment(x_i).
    # Measured worst 6.0e-17 relative, at n = 16: the float64 rounding
    assert main(["coeffs", "--method", "system", "--n", str(n)]) == 0
    printed = json.loads(capsys.readouterr().out)
    with localcontext(_CONTEXT):
        sol = _exact_solution(n)
    with mp.workdps(60):
        x, ep, en, m = mp_grid(n)
        rows = psi2_rows(x, ep, en, piece_weights(piece_rule(sol)))
        lhs0, lhsn = m[0] - rows[0], m[n] - rows[n]
        d = (lhs0 - lhsn) / (1 - en[n])
        b0 = lhs0 - d
        for name, ref in (("b0", b0), ("d", d)):
            assert abs(printed[name] - ref) <= 1e-15 * abs(ref), (name, printed[name], ref)


def test_singular_matrix_raises():
    # the equilibrated LAPACK solve behind the dense oracle
    m = np.zeros((4, 4))
    with pytest.raises(SingularSystemError):
        _equilibrated_solve(m, np.zeros(4))
    m = np.eye(4)
    m[2, 2] = 0.0
    m[2, 3] = 0.0
    m[3, 2] = 0.0
    with pytest.raises(SingularSystemError):
        _equilibrated_solve(m, np.ones(4))
    # no zero row: exactly singular, then singular to working precision
    for m in ([[1.0, 1.0], [1.0, 1.0]], [[1.0, 1.0], [1.0, 1.0 + 2.0**-52]]):
        with pytest.raises(SingularSystemError):
            _equilibrated_solve(np.array(m), np.ones(2))


def test_solve_uniform_cap():
    for n in (0, DENSE_MAX_N + 1):
        with pytest.raises(ValueError):
            solve_uniform(n)


def test_solve_weights_is_solve_uniform_without_the_residual():
    # minimizer_weights is the same solve bit for bit; only the residual is
    # left out
    for n in range(1, DENSE_MAX_N + 1):
        c, b0, d = minimizer_weights(n)
        sol = solve_uniform(n)
        np.testing.assert_array_equal(c, sol.c, err_msg=str(n))
        assert (b0, d) == (sol.b0, sol.d), n


def test_solve_uniform_returns_the_nodes_it_solved_on():
    # k/n, correctly rounded; linspace differs from it in the last bit at n = 5
    for n in range(1, DENSE_MAX_N + 1):
        sol = solve_uniform(n)
        np.testing.assert_array_equal(sol.nodes, np.arange(n + 1) / n, err_msg=str(n))
