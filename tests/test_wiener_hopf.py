import math

import numpy as np
import pytest

from optquad.coefficients import optimal_coefficients
from optquad.kernel import moment, psi
from optquad.wiener_hopf import (
    SingularSystemError,
    build_system,
    solve_dense,
    solve_for_nodes,
    solve_uniform,
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


def test_solution_satisfies_constraints_for_arbitrary_nodes():
    rng = np.random.default_rng(7)
    for _ in range(5):
        interior = np.sort(rng.uniform(0.05, 0.95, size=6))
        nodes = np.concatenate([[0.0], interior, [1.0]])
        sol = solve_for_nodes(nodes)
        assert abs(math.fsum(sol.c) - 1.0) <= 1e-11
        assert abs(math.fsum(sol.c * np.exp(-nodes)) - (1 - math.exp(-1))) <= 1e-11


def test_multiplier_rows_close():
    # substituting (C, b0, d) back into each kernel row
    nodes = np.array([0.0, 0.25, 0.6, 1.0])
    sol = solve_for_nodes(nodes)
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


def test_singular_matrix_raises():
    m = np.zeros((4, 4))
    with pytest.raises(SingularSystemError):
        solve_dense(m, np.zeros(4))
    m = np.eye(4)
    m[2, 2] = 0.0
    m[2, 3] = 0.0
    m[3, 2] = 0.0
    with pytest.raises(SingularSystemError):
        solve_dense(m, np.ones(4))
    # no zero row: exactly singular, then singular to working precision
    for m in ([[1.0, 1.0], [1.0, 1.0]], [[1.0, 1.0], [1.0, 1.0 + 2.0**-52]]):
        with pytest.raises(SingularSystemError):
            solve_dense(m, np.ones(2))


def test_solve_dense_shape_validation():
    with pytest.raises(ValueError):
        solve_dense(np.zeros((3, 4)), np.zeros(3))
    with pytest.raises(ValueError):
        solve_dense(np.eye(3), np.zeros(4))
