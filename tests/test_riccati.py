import math

import numpy as np
import pytest
from scipy.linalg import solve_continuous_are

from conftest import scalar_are_root
from lqgmfg.model import SubpopParams
from lqgmfg.numerics import OdeBlowupError, TimeGrid
from lqgmfg.riccati import (RiccatiError, are_residual, closed_loop_matrix,
                            solve_differential_riccati, solve_discounted_are,
                            verify_stability)


def sub(A=0.0, B=1.0, Q=1.0, R=1.0, S=0.0):
    return SubpopParams(A=A, B=B, Q=Q, R=R, S=S)


def test_scalar_undiscounted():
    sol = solve_discounted_are(sub(), rho=0.0)
    assert sol.Pi[0, 0] == pytest.approx(1.0, abs=1e-9)
    assert sol.residual < 1e-10


def test_scalar_discounted_closed_form():
    sol = solve_discounted_are(sub(), rho=0.5)
    expected = (-0.5 + math.sqrt(4.25)) / 2.0
    assert sol.Pi[0, 0] == pytest.approx(expected, abs=1e-9)


def test_scalar_cross_term_closed_form():
    sol = solve_discounted_are(sub(Q=2.0, S=1.0), rho=0.0)
    assert sol.Pi[0, 0] == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-9)


def test_random_scalars_match_closed_form():
    rng = np.random.default_rng(5)
    for _ in range(10):
        A = rng.uniform(-1, 1)
        B = rng.uniform(0.5, 2)
        Q = rng.uniform(0.1, 2)
        R = rng.uniform(0.5, 2)
        rho = rng.uniform(0, 1)
        sol = solve_discounted_are(sub(A=A, B=B, Q=Q, R=R), rho=rho)
        assert sol.Pi[0, 0] == pytest.approx(
            scalar_are_root(A, B, Q, R, 0.0, rho), abs=1e-8)


def test_shift_identity_against_scipy():
    rng = np.random.default_rng(9)
    for _ in range(5):
        n, m = 3, 2
        A = rng.normal(size=(n, n)) * 0.5
        B = rng.normal(size=(n, m))
        M = rng.normal(size=(n, n))
        Q = M @ M.T + 0.1 * np.eye(n)
        R = np.diag(rng.uniform(0.5, 2.0, m))
        S = 0.1 * rng.normal(size=(n, m))
        rho = rng.uniform(0.0, 1.0)
        p = SubpopParams(A=A, B=B, Q=Q, R=R, S=S)
        sol = solve_discounted_are(p, rho, tol=1e-12)
        oracle = solve_continuous_are(A - 0.5 * rho * np.eye(n), B, Q, R, s=S)
        assert np.max(np.abs(sol.Pi - oracle)) < 1e-9
        assert are_residual(sol.Pi, p, rho) < 1e-10


def test_are_matches_long_horizon_differential_flow():
    # independent oracle: the backward Riccati flow from Pi(T) = 0 settles on
    # the stabilizing solution at rate 2 * (closed-loop margin)
    rng = np.random.default_rng(2718)
    for _ in range(8):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        A = 0.5 * rng.normal(size=(n, n))
        B = rng.normal(size=(n, m))
        R = np.diag(rng.uniform(0.5, 2.0, m))
        S = 0.2 * rng.normal(size=(n, m))
        G = rng.normal(size=(n, n))
        Q = G @ G.T + 0.2 * np.eye(n) + S @ np.linalg.solve(R, S.T)
        rho = rng.uniform(0.0, 1.0)
        p = SubpopParams(A=A, B=B, Q=Q, R=R, S=S)
        sol = solve_discounted_are(p, rho)
        eig = np.linalg.eigvals(closed_loop_matrix(p, sol.Pi)) - 0.5 * rho
        T = 30.0 / -eig.real.max()
        dt = min(0.05, 0.5 / np.abs(eig).max())
        grid = TimeGrid(0.0, T, int(math.ceil(T / dt)))
        flow = solve_differential_riccati(p, rho, np.zeros((n, n)), grid)
        assert np.max(np.abs(flow.values[0] - sol.Pi)) < 1e-8


def test_residual_invariant_random_3x3():
    rng = np.random.default_rng(13)
    for _ in range(5):
        A = rng.normal(size=(3, 3)) * 0.4
        B = rng.normal(size=(3, 1))
        M = rng.normal(size=(3, 3))
        Q = M @ M.T + 0.2 * np.eye(3)
        R = np.array([[rng.uniform(0.5, 2.0)]])
        S = 0.05 * rng.normal(size=(3, 1))
        p = SubpopParams(A=A, B=B, Q=Q, R=R, S=S)
        sol = solve_discounted_are(p, rho=0.3, tol=1e-9)
        assert sol.residual <= 1e-9
        assert np.max(np.abs(sol.Pi - sol.Pi.T)) < 1e-10 * (1 + np.max(np.abs(sol.Pi)))


def test_monotone_in_q():
    prev = -1.0
    for Q in np.linspace(0.2, 3.0, 8):
        sol = solve_discounted_are(sub(Q=Q), rho=0.4)
        root = scalar_are_root(0.0, 1.0, Q, 1.0, 0.0, 0.4)
        assert sol.Pi[0, 0] == pytest.approx(root, abs=1e-8)
        assert sol.Pi[0, 0] >= prev
        prev = sol.Pi[0, 0]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_unstabilizable_raises():
    # B = 0 with unstable A: no stationary limit
    p = SubpopParams(A=1.0, B=0.0, Q=1.0, R=1.0)
    with pytest.raises(RiccatiError, match="did not stabilize"):
        solve_discounted_are(p, rho=0.0)


def test_differential_stationary_fixed_point():
    sol = solve_discounted_are(sub(), rho=0.5)
    grid = TimeGrid(0.0, 5.0, 500)
    traj = solve_differential_riccati(sub(), 0.5, sol.Pi, grid)
    assert np.max(np.abs(traj.values - sol.Pi[None])) < 1e-8


def test_differential_zero_invariant():
    p = sub(Q=0.0)
    grid = TimeGrid(0.0, 3.0, 300)
    traj = solve_differential_riccati(p, 0.2, np.zeros((1, 1)), grid)
    assert np.max(np.abs(traj.values)) < 1e-14


def test_differential_tanh_closed_form():
    grid = TimeGrid(0.0, 8.0, 1600)
    traj = solve_differential_riccati(sub(), 0.0, np.zeros((1, 1)), grid)
    ts = grid.times()
    assert np.max(np.abs(traj.values[:, 0, 0] - np.tanh(8.0 - ts))) < 1e-9
    assert traj.values[0, 0, 0] == pytest.approx(1.0, abs=1e-6)


def test_differential_rejects_asymmetric_terminal():
    grid = TimeGrid(0.0, 1.0, 100)
    p = SubpopParams(A=np.zeros((2, 2)), B=np.eye(2), Q=np.eye(2), R=np.eye(2))
    with pytest.raises(ValueError, match="symmetric"):
        solve_differential_riccati(p, 0.0, np.array([[0.0, 1.0], [0.0, 0.0]]), grid)


def test_differential_finite_escape():
    # Q = -1 breaks convexity; the backward flow escapes in finite time
    p = SubpopParams(A=0.0, B=1.0, Q=-1.0, R=1.0)
    grid = TimeGrid(0.0, 3.0, 600)
    with pytest.raises(OdeBlowupError):
        solve_differential_riccati(p, 0.0, np.zeros((1, 1)), grid)


def test_verify_stability_margins():
    sol = solve_discounted_are(sub(), rho=0.5)
    rep = verify_stability(sol, Abar=np.array([[sol.closed_loop_abscissa]]), rho=0.5)
    assert rep.ok
    assert rep.closed_loop_margin == pytest.approx(0.25 + 0.780776, abs=1e-4)
    assert rep.abar_margin > 0


def test_verify_stability_flags():
    sol = solve_discounted_are(sub(), rho=0.5)
    bad = type(sol)(Pi=np.array([[0.0]]), residual=0.0, closed_loop_abscissa=-1.0)
    rep = verify_stability(bad, Abar=np.array([[-1.0]]), rho=0.5)
    assert not rep.ok and "Pi not positive definite" in rep.messages
    rep0 = verify_stability(sol, Abar=np.zeros((1, 1)), rho=0.0)
    assert not rep0.ok and rep0.abar_margin == 0.0
