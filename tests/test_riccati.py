import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_continuous_are

from conftest import random_specs, scalar_are_root, unconstrained_specs
from lqgmfg.model import SubpopParams
from lqgmfg.numerics import OdeBlowupError, TimeGrid
from lqgmfg.riccati import (RiccatiError, are_residual, closed_loop_matrix,
                            solve_differential_riccati, solve_discounted_are,
                            verify_stability)
from lqgmfg.trading import MarketParams, to_lqg
from ode_reference import rk4_riccati


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
    # Q = -1 breaks convexity: Pi(t) = tan(t - 3) escapes at t = 3 - pi/2,
    # which must be reported at the first node past it
    p = SubpopParams(A=0.0, B=1.0, Q=-1.0, R=1.0)
    grid = TimeGrid(0.0, 3.0, 600)
    with pytest.raises(OdeBlowupError) as info:
        solve_differential_riccati(p, 0.0, np.zeros((1, 1)), grid)
    escape = 3.0 - math.pi / 2.0
    assert escape - grid.dt <= info.value.t < escape


def test_differential_finite_escape_2x2():
    # Q = -U diag(1, 4) U^T with B = R = I: Pi = U diag(tan(t - 3),
    # 2 tan(2 (t - 3))) U^T, whose second mode escapes first, at 3 - pi/4
    U = np.array([[math.cos(0.4), -math.sin(0.4)], [math.sin(0.4), math.cos(0.4)]])
    p = SubpopParams(A=np.zeros((2, 2)), B=np.eye(2), Q=-U @ np.diag([1.0, 4.0]) @ U.T,
                     R=np.eye(2))
    grid = TimeGrid(0.0, 3.0, 300)
    with pytest.raises(OdeBlowupError) as info:
        solve_differential_riccati(p, 0.0, np.zeros((2, 2)), grid)
    escape = 3.0 - math.pi / 4.0
    assert escape - grid.dt <= info.value.t < escape
    # before the escape the table is the closed form
    short = TimeGrid(escape + 0.05, 3.0, 40)
    tau = 3.0 - short.times()
    modes = np.stack([-np.tan(tau), -2.0 * np.tan(2.0 * tau)], axis=1)
    exact = np.einsum("ij,tj,kj->tik", U, modes, U)
    got = solve_differential_riccati(p, 0.0, np.zeros((2, 2)), short).values
    assert np.max(np.abs(got - exact)) < 1e-12 * np.max(np.abs(exact))


@pytest.mark.parametrize("T, steps", [(2.0, 20), (2.0, 7), (12.0, 40)])
def test_differential_stiff_step_no_false_escape(T, steps):
    # Q/R = 1e4: the Hamiltonian rates are +-100, so h * rate is 10 to 30;
    # one exact step per chunk (40 steps at once would reach e^1200 and
    # overflow), no escape, and Pi = 100 tanh(100 (T - t))
    p = SubpopParams(A=0.0, B=1.0, Q=1e4, R=1.0)
    grid = TimeGrid(0.0, T, steps)
    assert grid.dt * 100.0 >= 10.0
    traj = solve_differential_riccati(p, 0.0, np.zeros((1, 1)), grid)
    exact = 100.0 * np.tanh(100.0 * (T - grid.times()))
    assert np.max(np.abs(traj.values[:, 0, 0] - exact)) < 1e-12 * 100.0


TRADING_MARKETS = {
    "workload": dict(sigma=0.1, lambda_perm=0.05, a_temp=0.05, phi_urgency=0.1,
                     psi_terminal=1.0, T=1.0, F0=10.0, q0=5.0),
    "stiff_liquidation": dict(sigma=0.2, lambda_perm=0.1, a_temp=0.1, phi_urgency=1.0,
                              psi_terminal=10.0, T=2.0, F0=5.0, q0=-3.0),
    "cheap_trading": dict(sigma=0.1, lambda_perm=0.05, a_temp=0.005, phi_urgency=0.1,
                          psi_terminal=1.0, T=1.0, F0=10.0, q0=5.0),
}


@pytest.mark.parametrize("steps", [37, 1200])
@pytest.mark.parametrize("market", sorted(TRADING_MARKETS))
def test_differential_trading_closed_form(market, steps):
    # with Pi_01 = -1 and Pi_11 = 0 invariant, Pi_00 solves the scalar
    # dPi/dt = Pi^2 / (2a) - phi from 2 psi: with k = sqrt(phi / 2a),
    # c = sqrt(2 a phi) and tau = T - t,
    # Pi_00 = c (2 psi + c tanh k tau) / (c + 2 psi tanh k tau)
    params = MarketParams(**TRADING_MARKETS[market])
    mapping = to_lqg(params)
    grid = TimeGrid(0.0, params.T, steps)
    Pi = solve_differential_riccati(mapping.population.subpops[0], 0.0,
                                    mapping.terminal_weight, grid).values
    a, phi, psi = params.a_temp, params.phi_urgency, params.psi_terminal
    k, c = math.sqrt(phi / (2.0 * a)), math.sqrt(2.0 * a * phi)
    th = np.tanh(k * (params.T - grid.times()))
    exact = c * (2.0 * psi + c * th) / (c + 2.0 * psi * th)
    assert np.max(np.abs(Pi[:, 0, 0] - exact) / exact) < 1e-12
    scale = float(np.max(exact))
    assert np.max(np.abs(Pi[:, 0, 1] + 1.0)) < 1e-12 * scale
    assert np.max(np.abs(Pi[:, 1, 1])) < 1e-12 * scale


@settings(max_examples=15, deadline=None, derandomize=True)
@given(spec=random_specs(), terminal=st.sampled_from([0.0, 1.0, 5.0]))
def test_differential_matches_rk4_reference_on_random_specs(spec, terminal):
    # the exact table against the fixed-step RK4 it replaced, on a grid fine
    # enough that RK4's own error is below the bound (7e-8 at 400 steps on
    # one of these, falling 16x per halving)
    grid = TimeGrid(0.0, 1.0, 800)
    for p in spec.subpops:
        Pi_T = terminal * np.eye(p.n)
        ref = rk4_riccati(p, spec.rho, Pi_T, grid).values
        got = solve_differential_riccati(p, spec.rho, Pi_T, grid).values
        assert np.max(np.abs(got - ref)) < 1e-8 * (1.0 + np.max(np.abs(ref)))
        assert np.array_equal(got, got.transpose(0, 2, 1))


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


@settings(max_examples=30, deadline=None, derandomize=True)
@given(spec=random_specs())
def test_are_solves_every_stabilizable_type(spec):
    # criterion 1's bound, on the solver's own residual and a recomputed one
    for p in spec.subpops:
        sol = solve_discounted_are(p, spec.rho)
        assert sol.residual <= 1e-9
        assert are_residual(sol.Pi, p, spec.rho) <= 1e-9
        assert sol.closed_loop_abscissa < spec.rho / 2


@settings(max_examples=60, deadline=None, derandomize=True)
@given(spec=unconstrained_specs())
def test_are_solves_or_raises_riccati_error(spec):
    # no guarantees: a solution meets criterion 1's bound, or RiccatiError
    for p in spec.subpops:
        try:
            sol = solve_discounted_are(p, spec.rho)
        except RiccatiError:
            event("no stabilizing solution")
            continue
        event("solved")
        assert sol.residual <= 1e-9
        assert are_residual(sol.Pi, p, spec.rho) <= 1e-9
