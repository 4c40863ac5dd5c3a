"""The direct consistency solves against the damped Picard iterations they
replaced.

``picard_stationary`` and ``picard_finite_horizon`` are the earlier solvers'
loops, kept here as references: each sweep integrates the offsets s_k
backward against cubic interpolants of the previous (xbar, mubar), then
xbar forward, and damps the pair, until the coupling defect or the change
falls below tol.  The finite-horizon reference keeps the earlier Riccati
table too: RK4 on a grid refined for stiffness, read at the midpoints
through a cubic spline.  Where Picard converges, the one-pass solve must
land on the same fixed point; both are fourth-order, on the same grid
(the stationary reference at half its step, read at its nodes), so they
agree to the iteration's tolerance plus an O(dt^4) discretization
difference, most of it the reference's own Riccati table where that is
stiff.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from scipy.interpolate import CubicSpline

from conftest import random_specs
from ode_reference import backward, rk4_riccati
from lqgmfg.meanfield import (ConsistencyError, consistency_blocks,
                              consistency_residual, solve_consistency, steady_state)
from lqgmfg.numerics import (TimeGrid, rk4_linear_tabulated, rk4_linear_time_varying,
                             spectral_abscissa)
from lqgmfg.riccati import solve_discounted_are
from lqgmfg.trading import MarketParams, solve_finite_horizon, to_lqg

DAMPING, TOL, MAX_ITERS = 0.5, 1e-9, 200      # the old solvers' defaults


def _mbar(ops, s_half, L_half, ts_half):
    """The drift offsets -B_k R_k^-1 (B_k^T s_k + n_k) + Hbar_k L + b_k."""
    return np.hstack([o.L_row(s_k) @ o.params.B.T + L_half @ o.Hbar.T + o.params.b(ts_half)
                      for o, s_k in zip(ops, s_half)])


def picard_stationary(spec, grid):
    """Damped Picard on the stationary system, terminal s(T) = s_inf, run at
    half the step of ``grid`` and read at its nodes.  Returns (xbar, mubar,
    [s_k]) or None when it does not converge.

    The half step is for the cubic interpolants: at a step of 0.01 they
    put up to 5e-8 into s on a mean mode decaying at rate 5.7,
    where the direct solve is within 5e-11 of its own solution at a tenth
    of the step; halving the step cuts that error 16-fold."""
    grid = TimeGrid(grid.t0, grid.t1, 2 * grid.steps)
    Pis = [solve_discounted_are(p, spec.rho) for p in spec.subpops]
    ops, J, Abar = consistency_blocks(spec, Pis)
    ts = grid.times()
    ts_half = np.linspace(grid.t0, grid.t1, 2 * grid.steps + 1)
    s_inf, _ = steady_state(spec, Pis)
    xi = np.tile(spec.x0_mean, spec.K)
    xbar = np.tile(xi, (ts.size, 1))
    s0 = [np.linalg.solve(o.M, o.c0(np.asarray([grid.t1]))[0]) for o in ops]
    mubar = xbar @ J.T + np.hstack([np.tile(o.L_row(s[None, :]), (ts.size, 1))
                                    for o, s in zip(ops, s0)])
    c0_half = [o.c0(ts_half) for o in ops]
    guard = 1e8 * (1.0 + float(np.max(np.abs(xi))))
    for _ in range(MAX_ITERS):
        Xh = CubicSpline(ts, xbar, axis=0)(ts_half)
        Uh = CubicSpline(ts, mubar, axis=0)(ts_half)
        s = [backward(rk4_linear_tabulated, o.M, -(Xh @ o.Cx.T + Uh @ o.Cu.T + c0_half[k]),
                      s_inf[k], grid)
             for k, o in enumerate(ops)]
        L = np.hstack([o.L_row(s_k) for o, s_k in zip(ops, s)])
        L_half = CubicSpline(ts, L, axis=0)(ts_half)
        mbar_half = _mbar(ops, [CubicSpline(ts, s_k, axis=0)(ts_half) for s_k in s],
                          L_half, ts_half)
        x_new = rk4_linear_tabulated(Abar, mbar_half, xi, grid).values
        u_new = x_new @ J.T + L
        dx, du = x_new - xbar, u_new - mubar
        defect = max(float(np.max(np.abs(dx @ o.Cx.T + du @ o.Cu.T))) for o in ops)
        change = max(float(np.max(np.abs(dx))), float(np.max(np.abs(du))))
        if not math.isfinite(change) or np.max(np.abs(x_new)) > guard:
            return None
        if defect < TOL or change < TOL:
            return x_new[::2], u_new[::2], [s_k[::2] for s_k in s]
        xbar = DAMPING * x_new + (1.0 - DAMPING) * xbar
        mubar = DAMPING * u_new + (1.0 - DAMPING) * mubar
    return None


def picard_finite_horizon(mapping, steps):
    """Damped Picard on the finite-horizon trading system, with the same
    refined differential Riccati table.  Returns (xbar, mubar, [s_k])."""
    spec = mapping.population
    grid = TimeGrid(0.0, mapping.T, steps)
    ts = grid.times()
    ts_half = np.linspace(grid.t0, grid.t1, 2 * steps + 1)
    Pi_half = []
    for p in spec.subpops:
        gain_norm = float(np.linalg.norm(p.B @ np.linalg.solve(p.R, p.B.T), 2))
        stiff = (2.0 * float(np.linalg.norm(mapping.terminal_weight, 2)) * gain_norm
                 + 2.0 * float(np.linalg.norm(p.A, 2)) + abs(spec.rho))
        refine = max(1, int(math.ceil(grid.t1 * stiff / steps)))
        refine += refine % 2 if refine > 1 else 0
        fine = TimeGrid(grid.t0, grid.t1, steps * refine)
        Pi = rk4_riccati(p, spec.rho, mapping.terminal_weight, fine)
        Pi_half.append(CubicSpline(fine.times(), Pi.values, axis=0)(ts_half))
    ops, J_half, Abar_half = consistency_blocks(spec, Pi_half)
    c0_half = [o.c0(ts_half) for o in ops]
    J = J_half[::2]
    xi = np.tile(spec.x0_mean, spec.K)
    xbar = np.tile(xi, (ts.size, 1))
    mubar = (J @ xbar[..., None])[..., 0]
    for _ in range(MAX_ITERS):
        Xh = CubicSpline(ts, xbar, axis=0)(ts_half)[..., None]
        Uh = CubicSpline(ts, mubar, axis=0)(ts_half)[..., None]
        s = [backward(rk4_linear_time_varying, o.M,
                      -((o.Cx @ Xh + o.Cu @ Uh)[..., 0] + c0_half[k]),
                      mapping.terminal_offset, grid)
             for k, o in enumerate(ops)]
        L = np.hstack([o.L_row(s_k) for o, s_k in zip(ops, s)])
        L_half = CubicSpline(ts, L, axis=0)(ts_half)
        mbar_half = _mbar(ops, [CubicSpline(ts, s_k, axis=0)(ts_half) for s_k in s],
                          L_half, ts_half)
        x_new = rk4_linear_time_varying(Abar_half, mbar_half, xi, grid).values
        u_new = (J @ x_new[..., None])[..., 0] + L
        change = max(float(np.max(np.abs(x_new - xbar))), float(np.max(np.abs(u_new - mubar))))
        if change < TOL:
            return x_new, u_new, s
        xbar = DAMPING * x_new + (1.0 - DAMPING) * xbar
        mubar = DAMPING * u_new + (1.0 - DAMPING) * mubar
    raise AssertionError("reference Picard did not converge")


def _max_diff(solution, ref):
    xbar, mubar, s = ref
    return max(float(np.max(np.abs(solution.xbar.values - xbar))),
               float(np.max(np.abs(solution.mubar.values - mubar))),
               max(float(np.max(np.abs(tr.values - s_k))) for tr, s_k in zip(solution.s, s)))


GRID = dict(horizon=12.0, steps=1200)


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=random_specs())
def test_direct_solve_matches_picard_on_random_specs(spec):
    # a spec without the aggregate margin must be refused as diverged; any
    # other must solve, consistently, to Picard's fixed point where Picard
    # converges.  LinAlgError, OdeBlowupError, RuntimeWarning (an error
    # under the pytest settings) and NaN must not escape.
    Pis = [solve_discounted_are(p, spec.rho) for p in spec.subpops]
    _, _, Abar = consistency_blocks(spec, Pis)
    if spec.rho / 2.0 - spectral_abscissa(Abar) <= 0:
        event("aggregate margin fails")
        with pytest.raises(ConsistencyError, match="diverged"):
            solve_consistency(spec, **GRID)
        return
    mf = solve_consistency(spec, **GRID)
    for tr in [mf.xbar, mf.mubar, mf.L, mf.mbar] + mf.s:
        assert np.all(np.isfinite(tr.values))
    assert mf.iterations == 1
    assert consistency_residual(mf, spec) < 1e-5
    classical = solve_consistency(spec, **GRID, system="classical")
    assert np.array_equal(classical.xbar.values, mf.xbar.values)
    ref = picard_stationary(spec, mf.grid)
    event("Picard converges" if ref is not None else "Picard does not converge")
    if ref is not None:
        assert _max_diff(mf, ref) < 1e-8


def test_direct_solve_matches_picard_on_presets(two_type, coupled):
    for spec, mf in (two_type, coupled):
        assert _max_diff(mf, picard_stationary(spec, mf.grid)) < 1e-8


MARKETS = {
    "workload": dict(sigma=0.1, lambda_perm=0.05, a_temp=0.05, phi_urgency=0.1,
                     psi_terminal=1.0, T=1.0, F0=10.0, q0=5.0),
    "stiff_impact": dict(sigma=0.1, lambda_perm=0.3, a_temp=0.05, phi_urgency=0.1,
                         psi_terminal=1.0, T=1.0, F0=10.0, q0=5.0),
    "short_sale": dict(sigma=0.2, lambda_perm=0.1, a_temp=0.1, phi_urgency=0.5,
                       psi_terminal=2.0, T=1.5, F0=5.0, q0=-3.0),
}


@pytest.mark.parametrize("market", sorted(MARKETS))
@pytest.mark.parametrize("N_types", [1, 2])
def test_finite_horizon_matches_picard(market, N_types):
    mapping = to_lqg(MarketParams(**MARKETS[market]), lambda_explore=0.1)
    # N_types equal trader types in equal shares
    mapping = dataclasses.replace(mapping, population=dataclasses.replace(
        mapping.population, subpops=mapping.population.subpops * N_types,
        pi=np.full(N_types, 1.0 / N_types)))
    fh = solve_finite_horizon(mapping, steps=600)
    assert fh.iterations == 1
    assert np.array_equal(fh.xbar.values[0], np.tile(mapping.population.x0_mean, N_types))
    for s_k in fh.s:
        assert np.array_equal(s_k.values[-1], mapping.terminal_offset)
    assert _max_diff(fh, picard_finite_horizon(mapping, 600)) < 1e-7


def test_finite_horizon_self_convergence_on_stiff_market():
    # on a stiff, urgent liquidation the Picard reference's RK4 Riccati table
    # is off by 3e-5 in mubar at 600 steps, more than the direct solve; so the
    # direct solve is checked against itself on a 9,600-step grid: its error
    # is the fourth-order consistency RK4's, and halving the step must cut it
    # by more than 12
    mapping = to_lqg(MarketParams(sigma=0.2, lambda_perm=0.1, a_temp=0.1, phi_urgency=1.0,
                                  psi_terminal=10.0, T=2.0, F0=5.0, q0=-3.0),
                     lambda_explore=0.1)
    fine = solve_finite_horizon(mapping, 9600)

    def error(steps):
        fh, r = solve_finite_horizon(mapping, steps), 9600 // steps
        ref = (fine.xbar.values[::r], fine.mubar.values[::r], [s.values[::r] for s in fine.s])
        pi_err = max(float(np.max(np.abs(a.values - b.values[::r])))
                     for a, b in zip(fh.Pi, fine.Pi))
        return max(_max_diff(fh, ref), pi_err)

    coarse, half = error(600), error(1200)
    assert half < coarse / 12.0 and half < 1e-8
