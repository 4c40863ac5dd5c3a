import dataclasses
import math

import numpy as np
import pytest

from lqgmfg.meanfield import (ConsistencyError, consistency_blocks,
                              consistency_residual, solve_consistency, solve_stacked,
                              stability_reports, stacked_system, steady_state)
from lqgmfg.model import PopulationSpec, SpecValidationError, SubpopParams
from lqgmfg.numerics import OdeBlowupError, TimeGrid, Trajectory, rk4_linear_tabulated
from lqgmfg.presets import (coupled_single_type_spec, planar_spec, scalar_decoupled_spec,
                            two_type_spec, unstable_spec)
from lqgmfg.riccati import solve_discounted_are


def L_and_mbar(spec, Pis, grid, s_vec):
    """L and mbar on the grid for a constant offset s, from the blocks the
    solver assembles (``TypeBlocks.L_row`` and the xbar rows of
    ``stacked_system``, as ``solve_stacked`` reads them)."""
    blocks, J, Abar = consistency_blocks(spec, Pis)
    s_vals = np.tile(np.atleast_1d(s_vec), (grid.steps + 1, len(blocks)))
    n, N = spec.n, Abar.shape[-1]
    L = np.hstack([o.L_row(s_vals[:, k * n:(k + 1) * n]) for k, o in enumerate(blocks)])
    A, f = stacked_system(blocks, J, Abar, grid.times())
    return L, s_vals @ A[N:, :N].T + f[:, N:]


def test_feedback_gains_scalar():
    spec = scalar_decoupled_spec(rho=0.5, A=0.0)
    grid = TimeGrid(0.0, 1.0, 10)
    Pi = np.array([[1.0]])
    _, J, _ = consistency_blocks(spec, [Pi])
    L, _ = L_and_mbar(spec, [Pi], grid, [0.0])
    assert J.shape == (1, 1) and J[0, 0] == pytest.approx(-1.0)
    assert np.max(np.abs(L)) == 0.0


def test_feedback_gains_two_type_symmetry():
    sub = SubpopParams(A=0.0, B=1.0, Q=1.0, R=1.0, F=0.2, psi=0.3)
    spec = PopulationSpec(subpops=(sub, sub), pi=[0.5, 0.5], rho=0.5,
                          x0_mean=[0.0], x0_cov=[[0.0]])
    Pi = solve_discounted_are(sub, 0.5).Pi
    _, J, _ = consistency_blocks(spec, [Pi, Pi])
    # identical types: the rows coincide up to block placement
    assert J[0, 0] - J[0, 1] == pytest.approx(J[1, 1] - J[1, 0])
    swapped = np.array([[J[1, 1], J[1, 0]]])
    assert np.allclose(J[0:1], swapped)


def test_aggregate_drift_scalar_decoupled():
    spec = scalar_decoupled_spec(rho=0.0, A=0.0)
    grid = TimeGrid(0.0, 1.0, 10)
    Pi = np.array([[1.0]])
    _, _, Abar = consistency_blocks(spec, [Pi])
    _, mbar = L_and_mbar(spec, [Pi], grid, [0.0])
    assert Abar[0, 0] == pytest.approx(-1.0)
    assert np.max(np.abs(mbar)) == 0.0


def test_aggregate_drift_mbar_decoupled_from_L_when_H_zero():
    spec = scalar_decoupled_spec(rho=0.5)
    grid = TimeGrid(0.0, 1.0, 10)
    Pi = solve_discounted_are(spec.subpops[0], 0.5).Pi
    _, mb0 = L_and_mbar(spec, [Pi], grid, [0.0])
    _, mb1 = L_and_mbar(spec, [Pi], grid, [2.0])
    # H = 0: mbar changes only through B R^-1 B^T s, not through Hbar L
    expected = -spec.subpops[0].B[0, 0] ** 2 * 2.0
    assert np.allclose(mb1 - mb0, expected)


def test_decoupled_converges_in_one_iteration(decoupled):
    spec, mf = decoupled
    assert mf.iterations == 1
    assert mf.residual < 1e-8
    a_cl = mf.Pi[0].closed_loop_abscissa
    ts = mf.grid.times()
    assert np.max(np.abs(mf.xbar.values[:, 0] - np.exp(a_cl * ts))) < 1e-8


def test_two_type_converges(two_type):
    spec, mf = two_type
    assert mf.residual < 1e-6
    assert consistency_residual(mf, spec) < 1e-5
    # long-run mean matches the algebraic steady state
    s_inf, x_inf = steady_state(spec, mf.Pi)
    assert np.max(np.abs(mf.xbar.values[-1] - x_inf)) < 1e-6
    for k in range(spec.K):
        assert np.max(np.abs(mf.s[k].values[-1] - s_inf[k])) < 1e-8


def test_mubar_identity(two_type):
    spec, mf = two_type
    defect = mf.mubar.values - mf.xbar.values @ mf.J.T - mf.L.values
    assert np.max(np.abs(defect)) < 1e-9


def test_classical_exploratory_bitwise(coupled):
    spec, _ = coupled
    a = solve_consistency(spec, system="classical")
    b = solve_consistency(spec, system="exploratory")
    assert np.array_equal(a.xbar.values, b.xbar.values)
    assert np.array_equal(a.mubar.values, b.mubar.values)
    assert np.array_equal(a.J, b.J)
    for sa, sb in zip(a.s, b.s):
        assert np.array_equal(sa.values, sb.values)


def test_unstable_spec_diverges():
    with pytest.raises(ConsistencyError, match="diverged"):
        solve_consistency(unstable_spec())


def test_invalid_spec_raises():
    spec = scalar_decoupled_spec()
    bad = PopulationSpec(subpops=spec.subpops, pi=[0.5], rho=0.5,
                         x0_mean=spec.x0_mean, x0_cov=spec.x0_cov)
    with pytest.raises(SpecValidationError):
        solve_consistency(bad)


def test_steady_state_zero_offsets(decoupled):
    spec, mf = decoupled
    s_inf, x_inf = steady_state(spec, mf.Pi)
    assert np.max(np.abs(s_inf[0])) < 1e-12
    assert np.max(np.abs(x_inf)) < 1e-12


def test_steady_state_scalar_formula():
    sub = SubpopParams(A=-0.2, B=1.0, Q=1.0, R=1.0, eta=[1.0])
    spec = PopulationSpec(subpops=(sub,), pi=[1.0], rho=0.5,
                          x0_mean=[0.0], x0_cov=[[0.0]])
    Pi = solve_discounted_are(sub, 0.5).Pi
    s_inf, _ = steady_state(spec, [Pi])
    expected = 1.0 / (0.5 - (-0.2) + Pi[0, 0])
    assert s_inf[0][0] == pytest.approx(expected, abs=1e-10)


def test_steady_state_superposition_in_b():
    def make(b):
        sub = SubpopParams(A=-0.3, B=1.0, Q=1.0, R=1.0, F=0.2, H=0.1, b=[b])
        return PopulationSpec(subpops=(sub,), pi=[1.0], rho=0.5,
                              x0_mean=[0.0], x0_cov=[[0.0]])

    outs = []
    for b in (0.0, 0.5, 1.0):
        _s, x = steady_state(make(b))
        outs.append(x[0])
    assert outs[2] - outs[1] == pytest.approx(outs[1] - outs[0], abs=1e-10)


def test_consistency_residual_detects_corruption(two_type):
    spec, mf = two_type
    corrupted = dataclasses.replace(
        mf, xbar=Trajectory(mf.grid, mf.xbar.values + 0.1))
    assert consistency_residual(corrupted, spec) > 0.01


def test_consistency_residual_decoupled_floor(decoupled):
    spec, mf = decoupled
    assert consistency_residual(mf, spec) < 1e-9


def test_stability_reports(two_type):
    spec, mf = two_type
    reports = stability_reports(mf, spec)
    assert all(r.ok for r in reports)
    assert all(r.abar_margin > 0 for r in reports)


def test_solution_json_round_trip(decoupled):
    spec, mf = decoupled
    doc = mf.to_json_dict()
    assert doc["iterations"] == mf.iterations
    assert np.allclose(doc["xbar"], mf.xbar.values)
    assert doc["grid"]["steps"] == mf.grid.steps


@pytest.mark.parametrize("failure", [np.linalg.LinAlgError("singular matrix"),
                                     OdeBlowupError(0.0, "non-finite chunk map")])
def test_solve_stacked_reports_divergence(coupled, failure):
    # a singular boundary system or a non-finite value from the kernel is a
    # divergence of the consistency solve, not a linear-algebra error
    spec, mf = coupled
    blocks, J, Abar = consistency_blocks(spec, mf.Pi)

    def kernel(*args, **kwargs):
        raise failure

    with pytest.raises(ConsistencyError, match="diverged"):
        solve_stacked(spec, blocks, J, Abar, mf.grid, np.zeros(spec.n * spec.K), kernel)


def test_steady_state_solves_the_stacked_system(two_type):
    # the steady state is the root of the same (Acal, f) the solve integrates
    spec, mf = two_type
    blocks, J, Abar = consistency_blocks(spec, mf.Pi)
    A, f = stacked_system(blocks, J, Abar, np.asarray([np.inf]))
    s_inf, x_inf = steady_state(spec, mf.Pi)
    z = np.concatenate(s_inf + [x_inf])
    assert np.max(np.abs(A @ z + f[0])) < 1e-12
    assert np.array_equal(np.concatenate(s_inf), np.concatenate([s.values[-1] for s in mf.s]))


def _stiff_decoupled_spec(Q=2500.0):
    # Q/R = 2500: Pi ~ 50, so the offsets grow forward at rate ~50 and the
    # mean state decays at the same rate
    sub = SubpopParams(A=0.0, B=1.0, Q=Q, R=1.0, eta=3.0, b=0.5, lambda_explore=0.2)
    return PopulationSpec(subpops=(sub,), pi=[1.0], rho=0.1, x0_mean=[1.0], x0_cov=[[0.0]])


@pytest.mark.parametrize("config", [{}, dict(horizon=20.0, steps=500)])
def test_stiff_decoupled_spec_matches_sequential_rk4(config):
    # decoupled with constant data, so s stays at s_inf and xbar is the
    # forward mean equation driven by it; the split solve must keep both, on
    # the auto grid (h * 50 = 0.044) and on a coarse one (h * 50 = 2), though
    # 64 steps of the offsets' forward growth would span e^2.8 to e^128
    spec = _stiff_decoupled_spec()
    mf = solve_consistency(spec, **config)
    (o,), _, Abar = consistency_blocks(spec, mf.Pi)
    grid = mf.grid
    s_inf = steady_state(spec, mf.Pi)[0][0]
    mbar = o.L_row(s_inf[None, :]) @ o.params.B.T + o.params.b(grid.t1)
    x_ref = rk4_linear_tabulated(Abar, np.tile(mbar, (2 * grid.steps + 1, 1)),
                                 spec.x0_mean, grid).values
    assert np.max(np.abs(mf.s[0].values - s_inf)) <= 1e-10 * np.max(np.abs(s_inf))
    assert np.max(np.abs(mf.xbar.values - x_ref)) <= 1e-10 * np.max(np.abs(x_ref))
    assert np.max(np.abs(mf.mbar.values - mbar)) <= 1e-10 * np.max(np.abs(mbar))


def test_auto_grid_resolves_stiff_spec():
    # h * 50 = 0.5 on a fixed 0.01 step left consistency_residual at 0.054;
    # the auto step keeps h * rate within 1/64 of RK4's stability interval
    spec = _stiff_decoupled_spec()
    mf = solve_consistency(spec)
    assert mf.grid.dt * 50.0 <= 2.785 / 64.0
    assert consistency_residual(mf, spec) < 1e-5


def test_auto_grid_solves_six_times_stiffer_spec():
    # Q/R = 90000, rate ~300: a 0.01 step (h * rate = 3) is outside RK4's
    # stability interval and used to raise "diverged"
    mf = solve_consistency(_stiff_decoupled_spec(Q=2500.0 * 36.0))
    assert mf.grid.dt * 300.0 <= 2.785 / 64.0
    for tr in [mf.xbar, mf.mubar] + mf.s:
        assert np.all(np.isfinite(tr.values))
    assert np.max(np.abs(mf.xbar.values)) <= 1.0


@pytest.mark.parametrize("build", [scalar_decoupled_spec, planar_spec, coupled_single_type_spec,
                                   two_type_spec])
def test_auto_grid_keeps_step_on_presets(build):
    # rates of order 1: the step stays 0.01, so these grids and solutions
    # do not move
    grid = solve_consistency(build()).grid
    assert grid.steps == min(math.ceil(grid.t1 / 0.01), 30000)


def test_grid_too_coarse_for_rk4_diverges():
    # h * 50 = 5 puts the closed-loop mode outside RK4's stability interval:
    # the mean path grows without bound, which must be refused, not returned
    with pytest.raises(ConsistencyError, match="diverged"):
        solve_consistency(_stiff_decoupled_spec(), horizon=20.0, steps=200)
