import dataclasses
import math

import numpy as np
import pytest

from scipy.interpolate import CubicSpline

from lqgmfg.numerics import TimeGrid
from lqgmfg.riccati import feedback_gain
from lqgmfg.variational import (DensityPath,
                                equilibrium_density_path,
                                exploratory_cost_quadrature, gateaux_derivative,
                                gaussian_grid_density, mass_neutral,
                                perturb_density, solve_mean_state_path)
from ode_reference import integrate_ode

GRID = TimeGrid(0.0, 10.0, 1000)


@pytest.fixture(scope="module")
def star(decoupled):
    spec, mf = decoupled
    phi, xtraj = equilibrium_density_path(spec, mf, 0, GRID, nodes=401)
    return spec, mf, phi, xtraj


def closed_form_cost(spec, mf, T):
    """Decoupled scalar exploratory cost on [0, T]: quadratic path terms plus
    the constant exploration rate lambda/2 - lambda H."""
    p = spec.subpops[0]
    Pi = mf.Pi[0].Pi[0, 0]
    gain = (p.B[0, 0] * Pi + p.S[0, 0]) / p.R[0, 0]
    a_cl = p.A[0, 0] - p.B[0, 0] * gain
    rho, lam = spec.rho, p.lambda_explore
    xi = spec.x0_mean[0]
    ix2 = xi ** 2 * (1.0 - math.exp((2 * a_cl - rho) * T)) / (rho - 2 * a_cl)
    H = 0.5 * math.log(2 * math.pi * math.e * lam / p.R[0, 0])
    rate = lam / 2.0 - lam * H
    return 0.5 * (p.Q[0, 0] + p.R[0, 0] * gain ** 2) * ix2 \
        + rate * (1.0 - math.exp(-rho * T)) / rho


def test_quadrature_matches_closed_form(star):
    spec, mf, phi, xtraj = star
    J = exploratory_cost_quadrature(phi, xtraj, mf, 0, spec, GRID)
    expected = closed_form_cost(spec, mf, GRID.t1)
    assert J == pytest.approx(expected, rel=1e-3)


def test_lagrange_term_vanishes_when_normalized(star):
    spec, mf, phi, xtraj = star
    sub = dataclasses.replace(spec.subpops[0], phi_lagrange=7.0)
    spec_phi = dataclasses.replace(spec, subpops=(sub,))
    J0 = exploratory_cost_quadrature(phi, xtraj, mf, 0, spec, GRID)
    J1 = exploratory_cost_quadrature(phi, xtraj, mf, 0, spec_phi, GRID)
    assert J1 == pytest.approx(J0, abs=1e-9)
    # an unnormalized density pays the Lagrange charge
    scaled = DensityPath(GRID, phi.lo, phi.hi, 1.1 * phi.values)
    J2 = exploratory_cost_quadrature(scaled, xtraj, mf, 0, spec_phi, GRID,
                                     check_tol=None)
    J2_base = exploratory_cost_quadrature(scaled, xtraj, mf, 0, spec, GRID,
                                          check_tol=None)
    disc = np.exp(-spec.rho * GRID.times())
    w = np.full(GRID.steps + 1, GRID.dt)
    w[0] *= 0.5
    w[-1] *= 0.5
    assert J2 - J2_base == pytest.approx(7.0 * 0.1 * float(disc @ w), rel=1e-6)


def test_doubling_lambda_changes_only_entropy_term(star):
    spec, mf, phi, xtraj = star
    p = spec.subpops[0]
    sub2 = dataclasses.replace(p, lambda_explore=2.0 * p.lambda_explore)
    spec2 = dataclasses.replace(spec, subpops=(sub2,))
    J1 = exploratory_cost_quadrature(phi, xtraj, mf, 0, spec, GRID)
    J2 = exploratory_cost_quadrature(phi, xtraj, mf, 0, spec2, GRID)
    ent = -phi.entropy()
    disc = np.exp(-spec.rho * GRID.times())
    w = np.full(GRID.steps + 1, GRID.dt)
    w[0] *= 0.5
    w[-1] *= 0.5
    assert J2 - J1 == pytest.approx(p.lambda_explore * float((ent * disc) @ w), rel=1e-9)


def test_state_path_consistency_check(star):
    spec, mf, phi, xtraj = star
    wobble = 0.5 * np.sin(3.0 * GRID.times())[:, None]
    bad = dataclasses.replace(xtraj, values=xtraj.values + wobble)
    with pytest.raises(ValueError, match="inconsistent"):
        exploratory_cost_quadrature(phi, bad, mf, 0, spec, GRID)


def test_quadrature_rejects_high_dimensions():
    with pytest.raises(ValueError, match="m <= 2"):
        gaussian_grid_density(np.zeros(3), np.eye(3), -np.ones(3), np.ones(3), (5, 5, 5))


def test_perturb_density_identity_and_scaling():
    gd = gaussian_grid_density([0.0], [[0.5]], [-6.0], [6.0], (201,))
    omega = np.ones_like(gd.values)
    same = perturb_density(gd, omega, 0.0)
    assert np.array_equal(same.values, gd.values)
    scaled = perturb_density(gd, omega, 0.3)
    assert scaled.integrate() == pytest.approx(math.exp(0.3) * gd.integrate(), rel=1e-12)


def test_perturb_density_gaussian_conjugacy():
    # omega = -(u - m)^2 sharpens a Gaussian: new var = 1/(1/var + 2 eps)
    var = 0.5
    gd = gaussian_grid_density([0.2], [[var]], [0.2 - 7.0], [0.2 + 7.0], (801,))
    ax = np.linspace(gd.lo[0], gd.hi[0], 801)
    omega = -(ax - 0.2) ** 2
    eps = 0.4
    pert = perturb_density(gd, omega, eps)
    mass = pert.integrate()
    mean = pert.first_moment()[0] / mass
    second = pert.integrate((ax - mean) ** 2) / mass
    expected_var = 1.0 / (1.0 / var + 2.0 * eps)
    assert second == pytest.approx(expected_var, rel=1e-8)
    assert second < var


def test_perturb_density_linear_in_eps():
    gd = gaussian_grid_density([0.0], [[1.0]], [-8.0], [8.0], (401,))
    ax = np.linspace(-8.0, 8.0, 401)
    omega = np.sin(ax)
    diffs = []
    for eps in (1e-2, 5e-3, 2.5e-3):
        pert = perturb_density(gd, omega, eps)
        diffs.append(np.max(np.abs(pert.values - gd.values)) / eps)
    assert diffs[0] == pytest.approx(diffs[-1], rel=2e-2)


def test_perturb_density_overflow():
    gd = gaussian_grid_density([0.0], [[1.0]], [-8.0], [8.0], (101,))
    with pytest.raises(OverflowError):
        perturb_density(gd, np.full(101, 1e6), 1.0)


def test_perturb_density_rejects_bad_directions():
    gd = gaussian_grid_density([0.0], [[1.0]], [-8.0], [8.0], (101,))
    with pytest.raises(ValueError, match="finite"):
        perturb_density(gd, np.full(101, np.nan), 1.0)
    with pytest.raises(ValueError, match="must match"):
        perturb_density(gd, np.zeros(100), 1.0)


def test_density_path_checks():
    with pytest.raises(ValueError, match="nonnegative"):
        DensityPath(None, [-1.0], [1.0], [0.5, -0.1, 0.5])
    with pytest.raises(ValueError, match="disagree"):
        DensityPath(None, [-1.0], [1.0], np.ones((3, 3)))
    with pytest.raises(ValueError, match="time grid"):
        DensityPath(GRID, [-1.0], [1.0], np.ones((5, 3)))
    # a box too narrow for the Gaussian fails the unit-mass check
    with pytest.raises(ValueError, match="mass"):
        gaussian_grid_density([0.0], [[1.0]], [-2.0], [2.0], (401,))


def test_planar_quadrature_moments():
    # m = 2 runs the same tensor path: mass, mean and 0.5 E[u^T R u]
    mean, cov = np.array([0.3, -0.2]), np.array([[1.0, 0.3], [0.3, 0.5]])
    gd = gaussian_grid_density(mean, cov, mean - 9.0, mean + 9.0, (241, 241))
    R = np.array([[2.0, 0.5], [0.5, 1.0]])
    assert gd.integrate() == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(gd.first_moment(), mean, atol=1e-10)
    assert gd.quad_form(R) == pytest.approx(0.5 * (np.trace(R @ cov) + mean @ R @ mean), abs=1e-9)
    assert gd.entropy() == pytest.approx(0.5 * math.log(np.linalg.det(2 * math.pi * math.e * cov)),
                                         abs=1e-8)


def test_gateaux_vanishes_at_optimum(star):
    spec, mf, phi, _x = star
    rng = np.random.default_rng(17)
    ax = np.linspace(phi.lo[0], phi.hi[0], phi.values.shape[1])
    for _ in range(3):
        c = rng.normal(size=3)
        om = c[0] * np.sin(1.3 * ax + c[1]) + 0.5 * c[2] * np.cos(0.7 * ax)
        om = mass_neutral(np.tile(om, (GRID.steps + 1, 1)), phi)
        d = gateaux_derivative(phi, om, mf, 0, spec, eps=1e-4)
        assert abs(d) < 1e-3


def test_gateaux_zero_direction(star):
    spec, mf, phi, _x = star
    d = gateaux_derivative(phi, np.zeros_like(phi.values), mf, 0, spec)
    assert d == 0.0


def test_gateaux_descent_direction(star):
    spec, mf, _phi, _x = star
    shifted, _xs = equilibrium_density_path(spec, mf, 0, GRID, mean_shift=0.5)
    _, mu_s = solve_mean_state_path(spec, mf, 0, GRID, mean_shift=0.5)
    ax = np.linspace(shifted.lo[0], shifted.hi[0], shifted.values.shape[1])
    om = -(ax[None, :] - mu_s.values[:, 0][:, None])
    d = gateaux_derivative(shifted, om, mf, 0, spec, eps=1e-4)
    assert d < -1e-3


def test_optimality_over_perturbation_family(star):
    spec, mf, phi, xtraj = star
    J_star = exploratory_cost_quadrature(phi, xtraj, mf, 0, spec, GRID)
    family = [(-1.0, 1.0), (-0.5, 1.0), (0.5, 1.0), (1.0, 1.0),
              (0.0, 0.5), (0.0, 2.0), (0.5, 2.0), (-0.5, 0.5)]
    for shift, scale in family:
        cand, xc = equilibrium_density_path(spec, mf, 0, GRID,
                                            mean_shift=shift, cov_scale=scale)
        J = exploratory_cost_quadrature(cand, xc, mf, 0, spec, GRID)
        assert J > J_star + 1e-4, (shift, scale, J, J_star)


def mean_path_reference(spec, mf, k, grid, mean_shift=0.0, mu_path=None):
    """The mean state path by the generic RK4 with a Python right-hand side,
    the control mean evaluated at each stage from the interpolated mean
    field (or from a cubic interpolant of mu_path)."""
    p = spec.subpops[k]
    gain = feedback_gain(p, mf.Pi[k].Pi)
    shift = np.broadcast_to(np.asarray(mean_shift, dtype=float), (p.m,))
    mu_itp = None if mu_path is None else CubicSpline(grid.times(), mu_path, axis=0)

    def mean_at(t, x):
        off = np.linalg.solve(p.R, p.B.T @ mf.s[k].interp(t)
                              - p.S.T @ (spec.psibar(k) @ mf.xbar.interp(t)) + p.nvec)
        return -(gain @ x) - off + shift

    def rhs(t, x):
        mu = mu_itp(t) if mu_itp is not None else mean_at(t, x)
        return (p.A @ x + spec.Fbar(k) @ mf.xbar.interp(t)
                + spec.Hbar(k) @ mf.mubar.interp(t) + p.B @ mu + p.b(t))

    return integrate_ode(rhs, spec.x0_mean, grid).values


@pytest.mark.parametrize("game", ["coupled", "planar"])
def test_mean_state_path_matches_callback_reference(game, request):
    spec, mf = request.getfixturevalue(game)
    grid = TimeGrid(0.0, 4.0, 200)
    x, mu = solve_mean_state_path(spec, mf, 0, grid, mean_shift=0.3)
    assert np.max(np.abs(x.values - mean_path_reference(spec, mf, 0, grid, 0.3))) < 1e-12
    forced = 1.1 * mu.values
    x_mu, _ = solve_mean_state_path(spec, mf, 0, grid, mu_path=forced)
    ref = mean_path_reference(spec, mf, 0, grid, mu_path=forced)
    assert np.max(np.abs(x_mu.values - ref)) < 1e-12
