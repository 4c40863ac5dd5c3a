"""Control densities on a bounded action box, the entropy-regularized
exploratory cost functional, multiplicative density perturbations, and a
finite-difference directional-derivative check of the first-order
optimality condition.

One record, ``DensityPath``, holds density values on the box: one density,
or one per node of a time grid.  Its tensor-product trapezoid rule gives
every action integral (mass, first moment, the quadratic control cost,
entropy) for control dimension m <= 2.  A direction omega is an array on
the same nodes, and ``perturb_density`` forms e^(eps omega) phi.

Everything here is desk-scale machinery: the box reaches +-8 standard
deviations (Gaussian tail mass < 1e-15 outside), and the functional is
evaluated along the deterministic mean state path with the mean field
frozen at the solved equilibrium.  The functional is strictly convex in the
density, so the derivative at the optimal Gaussian vanishes for every
mass-neutral direction; the Lagrange weight phi_k prices mass violations of
unnormalized densities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .meanfield import MeanFieldSolution
from .model import PopulationSpec
from .numerics import TimeGrid, Trajectory, rk4_linear_tabulated, trapezoid_weights
from .policy import exploration_covariance, tabulate_policy

__all__ = [
    "DensityPath",
    "gaussian_grid_density",
    "solve_mean_state_path",
    "equilibrium_density_path",
    "perturb_density",
    "exploratory_cost_quadrature",
    "gateaux_derivative",
    "mass_neutral",
]


def _axes(lo, hi, nodes) -> list[np.ndarray]:
    return [np.linspace(a, b, c) for a, b, c in zip(lo, hi, nodes)]


def _points(axes: list[np.ndarray]) -> np.ndarray:
    """The box's quadrature points, shape (*nodes, m)."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def _gaussian_pdf(points: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """N(mean, cov) density at points (..., m); mean broadcasts against them."""
    diff = points - mean
    q = np.einsum("...i,ij,...j->...", diff, np.linalg.inv(cov), diff)
    return np.exp(-0.5 * q) / math.sqrt(np.linalg.det(2.0 * math.pi * cov))


@dataclass
class DensityPath:
    """Nonnegative density values on the action box [lo, hi] (m <= 2 axes):
    one density (grid None, values shaped like the box) or one per node of
    ``grid`` (values (nodes_t, *box nodes)).

    The quadrature is the tensor-product trapezoid rule over the box axes;
    every integral keeps the leading time axis."""

    grid: TimeGrid | None
    lo: np.ndarray
    hi: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        self.values = np.asarray(self.values, dtype=float)
        if self.hi.size != self.m or self.values.ndim != self.m + (self.grid is not None):
            raise ValueError("box bounds and node counts disagree")
        if self.m > 2:
            raise ValueError("quadrature restricted to m <= 2")
        if self.grid is not None and self.values.shape[0] != self.grid.steps + 1:
            raise ValueError("density path length does not match the time grid")
        if np.any(self.values < 0):
            raise ValueError("density values must be nonnegative")

    @property
    def m(self) -> int:
        return self.lo.size

    def _axes(self) -> list[np.ndarray]:
        return _axes(self.lo, self.hi, self.values.shape[-self.m:])

    def integrate(self, f=1.0) -> np.ndarray:
        """integral of f(u) Phi(u) du; f is 1 or an array on the box nodes."""
        out = self.values * f
        for ax in reversed(self._axes()):
            out = out @ trapezoid_weights(ax.size, ax[1] - ax[0])
        return out

    def first_moment(self) -> np.ndarray:
        """Raw (unnormalized) first moment, (..., m)."""
        u = _points(self._axes())
        return np.stack([self.integrate(u[..., d]) for d in range(self.m)], axis=-1)

    def quad_form(self, R: np.ndarray) -> np.ndarray:
        """integral of 0.5 u^T R u Phi(u) du."""
        u = _points(self._axes())
        return self.integrate(0.5 * np.einsum("...i,ij,...j->...", u, R, u))

    def entropy(self) -> np.ndarray:
        """-integral of Phi ln Phi with 0 ln 0 = 0 (differential entropy at
        unit mass)."""
        return -self.integrate(np.log(np.where(self.values > 0.0, self.values, 1.0)))


def gaussian_grid_density(mean, cov, lo, hi, nodes) -> DensityPath:
    """N(mean, cov) sampled on the box (lo, hi and nodes are m-sequences,
    m <= 2).  Raises unless its trapezoid mass is 1 to 1e-8."""
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    phi = DensityPath(None, lo, hi, _gaussian_pdf(_points(_axes(lo, hi, nodes)), mean, cov))
    if abs(phi.integrate() - 1.0) > 1e-8:
        raise ValueError("Gaussian density's trapezoid mass differs from 1 beyond 1e-8")
    return phi


def solve_mean_state_path(spec: PopulationSpec, mf: MeanFieldSolution, k: int,
                          grid: TimeGrid, mean_shift: float | np.ndarray = 0.0,
                          mu_path: np.ndarray | None = None):
    """Deterministic mean state path of the limiting dynamics.

    With mu_path tabulated (nodes, m) the drift uses it directly (cubic
    interpolation at RK4 half-steps), dx/dt = A x + g(t); otherwise the
    equilibrium feedback plus the constant mean_shift drives the state,
    dx/dt = (A - B gain) x + g(t).  Either way one call of the linear RK4
    kernel, with g tabulated on the doubled grid from the solved mean field
    and, under the feedback, from the policy record on that grid.
    Returns (state trajectory, realized control-mean trajectory).
    """
    p = spec.subpops[k]
    shift = np.broadcast_to(np.atleast_1d(np.asarray(mean_shift, dtype=float)),
                            (p.m,)).astype(float)
    half = TimeGrid(grid.t0, grid.t1, 2 * grid.steps)
    ts_half = half.times()
    xbar_half = mf.xbar.interp(ts_half)
    g = (xbar_half @ spec.Fbar(k).T + mf.mubar.interp(ts_half) @ spec.Hbar(k).T
         + p.b(ts_half))

    if mu_path is not None:
        # imported here: scipy.interpolate costs every importer of the CLI ~0.4 s
        from scipy.interpolate import CubicSpline
        mus = np.asarray(mu_path, dtype=float)
        g += CubicSpline(grid.times(), mus, axis=0)(ts_half) @ p.B.T
        xtraj = rk4_linear_tabulated(p.A, g, spec.x0_mean, grid)
    else:
        pol = tabulate_policy(spec, k, mf.Pi[k].Pi, half, mf.s[k].interp(ts_half), xbar_half)
        open_loop = shift + pol.offset          # the control mean less its feedback
        g += open_loop @ p.B.T
        xtraj = rk4_linear_tabulated(p.A - p.B @ pol.gain, g, spec.x0_mean, grid)
        mus = -(xtraj.values @ pol.gain.T) + open_loop[::2]
    return xtraj, Trajectory(grid, mus)


def equilibrium_density_path(spec: PopulationSpec, mf: MeanFieldSolution, k: int,
                             grid: TimeGrid, nodes: int = 401,
                             mean_shift: float = 0.0, cov_scale: float = 1.0):
    """Gaussian density path along the deterministic mean path (m = 1), on
    a box reaching 8 standard deviations past the extreme means.

    Supports the mean-shifted / variance-scaled test families; the state
    path is re-solved under the shifted mean so it stays consistent with
    the density means.  Returns (DensityPath, state Trajectory).
    """
    p = spec.subpops[k]
    if p.m != 1:
        raise ValueError("equilibrium density path implemented for m = 1")
    cov = exploration_covariance(p, cov_scale)
    if cov[0, 0] <= 0:
        raise ValueError("needs lambda_explore > 0")
    xtraj, mu = solve_mean_state_path(spec, mf, k, grid, mean_shift=mean_shift)
    reach = 8.0 * math.sqrt(cov[0, 0])
    lo, hi = mu.values.min(axis=0) - reach, mu.values.max(axis=0) + reach
    vals = _gaussian_pdf(_points(_axes(lo, hi, (nodes,))), mu.values[:, None, :], cov)
    return DensityPath(grid, lo, hi, vals), xtraj


def perturb_density(phi: DensityPath, omega: np.ndarray, eps: float) -> DensityPath:
    """Multiplicative perturbation e^(eps omega(u)) phi(u) along a finite
    direction omega tabulated on phi's nodes; unnormalizes."""
    omega = np.asarray(omega, dtype=float)
    if omega.shape != phi.values.shape:
        raise ValueError("direction values must match the density grid")
    if not np.all(np.isfinite(omega)):
        raise ValueError("direction must have finite values")
    with np.errstate(over="ignore"):
        vals = phi.values * np.exp(eps * omega)
    if not np.all(np.isfinite(vals)):
        raise OverflowError("perturbation overflowed the density values")
    return DensityPath(phi.grid, phi.lo, phi.hi, vals)


def mass_neutral(omega_vals: np.ndarray, phi_path: DensityPath) -> np.ndarray:
    """Center a direction against the density at each time so the perturbed
    mass is unchanged to first order (tangent to the unit-mass manifold)."""
    proj = phi_path.integrate(omega_vals) / phi_path.integrate()
    return omega_vals - proj[(...,) + (None,) * phi_path.m]


def exploratory_cost_quadrature(density_path: DensityPath, state_path: Trajectory,
                                mf: MeanFieldSolution, k: int,
                                spec: PopulationSpec, grid: TimeGrid,
                                check_tol: float | None = 5e-2) -> float:
    """Discounted exploratory cost along a deterministic state path, with
    every action integral done by tensor trapezoid quadrature.

    Includes the Lagrange term phi_k (integral Phi - 1), which vanishes for
    normalized densities, and the entropy charge lambda * integral Phi ln
    Phi.  With check_tol set, the state path is verified (to first order,
    by central differences) to follow the limiting dynamics driven by the
    density's raw mean.
    """
    p = spec.subpops[k]
    if density_path.m != p.m:
        raise ValueError("density grid dimension does not match the control dimension")
    ts = grid.times()
    mean1 = density_path.first_moment()           # (nodes, m), raw

    x = state_path.values
    xbar_t = mf.xbar.interp(ts)
    ybar = xbar_t @ spec.psibar(k).T
    e = x - ybar

    if check_tol is not None:
        drift = (x @ p.A.T + xbar_t @ spec.Fbar(k).T
                 + mf.mubar.interp(ts) @ spec.Hbar(k).T + mean1 @ p.B.T + p.b(ts))
        slope = (x[2:] - x[:-2]) / (2.0 * grid.dt)
        defect = np.max(np.abs(slope - drift[1:-1]))
        scale = 1.0 + np.max(np.abs(drift))
        if defect > check_tol * scale:
            raise ValueError(
                f"state path inconsistent with density means (defect {defect:.3g})")

    running = (0.5 * np.einsum("ti,ij,tj->t", e, p.Q, e)
               + e @ p.eta
               + p.phi_lagrange * (density_path.integrate() - 1.0)
               + np.einsum("ti,ij,tj->t", e, p.S, mean1)
               + density_path.quad_form(p.R)
               + mean1 @ p.nvec
               - p.lambda_explore * density_path.entropy())
    return float(running @ (np.exp(-spec.rho * ts) * trapezoid_weights(ts.size, grid.dt)))


def gateaux_derivative(phi_path: DensityPath, omega_vals: np.ndarray,
                       mf: MeanFieldSolution, k: int, spec: PopulationSpec,
                       eps: float = 1e-4) -> float:
    """Central finite-difference directional derivative of the exploratory
    cost at phi_path in the direction omega (values tabulated on the same
    (time, box) grid).

    Each perturbed cost re-solves the deterministic state path driven by the
    perturbed density's raw mean, with the mean field frozen at the solved
    equilibrium; scalar controls only.
    """
    if spec.subpops[k].m != 1:
        raise ValueError("directional derivative implemented for m = 1")
    grid = phi_path.grid
    costs = []
    for sign in (+1.0, -1.0):
        pert = perturb_density(phi_path, omega_vals, sign * eps)
        xtraj, _ = solve_mean_state_path(spec, mf, k, grid, mu_path=pert.first_moment())
        costs.append(exploratory_cost_quadrature(pert, xtraj, mf, k, spec, grid,
                                                 check_tol=None))
    return (costs[0] - costs[1]) / (2.0 * eps)
