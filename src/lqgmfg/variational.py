"""Quadrature representation of control densities on a bounded action box,
the entropy-regularized exploratory cost functional, multiplicative density
perturbations, and a finite-difference directional-derivative check of the
first-order optimality condition.

Everything here is desk-scale machinery: tensor-product trapezoid rules on
an action box of +-8 standard deviations (Gaussian tail mass < 1e-15
outside), restricted to control dimension m <= 2, and evaluated along the
deterministic mean state path with the mean field frozen at the solved
equilibrium.  The functional is strictly convex in the density, so the
derivative at the optimal Gaussian vanishes for every mass-neutral
direction; the Lagrange weight phi_k prices mass violations of
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
    "GridDensity",
    "Direction",
    "DensityPath",
    "gaussian_grid_density",
    "solve_mean_state_path",
    "equilibrium_density_path",
    "perturb_density",
    "exploratory_cost_quadrature",
    "gateaux_derivative",
    "mass_neutral",
]


def _axes(lo: np.ndarray, hi: np.ndarray, nodes: tuple[int, ...]):
    return [np.linspace(lo[d], hi[d], nodes[d]) for d in range(len(nodes))]


@dataclass
class _Box:
    lo: np.ndarray
    hi: np.ndarray
    nodes: tuple[int, ...]

    def __post_init__(self):
        self.lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        self.nodes = tuple(int(v) for v in np.atleast_1d(self.nodes))
        if len(self.nodes) != self.lo.size or self.lo.size != self.hi.size:
            raise ValueError("box bounds and node counts disagree")
        if self.m > 2:
            raise ValueError("quadrature restricted to m <= 2")

    @property
    def m(self) -> int:
        return self.lo.size

    def axes(self):
        return _axes(self.lo, self.hi, self.nodes)

    def weights(self):
        return [trapezoid_weights(ax.size, ax[1] - ax[0]) for ax in self.axes()]

    def integrate(self, values: np.ndarray) -> np.ndarray:
        """Tensor trapezoid over the trailing box axes (leading axes kept)."""
        ws = self.weights()
        out = values
        for w in reversed(ws):
            out = out @ w
        return out

    def first_moment(self, values: np.ndarray) -> np.ndarray:
        """Raw first moment over the box (leading axes kept, output (..., m))."""
        axes = self.axes()
        ws = self.weights()
        if self.m == 1:
            return (values @ (axes[0] * ws[0]))[..., None]
        u1, u2 = axes
        w1, w2 = ws
        m1 = ((values * u1[:, None]) @ w2) @ w1
        m2 = (values @ (u2 * w2)) @ w1
        return np.stack([m1, m2], axis=-1)

    def quad_form(self, values: np.ndarray, R: np.ndarray) -> np.ndarray:
        """integral of 0.5 u^T R u against the values (leading axes kept)."""
        axes = self.axes()
        ws = self.weights()
        if self.m == 1:
            g = 0.5 * R[0, 0] * axes[0] ** 2
            return values @ (g * ws[0])
        u1, u2 = np.meshgrid(axes[0], axes[1], indexing="ij")
        g = 0.5 * (R[0, 0] * u1 ** 2 + 2.0 * R[0, 1] * u1 * u2 + R[1, 1] * u2 ** 2)
        return ((values * g) @ ws[1]) @ ws[0]

    def xlogx(self, values: np.ndarray) -> np.ndarray:
        """integral of values * ln(values) with 0 ln 0 = 0."""
        safe = np.where(values > 0.0, values, 1.0)
        return self.integrate(values * np.log(safe))


@dataclass
class GridDensity:
    """Nonnegative weights on an action box; `normalized` asserts unit mass."""

    lo: np.ndarray
    hi: np.ndarray
    values: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        self.lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        self.values = np.asarray(self.values, dtype=float)
        if np.any(self.values < 0):
            raise ValueError("density values must be nonnegative")
        if self.normalized and abs(self.integral() - 1.0) > 1e-8:
            raise ValueError("density marked normalized but its trapezoid "
                             "integral differs from 1 beyond 1e-8")

    @property
    def box(self) -> _Box:
        return _Box(self.lo, self.hi, self.values.shape)

    def integral(self) -> float:
        return float(self.box.integrate(self.values))

    def mean(self) -> np.ndarray:
        """Raw (unnormalized) first moment."""
        return self.box.first_moment(self.values)

    def entropy(self) -> float:
        """-integral of values ln values (differential entropy if normalized)."""
        return -float(self.box.xlogx(self.values))


@dataclass
class Direction:
    """Bounded perturbation direction omega(u) on the same grid."""

    lo: np.ndarray
    hi: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("direction must have finite values")


@dataclass
class DensityPath:
    """Density values per time node: values.shape = (nodes_t, *box nodes)."""

    grid: TimeGrid
    lo: np.ndarray
    hi: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape[0] != self.grid.steps + 1:
            raise ValueError("density path length does not match the time grid")

    @property
    def box(self) -> _Box:
        return _Box(self.lo, self.hi, self.values.shape[1:])

    def slice(self, i: int) -> GridDensity:
        return GridDensity(self.lo, self.hi, self.values[i])


def gaussian_grid_density(mean, cov, lo, hi, nodes) -> GridDensity:
    """Gaussian pdf sampled on the box (m <= 2)."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    box = _Box(lo, hi, nodes)
    axes = box.axes()
    if box.m == 1:
        var = cov[0, 0]
        vals = np.exp(-0.5 * (axes[0] - mean[0]) ** 2 / var) / math.sqrt(2 * math.pi * var)
    else:
        u1, u2 = np.meshgrid(axes[0], axes[1], indexing="ij")
        diff = np.stack([u1 - mean[0], u2 - mean[1]], axis=-1)
        P = np.linalg.inv(cov)
        q = np.einsum("...i,ij,...j->...", diff, P, diff)
        det = np.linalg.det(cov)
        vals = np.exp(-0.5 * q) / (2 * math.pi * math.sqrt(det))
    return GridDensity(box.lo, box.hi, vals, normalized=True)


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
                             mean_shift: float = 0.0, cov_scale: float = 1.0,
                             box_sigmas: float = 8.0):
    """Gaussian density path along the deterministic mean path (m = 1).

    Supports the mean-shifted / variance-scaled test families; the state
    path is re-solved under the shifted mean so it stays consistent with
    the density means.  Returns (DensityPath, state Trajectory).
    """
    p = spec.subpops[k]
    if p.m != 1:
        raise ValueError("equilibrium density path implemented for m = 1")
    var = exploration_covariance(p, cov_scale)[0, 0]
    if var <= 0:
        raise ValueError("needs lambda_explore > 0")
    xtraj, mu = solve_mean_state_path(spec, mf, k, grid, mean_shift=mean_shift)
    mus = mu.values[:, 0]
    sig = math.sqrt(var)
    lo = np.array([mus.min() - box_sigmas * sig])
    hi = np.array([mus.max() + box_sigmas * sig])
    ax = np.linspace(lo[0], hi[0], nodes)
    vals = np.exp(-0.5 * (ax[None, :] - mus[:, None]) ** 2 / var) / math.sqrt(2 * math.pi * var)
    return DensityPath(grid, lo, hi, vals), xtraj


def perturb_density(phi: GridDensity, omega: Direction, eps: float) -> GridDensity:
    """Multiplicative perturbation e^(eps omega(u)) phi(u); unnormalizes."""
    with np.errstate(over="ignore"):
        vals = phi.values * np.exp(eps * omega.values)
    if not np.all(np.isfinite(vals)):
        raise OverflowError("perturbation overflowed the density values")
    return GridDensity(phi.lo, phi.hi, vals, normalized=False)


def mass_neutral(omega_vals: np.ndarray, phi_path: DensityPath) -> np.ndarray:
    """Center a direction against the density at each time so the perturbed
    mass is unchanged to first order (tangent to the unit-mass manifold)."""
    box = phi_path.box
    mass = box.integrate(phi_path.values)
    proj = box.integrate(phi_path.values * omega_vals) / mass
    return omega_vals - proj.reshape(proj.shape + (1,) * (omega_vals.ndim - 1))


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
    box = density_path.box
    if box.m != p.m:
        raise ValueError("density grid dimension does not match the control dimension")
    ts = grid.times()
    vals = density_path.values
    mass = box.integrate(vals)
    mean1 = box.first_moment(vals)           # (nodes, m), raw
    quadR = box.quad_form(vals, p.R)
    ent = box.xlogx(vals)

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
               + p.phi_lagrange * (mass - 1.0)
               + np.einsum("ti,ij,tj->t", e, p.S, mean1)
               + quadR
               + mean1 @ p.nvec
               + p.lambda_explore * ent)
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
    p = spec.subpops[k]
    if p.m != 1:
        raise ValueError("directional derivative implemented for m = 1")
    box = phi_path.box
    grid = phi_path.grid
    omega_vals = np.asarray(omega_vals, dtype=float)
    if omega_vals.shape != phi_path.values.shape:
        raise ValueError("direction values must match the density path grid")

    costs = []
    for sign in (+1.0, -1.0):
        vals = phi_path.values * np.exp(sign * eps * omega_vals)
        if not np.all(np.isfinite(vals)):
            raise OverflowError("perturbation overflowed the density values")
        pert = DensityPath(grid, phi_path.lo, phi_path.hi, vals)
        mu_eps = box.first_moment(vals)
        xtraj, _ = solve_mean_state_path(spec, mf, k, grid, mu_path=mu_eps)
        costs.append(exploratory_cost_quadrature(pert, xtraj, mf, k, spec, grid,
                                                 check_tol=None))
    return (costs[0] - costs[1]) / (2.0 * eps)
