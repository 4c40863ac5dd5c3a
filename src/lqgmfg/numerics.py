"""Shared numerical kernels: fixed-step RK4 integration, spectral checks,
Gaussian sampling, and log-log rate fitting.

All solvers in this package run on fixed, uniform time grids.  Fixed-step
RK4 (rather than an adaptive integrator) keeps every run deterministic and
bit-reproducible, which the simulation experiments rely on; the systems
solved here are linear with stiffness bounded by verified spectral margins,
so adaptivity buys nothing.

The linear kernels (``rk4_linear_tabulated``, ``rk4_linear_time_varying``)
share one implementation with no per-step Python loop.  For dy/dt = M y + g
each RK4 step is an affine map y -> P_i y + c_i, with P_i the RK4 polynomial
in hM and c_i set by the step's three tabulated g values; all step maps are
built at once with batched matmuls and composed by a log-depth prefix scan
(Hillis-Steele; Blelloch, "Prefix sums and their applications", 1990).  The
result is the same fixed-step RK4 as a sequential loop up to the order of
rounding, and still bit-reproducible from one run to the next.

RNG convention used throughout the package (``RNG_SCHEME``): every random
stream is named by a user seed and a key of small integers (a repetition, an
episode) and drawn from ``rng_stream(seed, *key)``, NumPy's
``SeedSequence(seed, spawn_key=key)`` -- the child that
``SeedSequence(seed).spawn`` hands out -- feeding a PCG64 generator.  Streams
of different (seed, key) pairs are statistically independent; agents are
rows of one stream, in a fixed order, so coupled experiments (common random
numbers) still replay the exact same noise per agent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

_SEED_MASK = (1 << 64) - 1
RNG_SCHEME = "SeedSequence(seed, spawn_key=key)/PCG64"


class OdeBlowupError(RuntimeError):
    """Raised when an ODE trajectory leaves the finite range."""

    def __init__(self, t: float, message: str | None = None):
        self.t = t
        super().__init__(message or f"ODE blow-up at t={t:.6g}")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [t0, t1] with `steps` intervals (steps+1 nodes)."""

    t0: float
    t1: float
    steps: int

    def __post_init__(self):
        if not self.t1 > self.t0:
            raise ValueError(f"TimeGrid requires t1 > t0, got [{self.t0}, {self.t1}]")
        if self.steps < 1:
            raise ValueError("TimeGrid requires at least one step")

    @property
    def dt(self) -> float:
        return (self.t1 - self.t0) / self.steps

    @property
    def n_nodes(self) -> int:
        return self.steps + 1

    def times(self) -> np.ndarray:
        return np.linspace(self.t0, self.t1, self.steps + 1)

    def contains(self, t: float) -> bool:
        eps = 1e-12 * (1.0 + abs(self.t0) + abs(self.t1))
        return self.t0 - eps <= t <= self.t1 + eps


@dataclass
class Trajectory:
    """Values sampled on a TimeGrid; values.shape[0] == steps + 1.

    The payload may be vectors (nodes, d) or matrices (nodes, d, d).
    """

    grid: TimeGrid
    values: np.ndarray
    _spline: CubicSpline | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape[0] != self.grid.steps + 1:
            raise ValueError(
                f"trajectory has {self.values.shape[0]} samples, grid expects {self.grid.steps + 1}"
            )

    def at(self, i: int) -> np.ndarray:
        return self.values[i]

    def interp(self, t: float | np.ndarray) -> np.ndarray:
        """Linear interpolation between grid nodes; errors outside the grid."""
        g = self.grid
        tarr = np.asarray(t, dtype=float)
        if np.any(tarr < g.t0 - 1e-12) or np.any(tarr > g.t1 + 1e-12):
            raise ValueError(f"t={t} outside solved grid [{g.t0}, {g.t1}]")
        pos = np.clip((tarr - g.t0) / g.dt, 0.0, g.steps)
        i0 = np.minimum(pos.astype(int), g.steps - 1)
        w = pos - i0
        if tarr.ndim == 0:
            return (1.0 - w) * self.values[int(i0)] + w * self.values[int(i0) + 1]
        w = w.reshape((-1,) + (1,) * (self.values.ndim - 1))
        return (1.0 - w) * self.values[i0] + w * self.values[i0 + 1]

    def spline(self) -> CubicSpline:
        """Cubic interpolant (cached); used to keep tabulated drivers at RK4 order."""
        if self._spline is None:
            self._spline = CubicSpline(self.grid.times(), self.values, axis=0)
        return self._spline

    def half_grid_values(self) -> np.ndarray:
        """Values on the doubled grid t0, t0+dt/2, ..., t1 (2*steps+1 nodes)."""
        g = self.grid
        ts = np.linspace(g.t0, g.t1, 2 * g.steps + 1)
        return self.spline()(ts)


def integrate_ode(rhs, y0, grid: TimeGrid, direction: str = "forward") -> Trajectory:
    """Classical fixed-step RK4 for dy/dt = rhs(t, y) on the given grid.

    direction='backward' integrates from t1 down to t0 with y(t1) = y0;
    the returned trajectory is always stored in ascending time order.
    Raises OdeBlowupError on non-finite intermediate values.
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"unknown direction {direction!r}")
    y = np.asarray(y0, dtype=float).copy()
    ts = grid.times()
    out = np.empty((grid.steps + 1,) + y.shape)
    h = grid.dt if direction == "forward" else -grid.dt
    idx = range(grid.steps) if direction == "forward" else range(grid.steps, 0, -1)
    start = 0 if direction == "forward" else grid.steps
    out[start] = y
    with np.errstate(over="ignore", invalid="ignore"):
        for i in idx:
            t = ts[i]
            k1 = rhs(t, y)
            k2 = rhs(t + h / 2.0, y + (h / 2.0) * k1)
            k3 = rhs(t + h / 2.0, y + (h / 2.0) * k2)
            k4 = rhs(t + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(y)):
                raise OdeBlowupError(t + h)
            j = i + 1 if direction == "forward" else i - 1
            out[j] = y
    return Trajectory(grid, out)


def rk4_linear_tabulated(M: np.ndarray, g_half: np.ndarray, y0: np.ndarray,
                         grid: TimeGrid, direction: str = "forward") -> Trajectory:
    """RK4 for the linear system dy/dt = M y + g(t) with constant M and g
    tabulated on the doubled grid (2*steps+1 nodes, so midpoint values are
    exact inputs).

    This is the fast path used by the consistency solver: the driving terms
    are supplied on half-steps (from a cubic interpolant of the iterate), so
    the integration keeps its fourth-order accuracy without per-step
    interpolant calls.  Each step's map y -> P y + c_i has P the RK4
    polynomial in hM; see ``_rk4_linear`` for how the steps are combined.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError("M must be a constant square matrix")
    return _rk4_linear(M, g_half, y0, grid, direction)


def rk4_linear_time_varying(M_half: np.ndarray, g_half: np.ndarray, y0: np.ndarray,
                            grid: TimeGrid, direction: str = "forward") -> Trajectory:
    """RK4 for dy/dt = M(t) y + g(t) with both M and g tabulated on the
    doubled grid (2*steps+1 nodes).  Same step maps and scan as
    ``rk4_linear_tabulated``, with M read at each step's three nodes."""
    M_half = np.asarray(M_half, dtype=float)
    if M_half.shape[0] != 2 * grid.steps + 1:
        raise ValueError("M_half must be tabulated on the doubled grid")
    return _rk4_linear(M_half, g_half, y0, grid, direction)


def _rk4_linear(M: np.ndarray, g_half: np.ndarray, y0: np.ndarray,
                grid: TimeGrid, direction: str) -> Trajectory:
    """Classical RK4 for dy/dt = M(t) y + g(t), all steps at once.

    In homogeneous coordinates the system is z' = N(t) z with z = (y, 1) and
    N = [[M, g], [0, 0]], so one RK4 step is the (d+1)x(d+1) matrix
    Phi_i = [[P_i, c_i], [0, 1]], the RK4 polynomial in h N over the step's
    three nodes.  All Phi_i are built with batched matmuls; a Hillis-Steele
    inclusive scan (ceil(log2 steps) batched passes) then forms the prefix
    products Phi_i ... Phi_0, whose action on (y0, 1) gives every node.

    ``M`` is constant (d, d) or tabulated (2*steps+1, d, d); the backward
    direction runs the doubled grid reversed with h = -dt.  Raises
    OdeBlowupError at the first node, in integration order, that is not
    finite.
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"unknown direction {direction!r}")
    steps = grid.steps
    g_half = np.asarray(g_half, dtype=float)
    if g_half.shape[0] != 2 * steps + 1:
        raise ValueError("g_half must be tabulated on the doubled grid")
    y0 = np.asarray(y0, dtype=float)
    d = y0.shape[0]
    h = grid.dt
    if direction == "backward":
        h = -h
        g_half = g_half[::-1]
        if M.ndim == 3:
            M = M[::-1]

    N = np.zeros((2 * steps + 1, d + 1, d + 1))
    N[:, :d, :d] = M
    N[:, :d, d] = g_half
    Na, Nm, Nb = N[0:-1:2], N[1::2], N[2::2]
    eye = np.eye(d + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        # phi = I + h/6 (k1 + 2 k2 + 2 k3 + k4), accumulated in place so only
        # one stage array is alive at a time
        phi = Na.copy()
        k = Nm @ (eye + (h / 2.0) * Na)
        phi += 2.0 * k
        k = Nm @ (eye + (h / 2.0) * k)
        phi += 2.0 * k
        phi += Nb @ (eye + h * k)
        phi *= h / 6.0
        phi += eye
        shift = 1
        while shift < steps:
            phi[shift:] = phi[shift:] @ phi[:-shift]
            shift *= 2
        y = phi[:, :d, :d] @ y0 + phi[:, :d, d]

    finite = np.isfinite(y).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite)) + 1              # steps to the first bad node
        node = i if direction == "forward" else steps - i
        raise OdeBlowupError(float(grid.times()[node]))
    out = np.concatenate([y0[None, :], y])
    if direction == "backward":
        out = np.ascontiguousarray(out[::-1])
    return Trajectory(grid, out)


def spectral_abscissa(M: np.ndarray) -> float:
    """Max real part of the eigenvalues of a square matrix."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"spectral_abscissa needs a square matrix, got shape {M.shape}")
    try:
        eigs = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise RuntimeError(f"eigen-solver failure: {exc}") from exc
    return float(np.max(eigs.real))


def cholesky_psd(cov: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric PSD matrix.

    Escalates a diagonal jitter up to 1e-12 * trace before failing; exact
    zero matrices factor to zero.  Near-singular covariances (tiny
    exploration weights) are the motivating case.
    """
    cov = np.asarray(cov, dtype=float)
    d = cov.shape[0]
    if cov.shape != (d, d):
        raise ValueError(f"covariance must be square, got {cov.shape}")
    sym_err = np.max(np.abs(cov - cov.T)) if d else 0.0
    if sym_err > 1e-10 * (1.0 + np.max(np.abs(cov))):
        raise ValueError("covariance not symmetric")
    if not np.any(cov):
        return np.zeros_like(cov)
    covs = 0.5 * (cov + cov.T)
    tr = float(np.trace(covs))
    for jitter in (0.0, 1e-16 * tr, 1e-14 * tr, 1e-12 * tr):
        try:
            return np.linalg.cholesky(covs + jitter * np.eye(d))
        except np.linalg.LinAlgError:
            continue
    raise ValueError("covariance not positive semidefinite")


def sample_gaussian(mean, cov, rng: np.random.Generator, size: int | None = None):
    """Draw mean + L z with L the (jittered) Cholesky factor of cov.

    cov == 0 returns the mean exactly (degenerate Gaussian).  With `size`,
    returns an array of shape (size, d).
    """
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    d = mean.shape[0]
    if cov.shape != (d, d):
        raise ValueError(f"cov shape {cov.shape} incompatible with mean dim {d}")
    L = cholesky_psd(cov)
    if size is None:
        z = rng.standard_normal(d)
        return mean + L @ z
    z = rng.standard_normal((size, d))
    return mean[None, :] + z @ L.T


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """The stream named by (seed, *key), independent of every other pair.

    The key goes into the spawn key, not next to the seed in the entropy
    list: ``SeedSequence([s, 0])`` is the same stream as ``SeedSequence(s)``,
    and ``SeedSequence([2**32 + 1, 0])`` the same as ``SeedSequence([1, 1])``.
    A negative seed is taken modulo 2**64.
    """
    return np.random.default_rng(np.random.SeedSequence(
        int(seed) & _SEED_MASK, spawn_key=tuple(int(k) for k in key)))


def fit_rate(xs, ys) -> float:
    """OLS slope of log(ys) against log(xs); needs >= 3 strictly positive ys."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("xs and ys must be 1-d arrays of equal length")
    if xs.size < 3:
        raise ValueError("rate fit needs at least 3 points")
    if np.any(ys <= 0.0) or np.any(xs <= 0.0):
        raise ValueError("rate fit needs strictly positive xs and ys")
    slope, _ = np.polyfit(np.log(xs), np.log(ys), 1)
    return float(slope)
