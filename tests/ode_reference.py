"""Reference integrators kept for the tests: the generic fixed-step RK4
loop and the Riccati table the finite-horizon solve used before the exact
Hamiltonian one.  Neither is used by the package."""

from __future__ import annotations

import numpy as np

from lqgmfg.numerics import OdeBlowupError, TimeGrid, Trajectory


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


def rk4_riccati(params, rho: float, Pi_T: np.ndarray, grid: TimeGrid) -> Trajectory:
    """Backward RK4 of the matrix Riccati ODE with Pi(grid.t1) = Pi_T, every
    stored Pi(t) symmetrized."""
    A, B, Q, R, S = params.A, params.B, params.Q, params.R, params.S

    def rhs(_t, Pi):
        G = Pi @ B + S
        d = rho * Pi - Pi @ A - A.T @ Pi + G @ np.linalg.solve(R, G.T) - Q
        # an exactly symmetric slope keeps Pi symmetric on long horizons
        return 0.5 * (d + d.T)

    traj = integrate_ode(rhs, np.atleast_2d(np.asarray(Pi_T, dtype=float)), grid, "backward")
    traj.values = 0.5 * (traj.values + np.transpose(traj.values, (0, 2, 1)))
    return traj
