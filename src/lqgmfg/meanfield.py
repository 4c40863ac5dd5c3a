"""Mean-field consistency system: feedback gains J and L, aggregate drift,
backward offset equations, and the direct solve of the fixed point.

The classical and exploratory consistency systems are the same mapping (the
exploratory means replace the classical controls one-for-one), so a single
solver serves both; the ``system`` label exists only so callers can assert
the equivalence.

The system is affine in the mean path.  With mubar = J xbar + L and
L = -U s - l0 it is one linear ODE in z = (s_1, ..., s_K, xbar),

  dz/dt = Acal(t) z + f(t),   xbar(0) = (xi, ..., xi),   s(T) = s_T,

whose s rows are the backward offset equations and whose xbar rows are the
forward mean dynamics (``stacked_system``).  It is a two-point boundary
value problem, solved in one pass by the split-boundary mode of the RK4
kernel (``solve_stacked``), as in Huang, Caines & Malhame (IEEE TAC 2007)
and Bensoussan, Sung, Yam & Yung (JOTA 2016); the same assembly gives the
algebraic steady state, Acal z + f = 0.  The infinite horizon is truncated
to [0, T] with T chosen so the discount factor and the slowest stable mode
decay below 1e-8, and s_T is the steady state; an aggregate drift without
the Assumption-4(ii) margin has no bounded solution and raises "diverged".

``consistency_blocks`` is the one place that builds the gain J and the
drift Abar from Pi (per type, ``TypeBlocks.L_row`` gives the offset L);
Pi is constant here and tabulated in time for the finite-horizon trading
solve, which calls ``solve_stacked`` too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag

from .model import PopulationSpec, SpecValidationError, selector_matrix, validate_spec
from .numerics import (OdeBlowupError, TimeGrid, Trajectory, rk4_linear_tabulated,
                       spectral_abscissa)
from .riccati import (RiccatiSolution, StabilityReport, feedback_gain,
                      solve_discounted_are, verify_stability)

__all__ = [
    "MeanFieldSolution",
    "ConsistencyError",
    "TypeBlocks",
    "consistency_blocks",
    "stacked_system",
    "solve_stacked",
    "steady_state",
    "solve_consistency",
    "consistency_residual",
    "stability_reports",
]

_DECAY_TARGET = math.log(1e8)
_RK4_STEP = 2.785 / 64.0    # auto grid: h * fastest rate <= 1/64 of RK4's real interval


class ConsistencyError(RuntimeError):
    pass


@dataclass
class MeanFieldSolution:
    """Fixed point of the consistency system on a common grid."""

    Pi: list[RiccatiSolution]
    s: list[Trajectory]
    J: np.ndarray
    L: Trajectory
    Abar: np.ndarray
    mbar: Trajectory
    xbar: Trajectory
    mubar: Trajectory
    residual: float
    iterations: int
    grid: TimeGrid
    spec: PopulationSpec

    def to_json_dict(self) -> dict:
        """The solution as a dict for ``numerics.write_json``; matrices and
        trajectories stay the solution's own arrays, not Python lists."""
        g = self.grid
        return {
            "grid": {"t0": g.t0, "t1": g.t1, "steps": g.steps},
            "Pi": [sol.Pi for sol in self.Pi],
            "riccati_residuals": [sol.residual for sol in self.Pi],
            "s": [traj.values for traj in self.s],
            "J": self.J,
            "L": self.L.values,
            "Abar": self.Abar,
            "mbar": self.mbar.values,
            "xbar": self.xbar.values,
            "mubar": self.mubar.values,
            "residual": self.residual,
            "iterations": self.iterations,
        }


class TypeBlocks:
    """Type k's blocks of the consistency equations, built from Pi_k.

    Pi is (n, n) for the stationary problem or a table (T, n, n) for a
    finite horizon; every block built from it carries the same leading axis.
    """

    def __init__(self, spec: PopulationSpec, k: int, Pi: np.ndarray):
        p = spec.subpops[k]
        Rinv = np.linalg.inv(p.R)
        Fb, Pb = spec.Fbar(k), spec.psibar(k)
        BRS = p.B @ Rinv @ p.S.T
        gain = feedback_gain(p, Pi)                          # R^-1 (B^T Pi + S^T)
        e_k = selector_matrix(k + 1, p.n, spec.K)
        self.params, self.Pi, self.Hbar = p, Pi, spec.Hbar(k)
        self.A_cl = p.A - p.B @ gain
        self.M = spec.rho * np.eye(p.n) - self.A_cl.mT      # ds/dt = M s - g(t)
        self.J_row = -gain @ e_k + Rinv @ p.S.T @ Pb         # (..., m, nK)
        self.Abar_own = self.A_cl @ e_k + BRS @ Pb + Fb      # Abar row block less Hbar J
        # g(t) = Cx xbar(t) + Cu mubar(t) + c0(t) drives the offset equation
        self.Cx = Pi @ (Fb + BRS @ Pb) + (p.S @ Rinv @ p.S.T - p.Q) @ Pb   # (..., n, nK)
        self.Cu = Pi @ self.Hbar                                             # (..., n, mK)
        self.U, self.l0 = Rinv @ p.B.T, Rinv @ p.nvec                        # L_k = -U s_k - l0
        self.c_const = -Pi @ (p.B @ (Rinv @ p.nvec)) - p.S @ (Rinv @ p.nvec) + p.eta

    def c0(self, ts: np.ndarray) -> np.ndarray:
        """Driver-independent part of g_k at times ts; with a tabulated Pi,
        ts holds one time per table row."""
        return (self.Pi @ self.params.b(ts)[..., None])[..., 0] + self.c_const

    def L_row(self, s_vals: np.ndarray) -> np.ndarray:
        """-R^-1 (B^T s(t) + n) for tabulated s values (nodes, n)."""
        return -(s_vals @ self.U.T + self.l0)


def _stack_Abar(blocks: list[TypeBlocks], J: np.ndarray) -> np.ndarray:
    return np.concatenate([b.Abar_own + b.Hbar @ J for b in blocks], axis=-2)


def consistency_blocks(spec: PopulationSpec, Pis):
    """Per-type blocks, the stacked gain J (..., mK, nK) and the aggregate
    drift Abar (..., nK, nK), from one Pi per type: a RiccatiSolution or an
    array of shape (n, n) or (T, n, n)."""
    blocks = [TypeBlocks(spec, k, Pi.Pi if isinstance(Pi, RiccatiSolution)
                         else np.asarray(Pi, dtype=float))
              for k, Pi in enumerate(Pis)]
    J = np.concatenate([b.J_row for b in blocks], axis=-2)
    return blocks, J, _stack_Abar(blocks, J)


def stacked_system(blocks: list[TypeBlocks], J: np.ndarray, Abar: np.ndarray,
                   ts: np.ndarray):
    """The consistency system as one linear ODE dz/dt = Acal z + f(t) in
    z = (s_1, ..., s_K, xbar), of dimension 2nK.

    Substituting mubar = J xbar + L and L = -U s - l0 (U block-diagonal in
    R_k^-1 B_k^T, l0 stacked R_k^-1 n_k) gives the s_k rows
    (M_k + Cu_k U, -(Cx_k + Cu_k J)) with f = Cu_k l0 - c0_k, and the xbar
    rows (-B R^-1 B^T - Hbar U, Abar) with f = b - B R^-1 n - Hbar l0.
    Acal carries the leading axis of the blocks (none for a constant Pi, one
    per entry of ts for a tabulated one); f is (len(ts), 2nK).
    """
    n, N = blocks[0].params.n, Abar.shape[-1]
    U = block_diag(*[o.U for o in blocks])
    l0 = np.concatenate([o.l0 for o in blocks])
    H = np.vstack([o.Hbar for o in blocks])
    A = np.zeros(Abar.shape[:-2] + (2 * N, 2 * N))
    f = np.zeros((len(ts), 2 * N))
    for k, o in enumerate(blocks):
        s_k, x_k = slice(k * n, (k + 1) * n), slice(N + k * n, N + (k + 1) * n)
        A[..., s_k, :N] = o.Cu @ U
        A[..., s_k, s_k] += o.M
        A[..., s_k, N:] = -(o.Cx + o.Cu @ J)
        A[..., x_k, s_k] = -o.params.B @ o.U
        f[:, s_k] = o.Cu @ l0 - o.c0(ts)
        f[:, x_k] = o.params.b(ts) - o.params.B @ o.l0
    A[..., N:, :N] -= H @ U
    A[..., N:, N:] = Abar
    f[:, N:] -= H @ l0
    return A, f


def _drift_offset(A: np.ndarray, f: np.ndarray, s_vals: np.ndarray) -> np.ndarray:
    """mbar(t), the xbar rows of the stacked system less Abar xbar, at the
    nodes of s_vals (A constant or tabulated on the same nodes as f)."""
    N = s_vals.shape[-1]
    return (A[..., N:, :N] @ s_vals[..., None])[..., 0] + f[:, N:]


def solve_stacked(spec: PopulationSpec, blocks: list[TypeBlocks], J: np.ndarray,
                  Abar: np.ndarray, grid: TimeGrid, s_T: np.ndarray, kernel):
    """Solve the stacked system on ``grid`` with xbar(0) = (xi, ..., xi) and
    s(T) = s_T, by one split-boundary call of ``kernel``
    (``rk4_linear_tabulated`` for constant blocks, ``rk4_linear_time_varying``
    for blocks tabulated on the doubled grid).

    Returns (s trajectories, L, mbar, xbar, mubar).  A non-finite value or
    a singular boundary system raises ConsistencyError('... diverged ...').
    """
    ts_half = np.linspace(grid.t0, grid.t1, 2 * grid.steps + 1)
    A, f = stacked_system(blocks, J, Abar, ts_half)
    N = Abar.shape[-1]
    pins = np.concatenate([s_T, np.tile(spec.x0_mean, spec.K)])
    try:
        z = kernel(A, f, pins, grid, n_far=N).values
    except (OdeBlowupError, np.linalg.LinAlgError) as exc:
        raise ConsistencyError(f"consistency system diverged ({exc})") from exc
    n = spec.n
    s_trajs = [Trajectory(grid, z[:, k * n:(k + 1) * n]) for k in range(spec.K)]
    L_vals = np.hstack([o.L_row(tr.values) for o, tr in zip(blocks, s_trajs)])
    xbar = z[:, N:]
    J_nodes, A_nodes = (J, A) if J.ndim == 2 else (J[::2], A[::2])
    mubar = (J_nodes @ xbar[..., None])[..., 0] + L_vals
    mbar = _drift_offset(A_nodes, f[::2], z[:, :N])
    return (s_trajs, Trajectory(grid, L_vals), Trajectory(grid, mbar),
            Trajectory(grid, xbar), Trajectory(grid, mubar))


def steady_state(spec: PopulationSpec, Pis=None):
    """Constant solution of the consistency system: Acal z + f = 0 on the
    stacked assembly, with b evaluated at its final table value.  A singular
    system raises 'steady state undefined'.  Returns (s_inf per type,
    xbar_inf)."""
    if Pis is None:
        Pis = [solve_discounted_are(spec.subpops[k], spec.rho) for k in range(spec.K)]
    A, f = stacked_system(*consistency_blocks(spec, Pis), np.asarray([np.inf]))
    try:
        z = np.linalg.solve(A, -f[0])
    except np.linalg.LinAlgError as exc:
        raise ConsistencyError("steady state undefined (singular system)") from exc
    n, N = spec.n, spec.n * spec.K
    return [z[k * n:(k + 1) * n] for k in range(spec.K)], z[N:]


def _auto_grid(spec: PopulationSpec, ops, Abar, horizon: float | None,
               steps: int | None) -> TimeGrid:
    """[0, T] with T the given horizon or set by the slowest decay; the
    given steps, or h = 0.01 (at most 30,000 steps), or less where h times
    the fastest rate of the offset blocks M_k or Abar would pass 1/64 of
    RK4's stability interval (at most 2^21)."""
    if horizon is not None:
        T = float(horizon)
    else:
        rates = [spec.rho]
        for o in ops:
            a = spectral_abscissa(o.A_cl)
            if a < 0:
                rates.append(-a)
        a_bar = spectral_abscissa(Abar)
        if a_bar < 0:
            rates.append(-a_bar)
        T = _DECAY_TARGET / min(rates)
        T = min(max(T, 10.0), 500.0)
    if steps is not None:
        return TimeGrid(0.0, T, steps)
    fastest = max(np.abs(np.linalg.eigvals(M)).max() for M in [o.M for o in ops] + [Abar])
    steps = max(min(math.ceil(T / 0.01), 30000), math.ceil(T * fastest / _RK4_STEP))
    return TimeGrid(0.0, T, min(steps, 2 ** 21))


def solve_consistency(spec: PopulationSpec, *, horizon: float | None = None,
                      steps: int | None = None,
                      system: str = "exploratory") -> MeanFieldSolution:
    """The consistency fixed point, solved directly (``solve_stacked``) with
    s(T) the algebraic steady state; ``iterations`` is 1.  The grid is
    [0, horizon] in ``steps`` steps, each chosen automatically when None.

    ``system`` may be 'classical' or 'exploratory'; both labels run the
    identical mapping (the exploratory system replaces controls by policy
    means, which coincide), so the outputs are bitwise equal.  Without the
    Assumption-4(ii) aggregate margin rho/2 - abscissa(Abar) > 0 the mean
    path is unbounded and the solve raises ConsistencyError('... diverged');
    so does a mean path past 1e8 (1 + |xi|), the mark of a step too coarse
    for RK4 on the closed-loop modes.
    """
    if system not in ("classical", "exploratory"):
        raise ValueError(f"unknown system label {system!r}")
    report = validate_spec(spec)
    if not report.ok:
        raise SpecValidationError(report)

    Pis = [solve_discounted_are(p, spec.rho) for p in spec.subpops]
    ops, J, Abar = consistency_blocks(spec, Pis)
    margin = spec.rho / 2.0 - spectral_abscissa(Abar)
    if not margin > 0:
        raise ConsistencyError(f"consistency system diverged: aggregate drift margin "
                               f"rho/2 - abscissa(Abar) = {margin:.3e} is not positive")
    grid = _auto_grid(spec, ops, Abar, horizon, steps)
    s_inf, _ = steady_state(spec, Pis)
    s_trajs, L, mbar, xbar, mubar = solve_stacked(spec, ops, J, Abar, grid,
                                                  np.concatenate(s_inf),
                                                  rk4_linear_tabulated)
    bound = 1e8 * (1.0 + float(np.max(np.abs(spec.x0_mean))))   # bounded under the margin
    if not np.max(np.abs(xbar.values)) <= bound:
        raise ConsistencyError(f"consistency system diverged: |xbar| > {bound:.3g} (step "
                               f"{grid.dt:.3g} too coarse for RK4?)")
    A, f = stacked_system(ops, J, Abar, grid.times())
    z = np.hstack([tr.values for tr in s_trajs] + [xbar.values])
    residual = _simpson_defect(z, z @ A.T + f, grid.dt)
    return MeanFieldSolution(Pi=Pis, s=s_trajs, J=J, L=L, Abar=Abar, mbar=mbar,
                             xbar=xbar, mubar=mubar, residual=residual,
                             iterations=1, grid=grid, spec=spec)


def _simpson_defect(vals: np.ndarray, rhs: np.ndarray, dt: float) -> float:
    """Max |central slope - Simpson average of the rhs| over interior nodes.

    Fourth-order consistency measure using only node values.
    """
    slope = (vals[2:] - vals[:-2]) / (2.0 * dt)
    avg = (rhs[:-2] + 4.0 * rhs[1:-1] + rhs[2:]) / 6.0
    return float(np.max(np.abs(slope - avg))) if slope.size else 0.0


def consistency_residual(solution: MeanFieldSolution, spec: PopulationSpec) -> float:
    """Independent consistency check: re-derives every right-hand side from
    the solution's own components and measures the defect with fourth-order
    central differences (interior nodes only).  Shares no state with the
    solver.
    """
    grid = solution.grid
    dt = grid.dt
    ts = grid.times()
    K, n, m = spec.K, spec.n, spec.m
    xbar = solution.xbar.values
    mubar = solution.mubar.values
    worst = 0.0

    def d4(vals):
        # (-y[i+2] + 8 y[i+1] - 8 y[i-1] + y[i-2]) / (12 dt)
        return (-vals[4:] + 8.0 * vals[3:-1] - 8.0 * vals[1:-3] + vals[:-4]) / (12.0 * dt)

    L_vals = np.zeros((grid.steps + 1, m * K))
    for k in range(K):
        p = spec.subpops[k]
        Pi = solution.Pi[k].Pi
        Rinv = np.linalg.inv(p.R)
        s_vals = solution.s[k].values
        L_vals[:, k * m:(k + 1) * m] = -(s_vals @ p.B + p.nvec[None, :]) @ Rinv.T
        A_cl_T = p.A.T - p.S @ Rinv @ p.B.T - Pi @ p.B @ Rinv @ p.B.T
        Fb, Hb, Pb = spec.Fbar(k), spec.Hbar(k), spec.psibar(k)
        ybar = xbar @ Pb.T
        drive = (xbar @ Fb.T + (ybar @ p.S @ Rinv.T) @ p.B.T + mubar @ Hb.T
                 - (p.B @ (Rinv @ p.nvec))[None, :] + p.b(ts)) @ Pi.T
        drive += (ybar @ (p.S @ Rinv @ p.S.T - p.Q).T
                  - (p.S @ (Rinv @ p.nvec))[None, :] + p.eta[None, :])
        # rho s = ds/dt + A_cl^T s + drive  =>  ds/dt = rho s - A_cl^T s - drive
        sdot = spec.rho * s_vals - s_vals @ A_cl_T.T - drive
        defect = d4(s_vals) - sdot[2:-2]
        worst = max(worst, float(np.max(np.abs(defect))))

    # J xbar + L identity and the forward mean equation
    worst = max(worst, float(np.max(np.abs(mubar - xbar @ solution.J.T - L_vals))))
    rhs_x = xbar @ solution.Abar.T + solution.mbar.values
    defect_x = d4(xbar) - rhs_x[2:-2]
    worst = max(worst, float(np.max(np.abs(defect_x))))
    return worst


def stability_reports(solution: MeanFieldSolution, spec: PopulationSpec) -> list[StabilityReport]:
    """Assumption-4(ii) margins per sub-population against the solved Abar."""
    return [verify_stability(solution.Pi[k], solution.Abar, spec.rho)
            for k in range(spec.K)]
