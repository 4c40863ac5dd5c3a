"""Mean-field consistency system: feedback gains J and L, aggregate drift,
backward offset equations, and the damped Picard fixed-point solver.

The classical and exploratory consistency systems are the same mapping (the
exploratory means replace the classical controls one-for-one), so a single
solver serves both; the ``system`` label exists only so callers can assert
the equivalence.

One Picard sweep, given driver trajectories (xbar, mubar):

  1. integrate each offset s_k backward, terminal condition s_k(T) = the
     algebraic steady state,
  2. rebuild L(t) and the per-type drift offsets mbar_k(t),
  3. integrate the stacked mean state xbar forward from (xi, ..., xi),
  4. set mubar = J xbar + L,

then damp the driver pair and repeat.  The iteration stops when the coupling
defect (the only inconsistency a sweep leaves: the s-equations were driven
by the previous iterate) is below tolerance, so a decoupled game converges
in a single sweep.  The infinite horizon is truncated to [0, T] with T
chosen so the discount factor and the slowest stable mode decay below 1e-8;
backward integration of the offsets is stable because the shifted
closed-loop matrices are Hurwitz under the verified margins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .model import PopulationSpec, SpecValidationError, validate_spec
from .numerics import TimeGrid, Trajectory, rk4_linear_tabulated, spectral_abscissa
from .riccati import (RiccatiSolution, StabilityReport, solve_discounted_are,
                      verify_stability)

__all__ = [
    "SolverConfig",
    "MeanFieldSolution",
    "ConsistencyError",
    "feedback_gains",
    "aggregate_drift",
    "steady_state",
    "solve_consistency",
    "consistency_residual",
    "stability_reports",
]

_DECAY_TARGET = math.log(1e8)


class ConsistencyError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-point solver knobs.  horizon/steps None means auto-selected."""

    horizon: float | None = None
    steps: int | None = None
    damping: float = 0.5
    tol: float = 1e-9
    max_iters: int = 200
    are_tol: float = 1e-11

    def __post_init__(self):
        if not (0.0 < self.damping <= 1.0):
            raise ValueError("damping must lie in (0, 1]")
        if not self.tol > 0:
            raise ValueError("tol must be positive")


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
        """The solution as a dict for ``cli._write_json``; matrices and
        trajectories stay arrays, which it writes as nested lists."""
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


class _TypeOps:
    """Per-type constant matrices entering the consistency equations."""

    def __init__(self, spec: PopulationSpec, k: int, Pi: np.ndarray):
        p = spec.subpops[k]
        n, m, K = p.n, p.m, spec.K
        self.params = p
        self.k = k
        Rinv = np.linalg.inv(p.R)
        self.Rinv = Rinv
        self.gain = Rinv @ (p.B.T @ Pi + p.S.T)            # R^-1 (B^T Pi + S^T)
        self.A_cl = p.A - p.B @ self.gain
        self.M = spec.rho * np.eye(n) - self.A_cl.T        # ds/dt = M s - g(t)
        Fb, Hb, Pb = spec.Fbar(k), spec.Hbar(k), spec.psibar(k)
        self.Fbar, self.Hbar, self.psibar = Fb, Hb, Pb
        BRS = p.B @ Rinv @ p.S.T
        self.Cx = Pi @ (Fb + BRS @ Pb) + (p.S @ Rinv @ p.S.T - p.Q) @ Pb     # (n, nK)
        self.Cu = Pi @ Hb                                                    # (n, mK)
        self.c_const = -Pi @ (p.B @ (Rinv @ p.nvec)) - p.S @ (Rinv @ p.nvec) + p.eta
        self.Pi = Pi
        # selector block: columns k*n:(k+1)*n of the stacked mean state
        self.ek_slice = slice(k * n, (k + 1) * n)
        self.J_row = -self.gain @ _selector(k, n, K) + Rinv @ p.S.T @ Pb     # (m, nK)
        self.BRS = BRS

    def c0(self, ts: np.ndarray) -> np.ndarray:
        """Driver-independent part of g_k, tabulated at times ts."""
        b_vals = self.params.b(ts)
        return b_vals @ self.Pi.T + self.c_const[None, :]

    def L_row(self, s_vals: np.ndarray) -> np.ndarray:
        """-R^-1 (B^T s(t) + n) for tabulated s values (nodes, n)."""
        return -(s_vals @ self.params.B + self.params.nvec[None, :]) @ self.Rinv.T


def _selector(k: int, n: int, K: int) -> np.ndarray:
    e = np.zeros((n, n * K))
    e[:, k * n:(k + 1) * n] = np.eye(n)
    return e


def feedback_gains(Pis: list[RiccatiSolution] | list[np.ndarray],
                   s_trajs: list[Trajectory], spec: PopulationSpec):
    """Stack the control gains: J (mK x nK) and the offset trajectory L(t).

    Row block k of J is -R_k^-1 (B_k^T Pi_k + S_k^T) e_k + R_k^-1 S_k^T
    psibar_k; row block k of L(t) is -R_k^-1 (B_k^T s_k(t) + n_k).
    """
    K, n, m = spec.K, spec.n, spec.m
    if len(Pis) != K or len(s_trajs) != K:
        raise ValueError(f"need {K} Riccati solutions and offset trajectories")
    grid = s_trajs[0].grid
    for tr in s_trajs[1:]:
        if tr.grid != grid:
            raise ValueError("offset trajectories must share a common grid")
    J = np.zeros((m * K, n * K))
    L_vals = np.zeros((grid.steps + 1, m * K))
    for k in range(K):
        Pi = Pis[k].Pi if isinstance(Pis[k], RiccatiSolution) else np.asarray(Pis[k])
        ops = _TypeOps(spec, k, Pi)
        J[k * m:(k + 1) * m, :] = ops.J_row
        L_vals[:, k * m:(k + 1) * m] = ops.L_row(s_trajs[k].values)
    return J, Trajectory(grid, L_vals)


def aggregate_drift(spec: PopulationSpec, Pis, J: np.ndarray,
                    s_trajs: list[Trajectory]):
    """Aggregate mean dynamics: Abar (nK x nK) and the offset mbar(t).

    Abar stacks Abar_k = (A_k - B_k R_k^-1 (B_k^T Pi_k + S_k^T)) e_k
    + B_k R_k^-1 S_k^T psibar_k + Fbar_k + Hbar_k J; the offset is
    mbar_k(t) = -B_k R_k^-1 (B_k^T s_k(t) + n_k) + Hbar_k L(t) + b_k(t).
    """
    K, n, m = spec.K, spec.n, spec.m
    grid = s_trajs[0].grid
    ts = grid.times()
    _, L = feedback_gains(Pis, s_trajs, spec)
    Abar = np.zeros((n * K, n * K))
    mbar_vals = np.zeros((grid.steps + 1, n * K))
    for k in range(K):
        Pi = Pis[k].Pi if isinstance(Pis[k], RiccatiSolution) else np.asarray(Pis[k])
        ops = _TypeOps(spec, k, Pi)
        Abar[k * n:(k + 1) * n, :] = (ops.A_cl @ _selector(k, n, K)
                                      + ops.BRS @ ops.psibar + ops.Fbar + ops.Hbar @ J)
        Lk = ops.L_row(s_trajs[k].values)
        mbar_vals[:, k * n:(k + 1) * n] = (Lk @ ops.params.B.T
                                           + L.values @ ops.Hbar.T
                                           + ops.params.b(ts))
    return Abar, Trajectory(grid, mbar_vals)


def _static_ops(spec: PopulationSpec, config: SolverConfig):
    Pis = [solve_discounted_are(spec.subpops[k], spec.rho, tol=config.are_tol)
           for k in range(spec.K)]
    ops = [_TypeOps(spec, k, Pis[k].Pi) for k in range(spec.K)]
    K, n, m = spec.K, spec.n, spec.m
    J = np.vstack([o.J_row for o in ops])
    Abar = np.vstack([o.A_cl @ _selector(k, n, K) + ops[k].BRS @ ops[k].psibar
                      + ops[k].Fbar + ops[k].Hbar @ J for k, o in enumerate(ops)])
    return Pis, ops, J, Abar


def steady_state(spec: PopulationSpec, Pis=None):
    """Constant solution of the consistency system (ds/dt = 0, dxbar/dt = 0).

    Solves the joint linear system in (s_1..s_K, xbar); requires the offsets
    b, eta, n to be time-constant in spirit (b is evaluated at its final
    table value).  A singular system raises 'steady state undefined'.
    """
    if Pis is None:
        Pis = [solve_discounted_are(spec.subpops[k], spec.rho) for k in range(spec.K)]
    K, n, m = spec.K, spec.n, spec.m
    ops = [_TypeOps(spec, k, Pis[k].Pi if isinstance(Pis[k], RiccatiSolution) else Pis[k])
           for k in range(K)]
    J = np.vstack([o.J_row for o in ops])
    Abar = np.vstack([ops[k].A_cl @ _selector(k, n, K) + ops[k].BRS @ ops[k].psibar
                      + ops[k].Fbar + ops[k].Hbar @ J for k in range(K)])
    # L(s) = -U s - l0 with U block-diagonal in R_k^-1 B_k^T
    U = np.zeros((m * K, n * K))
    l0 = np.zeros(m * K)
    for k, o in enumerate(ops):
        U[k * m:(k + 1) * m, k * n:(k + 1) * n] = o.Rinv @ o.params.B.T
        l0[k * m:(k + 1) * m] = o.Rinv @ o.params.nvec
    Hst = np.vstack([o.Hbar for o in ops])                       # (nK, mK)
    N = n * K
    Asys = np.zeros((2 * N, 2 * N))
    rhs = np.zeros(2 * N)
    t_end = np.inf
    for k, o in enumerate(ops):
        rows = slice(k * n, (k + 1) * n)
        Asys[rows, :N] += o.Cu @ U
        Asys[rows.start:rows.stop, k * n:(k + 1) * n] += o.M
        Asys[rows, N:] = -(o.Cu @ J + o.Cx)
        rhs[rows] = o.c0(np.asarray([t_end]))[0] - o.Cu @ l0
    BRB = np.zeros((N, N))
    bconst = np.zeros(N)
    for k, o in enumerate(ops):
        BRB[k * n:(k + 1) * n, k * n:(k + 1) * n] = o.params.B @ o.Rinv @ o.params.B.T
        bconst[k * n:(k + 1) * n] = (o.params.b(t_end)
                                     - o.params.B @ (o.Rinv @ o.params.nvec))
    Asys[N:, :N] = BRB + Hst @ U
    Asys[N:, N:] = -Abar
    rhs[N:] = bconst - Hst @ l0
    try:
        z = np.linalg.solve(Asys, rhs)
    except np.linalg.LinAlgError as exc:
        raise ConsistencyError("steady state undefined (singular system)") from exc
    s_inf = [z[k * n:(k + 1) * n] for k in range(K)]
    xbar_inf = z[N:]
    return s_inf, xbar_inf


def _auto_grid(spec: PopulationSpec, ops, Abar, config: SolverConfig) -> TimeGrid:
    if config.horizon is not None:
        T = float(config.horizon)
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
    steps = config.steps if config.steps is not None else min(int(math.ceil(T / 0.01)), 30000)
    return TimeGrid(0.0, T, steps)


def solve_consistency(spec: PopulationSpec, config: SolverConfig | None = None,
                      system: str = "exploratory") -> MeanFieldSolution:
    """Damped Picard iteration for the consistency fixed point.

    ``system`` may be 'classical' or 'exploratory'; both labels run the
    identical mapping (the exploratory system replaces controls by policy
    means, which coincide), so the outputs are bitwise equal.
    """
    if system not in ("classical", "exploratory"):
        raise ValueError(f"unknown system label {system!r}")
    config = config or SolverConfig()
    report = validate_spec(spec)
    if not report.ok:
        raise SpecValidationError(report)

    Pis, ops, J, Abar = _static_ops(spec, config)
    grid = _auto_grid(spec, ops, Abar, config)
    K, n, m = spec.K, spec.n, spec.m
    ts = grid.times()
    ts_half = np.linspace(grid.t0, grid.t1, 2 * grid.steps + 1)
    nodes = grid.steps + 1

    s_inf, xbar_inf = steady_state(spec, Pis)
    xi_stack = np.tile(spec.x0_mean, K)

    # iterate 0: frozen initial mean state, decoupled steady-state offsets
    xbar_vals = np.tile(xi_stack, (nodes, 1))
    s0 = []
    for k, o in enumerate(ops):
        try:
            s0.append(np.linalg.solve(o.M, o.c0(np.asarray([grid.t1]))[0]))
        except np.linalg.LinAlgError:
            s0.append(np.zeros(n))
    L0 = np.hstack([np.tile(ops[k].L_row(s0[k][None, :]), (nodes, 1)) for k in range(K)])
    mubar_vals = xbar_vals @ J.T + L0

    c0_half = [o.c0(ts_half) for o in ops]
    scale_guard = 1e8 * (1.0 + float(np.max(np.abs(xi_stack), initial=0.0)))

    iterations = 0
    coupling_defect = np.inf
    while True:
        if iterations >= config.max_iters:
            raise ConsistencyError(
                f"consistency iteration diverged (no fixed point after "
                f"{config.max_iters} iterations, defect {coupling_defect:.3e})")
        iterations += 1

        x_sp = CubicSpline(ts, xbar_vals, axis=0)
        u_sp = CubicSpline(ts, mubar_vals, axis=0)
        Xh, Uh = x_sp(ts_half), u_sp(ts_half)

        s_trajs: list[Trajectory] = []
        L_vals = np.zeros((nodes, m * K))
        for k, o in enumerate(ops):
            g_half = Xh @ o.Cx.T + Uh @ o.Cu.T + c0_half[k]
            s_k = rk4_linear_tabulated(o.M, -g_half, s_inf[k], grid, direction="backward")
            s_trajs.append(s_k)
            L_vals[:, k * m:(k + 1) * m] = o.L_row(s_k.values)

        L_half = CubicSpline(ts, L_vals, axis=0)(ts_half)
        mbar_half = np.zeros((2 * grid.steps + 1, n * K))
        for k, o in enumerate(ops):
            sk_half = s_trajs[k].half_grid_values()
            Lk_half = o.L_row(sk_half)
            mbar_half[:, k * n:(k + 1) * n] = (Lk_half @ o.params.B.T
                                               + L_half @ o.Hbar.T + o.params.b(ts_half))
        xbar_new = rk4_linear_tabulated(Abar, mbar_half, xi_stack, grid, "forward")
        mubar_new = xbar_new.values @ J.T + L_vals

        dx = xbar_new.values - xbar_vals
        du = mubar_new - mubar_vals
        coupling_defect = 0.0
        for o in ops:
            coupling_defect = max(coupling_defect,
                                  float(np.max(np.abs(dx @ o.Cx.T + du @ o.Cu.T))))
        change = max(float(np.max(np.abs(dx))), float(np.max(np.abs(du))))

        if not np.isfinite(change) or np.max(np.abs(xbar_new.values)) > scale_guard:
            raise ConsistencyError("consistency iteration diverged (iterates blew up)")

        if coupling_defect < config.tol or change < config.tol:
            xbar_vals = xbar_new.values
            mubar_vals = mubar_new
            break
        xbar_vals = config.damping * xbar_new.values + (1.0 - config.damping) * xbar_vals
        mubar_vals = config.damping * mubar_new + (1.0 - config.damping) * mubar_vals

    xbar = Trajectory(grid, xbar_vals)
    mubar = Trajectory(grid, mubar_vals)
    L = Trajectory(grid, L_vals)
    mbar_vals = mbar_half[::2]
    mbar = Trajectory(grid, mbar_vals)
    residual = _internal_residual(spec, ops, Abar, J, s_trajs, L, mbar, xbar, mubar)
    return MeanFieldSolution(Pi=Pis, s=s_trajs, J=J, L=L, Abar=Abar, mbar=mbar,
                             xbar=xbar, mubar=mubar, residual=residual,
                             iterations=iterations, grid=grid, spec=spec)


def _simpson_defect(vals: np.ndarray, rhs: np.ndarray, dt: float) -> float:
    """Max |central slope - Simpson average of the rhs| over interior nodes.

    Fourth-order consistency measure using only node values.
    """
    slope = (vals[2:] - vals[:-2]) / (2.0 * dt)
    avg = (rhs[:-2] + 4.0 * rhs[1:-1] + rhs[2:]) / 6.0
    return float(np.max(np.abs(slope - avg))) if slope.size else 0.0


def _internal_residual(spec, ops, Abar, J, s_trajs, L, mbar, xbar, mubar) -> float:
    grid = xbar.grid
    ts = grid.times()
    worst = 0.0
    for k, o in enumerate(ops):
        g = xbar.values @ o.Cx.T + mubar.values @ o.Cu.T + o.c0(ts)
        rhs = s_trajs[k].values @ o.M.T - g
        worst = max(worst, _simpson_defect(s_trajs[k].values, rhs, grid.dt))
    rhs_x = xbar.values @ Abar.T + mbar.values
    worst = max(worst, _simpson_defect(xbar.values, rhs_x, grid.dt))
    worst = max(worst, float(np.max(np.abs(mubar.values - xbar.values @ J.T - L.values))))
    return worst


def consistency_residual(solution: MeanFieldSolution, spec: PopulationSpec) -> float:
    """Independent consistency check: re-derives every right-hand side from
    the solution's own components and measures the defect with fourth-order
    central differences (interior nodes only).  Shares no state with the
    solver loop.
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
