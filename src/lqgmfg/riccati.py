"""Discounted algebraic Riccati equation with cross terms, its finite-horizon
differential form, and the stability-margin checks.

The stationary equation solved here is

    rho*Pi = Pi A + A^T Pi - (Pi B + S) R^-1 (B^T Pi + S^T) + Q,

which is the standard cross-term ARE for the shifted matrix A - (rho/2) I,
so the library solver computes its stabilizing solution directly.  The
differential equation, integrated backward from a terminal weight, serves
the finite-horizon problems.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_continuous_are

from .model import SubpopParams
from .numerics import TimeGrid, Trajectory, integrate_ode, spectral_abscissa

__all__ = [
    "RiccatiSolution",
    "StabilityReport",
    "RiccatiError",
    "are_residual",
    "feedback_gain",
    "solve_discounted_are",
    "solve_differential_riccati",
    "verify_stability",
]


class RiccatiError(RuntimeError):
    pass


@dataclass(frozen=True)
class RiccatiSolution:
    Pi: np.ndarray
    residual: float
    closed_loop_abscissa: float


@dataclass(frozen=True)
class StabilityReport:
    """Assumption-4(ii) margins: all three must be positive for ok=True."""

    ok: bool
    pi_min_eig: float
    abar_margin: float
    closed_loop_margin: float
    messages: tuple[str, ...] = ()


def are_residual(Pi: np.ndarray, params: SubpopParams, rho: float) -> float:
    """Frobenius norm of the stationary-equation defect at Pi."""
    A, B, Q, R, S = params.A, params.B, params.Q, params.R, params.S
    G = Pi @ B + S
    defect = rho * Pi - Pi @ A - A.T @ Pi + G @ np.linalg.solve(R, G.T) - Q
    return float(np.linalg.norm(defect, "fro"))


def _riccati_rhs(params: SubpopParams, rho: float):
    A, B, Q, R, S = params.A, params.B, params.Q, params.R, params.S

    def rhs(_t, Pi):
        G = Pi @ B + S
        d = rho * Pi - Pi @ A - A.T @ Pi + G @ np.linalg.solve(R, G.T) - Q
        # an exactly symmetric slope keeps Pi symmetric: the flow's
        # antisymmetric part is driven by A + B R^-1 (B^T Pi + S^T), so
        # round-off there grows on long horizons
        return 0.5 * (d + d.T)

    return rhs


def feedback_gain(params: SubpopParams, Pi: np.ndarray) -> np.ndarray:
    """R^-1 (B^T Pi + S^T), the state-feedback gain; Pi may be (n, n) or a
    table (T, n, n), and the gain then has the same leading axis."""
    return np.linalg.solve(params.R, params.B.T @ Pi + params.S.T)


def closed_loop_matrix(params: SubpopParams, Pi: np.ndarray) -> np.ndarray:
    """A - B R^-1 (B^T Pi + S^T): the per-agent closed-loop drift."""
    return params.A - params.B @ feedback_gain(params, Pi)


def solve_discounted_are(params: SubpopParams, rho: float,
                         tol: float = 1e-10) -> RiccatiSolution:
    """Solve the discounted cross-term ARE as the standard ARE of A - rho/2 I.

    Uses scipy's Schur-vector solver (Arnold & Laub, Proc. IEEE 1984).  No
    stabilizing solution (a failed solve, a non-finite result, or a residual
    above tol) raises RiccatiError; the closed-loop margin is left to
    verify_stability.
    """
    A, B, Q, R, S = params.A, params.B, params.Q, params.R, params.S
    shifted = A - 0.5 * rho * np.eye(params.n)
    try:
        Pi = solve_continuous_are(shifted, B, Q, R, s=S)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise RiccatiError(f"Riccati did not stabilize: {exc}") from exc
    Pi = 0.5 * (Pi + Pi.T)
    if not np.all(np.isfinite(Pi)):
        raise RiccatiError("Riccati did not stabilize: non-finite solution")
    resid = are_residual(Pi, params, rho)
    if not resid <= tol:
        raise RiccatiError(
            f"Riccati did not stabilize: residual {resid:.3e} above tol {tol:.1e}")
    cl = spectral_abscissa(closed_loop_matrix(params, Pi))
    return RiccatiSolution(Pi=Pi, residual=resid, closed_loop_abscissa=cl)


def solve_differential_riccati(params: SubpopParams, rho: float, Pi_T: np.ndarray,
                               grid: TimeGrid) -> Trajectory:
    """Backward RK4 solution of the matrix Riccati ODE with Pi(grid.t1)=Pi_T.

    Every stored Pi(t) is symmetrized; finite-escape blow-up raises with the
    escape time.
    """
    Pi_T = np.atleast_2d(np.asarray(Pi_T, dtype=float))
    if Pi_T.shape != (params.n, params.n):
        raise ValueError(f"Pi_T must be {params.n}x{params.n}, got {Pi_T.shape}")
    if np.max(np.abs(Pi_T - Pi_T.T)) > 1e-10 * (1.0 + np.max(np.abs(Pi_T))):
        raise ValueError("Pi_T must be symmetric")
    rhs = _riccati_rhs(params, rho)
    traj = integrate_ode(rhs, Pi_T, grid, direction="backward")
    traj.values = 0.5 * (traj.values + np.transpose(traj.values, (0, 2, 1)))
    return traj


def verify_stability(solution: RiccatiSolution, Abar: np.ndarray, rho: float,
                     pi_floor: float = 0.0) -> StabilityReport:
    """Check the Assumption-4(ii) conditions and report the margins.

    (a) Pi positive definite, (b) spectral abscissa of the aggregate drift
    below rho/2, (c) per-agent closed-loop abscissa below rho/2.  The matrix
    inequalities are read as Hurwitz-type spectral conditions, which is what
    boundedness of the discounted trajectories requires.
    """
    msgs = []
    w = np.linalg.eigvalsh(0.5 * (solution.Pi + solution.Pi.T))
    pi_min = float(w[0])
    if pi_min <= pi_floor:
        msgs.append("Pi not positive definite")
    abar_margin = rho / 2.0 - spectral_abscissa(np.asarray(Abar, dtype=float))
    if abar_margin <= 0:
        msgs.append("aggregate drift margin nonpositive (Abar - rho/2 I not Hurwitz)")
    cl_margin = rho / 2.0 - solution.closed_loop_abscissa
    if cl_margin <= 0:
        msgs.append("closed-loop margin nonpositive")
    return StabilityReport(ok=not msgs, pi_min_eig=pi_min, abar_margin=abar_margin,
                           closed_loop_margin=cl_margin, messages=tuple(msgs))
