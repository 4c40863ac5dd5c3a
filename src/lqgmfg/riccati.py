"""Discounted algebraic Riccati equation with cross terms, its finite-horizon
differential form, and the stability-margin checks.

The stationary equation solved here is

    rho*Pi = Pi A + A^T Pi - (Pi B + S) R^-1 (B^T Pi + S^T) + Q,

which is the standard cross-term ARE for the shifted matrix A - (rho/2) I,
so the library solver computes its stabilizing solution directly.  The
differential equation, solved backward from a terminal weight, serves the
finite-horizon problems.  Its coefficients are constant, so it is linear in
disguise (Radon's lemma; W. T. Reid, "Riccati Differential Equations",
1972): Pi = Y X^-1 with (X, Y) on a linear Hamiltonian flow, whose exact
step is one matrix exponential, so stiffness sets no step-size limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm, solve_continuous_are

from .model import SubpopParams
from .numerics import OdeBlowupError, TimeGrid, Trajectory, scan_chunk, spectral_abscissa

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
    """Exact backward solution of the matrix Riccati ODE
    dPi/dt = rho Pi - Pi A - A^T Pi + (Pi B + S) R^-1 (B^T Pi + S^T) - Q
    with Pi(grid.t1) = Pi_T, sampled on the grid and symmetrized.

    Pi = Y X^-1 where d(X, Y)/dt = Ham (X, Y), Ham = [[At, -W], [-Qt, -At^T]]
    with At = A - rho/2 I - B R^-1 S^T, W = B R^-1 B^T, Qt = Q - S R^-1 S^T.
    Each chunk of at most 64 steps (fewer where a power of the step map
    would pass e^8, as in the split RK4 solve) restarts from (I, Pi) at its
    latest node and reads its nodes from the powers of the exact step
    expm(-dt Ham), with one batched solve.  X is singular at a finite
    escape: the first node where det X <= 0 or a value is not finite raises
    OdeBlowupError with that node's time.
    """
    Pi_T = np.atleast_2d(np.asarray(Pi_T, dtype=float))
    n = params.n
    if Pi_T.shape != (n, n):
        raise ValueError(f"Pi_T must be {n}x{n}, got {Pi_T.shape}")
    if np.max(np.abs(Pi_T - Pi_T.T)) > 1e-10 * (1.0 + np.max(np.abs(Pi_T))):
        raise ValueError("Pi_T must be symmetric")
    A, B, Q, R, S = params.A, params.B, params.Q, params.R, params.S
    Rinv_ST = np.linalg.solve(R, S.T)
    At = A - 0.5 * rho * np.eye(n) - B @ Rinv_ST
    Ham = np.block([[At, -B @ np.linalg.solve(R, B.T)], [S @ Rinv_ST - Q, -At.T]])
    steps, ts = grid.steps, grid.times()
    out = np.empty((steps + 1, n, n))
    out[steps] = 0.5 * (Pi_T + Pi_T.T)
    with np.errstate(over="ignore", invalid="ignore"):
        step = expm(-grid.dt * Ham)
        chunk = scan_chunk(steps, float(np.abs(step).sum(axis=-1).max()))
        powers = np.empty((chunk, 2 * n, 2 * n))      # powers[k] = step^(k + 1)
        powers[0] = step
        for k in range(1, chunk):
            powers[k] = powers[k - 1] @ step
        j = steps
        while j > 0:
            c = min(chunk, j)
            XY = powers[:c, :, :n] + powers[:c, :, n:] @ out[j]     # nodes j-1 .. j-c
            X, Y = XY[:, :n], XY[:, n:]
            ok = (np.linalg.det(X) > 0) & np.isfinite(XY).all(axis=(1, 2))
            if ok.all():
                Pi = np.linalg.solve(X.mT, Y.mT)                    # (Y X^-1)^T
                ok = np.isfinite(Pi).all(axis=(1, 2))
            if not ok.all():
                raise OdeBlowupError(float(ts[j - 1 - int(np.argmin(ok))]))
            out[j - c:j] = (0.5 * (Pi + Pi.mT))[::-1]
            j -= c
    return Trajectory(grid, out)


def verify_stability(solution: RiccatiSolution, Abar: np.ndarray,
                     rho: float) -> StabilityReport:
    """Check the Assumption-4(ii) conditions and report the margins.

    (a) Pi positive definite, (b) spectral abscissa of the aggregate drift
    below rho/2, (c) per-agent closed-loop abscissa below rho/2.  The matrix
    inequalities are read as Hurwitz-type spectral conditions, which is what
    boundedness of the discounted trajectories requires.
    """
    msgs = []
    w = np.linalg.eigvalsh(0.5 * (solution.Pi + solution.Pi.T))
    pi_min = float(w[0])
    if pi_min <= 0.0:
        msgs.append("Pi not positive definite")
    abar_margin = rho / 2.0 - spectral_abscissa(np.asarray(Abar, dtype=float))
    if abar_margin <= 0:
        msgs.append("aggregate drift margin nonpositive (Abar - rho/2 I not Hurwitz)")
    cl_margin = rho / 2.0 - solution.closed_loop_abscissa
    if cl_margin <= 0:
        msgs.append("closed-loop margin nonpositive")
    return StabilityReport(ok=not msgs, pi_min_eig=pi_min, abar_margin=abar_margin,
                           closed_loop_margin=cl_margin, messages=tuple(msgs))
