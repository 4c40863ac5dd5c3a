"""The optimal control distribution as one tabulated record, plus the
exploration closed forms (entropy, cost of exploration, value gap).

The exploratory optimum of type k is Gaussian with mean -gain x + offset(t),
the classical feedback: gain = R^-1 (B^T Pi + S^T) and offset(t) =
-R^-1 (B^T s(t) - S^T psibar xbar(t) + n).  Its covariance lambda_k R_k^-1
is state- and time-independent; at lambda_k = 0 the policy is a Dirac mass
at the classical control.  ``tabulate_policy`` is the one place that writes
the offset and the covariance, on the nodes of a grid (Pi constant, or one
per node for a finite horizon); the simulator, the variational mean paths
and the trading planner read its record, and the pointwise calls build a
one-node record at t.  ``GaussianPolicy.sample`` draws one action.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .meanfield import MeanFieldSolution
from .model import PopulationSpec, SubpopParams
from .numerics import TimeGrid, Trajectory, cholesky_psd
from .riccati import feedback_gain

__all__ = [
    "GaussianPolicy",
    "tabulate_policy",
    "exploration_covariance",
    "gaussian_entropy",
    "classical_control",
    "exploratory_policy",
    "policy_for",
    "policy_entropy",
    "analytic_coe",
    "value_gap",
]


@dataclass(frozen=True)
class GaussianPolicy:
    """N(-gain x + offset, covariance) on the nodes of ``grid``, or at one
    time (grid None, one offset row).  gain is (m, n), or (nodes, m, n) for
    a tabulated Pi; offset is (nodes, m); covariance is lambda R^-1,
    symmetrized, and chol its ``cholesky_psd`` factor.  ``mean`` reads a
    constant gain and is linear in t between nodes."""

    grid: TimeGrid | None
    gain: np.ndarray
    offset: np.ndarray
    covariance: np.ndarray
    chol: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "chol", cholesky_psd(self.covariance))

    def mean(self, t: float, x: np.ndarray) -> np.ndarray:
        off = self.offset[0] if self.grid is None else Trajectory(self.grid, self.offset).interp(t)
        return -(self.gain @ np.atleast_1d(np.asarray(x, dtype=float))) + off

    def sample(self, t: float, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One action, mean + chol z with z standard normal: the mean
        exactly when the covariance is zero."""
        return self.mean(t, x) + self.chol @ rng.standard_normal(self.chol.shape[0])


def exploration_covariance(p: SubpopParams, scale: float = 1.0) -> np.ndarray:
    """scale * lambda R^-1, symmetrized: the optimal policy's covariance, or
    (scale != 1) that of a variance-scaled deviation from it."""
    cov = scale * p.lambda_explore * np.linalg.inv(p.R)
    return 0.5 * (cov + cov.T)


def gaussian_entropy(cov: np.ndarray) -> float:
    """Differential entropy of a Gaussian: 0.5 ln det(2 pi e cov).  Raises
    unless cov is positive definite."""
    sign, logdet = np.linalg.slogdet(2.0 * np.pi * np.e * cov)
    if sign <= 0:
        raise ValueError("covariance not positive definite")
    return 0.5 * float(logdet)


def tabulate_policy(spec: PopulationSpec, k: int, Pi: np.ndarray, grid: TimeGrid | None,
                    s: np.ndarray, xbar: np.ndarray) -> GaussianPolicy:
    """Type k's policy record from Pi ((n, n), or (nodes, n, n)) and s
    (nodes, n) and xbar (nodes, nK) on the nodes of ``grid``."""
    p = spec.subpops[k]
    inner = s @ p.B - (xbar @ spec.psibar(k).T) @ p.S + p.nvec
    return GaussianPolicy(grid=grid, gain=feedback_gain(p, Pi),
                          offset=-np.linalg.solve(p.R, inner.T).T,
                          covariance=exploration_covariance(p))


def policy_for(mf: MeanFieldSolution, k: int) -> GaussianPolicy:
    """Type k's optimal policy tabulated on the solve grid.  Its mean
    interpolates the offset between nodes, where ``classical_control``
    interpolates s and xbar: the two agree to rounding."""
    return tabulate_policy(mf.spec, k, mf.Pi[k].Pi, mf.grid, mf.s[k].values, mf.xbar.values)


def _policy_at(mf: MeanFieldSolution, k: int, t: float) -> GaussianPolicy:
    """The one-node record at t; t outside the solved grid raises."""
    return tabulate_policy(mf.spec, k, mf.Pi[k].Pi, None,
                           mf.s[k].interp([t]), mf.xbar.interp([t]))


def classical_control(t: float, x: np.ndarray, mf: MeanFieldSolution, k: int) -> np.ndarray:
    """u* = -R^-1 [(B^T Pi + S^T) x + B^T s(t) - S^T psibar xbar(t) + n].

    s(t) and xbar(t) interpolate linearly between grid nodes; t outside the
    solved grid raises.
    """
    return _policy_at(mf, k, t).mean(t, x)


def exploratory_policy(t: float, x: np.ndarray, mf: MeanFieldSolution, k: int):
    """The optimal control distribution at (t, x): (mean, covariance)."""
    pol = _policy_at(mf, k, t)
    return pol.mean(t, x), pol.covariance


def policy_entropy(k: int, spec: PopulationSpec) -> float:
    """Differential entropy of the optimal Gaussian: 0.5 ln det(2 pi e lam R^-1).

    Undefined (raises) at lambda = 0, where the policy is a Dirac mass.  A
    quadrature cross-check of this value, and of the differently scaled
    discounted expression it is sometimes quoted as, lives in the
    variational module / the entropy-audit experiment.
    """
    p = spec.subpops[k]
    if p.lambda_explore <= 0:
        raise ValueError("entropy undefined (Dirac policy at lambda = 0)")
    return gaussian_entropy(exploration_covariance(p))


def analytic_coe(k: int, spec: PopulationSpec) -> float:
    """Cost of exploration: m * lambda_k / (2 rho).

    The exploratory run pays an extra 0.5 E[(u-mu)^T R (u-mu)] =
    0.5 tr(R lambda R^-1) = m lambda / 2 per unit time, discounted at rho;
    the scalar (m=1) case reduces to lambda/(2 rho).  The Monte Carlo
    arbiter for the dimension factor is simulator.coe_experiment.
    """
    if spec.rho <= 0:
        raise ValueError("cost of exploration needs rho > 0")
    p = spec.subpops[k]
    return p.m * p.lambda_explore / (2.0 * spec.rho)


def value_gap(k: int, spec: PopulationSpec) -> float:
    """Classical-minus-exploratory value gap:
    (lambda/(2 rho)) * (ln det(2 pi lambda R^-1) - m), which is
    (lambda/rho) * (H - m) in the policy entropy H.

    Reduces to (lambda/2 rho)(ln(2 pi lambda / R) - 1) for m = 1 and
    vanishes as lambda -> 0.
    """
    p = spec.subpops[k]
    if spec.rho <= 0:
        raise ValueError("value gap needs rho > 0")
    if p.lambda_explore <= 0:
        raise ValueError("value gap needs lambda > 0")
    return p.lambda_explore / spec.rho * (policy_entropy(k, spec) - p.m)
