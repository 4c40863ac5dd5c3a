"""Optimal control laws: the classical state feedback and the exploratory
Gaussian control distribution, plus the exploration closed forms (entropy,
cost of exploration, value gap).

The exploratory optimum is Gaussian with mean equal to the classical
control (literally the same code path here) and covariance
lambda_k R_k^-1 -- state- and time-independent, linear in the exploration
weight.  At lambda_k = 0 the policy degenerates to a Dirac mass at the
classical control.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .meanfield import MeanFieldSolution
from .model import PopulationSpec
from .numerics import sample_gaussian
from .riccati import feedback_gain

__all__ = [
    "GaussianPolicy",
    "classical_control",
    "exploratory_policy",
    "policy_for",
    "sample_action",
    "policy_entropy",
    "analytic_coe",
    "value_gap",
]


def _control_pieces(mf: MeanFieldSolution, k: int):
    spec = mf.spec
    p = spec.subpops[k]
    Pi = mf.Pi[k].Pi
    gain = feedback_gain(p, Pi)                          # (m, n)
    psibar = spec.psibar(k)
    return p, Pi, gain, psibar


def classical_control(t: float, x: np.ndarray, mf: MeanFieldSolution, k: int) -> np.ndarray:
    """u* = -R^-1 [(B^T Pi + S^T) x + B^T s(t) - S^T psibar xbar(t) + n].

    s(t) and xbar(t) interpolate linearly between grid nodes; t outside the
    solved grid raises.
    """
    p, _Pi, gain, psibar = _control_pieces(mf, k)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    s_t = mf.s[k].interp(t)
    xbar_t = mf.xbar.interp(t)
    offset = np.linalg.solve(p.R, p.B.T @ s_t - p.S.T @ (psibar @ xbar_t) + p.nvec)
    return -(gain @ x) - offset


@dataclass(frozen=True)
class GaussianPolicy:
    """State-feedback Gaussian control distribution for one sub-population.

    mean(t, x) is the classical control; covariance is lambda_k R_k^-1.
    """

    k: int
    mf: MeanFieldSolution
    covariance: np.ndarray

    def mean(self, t: float, x: np.ndarray) -> np.ndarray:
        return classical_control(t, x, self.mf, self.k)

    def at(self, t: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.mean(t, x), self.covariance

    def sample(self, t: float, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return sample_gaussian(self.mean(t, x), self.covariance, rng)


def policy_for(mf: MeanFieldSolution, k: int) -> GaussianPolicy:
    p = mf.spec.subpops[k]
    cov = p.lambda_explore * np.linalg.inv(p.R)
    cov = 0.5 * (cov + cov.T)
    return GaussianPolicy(k=k, mf=mf, covariance=cov)


def exploratory_policy(t: float, x: np.ndarray, mf: MeanFieldSolution, k: int):
    """The optimal control distribution at (t, x): (mean, covariance)."""
    pol = policy_for(mf, k)
    return pol.at(t, x)


def sample_action(policy_at_point, rng: np.random.Generator) -> np.ndarray:
    """Draw one action from (mean, covariance); lambda=0 returns the mean."""
    mean, cov = policy_at_point
    return sample_gaussian(mean, cov, rng)


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
    m = p.m
    cov = p.lambda_explore * np.linalg.inv(p.R)
    sign, logdet = np.linalg.slogdet(2.0 * np.pi * np.e * cov)
    if sign <= 0:
        raise ValueError("covariance not positive definite")
    return 0.5 * float(logdet)


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
    (lambda/(2 rho)) * (ln det(2 pi lambda R^-1) - m).

    Reduces to (lambda/2 rho)(ln(2 pi lambda / R) - 1) for m = 1 and
    vanishes as lambda -> 0.
    """
    p = spec.subpops[k]
    if spec.rho <= 0:
        raise ValueError("value gap needs rho > 0")
    if p.lambda_explore <= 0:
        raise ValueError("value gap needs lambda > 0")
    cov = 2.0 * np.pi * p.lambda_explore * np.linalg.inv(p.R)
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0:
        raise ValueError("covariance not positive definite")
    return p.lambda_explore / (2.0 * spec.rho) * (float(logdet) - p.m)
