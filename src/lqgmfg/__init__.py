"""Entropy-regularized (exploratory) LQG mean field games.

Solvers for the mean-field consistency fixed point with K sub-populations,
the optimal Gaussian control distributions, finite-population simulation,
and the equilibrium / convergence-rate / exploration-cost experiments.
"""

from .model import (PopulationSpec, SubpopParams, TimeTable, ValidationReport,
                    load_spec, save_spec, selector_matrix, spec_from_json,
                    spec_to_json, validate_spec)
from .numerics import TimeGrid, Trajectory, fit_rate, spectral_abscissa
from .riccati import (RiccatiSolution, StabilityReport, solve_differential_riccati,
                      solve_discounted_are, verify_stability)
from .meanfield import (MeanFieldSolution, consistency_residual, solve_consistency,
                        stability_reports, steady_state)
from .policy import GaussianPolicy, analytic_coe, policy_entropy, policy_for, value_gap

__version__ = "0.1.0"
