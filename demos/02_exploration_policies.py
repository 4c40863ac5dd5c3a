"""Exploratory (Gaussian) optimal policies and the price of exploration.

The optimal control distribution is Gaussian: its mean is the classical
optimal feedback, its covariance is lambda R^-1.  This demo samples from
it, evaluates the entropy and value-gap closed forms across exploration
weights, and checks the analytic cost of exploration against Monte Carlo.
"""

import numpy as np

from lqgmfg import (analytic_coe, policy_entropy, policy_for, solve_consistency,
                    value_gap)
from lqgmfg.presets import scalar_decoupled_spec
from lqgmfg.simulator import coe_experiment

spec = scalar_decoupled_spec(lambda_explore=0.2, rho=0.1)
mf = solve_consistency(spec)

x = np.array([1.5])
t = 2.0
pol = policy_for(mf, 0).at(t)       # the one-node record at t: cheap repeated draws
mean, cov = pol.mean(t, x), pol.covariance
print(f"at (t={t}, x={x[0]}): policy mean {mean[0]:+.5f} (the classical control), "
      f"covariance {cov[0, 0]:.5f} (= lambda/R = {spec.subpops[0].lambda_explore})")

rng = np.random.default_rng(0)
draws = np.array([pol.sample(t, x, rng)[0] for _ in range(20000)])
print(f"sampled 20k actions: mean {draws.mean():+.4f}, var {draws.var():.4f}")

print("\nexploration weight sweep (entropy and classical-vs-exploratory value gap):")
print(f"  {'lambda':>8} {'entropy':>10} {'value gap':>12}")
for lam in (1.0, 0.5, 0.2, 0.05, 0.01, 0.001):
    s = scalar_decoupled_spec(lambda_explore=lam, rho=0.1)
    print(f"  {lam:8.3f} {policy_entropy(0, s):10.4f} {value_gap(0, s):12.6f}")
print("the gap vanishes as lambda -> 0: the exploratory game collapses onto the classical one")

print(f"\ncost of exploration, analytic m*lambda/(2 rho) = {analytic_coe(0, spec):.3f}")
res = coe_experiment(spec, mf, 0, reps=4000, seed=1)
print(f"Monte Carlo estimate: {res.summary['estimate']:.4f} "
      f"+- {res.summary['std_err']:.4f} (95% CI {res.summary['ci95'][0]:.4f}.."
      f"{res.summary['ci95'][1]:.4f})")
