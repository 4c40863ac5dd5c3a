"""Solve the mean-field consistency system for a two-type game.

Walks through the full solving pipeline: validation, the per-type Riccati
solutions, the direct solve of the consistency system (the offsets run
backward from the steady state, the aggregate mean forward from the initial
mean, both in one two-point boundary solve), the stability margins, and the
long-run steady state.
"""

import numpy as np

from lqgmfg import (consistency_residual, solve_consistency, stability_reports,
                    steady_state, validate_spec)
from lqgmfg.presets import two_type_spec

spec = two_type_spec()
report = validate_spec(spec)
print("assumption check:", "ok" if report.ok else report.violations)

mf = solve_consistency(spec)
print(f"\nsolved on {mf.grid.steps} RK4 steps over [0, {mf.grid.t1:.1f}] in one pass")
print(f"solver residual          : {mf.residual:.3e}")
print(f"independent FD residual  : {consistency_residual(mf, spec):.3e}")

print("\nper-type Riccati weights Pi_k and closed-loop abscissas:")
for k, sol in enumerate(mf.Pi):
    print(f"  type {k}: Pi = {sol.Pi[0, 0]:.6f}, closed loop at "
          f"{sol.closed_loop_abscissa:.4f}, ARE residual {sol.residual:.1e}")

print("\nfeedback gain J (rows act on the stacked type means):")
print(np.array_str(mf.J, precision=5))

print("\nstability margins (all must be positive):")
for k, rep in enumerate(stability_reports(mf, spec)):
    print(f"  type {k}: min eig Pi {rep.pi_min_eig:.4f}, aggregate margin "
          f"{rep.abar_margin:.4f}, closed-loop margin {rep.closed_loop_margin:.4f}")

s_inf, x_inf = steady_state(spec, mf.Pi)
print("\nlong-run behaviour:")
print(f"  algebraic steady state     x_inf = {np.array_str(x_inf, precision=5)}")
print(f"  solved mean at the horizon x(T)  = "
      f"{np.array_str(mf.xbar.values[-1], precision=5)}")

ts = mf.grid.times()
print("\naggregate mean-state trajectory (type blocks):")
for t in (0.0, 1.0, 2.0, 5.0, 10.0, 20.0):
    print(f"  t={t:5.1f}  xbar={np.array_str(mf.xbar.interp(t), precision=4)}"
          f"  ubar={np.array_str(mf.mubar.interp(t), precision=4)}")
