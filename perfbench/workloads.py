"""The four benchmark workloads.

A workload's set-up function builds its inputs from the seed (and solves any
mean field its operations use) and returns the fixed list of operations one
round runs.  Every operation returns its output to its own check.  Library
functions are always called through their module (``meanfield.solve_consistency``,
not a name imported here), so the traced run's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from lqgmfg import cli, meanfield, simulator, trading
from lqgmfg.model import PopulationSpec, SubpopParams, save_spec
from lqgmfg.numerics import TimeGrid
from lqgmfg.presets import (coupled_single_type_spec, planar_spec,
                            scalar_decoupled_spec, two_type_spec)

import checks


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]    # raises checks.CheckFailed


def three_type_planar_spec() -> PopulationSpec:
    """K=3, n=m=2 game with F, H and psi coupling, distinct exploration
    weights and nonzero b, eta and n offsets; all stability margins are
    positive.  Stacked, its mean state has 6 components."""
    shared = dict(B=np.eye(2), F=[[0.30, 0.05], [0.00, 0.20]],
                  H=[[0.10, 0.02], [0.00, 0.10]], psi=[[0.20, 0.00], [0.05, 0.15]])
    s1 = SubpopParams(A=[[-0.3, 0.1], [0.0, -0.2]], Q=[[1.0, 0.1], [0.1, 0.8]],
                      R=[[1.0, 0.0], [0.0, 1.5]], S=[[0.1, 0.0], [0.0, 0.05]],
                      D=0.20 * np.eye(2), eta=[0.1, -0.05], nvec=[0.05, 0.0],
                      b=[0.1, -0.05], lambda_explore=0.1, **shared)
    s2 = SubpopParams(A=[[0.1, 0.0], [0.05, -0.1]], Q=[[1.5, 0.0], [0.0, 1.0]],
                      R=[[1.2, 0.1], [0.1, 0.9]], S=[[-0.1, 0.0], [0.0, 0.1]],
                      D=0.15 * np.eye(2), eta=[-0.2, 0.1], nvec=[0.0, 0.05],
                      b=[-0.05, 0.1], lambda_explore=0.25, **shared)
    s3 = SubpopParams(A=[[-0.1, 0.2], [-0.1, 0.0]], Q=[[0.8, 0.0], [0.0, 1.2]],
                      R=[[0.8, 0.0], [0.0, 1.1]], S=[[0.0, 0.05], [0.05, 0.0]],
                      D=0.25 * np.eye(2), eta=[0.05, 0.15], nvec=[-0.05, 0.02],
                      b=[0.0, 0.05], lambda_explore=0.4, **shared)
    return PopulationSpec(subpops=(s1, s2, s3), pi=[0.5, 0.3, 0.2], rho=0.5,
                          x0_mean=[0.8, -0.4], x0_cov=[[0.1, 0.0], [0.0, 0.05]])


# ---------------------------------------------------------------------------
# equilibrium: in-process `lqgmfg solve` on five specs
# ---------------------------------------------------------------------------

EQUILIBRIUM_SPECS = (
    # name, spec function, decoupled (xbar is checked against expm)
    ("scalar_decoupled", scalar_decoupled_spec, True),
    ("planar", planar_spec, True),
    ("coupled_single_type", coupled_single_type_spec, False),
    ("two_type", two_type_spec, False),
    ("three_type_planar", three_type_planar_spec, False),
)


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.iterdir() if f.is_file())


def equilibrium(seed: int, out: Path, tracer) -> list[Op]:
    spec_dir = out / "specs"
    spec_dir.mkdir(parents=True, exist_ok=True)
    ops = []
    for name, build, decoupled in EQUILIBRIUM_SPECS:
        spec = build()
        path = spec_dir / f"{name}.json"
        save_spec(spec, path)
        ops.append(_solve_op(name, spec, path, out / "cli" / name, seed,
                             decoupled, tracer))
    return ops


def _solve_op(name, spec, spec_path, out_dir, seed, decoupled, tracer) -> Op:
    argv = ["solve", str(spec_path), "--out", str(out_dir), "--seed", str(seed)]

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        tracer.count("cli.bytes_written", _dir_bytes(out_dir))
        return code

    def check(code):
        with open(out_dir / "meanfield_solution.json") as fh:
            solution = json.load(fh)
        with open(out_dir / "stability_report.json") as fh:
            stability = json.load(fh)
        checks.check_solve(spec, code, solution, stability, decoupled)

    return Op(f"solve:{name}", run, check)


# ---------------------------------------------------------------------------
# crowd: large populations on mean fields solved in set-up
# ---------------------------------------------------------------------------

CROWD_N = 10_000
CROWD_GRID = (4.0, 400)                 # criterion 3's grid
CROWD_CHECKPOINTS = (80, 160, 240, 320, 400)
GAP_NS = (256, 1024, 4096)
GAP_REPS = 8
COE_REPS = 500


def crowd(seed: int, out: Path, tracer) -> list[Op]:
    coupled = coupled_single_type_spec()
    three = three_type_planar_spec()
    planar = planar_spec()
    mf_coupled, mf_three, mf_planar = (meanfield.solve_consistency(s)
                                       for s in (coupled, three, planar))
    return [_population_op("coupled_single_type", coupled, mf_coupled, seed),
            _population_op("three_type_planar", three, mf_three, seed),
            Op("coupling_gap:coupled_single_type",
               lambda: simulator.coupling_gap_experiment(
                   coupled, mf_coupled, list(GAP_NS), reps=GAP_REPS, seed=seed),
               lambda res: checks.check_coupling_gap(res.summary)),
            Op("coe:planar",
               lambda: simulator.coe_experiment(planar, mf_planar, 0,
                                                reps=COE_REPS, seed=seed),
               lambda res: checks.check_coe(res.summary, planar))]


def _population_op(name, spec, mf, seed) -> Op:
    T, steps = CROWD_GRID
    grid = TimeGrid(0.0, T, steps)
    counts = simulator.exact_counts(spec.pi, CROWD_N)
    cfg = simulator.SimConfig(N=CROWD_N, counts=counts, grid=grid, seed=seed)
    xbar_values, xbar_times = mf.xbar.values, mf.grid.times()

    def run():
        batch = simulator.simulate_population(spec, mf, cfg)
        costs = [simulator.empirical_cost(batch, spec, k, "exploratory-regularized",
                                          spec.rho) for k in range(spec.K)]
        return batch, costs

    def check(output):
        batch, costs = output
        checks.check_population(spec, xbar_values, xbar_times, batch,
                                CROWD_CHECKPOINTS)
        checks.check_costs(costs)

    return Op(f"population:{name}", run, check)


# ---------------------------------------------------------------------------
# nash: tagged-agent epsilon-Nash computations of criterion 5
# ---------------------------------------------------------------------------

COST_GAP_NS = (16, 64, 256, 1024)
COST_GAP_REPS = 8
NASH_RUNS = ((16, 24), (1024, 8))       # (N, repetitions)
NASH_HORIZON = 6.0                      # the experiments' default grid


def nash_family():
    """Criterion 5's six-member deviation family."""
    return ([simulator.PolicyDeviation(mean_shift=[d])
             for d in (-0.018, -0.009, 0.009, 0.018)]
            + [simulator.PolicyDeviation(cov_scale=c) for c in (0.9, 1.15)])


def nash(seed: int, out: Path, tracer) -> list[Op]:
    spec = coupled_single_type_spec()
    mf = meanfield.solve_consistency(spec)
    family = nash_family()
    ops = [Op("cost_gap",
              lambda: simulator.cost_gap_experiment(
                  spec, mf, list(COST_GAP_NS), reps=COST_GAP_REPS, seed=seed),
              lambda res: checks.check_cost_gap(res.summary))]
    for N, reps in NASH_RUNS:
        ops.append(Op(f"nash:N{N}",
                      lambda N=N, reps=reps: simulator.nash_deviation_experiment(
                          spec, mf, N, family, reps=reps, seed=seed),
                      lambda res: checks.check_cov_scale_costs(
                          res.summary, family, spec, NASH_HORIZON)))
    return ops


# ---------------------------------------------------------------------------
# trading: learn-plan-act loop and noise-free recovery (criterion 10)
# ---------------------------------------------------------------------------

TRUE_MARKET = dict(sigma=0.1, lambda_perm=0.05, a_temp=0.05, phi_urgency=0.1,
                   psi_terminal=1.0, T=1.0, F0=10.0, q0=5.0)
INIT_MARKET = dict(TRUE_MARKET, sigma=0.2, lambda_perm=0.0, a_temp=0.02)
LOOP = dict(iterations=5, inner_repeats=5, n_traders=8, steps=600,
            lambda_explore=0.1)
RECOVERY_STEPS = 200


def trading_workload(seed: int, out: Path, tracer) -> list[Op]:
    true = trading.MarketParams(**TRUE_MARKET)
    init = trading.MarketParams(**INIT_MARKET)
    clean = trading.MarketParams(**dict(TRUE_MARKET, sigma=1e-12))
    cfg = trading.TradingLoopConfig(seed=seed, **LOOP)

    def recovery():
        mapping = trading.to_lqg(true, lambda_explore=LOOP["lambda_explore"])
        fh = trading.solve_finite_horizon(mapping, steps=RECOVERY_STEPS)
        pol = trading.trading_policy(mapping, fh)
        ds = trading.TradingDataset()
        ds.append(trading.simulate_market(clean, pol, 4,
                                          TimeGrid(0.0, true.T, RECOVERY_STEPS), seed))
        return trading.estimate_params(ds)

    return [Op("rl_loop", lambda: trading.rl_loop(true, init, cfg),
               lambda tr: checks.check_learning(tr.rows, true, LOOP["iterations"])),
            Op("recovery", recovery, lambda est: checks.check_recovery(est, true))]


WORKLOADS = {
    "equilibrium": equilibrium,
    "crowd": crowd,
    "nash": nash,
    "trading": trading_workload,
}
