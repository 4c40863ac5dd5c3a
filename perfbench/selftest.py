"""Shows that the benchmark's checks can fail.

    python3 perfbench/selftest.py

Each case makes a small real output with ``lqgmfg``, confirms that its check
accepts it, then corrupts it and confirms that the check rejects it:

  * Pi scaled by 1 + 1e-6                      (equilibrium)
  * the mean path shifted by 1e-4, from t=0 and from the first step on
                                               (equilibrium)
  * a COE estimate moved by 5 SE               (crowd)
  * a covariance-scale cost increase off by 1% (nash)
  * lambda_hat moved by 4 SE                   (trading)

Exits 0 when every check accepts the real output and rejects the corrupted
one, 1 otherwise.  Takes about 20 s on 2 cores.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import copy  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import run  # noqa: E402  (also puts this tree's src/ on sys.path)

run._import_package()

import checks  # noqa: E402
import workloads  # noqa: E402
from lqgmfg import cli, meanfield, simulator, trading  # noqa: E402
from lqgmfg.model import save_spec  # noqa: E402
from lqgmfg.presets import coupled_single_type_spec, planar_spec, scalar_decoupled_spec  # noqa: E402


def _solve_output(out: Path):
    spec = scalar_decoupled_spec()
    out.mkdir(parents=True, exist_ok=True)
    save_spec(spec, out / "spec.json")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["solve", str(out / "spec.json"), "--out", str(out / "cli")])
    with open(out / "cli" / "meanfield_solution.json") as fh:
        solution = json.load(fh)
    with open(out / "cli" / "stability_report.json") as fh:
        stability = json.load(fh)
    return spec, code, solution, stability


def cases(out: Path):
    """(name, check, real output, corrupt(output) -> corrupted output)."""
    spec, code, solution, stability = _solve_output(out)

    def solve_check(sol):
        checks.check_solve(spec, code, sol, stability, decoupled=True)

    def scale_pi(sol):
        sol = copy.deepcopy(sol)
        sol["Pi"] = [[[v * (1.0 + 1e-6) for v in row] for row in Pi] for Pi in sol["Pi"]]
        return sol

    def shift_mean(first):
        def corrupt(sol):
            sol = copy.deepcopy(sol)
            sol["xbar"][first:] = [[v + 1e-4 for v in row]
                                   for row in sol["xbar"][first:]]
            return sol
        return corrupt

    yield "Pi scaled by 1+1e-6", solve_check, solution, scale_pi
    yield "mean path shifted by 1e-4", solve_check, solution, shift_mean(0)
    yield ("mean path shifted by 1e-4 after t=0", solve_check, solution,
           shift_mean(1))

    planar = planar_spec()
    coe = simulator.coe_experiment(planar, meanfield.solve_consistency(planar), 0,
                                   reps=200, seed=1).summary

    def move_coe(s):
        # away from the target, so the move shows whatever the seed's own error
        away = 1.0 if s["estimate"] >= s["analytic"] else -1.0
        return dict(s, estimate=s["estimate"] + away * 5.0 * s["std_err"])

    yield ("COE estimate moved by 5 SE", lambda s: checks.check_coe(s, planar),
           coe, move_coe)

    coupled = coupled_single_type_spec()
    family = workloads.nash_family()
    nash = simulator.nash_deviation_experiment(
        coupled, meanfield.solve_consistency(coupled), 16, family, reps=2,
        seed=1).summary

    def skew_increase(s):
        costs = list(s["deviation_costs"])
        j = next(i for i, d in enumerate(family) if d.cov_scale != 1.0)
        costs[j] = s["equilibrium_cost"] + 1.01 * (costs[j] - s["equilibrium_cost"])
        return dict(s, deviation_costs=costs)

    yield ("cov-scale cost increase off by 1%",
           lambda s: checks.check_cov_scale_costs(s, family, coupled,
                                                  workloads.NASH_HORIZON),
           nash, skew_increase)

    true = trading.MarketParams(**workloads.TRUE_MARKET)
    loop = dict(workloads.LOOP, steps=200)
    rows = trading.rl_loop(true, trading.MarketParams(**workloads.INIT_MARKET),
                           trading.TradingLoopConfig(seed=1, **loop)).rows

    def move_lambda(rs):
        rs = copy.deepcopy(rs)
        rs[-1]["lambda_hat"] = true.lambda_perm + 4.0 * rs[-1]["se_lambda"]
        return rs

    yield ("lambda_hat moved by 4 SE",
           lambda rs: checks.check_learning(rs, true, loop["iterations"]),
           rows, move_lambda)


def main() -> int:
    out = run.ROOT / run.OUT / "selftest"
    shutil.rmtree(out, ignore_errors=True)
    bad = 0
    try:
        for name, check, output, corrupt in cases(out):
            try:
                check(output)
                accepted = True
            except checks.CheckFailed as exc:
                accepted, why = False, str(exc)
            try:
                check(corrupt(output))
                rejected, reason = False, ""
            except checks.CheckFailed as exc:
                rejected, reason = True, str(exc)
            ok = accepted and rejected
            bad += not ok
            detail = reason if accepted else f"real output rejected: {why}"
            print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail or 'corruption accepted'}")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
