"""Command-line front end: load a game spec or a market doc, run the
solvers and the equilibrium experiments, and emit CSV/JSON tables.

`main` is the one error boundary: the commands raise, and only `main`
turns an exception into an exit code.  Every command reads its input file
as a JSON document, then builds the spec or market parameters from it
inside the output directory's run, before any other work; construction
refuses a malformed spec (a block of the wrong shape, a string or a bool
for a number, a non-finite number) with a ValueError.  0 on success; 1 on
a usage, input or I/O error (OSError, KeyError, TypeError, the other
ValueErrors, and MemoryError, a grid or a batch too large for memory); 2
on a numerical failure (RuntimeError, SpecValidationError, which reports a
violated model assumption, LinAlgError).  Once the output directory exists,
a failure writes error.json there.

Every run writes a manifest (command, inputs, seed, version, timestamp) and
a copy of the input into the output directory; reruns with the same
command, input and seed write every other file byte for byte the same.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .meanfield import consistency_residual, solve_consistency, stability_reports
from .model import SpecValidationError, spec_from_json
from .numerics import (RNG_SCHEME, TimeGrid, cholesky_psd, rng_stream, write_csv,
                       write_json)
from .policy import exploration_covariance, policy_entropy, value_gap
from .simulator import (PolicyDeviation, coe_experiment, cost_gap_experiment,
                        coupling_gap_experiment, nash_deviation_experiment,
                        write_experiment_csv)
from .trading import (TradingLoopConfig, doc_float, doc_int, params_from_json, rl_loop,
                      simulate_market, solve_finite_horizon, to_lqg, trading_policy)
from .variational import gaussian_grid_density

# exit 2 is caught first: SpecValidationError and LinAlgError are ValueErrors
_EXIT_2 = (RuntimeError, SpecValidationError, np.linalg.LinAlgError)
_EXIT_1 = (OSError, KeyError, TypeError, ValueError, MemoryError)


def _prepare_out(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "manifest.json", {
        "command": args.command + (f":{args.kind}" if "kind" in args else ""),
        "spec": args.path,
        "overrides": {name: getattr(args, name) for name in args.overrides},
        "seed": args.seed,
        "rng_scheme": RNG_SCHEME,
        "out": str(args.out),
        "tool_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    })
    src = Path(args.path)
    if src.exists():
        shutil.copy(src, out / src.name)
    return out


def _fail(out: Path | None, exc: Exception, code: int) -> int:
    doc = {"error": str(exc) or type(exc).__name__, "type": type(exc).__name__}
    if out is not None:
        try:
            write_json(out / "error.json", doc)
        except OSError:
            pass
    print(f"error: {exc}", file=sys.stderr)
    return code


def _load_doc(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _solve(spec, args):
    """The consistency solve on the grid that --horizon and --steps set."""
    if args.steps is not None and args.steps < 4:
        # the independent residual's fourth-order difference needs 5 nodes
        raise ValueError(f"--steps must be at least 4, got {args.steps}")
    if args.horizon is not None and not 0 < args.horizon < math.inf:
        raise ValueError(f"--horizon must be positive and finite, got {args.horizon}")
    mf = solve_consistency(spec, horizon=args.horizon, steps=args.steps)
    if mf.grid.steps < 4:       # the automatic step count of a short horizon
        raise ValueError(f"--horizon {args.horizon} gives {mf.grid.steps} grid step(s) of "
                         f"{mf.grid.dt:.3g}; at least 4 are needed: lengthen --horizon "
                         f"or pass --steps")
    return mf


def cmd_solve(args, spec_doc: dict, out: Path) -> None:
    spec = spec_from_json(spec_doc)
    mf = _solve(spec, args)
    reports = stability_reports(mf, spec)
    doc = mf.to_json_dict()
    doc["independent_residual"] = consistency_residual(mf, spec)
    write_json(out / "meanfield_solution.json", doc)
    stable = all(r.ok for r in reports)
    write_json(out / "stability_report.json", {
        "ok": stable,
        "per_type": [{"ok": r.ok, "pi_min_eig": r.pi_min_eig,
                      "abar_margin": r.abar_margin,
                      "closed_loop_margin": r.closed_loop_margin,
                      "messages": list(r.messages)} for r in reports],
    })
    print(f"solved directly, residual {mf.residual:.3e}, stable={stable}")
    if not stable:
        failed = "; ".join(f"type {k}: {msg}" for k, r in enumerate(reports)
                           for msg in r.messages)
        raise RuntimeError(f"stability margins fail: {failed}")


def _parse_list(text: str, flag: str, cast=float) -> list:
    values = [cast(v) for v in text.split(",") if v.strip()]
    if not values or not all(map(math.isfinite, values)):
        raise ValueError(f"{flag} needs one or more finite values, got {text!r}")
    return values


def _default_family(m: int) -> list[PolicyDeviation]:
    fam = []
    for d in (-0.5, -0.25, 0.25, 0.5):
        fam.append(PolicyDeviation(mean_shift=np.full(m, d)))
    for f in (0.8, 1.25):
        fam.append(PolicyDeviation(cov_scale=f))
    return fam


def _gap(experiment):
    def run(spec, args):
        Ns = _parse_list(args.Ns, "--Ns", int)
        res = experiment(spec, _solve(spec, args), Ns, reps=args.reps, seed=args.seed)
        return res.rows, res.summary
    return run


def _nash(spec, args):
    Ns = _parse_list(args.Ns, "--Ns", int)
    mf = _solve(spec, args)
    rows, summary = [], {"eps_hat": {}}
    for N in Ns:
        res = nash_deviation_experiment(spec, mf, N, _default_family(spec.m),
                                        reps=args.reps, seed=args.seed)
        rows.extend(res.rows)
        summary["eps_hat"][str(N)] = res.summary["eps_hat"]
        summary[f"N{N}"] = res.summary
    return rows, summary


def _coe(spec, args):
    res = coe_experiment(spec, _solve(spec, args), 0, reps=args.reps, seed=args.seed)
    return res.rows, res.summary


def _with_lambda(spec, lam: float):
    subs = tuple(replace(p, lambda_explore=lam) for p in spec.subpops)
    return replace(spec, subpops=subs)


def _lambda_sweep(spec, args):
    """Value-gap formula across exploration weights, plus a sampled
    action-vs-mean RMS at the smallest weight."""
    lams = _parse_list(args.lambda_list, "--lambda-list")
    rows, gaps = [], []
    for i, lam in enumerate(lams):
        s = _with_lambda(spec, lam)
        g = value_gap(0, s)
        gaps.append(g)
        rows.append({"experiment": "lambda-sweep", "N": 0, "rep": i,
                     "checkpoint_t": lam, "value": g, "std_err": ""})
    p = _with_lambda(spec, min(lams)).subpops[0]
    cov = exploration_covariance(p)
    rng = rng_stream(args.seed)
    dev = rng.standard_normal((100000, p.m)) @ cholesky_psd(cov).T
    rms = float(np.sqrt(np.mean(np.sum(dev ** 2, axis=1))))
    summary = {"lambdas": lams, "value_gaps": gaps,
               "abs_monotone_to_zero": bool(np.all(np.diff(np.abs(gaps)) < 0)),
               "action_vs_mean_rms_at_min_lambda": rms}
    return rows, summary


def _entropy_audit(spec, args):
    """Cross-check of the Gaussian policy entropy: closed form, quadrature,
    and the two discounted-integral conventions for lambda*E[ln density].

    The entropy of the optimal policy is state- and time-independent, so a
    single well-resolved +-8 sigma box per exploration weight suffices.
    """
    rows, audit = [], []
    for i, lam in enumerate(_parse_list(args.lambda_list, "--lambda-list")):
        s = _with_lambda(spec, lam)
        p = s.subpops[0]
        closed = policy_entropy(0, s)
        logdet = 2.0 * closed - p.m                   # ln det(2 pi lam R^-1)
        logdet_convention = lam / (2 * s.rho) * logdet
        standard_identity = -lam / (2 * s.rho) * (logdet + p.m)
        quad_entropy = None
        quad_discounted = None
        if p.m == 1:
            var = exploration_covariance(p)[0, 0]
            sig = math.sqrt(var)
            gd = gaussian_grid_density([0.0], [[var]], [-8 * sig], [8 * sig],
                                       (801,))
            quad_entropy = gd.entropy()
            # discounted integral of lambda * int Phi ln Phi (entropy is
            # time-independent for the Gaussian policy)
            quad_discounted = -lam * quad_entropy / s.rho
        discrepancy = (logdet_convention - quad_discounted
                       if quad_discounted is not None else None)
        audit.append({"lambda": lam, "closed_form_entropy": closed,
                      "quadrature_entropy": quad_entropy,
                      "logdet_convention_discounted": logdet_convention,
                      "standard_identity_discounted": standard_identity,
                      "quadrature_discounted": quad_discounted,
                      "convention_minus_quadrature": discrepancy})
        rows.append({"experiment": "entropy-audit", "N": 0, "rep": i,
                     "checkpoint_t": lam,
                     "value": discrepancy if discrepancy is not None else 0.0,
                     "std_err": ""})
    summary = {"audit": audit,
               "note": ("quadrature matches the standard Gaussian identity; "
                        "the (lambda/2 rho) ln det(2 pi lambda R^-1) convention "
                        "differs from it in sign and additive constant")}
    return rows, summary


_SOLVE_FLAGS = ("--steps", "--horizon")
_GAP_FLAGS = _SOLVE_FLAGS + ("--reps", "--Ns")
# kind -> (runner(spec, args) -> (rows, summary), the flags it reads)
_EXPERIMENTS = {"coupling-gap": (_gap(coupling_gap_experiment), _GAP_FLAGS),
                "cost-gap": (_gap(cost_gap_experiment), _GAP_FLAGS),
                "nash": (_nash, _GAP_FLAGS),
                "coe": (_coe, _SOLVE_FLAGS + ("--reps",)),
                "lambda-sweep": (_lambda_sweep, ("--lambda-list",)),
                "entropy-audit": (_entropy_audit, ("--lambda-list",))}
EXPERIMENT_KINDS = tuple(_EXPERIMENTS)


def cmd_experiment(args, spec_doc: dict, out: Path) -> None:
    rows, summary = _EXPERIMENTS[args.kind][0](spec_from_json(spec_doc), args)
    write_experiment_csv(out / "experiment.csv", rows)
    write_json(out / "summary.json", summary)
    print(f"{args.kind}: wrote {len(rows)} rows to {out / 'experiment.csv'}")


def cmd_trade(args, doc: dict, out: Path) -> None:
    params = params_from_json(doc)
    lam_explore = doc_float(doc, "lambda_explore", 0.1)
    n_traders = doc_int(doc, "n_traders", 8)
    steps = doc_int(doc, "steps", 200)
    if args.kind == "simulate":
        reps = args.reps
        mapping = to_lqg(params, lambda_explore=lam_explore)
        fh_sol = solve_finite_horizon(mapping, steps=steps)
        pol = trading_policy(mapping, fh_sol)
        grid = TimeGrid(0.0, params.T, steps)
        # episode 0 is the market path written out, episodes 1..reps the drifts
        paths = simulate_market(params, pol, n_traders, grid, args.seed,
                                episodes=range(1 + reps))
        first = paths.episode(0)
        _write_market_csv(out / "market.csv", first)
        drifts = paths.F[1:, -1] - paths.F[1:, 0]
        se = drifts.std(ddof=1) / math.sqrt(reps)
        summary = {
            "terminal_inventory_mean": float(first.q[:, -1].mean()),
            "midprice_drift_mean": float(drifts.mean()),
            "midprice_drift_se": float(se),
            "martingale_check_4se": bool(abs(drifts.mean()) <= 4 * se)
            if params.lambda_perm == 0 else None,
        }
        write_json(out / "summary.json", summary)
    else:
        init = params_from_json(doc.get("init", doc))
        cfg = TradingLoopConfig(
            iterations=doc_int(doc, "iterations", 5),
            inner_repeats=doc_int(doc, "episodes", 5),
            n_traders=n_traders, steps=steps,
            lambda_explore=lam_explore, seed=args.seed)
        trace = rl_loop(params, init, cfg)
        trace.write_csv(out / "trace.csv")
        write_json(out / "trace.json", trace.rows)
        last = trace.rows[-1]
        write_json(out / "summary.json", {
            "iterations": len(trace.rows),
            "final": last,
            "gain_drift": _gain_drift(trace),
        })
        if last["failed"]:
            raise RuntimeError(f"plan failed at iteration {last['iteration']}: "
                               f"{last['error']}")
    print(f"trade:{args.kind} outputs in {out}")


def _gain_drift(trace) -> float | None:
    gains = [r["gain_q0"] for r in trace.rows if "gain_q0" in r]
    if len(gains) < 2 or gains[0] == 0:
        return None
    return float(max(abs(g - gains[0]) / abs(gains[0]) for g in gains[1:]))


def _write_market_csv(path: Path, paths) -> None:
    nu_mean = paths.nu.mean(axis=0)
    write_csv(path, ["t", "F", "q_mean", "nu_mean", "cash_mean"],
              [{"t": t, "F": paths.F[0, i], "q_mean": paths.q[:, i].mean(),
                "nu_mean": nu_mean[i] if i < nu_mean.size else 0.0,
                "cash_mean": paths.Z[:, i].mean()}
               for i, t in enumerate(paths.grid.times())])


_FLAGS = {
    "--steps": dict(type=int, help="grid steps, at least 4 (default: automatic)"),
    "--horizon": dict(type=float, help="solve horizon (default: automatic)"),
    "--reps": dict(type=int, default=64, help="repetitions"),
    "--Ns": dict(default="16,64,256,1024", help="comma list of population sizes"),
    "--lambda-list": dict(dest="lambda_list",
                          default="1,0.1,0.01,0.001,0.0001,0.00001,0.000001",
                          help="comma list of exploration weights"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    ap = argparse.ArgumentParser(prog="lqgmfg",
                                 description="Exploratory LQG mean-field-game solver and experiments")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(p, path, flags):
        p.add_argument("path", metavar=path[0], help=path[1])
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default="out", help="output directory")
        dests = [p.add_argument(flag, **_FLAGS[flag]).dest for flag in flags]
        # the flags besides --seed and --out go into the manifest's overrides
        p.set_defaults(overrides=dests, parser=p)

    def kinds(name, help):
        return sub.add_parser(name, help=help).add_subparsers(dest="kind", required=True)

    spec = ("spec", "population spec JSON")
    command(sub.add_parser("solve", help="solve the consistency fixed point"), spec,
            _SOLVE_FLAGS)
    experiment = kinds("experiment", "run an equilibrium experiment")
    for kind, (_, flags) in _EXPERIMENTS.items():
        command(experiment.add_parser(kind), spec, flags)
    trade = kinds("trade", "trading application (simulate | learn)")
    for kind, flags in (("simulate", ("--reps",)), ("learn", ())):
        command(trade.add_parser(kind), ("params", "market params JSON"), flags)
    return ap


def main(argv=None) -> int:
    """Run one command.  The one place where an exception becomes an exit
    code; see the module docstring for the rule."""
    try:
        args, foreign = build_parser().parse_known_args(argv)
        if foreign:     # from the command's own parser: its usage lists its flags
            args.parser.error(f"unrecognized arguments: {' '.join(foreign)}")
    except SystemExit as exc:       # --help, or a usage error argparse printed
        return 0 if exc.code == 0 else 1
    out = None
    try:
        doc = _load_doc(args.path)
        out = _prepare_out(args)
        # every command that takes --reps reports a standard error over them
        if getattr(args, "reps", 2) < 2:
            raise ValueError(f"--reps must be at least 2 for a standard error, "
                             f"got {args.reps}")
        # the command is read from the module at each call, not kept by the
        # parser, which is built once: a replaced cmd_solve is the one that runs
        globals()[f"cmd_{args.command}"](args, doc, out)
    except _EXIT_2 as exc:
        return _fail(out, exc, 2)
    except _EXIT_1 as exc:
        return _fail(out, exc, 1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
