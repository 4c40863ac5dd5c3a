"""Command-line front end: load a game spec, run the solvers and the
equilibrium experiments, and emit CSV/JSON tables.

Every run writes a manifest (command, inputs, seed, version, timestamp) and
a copy of the input spec into the output directory; reruns with the same
command, spec, and seed write every other file byte for byte the same.
Exit codes: 0 on success, 1 on usage or I/O errors, 2 on numerical failures
(divergence, instability).
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .meanfield import (ConsistencyError, SolverConfig, consistency_residual,
                        solve_consistency, stability_reports)
from .model import SpecValidationError, load_spec
from .numerics import (RNG_SCHEME, OdeBlowupError, TimeGrid, rng_stream, write_csv,
                       write_json)
from .policy import exploration_covariance, policy_entropy, value_gap
from .riccati import RiccatiError
from .simulator import (PolicyDeviation, coe_experiment, cost_gap_experiment,
                        coupling_gap_experiment, nash_deviation_experiment,
                        write_experiment_csv)
from .trading import (TradingLoopConfig, params_from_json, rl_loop,
                      simulate_market, solve_finite_horizon, to_lqg,
                      trading_policy)
from .variational import gaussian_grid_density

_NUMERIC_ERRORS = (ConsistencyError, RiccatiError, OdeBlowupError,
                   SpecValidationError, np.linalg.LinAlgError)

EXPERIMENT_KINDS = ("coupling-gap", "cost-gap", "nash", "coe", "lambda-sweep",
                    "entropy-audit")


def _manifest(args, command: str, spec_path: str, overrides: dict) -> dict:
    return {
        "command": command,
        "spec": spec_path,
        "overrides": overrides,
        "seed": args.seed,
        "rng_scheme": RNG_SCHEME,
        "out": str(args.out),
        "tool_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def _prepare_out(args, command: str, spec_path: str, overrides: dict) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "manifest.json", _manifest(args, command, spec_path, overrides))
    src = Path(spec_path)
    if src.exists():
        shutil.copy(src, out / src.name)
    return out


def _fail(out: Path | None, exc: Exception, code: int) -> int:
    doc = {"error": str(exc), "type": type(exc).__name__}
    if out is not None:
        try:
            write_json(out / "error.json", doc)
        except OSError:
            pass
    print(f"error: {exc}", file=sys.stderr)
    return code


def _solver_config(args) -> SolverConfig:
    return SolverConfig(horizon=args.horizon, steps=args.steps)


def cmd_solve(args) -> int:
    out = None
    try:
        spec = load_spec(args.spec)
        out = _prepare_out(args, "solve", args.spec,
                           {"horizon": args.horizon, "steps": args.steps})
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        return _fail(out, exc, 1)
    try:
        mf = solve_consistency(spec, _solver_config(args))
    except _NUMERIC_ERRORS as exc:
        return _fail(out, exc, 2)
    reports = stability_reports(mf, spec)
    doc = mf.to_json_dict()
    doc["independent_residual"] = consistency_residual(mf, spec)
    write_json(out / "meanfield_solution.json", doc)
    write_json(out / "stability_report.json", {
        "ok": all(r.ok for r in reports),
        "per_type": [{"ok": r.ok, "pi_min_eig": r.pi_min_eig,
                      "abar_margin": r.abar_margin,
                      "closed_loop_margin": r.closed_loop_margin,
                      "messages": list(r.messages)} for r in reports],
    })
    stable = all(r.ok for r in reports)
    print(f"solved directly, residual {mf.residual:.3e}, stable={stable}")
    if stable:
        return 0
    failed = "; ".join(f"type {k}: {msg}" for k, r in enumerate(reports)
                       for msg in r.messages)
    return _fail(out, RuntimeError(f"stability margins fail: {failed}"), 2)


def _parse_ns(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def _parse_lambdas(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _default_family(m: int) -> list[PolicyDeviation]:
    fam = []
    for d in (-0.5, -0.25, 0.25, 0.5):
        fam.append(PolicyDeviation(mean_shift=np.full(m, d)))
    for f in (0.8, 1.25):
        fam.append(PolicyDeviation(cov_scale=f))
    return fam


def cmd_experiment(args) -> int:
    out = None
    try:
        spec = load_spec(args.spec)
        out = _prepare_out(args, f"experiment:{args.kind}", args.spec,
                           {"reps": args.reps, "Ns": args.Ns,
                            "lambda_list": args.lambda_list,
                            "horizon": args.horizon, "steps": args.steps})
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        return _fail(out, exc, 1)
    try:
        rows: list[dict] = []
        summary: dict = {}
        kind = args.kind
        if kind == "coupling-gap":
            mf = solve_consistency(spec, _solver_config(args))
            res = coupling_gap_experiment(spec, mf, _parse_ns(args.Ns),
                                          reps=args.reps, seed=args.seed)
            rows, summary = res.rows, res.summary
        elif kind == "cost-gap":
            mf = solve_consistency(spec, _solver_config(args))
            res = cost_gap_experiment(spec, mf, _parse_ns(args.Ns),
                                      reps=args.reps, seed=args.seed)
            rows, summary = res.rows, res.summary
        elif kind == "nash":
            mf = solve_consistency(spec, _solver_config(args))
            summary = {"eps_hat": {}}
            for N in _parse_ns(args.Ns):
                res = nash_deviation_experiment(spec, mf, N,
                                                _default_family(spec.m),
                                                reps=args.reps, seed=args.seed)
                rows.extend(res.rows)
                summary["eps_hat"][str(N)] = res.summary["eps_hat"]
                summary[f"N{N}"] = res.summary
        elif kind == "coe":
            mf = solve_consistency(spec, _solver_config(args))
            res = coe_experiment(spec, mf, 0, reps=args.reps, seed=args.seed)
            rows, summary = res.rows, res.summary
        elif kind == "lambda-sweep":
            rows, summary = _lambda_sweep(spec, args)
        elif kind == "entropy-audit":
            rows, summary = _entropy_audit(spec, args)
        else:  # pragma: no cover - argparse restricts choices
            raise ValueError(f"unknown experiment kind {kind}")
    except _NUMERIC_ERRORS as exc:
        return _fail(out, exc, 2)
    except ValueError as exc:       # an argument out of range
        return _fail(out, exc, 1)
    write_experiment_csv(out / "experiment.csv", rows)
    write_json(out / "summary.json", summary)
    print(f"{args.kind}: wrote {len(rows)} rows to {out / 'experiment.csv'}")
    return 0


def _with_lambda(spec, lam: float):
    from dataclasses import replace
    subs = tuple(replace(p, lambda_explore=lam) for p in spec.subpops)
    return replace(spec, subpops=subs)


def _lambda_sweep(spec, args):
    """Value-gap formula across exploration weights, plus a sampled
    action-vs-mean RMS at the smallest weight."""
    lams = _parse_lambdas(args.lambda_list)
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
    dev = rng.standard_normal((100000, p.m)) @ np.linalg.cholesky(
        cov + 1e-300 * np.eye(p.m)).T
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
    lams = _parse_lambdas(args.lambda_list) if args.lambda_list else None
    lams = lams or [spec.subpops[0].lambda_explore]
    rows, audit = [], []
    for i, lam in enumerate(lams):
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


def cmd_trade(args) -> int:
    out = None
    try:
        with open(args.params) as fh:
            doc = json.load(fh)
        params = params_from_json(doc)
        out = _prepare_out(args, f"trade:{args.kind}", args.params,
                           {"reps": args.reps, "steps": args.steps})
    except (OSError, json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
        return _fail(out, exc, 1)
    lam_explore = float(doc.get("lambda_explore", 0.1))
    n_traders = int(doc.get("n_traders", 8))
    steps = args.steps or int(doc.get("steps", 200))
    try:
        if args.kind == "simulate":
            mapping = to_lqg(params, lambda_explore=lam_explore)
            fh_sol = solve_finite_horizon(mapping, steps=steps)
            pol = trading_policy(mapping, fh_sol)
            grid = TimeGrid(0.0, params.T, steps)
            paths = simulate_market(params, pol, n_traders, grid, args.seed)
            _write_market_csv(out / "market.csv", paths)
            reps = args.reps or 64
            drifts = []
            for rep in range(reps):
                pr = simulate_market(params, pol, n_traders, grid, args.seed,
                                     rep=1 + rep)
                drifts.append(pr.F[-1] - pr.F[0])
            drifts = np.asarray(drifts)
            se = drifts.std(ddof=1) / math.sqrt(reps)
            summary = {
                "terminal_inventory_mean": float(paths.q[:, -1].mean()),
                "midprice_drift_mean": float(drifts.mean()),
                "midprice_drift_se": float(se),
                "martingale_check_4se": bool(abs(drifts.mean()) <= 4 * se)
                if params.lambda_perm == 0 else None,
            }
            write_json(out / "summary.json", summary)
        else:
            init = params_from_json(doc.get("init", doc))
            cfg = TradingLoopConfig(
                iterations=int(doc.get("iterations", 5)),
                inner_repeats=int(doc.get("episodes", 5)),
                n_traders=n_traders, steps=steps,
                lambda_explore=lam_explore, seed=args.seed)
            trace = rl_loop(params, init, cfg)
            trace.write_csv(out / "trace.csv")
            write_json(out / "trace.json", trace.to_json())
            last = trace.rows[-1]
            write_json(out / "summary.json", {
                "iterations": len(trace.rows),
                "final": last,
                "gain_drift": _gain_drift(trace),
            })
            if last.get("failed"):
                return 2
        print(f"trade:{args.kind} outputs in {out}")
        return 0
    except _NUMERIC_ERRORS + (RuntimeError,) as exc:
        return _fail(out, exc, 2)


def _gain_drift(trace) -> float | None:
    gains = [r["gain_q0"] for r in trace.rows if "gain_q0" in r]
    if len(gains) < 2 or gains[0] == 0:
        return None
    return float(max(abs(g - gains[0]) / abs(gains[0]) for g in gains[1:]))


def _write_market_csv(path: Path, paths) -> None:
    nu_mean = paths.nu.mean(axis=0)
    write_csv(path, ["t", "F", "q_mean", "nu_mean", "cash_mean"],
              [{"t": t, "F": paths.F[i], "q_mean": paths.q[:, i].mean(),
                "nu_mean": nu_mean[i] if i < nu_mean.size else 0.0,
                "cash_mean": paths.Z[:, i].mean()}
               for i, t in enumerate(paths.grid.times())])


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="lqgmfg",
                                 description="Exploratory LQG mean-field-game solver and experiments")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--steps", type=int, default=None)
        p.add_argument("--horizon", type=float, default=None)
        p.add_argument("--reps", type=int, default=64)
        p.add_argument("--Ns", default="16,64,256,1024", help="comma list of population sizes")
        p.add_argument("--lambda-list", dest="lambda_list",
                       default="1,0.1,0.01,0.001,0.0001,0.00001,0.000001")

    ps = sub.add_parser("solve", help="solve the consistency fixed point")
    ps.add_argument("spec", help="population spec JSON")
    common(ps)
    ps.set_defaults(func=cmd_solve)

    pe = sub.add_parser("experiment", help="run an equilibrium experiment")
    pe.add_argument("kind", choices=EXPERIMENT_KINDS)
    pe.add_argument("spec", help="population spec JSON")
    common(pe)
    pe.set_defaults(func=cmd_experiment)

    pt = sub.add_parser("trade", help="trading application (simulate | learn)")
    pt.add_argument("kind", choices=("simulate", "learn"))
    pt.add_argument("params", help="market params JSON")
    common(pt)
    pt.set_defaults(func=cmd_trade)
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
