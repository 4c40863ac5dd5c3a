import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings

from conftest import random_specs, unconstrained_specs

from lqgmfg.cli import build_parser, main
from lqgmfg.meanfield import consistency_residual, solve_consistency
from lqgmfg.numerics import RNG_SCHEME
from lqgmfg.model import (PopulationSpec, SubpopParams, load_spec, save_spec,
                          spec_to_json, validate_spec)
from lqgmfg.presets import (coupled_single_type_spec, scalar_decoupled_spec,
                            two_type_spec, unstable_spec)
from lqgmfg.trading import MarketParams


# two_type_spec with one field of the wrong shape: where, key, value
_MALFORMED_TWO_TYPE = {
    "Q_shape": ("subpop", "Q", [[1.0, 0.0]]),
    "eta_shape": ("subpop", "eta", [0.1, 0.2]),
    "nvec_shape": ("subpop", "nvec", [0.1, 0.2]),
    "D_rows": ("subpop", "D", [[0.2], [0.1]]),
    "b_width": ("subpop", "b", [0.1, 0.2]),
    "x0_mean_shape": ("spec", "x0_mean", [0.5, 0.1]),
    "x0_cov_shape": ("spec", "x0_cov", [[0.1, 0.0]]),
    "pi_length": ("spec", "pi", [0.6, 0.3, 0.1]),
}
# each malformed spec file and what its error.json names
_MALFORMED = {**{name: f"{key} must have shape"
                 for name, (_w, key, _v) in _MALFORMED_TWO_TYPE.items()},
              "rho_str": "rho must be a number", "lambda_bool": "lambda_explore must be a number",
              "A_str": "A must be a number", "pi_bool": "pi must be a number"}


@pytest.fixture(scope="module")
def spec_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    dec = root / "decoupled.json"
    save_spec(scalar_decoupled_spec(), dec)
    coup = root / "coupled.json"
    save_spec(coupled_single_type_spec(), coup)
    uns = root / "unstable.json"
    save_spec(unstable_spec(), uns)
    market = root / "market.json"
    doc = dataclasses.asdict(MarketParams(sigma=0.1, lambda_perm=0.05, a_temp=0.05,
                                          phi_urgency=0.1, psi_terminal=1.0, T=1.0,
                                          F0=10.0, q0=5.0))
    doc.update(lambda_explore=0.1, iterations=3, episodes=3, n_traders=4)
    doc["init"] = dict(sigma=0.2, lambda_perm=0.0, a_temp=0.02, phi_urgency=0.1,
                       psi_terminal=1.0, T=1.0, F0=10.0, q0=5.0)
    market.write_text(json.dumps(doc))
    (root / "market_steps.json").write_text(json.dumps(dict(doc, steps=-5)))
    (root / "market_no_traders.json").write_text(json.dumps(dict(doc, n_traders=0)))
    (root / "market_no_episodes.json").write_text(json.dumps(dict(doc, episodes=0)))
    # a non-finite number, or a fraction where a count belongs, is an input error
    for name, bad in (("q0_inf", dict(q0=math.inf)), ("lambda_nan", dict(lambda_explore=math.nan)),
                      ("steps_frac", dict(steps=1.5)), ("traders_frac", dict(n_traders=2.5)),
                      ("iterations_frac", dict(iterations=1.5)),
                      ("episodes_frac", dict(episodes=1.5))):
        (root / f"market_{name}.json").write_text(json.dumps(dict(doc, **bad)))
    # a bool or a string where a real number belongs is refused, not converted
    for name, bad in (("sigma_bool", dict(sigma=True)), ("lambda_str", dict(lambda_explore="0.2")),
                      ("init_sigma_str", dict(init=dict(doc["init"], sigma="0.1"))),
                      ("init_q0_bool", dict(init=dict(doc["init"], q0=False)))):
        (root / f"market_{name}.json").write_text(json.dumps(dict(doc, **bad)))
    (root / "market_a0.json").write_text(json.dumps(
        dict(doc, init=dict(doc["init"], a_temp=0.0))))      # R = 0 in the first plan
    # a spec with a non-finite number, with offset knots that do not
    # increase, with a block of the wrong shape or with a string or a bool
    # for a number is refused where it is built
    coupled = {
        "lambda_nan": ("subpop", "lambda_explore", math.nan),
        "D_nan": ("subpop", "D", [[math.nan]]),
        "b_knots": ("subpop", "b", {"times": [4.0, 0.0], "values": [[0.1], [0.2]]}),
        "x0_cov_nan": ("spec", "x0_cov", [[math.nan]]),
        "x0_mean_nan": ("spec", "x0_mean", [math.nan]),
        "pi_nan": ("spec", "pi", [math.nan]),
        "rho_str": ("spec", "rho", "0.5"),
        "lambda_bool": ("subpop", "lambda_explore", True),
        "A_str": ("subpop", "A", [["0.0"]]),
        "pi_bool": ("spec", "pi", [True])}
    for base, cases in ((coupled_single_type_spec, coupled),
                        (two_type_spec, _MALFORMED_TWO_TYPE)):
        for name, (where, key, value) in cases.items():
            bad = spec_to_json(base())
            (bad["subpops"][0] if where == "subpop" else bad)[key] = value
            (root / f"spec_{name}.json").write_text(json.dumps(bad))
    # a key the reader does not know is refused, not ignored: a block's
    # "lambda" for "lambda_explore" (which would run the classical game), a
    # top-level "rh0" next to "rho"
    bad = spec_to_json(coupled_single_type_spec())
    bad["subpops"][0]["lambda"] = bad["subpops"][0].pop("lambda_explore")
    (root / "spec_block_key.json").write_text(json.dumps(bad))
    (root / "spec_top_key.json").write_text(json.dumps(
        dict(spec_to_json(coupled_single_type_spec()), rh0=0.5)))
    # explicit Euler on the default experiment grids blows up at A = -450
    save_spec(scalar_decoupled_spec(A=-450.0, D=0.1, x0_var=0.1), root / "stiff.json")
    return root


def test_solve_success(spec_files, tmp_path):
    out = tmp_path / "sol"
    rc = main(["solve", str(spec_files / "decoupled.json"), "--out", str(out)])
    assert rc == 0
    assert (out / "meanfield_solution.json").exists()
    assert (out / "stability_report.json").exists()
    assert (out / "manifest.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["rng_scheme"] == RNG_SCHEME
    assert (out / "decoupled.json").exists()  # input copy
    doc = json.loads((out / "meanfield_solution.json").read_text())
    assert doc["residual"] < 1e-8
    rep = json.loads((out / "stability_report.json").read_text())
    assert rep["ok"] is True


def test_solve_reports_direct_solve(spec_files, tmp_path, capsys):
    rc = main(["solve", str(spec_files / "decoupled.json"), "--out", str(tmp_path / "sol")])
    assert rc == 0
    assert capsys.readouterr().out.startswith("solved directly, residual ")


def test_solve_missing_required_key_exit_1(tmp_path):
    doc = spec_to_json(scalar_decoupled_spec())
    del doc["subpops"][0]["R"]
    path = tmp_path / "noR.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path), "--out", str(tmp_path / "o")]) == 1


def test_noise_width_mismatch_exit_1(tmp_path):
    # the simulator draws one noise width for every type: construction
    # refuses ragged D blocks before any work
    doc = spec_to_json(two_type_spec())
    doc["subpops"][1]["D"] = [[0.2, 0.1]]
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "gap"
    rc = main(["experiment", "coupling-gap", str(path), "--out", str(out),
               "--reps", "2", "--Ns", "4,8,16"])
    assert rc == 1
    err = json.loads((out / "error.json").read_text())
    assert err["type"] == "ValueError" and "D has 2 columns" in err["error"]


@pytest.mark.parametrize("kind", ["coe", "lambda-sweep"])
def test_negative_seed_exit_0(spec_files, tmp_path, kind):
    reps = ["--reps", "20"] if kind == "coe" else []      # lambda-sweep reads no --reps
    rc = main(["experiment", kind, str(spec_files / "decoupled.json"),
               "--out", str(tmp_path / kind), "--seed", "-1", *reps])
    assert rc == 0


def test_solve_unstable_exit_2(spec_files, tmp_path):
    out = tmp_path / "uns"
    rc = main(["solve", str(spec_files / "unstable.json"), "--out", str(out)])
    assert rc == 2
    err = json.loads((out / "error.json").read_text())
    assert "diverged" in err["error"]


def test_solve_unstabilizable_exit_2(tmp_path):
    # B = 0 with A - rho/2 > 0: valid inputs, but no stabilizing ARE solution
    spec = PopulationSpec(subpops=(SubpopParams(A=1.0, B=0.0, Q=1.0, R=1.0),),
                          pi=[1.0], rho=0.5, x0_mean=[0.0], x0_cov=[[0.0]])
    assert validate_spec(spec).ok
    path = tmp_path / "unstabilizable.json"
    save_spec(spec, path)
    out = tmp_path / "out"
    assert main(["solve", str(path), "--out", str(out)]) == 2
    err = json.loads((out / "error.json").read_text())
    assert "did not stabilize" in err["error"]


def test_solve_unstable_margins_exit_2(tmp_path):
    # Q = 0: the solve converges, but Pi = 0 is not positive definite
    spec = PopulationSpec(subpops=(SubpopParams(A=-1.0, B=1.0, Q=0.0, R=1.0),),
                          pi=[1.0], rho=0.5, x0_mean=[0.0], x0_cov=[[0.0]])
    path = tmp_path / "q0.json"
    save_spec(spec, path)
    out = tmp_path / "out"
    assert main(["solve", str(path), "--out", str(out)]) == 2
    err = json.loads((out / "error.json").read_text())
    assert "Pi not positive definite" in err["error"]
    assert json.loads((out / "stability_report.json").read_text())["ok"] is False


def test_cli_import_leaves_out_scipy_interpolate():
    # about 0.4 s on every process that imports the CLI, benchmark runs too
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, lqgmfg.cli; print('scipy.interpolate' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)},
                          timeout=120)
    assert proc.stdout.strip() == "False", proc.stderr


@pytest.mark.parametrize("exc, text", [
    (MemoryError("Unable to allocate 8.00 EiB for an array"), "Unable to allocate"),
    (MemoryError(), "MemoryError")])
def test_memory_error_exit_1(spec_files, tmp_path, capsys, monkeypatch, exc, text):
    # a solve that runs out of memory, without allocating anything
    def out_of_memory(*args, **kwargs):
        raise exc
    monkeypatch.setattr("lqgmfg.cli.solve_consistency", out_of_memory)
    out = tmp_path / "oom"
    assert main(["solve", str(spec_files / "coupled.json"), "--out", str(out)]) == 1
    err = json.loads((out / "error.json").read_text())
    assert err["type"] == "MemoryError" and text in err["error"]
    assert "Traceback" not in capsys.readouterr().err


def test_replaced_command_runs_on_a_built_parser(spec_files, tmp_path, monkeypatch):
    # the parser is built once per process, and the command it runs is read
    # from the module at each call: a cmd_solve replaced after the first
    # call (a benchmark's timing wrapper, say) is the one the next call runs
    path = str(spec_files / "decoupled.json")
    assert main(["solve", path, "--out", str(tmp_path / "first")]) == 0
    calls = []
    monkeypatch.setattr("lqgmfg.cli.cmd_solve", lambda args, doc, out: calls.append(out))
    assert main(["solve", path, "--out", str(tmp_path / "second")]) == 0
    assert calls == [tmp_path / "second"]
    assert build_parser() is build_parser()


def test_solve_missing_file(tmp_path):
    rc = main(["solve", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
    assert rc == 1


def test_usage_error():
    assert main(["experiment", "bogus-kind", "x.json"]) == 1


def test_experiment_coe(spec_files, tmp_path):
    out = tmp_path / "coe"
    rc = main(["experiment", "coe", str(spec_files / "decoupled.json"),
               "--out", str(out), "--reps", "500", "--seed", "3"])
    assert rc == 0
    summ = json.loads((out / "summary.json").read_text())
    assert abs(summ["estimate"] - 1.0) < 0.05
    csv = (out / "experiment.csv").read_text().splitlines()
    assert csv[0] == "experiment,N,rep,checkpoint_t,value,std_err"
    # the manifest's overrides are the flags coe reads
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "experiment:coe"
    assert manifest["overrides"] == {"horizon": None, "reps": 500, "steps": None}


def test_experiment_lambda_sweep(spec_files, tmp_path):
    out = tmp_path / "sweep"
    rc = main(["experiment", "lambda-sweep", str(spec_files / "decoupled.json"),
               "--out", str(out)])
    assert rc == 0
    summ = json.loads((out / "summary.json").read_text())
    gaps = np.abs(np.asarray(summ["value_gaps"]))
    assert np.all(np.diff(gaps) < 0)
    assert summ["abs_monotone_to_zero"] is True
    assert summ["action_vs_mean_rms_at_min_lambda"] < 1e-2


def test_experiment_entropy_audit(spec_files, tmp_path):
    out = tmp_path / "ent"
    rc = main(["experiment", "entropy-audit", str(spec_files / "decoupled.json"),
               "--out", str(out), "--lambda-list", "0.2"])
    assert rc == 0
    summ = json.loads((out / "summary.json").read_text())
    row = summ["audit"][0]
    assert row["quadrature_entropy"] == pytest.approx(row["closed_form_entropy"], abs=1e-6)
    assert row["quadrature_discounted"] == pytest.approx(
        row["standard_identity_discounted"], abs=1e-6)
    assert abs(row["convention_minus_quadrature"]) > 0.1


def test_experiment_nash_identity_family_csv(spec_files, tmp_path):
    out = tmp_path / "nash"
    rc = main(["experiment", "nash", str(spec_files / "coupled.json"),
               "--out", str(out), "--reps", "2", "--Ns", "8",
               "--steps", "1200", "--seed", "1"])
    assert rc == 0
    summ = json.loads((out / "summary.json").read_text())
    assert "eps_hat" in summ


def _case(id, argv, code, err_type=None, match=None):
    return pytest.param(argv, code, err_type, match, id=id)


@pytest.mark.parametrize("argv, code, err_type, match", [
    # one sample gives no standard error: every command with --reps refuses it
    *[_case(f"{kind}-reps-{reps}", ["experiment", kind, "coupled", "--reps", reps], 1,
            "ValueError", "--reps must be at least 2")
      for kind in ("coupling-gap", "cost-gap", "nash", "coe") for reps in ("0", "1")],
    _case("coupling-gap-extra1-every N must be at least 1",
          ["experiment", "coupling-gap", "coupled", "--Ns", "0,16"], 1, "ValueError",
          "every N must be at least 1"),
    _case("cost-gap-extra2-past the solved horizon",
          ["experiment", "cost-gap", "coupled", "--horizon", "2", "--steps", "20"], 1,
          "ValueError", "past the solved horizon"),
    _case("solve-steps-0", ["solve", "coupled", "--steps", "0"], 1, "ValueError",
          "--steps must be at least 4"),
    _case("solve-horizon-negative", ["solve", "coupled", "--horizon", "-1"], 1,
          "ValueError", "--horizon must be positive"),
    _case("solve-steps-3", ["solve", "coupled", "--horizon", "0.5", "--steps", "3"], 1,
          "ValueError", "--steps must be at least 4"),
    _case("solve-horizon-too-short", ["solve", "coupled", "--horizon", "1e-300"], 1,
          "ValueError", "--horizon 1e-300 gives 1 grid step(s) of 1e-300"),
    _case("simulate-reps-negative", ["trade", "simulate", "market", "--reps", "-3"], 1,
          "ValueError", "--reps must be at least 2"),
    _case("simulate-reps-1", ["trade", "simulate", "market", "--reps", "1"], 1,
          "ValueError", "--reps must be at least 2"),
    _case("learn-doc-steps-negative", ["trade", "learn", "market_steps"], 1,
          "ValueError", "at least one step"),
    _case("simulate-doc-no-traders", ["trade", "simulate", "market_no_traders"], 1,
          "ValueError", "at least one trader"),
    _case("learn-doc-no-episodes", ["trade", "learn", "market_no_episodes"], 1,
          "ValueError", "inner_repeats >= 1"),
    _case("simulate-doc-q0-inf", ["trade", "simulate", "market_q0_inf"], 1, "ValueError",
          "q0 must be finite"),
    _case("learn-doc-q0-inf", ["trade", "learn", "market_q0_inf"], 1, "ValueError",
          "q0 must be finite"),
    _case("simulate-doc-lambda-nan", ["trade", "simulate", "market_lambda_nan"], 1,
          "ValueError", "lambda_explore must be finite"),
    _case("learn-doc-lambda-nan", ["trade", "learn", "market_lambda_nan"], 1, "ValueError",
          "lambda_explore must be finite"),
    _case("simulate-doc-sigma-bool", ["trade", "simulate", "market_sigma_bool"], 1,
          "ValueError", "sigma must be a number, got True"),
    _case("simulate-doc-lambda-string", ["trade", "simulate", "market_lambda_str"], 1,
          "ValueError", "lambda_explore must be a number, got '0.2'"),
    _case("learn-doc-init-string", ["trade", "learn", "market_init_sigma_str"], 1,
          "ValueError", "sigma must be a number, got '0.1'"),
    _case("learn-doc-init-bool", ["trade", "learn", "market_init_q0_bool"], 1,
          "ValueError", "q0 must be a number, got False"),
    _case("simulate-doc-steps-fraction", ["trade", "simulate", "market_steps_frac"], 1,
          "ValueError", "steps must be an integer, got 1.5"),
    _case("simulate-doc-traders-fraction", ["trade", "simulate", "market_traders_frac"], 1,
          "ValueError", "n_traders must be an integer, got 2.5"),
    _case("learn-doc-iterations-fraction", ["trade", "learn", "market_iterations_frac"], 1,
          "ValueError", "iterations must be an integer, got 1.5"),
    _case("learn-doc-episodes-fraction", ["trade", "learn", "market_episodes_frac"], 1,
          "ValueError", "episodes must be an integer, got 1.5"),
    _case("solve-spec-lambda-nan", ["solve", "spec_lambda_nan"], 1, "ValueError",
          "lambda_explore must be finite, got nan"),
    _case("coe-spec-lambda-nan", ["experiment", "coe", "spec_lambda_nan"], 1, "ValueError",
          "lambda_explore must be finite"),
    _case("nash-spec-lambda-nan",
          ["experiment", "nash", "spec_lambda_nan", "--Ns", "8", "--reps", "2"], 1,
          "ValueError", "lambda_explore must be finite"),
    _case("solve-spec-D-nan", ["solve", "spec_D_nan"], 1, "ValueError", "D must be finite"),
    _case("solve-spec-x0-cov-nan", ["solve", "spec_x0_cov_nan"], 1, "ValueError",
          "x0_cov must be finite"),
    _case("solve-spec-x0-mean-nan", ["solve", "spec_x0_mean_nan"], 1, "ValueError",
          "x0_mean must be finite"),
    _case("solve-spec-pi-nan", ["solve", "spec_pi_nan"], 1, "ValueError", "pi must be finite"),
    *[_case(f"{cmd[-1]}-spec-{name}", [*cmd, f"spec_{name}"], 1, "ValueError", match)
      for name, match in _MALFORMED.items()
      for cmd in (["solve"], ["experiment", "coe"], ["experiment", "lambda-sweep"])],
    _case("solve-spec-block-key", ["solve", "spec_block_key"], 1, "ValueError",
          "subpops[0] has unknown key 'lambda'"),
    _case("solve-spec-top-key", ["solve", "spec_top_key"], 1, "ValueError",
          "spec has unknown key 'rh0'"),
    _case("coe-spec-block-key", ["experiment", "coe", "spec_block_key"], 1, "ValueError",
          "subpops[0] has unknown key 'lambda'"),
    _case("solve-spec-b-knots-decrease", ["solve", "spec_b_knots"], 1, "ValueError",
          "offset knots must strictly increase"),
    _case("coupling-gap-spec-b-knots-decrease",
          ["experiment", "coupling-gap", "spec_b_knots", "--Ns", "8", "--reps", "2"], 1,
          "ValueError", "offset knots must strictly increase"),
    _case("nash-empty-Ns", ["experiment", "nash", "coupled", "--Ns", ""], 1,
          "ValueError", "--Ns needs"),
    _case("lambda-sweep-empty-list",
          ["experiment", "lambda-sweep", "coupled", "--lambda-list", ""], 1,
          "ValueError", "--lambda-list needs"),
    _case("cost-gap-blow-up", ["experiment", "cost-gap", "stiff", "--reps", "2", "--Ns", "4"],
          2, "RuntimeError", "non-finite state"),
    _case("nash-blow-up", ["experiment", "nash", "stiff", "--reps", "2", "--Ns", "4"], 2,
          "RuntimeError", "non-finite state"),
    _case("coe-blow-up", ["experiment", "coe", "stiff", "--reps", "2"], 2, "RuntimeError",
          "non-finite state"),
    _case("learn-failed-plan", ["trade", "learn", "market_a0"], 2, "RuntimeError",
          "R not positive definite"),
    # a flag the command does not read is a usage error: no output directory
    _case("solve-reps-usage", ["solve", "coupled", "--reps", "5"], 1),
    _case("learn-Ns-usage", ["trade", "learn", "market", "--Ns", "4"], 1),
    _case("lambda-sweep-solve-flags-usage",
          ["experiment", "lambda-sweep", "coupled", "--reps", "-1", "--steps", "-1",
           "--horizon", "nan"], 1),
    _case("coe-Ns-usage", ["experiment", "coe", "coupled", "--Ns", "abc"], 1),
    _case("learn-reps-usage", ["trade", "learn", "market", "--reps", "3"], 1),
])
def test_experiment_argument_error_exit_1(spec_files, tmp_path, capsys, argv, code, err_type, match):
    """Bad input exits 1 (usage, input) or 2 (numerical) with error.json once
    the output directory exists, never with a traceback."""
    out = tmp_path / "bad"
    argv = [str(spec_files / f"{a}.json") if (spec_files / f"{a}.json").exists() else a
            for a in argv]
    assert main(argv + ["--out", str(out)]) == code
    if err_type is None:
        assert not out.exists()
    else:
        err = json.loads((out / "error.json").read_text())
        assert err["type"] == err_type and match in err["error"]
    assert "Traceback" not in capsys.readouterr().err


_GRID_FLAGS = {"--steps", "--horizon"}
# each command, and kind, with the flags it reads besides --seed and --out
_READS = {
    ("solve",): _GRID_FLAGS,
    ("experiment", "coupling-gap"): _GRID_FLAGS | {"--reps", "--Ns"},
    ("experiment", "cost-gap"): _GRID_FLAGS | {"--reps", "--Ns"},
    ("experiment", "nash"): _GRID_FLAGS | {"--reps", "--Ns"},
    ("experiment", "coe"): _GRID_FLAGS | {"--reps"},
    ("experiment", "lambda-sweep"): {"--lambda-list"},
    ("experiment", "entropy-audit"): {"--lambda-list"},
    ("trade", "simulate"): {"--reps"},
    ("trade", "learn"): set(),
}
# a value each flag would parse, so only its being foreign can fail
_VALUES = {"--steps": "40", "--horizon": "2.0", "--reps": "4", "--Ns": "8,16",
           "--lambda-list": "0.1"}


def _sub_parsers(parser):
    action = next((a for a in parser._actions if isinstance(a, argparse._SubParsersAction)),
                  None)
    return {} if action is None else action.choices


def test_each_command_registers_only_the_flags_it_reads():
    flags = {}
    for name, p in _sub_parsers(build_parser()).items():
        for path, q in ({(name, kind): q for kind, q in _sub_parsers(p).items()}
                        or {(name,): p}).items():
            flags[path] = {o for a in q._actions for o in a.option_strings} - {"-h", "--help"}
    assert flags == {path: reads | {"--seed", "--out"} for path, reads in _READS.items()}


@pytest.mark.parametrize("command, flag", [
    pytest.param(command, flag, id=f"{'-'.join(command)}{flag}")
    for command, reads in _READS.items() for flag in sorted(set(_VALUES) - reads)])
def test_foreign_flag_is_a_usage_error(spec_files, tmp_path, capsys, command, flag):
    path = spec_files / ("market.json" if command[0] == "trade" else "coupled.json")
    out = tmp_path / "out"
    assert main([*command, str(path), flag, _VALUES[flag], "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {flag}" in err
    # the usage line is the command's own, and lists the flags it does take
    usage = err.split(": error:")[0]
    assert usage.startswith(f"usage: lqgmfg {' '.join(command)} [-h]")
    assert all(f"{own} " in usage for own in _READS[command] | {"--seed", "--out"})


def test_readme_cli_lines_parse():
    """Every `lqgmfg` line of the README's CLI block parses: the documented
    commands and flags are the parser's."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    lines = [ln for ln in block.splitlines() if ln.startswith("lqgmfg ")]
    assert len(lines) >= 6
    for line in lines:
        build_parser().parse_args(shlex.split(line, comments=True)[1:])


def test_determinism_byte_identical(spec_files, tmp_path):
    args = ["experiment", "coe", str(spec_files / "decoupled.json"),
            "--reps", "200", "--seed", "11"]
    o1, o2 = tmp_path / "d1", tmp_path / "d2"
    assert main(args + ["--out", str(o1)]) == 0
    assert main(args + ["--out", str(o2)]) == 0
    assert (o1 / "experiment.csv").read_bytes() == (o2 / "experiment.csv").read_bytes()


def test_trade_learn(spec_files, tmp_path):
    out = tmp_path / "learn"
    rc = main(["trade", "learn", str(spec_files / "market.json"),
               "--out", str(out), "--seed", "5"])
    assert rc == 0
    lines = (out / "trace.csv").read_text().splitlines()
    assert len(lines) == 5  # header + iterations 0..3
    summ = json.loads((out / "summary.json").read_text())
    assert summ["final"]["failed"] is False


def test_trade_simulate_martingale(spec_files, tmp_path):
    params = dataclasses.asdict(MarketParams(sigma=0.1, lambda_perm=0.0, a_temp=0.01,
                                             phi_urgency=0.1, psi_terminal=1.0,
                                             T=1.0, F0=10.0, q0=5.0))
    params["lambda_explore"] = 0.05
    f = tmp_path / "zero_impact.json"
    f.write_text(json.dumps(params))
    out = tmp_path / "sim"
    rc = main(["trade", "simulate", str(f), "--out", str(out), "--reps", "48"])
    assert rc == 0
    summ = json.loads((out / "summary.json").read_text())
    assert summ["martingale_check_4se"] is True


def test_trade_malformed_params(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"sigma": 0.1}))
    rc = main(["trade", "learn", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 1


def _assert_solution_round_trips(spec_path, doc):
    """Every array of the written solution loads back bitwise equal to the
    same solve in memory (s and xbar are strided views of the solver's
    arrays)."""
    spec = load_spec(spec_path)
    mf = solve_consistency(spec)
    pairs = [("Pi", [sol.Pi for sol in mf.Pi]), ("s", [traj.values for traj in mf.s]),
             ("riccati_residuals", [sol.residual for sol in mf.Pi]), ("J", mf.J),
             ("L", mf.L.values), ("Abar", mf.Abar), ("mbar", mf.mbar.values),
             ("xbar", mf.xbar.values), ("mubar", mf.mubar.values),
             ("residual", mf.residual), ("independent_residual", consistency_residual(mf, spec))]
    for key, value in pairs:
        assert np.array_equal(np.asarray(doc[key]), np.asarray(value)), key
    assert doc["grid"] == {"t0": mf.grid.t0, "t1": mf.grid.t1, "steps": mf.grid.steps}


def _solve_exit_contract(spec):
    """`lqgmfg solve` exits 0, or 2 with error.json; never 1, never a
    traceback.  A rerun exits alike and writes every file byte for byte the
    same, except manifest.json (a timestamp and the output path).  A written
    solution loads back bitwise equal to the solve in memory."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        save_spec(spec, path)
        runs = []
        for out in (Path(tmp) / "out", Path(tmp) / "rerun"):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = main(["solve", str(path), "--out", str(out)])
            assert "Traceback" not in err.getvalue()
            assert rc in (0, 2), err.getvalue()
            runs.append((rc, {f.name: f.read_bytes() for f in out.iterdir()
                              if f.name != "manifest.json"}))
        (rc, files), rerun = runs
        assert rerun == runs[0]
        if rc == 2:
            doc = json.loads(files["error.json"])
            assert doc["error"] and doc["type"]
            event(doc["type"])
        else:
            assert "meanfield_solution.json" in files
        if "meanfield_solution.json" in files:
            _assert_solution_round_trips(path, json.loads(files["meanfield_solution.json"]))


@settings(max_examples=15, deadline=None, derandomize=True)
@given(spec=random_specs())
def test_solve_exit_contract_on_stabilizable_specs(spec):
    _solve_exit_contract(spec)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(spec=unconstrained_specs())
def test_solve_exit_contract_on_unconstrained_specs(spec):
    _solve_exit_contract(spec)
