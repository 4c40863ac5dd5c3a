import json

import numpy as np
import pytest

from lqgmfg.cli import _sanitize, main
from lqgmfg.numerics import RNG_SCHEME
from lqgmfg.model import PopulationSpec, SubpopParams, save_spec, validate_spec
from lqgmfg.presets import (coupled_single_type_spec, scalar_decoupled_spec,
                            unstable_spec)
from lqgmfg.trading import MarketParams, params_to_json


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
    doc = params_to_json(MarketParams(sigma=0.1, lambda_perm=0.05, a_temp=0.05,
                                      phi_urgency=0.1, psi_terminal=1.0, T=1.0,
                                      F0=10.0, q0=5.0))
    doc.update(lambda_explore=0.1, iterations=3, episodes=3, n_traders=4)
    doc["init"] = dict(sigma=0.2, lambda_perm=0.0, a_temp=0.02, phi_urgency=0.1,
                       psi_terminal=1.0, T=1.0, F0=10.0, q0=5.0)
    market.write_text(json.dumps(doc))
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
    params = params_to_json(MarketParams(sigma=0.1, lambda_perm=0.0, a_temp=0.01,
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


def test_sanitize_arrays():
    clean = np.array([[0.1, -2.5e-300], [np.inf, 3.0]])
    assert _sanitize(clean) == [[0.1, -2.5e-300], [np.inf, 3.0]]
    assert _sanitize({"a": np.array([1.0, np.nan])}) == {"a": [1.0, None]}
    assert _sanitize(np.array([1, 2])) == [1, 2]
    assert json.dumps(_sanitize(clean)) == json.dumps(clean.tolist())
