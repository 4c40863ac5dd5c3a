import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import random_specs, unconstrained_specs
from lqgmfg.model import (PopulationSpec, SubpopParams, TimeTable, expand, load_spec,
                          save_spec, selector_matrix, spec_from_json, spec_to_json,
                          validate_spec)
from lqgmfg.presets import two_type_spec


def scalar_spec(**kw):
    fields = dict(A=0.0, B=1.0, Q=1.0, R=1.0)
    fields.update(kw)
    sub = SubpopParams(**fields)
    return PopulationSpec(subpops=(sub,), pi=[1.0], rho=0.5,
                          x0_mean=[0.0], x0_cov=[[0.0]])


def test_validate_ok_scalar():
    report = validate_spec(scalar_spec())
    assert report.ok and report.violations == ()


def test_validate_r_not_pd():
    report = validate_spec(scalar_spec(R=-1.0))
    assert not report.ok
    assert any("R not positive definite" in msg for _a, msg in report.violations)


def test_validate_mixture_sum():
    spec = two_type_spec()
    bad = PopulationSpec(subpops=spec.subpops, pi=[0.6, 0.5], rho=0.5,
                         x0_mean=spec.x0_mean, x0_cov=spec.x0_cov)
    report = validate_spec(bad)
    assert any("mixture weights sum != 1" in msg for _a, msg in report.violations)


def test_validate_convexity_cross_term():
    # Q - S R^-1 S^T = 1 - 4 < 0, tagged with an aspect of its own
    report = validate_spec(scalar_spec(S=2.0))
    assert report.violations == (
        ("state-convexity", "subpop 0: Q - S R^-1 S^T not positive semidefinite"),)
    assert not report.ok


def test_validate_rho_and_cov():
    spec = scalar_spec()
    bad = PopulationSpec(subpops=spec.subpops, pi=[1.0], rho=0.0,
                         x0_mean=[0.0], x0_cov=[[-1.0]])
    report = validate_spec(bad)
    ids = {a for a, _m in report.violations}
    assert "discount" in ids and "initial-state" in ids


def test_validate_idempotent_pure():
    spec = two_type_spec()
    assert validate_spec(spec) == validate_spec(spec)


def test_selector_matrix():
    assert np.array_equal(selector_matrix(1, 1, 2), [[1.0, 0.0]])
    e2 = selector_matrix(2, 2, 2)
    assert np.array_equal(e2, np.hstack([np.zeros((2, 2)), np.eye(2)]))
    with pytest.raises(ValueError):
        selector_matrix(3, 1, 2)


def test_selector_extracts_block():
    rng = np.random.default_rng(0)
    n, K = 3, 4
    stacked = rng.normal(size=n * K)
    for k in range(1, K + 1):
        block = selector_matrix(k, n, K) @ stacked
        assert np.array_equal(block, stacked[(k - 1) * n: k * n])


def test_expand_shape_and_row_sums():
    rng = np.random.default_rng(1)
    for K in (1, 2, 3):
        pi = rng.random(K)
        pi = pi / pi.sum()
        F = rng.normal(size=(3, 3))
        Fb = expand(F, pi)
        assert Fb.shape == (3, 3 * K)
        assert np.allclose(Fb.sum(axis=1), F.sum(axis=1))
        # acts on a stacked vector as the pi-weighted average block
        blocks = rng.normal(size=(K, 3))
        assert np.allclose(Fb @ blocks.ravel(), F @ (pi @ blocks))


def test_timetable_constant_and_affine():
    const = TimeTable(np.array([1.0, 2.0]))
    assert np.allclose(const(0.3), [1.0, 2.0])
    tab = TimeTable(np.array([[0.0], [1.0]]), times=np.array([0.0, 2.0]))
    assert np.allclose(tab(1.0), [0.5])
    assert np.allclose(tab(5.0), [1.0])  # holds final value
    assert tab(np.array([0.0, 2.0])).shape == (2, 1)


@pytest.mark.parametrize("make, match", [
    (lambda: scalar_spec(lambda_explore=float("nan")), "lambda_explore must be finite"),
    (lambda: scalar_spec(Q=np.inf), "Q must be finite"),
    (lambda: scalar_spec(b=[-np.inf]), "values must be finite"),
    (lambda: scalar_spec(phi_lagrange=np.inf), "phi_lagrange must be finite"),
    (lambda: dataclasses.replace(scalar_spec(), rho=float("nan")), "rho must be finite"),
    (lambda: dataclasses.replace(scalar_spec(), x0_cov=[[np.inf]]), "x0_cov must be finite"),
    (lambda: TimeTable([[0.0], [1.0]], [0.0, np.nan]), "times must be finite"),
    (lambda: TimeTable([[0.0], [1.0]], [1.0, 1.0]), "knots must strictly increase"),
    (lambda: TimeTable([[0.0], [1.0], [2.0]], [0.0, 2.0, 1.0]), "knots must strictly increase"),
])
def test_non_finite_numbers_and_unordered_knots_refused(make, match):
    # refused where the spec is built, as MarketParams refuses its own
    with pytest.raises(ValueError, match=match):
        make()


def test_json_round_trip(tmp_path):
    spec = two_type_spec()
    doc = spec_to_json(spec)
    text = json.dumps(doc)
    back = spec_from_json(json.loads(text))
    assert back.rho == spec.rho
    assert np.array_equal(back.pi, spec.pi)
    for p, q in zip(back.subpops, spec.subpops):
        for name in ("A", "B", "F", "H", "D", "Q", "R", "S", "eta", "nvec", "psi"):
            assert np.array_equal(getattr(p, name), getattr(q, name))
        assert p.lambda_explore == q.lambda_explore
        assert p.phi_lagrange == q.phi_lagrange


def _corrupt_spec(**changes):
    """two_type_spec with some of its own fields, or its first type's, replaced."""
    spec = two_type_spec()
    own = {k: v for k, v in changes.items() if k in ("pi", "x0_mean", "x0_cov", "subpops")}
    first = dataclasses.replace(spec.subpops[0],
                                **{k: v for k, v in changes.items() if k not in own})
    return dataclasses.replace(spec, **{"subpops": (first, spec.subpops[1]), **own})


@pytest.mark.parametrize("corrupt, match", [
    *[pytest.param({name: value}, f"{name} must have shape", id=name) for name, value in (
        ("B", np.ones((2, 2))), ("Q", [[1.0, 0.0]]), ("R", [1.0, 2.0]), ("S", np.zeros((2, 1))),
        ("H", np.zeros((1, 2))), ("psi", 2 * [0.1]))],
    pytest.param(dict(eta=[0.1, 0.2]), r"eta must have shape \(1,\)", id="eta"),
    pytest.param(dict(nvec=np.zeros(2)), r"nvec must have shape \(1,\)", id="nvec"),
    pytest.param(dict(D=[[0.2], [0.1]]), r"D must have shape \(1, \*\)", id="D-rows"),
    pytest.param(dict(b=[0.1, 0.2]), r"b must have shape \(1,\)", id="b-width"),
    pytest.param(dict(b=TimeTable([[0.1, 0.2], [0.3, 0.4]], [0.0, 1.0])),
                 r"b must have shape \(2, 1\)", id="b-table-width"),
    pytest.param(dict(x0_mean=[0.5, 0.1]), r"x0_mean must have shape \(1,\)", id="x0_mean"),
    pytest.param(dict(x0_cov=[[0.1, 0.0]]), r"x0_cov must have shape \(1, 1\)", id="x0_cov"),
    pytest.param(dict(pi=[0.6, 0.3, 0.1]), r"pi must have shape \(2,\)", id="pi-length"),
    pytest.param(dict(subpops=(SubpopParams(A=0.0, B=1.0, Q=1.0, R=1.0),
                               SubpopParams(A=np.eye(2), B=[1.0, 1.0], Q=np.eye(2), R=1.0))),
                 r"subpops\[1\] has \(n, m\) = \(2, 1\)", id="mixed-n"),
    pytest.param(dict(subpops=(SubpopParams(A=0.0, B=1.0, Q=1.0, R=1.0, D=[[0.2]]),
                               SubpopParams(A=0.0, B=1.0, Q=1.0, R=1.0, D=[[0.2, 0.1]]))),
                 r"subpops\[1\]: D has 2 columns", id="ragged-D"),
    pytest.param(dict(subpops=()), "subpops must hold at least one type", id="no-types"),
])
def test_malformed_spec_refused_at_construction(corrupt, match):
    # a spec that builds is well-formed: validate_spec has no shape to report
    with pytest.raises(ValueError, match=match):
        _corrupt_spec(**corrupt)


def test_one_reshape_rule_fills_rows():
    # a scalar or a 1-d value fills a block's rows in order, B and D included
    p = SubpopParams(A=np.zeros((2, 2)), B=[1.0, 2.0], Q=[1.0, 0.0, 0.0, 1.0], R=1.0,
                     D=[0.1, 0.2, 0.3, 0.4], S=[0.5, 0.6])
    assert np.array_equal(p.B, [[1.0], [2.0]]) and (p.n, p.m, p.r) == (2, 1, 2)
    assert np.array_equal(p.Q, np.eye(2)) and np.array_equal(p.D, [[0.1, 0.2], [0.3, 0.4]])
    assert np.array_equal(p.S, [[0.5], [0.6]])
    scalar = SubpopParams(A=-0.5, B=1.0, Q=1.0, R=1.0, D=0.2, eta=0.1)
    assert scalar.D.shape == (1, 1) and scalar.eta.shape == (1,)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(spec=unconstrained_specs())
def test_validate_spec_reports_only_model_assumptions(spec):
    aspects = {a for a, _m in validate_spec(spec).violations}
    assert aspects <= {"mixture", "discount", "convexity", "state-convexity",
                       "exploration", "initial-state"}


def test_spec_json_refuses_strings_and_bools():
    doc = spec_to_json(two_type_spec())
    for where, key, value in (("spec", "rho", "0.5"), ("spec", "pi", [True, 0.4]),
                              ("subpop", "lambda_explore", True), ("subpop", "A", [["0.0"]]),
                              ("subpop", "b", {"times": [0.0, 1.0], "values": [[0.1], ["x"]]})):
        bad = json.loads(json.dumps(doc))
        (bad["subpops"][0] if where == "subpop" else bad)[key] = value
        with pytest.raises(ValueError, match=f"{key}.* must be a number"):
            spec_from_json(bad)


def test_spec_json_null_block_takes_the_default():
    doc = spec_to_json(two_type_spec())
    doc["subpops"][0]["S"] = None
    assert np.array_equal(spec_from_json(doc).subpops[0].S, [[0.0]])


def assert_specs_equal(a, b):
    """Every array of two specs equal bitwise, b's table times included."""
    assert (a.rho, a.K) == (b.rho, b.K)
    for name in ("pi", "x0_mean", "x0_cov"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    for p, q in zip(a.subpops, b.subpops):
        for f in dataclasses.fields(SubpopParams):
            u, v = getattr(p, f.name), getattr(q, f.name)
            if isinstance(u, TimeTable):
                assert (u.times is None) == (v.times is None)
                assert u.times is None or np.array_equal(u.times, v.times)
                u, v = u.values, v.values
            assert np.array_equal(u, v) and np.asarray(u).dtype == np.asarray(v).dtype


def json_round_trip(spec):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        save_spec(spec, path)
        return load_spec(path)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(spec=random_specs())
def test_json_round_trip_bitwise_on_random_specs(spec):
    assert_specs_equal(json_round_trip(spec), spec)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(spec=unconstrained_specs())
def test_json_round_trip_bitwise_on_unconstrained_specs(spec):
    assert_specs_equal(json_round_trip(spec), spec)


def test_json_round_trip_tabulated_offset():
    spec = two_type_spec()
    table = TimeTable(np.array([[0.1], [-0.3], [0.7]]), times=np.array([0.0, 1.5, 4.0]))
    sub = dataclasses.replace(spec.subpops[1], b=table)
    spec = dataclasses.replace(spec, subpops=(spec.subpops[0], sub))
    back = json_round_trip(spec)
    assert_specs_equal(back, spec)
    assert back.subpops[1].b.times is not None


def test_spec_file_compact_and_indented_still_read(tmp_path):
    spec = two_type_spec()
    path = tmp_path / "spec.json"
    save_spec(spec, path)
    text = path.read_text()
    assert text.count("\n") == 1 and text.endswith("\n") and ": " not in text
    # files written with json.dump(..., indent=2) load as before
    old = tmp_path / "indented.json"
    old.write_text(json.dumps(spec_to_json(spec), indent=2))
    assert_specs_equal(load_spec(old), spec)


def test_json_missing_required_key():
    doc = spec_to_json(two_type_spec())
    del doc["subpops"][1]["Q"]
    with pytest.raises(KeyError):
        spec_from_json(doc)
