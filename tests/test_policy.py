import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_specs
from lqgmfg import solve_consistency
from lqgmfg.meanfield import ConsistencyError
from lqgmfg.model import PopulationSpec, SubpopParams
from lqgmfg.numerics import Trajectory
from lqgmfg.policy import analytic_coe, policy_entropy, policy_for, tabulate_policy, value_gap
from lqgmfg.presets import planar_spec, scalar_decoupled_spec
from lqgmfg.riccati import feedback_gain
from lqgmfg.trading import FiniteHorizonSolution, LqgMapping, trading_policy
from lqgmfg.variational import gaussian_grid_density


def test_classical_control_zero_state(decoupled):
    spec, mf = decoupled
    u = policy_for(mf, 0).mean(1.0, np.zeros(1))
    assert np.allclose(u, 0.0, atol=1e-12)


def test_classical_control_formula(decoupled):
    spec, mf = decoupled
    # u* = -R^-1[(B^T Pi + S^T) x + B^T s(t) - S^T psibar xbar + n]
    Pi = mf.Pi[0].Pi[0, 0]
    x = np.array([2.0])
    u = policy_for(mf, 0).mean(0.5, x)
    s_t = mf.s[0].interp(0.5)[0]
    assert u[0] == pytest.approx(-(Pi * 2.0 + s_t), abs=1e-12)


def test_classical_control_outside_grid(decoupled):
    spec, mf = decoupled
    with pytest.raises(ValueError, match="outside"):
        policy_for(mf, 0).mean(mf.grid.t1 + 1.0, np.zeros(1))


@pytest.mark.parametrize("fixture", ["coupled", "two_type"])
def test_policy_at_matches_record_bitwise(fixture, request):
    # the one-node record cut out at t has the tabulated record's mean, and
    # draws its samples, to the bit: at nodes and between them
    spec, mf = request.getfixturevalue(fixture)
    rng = np.random.default_rng(4)
    ts = mf.grid.times()
    nodes = ts[[0, 1, ts.size // 2, -2, -1]]
    for k in range(spec.K):
        pol = policy_for(mf, k)
        for t in np.concatenate([nodes, rng.uniform(0.0, mf.grid.t1, 50)]):
            x = rng.normal(size=spec.n)
            one = pol.at(t)
            assert one.grid is None and one.offset.shape == (1, spec.m)
            assert np.array_equal(one.mean(t, x), pol.mean(t, x))
            seed = int(rng.integers(2**32))
            assert np.array_equal(one.sample(t, x, np.random.default_rng(seed)),
                                  pol.sample(t, x, np.random.default_rng(seed)))
        for t in (-1.0, mf.grid.t1 + 1.0):
            with pytest.raises(ValueError, match="outside"):
                pol.mean(t, np.zeros(spec.n))
            with pytest.raises(ValueError, match="outside"):
                pol.at(t)


def test_dirac_limit_lambda_zero():
    spec = scalar_decoupled_spec(lambda_explore=0.0, rho=0.5)
    mf = solve_consistency(spec)
    pol = policy_for(mf, 0).at(0.5)
    assert np.array_equal(pol.covariance, np.zeros((1, 1)))
    rng = np.random.default_rng(0)
    x = np.array([1.0])
    assert np.array_equal(pol.sample(0.5, x, rng), pol.mean(0.5, x))


def test_planar_identity_covariance():
    # lambda = 1, R = I -> covariance I
    mf1 = solve_consistency(planar_spec(lambda_explore=1.0))
    assert np.allclose(policy_for(mf1, 0).covariance, np.eye(2), atol=1e-14)


def test_covariance_linear_in_lambda():
    s1 = scalar_decoupled_spec(lambda_explore=0.3, rho=0.5)
    s2 = scalar_decoupled_spec(lambda_explore=0.6, rho=0.5)
    c1 = policy_for(solve_consistency(s1), 0).covariance
    c2 = policy_for(solve_consistency(s2), 0).covariance
    assert np.allclose(c2, 2.0 * c1)


def test_sample_action_moments(decoupled):
    spec, mf = decoupled
    t, x = 1.0, np.array([0.7])
    pol = policy_for(mf, 0).at(t)           # the one-node record: a cheap mean
    rng = np.random.default_rng(31)
    mean, cov = pol.mean(t, x), pol.covariance
    draws = np.array([pol.sample(t, x, rng)[0] for _ in range(200_000)])
    se = math.sqrt(cov[0, 0] / draws.size)
    assert abs(draws.mean() - mean[0]) < 4 * se
    assert abs(draws.var(ddof=1) - cov[0, 0]) < 0.01 * cov[0, 0]


def test_policy_entropy_values():
    spec = scalar_decoupled_spec(lambda_explore=1.0)
    assert policy_entropy(0, spec) == pytest.approx(0.5 * math.log(2 * math.pi * math.e), abs=1e-12)
    sub = SubpopParams(A=0.0, B=1.0, Q=1.0, R=2.0, lambda_explore=0.5)
    spec2 = PopulationSpec(subpops=(sub,), pi=[1.0], rho=0.5, x0_mean=[0.0], x0_cov=[[0.0]])
    assert policy_entropy(0, spec2) == pytest.approx(0.5 * math.log(2 * math.pi * math.e * 0.25), abs=1e-12)


def test_policy_entropy_quadrature_oracle():
    # independent check: quadrature of -int Phi ln Phi on a +-8 sigma box
    spec = scalar_decoupled_spec(lambda_explore=1.0)
    sig = 1.0
    gd = gaussian_grid_density([0.0], [[1.0]], [-8 * sig], [8 * sig], (801,))
    assert gd.entropy() == pytest.approx(policy_entropy(0, spec), abs=1e-6)


def test_policy_entropy_lambda_scaling():
    s1 = scalar_decoupled_spec(lambda_explore=0.5)
    s4 = scalar_decoupled_spec(lambda_explore=2.0)
    assert policy_entropy(0, s4) - policy_entropy(0, s1) == pytest.approx(0.5 * math.log(4.0), abs=1e-12)


def test_policy_entropy_dirac_error():
    spec = scalar_decoupled_spec(lambda_explore=0.0)
    with pytest.raises(ValueError, match="entropy undefined"):
        policy_entropy(0, spec)


def test_analytic_coe():
    assert analytic_coe(0, scalar_decoupled_spec(lambda_explore=0.2, rho=0.1)) == pytest.approx(1.0)
    assert analytic_coe(0, scalar_decoupled_spec(lambda_explore=0.0, rho=0.1)) == 0.0
    assert analytic_coe(0, planar_spec(lambda_explore=0.2, rho=0.1)) == pytest.approx(2.0)


def test_value_gap_scalar_display():
    spec = scalar_decoupled_spec(lambda_explore=1.0, rho=0.5)
    assert value_gap(0, spec) == pytest.approx(math.log(2 * math.pi) - 1.0, abs=1e-12)


def test_value_gap_vanishes_with_lambda():
    gaps = [abs(value_gap(0, scalar_decoupled_spec(lambda_explore=lam, rho=0.5)))
            for lam in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)]
    assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-4


def test_value_gap_root():
    # ln det(2 pi lambda R^-1) = m at lambda = e/(2 pi) for R = 1
    lam = math.e / (2 * math.pi)
    spec = scalar_decoupled_spec(lambda_explore=lam, rho=0.5)
    assert value_gap(0, spec) == pytest.approx(0.0, abs=1e-14)


def test_density_normalization_quadrature():
    # the optimal Gaussian density integrates to 1 on a +-8 sigma box
    for lam, R in ((0.2, 1.0), (1.0, 2.0)):
        sig = math.sqrt(lam / R)
        gd = gaussian_grid_density([0.3], [[lam / R]], [0.3 - 8 * sig], [0.3 + 8 * sig], (801,))
        assert gd.integrate() == pytest.approx(1.0, abs=1e-6)
    gd2 = gaussian_grid_density([0.0, 0.0], [[1.0, 0.3], [0.3, 1.0]],
                                [-8.0, -8.0], [8.0, 8.0], (201, 201))
    assert gd2.integrate() == pytest.approx(1.0, abs=1e-6)


def offset_formula(spec, k, s, xbar):
    """-R^-1 (B^T s - S^T psibar xbar + n) per node, as each consumer wrote
    it out before the policy record."""
    p = spec.subpops[k]
    return -np.linalg.solve(p.R, (s @ p.B - (xbar @ spec.psibar(k).T) @ p.S + p.nvec).T).T


@settings(max_examples=10, deadline=None, derandomize=True)
@given(spec=random_specs(coupling=st.sampled_from([0.1, 0.3])))
def test_policy_record_matches_offset_formula_on_random_specs(spec):
    try:
        mf = solve_consistency(spec)
    except ConsistencyError:
        assume(False)
    ts = mf.grid.times()
    # a Pi table that varies in time, as the finite-horizon trading solve makes
    Pi_tab = [sol.Pi * (1.0 + ts / ts[-1])[:, None, None] for sol in mf.Pi]
    fh = FiniteHorizonSolution(grid=mf.grid, Pi=[Trajectory(mf.grid, P) for P in Pi_tab],
                               s=mf.s, xbar=mf.xbar, mubar=mf.mubar, iterations=1)
    mapping = LqgMapping(population=spec, terminal_weight=None, terminal_offset=None,
                         T=mf.grid.t1)
    for k, p in enumerate(spec.subpops):
        cov = p.lambda_explore * np.linalg.inv(p.R)
        cov = 0.5 * (cov + cov.T)
        pol = policy_for(mf, k)
        assert np.array_equal(pol.offset, offset_formula(spec, k, mf.s[k].values,
                                                         mf.xbar.values))
        assert np.array_equal(pol.gain, feedback_gain(p, mf.Pi[k].Pi))
        assert np.array_equal(pol.covariance, cov)
        # trading_policy reads type 0; another type of the mapping, its record
        pol = (trading_policy(mapping, fh) if k == 0 else
               tabulate_policy(spec, k, fh.Pi[k].values, fh.grid, fh.s[k].values,
                               fh.xbar.values))
        assert np.array_equal(pol.offset, offset_formula(spec, k, mf.s[k].values,
                                                         mf.xbar.values))
        assert np.array_equal(pol.gain, feedback_gain(p, Pi_tab[k]))
        assert np.array_equal(pol.covariance, cov)
