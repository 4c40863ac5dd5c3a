import contextlib
import dataclasses
import itertools
import math
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_specs, random_subpop
from lqgmfg import simulator, solve_consistency
from lqgmfg.meanfield import ConsistencyError
from lqgmfg.model import PopulationSpec, SubpopParams
from lqgmfg.numerics import TimeGrid, Trajectory, cholesky_psd, rng_stream
from lqgmfg.policy import tabulate_policy
from lqgmfg.presets import scalar_decoupled_spec
from lqgmfg.riccati import feedback_gain
from lqgmfg.simulator import (AgentNoise, PolicyDeviation, SimConfig,
                              coe_experiment, cost_gap_experiment,
                              coupling_gap_experiment, draw_noise,
                              empirical_cost, exact_counts,
                              nash_deviation_experiment, simulate_population,
                              simulate_representative, write_experiment_csv)

GRID = TimeGrid(0.0, 4.0, 400)
DRAW_SUMS = simulator._draw_sums       # the module's, whatever a test patches in


def rows(noise, idx):
    """The noise of agents ``idx`` of a pack."""
    return AgentNoise(noise.x0_z[idx], noise.action_z[:, idx], noise.dW[:, idx])


def cfg_for(N, grid=GRID, seed=0):
    return SimConfig(N=N, counts=(N,), grid=grid, seed=seed)


def with_lambda(spec, lam):
    """The spec with every type's exploration weight set to ``lam``."""
    return dataclasses.replace(spec, subpops=tuple(
        dataclasses.replace(p, lambda_explore=lam) for p in spec.subpops))


def of_kind(spec, kind):
    """The 'exploratory' game is the spec; the 'classical' game is its
    lambda = 0 spec, whose policy is a Dirac mass at the classical control."""
    return spec if kind == "exploratory" else with_lambda(spec, 0.0)


def pack_sums(spec, grid, counts, reps, seed, tag_type=None):
    """A stand-in for ``simulator._draw_sums``: the pack of per-type sums
    over the untagged agents and, with ``tag_type``, the whole row of that
    type's first agent, reduced from the ``draw_noise`` packs 0..reps-1 of
    ``seed`` (one held at a time), whose agents the agent-by-agent
    references replay."""
    slices = simulator._type_slices(counts)
    tag = slice(0, 0)
    if tag_type is not None:
        t = slices[tag_type].start
        tag, slices[tag_type] = slice(t, t + 1), slice(t + 1, slices[tag_type].stop)
    x0, az, dW = [], [], []
    for rep in range(reps):
        pack = draw_noise(seed, sum(counts), grid.steps, spec.n, spec.m,
                          spec.subpops[0].r, rep=rep)
        x0.append([pack.x0_z[sl].sum(axis=0) for sl in slices] + [*pack.x0_z[tag]])
        dW.append([pack.dW[:, sl].sum(axis=1) for sl in slices]
                  + [*pack.dW[:, tag].transpose(1, 0, 2)])
        az.append(pack.action_z[:, tag])
    return AgentNoise(np.array(x0), np.stack(az, axis=1),
                      np.array(dW).transpose(2, 0, 1, 3).copy())


@contextlib.contextmanager
def on_packs():
    """The reduced experiments run on ``pack_sums``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "_draw_sums", pack_sums)
        yield


def test_exact_counts():
    assert exact_counts(np.array([1.0]), 7) == (7,)
    assert exact_counts(np.array([0.6, 0.4]), 10) == (6, 4)
    assert exact_counts(np.array([1 / 3, 1 / 3, 1 / 3]), 10) == (4, 3, 3)
    assert sum(exact_counts(np.array([0.55, 0.45]), 17)) == 17


def test_noise_seeds_share_no_row():
    a = draw_noise(0, 16, 50, 1, 1, 1)
    b = draw_noise(1, 16, 50, 1, 1, 1)
    rows_a = {tuple(z) for z in a.dW[:, :, 0].T}
    assert not rows_a & {tuple(z) for z in b.dW[:, :, 0].T}
    # nor do two packs of one seed
    c = draw_noise(0, 16, 50, 1, 1, 1, rep=1)
    assert not rows_a & {tuple(z) for z in c.dW[:, :, 0].T}


def test_identical_agents_deterministic(decoupled):
    spec, mf = decoupled
    # no diffusion, no initial spread, no exploration: all agents coincide
    spec0 = scalar_decoupled_spec(lambda_explore=0.0, rho=0.5, A=0.0)
    mf0 = solve_consistency(spec0)
    batch = simulate_population(spec0, mf0, cfg_for(4))
    for i in range(1, 4):
        assert np.array_equal(batch.states[0], batch.states[i])
    # matches the solved mean path to Euler order O(dt)
    xbar = mf0.xbar.interp(GRID.times())
    assert np.max(np.abs(batch.states[0] - xbar)) < 10 * GRID.dt


def test_single_agent_reduction(decoupled):
    spec, mf = decoupled
    pack = draw_noise(3, 1, GRID.steps, spec.n, spec.m, 1)
    fin = simulate_population(spec, mf, cfg_for(1, seed=3), noise=pack)
    rep = simulate_representative(spec, mf, GRID, 3, n_paths=1, noise=pack)
    assert np.allclose(fin.states, rep.states, atol=1e-13)
    assert np.allclose(fin.actions, rep.actions, atol=1e-13)


def test_exploratory_action_covariance(coupled):
    spec, mf = coupled
    batch = simulate_population(spec, mf, cfg_for(500, seed=9))
    du = (batch.actions - batch.means)[:, :-1, 0].ravel()  # 2e5 agent-steps
    lam_rinv = spec.subpops[0].lambda_explore
    assert abs(du.var() - lam_rinv) < 0.02 * lam_rinv


def test_drift_uses_means_not_samples():
    # policy mean is identically zero (Q = 0 gives Pi = 0) while sampled
    # actions are huge; the exploratory drift must ignore the samples
    from lqgmfg.model import PopulationSpec, SubpopParams
    sub = SubpopParams(A=-0.5, B=1.0, Q=0.0, R=1.0, D=0.0, lambda_explore=1e4)
    spec = PopulationSpec(subpops=(sub,), pi=[1.0], rho=0.5,
                          x0_mean=[0.0], x0_cov=[[0.0]])
    mf = solve_consistency(spec)
    batch = simulate_population(spec, mf, cfg_for(8, seed=1))
    assert np.max(np.abs(batch.means)) < 1e-12
    assert np.max(np.abs(batch.actions)) > 10.0
    assert np.max(np.abs(batch.states)) < 1e-12


def test_determinism_bitwise(coupled):
    spec, mf = coupled
    a = simulate_population(spec, mf, cfg_for(32, seed=123))
    b = simulate_population(spec, mf, cfg_for(32, seed=123))
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.actions, b.actions)
    assert np.array_equal(a.means, b.means)


def test_empirical_averages_recomputable(coupled):
    spec, mf = coupled
    batch = simulate_population(spec, mf, cfg_for(16, seed=5))
    assert np.allclose(batch.x_avg, batch.states.mean(axis=0))
    assert np.allclose(batch.mu_avg, batch.means.mean(axis=0))


def test_lambda_continuity_same_seed():
    base = scalar_decoupled_spec(lambda_explore=0.0, rho=0.5, A=0.0, D=0.2,
                                 x0_var=0.1)
    tiny = scalar_decoupled_spec(lambda_explore=1e-12, rho=0.5, A=0.0, D=0.2,
                                 x0_var=0.1)
    mf0, mf1 = solve_consistency(base), solve_consistency(tiny)
    r0 = simulate_representative(base, mf0, GRID, 7, n_paths=4)
    r1 = simulate_representative(tiny, mf1, GRID, 7, n_paths=4)
    assert np.max(np.abs(r0.states - r1.states)) < 1e-5


def test_representative_mean_tracks_xbar(coupled):
    spec, mf = coupled
    batch = simulate_representative(spec, mf, GRID, 11, n_paths=2000)
    for i in (100, 200, 300, 400):
        se = batch.states[:, i, 0].std(ddof=1) / math.sqrt(2000)
        xb = mf.xbar.interp(GRID.times()[i])[0]
        assert abs(batch.x_avg[i, 0] - xb) < 5 * se


def test_empirical_cost_zero_paths():
    from lqgmfg.model import PopulationSpec, SubpopParams
    sub = SubpopParams(A=-0.5, B=1.0, Q=1.0, R=1.0, D=0.0, lambda_explore=0.0)
    spec = PopulationSpec(subpops=(sub,), pi=[1.0], rho=0.5,
                          x0_mean=[0.0], x0_cov=[[0.0]])
    mf = solve_consistency(spec)
    batch = simulate_population(spec, mf, cfg_for(4))
    est = empirical_cost(batch, spec, 0, "classical", spec.rho)
    assert est.mean == pytest.approx(0.0, abs=1e-20)


def test_type_index_checked(two_type):
    # k = -1 once ran the last type, and k = K raised a bare IndexError
    spec, mf = two_type
    grid = TimeGrid(0.0, 1.0, 20)
    batch = simulate_population(spec, mf, SimConfig(N=4, counts=(2, 2), grid=grid, seed=0))
    cases = [
        (lambda: coe_experiment(spec, mf, -1, reps=4, seed=0, grid=grid), "type k=-1 outside"),
        (lambda: coe_experiment(spec, mf, 2, reps=4, seed=0, grid=grid), "type k=2 outside"),
        (lambda: empirical_cost(batch, spec, -1, "classical", spec.rho), "type k=-1 outside"),
        (lambda: empirical_cost(batch, spec, 2, "classical", spec.rho), "type k=2 outside"),
    ]
    for call, match in cases:
        with pytest.raises(ValueError, match=match):
            call()
    assert empirical_cost(batch, spec, 1, "classical", spec.rho).per_agent.size == 2


def dp_value_oracle(A, B, Q, R, rho, x0, dt=0.01, iters=3000):
    """Value iteration for the deterministic discounted scalar LQR on a grid;
    independent of the Riccati machinery."""
    xg = np.linspace(-4.0, 4.0, 161)
    ug = np.linspace(-4.0, 4.0, 161)
    V = np.zeros_like(xg)
    disc = math.exp(-rho * dt)
    xn = xg[:, None] + dt * (A * xg[:, None] + B * ug[None, :])
    stage = dt * 0.5 * (Q * xg[:, None] ** 2 + R * ug[None, :] ** 2)
    for _ in range(iters):
        Vn = np.interp(xn, xg, V)
        V_new = np.min(stage + disc * Vn, axis=1)
        if np.max(np.abs(V_new - V)) < 1e-12:
            V = V_new
            break
        V = V_new
    return float(np.interp(x0, xg, V))


def test_empirical_cost_against_dp_oracle():
    spec = scalar_decoupled_spec(lambda_explore=0.0, rho=0.5, A=0.0, D=0.0,
                                 x0=1.0, x0_var=0.0)
    mf = solve_consistency(spec)
    grid = TimeGrid(0.0, 16.0, 3200)
    batch = simulate_population(spec, mf, cfg_for(1, grid=grid))
    est = empirical_cost(batch, spec, 0, "classical", spec.rho)
    assert est.truncation_bound <= 0.01 * (1.0 + abs(est.mean))
    dp = dp_value_oracle(0.0, 1.0, 1.0, 1.0, 0.5, 1.0)
    closed = 0.5 * mf.Pi[0].Pi[0, 0]
    assert est.mean == pytest.approx(closed, rel=0.02)
    assert est.mean == pytest.approx(dp, rel=0.05)


def test_cost_mode_entropy_difference(decoupled_noisy):
    spec, mf = decoupled_noisy
    batch = simulate_population(spec, mf, cfg_for(16, seed=2))
    reg = empirical_cost(batch, spec, 0, "exploratory-regularized", spec.rho)
    plain = empirical_cost(batch, spec, 0, "exploratory", spec.rho)
    p = spec.subpops[0]
    H = 0.5 * math.log(2 * math.pi * math.e * p.lambda_explore / p.R[0, 0])
    ts = GRID.times()
    w = np.full(ts.shape, GRID.dt)
    w[0] *= 0.5
    w[-1] *= 0.5
    expected = -p.lambda_explore * H * float(np.exp(-spec.rho * ts) @ w)
    assert reg.mean - plain.mean == pytest.approx(expected, rel=1e-12)
    # analytic form of the same quantity up to quadrature error
    assert expected == pytest.approx(
        -p.lambda_explore * H * (1 - math.exp(-spec.rho * GRID.t1)) / spec.rho, rel=1e-4)


def test_entropy_charged_at_each_agents_scale(decoupled_noisy):
    spec, mf = decoupled_noisy
    scales = [0.5, 2.0, 1.0, 0.5, 3.0, 1.0]
    devs = {i: PolicyDeviation(cov_scale=c) for i, c in enumerate(scales)}
    batch = simulate_population(spec, mf, cfg_for(len(scales), seed=4),
                                deviations=devs)
    reg = empirical_cost(batch, spec, 0, "exploratory-regularized", spec.rho)
    plain = empirical_cost(batch, spec, 0, "exploratory", spec.rho)
    p = spec.subpops[0]
    ts = GRID.times()
    w = np.full(ts.shape, GRID.dt)
    w[0] *= 0.5
    w[-1] *= 0.5
    disc = float(np.exp(-spec.rho * ts) @ w)
    for i, c in enumerate(scales):
        H = 0.5 * math.log(2 * math.pi * math.e * c * p.lambda_explore / p.R[0, 0])
        assert reg.per_agent[i] - plain.per_agent[i] == pytest.approx(
            -p.lambda_explore * H * disc, rel=1e-9)


def test_truncation_bound_covers_tail(decoupled_noisy):
    spec, mf = decoupled_noisy
    grid1 = TimeGrid(0.0, 8.0, 800)
    grid2 = TimeGrid(0.0, 16.0, 1600)
    pack2 = draw_noise(5, 8, grid2.steps, spec.n, spec.m, 1)
    pack1 = type(pack2)(pack2.x0_z, pack2.action_z[:grid1.steps + 1],
                        pack2.dW[:grid1.steps])
    b1 = simulate_population(spec, mf, cfg_for(8, grid=grid1, seed=5), noise=pack1)
    b2 = simulate_population(spec, mf, cfg_for(8, grid=grid2, seed=5), noise=pack2)
    c1 = empirical_cost(b1, spec, 0, "classical", spec.rho)
    c2 = empirical_cost(b2, spec, 0, "classical", spec.rho)
    omitted = abs(c2.mean - c1.mean)
    assert c1.truncation_bound >= omitted


def test_coupling_gap_zero_when_uncoupled(decoupled_noisy):
    spec, mf = decoupled_noisy
    res = coupling_gap_experiment(spec, mf, [8, 16], reps=3, seed=1,
                                  grid=TimeGrid(0.0, 2.0, 200))
    assert max(res.summary["gap_means"]) < 1e-20


def test_coupling_gap_monotone_and_rate(coupled):
    spec, mf = coupled
    res = coupling_gap_experiment(spec, mf, [16, 64, 256], reps=24, seed=4,
                                  grid=TimeGrid(0.0, 4.0, 400))
    means = res.summary["gap_means"]
    assert means[-1] < means[0]
    assert -1.4 < res.summary["slope"] < -0.5


def test_cost_gap_zero_when_uncoupled(decoupled_noisy):
    spec, mf = decoupled_noisy
    res = cost_gap_experiment(spec, mf, [8, 16], reps=3, seed=2,
                              grid=TimeGrid(0.0, 3.0, 300))
    assert max(res.summary["cost_gaps"]) < 1e-12


def test_nash_family_of_equilibrium_only(coupled):
    spec, mf = coupled
    res = nash_deviation_experiment(spec, mf, N=8, reps=3, seed=3,
                                    deviation_family=[PolicyDeviation()],
                                    grid=TimeGrid(0.0, 2.0, 200))
    assert res.summary["eps_hat"] == 0.0


def test_nash_family_of_equilibrium_only_two_dimensional():
    # n = m = 2, five equal members over nine repetitions: a product over
    # two columns, or a discount sum over a block of paths, can round a path
    # by its position in the batch; equal members must still cost alike to
    # the bit
    rng = np.random.default_rng(4)
    spec = PopulationSpec(subpops=tuple(random_subpop(rng, 2, 2, 0.3) for _ in range(2)),
                          pi=[0.6, 0.4], rho=0.5, x0_mean=[0.5, -0.3],
                          x0_cov=0.1 * np.eye(2))
    mf = solve_consistency(spec)
    res = nash_deviation_experiment(spec, mf, N=7, reps=9, seed=3,
                                    deviation_family=[PolicyDeviation()] * 5,
                                    grid=TimeGrid(0.0, 2.0, 200))
    assert res.summary["eps_hat"] == 0.0
    assert all(c == res.summary["equilibrium_cost"]
               for c in res.summary["deviation_costs"])


def test_nash_matches_direct_per_repetition_costs(coupled):
    # superposition rounds in another order than the N-agent simulation
    spec, mf = coupled
    grid = TimeGrid(0.0, 2.0, 200)
    N, reps, seed = 6, 3, 11
    family = [PolicyDeviation(mean_shift=[0.3]), PolicyDeviation(cov_scale=1.5)]
    with on_packs():
        res = nash_deviation_experiment(spec, mf, N=N, reps=reps, seed=seed,
                                        deviation_family=family, grid=grid)
    counts = exact_counts(spec.pi, N)

    def tagged_costs(dev):
        return tagged_cost_reference(spec, mf, grid, counts, seed, reps, dev)

    base = tagged_costs(None).mean()
    devs = [tagged_costs(dev) for dev in family]
    eps_hat = max(0.0, base - min(v.mean() for v in devs))
    assert_rows_close(
        res.rows + [res.summary],
        [{"experiment": "nash", "N": N, "rep": j, "checkpoint_t": grid.t1,
          "value": v.mean(), "std_err": v.std(ddof=1) / math.sqrt(reps)}
         for j, v in enumerate(devs)]
        + [{"experiment": "nash", "N": N, "rep": -1, "checkpoint_t": grid.t1,
            "value": eps_hat, "std_err": ""},
           {"N": N, "eps_hat": eps_hat, "equilibrium_cost": base,
            "deviation_costs": [v.mean() for v in devs], "reps": reps}],
        rtol=1e-12)


def test_nash_uncoupled_no_profit(decoupled_noisy):
    spec, mf = decoupled_noisy
    family = [PolicyDeviation(mean_shift=[d]) for d in (-0.5, 0.5)] \
        + [PolicyDeviation(cov_scale=2.0)]
    res = nash_deviation_experiment(spec, mf, N=16, reps=8, seed=6,
                                    deviation_family=family,
                                    grid=TimeGrid(0.0, 6.0, 600))
    # deviating from the single-agent optimum never helps
    assert all(c >= res.summary["equilibrium_cost"]
               for c in res.summary["deviation_costs"])
    assert res.summary["eps_hat"] == 0.0


def test_deviations_act_per_agent(two_type):
    spec, mf = two_type
    grid = TimeGrid(0.0, 2.0, 200)
    types = np.array([0, 0, 0, 1, 1, 1])
    pack = draw_noise(8, types.size, grid.steps, spec.n, spec.m, 1)
    devs = {1: PolicyDeviation(mean_shift=[0.4], cov_scale=2.0),
            3: PolicyDeviation(cov_scale=0.5),
            5: PolicyDeviation(mean_shift=[-0.3])}
    base = simulate_representative(spec, mf, grid, 8, noise=pack, types=types)
    dev = simulate_representative(spec, mf, grid, 8, noise=pack, types=types,
                                  deviations=devs)
    fields = ("states", "actions", "means")
    for f in fields:
        assert np.array_equal(getattr(dev, f)[[0, 2, 4]], getattr(base, f)[[0, 2, 4]])
    for i, d in devs.items():
        single = simulate_representative(spec, mf, grid, 8, noise=rows(pack, [i]),
                                         types=types[[i]], deviations={0: d})
        for f in fields:
            assert np.array_equal(getattr(dev, f)[i], getattr(single, f)[0])
        np.testing.assert_allclose(
            dev.actions[i] - dev.means[i],
            math.sqrt(d.cov_scale) * (base.actions[i] - base.means[i]),
            rtol=1e-9, atol=1e-12)
    assert not np.array_equal(dev.means[1], base.means[1])


@pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
def test_deviation_rejects_bad_cov_scale(scale):
    with pytest.raises(ValueError, match="cov_scale"):
        PolicyDeviation(cov_scale=scale)


@pytest.mark.parametrize("shift", [[math.nan], [math.inf], [0.5, -math.inf]])
def test_deviation_rejects_non_finite_mean_shift(shift):
    # bad input, refused where it is given, not a blow-up in the Euler loop
    with pytest.raises(ValueError, match="mean_shift must be finite"):
        PolicyDeviation(mean_shift=shift)


@pytest.mark.parametrize("shift", [[0.5], [0.5, 0.5, 0.5], [[0.5, 0.5]]])
def test_mis_sized_mean_shift_rejected_on_both_paths(planar, shift):
    spec, mf = planar
    dev = PolicyDeviation(mean_shift=shift)
    grid = TimeGrid(0.0, 1.0, 100)
    with pytest.raises(ValueError, match="m=2"):
        simulate_representative(spec, mf, grid, 0, deviations={0: dev})
    with pytest.raises(ValueError, match="m=2"):
        nash_deviation_experiment(spec, mf, N=4, deviation_family=[dev], reps=2,
                                  seed=0, grid=grid)


@pytest.mark.parametrize("idx", [-1, 4])
def test_deviation_rejects_agent_out_of_range(decoupled, idx):
    spec, mf = decoupled
    with pytest.raises(ValueError, match="outside"):
        simulate_population(spec, mf, cfg_for(4),
                            deviations={idx: PolicyDeviation(mean_shift=[0.1])})


def test_coe_zero_lambda():
    spec = scalar_decoupled_spec(lambda_explore=0.0, rho=0.1)
    mf = solve_consistency(spec)
    res = coe_experiment(spec, mf, 0, reps=200, seed=0,
                         grid=TimeGrid(0.0, 40.0, 2000))
    assert res.summary["estimate"] == 0.0


def test_coe_matches_analytic(decoupled_coe):
    spec, mf = decoupled_coe
    res = coe_experiment(spec, mf, 0, reps=3000, seed=12)
    est, se = res.summary["estimate"], res.summary["std_err"]
    assert abs(est - 1.0) < 4 * se + 1e-3


def test_coe_negative_seed_wraps_modulo_2_64(decoupled_noisy):
    # rng_stream takes a seed modulo 2**64, as every other experiment does
    spec, mf = decoupled_noisy
    grid = TimeGrid(0.0, 10.0, 200)
    a = coe_experiment(spec, mf, 0, reps=20, seed=-1, grid=grid)
    b = coe_experiment(spec, mf, 0, reps=20, seed=2**64 - 1, grid=grid)
    assert a.rows == b.rows and a.summary == b.summary


def test_csv_writer_deterministic(tmp_path, decoupled_noisy):
    spec, mf = decoupled_noisy
    res = coe_experiment(spec, mf, 0, reps=50, seed=9,
                         grid=TimeGrid(0.0, 30.0, 600))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_experiment_csv(p1, res.rows)
    write_experiment_csv(p2, res.rows)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == "experiment,N,rep,checkpoint_t,value,std_err"


# ---------------------------------------------------------------------------
# The time-major kernel against the agent-major loop it replaced
# ---------------------------------------------------------------------------

c_order = np.ascontiguousarray


def simulate_reference(spec, mf, grid, counts, noise, deviations, exogenous_field):
    """Agent-major Euler-Maruyama loop: paths stored as (N, nodes, .), one
    strided row per agent per node.  The reference for the kernel that
    ``simulate_population`` and ``simulate_representative`` run.  Every
    matrix a product takes on its right is transposed into C order, as the
    kernel holds it: matmul rounds a strided right operand in another loop.
    The population averages sum each component pairwise, as the kernel
    does."""
    K = spec.K
    n, m = spec.n, spec.m
    N = sum(counts)
    steps, dt = grid.steps, grid.dt
    nodes = steps + 1
    sqdt = math.sqrt(dt)
    slices = simulator._type_slices(counts)
    # the equilibrium feedback per type on the grid, written out in full
    ts = grid.times()
    xbar_t = mf.xbar.interp(ts)
    gains, offsets, chols, b_tabs = [], [], [], []
    for k, p in enumerate(spec.subpops):
        gains.append(feedback_gain(p, mf.Pi[k].Pi))
        inner = mf.s[k].interp(ts) @ p.B - (xbar_t @ spec.psibar(k).T) @ p.S + p.nvec[None, :]
        offsets.append(-np.linalg.solve(p.R, inner.T).T)
        cov = p.lambda_explore * np.linalg.inv(p.R)
        chols.append(cholesky_psd(0.5 * (cov + cov.T)))
        b_tabs.append(p.b(ts))

    states = np.empty((N, nodes, n))
    means = np.empty((N, nodes, m))
    actions = np.empty((N, nodes, m))
    x_avg = np.empty((nodes, n))
    mu_avg = np.empty((nodes, m))

    L0 = cholesky_psd(spec.x0_cov)
    states[:, 0] = spec.x0_mean[None, :] + noise.x0_z @ c_order(L0.T)

    shifts, cov_scales = np.zeros((N, m)), np.ones(N)
    for idx, dev in (deviations or {}).items():
        shifts[idx], cov_scales[idx] = dev.shift(m), dev.cov_scale
    sd_scales = np.sqrt(cov_scales)[:, None]

    if exogenous_field:
        mubar_t = mf.mubar.interp(ts)
        field_drift = [xbar_t @ spec.Fbar(k).T + mubar_t @ spec.Hbar(k).T
                       for k in range(K)]

    x = states[:, 0]
    for i in range(nodes):
        mu = np.empty((N, m))
        for k, sl in enumerate(slices):
            mu[sl] = -(x[sl] @ c_order(gains[k].T)) + offsets[k][i][None, :]
        mu += shifts
        u = np.empty((N, m))
        for k, sl in enumerate(slices):
            u[sl] = mu[sl] + sd_scales[sl] * (noise.action_z[i, sl] @ c_order(chols[k].T))
        means[:, i] = mu
        actions[:, i] = u
        x_avg[i] = c_order(x.T).sum(axis=1) / N
        mu_avg[i] = c_order(mu.T).sum(axis=1) / N
        if i == steps:
            break
        x_new = np.empty_like(x)
        for k, sl in enumerate(slices):
            p = spec.subpops[k]
            drift = x[sl] @ c_order(p.A.T) + mu[sl] @ c_order(p.B.T) + b_tabs[k][i][None, :]
            if exogenous_field:
                drift += field_drift[k][i][None, :]
            else:
                drift += x_avg[i] @ c_order(p.F.T) + mu_avg[i] @ c_order(p.H.T)
            x_new[sl] = x[sl] + dt * drift + sqdt * (noise.dW[i, sl] @ c_order(p.D.T))
        states[:, i + 1] = x_new
        x = x_new
    return {"states": states, "actions": actions, "means": means,
            "x_avg": x_avg, "mu_avg": mu_avg, "cov_scales": cov_scales}


_BATCH_FIELDS = ("states", "actions", "means", "x_avg", "mu_avg", "cov_scales")


def _assert_kernel_matches_reference(spec, mf, grid, counts, noise, deviations):
    N = sum(counts)
    types = np.repeat(np.arange(spec.K), counts)
    cfg = SimConfig(N=N, counts=tuple(counts), grid=grid, seed=0)
    batches = {
        False: simulate_population(spec, mf, cfg, deviations=deviations,
                                   noise=noise),
        True: simulate_representative(spec, mf, grid, 0, noise=noise,
                                      deviations=deviations, types=types)}
    for exogenous, batch in batches.items():
        ref = simulate_reference(spec, mf, grid, counts, noise, deviations, exogenous)
        for f in _BATCH_FIELDS:
            assert np.array_equal(getattr(batch, f), ref[f]), (f, exogenous)
        assert batch.states.shape == (N, grid.steps + 1, spec.n)


def _random_game(rng, K, n, m, r, steps):
    """A K-type spec with random blocks and a random (not equilibrium) mean
    field: the kernel only reads xbar, mubar, s_k and Pi_k from it."""
    def mat(rows, cols, scale):
        return scale * rng.standard_normal((rows, cols))

    def spd(d):
        M = rng.standard_normal((d, d))
        return M @ M.T + 0.5 * np.eye(d)

    subpops = tuple(
        SubpopParams(A=mat(n, n, 0.5), B=mat(n, m, 1.0), Q=spd(n), R=spd(m),
                     S=mat(n, m, 0.1), F=mat(n, n, 0.3), H=mat(n, m, 0.3),
                     D=mat(n, r, 0.3), b=mat(1, n, 0.2)[0],
                     psi=mat(n, n, 0.3), lambda_explore=rng.uniform(0.0, 0.5))
        for _ in range(K))
    spec = PopulationSpec(subpops=subpops, pi=rng.dirichlet(np.ones(K)),
                          rho=0.5, x0_mean=rng.standard_normal(n),
                          x0_cov=spd(n) * 0.1)
    grid = TimeGrid(0.0, 1.0, steps)
    nodes = steps + 1

    def traj(d):
        return Trajectory(grid, rng.standard_normal((nodes, d)))

    mf = SimpleNamespace(grid=grid, xbar=traj(n * K), mubar=traj(m * K),
                         s=[traj(n) for _ in range(K)],
                         Pi=[SimpleNamespace(Pi=spd(n)) for _ in range(K)])
    return spec, mf, grid


@settings(max_examples=60, deadline=None, derandomize=True)
@given(K=st.integers(1, 3), n=st.integers(1, 2), m=st.integers(1, 2),
       r=st.integers(1, 2), steps=st.integers(1, 30),
       counts=st.lists(st.integers(0, 5), min_size=3, max_size=3),
       kind=st.sampled_from(["exploratory", "classical"]),
       n_devs=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
def test_kernel_matches_agent_major_reference(K, n, m, r, steps, counts, kind,
                                              n_devs, seed):
    rng = np.random.default_rng(seed)
    spec, mf, grid = _random_game(rng, K, n, m, r, steps)
    spec = of_kind(spec, kind)
    counts = counts[:K]
    counts[0] = max(counts[0], 1)
    N = sum(counts)
    noise = AgentNoise(rng.standard_normal((N, n)),
                       rng.standard_normal((steps + 1, N, m)),
                       rng.standard_normal((steps, N, r)))
    deviations = {int(i): PolicyDeviation(mean_shift=rng.standard_normal(m)
                                          if rng.random() < 0.7 else None,
                                          cov_scale=float(rng.uniform(0.2, 3.0)))
                  for i in rng.choice(N, size=min(n_devs, N), replace=False)}
    _assert_kernel_matches_reference(spec, mf, grid, counts, noise, deviations or None)


@pytest.mark.parametrize("kind", ["exploratory", "classical"])
# planar (n = m = 2): 40 rows per component, so the averages' order shows
@pytest.mark.parametrize("game", ["coupled", "two_type", "planar"])
def test_kernel_matches_reference_on_solved_games(request, game, kind):
    spec, mf = request.getfixturevalue(game)
    spec = of_kind(spec, kind)
    grid = TimeGrid(0.0, 2.0, 200)
    counts = list(exact_counts(spec.pi, 40))
    noise = draw_noise(3, 40, grid.steps, spec.n, spec.m, spec.subpops[0].r)
    deviations = {0: PolicyDeviation(mean_shift=np.full(spec.m, 0.3), cov_scale=1.7),
                  7: PolicyDeviation(cov_scale=0.4),
                  39: PolicyDeviation(mean_shift=np.full(spec.m, -0.2))}
    _assert_kernel_matches_reference(spec, mf, grid, counts, noise, deviations)


@pytest.mark.parametrize("game", ["coupled", "two_type", "planar"])
def test_classical_game_is_the_zero_lambda_spec(request, game):
    # the lambda = 0 spec, solved on its own, steps the spec's own paths bit
    # for bit, deviations included, with every action at its policy mean;
    # so its 'classical' cost is its 'exploratory' cost
    spec, mf = request.getfixturevalue(game)
    classical = with_lambda(spec, 0.0)
    mf0 = solve_consistency(classical)
    grid = TimeGrid(0.0, 2.0, 100)
    shift = np.full(spec.m, 0.3)
    runs = {
        "population": lambda s, m: simulate_population(
            s, m, SimConfig(N=300, counts=exact_counts(spec.pi, 300), grid=grid, seed=5),
            {0: PolicyDeviation(mean_shift=shift, cov_scale=1.7),
             150: PolicyDeviation(cov_scale=0.4), 299: PolicyDeviation(mean_shift=-shift)}),
        "representative": lambda s, m: simulate_representative(
            s, m, grid, 5, types=np.repeat(np.arange(spec.K), exact_counts(spec.pi, 50)),
            deviations={0: PolicyDeviation(mean_shift=-shift, cov_scale=2.0),
                        49: PolicyDeviation(mean_shift=shift)})}
    for name, run in runs.items():
        a, b = run(spec, mf), run(classical, mf0)
        for f in ("states", "means", "x_avg", "mu_avg", "cov_scales"):
            assert np.array_equal(getattr(a, f), getattr(b, f)), (name, f)
        assert np.array_equal(b.actions, b.means), name
        assert not np.array_equal(a.actions, a.means), name
        for k in range(spec.K):
            assert np.array_equal(
                empirical_cost(b, classical, k, "classical", spec.rho).per_agent,
                empirical_cost(b, classical, k, "exploratory", spec.rho).per_agent), (name, k)


def test_noise_pack_is_the_time_major_stream():
    # the initial states of every agent, then per node every agent's action
    # noise and, before the last node, every agent's increments
    N, steps, n, m, r = 5, 40, 2, 3, 1
    pack = draw_noise(9, N, steps, n, m, r, rep=4)
    rng = rng_stream(9, 4)
    assert np.array_equal(pack.x0_z, rng.standard_normal((N, n)))
    for i in range(steps + 1):
        assert np.array_equal(pack.action_z[i], rng.standard_normal((N, m)))
        if i < steps:
            assert np.array_equal(pack.dW[i], rng.standard_normal((N, r)))
    # the same values as the chunks of the draw rule, concatenated
    chunks = simulator._noise_chunks(rng_stream(9, 4), N, n, m, r, steps, 7)
    assert np.array_equal(pack.x0_z, next(chunks))
    az, dw = zip(*((a.copy(), w.copy()) for a, w in chunks))
    assert np.array_equal(pack.action_z, np.concatenate(az))
    assert np.array_equal(pack.dW, np.concatenate(dw))


def serial_stream(seed, P, n, m, r, steps):
    """One ``standard_normal`` call for the whole stream, cut by the draw
    rule: the initial states (P, n), then per node the action noise
    (nodes, P, m) and, before the last node, the increments (steps, P, r)."""
    per_node = P * (m + r)
    z = rng_stream(seed, 0).standard_normal(P * n + (steps + 1) * per_node - P * r)
    nodes = np.append(z[P * n:], np.empty(P * r)).reshape(steps + 1, per_node)
    return (z[:P * n].reshape(P, n), nodes[:, :P * m].reshape(-1, P, m),
            nodes[:steps, P * m:].reshape(-1, P, r))


# steps + 1 divisible by the chunk, a partial last chunk, a chunk larger than
# the nodes, one node, one path
@pytest.mark.parametrize("P, steps, chunk", [(3, 15, 4), (5, 40, 7), (2, 9, 50),
                                             (4, 0, 16), (1, 30, 1), (6, 16, 17)])
def test_noise_chunks_are_one_serial_stream(P, steps, chunk):
    n, m, r = 2, 3, 1
    x0, az, dw = serial_stream(8, P, n, m, r, steps)
    chunks = simulator._noise_chunks(rng_stream(8, 0), P, n, m, r, steps, chunk)
    assert np.array_equal(next(chunks), x0)
    got = [(a.copy(), w.copy()) for a, w in chunks]
    assert len(got) == -(-(steps + 1) // chunk)
    assert all(len(a) == min(chunk, steps + 1 - lo)
               for lo, (a, _) in zip(range(0, steps + 1, chunk), got))
    assert np.array_equal(np.concatenate([a for a, _ in got]), az)
    assert np.array_equal(np.concatenate([w for _, w in got]), dw)


def test_held_chunk_is_not_overwritten_until_the_next_is_asked():
    # the worker fills the next chunk while the consumer holds this one;
    # wait long enough for that fill to end, then read the held chunk
    P, n, m, r, steps, chunk = 2000, 1, 2, 2, 63, 4
    x0, az, dw = serial_stream(5, P, n, m, r, steps)
    chunks = simulator._noise_chunks(rng_stream(5, 0), P, n, m, r, steps, chunk)
    next(chunks)
    previous = None
    for lo, (a, w) in zip(range(0, steps + 1, chunk), chunks):
        time.sleep(0.005)
        assert np.array_equal(a, az[lo:lo + chunk])
        assert np.array_equal(w, dw[lo:lo + chunk])
        assert previous is None or not np.shares_memory(a, previous)
        previous = a


def test_concurrent_draws_keep_their_streams():
    # four consumers, each with its own draw and worker, on two cores, with
    # the interpreter switching threads every 10 us
    P, n, m, r, steps, chunk = 300, 1, 2, 1, 99, 8
    got = {}

    def consume(seed):
        chunks = simulator._noise_chunks(rng_stream(seed, 0), P, n, m, r, steps, chunk)
        x0 = next(chunks)
        parts = [(a.copy(), w.copy()) for a, w in chunks]
        got[seed] = (x0, np.concatenate([a for a, _ in parts]),
                     np.concatenate([w for _, w in parts]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=consume, args=(seed,)) for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for seed in range(4):
        assert all(np.array_equal(a, b)
                   for a, b in zip(got[seed], serial_stream(seed, P, n, m, r, steps)))


def test_closing_the_draw_joins_its_worker():
    before = set(threading.enumerate())
    chunks = simulator._noise_chunks(rng_stream(1, 0), 50, 1, 1, 1, 100, 4)
    for _ in range(3):
        next(chunks)
    assert set(threading.enumerate()) > before          # the worker runs
    chunks.close()
    assert set(threading.enumerate()) == before


STIFF_GRID = TimeGrid(0.0, 180.0, 400)


@pytest.mark.parametrize("run", [
    lambda spec, mf: simulate_population(spec, mf, cfg_for(50, grid=STIFF_GRID)),
    lambda spec, mf: simulate_representative(spec, mf, STIFF_GRID, 0, n_paths=50),
    lambda spec, mf: coe_experiment(spec, mf, 0, reps=50, seed=0, grid=STIFF_GRID),
], ids=["population", "representative", "coe"])
def test_blow_up_joins_the_worker(run):
    # explicit Euler at dt = 0.45 blows up at A = -45; the raised error's
    # traceback keeps the kernel's frame, and so its draw, alive
    spec = scalar_decoupled_spec(A=-45.0, D=0.1, x0_var=0.1)
    mf = solve_consistency(spec)
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="non-finite state") as info:
        run(spec, mf)
    assert info.traceback and set(threading.enumerate()) == before


DRAW_GRID = TimeGrid(0.0, 2.0, 50)


def draw_cases(spec, mf):
    """A population and typed representative paths of 13 agents, both with
    deviations, as functions of the noise pack (None: the default draw)."""
    counts = exact_counts(spec.pi, 13)
    types = np.repeat(np.arange(spec.K), counts)
    devs = {0: PolicyDeviation(mean_shift=[0.3], cov_scale=1.7),
            7: PolicyDeviation(cov_scale=0.4), 12: PolicyDeviation(mean_shift=[-0.2])}
    cfg = SimConfig(N=13, counts=counts, grid=DRAW_GRID, seed=6)
    return {"population": lambda noise: simulate_population(spec, mf, cfg, devs, noise),
            "representative": lambda noise: simulate_representative(
                spec, mf, DRAW_GRID, 6, noise=noise, deviations=devs, types=types)}


def assert_batches_equal(a, b):
    for f in _BATCH_FIELDS:
        assert np.array_equal(getattr(a, f), getattr(b, f)), f


@pytest.mark.parametrize("kind", ["exploratory", "classical"])
def test_default_draw_equals_injected_pack(two_type, kind):
    spec, mf = two_type
    pack = draw_noise(6, 13, DRAW_GRID.steps, spec.n, spec.m, spec.subpops[0].r)
    for run in draw_cases(of_kind(spec, kind), mf).values():
        assert_batches_equal(run(None), run(pack))


# 51 nodes: chunks of 1 and 7 end on a partial chunk, 51 and 500 hold them all
@pytest.mark.parametrize("chunk", [1, 7, 51, 500])
@pytest.mark.parametrize("kind", ["exploratory", "classical"])
def test_draw_does_not_depend_on_chunk(two_type, kind, chunk):
    spec, mf = two_type
    runs = draw_cases(of_kind(spec, kind), mf)
    default = {name: run(None) for name, run in runs.items()}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "_NOISE_CHUNK", chunk)
        pack = draw_noise(6, 13, DRAW_GRID.steps, spec.n, spec.m, spec.subpops[0].r)
        for name, run in runs.items():
            assert_batches_equal(run(None), default[name])
            assert_batches_equal(run(pack), default[name])


def test_population_memory_holds_no_noise_pack(planar):
    # n = m = r = 2: the paths and a tenth of one (N, nodes, .) noise pack
    import tracemalloc
    spec, mf = planar
    spec = dataclasses.replace(
        spec, subpops=(dataclasses.replace(spec.subpops[0], D=0.2 * np.eye(2)),))
    N, grid = 2000, TimeGrid(0.0, 4.0, 400)
    n, m, r, nodes = 2, 2, 2, grid.steps + 1
    own = 8 * N * nodes * (n + 2 * m)               # states, means, actions
    pack = 8 * N * (n + nodes * m + grid.steps * r)
    tracemalloc.start()
    try:
        batch = simulate_population(spec, mf, cfg_for(N, grid=grid, seed=2))
        _now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert batch.states.nbytes + batch.means.nbytes + batch.actions.nbytes == own
    assert peak < own + pack / 10


# ---------------------------------------------------------------------------
# The experiment kernels against the loops they replaced
# ---------------------------------------------------------------------------

def coe_reference(spec, mf, k, reps, seed, grid):
    """Per-step cost-of-exploration loop: two draws and three 3-operand
    einsums per node.  The reference for ``coe_experiment``'s chunked kernel;
    returns (estimate, std_err)."""
    rho = spec.rho
    p = spec.subpops[k]
    n, m = p.n, p.m
    ts = grid.times()
    dt, steps = grid.dt, grid.steps
    rng = np.random.default_rng(seed)

    gain = feedback_gain(p, mf.Pi[k].Pi)
    s_t = mf.s[k].interp(ts)
    xbar_t = mf.xbar.interp(ts)
    mubar_t = mf.mubar.interp(ts)
    psibar = spec.psibar(k)
    off = -np.linalg.solve(p.R, (s_t @ p.B - (xbar_t @ psibar.T) @ p.S
                                 + p.nvec[None, :]).T).T
    field = xbar_t @ spec.Fbar(k).T + mubar_t @ spec.Hbar(k).T + p.b(ts)
    ybar = xbar_t @ psibar.T
    Lc = cholesky_psd(p.lambda_explore * np.linalg.inv(p.R))
    L0 = cholesky_psd(spec.x0_cov)

    x = spec.x0_mean[None, :] + rng.standard_normal((reps, n)) @ L0.T
    acc = np.zeros(reps)
    sqdt = math.sqrt(dt)
    for i in range(steps + 1):
        mu = -(x @ gain.T) + off[i][None, :]
        z = rng.standard_normal((reps, m))
        du = z @ Lc.T
        e = x - ybar[i][None, :]
        dl = (0.5 * np.einsum("ai,ij,aj->a", du, p.R, du)
              + np.einsum("ai,ij,aj->a", mu, p.R, du)
              + np.einsum("ai,ij,aj->a", e, p.S, du)
              + du @ p.nvec)
        w = dt if 0 < i < steps else 0.5 * dt
        acc += w * math.exp(-rho * ts[i]) * dl
        if i == steps:
            break
        drift = x @ p.A.T + mu @ p.B.T + field[i][None, :]
        x = x + dt * drift + sqdt * rng.standard_normal((reps, p.r)) @ p.D.T
    return float(acc.mean()), float(acc.std(ddof=1) / math.sqrt(reps))


@pytest.mark.parametrize("game", ["decoupled_coe", "planar", "random"])
def test_coe_matches_per_step_reference(request, game):
    reps, seed = 300, 21
    if game == "random":
        # S, n, F, H, b, psi and D all nonzero; type 1 of two
        spec, mf, grid = _random_game(np.random.default_rng(8), 2, 2, 2, 2, 1000)
        k = 1
        subpops = list(spec.subpops)
        subpops[k] = dataclasses.replace(subpops[k], nvec=[0.3, -0.2])
        spec = dataclasses.replace(spec, subpops=tuple(subpops))
    else:
        spec, mf = request.getfixturevalue(game)
        grid, k = TimeGrid(0.0, 40.0, 1000), 0
    p = spec.subpops[k]
    # the last draw chunk is a partial one
    chunk = simulator._BLOCK_BYTES // (8 * reps * (p.m + p.r))
    assert 1 < chunk < grid.steps and (grid.steps + 1) % chunk != 0
    res = coe_experiment(spec, mf, k, reps=reps, seed=seed, grid=grid)
    est, se = coe_reference(spec, mf, k, reps, seed, grid)
    assert res.summary["estimate"] == pytest.approx(est, rel=1e-12, abs=0)
    assert res.summary["std_err"] == pytest.approx(se, rel=1e-12, abs=0)


def coupling_gap_reference(spec, mf, Ns, reps, seed, grid):
    """Both systems simulated on the full grid, the midpoint node read
    afterwards.  The reference for ``coupling_gap_experiment``."""
    ck = int(round(0.5 * grid.steps))
    t_ck = grid.times()[ck]
    res = simulator.ExperimentResult("coupling-gap")
    means, ses = [], []
    for N in Ns:
        counts = exact_counts(spec.pi, N)
        types = np.repeat(np.arange(spec.K), counts)
        vals = np.empty(reps)
        for rep in range(reps):
            pack = draw_noise(seed, N, grid.steps, spec.n, spec.m,
                              spec.subpops[0].r, rep=rep)
            cfg = SimConfig(N=N, counts=counts, grid=grid, seed=seed)
            fin = simulate_population(spec, mf, cfg, noise=pack)
            inf = simulate_representative(spec, mf, grid, seed, noise=pack, types=types)
            gap = np.sum((fin.states[:, ck] - inf.states[:, ck]) ** 2, axis=1)
            vals[rep] = gap.mean()
            res.rows.append({"experiment": "coupling-gap", "N": N, "rep": rep,
                             "checkpoint_t": t_ck, "value": vals[rep],
                             "std_err": ""})
        means.append(vals.mean())
        ses.append(vals.std(ddof=1) / math.sqrt(reps) if reps > 1 else 0.0)
        res.rows.append({"experiment": "coupling-gap", "N": N, "rep": -1,
                         "checkpoint_t": t_ck, "value": means[-1],
                         "std_err": ses[-1]})
    res.summary = {"Ns": list(Ns), "gap_means": means, "gap_std_errs": ses,
                   "slope": simulator._safe_slope(Ns, means),
                   "checkpoint_t": t_ck, "reps": reps}
    return res


def assert_rows_close(rows, ref_rows, rtol):
    """Experiment rows (and summaries) equal in every key and every string
    or count, and in every other number to ``rtol`` relative."""
    assert len(rows) == len(ref_rows)
    for row, ref_row in zip(rows, ref_rows):
        assert row.keys() == ref_row.keys()
        for key, v in ref_row.items():
            if isinstance(v, str) or key in ("N", "rep", "Ns", "reps"):
                assert row[key] == v
            else:
                np.testing.assert_allclose(row[key], v, rtol=rtol, atol=0)


# the ids name the coupling the gap runs on, common random numbers; frac
# places the checkpoint on [0, 3] in steps of 0.015, as the midpoint of a
# grid of twice that length
@pytest.mark.parametrize("frac", [0.5, 1.0, 0.37],
                         ids=lambda frac: f"{frac}-common-random-numbers")
def test_coupling_gap_matches_full_grid_reference(two_type, frac):
    # the gap is now a difference of type means, not of agent paths: it
    # matches the agent-by-agent reference to rounding, not bitwise
    spec, mf = two_type
    grid = TimeGrid(0.0, 6.0 * frac, round(400 * frac))
    kw = dict(reps=3, seed=6)
    Ns = [8, 16, 40]
    with on_packs():
        res = coupling_gap_experiment(spec, mf, Ns, grid=grid, **kw)
    ref = coupling_gap_reference(spec, mf, Ns, grid=grid, **kw)
    assert_rows_close(res.rows + [res.summary], ref.rows + [ref.summary],
                      rtol=1e-11)


def solved(spec):
    """The spec's mean field, or no example: a random spec may break the
    aggregate stability margin, and its solve then raises."""
    try:
        return solve_consistency(spec)
    except ConsistencyError:
        assume(False)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(spec=random_specs(coupling=st.sampled_from([0.1, 0.3])),
       Ns=st.lists(st.integers(1, 30), min_size=1, max_size=3),
       steps=st.integers(2, 40), seed=st.integers(0, 2**32 - 1))
def test_coupling_gap_matches_reference_on_random_specs(spec, Ns, steps, seed):
    mf = solved(spec)
    grid = TimeGrid(0.0, 2.0, steps)
    kw = dict(reps=2, seed=seed, grid=grid)
    with on_packs():
        res = coupling_gap_experiment(spec, mf, Ns, **kw)
    ref = coupling_gap_reference(spec, mf, Ns, **kw)
    assert [(row["N"], row["rep"]) for row in res.rows] == \
        [(row["N"], row["rep"]) for row in ref.rows]
    np.testing.assert_allclose([row["value"] for row in res.rows],
                               [row["value"] for row in ref.rows], rtol=1e-11, atol=0)
    # a standard error of two near-equal values cancels: relative to the mean
    np.testing.assert_allclose(res.summary["gap_std_errs"], ref.summary["gap_std_errs"],
                               rtol=0, atol=1e-11 * max(ref.summary["gap_means"]))


def coupling_gap_oracle(spec, mf, grid, N, ck):
    """The exact expectation of the coupling gap at node ``ck`` under the
    kernel's Euler scheme, with no draws: the mean and covariance of
    z = (finite type sums, limiting type sums), of dimension 2Kn, stepped
    by the kernel's step on its own tables.  Both halves start from the
    same sums, mean c_k x0_mean and covariance c_k Sigma0, and take the
    same increments, covariance dt c_k D D^T.  With d_k the difference of
    the type means, E[gap] = sum_k (N_k / N) (|E d_k|^2 + tr Cov d_k)."""
    K, n, dt = spec.K, spec.n, grid.dt
    c = np.array(exact_counts(spec.pi, N), dtype=float)
    ts = grid.times()
    xbar = mf.xbar.interp(ts)
    pols = [tabulate_policy(spec, k, mf.Pi[k].Pi, grid, mf.s[k].interp(ts), xbar)
            for k in range(K)]
    field = simulator._limiting_field(spec, mf, ts)              # (nodes, K, n)

    def at(half, k):                    # type k's block of the finite / limiting half
        return slice((half * K + k) * n, (half * K + k + 1) * n)

    M = np.zeros((2 * K * n, 2 * K * n))
    noise, cov = np.zeros_like(M), np.zeros_like(M)
    mean = np.zeros(2 * K * n)
    for k, p in enumerate(spec.subpops):
        closed = np.eye(n) + dt * (p.A - p.B @ pols[k].gain)
        for h in (0, 1):
            M[at(h, k), at(h, k)] = closed
            mean[at(h, k)] = c[k] * spec.x0_mean
            for g in (0, 1):
                noise[at(h, k), at(g, k)] = dt * c[k] * p.D @ p.D.T
                cov[at(h, k), at(g, k)] = c[k] * spec.x0_cov
        # the finite field F_k xa + H_k ma, with xa = sum_j S_j / N and
        # ma = sum_j (c_j offset_j - G_j S_j) / N
        for j in range(K):
            M[at(0, k), at(0, j)] += dt * c[k] / N * (p.F - p.H @ pols[j].gain)
    for i in range(ck):
        ma = sum(c[j] * pols[j].offset[i] for j in range(K)) / N
        shift = np.zeros_like(mean)
        for k, p in enumerate(spec.subpops):
            own = p.B @ pols[k].offset[i] + p.b(ts[i:i + 1])[0]
            shift[at(0, k)] = dt * c[k] * (own + p.H @ ma)
            shift[at(1, k)] = dt * c[k] * (own + field[i, k])
        mean = M @ mean + shift
        cov = M @ cov @ M.T + noise
    gap = 0.0
    for k in np.flatnonzero(c):
        d = np.zeros((n, 2 * K * n))
        d[:, at(0, k)], d[:, at(1, k)] = np.eye(n) / c[k], -np.eye(n) / c[k]
        gap += c[k] / N * (np.sum((d @ mean) ** 2) + np.trace(d @ cov @ d.T))
    return gap


def scaled_by_c(spec, grid, counts, reps, seed, tag_type=None):
    """The drawn sums scaled by c, not sqrt(c): a wrong law for the gate
    below to reject."""
    sums, K = DRAW_SUMS(spec, grid, counts, reps, seed, tag_type), len(counts)
    root = np.sqrt(np.asarray(counts, dtype=float))[:, None]
    sums.x0_z[..., :K, :] *= root
    sums.dW[..., :K, :] *= root
    return sums


@pytest.mark.parametrize("game", ["coupled", "two_type"])
def test_coupling_gap_matches_exact_expectation(request, game):
    # the evidence that the drawn sums have the law of the packs' sums: on
    # either stream the Monte Carlo mean lies within 4 SE of the exact
    # expectation of the scheme it samples, and sums of the wrong scale fail
    spec, mf = request.getfixturevalue(game)
    grid, Ns = TimeGrid(0.0, 2.0, 200), [16, 64, 256, 1024]
    exact = np.array([coupling_gap_oracle(spec, mf, grid, N, 100) for N in Ns])

    def z_scores():
        res = coupling_gap_experiment(spec, mf, Ns, reps=400, seed=12, grid=grid)
        return (np.array(res.summary["gap_means"]) - exact) / res.summary["gap_std_errs"]

    assert np.all(np.abs(z_scores()) <= 4.0), "drawn sums"
    with on_packs():
        assert np.all(np.abs(z_scores()) <= 4.0), "sums of full packs"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "_draw_sums", scaled_by_c)
        assert np.max(np.abs(z_scores())) > 4.0, "sums scaled by c"


def test_draw_sums_are_scaled_stream_normals():
    # n = m = 2 and r = 1 over two types: each part of a repetition's
    # stream, in order, lands in its own array
    rng = np.random.default_rng(3)
    spec = PopulationSpec(subpops=tuple(random_subpop(rng, 2, 2, 0.3) for _ in range(2)),
                          pi=[0.6, 0.4], rho=0.5, x0_mean=[0.5, -0.3],
                          x0_cov=0.1 * np.eye(2))
    K, n, m, r = spec.K, spec.n, spec.m, spec.subpops[0].r
    grid, counts, reps, seed = TimeGrid(0.0, 1.0, 7), (4, 1), 3, 21
    steps, nodes, N = grid.steps, grid.steps + 1, sum(counts)
    for tag_type in (None, 0, 1):
        C = int(tag_type is not None)
        c = np.array(counts, dtype=float)
        c[tag_type or 0] -= C
        sums = simulator._draw_sums(spec, grid, counts, reps, seed, tag_type)
        for rep in range(reps):
            z = rng_stream(seed, simulator._SUMS_KEY, N, rep).standard_normal(
                K * n + steps * K * r + C * (n + nodes * m + steps * r))
            x0, z = z[:K * n].reshape(K, n), z[K * n:]
            dW, z = z[:steps * K * r].reshape(steps, K, r), z[steps * K * r:]
            # one pack: the K per-type sums, then the tagged row, time-major
            np.testing.assert_array_equal(sums.x0_z[rep, :K], np.sqrt(c)[:, None] * x0)
            np.testing.assert_array_equal(sums.dW[:, rep, :K], np.sqrt(c)[:, None] * dW)
            np.testing.assert_array_equal(sums.x0_z[rep, K:], z[:C * n].reshape(C, n))
            np.testing.assert_array_equal(
                sums.action_z[:, rep],
                z[C * n:C * (n + nodes * m)].reshape(C, nodes, m).transpose(1, 0, 2))
            np.testing.assert_array_equal(
                sums.dW[:, rep, K:],
                z[C * (n + nodes * m):].reshape(C, steps, r).transpose(1, 0, 2))
            # the noise pack of the same (seed, rep) is another stream
            pack = draw_noise(seed, N, steps, n, m, r, rep=rep)
            assert not np.intersect1d(np.concatenate([x0.ravel(), dW.ravel()]),
                                      np.concatenate([pack.x0_z.ravel(), pack.dW.ravel()])).size
        again = simulator._draw_sums(spec, grid, counts, reps, seed, tag_type)
        for f in ("x0_z", "action_z", "dW"):
            assert np.array_equal(getattr(sums, f), getattr(again, f))
    # another N, or another repetition, is another draw, not a rescaled one
    unit = [simulator._draw_sums(spec, grid, cnt, reps, seed).x0_z / np.sqrt(cnt)[:, None]
            for cnt in ((4, 1), (5, 1))]
    assert not np.any(np.isclose(unit[0], unit[1], rtol=1e-9, atol=0))
    assert not np.any(np.isclose(unit[0][0], unit[0][1], rtol=1e-9, atol=0))


def test_coupling_gap_draw_does_not_depend_on_checkpoint(coupled):
    # the run stops at the midpoint node, but the sums it reads are those
    # drawn over the whole grid
    spec, mf = coupled
    drawn = []

    def spy(*args, **kw):
        drawn.append(DRAW_SUMS(*args, **kw))
        return drawn[-1]

    grid = TimeGrid(0.0, 2.0, 50)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "_draw_sums", spy)
        coupling_gap_experiment(spec, mf, [9], reps=3, seed=8, grid=grid)
    whole = DRAW_SUMS(spec, grid, exact_counts(spec.pi, 9), 3, 8)
    (sums,) = drawn
    assert len(sums.dW) == grid.steps
    assert np.array_equal(sums.x0_z, whole.x0_z)
    assert np.array_equal(sums.dW, whole.dW)


@pytest.mark.parametrize("kw, match", [
    (dict(reps=0), "reps must be at least 1"),
    (dict(Ns=[8, 0]), "every N must be at least 1"),
    (dict(grid=TimeGrid(0.0, 1e6, 10)), "past the solved horizon"),
])
def test_experiments_name_a_bad_argument(coupled, kw, match):
    spec, mf = coupled
    args = dict(Ns=[8], reps=2, seed=0, grid=TimeGrid(0.0, 1.0, 10))
    args.update(kw)
    with pytest.raises(ValueError, match=match):
        coupling_gap_experiment(spec, mf, **args)
    Ns = args.pop("Ns")
    with pytest.raises(ValueError, match=match):
        cost_gap_experiment(spec, mf, Ns, **args)
    with pytest.raises(ValueError, match=match):
        nash_deviation_experiment(spec, mf, min(Ns), [PolicyDeviation()], **args)
    if "Ns" not in kw:
        with pytest.raises(ValueError, match=match):
            coe_experiment(spec, mf, 0, **args)


def tagged_cost_reference(spec, mf, grid, counts, seed, reps, dev, k=0, exogenous=False):
    """The first agent of type k playing ``dev`` (None: the equilibrium) in
    each repetition's full N-agent simulation, or alone on its limiting path
    with ``exogenous``, its 'exploratory-regularized' cost computed
    directly.  The reference for the superposition kernel's tagged costs."""
    N = sum(counts)
    row = sum(counts[:k])
    vals = np.empty(reps)
    for rep in range(reps):
        pack = draw_noise(seed, N, grid.steps, spec.n, spec.m,
                          spec.subpops[0].r, rep=rep)
        if exogenous:
            devs = None if dev is None else {0: dev}
            batch = simulate_representative(spec, mf, grid, seed, k=k, n_paths=1,
                                            noise=rows(pack, [row]), deviations=devs)
        else:
            devs = None if dev is None else {row: dev}
            cfg = SimConfig(N=N, counts=tuple(counts), grid=grid, seed=seed)
            batch = simulate_population(spec, mf, cfg, noise=pack, deviations=devs)
        # the tagged agent is the first path of type k
        vals[rep] = empirical_cost(batch, spec, k, "exploratory-regularized",
                                   spec.rho).per_agent[0]
    return vals


@settings(max_examples=10, deadline=None, derandomize=True)
@given(spec=random_specs(coupling=st.sampled_from([0.1, 0.3])),
       steps=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       counts=st.lists(st.integers(0, 4), min_size=3, max_size=3))
def test_tagged_costs_match_direct_simulation(spec, steps, seed, counts):
    mf = solved(spec)
    grid = TimeGrid(0.0, 1.5, steps)
    rng = np.random.default_rng(seed)
    members = [None, PolicyDeviation(mean_shift=rng.normal(size=spec.m)),
               PolicyDeviation(cov_scale=float(rng.uniform(0.3, 2.0))),
               PolicyDeviation(mean_shift=rng.normal(size=spec.m),
                               cov_scale=float(rng.uniform(0.3, 2.0)))]
    reps = 3
    for k in range(spec.K):                       # a tagged agent of each type
        cnt = counts[:spec.K]
        cnt[k] = max(cnt[k], 1)
        sums = pack_sums(spec, grid, cnt, reps, seed, tag_type=k)
        for exogenous in (False, True):
            got = simulator._tagged_costs(
                spec, mf, grid, cnt, sums, [dev or PolicyDeviation() for dev in members],
                tag_type=k, exogenous_field=exogenous)
            ref = np.array([tagged_cost_reference(spec, mf, grid, cnt, seed, reps,
                                                  dev, k, exogenous)
                            for dev in members])
            np.testing.assert_allclose(got, ref, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(ref)),
                                       err_msg=f"type {k} exogenous={exogenous}")
        # the equilibrium and a zero deviation are one member, to the bit
        same = simulator._tagged_costs(spec, mf, grid, cnt, sums,
                                       [PolicyDeviation()] * 2, tag_type=k)
        assert np.array_equal(same[0], same[1])


def test_cost_gap_matches_direct_simulation(two_type):
    spec, mf = two_type
    grid = TimeGrid(0.0, 2.0, 200)
    dev = PolicyDeviation(mean_shift=[0.5])          # the experiment's deviation
    with on_packs():
        res = cost_gap_experiment(spec, mf, [5, 12], reps=4, seed=5, grid=grid)
    for N, row in zip([5, 12], [r for r in res.rows if r["rep"] == -1]):
        counts = exact_counts(spec.pi, N)
        diffs = (tagged_cost_reference(spec, mf, grid, counts, 5, 4, dev)
                 - tagged_cost_reference(spec, mf, grid, counts, 5, 4, dev, exogenous=True))
        got = [r["value"] for r in res.rows if r["N"] == N and r["rep"] >= 0]
        np.testing.assert_allclose(got, diffs, rtol=1e-12, atol=0)
        assert row["value"] == pytest.approx(abs(diffs.mean()), rel=1e-11, abs=0)


def empirical_cost_reference(batch, spec, k, mode, rho):
    """All agents of type k at once with 3-operand einsums over (agents,
    nodes, .) gathers.  The reference for ``empirical_cost``'s blocked
    kernel."""
    p = spec.subpops[k]
    agents = np.flatnonzero(batch.types == k)
    grid = batch.grid
    ts = grid.times()
    psib = spec.psibar(k) if batch.infinite else p.psi
    y = batch.xref @ psib.T
    E = batch.states[agents] - y[None, :, :]
    MU = batch.means[agents]
    lam_rinv = p.lambda_explore * np.linalg.inv(p.R)
    quad_e = 0.5 * np.einsum("ati,ij,atj->at", E, p.Q, E)
    lin_e = E @ p.eta
    if mode == "classical":
        U = batch.actions[agents]
        running = (quad_e + lin_e + 0.5 * np.einsum("ati,ij,atj->at", U, p.R, U)
                   + np.einsum("ati,ij,atj->at", E, p.S, U) + U @ p.nvec)
    else:
        scales = batch.cov_scales[agents]
        trace_term = 0.5 * np.trace(p.R @ lam_rinv) * scales
        running = (quad_e + lin_e + 0.5 * np.einsum("ati,ij,atj->at", MU, p.R, MU)
                   + np.einsum("ati,ij,atj->at", E, p.S, MU) + MU @ p.nvec
                   + trace_term[:, None])
        if mode == "exploratory-regularized":
            ent = np.array([simulator._entropy_for(p, s) for s in scales])
            running = running - ent[:, None]
    disc = np.exp(-rho * ts)
    w = np.full(ts.shape, grid.dt)
    w[0] *= 0.5
    w[-1] *= 0.5
    per_agent = running @ (disc * w)
    late = running[:, -(grid.steps // 4 + 1):]
    bound = 1.5 * float(np.max(np.abs(late))) * math.exp(-rho * grid.t1) / rho
    return SimpleNamespace(per_agent=per_agent, mean=float(per_agent.mean()),
                           std_err=float(per_agent.std(ddof=1)
                                         / math.sqrt(per_agent.size)),
                           truncation_bound=bound)


def _random_batch(rng, spec, N, steps, infinite):
    """A batch of random time-major paths: the cost reads only these arrays,
    not how they were simulated."""
    n, m, K = spec.n, spec.m, spec.K
    nodes = steps + 1
    grid = TimeGrid(0.0, rng.uniform(0.5, 3.0), steps)
    types = np.sort(rng.integers(0, K, N))

    def tm(d):
        return rng.standard_normal((nodes, N, d)).transpose(1, 0, 2)

    xref = rng.standard_normal((nodes, n * K if infinite else n))
    return simulator.SimulationBatch(
        grid=grid, types=types, states=tm(n), actions=tm(m), means=tm(m),
        x_avg=np.zeros((nodes, n)), mu_avg=np.zeros((nodes, m)), xref=xref,
        infinite=infinite, cov_scales=rng.uniform(0.2, 3.0, N))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(spec=random_specs(), steps=st.integers(1, 12),
       extra=st.integers(1, 300), infinite=st.booleans(),
       one_type=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_empirical_cost_matches_einsum_reference(spec, steps, extra, infinite,
                                                 one_type, seed):
    rng = np.random.default_rng(seed)
    block = simulator._COST_BLOCK
    batch = _random_batch(rng, spec, block + extra, steps, infinite)
    k = int(rng.integers(0, spec.K))
    # the agents of type k among the others, or every path type k (also
    # when too few paths are), so that a block boundary is crossed
    if one_type or np.sum(batch.types == k) < 2:
        batch.types[:] = k
    for mode in ("classical", "exploratory", "exploratory-regularized"):
        got = empirical_cost(batch, spec, k, mode, spec.rho)
        ref = empirical_cost_reference(batch, spec, k, mode, spec.rho)
        scale = np.max(np.abs(ref.per_agent))
        np.testing.assert_allclose(got.per_agent, ref.per_agent, rtol=0,
                                   atol=1e-12 * scale)
        for key in ("mean", "std_err", "truncation_bound"):
            assert getattr(got, key) == pytest.approx(
                getattr(ref, key), rel=1e-12, abs=1e-12 * scale), (mode, key)


def test_empirical_cost_memory_stays_below_the_paths(planar):
    import tracemalloc
    spec, _mf = planar
    batch = _random_batch(np.random.default_rng(3), spec, 2000, 400, False)
    assert batch.states.shape == (2000, 401, 2)
    paths = batch.states.nbytes
    tracemalloc.start()
    try:
        empirical_cost(batch, spec, 0, "exploratory-regularized", spec.rho)
        _now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < paths


def test_empirical_cost_rounds_equal_paths_alike(planar):
    # one path tiled across a block boundary, into a last block of odd
    # width or of one path past the full blocks: the discount sum must not
    # round a path by its position, nor cost one alone
    spec, _mf = planar
    one = _random_batch(np.random.default_rng(5), spec, 1, 400, False)
    block = simulator._COST_BLOCK
    for N in (block + 45, block + 1, 2 * block + 1):
        batch = dataclasses.replace(
            one, types=np.zeros(N, dtype=int),
            **{name: np.repeat(getattr(one, name), N, axis=0)
               for name in ("states", "actions", "means", "cov_scales")})
        for mode in ("classical", "exploratory", "exploratory-regularized"):
            costs = empirical_cost(batch, spec, 0, mode, spec.rho).per_agent
            assert np.all(costs == costs[0]), (N, mode)


def test_threaded_cost_matches_serial_costing():
    # the blocks run on the caller (even) and one worker (odd), with the
    # interpreter switching threads every 10 us; every entry and the
    # truncation bound must be those of one serial ``_path_costs`` call on
    # all of a type's agents
    rng = np.random.default_rng(21)
    spec, _mf, _grid = _random_game(rng, 2, 2, 2, 1, 1)
    block = simulator._COST_BLOCK
    batch = _random_batch(rng, spec, 5 * block + 45, 60, False)
    batch.types = np.repeat([0, 1], [3 * block + 10, 2 * block + 35])
    grid, tail = batch.grid, batch.grid.steps // 4 + 1
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for mode, k in itertools.product(
                ("classical", "exploratory", "exploratory-regularized"), range(spec.K)):
            p, of_k = spec.subpops[k], np.flatnonzero(batch.types == k)
            x, u = (np.take(a.transpose(1, 0, 2), of_k, axis=1)
                    for a in (batch.states, batch.actions if mode == "classical"
                              else batch.means))
            y = (batch.xref @ p.psi.T)[:, None, :]
            rates = simulator._cost_rates(p, mode, batch.cov_scales[of_k])
            serial, running = simulator._path_costs(p, grid, spec.rho, x, y, u, rates)
            got = empirical_cost(batch, spec, k, mode, spec.rho)
            assert np.array_equal(got.per_agent, serial), (mode, k)
            assert got.truncation_bound == (1.5 * np.max(np.abs(running[-tail:]))
                                            * math.exp(-spec.rho * grid.t1) / spec.rho)
    finally:
        sys.setswitchinterval(interval)


def test_empirical_cost_rejects_no_paths(two_type):
    spec, mf = two_type
    batch = simulate_population(spec, mf, SimConfig(N=3, counts=(3, 0), grid=GRID, seed=0))
    with pytest.raises(ValueError, match="no paths of type 1"):
        empirical_cost(batch, spec, 1, "exploratory", spec.rho)


def test_types_checked_against_K(two_type):
    spec, mf = two_type
    with pytest.raises(ValueError, match=r"counts \(3,\)"):
        simulate_population(spec, mf, SimConfig(N=3, counts=(3,), grid=GRID, seed=0))
    with pytest.raises(ValueError, match="type k=5"):
        simulate_representative(spec, mf, GRID, 0, k=5)
    with pytest.raises(ValueError, match="types outside"):
        simulate_representative(spec, mf, GRID, 0, types=[0, 2])
