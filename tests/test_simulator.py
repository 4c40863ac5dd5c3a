import math

import numpy as np
import pytest

from lqgmfg import solve_consistency
from lqgmfg.numerics import TimeGrid
from lqgmfg.presets import scalar_decoupled_spec
from lqgmfg.simulator import (PolicyDeviation, SimConfig, coe_experiment,
                              cost_gap_experiment, coupling_gap_experiment,
                              draw_noise, empirical_cost, exact_counts,
                              nash_deviation_experiment, simulate_population,
                              simulate_representative, write_experiment_csv)
from lqgmfg.simulator import _rep_seed

GRID = TimeGrid(0.0, 4.0, 400)


def cfg_for(N, grid=GRID, seed=0, mode="exploratory"):
    return SimConfig(N=N, counts=(N,), grid=grid, seed=seed, mode=mode)


def test_exact_counts():
    assert exact_counts(np.array([1.0]), 7) == (7,)
    assert exact_counts(np.array([0.6, 0.4]), 10) == (6, 4)
    assert exact_counts(np.array([1 / 3, 1 / 3, 1 / 3]), 10) == (4, 3, 3)
    assert sum(exact_counts(np.array([0.55, 0.45]), 17)) == 17


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
    assert np.array_equal(a.dW, b.dW)


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
    batch = simulate_population(spec, mf, SimConfig(N=1, counts=(1,), grid=grid,
                                                    seed=0, mode="classical"))
    est = empirical_cost(batch, spec, 0, "classical", spec.rho, tail_tol=0.01)
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


def test_truncation_bound_covers_tail(decoupled_noisy):
    spec, mf = decoupled_noisy
    grid1 = TimeGrid(0.0, 8.0, 800)
    grid2 = TimeGrid(0.0, 16.0, 1600)
    pack2 = draw_noise(5, 8, grid2.steps, spec.n, spec.m, 1)
    pack1 = type(pack2)(pack2.x0_z, pack2.action_z[:, :grid1.steps + 1],
                        pack2.dW[:, :grid1.steps])
    b1 = simulate_population(spec, mf, cfg_for(8, grid=grid1, seed=5), noise=pack1)
    b2 = simulate_population(spec, mf, cfg_for(8, grid=grid2, seed=5), noise=pack2)
    c1 = empirical_cost(b1, spec, 0, "classical", spec.rho)
    c2 = empirical_cost(b2, spec, 0, "classical", spec.rho)
    omitted = abs(c2.mean - c1.mean)
    assert c1.truncation_bound >= omitted


def test_horizon_too_short_raises(decoupled_noisy):
    spec, mf = decoupled_noisy
    grid = TimeGrid(0.0, 1.0, 100)
    batch = simulate_population(spec, mf, cfg_for(4, grid=grid))
    with pytest.raises(ValueError, match="horizon too short"):
        empirical_cost(batch, spec, 0, "classical", spec.rho, tail_tol=1e-6)


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


def test_coupling_independent_mode_loses_the_rate(coupled):
    spec, mf = coupled
    grid = TimeGrid(0.0, 2.0, 200)
    crn = coupling_gap_experiment(spec, mf, [64, 256], reps=4, seed=5, grid=grid)
    ind = coupling_gap_experiment(spec, mf, [64, 256], reps=4, seed=5, grid=grid,
                                  coupling="independent")
    # without shared noise the gap is dominated by an O(1) variance offset
    assert min(ind.summary["gap_means"]) > 10 * max(crn.summary["gap_means"])


def test_cost_gap_zero_when_uncoupled(decoupled_noisy):
    spec, mf = decoupled_noisy
    res = cost_gap_experiment(spec, mf, [8, 16], reps=3, seed=2,
                              grid=TimeGrid(0.0, 3.0, 300),
                              deviation=PolicyDeviation(mean_shift=[0.4]))
    assert max(res.summary["cost_gaps"]) < 1e-12


def test_nash_family_of_equilibrium_only(coupled):
    spec, mf = coupled
    res = nash_deviation_experiment(spec, mf, N=8, reps=3, seed=3,
                                    deviation_family=[PolicyDeviation()],
                                    grid=TimeGrid(0.0, 2.0, 200))
    assert res.summary["eps_hat"] == 0.0


def test_nash_matches_direct_per_repetition_costs(coupled):
    spec, mf = coupled
    grid = TimeGrid(0.0, 2.0, 200)
    N, reps, seed = 6, 3, 11
    family = [PolicyDeviation(mean_shift=[0.3]), PolicyDeviation(cov_scale=1.5)]
    res = nash_deviation_experiment(spec, mf, N=N, reps=reps, seed=seed,
                                    deviation_family=family, grid=grid)
    cfg = SimConfig(N=N, counts=exact_counts(spec.pi, N), grid=grid, seed=seed)

    def tagged_costs(dev):
        vals = np.empty(reps)
        for rep in range(reps):
            pack = draw_noise(_rep_seed(seed, rep), N, grid.steps, spec.n, spec.m,
                              spec.subpops[0].r)
            fin = simulate_population(spec, mf, cfg, noise=pack,
                                      deviations=None if dev is None else {0: dev})
            vals[rep] = empirical_cost(fin, spec, 0, "exploratory-regularized",
                                       spec.rho, agents=[0]).per_agent[0]
        return vals

    base = tagged_costs(None).mean()
    devs = [tagged_costs(dev) for dev in family]
    eps_hat = max(0.0, base - min(v.mean() for v in devs))
    assert res.summary == {"N": N, "eps_hat": eps_hat, "equilibrium_cost": base,
                           "deviation_costs": [v.mean() for v in devs], "reps": reps}
    assert res.rows == [
        {"experiment": "nash", "N": N, "rep": j, "checkpoint_t": grid.t1,
         "value": v.mean(), "std_err": v.std(ddof=1) / math.sqrt(reps)}
        for j, v in enumerate(devs)] + [
        {"experiment": "nash", "N": N, "rep": -1, "checkpoint_t": grid.t1,
         "value": eps_hat, "std_err": ""}]


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
        single = simulate_representative(spec, mf, grid, 8, noise=pack.subset([i]),
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
