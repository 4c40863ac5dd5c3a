import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqgmfg.model import validate_spec
from lqgmfg.numerics import TimeGrid, rng_stream
from lqgmfg.policy import GaussianPolicy
from lqgmfg.trading import (EstimationError, MarketParams, MarketPaths, TradingDataset,
                            TradingLoopConfig, estimate_params,
                            params_from_json, params_to_json, rl_loop,
                            simulate_market, solve_finite_horizon, to_lqg,
                            trading_policy)

TRUE = MarketParams(sigma=0.1, lambda_perm=0.05, a_temp=0.05, phi_urgency=0.1,
                    psi_terminal=1.0, T=1.0, F0=10.0, q0=5.0)


@pytest.fixture(scope="module")
def planned():
    mapping = to_lqg(TRUE, lambda_explore=0.1)
    fh = solve_finite_horizon(mapping, steps=200)
    return mapping, fh, trading_policy(mapping, fh)


def constant_policy(grid, rate):
    nodes = grid.steps + 1
    return GaussianPolicy(grid=grid, gain=np.zeros((nodes, 1, 2)),
                          offset=np.full((nodes, 1), rate), covariance=np.zeros((1, 1)))


def simulate_market_reference(params, policy, N, grid, seed, rep=0):
    """The market simulator's earlier loop, every array written at every
    step; ``simulate_market`` must reproduce it bit for bit."""
    steps, dt = grid.steps, grid.dt
    sqdt = math.sqrt(dt)
    nodes = steps + 1
    noise = rng_stream(seed, rep).standard_normal((N + 1, steps))
    xi, z = noise[0], noise[1:]
    L = math.sqrt(max(policy.covariance[0, 0], 0.0))
    F = np.empty(nodes)
    q = np.empty((N, nodes))
    nu = np.empty((N, steps))
    S = np.empty((N, nodes))
    Z = np.zeros((N, nodes))
    cumvol = np.zeros((N, nodes))
    F[0] = params.F0
    q[:, 0] = params.q0
    for i in range(steps):
        x = np.stack([q[:, i], np.full(N, F[i] - params.F0)], axis=1)
        mu = (-(x @ policy.gain[i].T) + policy.offset[i][None, :])[:, 0]
        nu[:, i] = mu + L * z[:, i]
        S[:, i] = F[i] + params.a_temp * cumvol[:, i]
        Z[:, i + 1] = Z[:, i] - S[:, i] * nu[:, i] * dt
        q[:, i + 1] = q[:, i] + nu[:, i] * dt
        cumvol[:, i + 1] = cumvol[:, i] + nu[:, i] * dt
        F[i + 1] = F[i] + params.lambda_perm * nu[:, i].mean() * dt + params.sigma * sqdt * xi[i]
        if not (np.all(np.isfinite(q[:, i + 1])) and np.isfinite(F[i + 1])):
            raise RuntimeError(f"non-finite market state at t={grid.times()[i + 1]:.4g}")
    S[:, steps] = F[steps] + params.a_temp * cumvol[:, steps]
    return MarketPaths(grid=grid, F=F, q=q, nu=nu, S=S, Z=Z, cumvol=cumvol)


def _assert_paths_equal(got, ref):
    for name in ("F", "q", "nu", "S", "Z", "cumvol"):
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name


@settings(max_examples=200, deadline=None, derandomize=True)
@given(N=st.integers(1, 9), steps=st.integers(1, 50),
       lam=st.sampled_from([0.0, 0.05, 0.7]), a=st.sampled_from([0.0, 0.02, 0.3]),
       var=st.sampled_from([0.0, 0.1, 2.0]), scale=st.floats(1e-3, 1e3),
       seed=st.integers(0, 2**32 - 1))
def test_simulate_market_matches_reference_bitwise(N, steps, lam, a, var, scale, seed):
    # random gain and offset tables, with and without impacts and exploration
    rng = np.random.default_rng(seed)
    params = MarketParams(sigma=0.1, lambda_perm=lam, a_temp=a, phi_urgency=0.1,
                          psi_terminal=1.0, T=1.0, F0=10.0, q0=float(rng.uniform(-5.0, 5.0)))
    grid = TimeGrid(0.0, 1.0, steps)
    pol = GaussianPolicy(grid=grid, gain=scale * rng.uniform(-1.0, 1.0, (steps + 1, 1, 2)),
                         offset=scale * rng.uniform(-1.0, 1.0, (steps + 1, 1)),
                         covariance=np.full((1, 1), var))
    _assert_paths_equal(simulate_market(params, pol, N, grid, seed, rep=3),
                        simulate_market_reference(params, pol, N, grid, seed, rep=3))


def test_simulate_market_matches_reference_on_planned_policy(planned):
    _mapping, _fh, pol = planned
    grid = TimeGrid(0.0, 1.0, 200)
    for rep in range(3):
        _assert_paths_equal(simulate_market(TRUE, pol, 8, grid, 5, rep),
                            simulate_market_reference(TRUE, pol, 8, grid, 5, rep))


def _blowup_message(run):
    with pytest.raises(RuntimeError, match="non-finite market state") as info:
        run()
    return str(info.value)


@pytest.mark.parametrize("case", ["nan_offset", "inf_offset_zero_gain", "q_overflow",
                                  "feedback_overflow"])
def test_simulate_market_blowup_raises_at_same_node(case):
    # a NaN or inf rate reaches q and, through lambda * mean, F; a q that
    # overflows on finite rates leaves F finite (one trader, no feedback
    # through a zero gain), so only q reveals it; a feedback gain of -1e40
    # grows the state until it overflows
    params = MarketParams(sigma=0.1, lambda_perm=0.05, a_temp=0.02, phi_urgency=0.1,
                          psi_terminal=1.0, T=40.0, F0=10.0, q0=5.0)
    grid = TimeGrid(0.0, 40.0, 40)
    gain = np.zeros((41, 1, 2))
    offset = np.full((41, 1), -1.0)
    N, node = 3, None
    if case == "nan_offset":
        gain[:, 0, 0] = 0.5
        offset[17], node = np.nan, 18
    elif case == "inf_offset_zero_gain":
        offset[23], node = np.inf, 24
    elif case == "q_overflow":
        offset[:], N, node = 1.7e308, 1, 2
    else:
        gain[:, 0, 0] = -1e40
    pol = GaussianPolicy(grid=grid, gain=gain, offset=offset, covariance=np.zeros((1, 1)))
    with np.errstate(all="ignore"):
        ref = _blowup_message(lambda: simulate_market_reference(params, pol, N, grid, 0))
    assert _blowup_message(lambda: simulate_market(params, pol, N, grid, 0)) == ref
    if node is not None:
        assert ref.endswith(f"t={grid.times()[node]:.4g}")


def test_to_lqg_structure():
    mapping = to_lqg(TRUE)
    sub = mapping.population.subpops[0]
    assert sub.n == 2 and sub.m == 1 and mapping.population.K == 1
    assert np.allclose(sub.H.ravel(), [0.0, TRUE.lambda_perm])
    assert sub.R[0, 0] == pytest.approx(2 * TRUE.a_temp)
    assert sub.Q[0, 0] == pytest.approx(TRUE.phi_urgency)
    assert mapping.population.rho == 0.0
    assert np.allclose(mapping.terminal_weight, [[2.0, -1.0], [-1.0, 0.0]])
    assert np.allclose(mapping.terminal_offset, [-10.0, 0.0])
    assert mapping.T == TRUE.T


def test_finite_horizon_waives_only_discount_and_state_convexity():
    # the trading spec has rho = 0 and Q - S R^-1 S^T indefinite, both
    # waived by aspect, and solves; R <= 0 stays a hard error
    mapping = to_lqg(TRUE, lambda_explore=0.1)
    report = validate_spec(mapping.population)
    assert {a for a, _ in report.violations} == {"discount", "state-convexity"}
    assert np.all(np.isfinite(solve_finite_horizon(mapping, steps=50).xbar.values))
    no_impact = to_lqg(dataclasses.replace(TRUE, a_temp=0.0))          # R = 2 a = 0
    sub = dataclasses.replace(mapping.population.subpops[0], R=-np.eye(1))
    negative = dataclasses.replace(mapping, population=dataclasses.replace(
        mapping.population, subpops=(sub,)))
    for bad in (no_impact, negative):
        with pytest.raises(ValueError, match="R not positive definite"):
            solve_finite_horizon(bad, steps=50)


def test_to_lqg_zero_impacts():
    mapping = to_lqg(MarketParams(sigma=0.1, lambda_perm=0.0, a_temp=0.0,
                                  phi_urgency=0.1, psi_terminal=1.0, T=1.0,
                                  F0=10.0, q0=5.0))
    assert np.allclose(mapping.population.subpops[0].H, 0.0)


def test_book_value_cross_term_propagates(planned):
    # the -q F terminal coupling rides through the Riccati flow unchanged
    _mapping, fh, _pol = planned
    assert np.max(np.abs(fh.Pi[0].values[:, 0, 1] + 1.0)) < 1e-9
    assert np.max(np.abs(fh.Pi[0].values[:, 1, 1])) < 1e-9


def test_large_terminal_penalty_liquidates():
    big = MarketParams(sigma=0.1, lambda_perm=0.01, a_temp=0.05,
                       phi_urgency=0.0, psi_terminal=50.0, T=1.0,
                       F0=10.0, q0=5.0)
    fh = solve_finite_horizon(to_lqg(big), steps=200)
    assert abs(fh.xbar.values[-1][0]) < 0.01 * big.q0


def test_simulate_idle_market():
    params = MarketParams(sigma=1e-12, lambda_perm=0.0, a_temp=0.0,
                          phi_urgency=0.1, psi_terminal=1.0, T=1.0,
                          F0=10.0, q0=5.0)
    grid = TimeGrid(0.0, 1.0, 100)
    paths = simulate_market(params, constant_policy(grid, 0.0), 4, grid, 0)
    assert np.max(np.abs(paths.F - 10.0)) < 1e-9
    assert np.max(np.abs(paths.Z)) < 1e-9


def test_simulate_constant_rate_drift():
    params = MarketParams(sigma=1e-12, lambda_perm=0.05, a_temp=0.02,
                          phi_urgency=0.0, psi_terminal=0.0, T=1.0,
                          F0=10.0, q0=5.0)
    grid = TimeGrid(0.0, 1.0, 200)
    c = -2.0
    paths = simulate_market(params, constant_policy(grid, c), 1, grid, 0)
    ts = grid.times()
    assert np.max(np.abs(paths.F - (10.0 + 0.05 * c * ts))) < 1e-9
    assert paths.q[0, -1] == pytest.approx(5.0 + c, abs=1e-12)


def test_market_noise_streams():
    # a constant rate with unit exploration variance: nu = -1 + trader noise;
    # no permanent impact, so F moves with the midprice noise only
    params = MarketParams(sigma=0.1, lambda_perm=0.0, a_temp=0.02,
                          phi_urgency=0.0, psi_terminal=0.0, T=1.0,
                          F0=10.0, q0=5.0)
    grid = TimeGrid(0.0, 1.0, 100)
    pol = GaussianPolicy(grid=grid, gain=np.zeros((grid.steps + 1, 1, 2)),
                         offset=np.full((grid.steps + 1, 1), -1.0),
                         covariance=np.eye(1))
    two = simulate_market(params, pol, 2, grid, 0)
    three = simulate_market(params, pol, 3, grid, 0)
    # neither trader i's noise nor the midprice noise depends on N
    assert np.array_equal(two.nu, three.nu[:2])
    assert np.array_equal(two.F, three.F)
    for other in (simulate_market(params, pol, 2, grid, 1),
                  simulate_market(params, pol, 2, grid, 0, rep=1)):
        assert not np.isin(other.nu, two.nu).any()
        assert not np.isin(other.F[1:], two.F[1:]).any()


def test_wealth_accounting_identity(planned):
    _mapping, _fh, pol = planned
    grid = TimeGrid(0.0, 1.0, 200)
    paths = simulate_market(TRUE, pol, 6, grid, 21)
    dt = grid.dt
    dF = np.diff(paths.F)
    lhs = paths.Z[:, -1] + paths.q[:, -1] * paths.F[-1] - paths.q[:, 0] * paths.F[0]
    gains = paths.q[:, :-1] @ dF
    impact = TRUE.a_temp * np.sum(paths.cumvol[:, :-1] * paths.nu * dt, axis=1)
    cross = np.sum(paths.nu * dt * dF[None, :], axis=1)
    assert np.allclose(lhs, gains - impact + cross, atol=1e-10)


def test_estimator_noise_free_exact(planned):
    _mapping, _fh, pol = planned
    params0 = MarketParams(sigma=1e-12, lambda_perm=0.05, a_temp=0.05,
                           phi_urgency=0.1, psi_terminal=1.0, T=1.0,
                           F0=10.0, q0=5.0)
    grid = TimeGrid(0.0, 1.0, 200)
    ds = TradingDataset()
    ds.append(simulate_market(params0, pol, 4, grid, 3))
    est = estimate_params(ds)
    assert abs(est.lambda_hat - 0.05) < 1e-10
    assert abs(est.a_hat - 0.05) < 1e-10
    assert est.sigma_hat < 1e-9


def test_estimator_consistency_with_noise(planned):
    _mapping, _fh, pol = planned
    grid = TimeGrid(0.0, 1.0, 200)
    ds = TradingDataset()
    for ep in range(50):
        ds.append(simulate_market(TRUE, pol, 8, grid, 1000 + ep))
    assert ds.n_rows == 50 * 200
    est = estimate_params(ds)
    assert abs(est.lambda_hat - TRUE.lambda_perm) < 3 * est.se_lambda
    assert abs(est.sigma_hat - TRUE.sigma) < 0.05 * TRUE.sigma
    assert abs(est.a_hat - TRUE.a_temp) < max(3 * est.se_a, 1e-10)


def test_estimator_scale_consistency():
    # noise-free synthetic rows: scaling all rates leaves lambda-hat unchanged
    lam = 0.07
    nubar = np.array([-3.0, -2.0, -1.5, -1.0, -0.5])
    dt = 0.01
    for c in (1.0, 2.5):
        ds = TradingDataset(dF=lam * c * nubar * dt, nubar_dt=c * nubar * dt,
                            dt_rows=np.full(5, dt),
                            concession=0.02 * c * np.ones(5),
                            cumvol=c * np.ones(5))
        est = estimate_params(ds)
        assert est.lambda_hat == pytest.approx(lam, abs=1e-14)


def test_estimator_idle_unidentifiable():
    params = MarketParams(sigma=0.1, lambda_perm=0.05, a_temp=0.05,
                          phi_urgency=0.1, psi_terminal=1.0, T=1.0,
                          F0=10.0, q0=5.0)
    grid = TimeGrid(0.0, 1.0, 50)
    ds = TradingDataset()
    ds.append(simulate_market(params, constant_policy(grid, 0.0), 4, grid, 0))
    with pytest.raises(EstimationError, match="unidentifiable"):
        estimate_params(ds)


def test_midprice_martingale_without_impacts():
    params = MarketParams(sigma=0.2, lambda_perm=0.0, a_temp=0.0,
                          phi_urgency=0.1, psi_terminal=1.0, T=1.0,
                          F0=10.0, q0=5.0)
    grid = TimeGrid(0.0, 1.0, 100)
    drifts = []
    for rep in range(128):
        paths = simulate_market(params, constant_policy(grid, -1.0), 2, grid, rep)
        drifts.append(paths.F[-1] - paths.F[0])
    drifts = np.asarray(drifts)
    se = drifts.std(ddof=1) / math.sqrt(drifts.size)
    assert abs(drifts.mean()) < 4 * se


def test_rl_loop_fixed_point_at_truth():
    cfg = TradingLoopConfig(iterations=3, inner_repeats=6, n_traders=8,
                            steps=200, lambda_explore=0.1, seed=9)
    trace = rl_loop(TRUE, TRUE, cfg)
    rows = trace.rows
    assert len(rows) == 4
    gains = [r["gain_q0"] for r in rows]
    assert all(abs(g - gains[0]) / abs(gains[0]) < 0.01 for g in gains[1:])
    for r in rows[1:]:
        assert abs(r["lambda_hat"] - TRUE.lambda_perm) < 3 * r["se_lambda"]


def test_rl_loop_learns_from_wrong_init():
    init = MarketParams(sigma=0.2, lambda_perm=0.0, a_temp=0.02,
                        phi_urgency=0.1, psi_terminal=1.0, T=1.0,
                        F0=10.0, q0=5.0)
    cfg = TradingLoopConfig(iterations=5, inner_repeats=5, n_traders=8,
                            steps=200, lambda_explore=0.1, seed=1)
    trace = rl_loop(TRUE, init, cfg)
    rows = trace.rows
    assert [r["n_rows"] for r in rows] == [1000 * (i + 1) for i in range(6)]
    last = rows[-1]
    assert abs(last["lambda_hat"] - TRUE.lambda_perm) <= 3 * last["se_lambda"]
    assert abs(last["a_hat"] - TRUE.a_temp) <= max(3 * last["se_a"], 1e-8)
    assert abs(last["sigma_hat"] - TRUE.sigma) < 0.1 * TRUE.sigma


def test_rl_loop_flags_unidentifiable():
    # zero initial inventory, no exploration: nobody trades, the permanent
    # impact regressor is degenerate
    idle_true = MarketParams(sigma=0.1, lambda_perm=0.05, a_temp=0.05,
                             phi_urgency=0.1, psi_terminal=1.0, T=1.0,
                             F0=10.0, q0=0.0)
    cfg = TradingLoopConfig(iterations=2, inner_repeats=2, n_traders=4,
                            steps=100, lambda_explore=0.0, seed=0)
    trace = rl_loop(idle_true, idle_true, cfg)
    assert any(r.get("identifiable") is False for r in trace.rows)


def test_trace_csv(tmp_path):
    cfg = TradingLoopConfig(iterations=1, inner_repeats=2, n_traders=4,
                            steps=100, lambda_explore=0.1, seed=3)
    trace = rl_loop(TRUE, TRUE, cfg)
    out = tmp_path / "trace.csv"
    trace.write_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("iteration,sigma_hat,lambda_hat")
    assert len(lines) == len(trace.rows) + 1


def test_params_json_round_trip():
    doc = params_to_json(TRUE)
    back = params_from_json(doc)
    assert back == TRUE


def test_one_riccati_table_per_distinct_subpop(monkeypatch):
    from lqgmfg import trading
    mapping = to_lqg(TRUE, N_types=2, lambda_explore=0.1)
    sub = mapping.population.subpops[0]
    assert mapping.population.subpops == (sub, sub)
    # the same game with two distinct (equal) objects solves both tables
    distinct = dataclasses.replace(mapping, population=dataclasses.replace(
        mapping.population, subpops=(sub, dataclasses.replace(sub))))
    ref = solve_finite_horizon(distinct, steps=200)

    calls = []
    solve = trading.solve_differential_riccati

    def counting(*args, **kwargs):
        calls.append(args[0])
        return solve(*args, **kwargs)

    monkeypatch.setattr(trading, "solve_differential_riccati", counting)
    fh = solve_finite_horizon(mapping, steps=200)
    assert len(calls) == 1 and calls[0] is sub
    for k in range(2):
        assert np.array_equal(fh.Pi[k].values, ref.Pi[k].values)
        assert np.array_equal(fh.s[k].values, ref.s[k].values)
    assert np.array_equal(fh.xbar.values, ref.xbar.values)
    assert np.array_equal(fh.mubar.values, ref.mubar.values)
