import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqgmfg.numerics import (OdeBlowupError, TimeGrid, Trajectory, rng_stream,
                             cholesky_psd, fit_rate, rk4_linear_tabulated,
                             rk4_linear_time_varying, spectral_abscissa, write_json)
from lqgmfg.policy import GaussianPolicy
from ode_reference import backward, integrate_ode


def run(kernel, M, g_half, y0, grid, direction, n_far=0):
    """The kernel's values from t0, or from t1 in reversed time."""
    if direction == "backward":
        return backward(kernel, M, g_half, y0, grid, n_far)
    return kernel(M, g_half, y0, grid, n_far=n_far).values


def rk4_reference(M_half, g_half, y0, grid, direction="forward"):
    """Plain sequential RK4 loop for dy/dt = M(t) y + g(t), both tabulated on
    the doubled grid."""
    steps = grid.steps
    fwd = direction == "forward"
    h = grid.dt if fwd else -grid.dt
    i = 0 if fwd else steps
    y = np.asarray(y0, dtype=float)
    out = np.empty((steps + 1, y.shape[0]))
    out[i] = y
    for _ in range(steps):
        a, mid, b = (2 * i, 2 * i + 1, 2 * i + 2) if fwd else (2 * i, 2 * i - 1, 2 * i - 2)
        k1 = M_half[a] @ y + g_half[a]
        k2 = M_half[mid] @ (y + (h / 2.0) * k1) + g_half[mid]
        k3 = M_half[mid] @ (y + (h / 2.0) * k2) + g_half[mid]
        k4 = M_half[b] @ (y + h * k3) + g_half[b]
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        i += 1 if fwd else -1
        out[i] = y
    return out


def test_rk4_exponential():
    grid = TimeGrid(0.0, 1.0, 100)
    traj = integrate_ode(lambda t, y: -y, np.array([1.0]), grid)
    assert abs(traj.values[-1, 0] - math.exp(-1.0)) < 1e-8


def test_rk4_constant_and_linear():
    grid = TimeGrid(0.0, 2.0, 50)
    const = integrate_ode(lambda t, y: 0.0 * y, np.array([3.0]), grid)
    assert np.allclose(const.values, 3.0, atol=1e-14)
    lin = integrate_ode(lambda t, y: np.ones(1), np.array([0.0]), grid)
    assert abs(lin.values[-1, 0] - 2.0) < 1e-12


def test_rk4_order_four():
    def err(steps):
        grid = TimeGrid(0.0, 1.0, steps)
        traj = integrate_ode(lambda t, y: -y, np.array([1.0]), grid)
        return abs(traj.values[-1, 0] - math.exp(-1.0))

    ratio = err(50) / err(100)
    assert 12.0 < ratio < 20.0


def test_rk4_backward_matches_forward():
    grid = TimeGrid(0.0, 1.0, 200)
    fwd = integrate_ode(lambda t, y: -y, np.array([1.0]), grid)
    back = integrate_ode(lambda t, y: -y, fwd.values[-1], grid, "backward")
    assert np.allclose(back.values, fwd.values, atol=1e-10)


def test_rk4_blowup_reports_time():
    grid = TimeGrid(0.0, 3.0, 300)
    with pytest.raises(OdeBlowupError):
        integrate_ode(lambda t, y: y * y, np.array([1.0]), grid)


def test_rk4_linear_tabulated_matches_generic():
    grid = TimeGrid(0.0, 2.0, 100)
    M = np.array([[-0.3, 0.1], [0.0, -0.5]])
    ts_half = np.linspace(0.0, 2.0, 2 * grid.steps + 1)
    g_half = np.stack([np.sin(ts_half), np.cos(ts_half)], axis=1)
    tab = rk4_linear_tabulated(M, g_half, np.array([1.0, -1.0]), grid)
    gen = integrate_ode(lambda t, y: M @ y + np.array([math.sin(t), math.cos(t)]),
                        np.array([1.0, -1.0]), grid)
    assert np.allclose(tab.values, gen.values, atol=1e-12)


@settings(max_examples=150, deadline=None)
@given(d=st.integers(1, 4), steps=st.integers(1, 300),
       T=st.floats(0.05, 2.0), scale=st.floats(0.0, 2.0),
       time_varying=st.booleans(), direction=st.sampled_from(["forward", "backward"]),
       seed=st.integers(0, 2**32 - 1))
def test_rk4_linear_kernels_match_sequential_loop(d, steps, T, scale, time_varying,
                                                   direction, seed):
    # random M of either sign (unstable ones included) and arbitrary g on the
    # doubled grid: the scan must reproduce the step-by-step loop
    rng = np.random.default_rng(seed)
    grid = TimeGrid(0.0, T, steps)
    g_half = rng.uniform(-1.0, 1.0, (2 * steps + 1, d))
    y0 = rng.uniform(-1.0, 1.0, d)
    if time_varying:
        M_half = scale * rng.uniform(-1.0, 1.0, (2 * steps + 1, d, d))
        got = run(rk4_linear_time_varying, M_half, g_half, y0, grid, direction)
    else:
        M = scale * rng.uniform(-1.0, 1.0, (d, d))
        M_half = np.broadcast_to(M, (2 * steps + 1, d, d))
        got = run(rk4_linear_tabulated, M, g_half, y0, grid, direction)
    ref = rk4_reference(M_half, g_half, y0, grid, direction)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_rk4_linear_time_varying_matches_generic(direction):
    grid = TimeGrid(0.0, 2.0, 120)

    def M(t):
        return np.array([[-0.5 + 0.3 * math.sin(t), 0.2], [-0.1 * t, -0.3]])

    def g(t):
        return np.array([math.sin(t), math.cos(2.0 * t)])

    ts_half = np.linspace(grid.t0, grid.t1, 2 * grid.steps + 1)
    M_half = np.stack([M(t) for t in ts_half])
    g_half = np.stack([g(t) for t in ts_half])
    y0 = np.array([1.0, -0.5])
    tab = run(rk4_linear_time_varying, M_half, g_half, y0, grid, direction)
    gen = integrate_ode(lambda t, y: M(t) @ y + g(t), y0, grid, direction)
    assert np.allclose(tab, gen.values, rtol=0.0, atol=1e-12)


def test_rk4_linear_blowup_at_first_nonfinite_node():
    # y' = 50 y from y = 1: after k steps y = P^k with P the RK4 factor
    # 1 + z + z^2/2 + z^3/6 + z^4/24 (z = 5 here), which first exceeds the
    # float range at k = 170 (log margins 3.4 below and 0.8 above)
    grid = TimeGrid(0.0, 20.0, 200)
    z = 50.0 * grid.dt
    P = 1.0 + z + z ** 2 / 2.0 + z ** 3 / 6.0 + z ** 4 / 24.0
    k = math.ceil(math.log(np.finfo(float).max) / math.log(P))
    M = np.array([[50.0]])
    g_half = np.zeros((2 * grid.steps + 1, 1))
    M_half = np.broadcast_to(M, (2 * grid.steps + 1, 1, 1))
    with pytest.raises(OdeBlowupError) as exc:
        rk4_linear_tabulated(M, g_half, np.ones(1), grid)
    assert exc.value.t == grid.times()[k]
    with pytest.raises(OdeBlowupError) as exc:
        rk4_linear_time_varying(M_half, g_half, np.ones(1), grid)
    assert exc.value.t == grid.times()[k]


def test_rk4_linear_rejects_bad_inputs():
    grid = TimeGrid(0.0, 1.0, 10)
    M = -np.eye(2)
    g_half = np.zeros((2 * grid.steps + 1, 2))
    with pytest.raises(ValueError):
        rk4_linear_tabulated(M, g_half[:-1], np.ones(2), grid)
    M_half = np.broadcast_to(M, (2 * grid.steps + 1, 2, 2))
    with pytest.raises(ValueError):
        rk4_linear_time_varying(M_half[:-1], g_half, np.ones(2), grid)
    with pytest.raises(ValueError):
        rk4_linear_time_varying(M_half, g_half[:-1], np.ones(2), grid)


def split_reference(M_half, g_half, y_pin, grid, n_far, direction="forward"):
    """Dense solve of the split boundary problem: all steps + 1 nodes as
    unknowns, one row block per step mapping its first node to its last in
    the integration direction (P_i, c_i from one RK4 step of
    ``rk4_reference``), plus the pins: y_pin[n_far:] at the start of the
    integration, y_pin[:n_far] at its far end."""
    steps, d = grid.steps, y_pin.shape[0]
    fwd = direction == "forward"
    size = (steps + 1) * d
    A = np.zeros((size, size))
    rhs = np.zeros(size)
    for i in range(steps):
        step = TimeGrid(grid.t0 + i * grid.dt, grid.t0 + (i + 1) * grid.dt, 1)
        Mi, gi = M_half[2 * i:2 * i + 3], g_half[2 * i:2 * i + 3]
        src, dst = (i, i + 1) if fwd else (i + 1, i)
        at = 1 if fwd else 0
        c = rk4_reference(Mi, gi, np.zeros(d), step, direction)[at]
        P = np.stack([rk4_reference(Mi, 0.0 * gi, e, step, direction)[at] for e in np.eye(d)],
                     axis=1)
        rows = slice(i * d, (i + 1) * d)
        A[rows, src * d:(src + 1) * d] = -P
        A[rows, dst * d:(dst + 1) * d] = np.eye(d)
        rhs[rows] = c
    start, far = (0, steps) if fwd else (steps, 0)
    pins = [(far * d + j, j) for j in range(n_far)]
    pins += [(start * d + j, j) for j in range(n_far, d)]
    for r, (col, j) in enumerate(pins):
        A[steps * d + r, col] = 1.0
        rhs[steps * d + r] = y_pin[j]
    return np.linalg.solve(A, rhs).reshape(steps + 1, d)


def _split_case(rng, d, steps, T, diag, time_varying):
    grid = TimeGrid(0.0, T, steps)
    M = rng.uniform(-0.5, 0.5, (d, d)) + np.diag(diag)
    M_half = (M + 0.3 * rng.uniform(-1.0, 1.0, (2 * steps + 1, d, d)) if time_varying
              else np.broadcast_to(M, (2 * steps + 1, d, d)))
    g_half = rng.uniform(-1.0, 1.0, (2 * steps + 1, d))
    kernel, Ms = ((rk4_linear_time_varying, M_half) if time_varying
                  else (rk4_linear_tabulated, M))
    return grid, M_half, g_half, kernel, Ms


@pytest.mark.parametrize("steps", [1, 7, 64, 65, 200])
@pytest.mark.parametrize("time_varying", [False, True])
@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_rk4_split_matches_dense_solve(steps, time_varying, direction):
    # below, at and above the chunk length, and not a multiple of it; M has
    # an unstable block (forward growth) and a stable one, like the offsets
    # and the mean state of the consistency system.  n_far = 0 is the
    # initial value problem, solved by the same maps
    rng = np.random.default_rng(steps)
    d = 4
    grid, M_half, g_half, kernel, Ms = _split_case(rng, d, steps, 3.0,
                                                   [1.0, 0.8, -1.0, -0.6], time_varying)
    y_pin = rng.uniform(-1.0, 1.0, d)
    start, far = (0, -1) if direction == "forward" else (-1, 0)
    for n_far in range(d + 1):
        got = run(kernel, Ms, g_half, y_pin, grid, direction, n_far)
        ref = split_reference(M_half, g_half, y_pin, grid, n_far, direction)
        assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))
        assert np.array_equal(got[start, n_far:], y_pin[n_far:])
        assert np.array_equal(got[far, :n_far], y_pin[:n_far])


@pytest.mark.parametrize("time_varying", [False, True])
def test_rk4_split_on_stiff_growth_matches_dense_solve(time_varying):
    # offsets growing forward at rate ~50 against a mean state decaying at
    # ~50, with h * 50 = 2: 64 steps of the growth span e^128, so chunks of
    # fixed length would lose every digit to cancellation
    rng = np.random.default_rng(11)
    grid, M_half, g_half, kernel, Ms = _split_case(rng, 2, 500, 20.0, [50.0, -50.0],
                                                   time_varying)
    y_pin = np.array([0.3, 1.0])
    got = kernel(Ms, g_half, y_pin, grid, n_far=1).values
    ref = split_reference(M_half, g_half, y_pin, grid, 1)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_rk4_split_rejects_bad_pins():
    grid = TimeGrid(0.0, 1.0, 10)
    g_half = np.zeros((2 * grid.steps + 1, 2))
    for n_far in (3, -1):
        with pytest.raises(ValueError):
            rk4_linear_tabulated(-np.eye(2), g_half, np.ones(2), grid, n_far=n_far)


def test_spectral_abscissa():
    assert spectral_abscissa(np.eye(2)) == pytest.approx(1.0)
    assert spectral_abscissa(np.array([[0.0, 1.0], [-1.0, 0.0]])) == pytest.approx(0.0, abs=1e-12)
    assert spectral_abscissa(np.diag([-2.0, -3.0])) == pytest.approx(-2.0)


def test_spectral_abscissa_orthogonal_invariance():
    rng = np.random.default_rng(3)
    M = rng.normal(size=(4, 4))
    Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    assert abs(spectral_abscissa(M) - spectral_abscissa(Q.T @ M @ Q)) < 1e-9


def sample_gaussian(mean, cov, seed, size):
    """``size`` draws of N(mean, cov) by ``GaussianPolicy.sample``: the
    policy at one time with a zero gain and offset ``mean``."""
    mean = np.asarray(mean, dtype=float)
    pol = GaussianPolicy(None, np.zeros((mean.size, 1)), mean[None], np.asarray(cov))
    rng = np.random.default_rng(seed)
    return np.array([pol.sample(0.0, [0.0], rng) for _ in range(size)])


def test_sample_gaussian_degenerate():
    out = sample_gaussian([2.0, -1.0], np.zeros((2, 2)), 0, 1)
    assert np.array_equal(out, [[2.0, -1.0]])


def test_sample_gaussian_mean_clt():
    draws = sample_gaussian(np.zeros(2), np.eye(2), 7, 100_000)
    # 4 standard errors, 4/sqrt(N), per coordinate
    assert np.all(np.abs(draws.mean(axis=0)) < 4 / math.sqrt(100_000))


def test_sample_gaussian_covariance():
    cov = np.array([[1.0, 0.5], [0.5, 1.0]])
    emp = np.cov(sample_gaussian(np.zeros(2), cov, 11, 100_000).T)
    # the variances' standard error is sqrt(2/N) = 0.0045
    assert np.max(np.abs(emp - cov)) < 0.02


def test_sample_gaussian_reproducible():
    a = sample_gaussian(np.zeros(3), np.eye(3), 42, 10)
    b = sample_gaussian(np.zeros(3), np.eye(3), 42, 10)
    assert np.array_equal(a, b)
    # mean + chol z, one standard normal per coordinate in stream order
    assert np.array_equal(a, np.random.default_rng(42).standard_normal((10, 3)))


def test_sample_gaussian_rejects_indefinite():
    indefinite = np.array([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(ValueError):
        cholesky_psd(indefinite)
    with pytest.raises(ValueError):
        GaussianPolicy(None, np.zeros((2, 1)), np.zeros((1, 2)), indefinite)


def test_agent_rng_streams_differ():
    a = rng_stream(123, 0).standard_normal(4)
    b = rng_stream(123, 1).standard_normal(4)
    c = rng_stream(123, 0).standard_normal(4)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, c)


def test_rng_stream_keys_do_not_alias():
    def draw(*args):
        return rng_stream(*args).standard_normal(4)

    # the entropy-list form SeedSequence([seed, key]) aliases in both cases
    assert not np.array_equal(draw(5, 0), np.random.default_rng(5).standard_normal(4))
    assert not np.array_equal(draw(2**32 + 1, 0), draw(1, 1))
    assert not np.array_equal(draw(0, 1), draw(1, 0))
    assert np.array_equal(draw(-1), draw(2**64 - 1))


def test_fit_rate():
    xs = np.array([16.0, 64.0, 256.0, 1024.0])
    assert fit_rate(xs, 1.0 / xs) == pytest.approx(-1.0, abs=1e-12)
    assert fit_rate(xs, 1.0 / np.sqrt(xs)) == pytest.approx(-0.5, abs=1e-12)
    assert fit_rate(xs, np.full(4, 3.0)) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        fit_rate(xs[:2], 1.0 / xs[:2])
    with pytest.raises(ValueError):
        fit_rate(xs, np.array([1.0, -1.0, 1.0, 1.0]))


def test_trajectory_interp_returns_node_values_at_nodes(coupled):
    _spec, mf = coupled
    for traj in (mf.s[0], mf.xbar, mf.mubar):
        assert np.array_equal(traj.interp(mf.grid.times()), traj.values)
    grid = TimeGrid(0.3, 7.1, 977)
    traj = Trajectory(grid, np.random.default_rng(0).standard_normal((978, 2, 2)))
    ts = grid.times()
    assert np.array_equal(traj.interp(ts), traj.values)
    for i in (0, 1, 500, 977):
        assert np.array_equal(traj.interp(ts[i]), traj.values[i])
    # between nodes it is still the linear blend
    mid = 0.5 * (ts[10] + ts[11])
    np.testing.assert_allclose(traj.interp(mid), 0.5 * (traj.values[10] + traj.values[11]),
                               rtol=1e-12, atol=1e-15)


def interp_on_times(traj, t):
    """Interpolation with the interval searched among ``grid.times()``: the
    reference for ``Trajectory.interp``, which builds no grid."""
    g = traj.grid
    tarr = np.asarray(t, dtype=float)
    ts = g.times()
    i0 = np.clip(np.searchsorted(ts, tarr, side="right") - 1, 0, g.steps - 1)
    w = np.clip((tarr - ts[i0]) / (ts[i0 + 1] - ts[i0]), 0.0, 1.0)
    w = w.reshape(w.shape + (1,) * (traj.values.ndim - 1))
    return (1.0 - w) * traj.values[i0] + w * traj.values[i0 + 1]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(t0=st.floats(-50.0, 50.0), span=st.floats(1e-3, 1e3),
       steps=st.integers(1, 20000), seed=st.integers(0, 2**32 - 1))
def test_trajectory_interp_matches_search_among_times(t0, span, steps, seed):
    # bitwise, at random times, at every node and one ulp either side of it,
    # for scalar and array arguments
    grid = TimeGrid(t0, t0 + span, steps)
    rng = np.random.default_rng(seed)
    traj = Trajectory(grid, rng.standard_normal((steps + 1, 2)))
    ts = grid.times()
    probes = np.concatenate([rng.uniform(grid.t0, grid.t1, 64), ts,
                             np.nextafter(ts, np.inf), np.nextafter(ts, -np.inf)])
    probes = probes[(probes >= grid.t0 - 1e-12) & (probes <= grid.t1 + 1e-12)]
    assert np.array_equal(traj.interp(probes), interp_on_times(traj, probes))
    for t in probes[rng.integers(0, probes.size, 8)]:
        got, ref = traj.interp(float(t)), interp_on_times(traj, float(t))
        assert got.shape == ref.shape and np.array_equal(got, ref)


def test_trajectory_interp_bounds():
    grid = TimeGrid(0.0, 1.0, 10)
    traj = Trajectory(grid, np.linspace(0.0, 1.0, 11)[:, None])
    assert traj.interp(0.55) == pytest.approx(0.55)
    with pytest.raises(ValueError):
        traj.interp(1.5)


def test_write_json(tmp_path):
    path = tmp_path / "doc.json"
    strided = np.arange(6.0).reshape(2, 3).T          # a transposed view
    assert not strided.flags.c_contiguous
    write_json(path, {
        "z": {"nan": np.array([1.0, np.nan]), "inf": [np.inf, -np.inf, float("nan")]},
        "scalars": [np.float64(0.1), np.int64(-3), np.bool_(True), np.array(2.5)],
        "strided": strided, "tuple": (1, 2.0, None), "empty": np.zeros((2, 0)),
    })
    assert path.read_bytes() == (
        b'{"empty":[[],[]],"scalars":[0.1,-3,true,2.5],'
        b'"strided":[[0.0,3.0],[1.0,4.0],[2.0,5.0]],"tuple":[1,2.0,null],'
        b'"z":{"inf":[null,null,null],"nan":[1.0,null]}}\n')
    # shortest round-trip spelling: json.load gives back every bit
    x = np.random.default_rng(3).standard_normal(1000) * 10.0 ** np.arange(-300, 300, 0.6)
    x = np.concatenate([x, [5e-324, -0.0, np.finfo(float).max, 0.1 + 0.2]])
    write_json(path, [x, x[::-3]])
    back = json.loads(path.read_text())
    assert np.array_equal(back[0], x) and np.array_equal(back[1], x[::-3])
    assert np.array_equal(np.signbit(back[0]), np.signbit(x))
    with pytest.raises(TypeError):
        write_json(path, {"x": object()})
