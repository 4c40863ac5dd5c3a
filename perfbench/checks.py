"""Correctness checks for every benchmark operation.

Each check compares an output of ``lqgmfg`` with a computation made here,
apart from the program (scipy's ARE solver, matrix exponentials, the model's
own equations under fourth-order differences), or with a property the method
must have.  None compares with a stored copy of an earlier output.  A failed
check raises ``CheckFailed``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm, solve_continuous_are


class CheckFailed(Exception):
    pass


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# equilibrium: one `lqgmfg solve` output directory
# ---------------------------------------------------------------------------

PI_RTOL = 1e-8          # Pi against scipy; a 1e-6 relative error must fail
TRAJ_TOL = 1e-5         # identity and ODE defects (criterion 2's bound)
EXPM_TOL = 1e-8         # decoupled mean path against the matrix exponential


def reference_pi(p, rho: float) -> np.ndarray:
    """Discounted ARE as the standard one for A - rho/2 I, solved by scipy."""
    n = p.n
    return solve_continuous_are(p.A - 0.5 * rho * np.eye(n), p.B, p.Q, p.R, s=p.S)


def _d4(vals: np.ndarray, dt: float) -> np.ndarray:
    """Fourth-order central first derivative at the interior nodes 2..-3."""
    return (-vals[4:] + 8.0 * vals[3:-1] - 8.0 * vals[1:-3] + vals[:-4]) / (12.0 * dt)


def check_solve(spec, code: int, solution: dict, stability: dict,
                decoupled: bool) -> None:
    """Exit code, stability report, Pi, and the written trajectories.

    The optimal control of a type-k agent is
    u = -R^-1 (B^T (Pi x + s) + S^T (x - psibar X) + n), so with
    G = R^-1 (B^T Pi + S^T) and A_cl = A - B G the written paths must obey

      mubar_k = -G xbar_k + R^-1 S^T psibar X - R^-1 (B^T s_k + n)
      d xbar_k/dt = A xbar_k + B mubar_k + Fbar X + Hbar U + b(t)
      d s_k/dt = rho s_k - A_cl^T s_k - Pi (Fbar X + B R^-1 S^T psibar X
                 + Hbar U - B R^-1 n + b(t)) - (S R^-1 S^T - Q) psibar X
                 + S R^-1 n - eta

    with X, U the stacked xbar, mubar; derived here from the model, not read
    from the solver.
    """
    require(code == 0, f"lqgmfg solve exited with {code}")
    require(stability.get("ok") is True, "stability report is not ok")
    K, n, m = spec.K, spec.n, spec.m
    g = solution["grid"]
    ts = np.linspace(g["t0"], g["t1"], g["steps"] + 1)
    dt = (g["t1"] - g["t0"]) / g["steps"]
    X = np.asarray(solution["xbar"], dtype=float)
    U = np.asarray(solution["mubar"], dtype=float)
    require(X.shape == (ts.size, n * K) and U.shape == (ts.size, m * K),
            "xbar/mubar have the wrong shape")
    require(np.max(np.abs(X[0] - np.tile(spec.x0_mean, K))) <= 1e-12,
            "xbar(0) is not the initial mean")
    for k, p in enumerate(spec.subpops):
        Pi = np.asarray(solution["Pi"][k], dtype=float)
        ref = reference_pi(p, spec.rho)
        err = float(np.max(np.abs(Pi - ref)))
        require(err <= PI_RTOL * (1.0 + float(np.max(np.abs(ref)))),
                f"type {k}: Pi differs from scipy's ARE solution by {err:.2e}")
        s = np.asarray(solution["s"][k], dtype=float)
        Rinv = np.linalg.inv(p.R)
        G = Rinv @ (p.B.T @ ref + p.S.T)
        A_cl = p.A - p.B @ G
        Fb, Hb, Pb = spec.Fbar(k), spec.Hbar(k), spec.psibar(k)
        Xk = X[:, k * n:(k + 1) * n]
        Uk = U[:, k * m:(k + 1) * m]
        Y = X @ Pb.T
        u_ref = (-Xk @ G.T + Y @ (Rinv @ p.S.T).T
                 - (s @ p.B + p.nvec[None, :]) @ Rinv.T)
        err = float(np.max(np.abs(Uk - u_ref)))
        require(err <= TRAJ_TOL, f"type {k}: mubar != J xbar + L (defect {err:.2e})")
        b_t = p.b(ts)
        x_rhs = Xk @ p.A.T + Uk @ p.B.T + X @ Fb.T + U @ Hb.T + b_t
        err = float(np.max(np.abs(_d4(Xk, dt) - x_rhs[2:-2])))
        require(err <= TRAJ_TOL, f"type {k}: xbar violates its ODE (defect {err:.2e})")
        BRn = p.B @ (Rinv @ p.nvec)
        drive = ((X @ Fb.T + Y @ (p.B @ Rinv @ p.S.T).T + U @ Hb.T
                  - BRn[None, :] + b_t) @ ref.T
                 + Y @ (p.S @ Rinv @ p.S.T - p.Q).T
                 - (p.S @ (Rinv @ p.nvec))[None, :] + p.eta[None, :])
        s_rhs = spec.rho * s - s @ A_cl - drive
        err = float(np.max(np.abs(_d4(s, dt) - s_rhs[2:-2])))
        require(err <= TRAJ_TOL, f"type {k}: s violates its ODE (defect {err:.2e})")
        if decoupled:
            idx = np.linspace(0, ts.size - 1, 41).astype(int)
            x_ref = np.stack([expm(A_cl * ts[i]) @ spec.x0_mean for i in idx])
            err = float(np.max(np.abs(Xk[idx] - x_ref)))
            require(err <= EXPM_TOL,
                    f"type {k}: xbar differs from expm(A_cl t) x0 by {err:.2e}")


# ---------------------------------------------------------------------------
# crowd
# ---------------------------------------------------------------------------

def check_population(spec, xbar_values: np.ndarray, xbar_times: np.ndarray,
                     batch, checkpoints) -> None:
    """Per-type empirical means within 5 SE of the solved xbar at the
    checkpoints, and action - mean covariance within 5 SE of lambda R^-1."""
    n, m = spec.n, spec.m
    ts = batch.grid.times()
    start = 0
    for k, p in enumerate(spec.subpops):
        count = int(np.sum(batch.types == k))
        sl = slice(start, start + count)
        start += count
        for i in checkpoints:
            x = batch.states[sl, i]
            se = x.std(axis=0, ddof=1) / math.sqrt(count)
            ref = np.array([np.interp(ts[i], xbar_times, xbar_values[:, k * n + j])
                            for j in range(n)])
            dev = np.abs(x.mean(axis=0) - ref)
            require(np.all(dev <= 5.0 * se),
                    f"type {k}, t={ts[i]:.2f}: empirical mean off by "
                    f"{np.max(dev / se):.1f} SE")
        d = (batch.actions[sl] - batch.means[sl]).reshape(-1, m)
        cov_ref = p.lambda_explore * np.linalg.inv(p.R)
        for a in range(m):
            for b in range(a, m):
                prod = d[:, a] * d[:, b]
                se = prod.std(ddof=1) / math.sqrt(prod.size)
                dev = abs(prod.mean() - cov_ref[a, b])
                require(dev <= 5.0 * se,
                        f"type {k}: action covariance ({a},{b}) off by "
                        f"{dev / se:.1f} SE")


def check_costs(costs) -> None:
    for est in costs:
        require(np.all(np.isfinite(est.per_agent)), "non-finite agent cost")


def check_coupling_gap(summary) -> None:
    """The gap falls with N: the log-log slope fitted here is negative and the
    largest population has the smallest gap."""
    Ns = np.asarray(summary["Ns"], dtype=float)
    gaps = np.asarray(summary["gap_means"], dtype=float)
    require(np.all(gaps > 0), "non-positive coupling gap")
    slope = np.polyfit(np.log(Ns), np.log(gaps), 1)[0]
    require(slope < 0 and gaps[-1] < gaps[0],
            f"coupling gap does not fall with N: {gaps.tolist()}")


COE_Z = 4.0     # see check_coe


def check_coe(summary, spec) -> None:
    """Within 4 SE of m lambda / (2 rho), more than 10 SE from the
    dimensionless lambda / (2 rho).

    4 SE, not criterion 6's 3: this check runs on every seed.  Over seeds
    0-99 (500 paths) the z-score had sd 1.11 and reached -3.15 and +3.33 on
    correct output, so a 3-SE test would reject about 2% of seeds.
    """
    p = spec.subpops[0]
    half = p.lambda_explore / (2.0 * spec.rho)
    est, se = summary["estimate"], summary["std_err"]
    require(abs(est - p.m * half) <= COE_Z * se,
            f"COE {est:.5f} +- {se:.5f} is not within {COE_Z:g} SE of {p.m * half}")
    require(abs(est - half) > 10.0 * se,
            f"COE {est:.5f} +- {se:.5f} does not rule out {half}")


# ---------------------------------------------------------------------------
# nash
# ---------------------------------------------------------------------------

def check_cost_gap(summary) -> None:
    slope = summary["slope"]
    require(slope is not None and slope <= -0.4,
            f"cost-gap slope {slope} is not <= -0.4")


def check_cov_scale_costs(summary, family, spec, horizon: float) -> None:
    """A covariance scale c changes only the sampled actions, so the tagged
    agent's regularized running cost rises by lambda m / 2 (c - 1 - ln c)
    whatever the noise; discounted over [0, T] that is
    (lambda m / (2 rho)) (c - 1 - ln c) (1 - e^{-rho T})."""
    p = spec.subpops[0]
    base = summary["equilibrium_cost"]
    checked = 0
    for dev, cost in zip(family, summary["deviation_costs"]):
        c = dev.cov_scale
        if c == 1.0 or dev.mean_shift is not None:
            continue
        expected = (p.lambda_explore * p.m / (2.0 * spec.rho) * (c - 1.0 - math.log(c))
                    * (1.0 - math.exp(-spec.rho * horizon)))
        got = cost - base
        require(abs(got - expected) <= 1e-4 * abs(expected),
                f"cov scale {c}: cost increase {got:.6e}, expected {expected:.6e}")
        checked += 1
    require(checked > 0, "no covariance-scale member was checked")


# ---------------------------------------------------------------------------
# trading
# ---------------------------------------------------------------------------

def check_learning(trace_rows, true, iterations: int) -> None:
    require(len(trace_rows) == iterations + 1,
            f"loop stopped after {len(trace_rows)} of {iterations + 1} iterations")
    require(not any(r.get("failed") for r in trace_rows), "a learning iteration failed")
    last = trace_rows[-1]
    err = abs(last["lambda_hat"] - true.lambda_perm)
    require(err <= 3.0 * last["se_lambda"],
            f"lambda_hat off by {err:.2e} > 3 SE {3.0 * last['se_lambda']:.2e}")
    # the concession regression is noise-free, so its SE is round-off; the
    # 1e-8 floor is criterion 10's
    err = abs(last["a_hat"] - true.a_temp)
    require(err <= max(3.0 * last["se_a"], 1e-8), f"a_hat off by {err:.2e}")


def check_recovery(est, true) -> None:
    require(abs(est.lambda_hat - true.lambda_perm) < 1e-10
            and abs(est.a_hat - true.a_temp) < 1e-10,
            f"noise-free recovery inexact: lambda {est.lambda_hat!r}, a {est.a_hat!r}")
