"""Electronic-market application: N-trader market simulator with permanent
and temporary price impact, the mapping into the mean-field LQG state-space
form, parameter estimation by least squares, and the model-based
learn-plan-act loop.

Market model per trader (inventory q, trading rate nu, midprice F,
execution price S, cash Z):

    dF = lambda_perm * nubar dt + sigma dW        (common midprice noise)
    dq = nu dt
    S  = F + a_temp * integral of own nu          (as simulated/estimated)
    dZ = -S dq

and the cost  phi/2 int q^2 dt - Z_T - q_T (F_T - psi q_T).

This is a finite-horizon problem without discounting, so the planner runs
the differential Riccati path with the terminal weight from the book-value
and liquidation penalties and rho = 0 (the general infinite-horizon
machinery is recovered as the horizon grows), solved exactly on the
Hamiltonian flow (``riccati.solve_differential_riccati``).  For the
planner's quadratic form the temporary impact is charged against the trading rate (execution
price F + a nu), the standard optimal-execution expansion: expanding the
cash process gives the control cost a nu^2, the cross term F nu, and the
terminal -q_T F_T; a cumulative-impact charge would leave the rate
unpenalized (a singular control problem with R = 0), which the quadratic
framework cannot represent.  The mapping carries the population spec
those blocks make, the terminal weight and offset, and the horizon T.  The plan is the library's one policy record
(``policy.GaussianPolicy``), its gain tabulated from the Riccati table, and
the market simulator samples the traders' rates from it.  The simulator
steps a batch of episodes at once, each on its own noise stream, and the
learning loop runs each phase's episodes as one such batch.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .meanfield import consistency_blocks, solve_stacked
from .model import PopulationSpec, SubpopParams, _check_finite, is_json_number, validate_spec
from .numerics import (TimeGrid, Trajectory, rk4_linear_time_varying, rng_stream,
                       trapezoid_weights, write_csv)
from .policy import GaussianPolicy, tabulate_policy
from .riccati import solve_differential_riccati

__all__ = [
    "MarketParams",
    "LqgMapping",
    "MarketPaths",
    "TradingDataset",
    "ParamEstimates",
    "EstimationError",
    "LearningTrace",
    "TradingLoopConfig",
    "to_lqg",
    "solve_finite_horizon",
    "trading_policy",
    "simulate_market",
    "estimate_params",
    "realized_cost",
    "rl_loop",
    "doc_float",
    "doc_int",
    "params_from_json",
]


class EstimationError(RuntimeError):
    pass


@dataclass(frozen=True)
class MarketParams:
    sigma: float
    lambda_perm: float
    a_temp: float
    phi_urgency: float
    psi_terminal: float
    T: float
    F0: float
    q0: float

    def __post_init__(self):
        _check_finite(self)
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if not self.T > 0:
            raise ValueError("horizon T must be positive")
        for name in ("lambda_perm", "a_temp", "phi_urgency", "psi_terminal"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


def _check_explore(lambda_explore: float) -> None:
    if not (math.isfinite(lambda_explore) and lambda_explore >= 0):
        raise ValueError(f"lambda_explore must be finite and nonnegative, "
                         f"got {lambda_explore!r}")


def doc_float(doc: dict, key: str, default: float | None = None) -> float:
    """A real field of a market doc: a bool or a string is refused, not
    converted.  Without a default the key is required."""
    value = doc[key] if default is None else doc.get(key, default)
    if isinstance(value, list) or not is_json_number(value):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


def doc_int(doc: dict, key: str, default: int) -> int:
    """An integer field of a market doc: a fraction, a bool or a string is
    refused, not truncated."""
    value = doc.get(key, default)
    if not (isinstance(value, int) and is_json_number(value)):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def params_from_json(doc: dict) -> MarketParams:
    """MarketParams from a dict holding every field (other keys ignored);
    ``dataclasses.asdict`` writes one."""
    return MarketParams(**{f.name: doc_float(doc, f.name) for f in fields(MarketParams)})


@dataclass
class LqgMapping:
    """State-space form of the trading game on [0, T]: state (q, F - F0),
    control nu."""

    population: PopulationSpec
    terminal_weight: np.ndarray    # Pi(T)
    terminal_offset: np.ndarray    # s(T)
    T: float


def to_lqg(params: MarketParams, lambda_explore: float = 0.0) -> LqgMapping:
    """Cast the trading problem as a one-type LQG mean-field game.

    Per trader: state x = (q, F - F0), control nu, n = 2, m = 1.  The
    permanent impact enters as the mean-control coupling H = (0, lambda)^T;
    the urgency penalty gives Q_11 = phi; the cash expansion gives the
    control cost R = 2 a, the cross term S = (0, 1)^T against the price
    deviation, and the linear control cost n = F0; the terminal book value
    and liquidation penalty give Pi(T) = [[2 psi, -1], [-1, 0]] and
    s(T) = (-F0, 0).  rho = 0 (finite horizon).
    """
    _check_explore(lambda_explore)
    lam, a = params.lambda_perm, params.a_temp
    sub = SubpopParams(
        A=np.zeros((2, 2)),
        B=np.array([[1.0], [0.0]]),
        H=np.array([[0.0], [lam]]),
        D=np.array([[0.0], [params.sigma]]),
        Q=np.array([[params.phi_urgency, 0.0], [0.0, 0.0]]),
        R=np.array([[2.0 * a]]),
        S=np.array([[0.0], [1.0]]),
        nvec=np.array([params.F0]),
        lambda_explore=lambda_explore,
    )
    pop = PopulationSpec(subpops=(sub,), pi=[1.0], rho=0.0,
                         x0_mean=np.array([params.q0, 0.0]),
                         x0_cov=np.zeros((2, 2)))
    Pi_T = np.array([[2.0 * params.psi_terminal, -1.0], [-1.0, 0.0]])
    s_T = np.array([-params.F0, 0.0])
    return LqgMapping(population=pop, terminal_weight=Pi_T, terminal_offset=s_T,
                      T=params.T)


# ---------------------------------------------------------------------------
# Finite-horizon consistency solve (time-varying gains)
# ---------------------------------------------------------------------------

@dataclass
class FiniteHorizonSolution:
    grid: TimeGrid
    Pi: list[Trajectory]           # per type, (nodes, n, n)
    s: list[Trajectory]            # per type, (nodes, n)
    xbar: Trajectory               # (nodes, nK)
    mubar: Trajectory              # (nodes, mK)
    iterations: int                # 1: one direct solve


def solve_finite_horizon(mapping: LqgMapping, steps: int = 200) -> FiniteHorizonSolution:
    """The finite-horizon consistency system, solved directly.

    The same stacked system as the stationary solver
    (``meanfield.solve_stacked``), but each type's Riccati weight Pi_k(t)
    is its own backward differential solution from the terminal matrix
    (``to_lqg`` makes one type; a K-type mapping solves K tables), so the gains
    and blocks are tabulated on the doubled grid, and s(T) is the mapping's
    terminal offset.  Pi_k is exact at every node, with no refinement
    however stiff.  Two validate_spec aspects are waived here: the positive
    discount (rho = 0 is the finite-horizon setting) and the state-convexity
    Q - S R^-1 S^T >= 0,
    which only guarantees the infinite-horizon flow stays in the PSD cone --
    the trading terminal weight is itself indefinite (the -q_T F_T book
    value), so a finite escape of Pi on [0, T] (det X <= 0 on the
    Hamiltonian flow) raises OdeBlowupError instead.  R > 0 and the other
    aspects remain hard errors.  A solve that diverges raises
    ConsistencyError; both errors are RuntimeErrors.
    """
    spec = mapping.population
    hard = [v for v in validate_spec(spec).violations
            if v[0] not in ("discount", "state-convexity")]
    if hard:
        raise ValueError(f"trading spec violates model assumptions: {hard}")
    grid = TimeGrid(0.0, mapping.T, steps)

    # exact Pi on the doubled grid: its midpoints are the RK4 stage inputs
    fine = TimeGrid(grid.t0, grid.t1, 2 * steps)
    Pi_half = [solve_differential_riccati(p, spec.rho, mapping.terminal_weight, fine).values
               for p in spec.subpops]
    Pi_trajs = [Trajectory(grid, P[::2]) for P in Pi_half]
    ops, J_half, Abar_half = consistency_blocks(spec, Pi_half)
    s_T = np.tile(mapping.terminal_offset, spec.K)
    s_trajs, _, _, xbar, mubar = solve_stacked(spec, ops, J_half, Abar_half, grid, s_T,
                                               rk4_linear_time_varying)
    return FiniteHorizonSolution(grid=grid, Pi=Pi_trajs, s=s_trajs, xbar=xbar,
                                 mubar=mubar, iterations=1)


def trading_policy(mapping: LqgMapping, fh: FiniteHorizonSolution) -> GaussianPolicy:
    """The traders' time-varying Gaussian policy (type 0): the policy record
    on the solve grid, its gain tabulated from the Riccati table, so the
    mean is -gain(t) x + offset(t) and the covariance lambda_explore R^-1.
    ``policy.tabulate_policy`` reads another type of a K-type mapping."""
    return tabulate_policy(mapping.population, 0, fh.Pi[0].values, fh.grid,
                           fh.s[0].values, fh.xbar.values)


# ---------------------------------------------------------------------------
# Market simulator and estimation
# ---------------------------------------------------------------------------

@dataclass
class MarketPaths:
    """The paths of E episodes of N traders each.  Trader rows are
    episode-major: row e * N + i is trader i of episode e."""

    grid: TimeGrid
    F: np.ndarray          # (E, nodes) midprice of each episode
    q: np.ndarray          # (E * N, nodes)
    nu: np.ndarray         # (E * N, steps) applied trading rates
    S: np.ndarray          # (E * N, nodes) execution price marks
    Z: np.ndarray          # (E * N, nodes) cash
    cumvol: np.ndarray     # (E * N, nodes) integral of own nu

    @property
    def n_traders(self) -> int:
        return self.q.shape[0] // self.F.shape[0]

    def episode(self, e: int) -> MarketPaths:
        """Episode e alone, as a one-episode batch."""
        rows = slice(e * self.n_traders, (e + 1) * self.n_traders)
        return MarketPaths(grid=self.grid, F=self.F[e:e + 1], q=self.q[rows],
                           nu=self.nu[rows], S=self.S[rows], Z=self.Z[rows],
                           cumvol=self.cumvol[rows])


def simulate_market(params: MarketParams, policy: GaussianPolicy, N: int,
                    grid: TimeGrid, seed: int, episodes: range = range(1)) -> MarketPaths:
    """Euler simulation of the trading dynamics with executed (sampled)
    trading rates nu = -gain(t) x + offset(t) + chol z, z standard normal,
    read from the policy record (m = 1).

    Execution price marks S_i(t) = F(t) + a * cumulative own volume; cash
    dZ = -S dq at the left point.  Each episode r of ``episodes`` has its
    own midprice and draws from its own stream, ``rng_stream(seed, r)``:
    row 0 of a C-order (N + 1, steps) draw is the common midprice noise and
    row 1 + i trader i's, so neither depends on N or on the other episodes.
    The episodes run as one batch of E * N trader rows (see MarketPaths).  A
    non-finite q or F in any episode raises at the first node it reaches.

    The loop steps only q and F, which feed back; volume, marks and cash are
    running sums formed after it.  The policy mean stays an (E * N, 2) @ (2,)
    BLAS product, whose fused multiply-add plain float arithmetic would not
    reproduce bit for bit.  For N >= 2 each episode of a batch equals the
    same episode run alone bit for bit.  With N = 1 an episode run alone is
    a one-row product, which BLAS computes with another kernel than a
    batch's E rows, so the two agree only to round-off.
    """
    steps, dt = grid.steps, grid.dt
    sqdt = math.sqrt(dt)
    if policy.grid.steps != steps or abs(policy.grid.t1 - grid.t1) > 1e-12:
        raise ValueError("policy grid does not match the simulation grid")
    if N < 1:
        raise ValueError(f"need at least one trader, got N={N}")
    E = len(episodes)
    if E < 1:
        raise ValueError("need at least one episode")
    # time-major noise: episode e's midprice column e, its traders' columns
    dF_noise, Lz = np.empty((steps, E)), np.empty((steps, E * N))
    for e, rep in enumerate(episodes):
        z = rng_stream(seed, rep).standard_normal((N + 1, steps))
        dF_noise[:, e] = z[0]
        Lz[:, e * N:(e + 1) * N] = z[1:].T
    Lz *= float(policy.chol[0, 0])
    gain, offset = policy.gain[:, 0], policy.offset[:, 0].tolist()
    lam, F0 = params.lambda_perm, params.F0

    x = np.full((E, N, 2), float(params.q0))         # (q, F - F0) of each trader
    xd, x = x[:, :, 1], x.reshape(E * N, 2)
    xq = x[:, 0]
    q = np.empty((steps + 1, E * N))
    q[0] = xq
    nu = np.empty((steps, E * N))
    nu_e = nu.reshape(steps, E, N)                   # the same rates, by episode
    F = np.empty((steps + 1, E))
    F[0] = F0
    F_rows = F[:, :, None]                           # broadcasts over traders
    # an overflow, in the noise or in the state, is reported by the check below
    with np.errstate(over="ignore", invalid="ignore"):
        dF_noise *= params.sigma * sqdt
        for i in range(steps):
            np.subtract(F_rows[i], F0, out=xd)
            nu_i = np.subtract(offset[i], np.dot(x, gain[i]), out=nu[i])
            nu_i += Lz[i]
            xq += nu_i * dt
            q[i + 1] = xq
            # each episode's nu_i.mean(), as a pairwise sum over its traders
            nubar = np.add.reduce(nu_e[i], axis=1) / N
            F_next = np.add(F[i], lam * nubar * dt, out=F[i + 1])
            F_next += dF_noise[i]
    bad = ~(np.isfinite(q[1:]).all(axis=1) & np.isfinite(F[1:]).all(axis=1))
    if bad.any():
        raise RuntimeError(f"non-finite market state at t={grid.times()[np.argmax(bad) + 1]:.4g}")
    F, q, nu = np.ascontiguousarray(F.T), np.ascontiguousarray(q.T), np.ascontiguousarray(nu.T)
    # running sums from a zero first column, formed in place: batch-sized
    # temporaries would raise the peak memory
    cumvol = np.zeros((E * N, steps + 1))
    np.multiply(nu, dt, out=cumvol[:, 1:])
    np.cumsum(cumvol, axis=1, out=cumvol)
    S = np.repeat(F, N, axis=0)
    S += params.a_temp * cumvol
    Z = np.zeros((E * N, steps + 1))
    cash = np.multiply(S[:, :-1], nu, out=Z[:, 1:])
    cash *= -dt
    np.cumsum(Z, axis=1, out=Z)
    return MarketPaths(grid=grid, F=F, q=q, nu=nu, S=S, Z=Z, cumvol=cumvol)


@dataclass
class TradingDataset:
    """Regression rows harvested from market paths.

    Market rows (one per step per episode): midprice increment against the
    average executed rate.  Execution rows (one per trader per node): price
    concession against cumulative own volume.
    """

    dF: np.ndarray = field(default_factory=lambda: np.empty(0))
    nubar_dt: np.ndarray = field(default_factory=lambda: np.empty(0))
    dt_rows: np.ndarray = field(default_factory=lambda: np.empty(0))
    concession: np.ndarray = field(default_factory=lambda: np.empty(0))
    cumvol: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def n_rows(self) -> int:
        return self.dF.size

    def append(self, paths: MarketPaths) -> None:
        """Append every episode of ``paths``, episode by episode."""
        dt, E = paths.grid.dt, paths.F.shape[0]
        self.dF = np.concatenate([self.dF, np.diff(paths.F, axis=1).ravel()])
        nubar = paths.nu.reshape(E, paths.n_traders, -1).mean(axis=1)
        self.nubar_dt = np.concatenate([self.nubar_dt, (nubar * dt).ravel()])
        self.dt_rows = np.concatenate([self.dt_rows, np.full(E * paths.grid.steps, dt)])
        conc = paths.S.reshape(E, paths.n_traders, -1) - paths.F[:, None, :]
        self.concession = np.concatenate([self.concession, conc.ravel()])
        del conc        # not kept through the next concatenation
        self.cumvol = np.concatenate([self.cumvol, paths.cumvol.ravel()])


@dataclass(frozen=True)
class ParamEstimates:
    sigma_hat: float
    lambda_hat: float
    a_hat: float
    se_lambda: float
    se_a: float


def estimate_params(dataset: TradingDataset) -> ParamEstimates:
    """Least squares through the origin (the Gaussian maximum-likelihood
    estimator for these regressions).

    lambda from dF on nubar*dt, sigma from the residual quadratic
    variation, a from the execution-price concession on cumulative own
    volume.  Degenerate regressors (all traders idle) raise
    EstimationError('lambda_perm unidentifiable').
    """
    x = dataset.nubar_dt
    yv = dataset.dF
    Sxx = float(x @ x)
    scale = float(np.mean(x * x)) if x.size else 0.0
    if x.size < 3 or Sxx <= 0 or scale < 1e-20:
        raise EstimationError("lambda_perm unidentifiable (degenerate regressor)")
    lam = float(x @ yv / Sxx)
    resid = yv - lam * x
    sigma2 = float(resid @ resid) / float(dataset.dt_rows.sum())
    sigma = math.sqrt(max(sigma2, 0.0))
    s2 = float(resid @ resid) / max(x.size - 1, 1)
    se_lambda = math.sqrt(s2 / Sxx)

    u = dataset.cumvol
    w = dataset.concession
    Suu = float(u @ u)
    if u.size < 3 or Suu <= 0:
        raise EstimationError("a_temp unidentifiable (no trading volume)")
    a = float(u @ w / Suu)
    resid_a = w - a * u
    s2a = float(resid_a @ resid_a) / max(u.size - 1, 1)
    se_a = math.sqrt(s2a / Suu)
    return ParamEstimates(sigma_hat=sigma, lambda_hat=lam, a_hat=a,
                          se_lambda=se_lambda, se_a=se_a)


def realized_cost(paths: MarketPaths, params: MarketParams) -> float:
    """Realized trading cost phi/2 int q^2 dt - Z_T - q_T (F_T - psi q_T),
    averaged over each episode's traders, then over the episodes."""
    E, N = paths.F.shape[0], paths.n_traders
    w = trapezoid_weights(paths.grid.steps + 1, paths.grid.dt)
    run = 0.5 * params.phi_urgency * (paths.q ** 2 @ w)
    qT = paths.q[:, -1]
    FT = np.repeat(paths.F[:, -1], N)
    term = -paths.Z[:, -1] - qT * (FT - params.psi_terminal * qT)
    return float(np.mean((run + term).reshape(E, N).mean(axis=1)))


# ---------------------------------------------------------------------------
# Model-based learning loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TradingLoopConfig:
    iterations: int = 5
    inner_repeats: int = 5       # planning/acting repeats per learning phase
    n_traders: int = 8
    steps: int = 200
    lambda_explore: float = 0.1
    seed: int = 0

    def __post_init__(self):
        _check_explore(self.lambda_explore)
        if self.iterations < 0 or self.inner_repeats < 1:
            raise ValueError(f"need iterations >= 0 and inner_repeats >= 1, got "
                             f"{self.iterations} and {self.inner_repeats}")


@dataclass
class LearningTrace:
    rows: list[dict] = field(default_factory=list)

    def write_csv(self, path) -> None:
        write_csv(path, ["iteration", "sigma_hat", "lambda_hat", "a_hat", "se_lambda",
                         "se_a", "gain_q0", "cost", "n_rows", "identifiable", "failed"],
                  self.rows)


def _plan(params_est: MarketParams, lambda_explore: float,
          steps: int) -> tuple[GaussianPolicy, float]:
    mapping = to_lqg(params_est, lambda_explore=lambda_explore)
    fh = solve_finite_horizon(mapping, steps=steps)
    pol = trading_policy(mapping, fh)
    return pol, float(pol.gain[0, 0, 0])


def rl_loop(true_params: MarketParams, init_params: MarketParams,
            config: TradingLoopConfig | None = None) -> LearningTrace:
    """Model-based learning: initialize with a base policy, then alternate
    model learning (re-estimate on all collected data), planning (re-solve
    the finite-horizon consistency system), and acting (sample and execute
    the phase's ``inner_repeats`` episodes as one batch, appending them to
    the dataset; the trace's cost is their mean realized cost).

    The simulator runs the hidden true parameters; the learner sees only
    paths.  Exploration (lambda_explore > 0) keeps the permanent-impact
    regressor identifiable; an unidentifiable estimate is flagged in the
    trace and the previous estimate is kept.  A consistency solve failure is
    recorded and halts the loop.
    """
    config = config or TradingLoopConfig()
    grid = TimeGrid(0.0, true_params.T, config.steps)
    trace = LearningTrace()
    dataset = TradingDataset()
    current = init_params

    est = ParamEstimates(sigma_hat=init_params.sigma, lambda_hat=init_params.lambda_perm,
                         a_hat=init_params.a_temp, se_lambda=float("nan"),
                         se_a=float("nan"))
    for it in range(config.iterations + 1):
        identifiable = True
        if it > 0:
            try:
                est = estimate_params(dataset)
                current = MarketParams(
                    sigma=max(est.sigma_hat, 1e-8), lambda_perm=max(est.lambda_hat, 0.0),
                    a_temp=max(est.a_hat, 1e-10), phi_urgency=true_params.phi_urgency,
                    psi_terminal=true_params.psi_terminal, T=true_params.T,
                    F0=true_params.F0, q0=true_params.q0)
            except EstimationError:
                identifiable = False
        try:
            policy, gain_q0 = _plan(current, config.lambda_explore, config.steps)
        except (RuntimeError, ValueError) as exc:
            trace.rows.append({"iteration": it, "failed": True, "error": str(exc),
                               "n_rows": dataset.n_rows, "identifiable": identifiable})
            return trace
        first = it * config.inner_repeats
        paths = simulate_market(true_params, policy, config.n_traders, grid, config.seed,
                                episodes=range(first, first + config.inner_repeats))
        dataset.append(paths)
        cost = realized_cost(paths, true_params)
        del paths           # a phase's batch is not kept through the next estimate
        trace.rows.append({
            "iteration": it,
            **asdict(est),            # at it = 0 the initial parameters
            "gain_q0": gain_q0,
            "cost": cost,
            "n_rows": dataset.n_rows,
            "identifiable": identifiable,
            "failed": False,
        })
    return trace
