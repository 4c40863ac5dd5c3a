"""Finite-population and representative-agent simulation, empirical
discounted costs, and the convergence-rate / epsilon-Nash / cost-of-
exploration experiments.

Simulation scheme: Euler-Maruyama with fixed step dt.  Exploratory-mode
drift follows the exploratory finite-population dynamics: an agent's state
responds to its policy MEAN and to the population average of means, never
to the sampled actions -- sampled actions are recorded for cost estimation
and covariance checks only.  A deterministic classical feedback applies the
same numbers (its control equals the policy mean), so the two modes share
one kernel and, for a shared seed, one state path.

Noise discipline: one stream per noise pack, ``rng_stream(seed, rep)``,
drawn up-front.  Agent i owns row i of that stream, in a fixed order
(initial state, then per-node action noise, then Brownian increments), so
its noise depends on (seed, rep, i) only, not on N.  Coupled experiments
replay the identical noise pack in the finite and limiting systems (common
random numbers), which is what makes the gap statistics estimable at desk
scale.

Paths are stepped time-major: node i of every agent is one contiguous
(N, .) block, and the batch exposes (N, nodes, .) views of those arrays.

The experiments compute only what they read.  The coupling gap runs both
systems to its checkpoint only, on the head of the full noise pack (the
stream is unchanged), in classical mode, whose states are bitwise those of
the exploratory run.  ``empirical_cost`` works through agents in blocks, so
its memory does not grow with the population.  ``coe_experiment`` draws its
normals a chunk of nodes at a time, the same stream as one draw per node,
and keeps only the current chunk's states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .meanfield import MeanFieldSolution
from .model import PopulationSpec
from .numerics import TimeGrid, cholesky_psd, fit_rate, rng_stream
from .riccati import feedback_gain

__all__ = [
    "SimConfig",
    "SimulationBatch",
    "CostEstimate",
    "AgentNoise",
    "PolicyDeviation",
    "ExperimentResult",
    "draw_noise",
    "exact_counts",
    "simulate_population",
    "simulate_representative",
    "empirical_cost",
    "coupling_gap_experiment",
    "cost_gap_experiment",
    "nash_deviation_experiment",
    "coe_experiment",
    "write_experiment_csv",
]

# rows per draw in draw_noise: about 1 MiB of float64 at a time
_BLOCK_BYTES = 1 << 20
# nodes per time-major noise copy in _simulate
_NOISE_CHUNK = 16
# agents per block in empirical_cost
_COST_BLOCK = 256


def exact_counts(pi: np.ndarray, N: int) -> tuple[int, ...]:
    """Per-type counts matching the mixture as closely as N allows.

    Floors pi_k * N and hands out the remainder by largest fractional part
    (ties to the lower index), so counts are deterministic and sum to N.
    """
    pi = np.asarray(pi, dtype=float)
    raw = pi * N
    counts = np.floor(raw).astype(int)
    rem = N - counts.sum()
    if rem > 0:
        order = np.argsort(-(raw - counts), kind="stable")
        for idx in order[:rem]:
            counts[idx] += 1
    return tuple(int(c) for c in counts)


@dataclass(frozen=True)
class SimConfig:
    """Population simulation setup; counts must sum to N."""

    N: int
    counts: tuple[int, ...]
    grid: TimeGrid
    seed: int
    mode: str = "exploratory"
    coupling: str = "common-random-numbers"

    def __post_init__(self):
        if sum(self.counts) != self.N:
            raise ValueError(f"counts {self.counts} do not sum to N={self.N}")
        if self.mode not in ("classical", "exploratory"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.coupling not in ("independent", "common-random-numbers"):
            raise ValueError(f"unknown coupling {self.coupling!r}")


@dataclass(frozen=True)
class PolicyDeviation:
    """Admissible deviation from the equilibrium policy: a constant shift of
    the Gaussian mean and/or a scaling of its covariance."""

    mean_shift: np.ndarray | None = None
    cov_scale: float = 1.0

    def __post_init__(self):
        # a zero scale is no density (its entropy is -inf); a negative or
        # non-finite one would turn the sampled actions into NaN
        if not (math.isfinite(self.cov_scale) and self.cov_scale > 0):
            raise ValueError(f"cov_scale must be finite and positive, "
                             f"got {self.cov_scale!r}")

    def shift(self, m: int) -> np.ndarray:
        if self.mean_shift is None:
            return np.zeros(m)
        return np.atleast_1d(np.asarray(self.mean_shift, dtype=float))


@dataclass
class AgentNoise:
    """Pre-drawn per-agent noise: initial state, per-node action noise,
    per-step Brownian increments (standard normal, unscaled)."""

    x0_z: np.ndarray      # (N, n)
    action_z: np.ndarray  # (N, nodes, m)
    dW: np.ndarray        # (N, steps, r)

    @property
    def N(self) -> int:
        return self.x0_z.shape[0]

    def subset(self, idx) -> "AgentNoise":
        return AgentNoise(self.x0_z[idx], self.action_z[idx], self.dW[idx])

    def head(self, steps: int) -> "AgentNoise":
        """The noise of the first ``steps`` steps (views, no copy)."""
        return AgentNoise(self.x0_z, self.action_z[:, :steps + 1],
                          self.dW[:, :steps])


def draw_noise(seed: int, N: int, steps: int, n: int, m: int, r: int,
               rep: int = 0) -> AgentNoise:
    """Noise pack ``rep`` of ``seed``: one stream, ``rng_stream(seed, rep)``.

    The values are those of one C-order (N, n + (steps+1)*m + steps*r) draw,
    row i being agent i's initial state, action noise and increments, so row
    i depends only on i, not on N.  The draw is made in blocks of rows, and
    each array of the pack is allocated on its own.
    """
    nodes = steps + 1
    x0_z = np.empty((N, n))
    action_z = np.empty((N, nodes, m))
    dW = np.empty((N, steps, r))
    a = n + nodes * m
    w = a + steps * r
    rng = rng_stream(seed, rep)
    block = max(1, _BLOCK_BYTES // (8 * w))
    for lo in range(0, N, block):
        hi = min(N, lo + block)
        z = rng.standard_normal((hi - lo, w))
        x0_z[lo:hi] = z[:, :n]
        action_z[lo:hi] = z[:, n:a].reshape(hi - lo, nodes, m)
        dW[lo:hi] = z[:, a:].reshape(hi - lo, steps, r)
    return AgentNoise(x0_z, action_z, dW)


@dataclass
class SimulationBatch:
    """Per-agent paths plus the empirical averages they induce.

    xref carries the tracking reference: the empirical average state for a
    finite population (y = psi_k x^(N)), or the solved stacked mean state
    for representative paths (y = psibar_k xbar).  states, actions and means
    are (N, nodes, .) views of time-major (nodes, N, .) arrays.
    """

    grid: TimeGrid
    mode: str
    types: np.ndarray          # (N,)
    states: np.ndarray         # (N, nodes, n)
    actions: np.ndarray        # (N, nodes, m)
    means: np.ndarray          # (N, nodes, m)
    dW: np.ndarray             # (N, steps, r)
    x_avg: np.ndarray          # (nodes, n)
    mu_avg: np.ndarray         # (nodes, m)
    xref: np.ndarray           # (nodes, n) or (nodes, nK)
    infinite: bool
    cov_scales: np.ndarray     # (N,) covariance scale per agent (deviations)

    @property
    def N(self) -> int:
        return self.states.shape[0]


@dataclass(frozen=True)
class CostEstimate:
    mean: float
    std_err: float
    per_agent: np.ndarray
    mode: str
    truncation_bound: float


class _PolicyTables:
    """Equilibrium feedback per type, tabulated on the simulation grid."""

    def __init__(self, spec: PopulationSpec, mf: MeanFieldSolution, grid: TimeGrid):
        ts = grid.times()
        self.gain = []     # (m, n) multiplying the own state, with sign: mean = -gain x + off
        self.offset = []   # (nodes, m)
        self.cov_chol = []
        self.b_tab = []
        xbar_t = mf.xbar.interp(ts)                      # (nodes, nK)
        for k, p in enumerate(spec.subpops):
            gain = feedback_gain(p, mf.Pi[k].Pi)
            s_t = mf.s[k].interp(ts)                     # (nodes, n)
            psibar = spec.psibar(k)
            # off = -R^-1 (B^T s - S^T psibar xbar + n); mean = -gain x + off
            inner = s_t @ p.B - (xbar_t @ psibar.T) @ p.S + p.nvec[None, :]
            off = -np.linalg.solve(p.R, inner.T).T
            self.gain.append(gain)
            self.offset.append(off)
            cov = p.lambda_explore * np.linalg.inv(p.R)
            self.cov_chol.append(cholesky_psd(0.5 * (cov + cov.T)))
            self.b_tab.append(p.b(ts))


def _type_slices(counts) -> list[slice]:
    out, start = [], 0
    for c in counts:
        out.append(slice(start, start + c))
        start += c
    return out


def _deviation_arrays(deviations: dict[int, PolicyDeviation] | None,
                      N: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-agent mean shifts (N, m) and covariance scales (N,) for a
    deviation dict keyed by agent index; zero and one for the others."""
    shifts = np.zeros((N, m))
    scales = np.ones(N)
    for idx, dev in (deviations or {}).items():
        if not 0 <= idx < N:
            raise ValueError(f"deviation for agent {idx} outside [0, {N})")
        shifts[idx] = dev.shift(m)
        scales[idx] = dev.cov_scale
    return shifts, scales


def _simulate(spec: PopulationSpec, mf: MeanFieldSolution, grid: TimeGrid,
              counts, noise: AgentNoise, mode: str,
              deviations: dict[int, PolicyDeviation] | None,
              exogenous_field: bool) -> SimulationBatch:
    K = spec.K
    n, m = spec.n, spec.m
    N = sum(counts)
    steps, dt = grid.steps, grid.dt
    nodes = steps + 1
    sqdt = math.sqrt(dt)
    tables = _PolicyTables(spec, mf, grid)
    slices = _type_slices(counts)
    types = np.repeat(np.arange(K), counts)

    # time-major: node i of all agents is one contiguous block, written in place
    states = np.empty((nodes, N, n))
    means = np.empty((nodes, N, m))
    actions = np.empty((nodes, N, m))
    x_avg = np.empty((nodes, n))
    mu_avg = np.empty((nodes, m))

    L0 = cholesky_psd(spec.x0_cov)
    states[0] = spec.x0_mean[None, :] + noise.x0_z @ L0.T

    shifts, cov_scales = _deviation_arrays(deviations, N, m)
    sd_scales = np.sqrt(cov_scales)[:, None]

    if exogenous_field:
        ts = grid.times()
        xbar_t = mf.xbar.interp(ts)
        mubar_t = mf.mubar.interp(ts)
        field_drift = [xbar_t @ spec.Fbar(k).T + mubar_t @ spec.Hbar(k).T
                       for k in range(K)]

    x = states[0]
    for i in range(nodes):
        c = i % _NOISE_CHUNK
        if c == 0:
            # time-major copies of the next chunk of nodes' noise: node i then
            # reads contiguous rows, without a time-major copy of the whole pack
            if mode == "exploratory":
                az = noise.action_z[:, i:i + _NOISE_CHUNK].transpose(1, 0, 2).copy()
            dw = noise.dW[:, i:i + _NOISE_CHUNK].transpose(1, 0, 2).copy()
        mu = means[i]
        for k, sl in enumerate(slices):
            mu[sl] = -(x[sl] @ tables.gain[k].T) + tables.offset[k][i][None, :]
        mu += shifts
        u = actions[i]
        if mode == "exploratory":
            for k, sl in enumerate(slices):
                u[sl] = mu[sl] + sd_scales[sl] * (az[c, sl]
                                                  @ tables.cov_chol[k].T)
        else:
            u[...] = mu
        x_avg[i] = x.mean(axis=0)
        mu_avg[i] = mu.mean(axis=0)
        if i == steps:
            break
        x_new = states[i + 1]
        for k, sl in enumerate(slices):
            p = spec.subpops[k]
            drift = x[sl] @ p.A.T + mu[sl] @ p.B.T + tables.b_tab[k][i][None, :]
            if exogenous_field:
                drift += field_drift[k][i][None, :]
            else:
                drift += x_avg[i] @ p.F.T + mu_avg[i] @ p.H.T
            x_new[sl] = x[sl] + dt * drift + sqdt * (dw[c, sl] @ p.D.T)
        if not np.all(np.isfinite(x_new)):
            bad = np.argwhere(~np.isfinite(x_new))[0]
            raise RuntimeError(
                f"non-finite state for agent {bad[0]} at t={grid.times()[i + 1]:.4g}")
        x = x_new

    xref = mf.xbar.interp(grid.times()) if exogenous_field else x_avg
    return SimulationBatch(grid=grid, mode=mode, types=types,
                           states=states.transpose(1, 0, 2),
                           actions=actions.transpose(1, 0, 2),
                           means=means.transpose(1, 0, 2), dW=noise.dW,
                           x_avg=x_avg, mu_avg=mu_avg, xref=xref,
                           infinite=exogenous_field, cov_scales=cov_scales)


def simulate_population(spec: PopulationSpec, mf: MeanFieldSolution,
                        config: SimConfig,
                        deviations: dict[int, PolicyDeviation] | None = None,
                        noise: AgentNoise | None = None) -> SimulationBatch:
    """Simulate the N-agent system under the equilibrium policies.

    The drift couples through the empirical averages: the average state and,
    following the exploratory dynamics, the average of policy MEANS (which
    in classical mode equals the average applied control).

    ``deviations`` maps agent indices, in the block (type-sorted) layout of
    ``config.counts``, to a ``PolicyDeviation``: its ``mean_shift`` is added
    to the policy mean, and so drives the drift; its ``cov_scale`` scales
    the covariance of the sampled actions only.
    """
    if noise is None:
        noise = draw_noise(config.seed, config.N, config.grid.steps,
                           spec.n, spec.m, spec.subpops[0].r)
    if noise.N != config.N or noise.dW.shape[1] != config.grid.steps:
        raise ValueError("noise pack does not match config dimensions")
    return _simulate(spec, mf, config.grid, config.counts, noise, config.mode,
                     deviations, exogenous_field=False)


def simulate_representative(spec: PopulationSpec, mf: MeanFieldSolution,
                            grid: TimeGrid, seed: int, k: int = 0,
                            n_paths: int = 1, mode: str = "exploratory",
                            noise: AgentNoise | None = None,
                            deviations: dict[int, PolicyDeviation] | None = None,
                            types: np.ndarray | None = None) -> SimulationBatch:
    """Simulate paths of the limiting (infinite-population) dynamics, where
    the couplings are driven by the solved xbar(t), mubar(t) instead of
    empirical averages.  ``types`` assigns one type per path (default: all k).

    ``deviations`` maps path indices, in that block (type-sorted) layout, to
    a ``PolicyDeviation``: its ``mean_shift`` is added to the policy mean,
    and so drives the drift; its ``cov_scale`` scales the covariance of the
    sampled actions only.
    """
    if types is None:
        counts = tuple(n_paths if j == k else 0 for j in range(spec.K))
    else:
        types = np.asarray(types, dtype=int)
        counts = tuple(int(np.sum(types == j)) for j in range(spec.K))
        if not np.all(np.diff(types) >= 0):
            raise ValueError("types must be sorted ascending (block layout)")
        n_paths = types.size
    if noise is None:
        noise = draw_noise(seed, n_paths, grid.steps, spec.n, spec.m,
                           spec.subpops[0].r)
    return _simulate(spec, mf, grid, counts, noise, mode, deviations,
                     exogenous_field=True)


# ---------------------------------------------------------------------------
# Empirical discounted costs
# ---------------------------------------------------------------------------

def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum(a * b, axis=-1), one product per column: faster than einsum or
    a reduction when the last axis is a state or control dimension."""
    out = a[..., 0] * b[..., 0]
    for i in range(1, a.shape[-1]):
        out += a[..., i] * b[..., i]
    return out


def _entropy_for(p, cov_scale: float) -> float:
    """lambda * H(Phi) for the (possibly variance-scaled) Gaussian policy;
    vanishes with the exploration weight (lambda ln lambda -> 0)."""
    lam = p.lambda_explore
    if lam <= 0:
        return 0.0
    cov = cov_scale * lam * np.linalg.inv(p.R)
    _sign, logdet = np.linalg.slogdet(2.0 * np.pi * np.e * cov)
    return lam * 0.5 * float(logdet)


def empirical_cost(batch: SimulationBatch, spec: PopulationSpec, k: int,
                   mode: str, rho: float, agents=None,
                   tail_tol: float | None = None) -> CostEstimate:
    """Discounted trapezoid cost along each selected agent path of type k.

    Modes: 'classical' evaluates the running cost at the applied actions;
    'exploratory' integrates the running cost against the Gaussian policy
    (closed form in its mean and covariance); 'exploratory-regularized'
    additionally charges the entropy term lambda * ln-density, a
    state-independent rate for Gaussian policies.

    When ``tail_tol`` is given, the reported truncation bound must not
    exceed tail_tol * (1 + |mean|); otherwise the horizon is too short for
    the requested discount.

    Agents are costed in blocks of ``_COST_BLOCK``, read time-major, so the
    temporaries stay a few (nodes, block) arrays whatever the population.
    """
    if mode not in ("classical", "exploratory", "exploratory-regularized"):
        raise ValueError(f"unknown cost mode {mode!r}")
    if rho <= 0:
        raise ValueError("empirical_cost needs rho > 0")
    p = spec.subpops[k]
    if agents is None:
        agents = np.flatnonzero(batch.types == k)
    agents = np.asarray(agents, dtype=int)
    grid = batch.grid
    ts = grid.times()
    psib = spec.psibar(k) if batch.infinite else p.psi
    y = batch.xref @ psib.T                               # (nodes, n)

    # time-major (nodes, N, .): a block of agents is one gather per node
    states = batch.states.transpose(1, 0, 2)
    if mode == "classical":
        controls, rate = batch.actions.transpose(1, 0, 2), None
    else:
        controls = batch.means.transpose(1, 0, 2)
        # tr(R cov) / 2, the mean of (u - mu)^T R (u - mu) / 2, per agent
        scales = batch.cov_scales[agents]
        rate = 0.5 * np.trace(p.R @ (p.lambda_explore * np.linalg.inv(p.R))) * scales
        if mode == "exploratory-regularized":
            # one slogdet per distinct scale, not per agent
            uniq, inv = np.unique(scales, return_inverse=True)
            rate = rate - np.array([_entropy_for(p, s) for s in uniq])[inv]
    half_q, half_r = 0.5 * p.Q, 0.5 * p.R

    disc = np.exp(-rho * ts)
    w = np.full(ts.shape, grid.dt)
    w[0] *= 0.5
    w[-1] *= 0.5
    dw = disc * w
    tail = grid.steps // 4 + 1
    per_agent = np.empty(agents.size)
    late = 0.0
    for lo in range(0, agents.size, _COST_BLOCK):
        blk = slice(lo, lo + _COST_BLOCK)
        # running cost (e Q/2 + u S^T + eta) . e + (u R/2 + n) . u, with
        # e = x - y and u the applied action (classical) or the policy mean
        e = np.take(states, agents[blk], axis=1)
        e -= y[:, None, :]
        u = np.take(controls, agents[blk], axis=1)
        g = e @ half_q
        g += u @ p.S.T
        g += p.eta
        running = _rowdot(g, e)                           # (nodes, block)
        g = u @ half_r
        g += p.nvec
        running += _rowdot(g, u)
        if rate is not None:
            running += rate[blk]
        per_agent[blk] = dw @ running
        late = max(late, float(np.max(np.abs(running[-tail:]))))

    bound = 1.5 * late * math.exp(-rho * grid.t1) / rho
    mean = float(per_agent.mean())
    if tail_tol is not None and bound > tail_tol * (1.0 + abs(mean)):
        raise ValueError(f"horizon too short for rho (truncation bound {bound:.3g})")
    se = float(per_agent.std(ddof=1) / math.sqrt(per_agent.size)) if per_agent.size > 1 else 0.0
    return CostEstimate(mean=mean, std_err=se, per_agent=per_agent, mode=mode,
                        truncation_bound=bound)


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

@dataclass
class ExperimentResult:
    name: str
    rows: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)


def _safe_slope(Ns, values):
    """Log-log rate when estimable (>= 3 sizes, strictly positive values)."""
    vals = np.asarray(values, dtype=float)
    if len(Ns) < 3 or np.any(vals <= 0):
        return None
    return fit_rate(np.asarray(Ns, dtype=float), vals)


def _experiment_grid(grid: TimeGrid | None, T: float = 4.0, dt: float = 0.01) -> TimeGrid:
    return grid if grid is not None else TimeGrid(0.0, T, int(round(T / dt)))


def coupling_gap_experiment(spec: PopulationSpec, mf: MeanFieldSolution,
                            Ns, reps: int, seed: int,
                            grid: TimeGrid | None = None,
                            checkpoint_frac: float = 0.5,
                            coupling: str = "common-random-numbers") -> ExperimentResult:
    """Mean squared gap between each agent's finite-N path and its limiting
    path, per N, with the fitted log-log rate.

    The default replays each agent's noise in both systems, the same-noise
    coupling that makes the O(1/N) decay measurable; 'independent' draws
    fresh noise for the limiting run, which buries that decay under an O(1)
    variance offset and is provided for comparison only.

    Each repetition draws the full-grid pack, so the streams do not depend
    on the checkpoint, but both systems are stepped only up to the
    checkpoint and in classical mode (no sampled actions).  The states
    there are bitwise those of full exploratory runs whenever the truncated
    grid's nodes equal the full grid's, which ``linspace`` may miss by an
    ulp.
    """
    grid = _experiment_grid(grid)
    ts = grid.times()
    ck = int(round(checkpoint_frac * grid.steps))
    t_ck = ts[ck]
    run = max(ck, 1)                          # steps simulated
    sub = TimeGrid(grid.t0, float(ts[run]), run)
    res = ExperimentResult("coupling-gap")
    means, ses = [], []
    for N in Ns:
        counts = exact_counts(spec.pi, N)
        types = np.repeat(np.arange(spec.K), counts)
        vals = np.empty(reps)
        for rep in range(reps):
            pack = draw_noise(seed, N, grid.steps, spec.n, spec.m,
                              spec.subpops[0].r, rep=rep).head(run)
            cfg = SimConfig(N=N, counts=counts, grid=sub, seed=seed,
                            mode="classical", coupling=coupling)
            fin = simulate_population(spec, mf, cfg, noise=pack)
            if coupling == "common-random-numbers":
                pack_inf = pack
            else:
                # packs reps..2*reps-1: no stream shared with the finite run
                pack_inf = draw_noise(seed, N, grid.steps, spec.n, spec.m,
                                      spec.subpops[0].r, rep=reps + rep).head(run)
            inf = simulate_representative(spec, mf, sub, seed, mode="classical",
                                          noise=pack_inf, types=types)
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
    slope = _safe_slope(Ns, means)
    res.summary = {"Ns": list(Ns), "gap_means": means, "gap_std_errs": ses,
                   "slope": slope, "checkpoint_t": t_ck, "reps": reps}
    return res


def cost_gap_experiment(spec: PopulationSpec, mf: MeanFieldSolution,
                        Ns, reps: int, seed: int,
                        deviation: PolicyDeviation | None = None,
                        grid: TimeGrid | None = None,
                        mode: str = "exploratory-regularized") -> ExperimentResult:
    """|J_i^N - J_i^infty| for a tagged agent playing a fixed deviation while
    everyone else plays the equilibrium policy; common random numbers pair
    the finite and limiting runs."""
    grid = _experiment_grid(grid, T=6.0)
    if deviation is None:
        deviation = PolicyDeviation(mean_shift=np.full(spec.m, 0.5))
    devs = {0: deviation}
    res = ExperimentResult("cost-gap")
    gaps, ses = [], []
    k0 = 0
    for N in Ns:
        counts = exact_counts(spec.pi, N)
        diffs = np.empty(reps)
        for rep in range(reps):
            pack = draw_noise(seed, N, grid.steps, spec.n, spec.m,
                              spec.subpops[0].r, rep=rep)
            cfg = SimConfig(N=N, counts=counts, grid=grid, seed=seed)
            fin = simulate_population(spec, mf, cfg, deviations=devs, noise=pack)
            inf = simulate_representative(spec, mf, grid, seed, k=k0, n_paths=1,
                                          noise=pack.subset(slice(0, 1)),
                                          deviations=devs)
            cN = empirical_cost(fin, spec, k0, mode, spec.rho, agents=[0])
            cI = empirical_cost(inf, spec, k0, mode, spec.rho, agents=[0])
            diffs[rep] = cN.per_agent[0] - cI.per_agent[0]
            res.rows.append({"experiment": "cost-gap", "N": N, "rep": rep,
                             "checkpoint_t": grid.t1, "value": diffs[rep],
                             "std_err": ""})
        gaps.append(abs(diffs.mean()))
        ses.append(diffs.std(ddof=1) / math.sqrt(reps) if reps > 1 else 0.0)
        res.rows.append({"experiment": "cost-gap", "N": N, "rep": -1,
                         "checkpoint_t": grid.t1, "value": gaps[-1],
                         "std_err": ses[-1]})
    slope = _safe_slope(Ns, gaps)
    res.summary = {"Ns": list(Ns), "cost_gaps": gaps, "gap_std_errs": ses,
                   "slope": slope, "reps": reps,
                   "deviation": {"mean_shift": deviation.shift(spec.m).tolist(),
                                 "cov_scale": deviation.cov_scale}}
    return res


def nash_deviation_experiment(spec: PopulationSpec, mf: MeanFieldSolution,
                              N: int, deviation_family, reps: int, seed: int,
                              grid: TimeGrid | None = None,
                              mode: str = "exploratory-regularized") -> ExperimentResult:
    """Best gain a tagged agent can extract from a finite deviation family:
    eps-hat = max(0, J^N(equilibrium) - min over family J^N(deviation)).

    A lower bound on the true epsilon (the infimum over all admissible
    policies is not computable); identical seeds across family members keep
    the comparison paired.
    """
    grid = _experiment_grid(grid, T=6.0)
    counts = exact_counts(spec.pi, N)
    k0 = 0
    res = ExperimentResult("nash")
    cfg = SimConfig(N=N, counts=counts, grid=grid, seed=seed)
    family = list(deviation_family)

    # One noise pack at a time: every member runs on the same pack (paired
    # comparison), which is dropped before the next repetition is drawn.
    costs = np.empty((1 + len(family), reps))      # row 0: equilibrium
    for rep in range(reps):
        pack = draw_noise(seed, N, grid.steps, spec.n, spec.m,
                          spec.subpops[0].r, rep=rep)
        for j, dev in enumerate([None] + family):
            fin = simulate_population(spec, mf, cfg, noise=pack,
                                      deviations={0: dev} if dev is not None else None)
            costs[j, rep] = empirical_cost(fin, spec, k0, mode, spec.rho,
                                           agents=[0]).per_agent[0]

    base_mean = costs[0].mean()
    dev_means = []
    for j, vals in enumerate(costs[1:]):
        dev_means.append(vals.mean())
        res.rows.append({"experiment": "nash", "N": N, "rep": j,
                         "checkpoint_t": grid.t1, "value": dev_means[-1],
                         "std_err": vals.std(ddof=1) / math.sqrt(reps) if reps > 1 else 0.0})
    eps_hat = max(0.0, base_mean - min(dev_means)) if dev_means else 0.0
    res.rows.append({"experiment": "nash", "N": N, "rep": -1,
                     "checkpoint_t": grid.t1, "value": eps_hat, "std_err": ""})
    res.summary = {"N": N, "eps_hat": eps_hat, "equilibrium_cost": base_mean,
                   "deviation_costs": dev_means, "reps": reps}
    return res


def coe_experiment(spec: PopulationSpec, mf: MeanFieldSolution, k: int,
                   reps: int, seed: int, grid: TimeGrid | None = None) -> ExperimentResult:
    """Monte Carlo cost of exploration for a representative agent of type k.

    One batch of limiting paths serves both runs: the state path is the same
    whether actions are sampled or the classical control is applied (the
    drift responds to the policy mean either way, coupled by construction),
    so the estimate is the discounted integral of the control-cost
    difference along that path.

    Streaming kernel on one stream, ``default_rng(seed)``: the initial
    states, then per node the action noise and (before the last node) the
    Brownian increments.  Chunks of about 1 MiB of nodes are drawn in one
    call each, which yields the values of one draw per node; only the
    states of the current chunk are kept.
    """
    rho = spec.rho
    if rho <= 0:
        raise ValueError("cost of exploration needs rho > 0")
    if grid is None:
        T = math.log(2e5) / rho
        steps = min(int(math.ceil(T / 0.01)), 20000)
        grid = TimeGrid(0.0, T, steps)
    p = spec.subpops[k]
    n, m, r = p.n, p.m, p.r
    ts = grid.times()
    dt, steps = grid.dt, grid.steps
    nodes = steps + 1
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
    # Euler step (rows) under the policy mean mu = off - x gain^T:
    # x' = x step_mat + step_off[i] + sqrt(dt) dW D^T
    step_mat = (np.eye(n) + dt * (p.A - p.B @ gain)).T
    step_off = dt * (off @ p.B.T + field)
    # The control-cost difference of u = mu + du against mu is
    # ((du/2 + mu)^T R + e^T S + n^T) du, e = x - ybar.  With du = Lc z and
    # mu, e substituted it is (z zz + x xz + h[i]) . z: one matmul per
    # operand and one row-dot, every zero-mean cross term kept.
    zz = 0.5 * Lc.T @ p.R @ Lc
    xz = (p.S - gain.T @ p.R) @ Lc
    h = (off @ p.R - ybar @ p.S + p.nvec) @ Lc
    wdisc = dt * np.exp(-rho * ts)            # discounted trapezoid weights
    wdisc[[0, -1]] *= 0.5
    sqdt = math.sqrt(dt)

    # Node i draws z_i (reps, m) then, before the last node, dW_i (reps, r):
    # a chunk of nodes is one standard_normal fill of the same values.
    per_node = reps * (m + r)
    chunk = min(nodes, max(1, _BLOCK_BYTES // (8 * per_node)))
    buf = np.empty(chunk * per_node)
    X = np.empty((chunk + 1, reps, n))
    X[0] = spec.x0_mean[None, :] + rng.standard_normal((reps, n)) @ L0.T
    acc = np.zeros(reps)
    for lo in range(0, nodes, chunk):
        c = min(chunk, nodes - lo)
        cw = min(c, steps - lo)                 # Euler steps in this chunk
        rng.standard_normal(out=buf[:c * per_node - (c - cw) * reps * r])
        zw = buf[:c * per_node].reshape(c, per_node)
        z = zw[:, :reps * m].reshape(c, reps, m)
        kick = sqdt * (zw[:cw, reps * m:].reshape(cw, reps, r) @ p.D.T)
        kick += step_off[lo:lo + cw, None, :]
        for j in range(cw):
            np.matmul(X[j], step_mat, out=X[j + 1])
            X[j + 1] += kick[j]
        g = z @ zz + X[:c] @ xz
        g += h[lo:lo + c, None, :]
        acc += wdisc[lo:lo + c] @ _rowdot(g, z)
        X[0] = X[c]
    est = float(acc.mean())
    se = float(acc.std(ddof=1) / math.sqrt(reps))
    from .policy import analytic_coe
    ana = analytic_coe(k, spec)
    res = ExperimentResult("coe")
    res.rows.append({"experiment": "coe", "N": reps, "rep": -1,
                     "checkpoint_t": grid.t1, "value": est, "std_err": se})
    res.summary = {"estimate": est, "std_err": se, "analytic": ana,
                   "ci95": [est - 1.96 * se, est + 1.96 * se], "reps": reps}
    return res


def write_experiment_csv(path, rows) -> None:
    """Fixed schema (experiment, N, rep, checkpoint_t, value, std_err);
    '.' decimal, deterministic %.12g formatting."""
    def fmt(v):
        if isinstance(v, str):
            return v
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return f"{float(v):.12g}"

    cols = ["experiment", "N", "rep", "checkpoint_t", "value", "std_err"]
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(fmt(row.get(c, "")) for c in cols))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
