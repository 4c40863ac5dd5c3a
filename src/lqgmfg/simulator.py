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

One kernel, ``_euler``, steps every population path, time-major: node i of
a batch of populations is one contiguous block.  A population holds agents
carried one by one, each with its own deviation, and, by superposition
(the epsilon-Nash argument of Huang, Caines & Malhame, IEEE TAC 52(9),
2007), the per-type state sums of the others: the system is linear, so the
untagged agents of a type enter only through their sum.
``simulate_population`` carries every agent of one population;
``simulate_representative`` carries every path under the solved mean
field; the coupling gap steps sums only, on each pack's per-type noise
sums; the cost gap and the epsilon-Nash experiment step the sums plus one
tagged row, for every (deviation, repetition) at once.  The experiments
compute only what they read.  ``empirical_cost`` works through agents in
blocks, so its memory does not grow with the population.
``coe_experiment`` keeps its own fused loop on its own stream (see there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .meanfield import MeanFieldSolution
from .model import PopulationSpec
from .numerics import (TimeGrid, cholesky_psd, fit_rate, rng_stream, trapezoid_weights,
                       write_csv)
from .policy import analytic_coe, exploration_covariance, gaussian_entropy, tabulate_policy

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
# nodes per time-major noise copy in _euler
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

    def __post_init__(self):
        if sum(self.counts) != self.N:
            raise ValueError(f"counts {self.counts} do not sum to N={self.N}")
        if self.mode not in ("classical", "exploratory"):
            raise ValueError(f"unknown mode {self.mode!r}")


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
        """The mean shift as an m-vector; zero when none was given."""
        if self.mean_shift is None:
            return np.zeros(m)
        shift = np.atleast_1d(np.asarray(self.mean_shift, dtype=float))
        if shift.shape != (m,):
            raise ValueError(f"mean_shift {self.mean_shift!r} is not a vector of "
                             f"the control dimension m={m}")
        return shift


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


def _limiting_field(spec: PopulationSpec, mf: MeanFieldSolution,
                    ts: np.ndarray) -> np.ndarray:
    """Fbar_k xbar(t) + Hbar_k mubar(t), the limiting coupling of each type,
    (nodes, K, n)."""
    xbar, mubar = mf.xbar.interp(ts), mf.mubar.interp(ts)
    return np.stack([xbar @ spec.Fbar(k).T + mubar @ spec.Hbar(k).T
                     for k in range(spec.K)], axis=1)


def _type_slices(counts) -> list[slice]:
    out, start = [], 0
    for c in counts:
        out.append(slice(start, start + c))
        start += c
    return out


@dataclass
class _NoiseSums:
    """Noise packs reduced to what the kernel reads: per-type sums over the
    untagged agents of the initial-state normals (R, K, n) and of the
    increments, time-major (steps, R, K, r), and each pack's tagged rows
    (R, C, .), C being 0 or 1."""

    x0: np.ndarray
    dW: np.ndarray
    tag: AgentNoise


def _noise_sums(packs, counts, steps: int, tag_type: int | None = None) -> _NoiseSums:
    """Reduce each pack as it comes, so one pack is held at a time.  With
    ``tag_type``, the first agent of that type is the tagged agent: its row
    is kept whole and left out of its type's sums."""
    slices = _type_slices(counts)
    tag = slice(0, 0)
    if tag_type is not None:
        if counts[tag_type] < 1:
            raise ValueError(f"no agent of type {tag_type} to tag")
        t = slices[tag_type].start
        tag, slices[tag_type] = slice(t, t + 1), slice(t + 1, slices[tag_type].stop)
    x0, dW, rows = [], [], []
    for pack in packs:
        x0.append([pack.x0_z[sl].sum(axis=0) for sl in slices])
        dW.append([pack.dW[sl, :steps].sum(axis=0) for sl in slices])
        # copies: a view of the row would keep the whole pack alive
        rows.append((pack.x0_z[tag].copy(), pack.action_z[tag, :steps + 1].copy(),
                     pack.dW[tag, :steps].copy()))
    return _NoiseSums(np.array(x0), np.array(dW).transpose(2, 0, 1, 3).copy(),
                      AgentNoise(*map(np.array, zip(*rows))))


def _lin(x: np.ndarray, M: np.ndarray) -> np.ndarray:
    """x @ M^T over the last axis, one column product at a time, so equal
    rows of a batch round alike wherever they sit in it."""
    out = x[..., None, 0] * M[..., 0]
    for j in range(1, M.shape[-1]):
        out += x[..., None, j] * M[..., j]
    return out


def _euler(spec: PopulationSpec, mf: MeanFieldSolution, grid: TimeGrid, counts,
           rows: AgentNoise, types, sums: _NoiseSums | None = None, shifts=0.0,
           scales=1.0, exogenous: bool = False, mode: str = "exploratory",
           steps: int | None = None):
    """The one Euler-Maruyama loop: every population path of the module.

    Steps a batch of populations of sum(counts) agents, the leading axes of
    the inputs broadcast together (none for one population).  The carried
    ``rows`` (..., C, .) of ``types`` (sorted) are agents stepped one by
    one, each with its own mean shift (..., C, m) and covariance scale
    (..., C).  The other counts[k] - C_k agents of type k play the same
    linear feedback, so with ``sums`` their state sum is stepped instead, by
    the same step with every term weighted by their number and driven by
    their noise sums: by superposition that is the population (Huang, Caines
    & Malhame, IEEE TAC 52(9), 2007).  The field couples through the
    population averages, or with ``exogenous`` is the solved mean field.
    One population takes its products with ``@``, as a batch does not:
    ``_lin`` rounds equal rows alike wherever they sit in the batch.

    Returns time-major states and policy means, (nodes, ..., K + C, .) with
    the per-type sums first when ``sums`` is given, the carried rows'
    actions (nodes, ..., C, m), and the population averages (nodes, ..., .),
    over the first ``steps`` steps (default: all) of ``grid``.
    """
    steps = grid.steps if steps is None else steps
    nodes, dt, sqdt = steps + 1, grid.dt, math.sqrt(grid.dt)
    K, n, m, N = spec.K, spec.n, spec.m, sum(counts)
    A, B, F, H, D = (np.array([getattr(p, f) for p in spec.subpops]) for f in "ABFHD")
    # each type's policy record on the grid: the blocks of spec with the solved Pi
    ts = grid.times()
    xbar = mf.xbar.interp(ts)
    pols = [tabulate_policy(spec, k, mf.Pi[k].Pi, grid, mf.s[k].interp(ts), xbar)
            for k in range(K)]
    ts = ts[:nodes]
    offset = np.stack([pol.offset[:nodes] for pol in pols], axis=1)   # (nodes, K, m)
    b_tab = np.stack([p.b(ts) for p in spec.subpops], axis=1)        # (nodes, K, n)
    field_t = _limiting_field(spec, mf, ts) if exogenous else None    # (nodes, K, n)
    batch = np.broadcast_shapes(rows.x0_z.shape[:-2], np.shape(shifts)[:-2],
                                np.shape(scales)[:-1])
    C = rows.x0_z.shape[-2]
    per_type = np.bincount(types, minlength=K)
    carried = [(k, sl) for k, sl in enumerate(_type_slices(per_type)) if per_type[k]]
    x0, weights, blocks = rows.x0_z, np.ones(C), []
    if sums is not None:
        # the per-type sums come first, as rows weighted by their counts
        c = np.asarray(counts, dtype=float) - per_type
        x0, weights = np.concatenate([sums.x0, x0], axis=-2), np.concatenate([c, weights])
        blocks = [(k, slice(k, k + 1), c[k]) for k in range(K)]
    own = slice(len(weights) - C, None)                 # the carried rows
    blocks += [(k, slice(own.start + sl.start, own.start + sl.stop), 1.0) for k, sl in carried]
    # a block's rows, its weighted offset and b tables, its weight
    blocks = [(k, sl, w * offset[:, k], w * b_tab[:, k], w) for k, sl, w in blocks]
    G, chol = (np.array([getattr(pol, f) for pol in pols]) for f in ("gain", "chol"))
    prod = _lin if batch else (lambda a, M: a @ M.T)
    sd = np.sqrt(np.broadcast_to(scales, batch + (C,)))[..., None]

    states = np.empty((nodes,) + batch + (len(weights), n))
    means = np.empty((nodes,) + batch + (len(weights), m))
    actions = np.empty((nodes,) + batch + (C, m))
    x_avg = np.empty((nodes,) + batch + (n,))
    mu_avg = np.empty((nodes,) + batch + (m,))
    states[0] = weights[:, None] * spec.x0_mean + prod(x0, cholesky_psd(spec.x0_cov))
    for i in range(nodes):
        j = i % _NOISE_CHUNK
        if j == 0:
            # time-major copies of the next chunk of nodes' noise: node i then
            # reads contiguous rows, without a time-major copy of the whole pack
            az, dw = (np.moveaxis(a[..., i:i + _NOISE_CHUNK, :], -2, 0).copy()
                      for a in (rows.action_z, rows.dW))
            if sums is not None:
                dw = np.concatenate([sums.dW[i:i + _NOISE_CHUNK], dw], axis=-2)
        x, mu, u = states[i], means[i], actions[i]
        for k, sl, off, _, _ in blocks:
            mu[..., sl, :] = off[i] - prod(x[..., sl, :], G[k])
        mu[..., own, :] += shifts
        u[...] = mu[..., own, :]
        if mode == "exploratory":
            for k, sl in carried:
                u[..., sl, :] += sd[..., sl, :] * prod(az[j][..., sl, :], chol[k])
        xa = x_avg[i] = x.sum(axis=-2) / N
        ma = mu_avg[i] = mu.sum(axis=-2) / N
        if not np.all(np.isfinite(xa)):
            raise RuntimeError(f"non-finite state at t={ts[i]:.4g}")
        if i == steps:
            break
        field = (field_t[i] if exogenous else
                 [(prod(xa, F[k]) + prod(ma, H[k]))[..., None, :] for k in range(K)])
        for k, sl, _, b, w in blocks:
            drift = prod(x[..., sl, :], A[k]) + prod(mu[..., sl, :], B[k]) + b[i]
            drift += w * field[k]
            states[i + 1][..., sl, :] = (x[..., sl, :] + dt * drift
                                         + sqdt * prod(dw[j][..., sl, :], D[k]))
    return states, means, actions, x_avg, mu_avg


def _agent_batch(spec: PopulationSpec, mf: MeanFieldSolution, grid: TimeGrid,
                 types: np.ndarray, noise: AgentNoise, mode: str,
                 deviations: dict[int, PolicyDeviation] | None,
                 exogenous: bool) -> SimulationBatch:
    """One population of agents of ``types`` (sorted), every one carried by
    ``_euler``; ``deviations`` keyed by agent index."""
    N, m = types.size, spec.m
    shifts, cov_scales = np.zeros((N, m)), np.ones(N)
    for idx, dev in (deviations or {}).items():
        if not 0 <= idx < N:
            raise ValueError(f"deviation for agent {idx} outside [0, {N})")
        shifts[idx], cov_scales[idx] = dev.shift(m), dev.cov_scale
    states, means, actions, x_avg, mu_avg = _euler(
        spec, mf, grid, np.bincount(types, minlength=spec.K), noise, types,
        shifts=shifts, scales=cov_scales, exogenous=exogenous, mode=mode)
    xref = mf.xbar.interp(grid.times()) if exogenous else x_avg
    return SimulationBatch(grid=grid, mode=mode, types=types,
                           states=states.transpose(1, 0, 2),
                           actions=actions.transpose(1, 0, 2),
                           means=means.transpose(1, 0, 2), x_avg=x_avg,
                           mu_avg=mu_avg, xref=xref, infinite=exogenous,
                           cov_scales=cov_scales)


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
    return _agent_batch(spec, mf, config.grid, np.repeat(np.arange(spec.K), config.counts),
                        noise, config.mode, deviations, exogenous=False)


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
    types = np.full(n_paths, k) if types is None else np.asarray(types, dtype=int)
    if not np.all(np.diff(types) >= 0):
        raise ValueError("types must be sorted ascending (block layout)")
    if noise is None:
        noise = draw_noise(seed, types.size, grid.steps, spec.n, spec.m,
                           spec.subpops[0].r)
    return _agent_batch(spec, mf, grid, types, noise, mode, deviations, exogenous=True)


def _tagged_costs(spec: PopulationSpec, mf: MeanFieldSolution, grid: TimeGrid,
                  counts, noise: _NoiseSums, members, mode: str,
                  tag_type: int = 0, exogenous_field: bool = False) -> np.ndarray:
    """Discounted cost of the tagged agent, (members, repetitions): the
    per-type sums plus the tagged row, stepped by ``_euler`` for every
    member and repetition at once; each tagged path is costed by
    ``empirical_cost`` as a one-agent batch against its own population
    average (or the solved mean).  One path a call: in a block of paths the
    discount product rounds a path by its position, and equal members must
    cost alike."""
    shifts = np.array([d.shift(spec.m) for d in members])[:, None, None, :]
    scales = np.array([d.cov_scale for d in members])[:, None, None]
    states, means, actions, x_avg, mu_avg = _euler(
        spec, mf, grid, counts, noise.tag, [tag_type], sums=noise, shifts=shifts,
        scales=scales, exogenous=exogenous_field)
    xbar = mf.xbar.interp(grid.times()) if exogenous_field else None
    costs = np.empty(actions.shape[1:3])
    for j, r in np.ndindex(costs.shape):
        # (1, nodes, .) views of member j's tagged path in repetition r
        batch = SimulationBatch(
            grid=grid, mode="exploratory", types=np.array([tag_type]),
            states=states[:, j, r, -1:].transpose(1, 0, 2),
            actions=actions[:, j, r].transpose(1, 0, 2),
            means=means[:, j, r, -1:].transpose(1, 0, 2),
            x_avg=x_avg[:, j, r], mu_avg=mu_avg[:, j, r],
            xref=xbar if exogenous_field else x_avg[:, j, r].copy(),
            infinite=exogenous_field, cov_scales=scales[j, 0])
        costs[j, r] = empirical_cost(batch, spec, tag_type, mode, spec.rho).per_agent[0]
    return costs


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
    if p.lambda_explore <= 0:
        return 0.0
    return p.lambda_explore * gaussian_entropy(exploration_covariance(p, cov_scale))


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
        rate = 0.5 * np.trace(p.R @ exploration_covariance(p)) * scales
        if mode == "exploratory-regularized":
            # one slogdet per distinct scale, not per agent
            uniq, inv = np.unique(scales, return_inverse=True)
            rate = rate - np.array([_entropy_for(p, s) for s in uniq])[inv]
    half_q, half_r = 0.5 * p.Q, 0.5 * p.R

    dw = np.exp(-rho * ts) * trapezoid_weights(ts.size, grid.dt)
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


def _se(vals: np.ndarray) -> float:
    """Standard error of the mean of ``vals``; 0 for one value."""
    return vals.std(ddof=1) / math.sqrt(vals.size) if vals.size > 1 else 0.0


def _rep_rows(res: ExperimentResult, N: int, t: float, vals: np.ndarray, value) -> float:
    """Append a row per repetition's value, then the summary row (rep -1)
    of ``value`` with the standard error of their mean, which it returns."""
    se = _se(vals)
    for rep, v in enumerate(vals):
        res.rows.append({"experiment": res.name, "N": N, "rep": rep,
                         "checkpoint_t": t, "value": v, "std_err": ""})
    res.rows.append({"experiment": res.name, "N": N, "rep": -1,
                     "checkpoint_t": t, "value": value, "std_err": se})
    return se


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

    No agent is simulated: under shared noise x_i^N - x_i^infty is one d_k
    for every agent of type k, the difference of the two systems' type
    means (``_euler`` on the type sums up to the checkpoint), so the value is
    sum_k (N_k / N) |d_k|^2; 'independent' adds each agent's own limiting
    path difference between its two packs.  Each repetition still draws the
    full-grid pack, so the streams do not depend on the checkpoint.
    """
    if coupling not in ("independent", "common-random-numbers"):
        raise ValueError(f"unknown coupling {coupling!r}")
    grid = _experiment_grid(grid)
    ck = int(round(checkpoint_frac * grid.steps))
    t_ck = grid.times()[ck]
    r = spec.subpops[0].r
    res = ExperimentResult("coupling-gap")
    means, ses = [], []
    for N in Ns:
        counts = exact_counts(spec.pi, N)
        types = np.repeat(np.arange(spec.K), counts)
        own = np.zeros((reps, N, spec.n))

        def packs():
            for rep in range(reps):
                pack = draw_noise(seed, N, grid.steps, spec.n, spec.m, r, rep=rep)
                if coupling == "independent":
                    # packs reps..2*reps-1: no stream shared with the finite run
                    for sign, pk in ((1.0, pack), (-1.0, draw_noise(
                            seed, N, grid.steps, spec.n, spec.m, r, rep=reps + rep))):
                        own[rep] += sign * _euler(spec, mf, grid, counts, pk, types,
                                                  exogenous=True, mode="classical",
                                                  steps=ck)[0][-1]
                yield pack

        sums = _noise_sums(packs(), counts, ck)
        fin, inf = (_euler(spec, mf, grid, counts, sums.tag, [], sums=sums, exogenous=exo,
                           steps=ck)[0][-1] for exo in (False, True))
        d = (fin - inf) / np.maximum(counts, 1)[:, None]
        vals = np.sum((d[:, types] + own) ** 2, axis=2).mean(axis=1)
        means.append(vals.mean())
        ses.append(_rep_rows(res, N, t_ck, vals, means[-1]))
    slope = _safe_slope(Ns, means)
    res.summary = {"Ns": list(Ns), "gap_means": means, "gap_std_errs": ses,
                   "slope": slope, "checkpoint_t": t_ck, "reps": reps}
    return res


def _tagged_packs(spec: PopulationSpec, grid: TimeGrid, counts, reps: int,
                  seed: int) -> _NoiseSums:
    """Packs 0..reps-1 of ``seed``, reduced with agent 0 (the first of type
    0) tagged."""
    N = sum(counts)
    return _noise_sums((draw_noise(seed, N, grid.steps, spec.n, spec.m,
                                   spec.subpops[0].r, rep=rep) for rep in range(reps)),
                       counts, grid.steps, tag_type=0)


def cost_gap_experiment(spec: PopulationSpec, mf: MeanFieldSolution,
                        Ns, reps: int, seed: int,
                        deviation: PolicyDeviation | None = None,
                        grid: TimeGrid | None = None,
                        mode: str = "exploratory-regularized") -> ExperimentResult:
    """|J_i^N - J_i^infty| for a tagged agent playing a fixed deviation while
    everyone else plays the equilibrium policy; common random numbers pair
    the finite and limiting runs.

    Both runs step each pack's per-type sums plus its tagged row with
    ``_euler`` (finite population, then solved mean field), costed by
    ``empirical_cost``; all repetitions of one N step together.
    """
    grid = _experiment_grid(grid, T=6.0)
    if deviation is None:
        deviation = PolicyDeviation(mean_shift=np.full(spec.m, 0.5))
    res = ExperimentResult("cost-gap")
    gaps, ses = [], []
    for N in Ns:
        counts = exact_counts(spec.pi, N)
        sums = _tagged_packs(spec, grid, counts, reps, seed)
        fin, inf = (_tagged_costs(spec, mf, grid, counts, sums, [deviation], mode,
                                  exogenous_field=exo)[0] for exo in (False, True))
        diffs = fin - inf
        gaps.append(abs(diffs.mean()))
        ses.append(_rep_rows(res, N, grid.t1, diffs, gaps[-1]))
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
    the comparison paired.  One ``_euler`` run steps every member, the
    equilibrium as the zero-shift member, on every repetition's tagged row
    and per-type sums; each path is costed by ``empirical_cost``.
    """
    grid = _experiment_grid(grid, T=6.0)
    counts = exact_counts(spec.pi, N)
    res = ExperimentResult("nash")
    family = list(deviation_family)
    sums = _tagged_packs(spec, grid, counts, reps, seed)
    costs = _tagged_costs(spec, mf, grid, counts, sums,      # row 0: equilibrium
                          [PolicyDeviation()] + family, mode)

    base_mean = costs[0].mean()
    dev_means = []
    for j, vals in enumerate(costs[1:]):
        dev_means.append(vals.mean())
        res.rows.append({"experiment": "nash", "N": N, "rep": j,
                         "checkpoint_t": grid.t1, "value": dev_means[-1],
                         "std_err": _se(vals)})
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
    states of the current chunk are kept.  That stream is why this loop is
    not ``_euler``: the kernel reads agent-major packs of ``draw_noise``,
    and running it here would change the stream, and every estimate, of
    the cost-of-exploration runs.
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

    xbar_t = mf.xbar.interp(ts)
    pol = tabulate_policy(spec, k, mf.Pi[k].Pi, grid, mf.s[k].interp(ts), xbar_t)
    gain, off, Lc = pol.gain, pol.offset, pol.chol
    field = _limiting_field(spec, mf, ts)[:, k] + p.b(ts)
    ybar = xbar_t @ spec.psibar(k).T
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
    wdisc = trapezoid_weights(nodes, dt) * np.exp(-rho * ts)
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
    write_csv(path, ["experiment", "N", "rep", "checkpoint_t", "value", "std_err"], rows)
