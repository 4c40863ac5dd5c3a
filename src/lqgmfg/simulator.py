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

Noise discipline: one draw rule, ``_noise_chunks``, for every path's noise.
A batch of paths reads its stream time-major: every path's initial state,
then per node every path's action noise and, before the last node, its
increments, a chunk of nodes per ``standard_normal`` fill, so the values do
not depend on the chunk.  Each fill runs one chunk ahead on a worker thread,
into the other of two chunk buffers while the consumer reads the chunk
before; one fill is outstanding at a time, so the values are those of a
serial draw.  ``_euler`` draws each chunk as it steps, in both modes
alike, from ``rng_stream(seed, 0)`` for populations and representative
paths (``rng_stream(seed)`` for the cost of exploration): no (N, nodes, .)
noise array exists.  Common random numbers pass one ``draw_noise`` pack, the
same values in the same time-major order, to both systems.  Experiments that
read only per-type noise sums and a tagged row (the coupling gap, the cost
gap, epsilon-Nash) draw just those, from ``rng_stream(seed, _SUMS_KEY, N,
rep)``, as one pack: the sum of c iid standard normal rows has the law of
sqrt(c) times one.

One kernel, ``_euler``, steps every population path, time-major: node i of
a batch of populations is one contiguous block.  A population holds agents
carried one by one, each with its own deviation, and, by superposition
(the epsilon-Nash argument of Huang, Caines & Malhame, IEEE TAC 52(9),
2007), the per-type state sums of the others: the system is linear, so the
untagged agents of a type enter only through their sum.
``simulate_population`` carries every agent of one population;
``simulate_representative`` carries every path under the solved mean
field; the coupling gap steps sums only, on per-type noise sums; the
cost gap and the epsilon-Nash experiments step the sums plus one
tagged row, for every (deviation, repetition) at once, and cost every
tagged path in one call of the one cost kernel, ``_path_costs``.  The
experiments compute only what they read.  A node's population averages are
pairwise sums per component, over a component-major copy of its rows.
``empirical_cost`` runs the cost kernel on blocks of agents, the even blocks
on the calling thread and the odd ones on one worker, so its memory does not
grow with the population and the second core shares the work.
``coe_experiment`` keeps its own fused loop (see there).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
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

# bytes per noise fill in coe_experiment: about 1 MiB of float64
_BLOCK_BYTES = 1 << 20
# nodes per noise chunk of a population or a batch of paths
_NOISE_CHUNK = 16
# agents per block in empirical_cost: two blocks are costed at once, one per thread
_COST_BLOCK = 64
# first spawn-key entry of the drawn noise sums' streams (seed, _SUMS_KEY, N, rep)
_SUMS_KEY = 7


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


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
        counts[np.argsort(-(raw - counts), kind="stable")[:rem]] += 1
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
    """A noise pack (standard normal, unscaled) in the time-major order of
    ``_noise_chunks``: P paths' initial states, the per-node action noise of
    the C carried ones and the P paths' per-step Brownian increments; C = P
    but in the packs of ``_draw_sums``, whose first K paths are noise sums.
    Leading batch axes (...) are allowed."""

    x0_z: np.ndarray      # (..., P, n)
    action_z: np.ndarray  # (nodes, ..., C, m)
    dW: np.ndarray        # (steps, ..., P, r)


def _noise_chunks(rng: np.random.Generator, P: int, n: int, m: int, r: int,
                  steps: int, chunk: int):
    """The one draw rule of P paths' noise over ``steps`` Euler steps.

    Reads ``rng`` in order: the initial-state normals (P, n), then for each
    node the action noise (P, m) and, before the last node, the increments
    (P, r).  Yields the initial-state normals, then for each chunk of up to
    ``chunk`` nodes the time-major action noise (c, P, m) and increments
    (c', P, r), c' = c except on the last node's chunk.  A chunk is one
    ``standard_normal`` fill, so the values do not depend on ``chunk``.

    The fills run one chunk ahead on a worker thread (the fill releases the
    GIL), into two buffers in turn: while the consumer reads chunk i, chunk
    i + 1 is drawn into the other.  One fill is outstanding at a time, on
    the one ``rng`` in the same order, so the values are those of a serial
    draw.  A chunk is a view of its buffer, valid until the consumer asks
    for the next one.  Closing the generator joins the worker.
    """
    x0 = rng.standard_normal((P, n))
    nodes, per_node = steps + 1, P * (m + r)
    chunk = min(chunk, nodes)
    bufs = np.empty((2, chunk * per_node))
    # per chunk: its nodes, and its nodes with increments
    sizes = [(min(chunk, nodes - lo), min(chunk, steps - lo)) for lo in range(0, nodes, chunk)]

    def fill(i: int) -> None:
        c, cw = sizes[i]
        rng.standard_normal(out=bufs[i % 2, :c * per_node - (c - cw) * P * r])

    with ThreadPoolExecutor(1) as worker:
        pending = worker.submit(fill, 0)
        yield x0
        for i, (c, cw) in enumerate(sizes):
            pending.result()
            if i + 1 < len(sizes):
                pending = worker.submit(fill, i + 1)
            z = bufs[i % 2, :c * per_node].reshape(c, per_node)
            yield z[:, :P * m].reshape(c, P, m), z[:cw, P * m:].reshape(cw, P, r)


def _pack_chunks(pack: AgentNoise):
    """A pack read as ``_noise_chunks`` yields a draw: its initial-state
    normals, then its slices of ``_NOISE_CHUNK`` nodes' action noise and
    increments."""
    yield pack.x0_z
    for lo in range(0, len(pack.action_z), _NOISE_CHUNK):
        yield pack.action_z[lo:lo + _NOISE_CHUNK], pack.dW[lo:lo + _NOISE_CHUNK]


def draw_noise(seed: int, N: int, steps: int, n: int, m: int, r: int,
               rep: int = 0) -> AgentNoise:
    """Noise pack ``rep`` of ``seed``: the chunks ``_noise_chunks`` draws
    from ``rng_stream(seed, rep)`` for N paths, concatenated.

    Passed as ``noise=``, pack 0 gives the paths of the default draw of the
    same seed, bit for bit; one pack passed to two systems replays the same
    noise in both (common random numbers).  Agent i's values depend on N:
    every node draws all N paths at once.
    """
    action_z, dW = np.empty((steps + 1, N, m)), np.empty((steps, N, r))
    chunks = _noise_chunks(rng_stream(seed, rep), N, n, m, r, steps, _NOISE_CHUNK)
    x0_z = next(chunks)
    for lo, (az, dw) in zip(range(0, steps + 1, _NOISE_CHUNK), chunks):
        action_z[lo:lo + len(az)], dW[lo:lo + len(dw)] = az, dw
    return AgentNoise(x0_z, action_z, dW)


@dataclass
class SimulationBatch:
    """Per-agent paths plus the empirical averages they induce.

    xref carries the tracking reference: the empirical average state for a
    finite population (y = psi_k x^(N)), or the solved stacked mean state
    for representative paths (y = psibar_k xbar), shared by every path.
    states, actions and means are (N, nodes, .) views of time-major
    (nodes, N, .) arrays.
    """

    grid: TimeGrid
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
    return [slice(end - c, end) for c, end in zip(counts, np.cumsum(counts, dtype=int))]


def _draw_sums(spec: PopulationSpec, grid: TimeGrid, counts, reps: int, seed: int,
               tag_type: int | None = None) -> AgentNoise:
    """The noise ``_euler(sums=True)`` reads, one pack with batch axis
    ``reps``: the K per-type sums over the untagged agents, drawn as such
    (the sum of c iid N(0, I) rows has the law of sqrt(c) N(0, I)), then,
    with ``tag_type``, the tagged agent's whole row (it is left out of its
    type's c).

    Repetition ``rep`` is one stream, ``rng_stream(seed, _SUMS_KEY, N, rep)``,
    read in order: the per-type initial-state sums (K, n), the per-step
    increment sums (steps, K, r), then the tagged row's initial state, action
    noise and increments.  The increments span the whole grid, so a run to a
    checkpoint reads the same values whatever the checkpoint.
    """
    K, C, steps, n, m, r = (len(counts), int(tag_type is not None), grid.steps,
                            spec.n, spec.m, spec.subpops[0].r)
    c = np.array(counts, dtype=float)
    if C:
        _require(counts[tag_type] >= 1, f"no agent of type {tag_type} to tag")
        c[tag_type] -= 1
    shapes = [(K, n), (steps, K, r), (C, n), (C, steps + 1, m), (C, steps, r)]
    cuts = np.cumsum([math.prod(s) for s in shapes])
    z = np.array([rng_stream(seed, _SUMS_KEY, sum(counts), rep).standard_normal(cuts[-1])
                  for rep in range(reps)])
    x0, dW, tag_x0, tag_az, tag_dW = (part.reshape((reps,) + s) for part, s
                                      in zip(np.split(z, cuts[:-1], axis=1), shapes))
    root = np.sqrt(c)[:, None]
    return AgentNoise(np.concatenate([root * x0, tag_x0], axis=-2),
                      np.ascontiguousarray(np.moveaxis(tag_az, 2, 0)),
                      np.concatenate([np.moveaxis(root * dW, 0, 1),
                                      np.moveaxis(tag_dW, 2, 0)], axis=-2))


# a blow-up is reported as the first non-finite state, not as a warning
@np.errstate(over="ignore", invalid="ignore")
def _euler(spec: PopulationSpec, mf: MeanFieldSolution, grid: TimeGrid, counts,
           noise, types, sums: bool = False, shifts=0.0,
           scales=1.0, exogenous: bool = False, mode: str = "exploratory",
           steps: int | None = None):
    """The one Euler-Maruyama loop: every population path of the module.

    Steps a batch of populations of sum(counts) agents, the leading axes of
    the inputs broadcast together (none for one population).  The carried
    rows (..., C, .) of ``types`` (sorted) are agents stepped one by one,
    each with its own mean shift (..., C, m) and covariance scale (..., C).
    The other counts[k] - C_k agents of type k play the same linear
    feedback, so with ``sums`` their state sum is stepped instead, by the
    same step with every term weighted by their number and driven by their
    noise sums: by superposition that is the population (Huang, Caines &
    Malhame, IEEE TAC 52(9), 2007).  The field couples through the
    population averages, or with ``exogenous`` is the solved mean field.

    ``noise`` yields the rows' initial-state normals (..., P, n), then
    time-major chunks of the carried rows' action noise (c, ..., C, m) and
    the rows' increments (c', ..., P, r), as ``_noise_chunks`` draws them or
    ``_pack_chunks`` reads a pack; each chunk is fetched when the loop
    reaches it.  The rows are the carried ones, P = C, or with ``sums`` the
    K per-type noise sums (sqrt(c)-scaled) first, P = K + C.

    Returns time-major states and policy means, (nodes, ..., P, .), the
    carried rows' actions (nodes, ..., C, m), and the population averages
    (nodes, ..., .), over the first ``steps`` steps (default: all) of
    ``grid``.  An average is the pairwise sum of each component over a
    component-major copy of the rows, over N: numpy's order for n = 1, and
    for n >= 2 about ten times faster on large populations than a sum over
    the rows, which adds them one row at a time.
    """
    steps = grid.steps if steps is None else steps
    nodes, dt, sqdt = steps + 1, grid.dt, math.sqrt(grid.dt)
    K, n, m, N = spec.K, spec.n, spec.m, sum(counts)
    # every matrix a per-node product takes on its right, transposed once into
    # C order: matmul takes its slow loop on a transposed (strided) operand
    A, B, F, H, D = (np.array([getattr(p, f).T for p in spec.subpops]) for f in "ABFHD")
    # each type's policy record on the grid: the blocks of spec with the solved Pi
    ts = grid.times()
    xbar = mf.xbar.interp(ts)
    pols = [tabulate_policy(spec, k, mf.Pi[k].Pi, grid, mf.s[k].interp(ts), xbar)
            for k in range(K)]
    G, chol = (np.array([getattr(pol, f).T for pol in pols]) for f in ("gain", "chol"))
    ts = ts[:nodes]
    offset = np.stack([pol.offset[:nodes] for pol in pols], axis=1)   # (nodes, K, m)
    b_tab = np.stack([p.b(ts) for p in spec.subpops], axis=1)        # (nodes, K, n)
    field_t = _limiting_field(spec, mf, ts) if exogenous else None    # (nodes, K, n)
    try:
        x0 = next(noise)
        batch = np.broadcast_shapes(x0.shape[:-2], np.shape(shifts)[:-2], np.shape(scales)[:-1])
        C = len(types)
        per_type = np.bincount(types, minlength=K)
        carried = [(k, sl) for k, sl in enumerate(_type_slices(per_type)) if per_type[k]]
        weights, blocks = np.ones(C), []
        if sums:
            # the per-type sums come first, as rows weighted by their counts
            c = np.asarray(counts, dtype=float) - per_type
            weights = np.concatenate([c, weights])
            blocks = [(k, slice(k, k + 1), c[k]) for k in range(K)]
        own = slice(len(weights) - C, None)                 # the carried rows
        blocks += [(k, slice(own.start + sl.start, own.start + sl.stop), 1.0) for k, sl in carried]
        # a block's rows, its weighted offset and b tables, its weight
        blocks = [(k, sl, w * offset[:, k], w * b_tab[:, k], w) for k, sl, w in blocks]
        sd = np.sqrt(np.broadcast_to(scales, batch + (C,)))[..., None]

        states = np.empty((nodes,) + batch + (len(weights), n))
        means = np.empty((nodes,) + batch + (len(weights), m))
        actions = np.empty((nodes,) + batch + (C, m))
        x_avg = np.empty((nodes,) + batch + (n,))
        mu_avg = np.empty((nodes,) + batch + (m,))
        L0 = np.ascontiguousarray(cholesky_psd(spec.x0_cov).T)
        states[0] = weights[:, None] * spec.x0_mean + x0 @ L0
        end = 0
        for i in range(nodes):
            if i == end:
                az, dw = next(noise)
                start, end = i, i + len(az)
            j = i - start
            x, mu, u = states[i], means[i], actions[i]
            for k, sl, off, _, _ in blocks:
                mu[..., sl, :] = off[i] - x[..., sl, :] @ G[k]
            mu[..., own, :] += shifts
            u[...] = mu[..., own, :]
            if mode == "exploratory":
                for k, sl in carried:
                    u[..., sl, :] += sd[..., sl, :] * (az[j][..., sl, :] @ chol[k])
            xa = x_avg[i] = np.ascontiguousarray(np.swapaxes(x, -1, -2)).sum(axis=-1) / N
            ma = mu_avg[i] = np.ascontiguousarray(np.swapaxes(mu, -1, -2)).sum(axis=-1) / N
            if not np.all(np.isfinite(xa)):
                raise RuntimeError(f"non-finite state at t={ts[i]:.4g}")
            if i == steps:
                break
            field = (field_t[i] if exogenous else
                     [(xa @ F[k] + ma @ H[k])[..., None, :] for k in range(K)])
            for k, sl, _, b, w in blocks:
                drift = x[..., sl, :] @ A[k] + mu[..., sl, :] @ B[k] + b[i]
                drift += w * field[k]
                states[i + 1][..., sl, :] = (x[..., sl, :] + dt * drift
                                             + sqdt * (dw[j][..., sl, :] @ D[k]))
    finally:
        noise.close()       # joins the draw's worker, also on an early stop
    return states, means, actions, x_avg, mu_avg


def _agent_batch(spec: PopulationSpec, mf: MeanFieldSolution, grid: TimeGrid,
                 types: np.ndarray, seed: int, noise: AgentNoise | None, mode: str,
                 deviations: dict[int, PolicyDeviation] | None,
                 exogenous: bool) -> SimulationBatch:
    """One population of agents of ``types`` (sorted), every one carried by
    ``_euler``; ``deviations`` keyed by agent index.  The noise is drawn
    from ``rng_stream(seed, 0)`` chunk by chunk as the kernel steps, or read
    from the pack ``noise``."""
    _require(mode in ("classical", "exploratory"), f"unknown simulation mode {mode!r}")
    N, n, m, r, steps = types.size, spec.n, spec.m, spec.subpops[0].r, grid.steps
    if noise is None:
        chunks = _noise_chunks(rng_stream(seed, 0), N, n, m, r, steps, _NOISE_CHUNK)
    else:
        _require((noise.x0_z.shape, noise.action_z.shape, noise.dW.shape)
                 == ((N, n), (steps + 1, N, m), (steps, N, r)),
                 "noise pack does not match the paths and the grid")
        chunks = _pack_chunks(noise)
    shifts, cov_scales = np.zeros((N, m)), np.ones(N)
    for idx, dev in (deviations or {}).items():
        if not 0 <= idx < N:
            raise ValueError(f"deviation for agent {idx} outside [0, {N})")
        shifts[idx], cov_scales[idx] = dev.shift(m), dev.cov_scale
    states, means, actions, x_avg, mu_avg = _euler(
        spec, mf, grid, np.bincount(types, minlength=spec.K), chunks, types,
        shifts=shifts, scales=cov_scales, exogenous=exogenous, mode=mode)
    xref = mf.xbar.interp(grid.times()) if exogenous else x_avg
    return SimulationBatch(grid=grid, types=types,
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
    the covariance of the sampled actions only.  ``noise``, a pack of
    ``draw_noise``, replaces the draw from ``config.seed``.
    """
    _require(len(config.counts) == spec.K,
             f"counts {config.counts} name {len(config.counts)} types, the spec K={spec.K}")
    return _agent_batch(spec, mf, config.grid, np.repeat(np.arange(spec.K), config.counts),
                        config.seed, noise, config.mode, deviations, exogenous=False)


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
    sampled actions only.  ``noise``, a pack of ``draw_noise``, replaces
    the draw from ``seed``.
    """
    if types is None:
        _require(0 <= k < spec.K, f"type k={k} outside [0, K={spec.K})")
        types = np.full(n_paths, k)
    types = np.asarray(types, dtype=int)
    _require(np.all(np.diff(types) >= 0), "types must be sorted ascending (block layout)")
    _require(np.all((types >= 0) & (types < spec.K)), f"types outside [0, K={spec.K})")
    return _agent_batch(spec, mf, grid, types, seed, noise, mode, deviations, exogenous=True)


def _tagged_costs(spec: PopulationSpec, mf: MeanFieldSolution, grid: TimeGrid,
                  counts, noise: AgentNoise, members, mode: str,
                  tag_type: int = 0, exogenous_field: bool = False) -> np.ndarray:
    """Discounted cost of the tagged agent, (members, repetitions): the
    per-type sums plus the tagged row, stepped by ``_euler`` for every
    member and repetition at once, then every tagged path costed by one
    ``_path_costs`` call against its own population average (or the solved
    mean)."""
    shifts = np.array([d.shift(spec.m) for d in members])[:, None, None, :]
    scales = np.array([d.cov_scale for d in members])[:, None, None]
    states, means, actions, x_avg, _ = _euler(
        spec, mf, grid, counts, _pack_chunks(noise), [tag_type],
        sums=True, shifts=shifts, scales=scales, exogenous=exogenous_field)
    nodes, M, R = actions.shape[:3]
    # every (member, repetition)'s last row, the tagged one, as (nodes, M R, .)
    x, u = (a[:, :, :, -1].reshape(nodes, M * R, -1)
            for a in (states, actions if mode == "classical" else means))
    p = spec.subpops[tag_type]
    if exogenous_field:
        y = (mf.xbar.interp(grid.times()) @ spec.psibar(tag_type).T)[:, None, :]
    else:
        y = x_avg.reshape(nodes, M * R, -1) @ p.psi.T
    rates = _cost_rates(p, mode, np.repeat(scales.ravel(), R))
    return _path_costs(p, grid, spec.rho, x, y, u, rates)[0].reshape(M, R)


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


def _cost_rates(p, mode: str, scales: np.ndarray) -> np.ndarray:
    """The running cost's constant per path: 0 in 'classical' mode, else
    tr(R cov) / 2 at each path's covariance scale, the mean of
    (u - mu)^T R (u - mu) / 2, less lambda * H(Phi) in
    'exploratory-regularized' mode."""
    _require(mode in ("classical", "exploratory", "exploratory-regularized"),
             f"unknown cost mode {mode!r}")
    if mode == "classical":
        return np.zeros(scales.shape)
    rate = 0.5 * np.trace(p.R @ exploration_covariance(p)) * scales
    if mode == "exploratory-regularized":
        # one slogdet per distinct scale, not per path
        uniq, inv = np.unique(scales, return_inverse=True)
        rate = rate - np.array([_entropy_for(p, s) for s in uniq])[inv]
    return rate


def _path_costs(p, grid: TimeGrid, rho: float, x: np.ndarray, y: np.ndarray,
                u: np.ndarray, rates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one discount reduction of agent costs: the discounted trapezoid
    cost of each time-major path, (P,), and its running cost, (nodes, P).

    x (nodes, P, n) tracks the reference y, shared (nodes, 1, n) or one per
    path (nodes, P, n); u (nodes, P, m) is the applied action (classical) or
    the policy mean, and ``rates`` (P,) the constant of ``_cost_rates``.
    The discount sum is an einsum, which rounds a path alike wherever it
    sits among the P; the product ``dw @ running`` does not.
    """
    ts = grid.times()
    dw = np.exp(-rho * ts) * trapezoid_weights(ts.size, grid.dt)
    # running cost (e Q/2 + u S^T + eta) . e + (u R/2 + n) . u, with e = x - y
    # formed per component: a broadcast over the short last axis runs numpy's
    # inner loop two elements at a time
    e = np.empty(np.broadcast_shapes(x.shape, y.shape))
    for j in range(e.shape[-1]):
        np.subtract(x[..., j], y[..., j], out=e[..., j])
    g = e @ (0.5 * p.Q)
    g += u @ np.ascontiguousarray(p.S.T)     # C order: matmul's fast loop
    g += p.eta
    running = _rowdot(g, e)
    g = u @ (0.5 * p.R)
    g += p.nvec
    running += _rowdot(g, u)
    running += rates
    return np.einsum("i,ij->j", dw, running), running


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

    Agents are costed by ``_path_costs`` in blocks of ``_COST_BLOCK``, read
    time-major, so the temporaries stay a few (nodes, block) arrays whatever
    the population.  The even blocks run on the calling thread and the odd
    ones on one worker (none starts for one block); each block writes its
    own entries and the bound takes the maximum over the blocks, so the
    values are those of a serial run.
    """
    _require(rho > 0, "empirical_cost needs rho > 0")
    _require(0 <= k < spec.K, f"type k={k} outside [0, K={spec.K})")
    p = spec.subpops[k]
    of_k = np.flatnonzero(batch.types == k)
    agents = of_k if agents is None else np.asarray(agents, dtype=int)
    _require(agents.size > 0, f"no paths of type {k} to cost")
    wrong = agents[~np.isin(agents, of_k)]
    _require(wrong.size == 0, f"agents {wrong.tolist()} are not paths of type k={k}")
    rates = _cost_rates(p, mode, batch.cov_scales[agents])
    grid = batch.grid
    y = (batch.xref @ (spec.psibar(k) if batch.infinite else p.psi).T)[:, None, :]
    # time-major (nodes, N, .): a block of agents is one gather per node
    states = batch.states.transpose(1, 0, 2)
    controls = (batch.actions if mode == "classical" else batch.means).transpose(1, 0, 2)

    tail = grid.steps // 4 + 1
    per_agent = np.empty(agents.size)

    def cost(starts) -> float:
        # each block writes its own slice; returns the blocks' largest late cost
        late = 0.0
        for lo in starts:
            blk = slice(lo, lo + _COST_BLOCK)
            per_agent[blk], running = _path_costs(
                p, grid, rho, np.take(states, agents[blk], axis=1), y,
                np.take(controls, agents[blk], axis=1), rates[blk])
            late = max(late, float(np.max(np.abs(running[-tail:]))))
        return late

    starts = range(0, agents.size, _COST_BLOCK)
    with ThreadPoolExecutor(1) as worker:
        odd = worker.submit(cost, starts[1::2]) if len(starts) > 1 else None
        late = cost(starts[::2])
        if odd is not None:
            late = max(late, odd.result())

    bound = 1.5 * late * math.exp(-rho * grid.t1) / rho
    mean = float(per_agent.mean())
    if tail_tol is not None and bound > tail_tol * (1.0 + abs(mean)):
        raise ValueError(f"horizon too short for rho (truncation bound {bound:.3g})")
    return CostEstimate(mean=mean, std_err=float(_se(per_agent)), per_agent=per_agent, mode=mode,
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


def _experiment_grid(mf: MeanFieldSolution, grid: TimeGrid | None, T: float = 4.0,
                     reps: int = 1, Ns=()) -> TimeGrid:
    """``grid``, by default [0, T] in steps of 0.01, which must end within
    the solved grid; the repetitions and population sizes are checked too."""
    _require(reps >= 1, f"reps must be at least 1, got {reps}")
    _require(all(N >= 1 for N in Ns), f"every N must be at least 1, got {list(Ns)}")
    grid = grid if grid is not None else TimeGrid(0.0, T, int(round(T / 0.01)))
    _require(grid.t1 <= mf.grid.t1 + 1e-12, f"the experiment runs to t={grid.t1:g}, "
             f"past the solved horizon {mf.grid.t1:g}: solve with a longer horizon")
    return grid


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
                            checkpoint_frac: float = 0.5) -> ExperimentResult:
    """Mean squared gap between each agent's finite-N path and its limiting
    path, per N, with the fitted log-log rate.  Each agent's noise is
    replayed in both systems (common random numbers), which makes the
    O(1/N) decay measurable.

    No agent is simulated: under shared noise x_i^N - x_i^infty is one d_k
    for every agent of type k, the difference of the two systems' type
    means (``_euler`` on the type sums up to the checkpoint), so the value is
    sum_k (N_k / N) |d_k|^2.  That needs only the per-type noise sums, drawn
    as such (``_draw_sums``) over the whole grid, so the stream does not
    depend on the checkpoint.
    """
    _require(0.0 <= checkpoint_frac <= 1.0,
             f"checkpoint_frac must lie in [0, 1], got {checkpoint_frac}")
    grid = _experiment_grid(mf, grid, reps=reps, Ns=Ns)
    ck = int(round(checkpoint_frac * grid.steps))
    t_ck = grid.times()[ck]
    res = ExperimentResult("coupling-gap")
    means, ses = [], []
    for N in Ns:
        counts = exact_counts(spec.pi, N)
        sums = _draw_sums(spec, grid, counts, reps, seed)
        fin, inf = (_euler(spec, mf, grid, counts, _pack_chunks(sums), [], sums=True,
                           exogenous=exo, steps=ck)[0][-1] for exo in (False, True))
        d = (fin - inf) / np.maximum(counts, 1)[:, None]
        # take, not d[:, types]: a C-order gather, which the mean sums pairwise
        agents = np.take(d, np.repeat(np.arange(spec.K), counts), axis=1)
        vals = np.sum(agents ** 2, axis=2).mean(axis=1)
        means.append(vals.mean())
        ses.append(_rep_rows(res, N, t_ck, vals, means[-1]))
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
    the finite and limiting runs.

    Both runs step each repetition's per-type sums plus its tagged row (the
    first agent of type 0), drawn as such by ``_draw_sums``, with ``_euler``
    (finite population, then solved mean field), costed by ``_path_costs``;
    all repetitions of one N step together.
    """
    grid = _experiment_grid(mf, grid, T=6.0, reps=reps, Ns=Ns)
    if deviation is None:
        deviation = PolicyDeviation(mean_shift=np.full(spec.m, 0.5))
    res = ExperimentResult("cost-gap")
    gaps, ses = [], []
    for N in Ns:
        counts = exact_counts(spec.pi, N)
        sums = _draw_sums(spec, grid, counts, reps, seed, tag_type=0)
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

    A lower bound on the true epsilon: the infimum over all admissible
    policies, the exact epsilon, is not computed in this package.  The same
    draws serve every family member, which keeps the comparison paired.  One ``_euler``
    run steps every member, the equilibrium as the zero-shift member, on
    every repetition's tagged row (the first agent of type 0) and per-type
    sums, drawn as such by ``_draw_sums``; ``_path_costs`` costs every path
    in one call.
    """
    grid = _experiment_grid(mf, grid, T=6.0, reps=reps, Ns=[N])
    counts = exact_counts(spec.pi, N)
    res = ExperimentResult("nash")
    family = list(deviation_family)
    sums = _draw_sums(spec, grid, counts, reps, seed, tag_type=0)
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

    Streaming kernel on one stream, ``rng_stream(seed)``, drawn by the rule
    of every path (``_noise_chunks``) in chunks of about 1 MiB of nodes;
    only the states of the current chunk are kept.  It is not ``_euler``
    for speed: on the planar preset, 500 paths over 12,207 steps took
    1.2-1.5 s through ``_euler`` (the paths alone, before any cost) against
    0.44-0.54 s for this whole experiment, run in turn on a 2-core machine
    with one BLAS thread; it folds the policy mean into one Euler matrix and
    keeps no (nodes, paths) arrays.
    """
    rho = spec.rho
    if rho <= 0:
        raise ValueError("cost of exploration needs rho > 0")
    _require(0 <= k < spec.K, f"type k={k} outside [0, K={spec.K})")
    if grid is None:
        T = math.log(2e5) / rho
        steps = min(int(math.ceil(T / 0.01)), 20000)
        grid = TimeGrid(0.0, T, steps)
    grid = _experiment_grid(mf, grid, reps=reps)
    p = spec.subpops[k]
    n, m, r = p.n, p.m, p.r
    ts = grid.times()
    dt, steps = grid.dt, grid.steps
    nodes = steps + 1

    xbar_t = mf.xbar.interp(ts)
    pol = tabulate_policy(spec, k, mf.Pi[k].Pi, grid, mf.s[k].interp(ts), xbar_t)
    gain, off, Lc = pol.gain, pol.offset, pol.chol
    field = _limiting_field(spec, mf, ts)[:, k] + p.b(ts)
    ybar = xbar_t @ spec.psibar(k).T
    L0 = cholesky_psd(spec.x0_cov)
    # Euler step (rows) under the policy mean mu = off - x gain^T:
    # x' = x step_mat + step_off[i] + sqrt(dt) dW D^T, the right operands in
    # C order (matmul's fast loop)
    step_mat = np.ascontiguousarray((np.eye(n) + dt * (p.A - p.B @ gain)).T)
    Dt = np.ascontiguousarray(p.D.T)
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

    chunk = min(nodes, max(1, _BLOCK_BYTES // (8 * reps * (m + r))))
    noise = _noise_chunks(rng_stream(seed), reps, n, m, r, steps, chunk)
    X = np.empty((chunk + 1, reps, n))
    try:
        X[0] = spec.x0_mean[None, :] + next(noise) @ L0.T
        acc = np.zeros(reps)
        lo = 0
        for z, dw in noise:
            c, cw = len(z), len(dw)                 # nodes, Euler steps in this chunk
            kick = sqdt * (dw @ Dt)
            kick += step_off[lo:lo + cw, None, :]
            with np.errstate(over="ignore", invalid="ignore"):   # checked below
                for j in range(cw):
                    np.matmul(X[j], step_mat, out=X[j + 1])
                    X[j + 1] += kick[j]
            finite = np.isfinite(X[:c]).all(axis=(1, 2))
            if not finite.all():
                raise RuntimeError(f"non-finite state at t={ts[lo + finite.argmin()]:.4g}")
            g = z @ zz + X[:c] @ xz
            g += h[lo:lo + c, None, :]
            acc += wdisc[lo:lo + c] @ _rowdot(g, z)
            X[0] = X[c]
            lo += c
    finally:
        noise.close()
    est = float(acc.mean())
    se = float(_se(acc))
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
