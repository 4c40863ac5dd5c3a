"""Shared numerical kernels: fixed-step RK4 integration, spectral checks,
Cholesky factors, log-log rate fitting, trapezoid weights, and the one
%.12g CSV writer and the one JSON writer of the package's files.

All solvers in this package run on fixed, uniform time grids.  Fixed-step
RK4 (rather than an adaptive integrator) keeps every run deterministic and
bit-reproducible, which the simulation experiments rely on; the systems
solved here are linear with stiffness bounded by verified spectral margins,
so adaptivity buys nothing.

The linear kernels (``rk4_linear_tabulated``, ``rk4_linear_time_varying``)
share one implementation with no per-step Python loop.  For dy/dt = M y + g
each RK4 step is an affine map y -> P_i y + c_i, with P_i the RK4 polynomial
in hM and c_i set by the step's three tabulated g values; all step maps are
built at once with batched matmuls and composed, in chunks of up to 64
steps, by a log-depth prefix scan (Hillis-Steele; Blelloch, "Prefix sums and
their applications", 1990).  A constant M gives every step the same P, so
the scan and the read-out of the nodes apply powers of that one P, each as
a single matrix product over all the steps.  Besides the initial value
problem, the kernels solve the split two-point boundary problem of the
consistency system (some components pinned at each end): the chunk-start
states come from one banded linear solve, multiple shooting with chunks
short enough that none grows by more than e^8.  The result is the same
fixed-step RK4 as a sequential loop up to the order of rounding, and still
bit-reproducible from one run to the next.

RNG convention used throughout the package (``RNG_SCHEME``): every random
stream is named by a user seed and a key of small integers (a repetition, an
episode) and drawn from ``rng_stream(seed, *key)``, NumPy's
``SeedSequence(seed, spawn_key=key)`` -- the child that
``SeedSequence(seed).spawn`` hands out -- feeding a PCG64 generator.  Streams
of different (seed, key) pairs are statistically independent.  A batch of
paths (a population, or representative paths) is keyed (rep,) and read
time-major from its stream: every path's initial state, then per node every
path's action noise and, before the last node, its increments.  Coupled
experiments (common random numbers) replay the same noise by passing one
pack of those values to both systems.  Experiments that read only per-type
noise sums draw them as sums (sqrt(c) times one normal for c agents), one
stream per (N, rep) keyed (7, N, rep), so no two population sizes share a
draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import orjson
from scipy.linalg import solve_banded

_SEED_MASK = (1 << 64) - 1
RNG_SCHEME = ("SeedSequence(seed, spawn_key=key)/PCG64; paths drawn time-major "
              "by node; noise sums drawn as sums")
_CHUNK = 64                  # RK4 steps composed per scan chunk
_SPLIT_GROWTH = 8.0          # split mode: log of the largest map product per chunk
_JSON_OPTIONS = orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE


class OdeBlowupError(RuntimeError):
    """Raised when an ODE trajectory leaves the finite range."""

    def __init__(self, t: float, message: str | None = None):
        self.t = t
        super().__init__(message or f"ODE blow-up at t={t:.6g}")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [t0, t1] with `steps` intervals (steps+1 nodes)."""

    t0: float
    t1: float
    steps: int

    def __post_init__(self):
        if not self.t1 > self.t0:
            raise ValueError(f"TimeGrid requires t1 > t0, got [{self.t0}, {self.t1}]")
        if self.steps < 1:
            raise ValueError("TimeGrid requires at least one step")

    @property
    def dt(self) -> float:
        return (self.t1 - self.t0) / self.steps

    def times(self) -> np.ndarray:
        return np.linspace(self.t0, self.t1, self.steps + 1)


def trapezoid_weights(nodes: int, h: float) -> np.ndarray:
    """Trapezoid weights of ``nodes`` equally spaced nodes ``h`` apart."""
    w = np.full(nodes, h)
    w[[0, -1]] *= 0.5
    return w


def write_csv(path, cols, rows) -> None:
    """One line per row dict under a header of ``cols``: strings as they
    are, integers and bools as integers, other numbers as %.12g, a missing
    key empty; '.' decimal, so reruns write identical bytes."""
    def fmt(v):
        if isinstance(v, str):
            return v
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return f"{float(v):.12g}"

    lines = [",".join(cols)] + [",".join(fmt(row.get(c, "")) for c in cols) for row in rows]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _json_default(obj):
    # orjson hands over the arrays it does not write itself: strided views
    # and 0-d arrays (which ``ascontiguousarray`` would widen to 1-d)
    if isinstance(obj, np.ndarray):
        return obj.item() if obj.ndim == 0 else np.ascontiguousarray(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_json(path, obj) -> None:
    """``obj`` as compact JSON with sorted keys and a trailing newline.
    NumPy arrays and scalars are written in C, float64 in its shortest
    round-trip spelling (``json.load`` gives back every bit), NaN and +-inf
    as null; reruns write identical bytes."""
    data = orjson.dumps(obj, option=_JSON_OPTIONS, default=_json_default)
    with open(path, "wb") as fh:
        fh.write(data)


@dataclass
class Trajectory:
    """Values sampled on a TimeGrid; values.shape[0] == steps + 1.

    The payload may be vectors (nodes, d) or matrices (nodes, d, d).
    """

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape[0] != self.grid.steps + 1:
            raise ValueError(
                f"trajectory has {self.values.shape[0]} samples, grid expects {self.grid.steps + 1}"
            )

    def interp(self, t: float | np.ndarray) -> np.ndarray:
        """Linear interpolation between grid nodes; errors outside the grid
        (a NaN t included).  The interval is searched among ``times()``, so
        at a node the node value comes back exactly, not as a blend of its
        neighbours."""
        g = self.grid
        tarr = np.asarray(t, dtype=float)
        if not np.all((tarr >= g.t0 - 1e-12) & (tarr <= g.t1 + 1e-12)):
            raise ValueError(f"t={t} outside solved grid [{g.t0}, {g.t1}]")
        ts = g.times()
        i0 = np.clip(np.searchsorted(ts, tarr, side="right") - 1, 0, g.steps - 1)
        w = np.clip((tarr - ts[i0]) / (ts[i0 + 1] - ts[i0]), 0.0, 1.0)
        w = w.reshape(w.shape + (1,) * (self.values.ndim - 1))
        return (1.0 - w) * self.values[i0] + w * self.values[i0 + 1]


def matvec(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M v for every row of ``v`` (..., d): one product v @ M^T for a
    constant (d, d) M, or one matrix per row for M tabulated on v's leading
    axes (..., d, d)."""
    return v @ M.T if M.ndim == 2 else (M @ v[..., None])[..., 0]


def scan_chunk(steps: int, norm: float) -> int:
    """Steps per chunk for step maps of infinity norm ``norm``: at most 64,
    and few enough that no product within a chunk passes e^_SPLIT_GROWTH."""
    chunk = min(_CHUNK, steps)
    if norm > 1.0:
        chunk = max(1, min(chunk, int(_SPLIT_GROWTH / np.log(norm))))
    return chunk


def rk4_linear_tabulated(M: np.ndarray, g_half: np.ndarray, y0: np.ndarray,
                         grid: TimeGrid, n_far: int = 0) -> Trajectory:
    """RK4 for the linear system dy/dt = M y + g(t) with constant M and g
    tabulated on the doubled grid (2*steps+1 nodes, so midpoint values are
    exact inputs).

    Every step shares one RK4 matrix P (the RK4 polynomial in hM); only the
    step offsets c_i are tabulated.  See ``_rk4_linear`` for ``n_far`` and
    how the steps are combined.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError("M must be a constant square matrix")
    return _rk4_linear(M, g_half, y0, grid, n_far)


def rk4_linear_time_varying(M_half: np.ndarray, g_half: np.ndarray, y0: np.ndarray,
                            grid: TimeGrid, n_far: int = 0) -> Trajectory:
    """RK4 for dy/dt = M(t) y + g(t) with both M and g tabulated on the
    doubled grid (2*steps+1 nodes).  Same step maps, scan and boundary
    problems as ``rk4_linear_tabulated``, with M read at each step's three
    nodes."""
    M_half = np.asarray(M_half, dtype=float)
    if M_half.shape[0] != 2 * grid.steps + 1:
        raise ValueError("M_half must be tabulated on the doubled grid")
    return _rk4_linear(M_half, g_half, y0, grid, n_far)


def _rk4_linear(M: np.ndarray, g_half: np.ndarray, y0: np.ndarray,
                grid: TimeGrid, n_far: int) -> Trajectory:
    """Classical RK4 for dy/dt = M(t) y + g(t), all steps at once.

    One RK4 step is the affine map y -> P_i y + c_i, built for every step
    with batched matmuls.  The steps are cut into chunks; an inclusive
    Hillis-Steele scan composes each chunk's maps in ceil(log2 chunk)
    batched passes, so every node is its chunk's prefix map applied to the
    chunk-start state.  When M is constant, P_i is one P: the prefix maps
    are its powers, and each pass and the read-out multiply by them as
    single matrix products.

    With ``n_far`` = 0 it is the initial value problem from y(t0) = ``y0``
    and the chunk starts follow one another; a problem pinned at t1 is that
    one in reversed time, -M and -g read from t1 down.  With ``n_far`` > 0
    it is a split two-point boundary problem: the first ``n_far``
    components of ``y0`` are pinned at t1 instead, the rest at t0.  The
    chunk starts then come from one banded solve (``_split_starts``,
    multiple shooting), and chunks are cut so that the step-map product
    within one stays below e^_SPLIT_GROWTH in the infinity norm: a node
    computed from its chunk start loses at most that factor to
    cancellation, however fast the modes pinned at the far end grow.

    Raises OdeBlowupError at the first node that is not finite (any node of
    a split problem), and LinAlgError when the split system is singular.
    """
    steps = grid.steps
    g_half = np.asarray(g_half, dtype=float)
    if g_half.shape[0] != 2 * steps + 1:
        raise ValueError("g_half must be tabulated on the doubled grid")
    y0 = np.asarray(y0, dtype=float)
    d = y0.shape[0]
    if not 0 <= n_far <= d:
        raise ValueError(f"n_far={n_far} must lie in [0, {d}]")
    h = grid.dt
    Ma, Mm, Mb = (M, M, M) if M.ndim == 2 else (M[0:-1:2], M[1::2], M[2::2])
    eye = np.eye(d)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # P = I + h/6 (K1 + 2 K2 + 2 K3 + K4) and likewise c from the g values,
        # accumulated in place so only one stage array is alive at a time
        P, K = Ma.copy(), Ma
        c, k = g_half[0:-1:2].copy(), g_half[0:-1:2]
        for Ms, gs, w, frac in ((Mm, g_half[1::2], 2.0, 0.5), (Mm, g_half[1::2], 2.0, 0.5),
                                (Mb, g_half[2::2], 1.0, 1.0)):
            K = Ms @ (eye + (frac * h) * K)
            P += w * K
            k = matvec(Ms, (frac * h) * k) + gs
            c += w * k
        P *= h / 6.0
        P += eye
        c *= h / 6.0

        # ||P_i ... P_j|| <= norm^(i-j+1); a non-finite norm is caught below
        chunk = scan_chunk(steps, float(np.abs(P).sum(axis=-1).max()) if n_far else 1.0)
        C = -(-steps // chunk)
        last = np.full(C, chunk - 1)
        last[-1] = steps - 1 - (C - 1) * chunk         # the last chunk may be short

        # chunked scan: lin[..., i] and c[:, i] become the map of steps 0..i
        # of each chunk
        c = np.concatenate([c, np.zeros((C * chunk - steps, d))]).reshape(C, chunk, d)
        if P.ndim == 2:
            # a shared P needs only its powers lin[i] = P^(i+1), by doubling;
            # each scan pass then applies one P^shift to every entry
            lin = np.empty((chunk, d, d))
            lin[0] = P
            shift = 1
            while shift < chunk:
                top = min(2 * shift, chunk)
                lin[shift:top] = lin[shift - 1] @ lin[:top - shift]
                c[:, shift:] += c[:, :-shift] @ lin[shift - 1].T
                shift *= 2
        else:
            lin = np.concatenate([P, np.broadcast_to(eye, (C * chunk - steps, d, d))])
            lin = lin.reshape(C, chunk, d, d)
            shift = 1
            while shift < chunk:
                c[:, shift:] += (lin[..., shift:, :, :] @ c[:, :-shift, :, None])[..., 0]
                lin[..., shift:, :, :] = lin[..., shift:, :, :] @ lin[..., :-shift, :, :]
                shift *= 2
        Q = np.broadcast_to(lin, (C, chunk, d, d))[np.arange(C), last]
        r = c[np.arange(C), last]

        if n_far:
            if not (np.isfinite(Q).all() and np.isfinite(r).all()):
                raise OdeBlowupError(grid.t0, "split RK4 solve: non-finite chunk map")
            starts = _split_starts(Q, r, y0, n_far)
            starts[0, n_far:] = y0[n_far:]          # the pins hold exactly
        else:
            starts = np.empty((C + 1, d))
            starts[0] = y0
            for j in range(C):
                starts[j + 1] = Q[j] @ starts[j] + r[j]
        if P.ndim == 2:     # every node at once: starts @ [P^1.T ... P^chunk.T]
            y = (starts[:-1] @ lin.transpose(2, 0, 1).reshape(d, chunk * d)).reshape(C, chunk, d)
        else:
            y = (lin @ starts[:-1, None, :, None])[..., 0]
        y = (y + c).reshape(-1, d)[:steps]

    finite = np.isfinite(y).all(axis=1)
    if not finite.all():
        raise OdeBlowupError(float(grid.times()[int(np.argmin(finite)) + 1]))
    out = np.concatenate([starts[:1], y])
    out[-1, :n_far] = y0[:n_far]
    return Trajectory(grid, out)


def _split_starts(Q: np.ndarray, r: np.ndarray, y_pin: np.ndarray, n_far: int) -> np.ndarray:
    """Chunk-start states Y_0..Y_C of the split boundary problem, in
    integration order.

    Unknowns Y_0..Y_C (d each) in one vector; equations in this order: the
    start pins Y_0[n_far:] = y_pin[n_far:], the continuity
    Y_{j+1} - Q_j Y_j = r_j for j = 0..C-1, and the far-end pins
    Y_C[:n_far] = y_pin[:n_far].  The matrix is banded with 2d - n_far - 1
    sub- and n_far super-diagonals; in ``solve_banded``'s layout (row
    u + i - j holds entry (i, j)) every unit entry lies on row 0, the far-end
    pins on row d, and -Q_j[i, q] on row d + i - q of column j d + q.
    """
    C, d = r.shape
    ab = np.zeros((2 * d, (C + 1) * d))
    ab[0, n_far:] = 1.0
    ab[d, C * d:C * d + n_far] = 1.0
    i, q = np.indices((d, d))
    ab[d + i - q, d * np.arange(C)[:, None, None] + q] = -Q
    rhs = np.concatenate([y_pin[n_far:], r.ravel(), y_pin[:n_far]])
    return solve_banded((2 * d - n_far - 1, n_far), ab, rhs).reshape(C + 1, d)


def spectral_abscissa(M: np.ndarray) -> float:
    """Max real part of the eigenvalues of a square matrix."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"spectral_abscissa needs a square matrix, got shape {M.shape}")
    try:
        eigs = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise RuntimeError(f"eigen-solver failure: {exc}") from exc
    return float(np.max(eigs.real))


def cholesky_psd(cov: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric PSD matrix.

    Escalates a diagonal jitter up to 1e-12 * trace before failing; exact
    zero matrices factor to zero.  Near-singular covariances (tiny
    exploration weights) are the motivating case.  A diagonal matrix with
    a positive diagonal skips the checks: its factor is sqrt(diag), the
    same bits LAPACK returns.
    """
    cov = np.asarray(cov, dtype=float)
    d = cov.shape[0]
    if cov.shape != (d, d):
        raise ValueError(f"covariance must be square, got {cov.shape}")
    diag = np.diagonal(cov)
    # every diagonal entry positive and nothing else nonzero (NaN counts)
    if np.count_nonzero(diag > 0.0) == d and np.count_nonzero(cov) == d:
        return np.diag(np.sqrt(diag))
    sym_err = np.max(np.abs(cov - cov.T)) if d else 0.0
    if sym_err > 1e-10 * (1.0 + np.max(np.abs(cov))):
        raise ValueError("covariance not symmetric")
    if not np.any(cov):
        return np.zeros_like(cov)
    covs = 0.5 * (cov + cov.T)
    tr = float(np.trace(covs))
    for jitter in (0.0, 1e-16 * tr, 1e-14 * tr, 1e-12 * tr):
        try:
            return np.linalg.cholesky(covs + jitter * np.eye(d))
        except np.linalg.LinAlgError:
            continue
    raise ValueError("covariance not positive semidefinite")


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """The stream named by (seed, *key), independent of every other pair.

    The key goes into the spawn key, not next to the seed in the entropy
    list: ``SeedSequence([s, 0])`` is the same stream as ``SeedSequence(s)``,
    and ``SeedSequence([2**32 + 1, 0])`` the same as ``SeedSequence([1, 1])``.
    A negative seed is taken modulo 2**64.
    """
    return np.random.default_rng(np.random.SeedSequence(
        int(seed) & _SEED_MASK, spawn_key=tuple(int(k) for k in key)))


def fit_rate(xs, ys) -> float:
    """OLS slope of log(ys) against log(xs); needs >= 3 strictly positive ys."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("xs and ys must be 1-d arrays of equal length")
    if xs.size < 3:
        raise ValueError("rate fit needs at least 3 points")
    if np.any(ys <= 0.0) or np.any(xs <= 0.0):
        raise ValueError("rate fit needs strictly positive xs and ys")
    slope, _ = np.polyfit(np.log(xs), np.log(ys), 1)
    return float(slope)
