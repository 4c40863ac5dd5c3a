"""Game specification: sub-population parameter blocks, mixture weights,
and the structural assumption checks shared by every solver.

A population has K types ("sub-populations"); agents of type k share the
dynamics

    dx_t = (A x_t + F x^(N)_t + H u^(N)_t + B u_t + b(t)) dt + D dw_t

and a discounted quadratic tracking cost with weights (Q, R, S, eta, nvec)
against the target y_t = psi x^(N)_t.  In the infinite-population limit the
couplings act through the stacked per-type means: each base block F is
expanded to [pi_1 F, ..., pi_K F] so that expand(F) @ xbar equals
F @ (sum_k pi_k xbar_k).

All types here are immutable after construction and safe to share across
threads.  A spec that builds is well-formed: construction fills a block
given as a scalar or a 1-d value into the block's rows, and raises
ValueError, naming the field, for a block that does not fit its type's
n, m and r, for types of different (n, m, r), for weights or an initial
law of the wrong size, for non-finite numbers and for offset knots that do
not strictly increase.  The model's assumptions (mixture normalization,
discount sign, definiteness, exploration sign) live in validate_spec, which
reports rather than raises.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

from .numerics import write_json

__all__ = [
    "SubpopParams",
    "PopulationSpec",
    "ValidationReport",
    "TimeTable",
    "SpecValidationError",
    "validate_spec",
    "selector_matrix",
    "expand",
    "spec_to_json",
    "spec_from_json",
    "is_json_number",
    "save_spec",
    "load_spec",
]

# Eigenvalue floor absorbing round-off in PSD checks; exact zero eigenvalues
# (admissible for Q - S R^-1 S^T) must pass.
_EIG_FLOOR = 1e-10


def _check_finite(obj) -> None:
    """Refuse a NaN or an infinity in any number or array field of ``obj``."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, (float, np.ndarray)) and not np.all(np.isfinite(value)):
            raise ValueError(f"{f.name} must be finite, got {np.asarray(value).tolist()!r}")


class SpecValidationError(ValueError):
    """Raised by solvers when handed a spec whose assumptions fail."""

    def __init__(self, report: "ValidationReport"):
        self.report = report
        lines = "; ".join(f"[{a}] {m}" for a, m in report.violations)
        super().__init__(f"population spec violates model assumptions: {lines}")


@dataclass(frozen=True)
class TimeTable:
    """Deterministic drift offset b(t): a constant vector or an affine table.

    With `times` unset the value is constant.  Tabulated offsets interpolate
    linearly between knots and hold the end values outside them.
    """

    values: np.ndarray
    times: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", np.atleast_1d(np.asarray(self.values, dtype=float)))
        if self.times is not None:
            object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
            if self.values.ndim != 2 or self.values.shape[0] != self.times.shape[0]:
                raise ValueError("tabulated offset needs values of shape (len(times), n)")
        _check_finite(self)
        if self.times is not None and not np.all(np.diff(self.times) > 0):
            raise ValueError(f"offset knots must strictly increase, got {self.times.tolist()!r}")

    @property
    def dim(self) -> int:
        return self.values.shape[-1]

    def __call__(self, t: float | np.ndarray) -> np.ndarray:
        if self.times is None:
            if np.ndim(t) == 0:
                return self.values
            return np.broadcast_to(self.values, (len(t), self.dim))
        out = np.empty((np.size(t), self.dim))
        for j in range(self.dim):
            out[:, j] = np.interp(np.atleast_1d(t), self.times, self.values[:, j])
        return out[0] if np.ndim(t) == 0 else out

    def to_json(self):
        if self.times is None:
            return self.values.tolist()
        return {"times": self.times.tolist(), "values": self.values.tolist()}


def _shaped(x, shape: tuple, name: str) -> np.ndarray:
    """``x`` as a float array of ``shape``, where a None width takes any.  A
    scalar or a 1-d value fills a block's rows in order, and a scalar is a
    one-entry vector."""
    given = np.asarray(x, dtype=float)
    a = given
    if len(shape) == 1:
        a = np.atleast_1d(a)
    elif a.ndim < 2 and shape[0] and a.size % shape[0] == 0:
        a = a.reshape(shape[0], -1)
    if a.ndim != len(shape) or any(w not in (None, d) for w, d in zip(shape, a.shape)):
        want = str(shape).replace("None", "*")
        raise ValueError(f"{name} must have shape {want}, got {given.shape}")
    return a


@dataclass(frozen=True)
class SubpopParams:
    """Parameter block for one sub-population.

    The couplings F, H, psi are stored as single base blocks (n x n / n x m /
    n x n) and expanded against the mixture weights via `expand`; per-type
    distinct coupling blocks are out of scope.
    """

    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    S: np.ndarray | None = None
    F: np.ndarray | None = None
    H: np.ndarray | None = None
    D: np.ndarray | None = None
    b: TimeTable | None = None
    eta: np.ndarray | None = None
    nvec: np.ndarray | None = None
    psi: np.ndarray | None = None
    lambda_explore: float = 0.0
    phi_lagrange: float = 0.0

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        n = A.shape[0] if A.ndim == 2 else 1
        B = _shaped(self.B, (n, None), "B")
        m = B.shape[1]
        shapes = dict(A=(n, n), B=(n, m), Q=(n, n), R=(m, m), S=(n, m), F=(n, n),
                      H=(n, m), D=(n, None), eta=(n,), nvec=(m,), psi=(n, n))
        for name, shape in shapes.items():
            value = getattr(self, name)
            if value is None:       # a zero block; no noise is one zero column of D
                value = np.zeros([1 if w is None else w for w in shape])
            object.__setattr__(self, name, _shaped(value, shape, name))
        b = self.b if isinstance(self.b, TimeTable) else TimeTable(
            np.zeros(n) if self.b is None else self.b)
        want = (n,) if b.times is None else (len(b.times), n)
        if b.values.shape != want:
            raise ValueError(f"b must have shape {want}, got {b.values.shape}")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "lambda_explore", float(self.lambda_explore))
        object.__setattr__(self, "phi_lagrange", float(self.phi_lagrange))
        _check_finite(self)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def r(self) -> int:
        return self.D.shape[1]


@dataclass(frozen=True)
class PopulationSpec:
    """Full game description: K parameter blocks, mixture weights, discount,
    and the common initial-state distribution N(x0_mean, x0_cov)."""

    subpops: tuple[SubpopParams, ...]
    pi: np.ndarray
    rho: float
    x0_mean: np.ndarray
    x0_cov: np.ndarray

    def __post_init__(self):
        subpops = tuple(self.subpops)
        if not subpops:
            raise ValueError("subpops must hold at least one type")
        n, m, r = subpops[0].n, subpops[0].m, subpops[0].r
        for k, p in enumerate(subpops):
            if (p.n, p.m) != (n, m):
                raise ValueError(f"subpops[{k}] has (n, m) = {(p.n, p.m)}, type 0 has {(n, m)}")
            if p.r != r:    # the simulator draws one noise width for every type
                raise ValueError(f"subpops[{k}]: D has {p.r} columns, type 0's has {r}")
        object.__setattr__(self, "subpops", subpops)
        object.__setattr__(self, "pi", _shaped(self.pi, (len(subpops),), "pi"))
        object.__setattr__(self, "rho", float(self.rho))
        object.__setattr__(self, "x0_mean", _shaped(self.x0_mean, (n,), "x0_mean"))
        object.__setattr__(self, "x0_cov", _shaped(self.x0_cov, (n, n), "x0_cov"))
        _check_finite(self)

    @property
    def K(self) -> int:
        return len(self.subpops)

    @property
    def n(self) -> int:
        return self.subpops[0].n

    @property
    def m(self) -> int:
        return self.subpops[0].m

    def Fbar(self, k: int) -> np.ndarray:
        return expand(self.subpops[k].F, self.pi)

    def Hbar(self, k: int) -> np.ndarray:
        return expand(self.subpops[k].H, self.pi)

    def psibar(self, k: int) -> np.ndarray:
        return expand(self.subpops[k].psi, self.pi)


@dataclass(frozen=True)
class ValidationReport:
    """The (aspect, message) violations ``validate_spec`` found."""

    violations: tuple[tuple[str, str], ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def expand(base: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Expand a base coupling block against mixture weights.

    Returns [pi_1 M, ..., pi_K M] of shape (n, cols*K), laid out so that
    expand(M, pi) @ stacked = M @ (sum_k pi_k block_k) for a type-block
    stacked vector.
    """
    base = np.atleast_2d(np.asarray(base, dtype=float))
    pi = np.asarray(pi, dtype=float)
    return np.kron(pi.reshape(1, -1), base)


def selector_matrix(k: int, n: int, K: int) -> np.ndarray:
    """Block row [0 ... I_n ... 0] with the identity in block k (1-based)."""
    if not 1 <= k <= K:
        raise ValueError(f"type index k={k} out of range 1..{K}")
    e = np.zeros((n, n * K))
    e[:, (k - 1) * n: k * n] = np.eye(n)
    return e


def _sym_min_eig(M: np.ndarray) -> tuple[float, float]:
    """(min eigenvalue of the symmetrized matrix, asymmetry defect)."""
    M = np.atleast_2d(M)
    asym = float(np.max(np.abs(M - M.T))) if M.size else 0.0
    w = np.linalg.eigvalsh(0.5 * (M + M.T))
    return float(w[0]), asym


def validate_spec(spec: PopulationSpec) -> ValidationReport:
    """Check every statically checkable model assumption of a spec, whose
    shapes its construction has already checked.

    Covered: mixture normalization, positive discount, convexity (R > 0),
    state-convexity (Q - S R^-1 S^T >= 0), nonnegative exploration weights
    and the initial-state covariance (symmetric PSD); each violation is
    tagged with its aspect.  Solution existence and the stability margins
    (Assumption 4) are checked downstream by the riccati and meanfield
    modules, not here.
    """
    v: list[tuple[str, str]] = []
    if np.any(spec.pi < 0):
        v.append(("mixture", "mixture weights must be nonnegative"))
    if abs(spec.pi.sum() - 1.0) > 1e-12:
        v.append(("mixture", "mixture weights sum != 1"))
    if not spec.rho > 0:
        v.append(("discount", f"rho must be > 0, got {spec.rho}"))

    for k, p in enumerate(spec.subpops):
        tag = f"subpop {k}"
        floor = _EIG_FLOOR * (1.0 + float(np.max(np.abs(p.R), initial=0.0)))
        min_eig, asym = _sym_min_eig(p.R)
        if asym > floor:
            v.append(("convexity", f"{tag}: R not symmetric"))
        if min_eig <= floor:
            v.append(("convexity", f"{tag}: R not positive definite"))
        else:
            Qeff = p.Q - p.S @ np.linalg.solve(p.R, p.S.T)
            qfloor = _EIG_FLOOR * (1.0 + float(np.max(np.abs(Qeff))))
            qmin, qasym = _sym_min_eig(Qeff)
            if qasym > qfloor:
                v.append(("state-convexity", f"{tag}: Q - S R^-1 S^T not symmetric"))
            if qmin < -qfloor:
                v.append(("state-convexity",
                          f"{tag}: Q - S R^-1 S^T not positive semidefinite"))
        if p.lambda_explore < 0:
            v.append(("exploration", f"{tag}: lambda_explore must be >= 0"))

    cfloor = _EIG_FLOOR * (1.0 + float(np.max(np.abs(spec.x0_cov), initial=0.0)))
    cmin, casym = _sym_min_eig(spec.x0_cov)
    if casym > cfloor:
        v.append(("initial-state", "x0_cov not symmetric"))
    if cmin < -cfloor:
        v.append(("initial-state", "x0_cov not positive semidefinite"))
    return ValidationReport(tuple(v))


# ---------------------------------------------------------------------------
# JSON round-trip.  Matrices are row-major nested arrays; b is a constant
# vector or {"times": [...], "values": [[...], ...]}.
# ---------------------------------------------------------------------------

def spec_to_json(spec: PopulationSpec) -> dict:
    return {
        "rho": spec.rho,
        "pi": spec.pi.tolist(),
        "x0_mean": spec.x0_mean.tolist(),
        "x0_cov": spec.x0_cov.tolist(),
        "subpops": [
            {
                "A": p.A.tolist(), "B": p.B.tolist(), "F": p.F.tolist(),
                "H": p.H.tolist(), "D": p.D.tolist(), "b": p.b.to_json(),
                "Q": p.Q.tolist(), "R": p.R.tolist(), "S": p.S.tolist(),
                "eta": p.eta.tolist(), "nvec": p.nvec.tolist(),
                "psi": p.psi.tolist(),
                "lambda_explore": p.lambda_explore,
                "phi_lagrange": p.phi_lagrange,
            }
            for p in spec.subpops
        ],
    }


def is_json_number(value) -> bool:
    """Whether a parsed JSON value is a number or a nested list of numbers;
    a bool, a string or a null is neither."""
    if isinstance(value, list):
        return all(map(is_json_number, value))
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _json_numbers(value, name: str):
    if not is_json_number(value):
        raise ValueError(f"{name} must be a number or a list of numbers, got {value!r}")
    return value


def _json_field(doc: dict, key: str):
    value = doc[key]
    if key == "b" and isinstance(value, dict):      # TimeTable.to_json's tabulated form
        return TimeTable(_json_numbers(value["values"], "b values"),
                         _json_numbers(value["times"], "b times"))
    return _json_numbers(value, key)


def spec_from_json(doc: dict) -> PopulationSpec:
    """The spec of a ``spec_to_json`` document, whose numbers must be JSON
    numbers: a string or a bool is refused, not converted.  Each block needs
    A, B, Q and R (a missing one raises KeyError); ``SubpopParams`` defaults
    the rest, null ones too."""
    names = [f.name for f in fields(SubpopParams)]
    return PopulationSpec(
        subpops=tuple(SubpopParams(**{name: _json_field(blk, name) for name in names
                                      if name in names[:4] or blk.get(name) is not None})
                      for blk in doc["subpops"]),
        **{key: _json_field(doc, key) for key in ("pi", "rho", "x0_mean", "x0_cov")})


def save_spec(spec: PopulationSpec, path) -> None:
    write_json(path, spec_to_json(spec))


def load_spec(path) -> PopulationSpec:
    with open(path) as fh:
        return spec_from_json(json.load(fh))
