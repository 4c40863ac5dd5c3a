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
threads.  Construction only normalizes shapes; semantic checks (definiteness,
mixture normalization, discount sign) live in validate_spec, which reports
rather than raises.
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
    "save_spec",
    "load_spec",
]

# Eigenvalue floor absorbing round-off in PSD checks; exact zero eigenvalues
# (admissible for Q - S R^-1 S^T) must pass.
_EIG_FLOOR = 1e-10


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


def _mat(x, shape, name: str) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    if a.ndim == 1 and shape is not None and len(shape) == 2:
        # allow scalar-problem convenience: 1-d rows become column/row blocks
        a = a.reshape(shape) if a.size == shape[0] * shape[1] else a
    if shape is not None and a.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
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
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        n = A.shape[0]
        B = np.asarray(self.B, dtype=float)
        if B.ndim == 0:
            B = B.reshape(1, 1)
        elif B.ndim == 1:
            B = B.reshape(n, -1)
        m = B.shape[1]
        object.__setattr__(self, "A", _mat(A, (n, n), "A"))
        object.__setattr__(self, "B", _mat(B, (n, m), "B"))
        object.__setattr__(self, "Q", _mat(self.Q, (n, n), "Q"))
        object.__setattr__(self, "R", _mat(self.R, (m, m), "R"))
        S = self.S if self.S is not None else np.zeros((n, m))
        object.__setattr__(self, "S", _mat(S, (n, m), "S"))
        F = self.F if self.F is not None else np.zeros((n, n))
        object.__setattr__(self, "F", _mat(F, (n, n), "F"))
        H = self.H if self.H is not None else np.zeros((n, m))
        object.__setattr__(self, "H", _mat(H, (n, m), "H"))
        D = self.D if self.D is not None else np.zeros((n, 1))
        D = np.asarray(D, dtype=float)
        if D.ndim == 0:
            D = D.reshape(1, 1)
        elif D.ndim == 1:
            D = D.reshape(n, -1)
        object.__setattr__(self, "D", D)
        b = self.b
        if b is None:
            b = TimeTable(np.zeros(n))
        elif isinstance(b, dict):           # TimeTable.to_json's tabulated form
            b = TimeTable(b["values"], b["times"])
        elif not isinstance(b, TimeTable):
            b = TimeTable(np.asarray(b, dtype=float))
        object.__setattr__(self, "b", b)
        eta = self.eta if self.eta is not None else np.zeros(n)
        object.__setattr__(self, "eta", np.atleast_1d(np.asarray(eta, dtype=float)))
        nvec = self.nvec if self.nvec is not None else np.zeros(m)
        object.__setattr__(self, "nvec", np.atleast_1d(np.asarray(nvec, dtype=float)))
        psi = self.psi if self.psi is not None else np.zeros((n, n))
        object.__setattr__(self, "psi", _mat(psi, (n, n), "psi"))
        object.__setattr__(self, "lambda_explore", float(self.lambda_explore))
        object.__setattr__(self, "phi_lagrange", float(self.phi_lagrange))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def r(self) -> int:
        return self.D.shape[1]

    def dims_consistent(self) -> list[str]:
        """Messages for every dimension mismatch (empty when consistent); the
        matrix blocks other than D are shape-checked at construction."""
        n, m = self.n, self.m
        bad = []
        if self.D.shape[0] != n:
            bad.append(f"D has {self.D.shape[0]} rows, expected {n}")
        if self.eta.shape != (n,):
            bad.append(f"eta has shape {self.eta.shape}, expected ({n},)")
        if self.nvec.shape != (m,):
            bad.append(f"nvec has shape {self.nvec.shape}, expected ({m},)")
        if self.b.dim != n:
            bad.append(f"b(t) has dimension {self.b.dim}, expected {n}")
        return bad


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
        object.__setattr__(self, "subpops", subpops)
        object.__setattr__(self, "pi", np.atleast_1d(np.asarray(self.pi, dtype=float)))
        object.__setattr__(self, "rho", float(self.rho))
        object.__setattr__(self, "x0_mean", np.atleast_1d(np.asarray(self.x0_mean, dtype=float)))
        cov = np.asarray(self.x0_cov, dtype=float)
        if cov.ndim == 0:
            cov = cov.reshape(1, 1)
        object.__setattr__(self, "x0_cov", cov)

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
    """Check every statically checkable model assumption.

    Covered: initial-state covariance PSD, mixture normalization, positive
    discount, convexity (R > 0) and state-convexity (Q - S R^-1 S^T >= 0),
    nonnegative exploration weights, and dimension consistency; each
    violation is tagged with its aspect.  Solution existence and
    the stability margins (Assumption 4) are checked downstream by the
    riccati and meanfield modules, not here.
    """
    v: list[tuple[str, str]] = []
    K = spec.K
    if K == 0:
        return ValidationReport((("dimensions", "no sub-populations"),))
    if spec.pi.shape != (K,):
        v.append(("mixture", f"pi has length {spec.pi.shape[0]}, expected {K}"))
    else:
        if np.any(spec.pi < 0):
            v.append(("mixture", "mixture weights must be nonnegative"))
        if abs(spec.pi.sum() - 1.0) > 1e-12:
            v.append(("mixture", "mixture weights sum != 1"))
    if not spec.rho > 0:
        v.append(("discount", f"rho must be > 0, got {spec.rho}"))

    n0, m0, r0 = spec.subpops[0].n, spec.subpops[0].m, spec.subpops[0].r
    for k, p in enumerate(spec.subpops):
        tag = f"subpop {k}"
        if (p.n, p.m) != (n0, m0):
            v.append(("dimensions", f"{tag}: state/control dims {(p.n, p.m)} differ from {(n0, m0)}"))
            continue
        if p.r != r0:
            # the simulator draws one noise width for every type
            v.append(("dimensions", f"{tag}: D has {p.r} columns, type 0's has {r0}"))
        for msg in p.dims_consistent():
            v.append(("dimensions", f"{tag}: {msg}"))
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

    if spec.x0_mean.shape != (n0,):
        v.append(("initial-state", f"x0_mean has shape {spec.x0_mean.shape}, expected ({n0},)"))
    if spec.x0_cov.shape != (n0, n0):
        v.append(("initial-state", f"x0_cov has shape {spec.x0_cov.shape}, expected ({n0}, {n0})"))
    else:
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


def spec_from_json(doc: dict) -> PopulationSpec:
    """The spec of a ``spec_to_json`` document.  Each block needs A, B, Q and
    R (a missing one raises KeyError); ``SubpopParams`` defaults the rest."""
    optional = [f.name for f in fields(SubpopParams)][4:]
    return PopulationSpec(
        subpops=tuple(SubpopParams(blk["A"], blk["B"], blk["Q"], blk["R"],
                                   **{name: blk[name] for name in optional if name in blk})
                      for blk in doc["subpops"]),
        pi=doc["pi"], rho=doc["rho"], x0_mean=doc["x0_mean"], x0_cov=doc["x0_cov"])


def save_spec(spec: PopulationSpec, path) -> None:
    write_json(path, spec_to_json(spec))


def load_spec(path) -> PopulationSpec:
    with open(path) as fh:
        return spec_from_json(json.load(fh))
