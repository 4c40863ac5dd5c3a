"""Shared fixtures: solved reference games (cached per session),
closed-form oracles and the random-spec strategy used across the test
modules."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import strategies as st

from lqgmfg import solve_consistency
from lqgmfg.model import PopulationSpec, SubpopParams
from lqgmfg.presets import (coupled_single_type_spec, planar_spec,
                            scalar_decoupled_spec, two_type_spec)


def scalar_are_root(A, B, Q, R, S, rho):
    """Positive root of the scalar discounted ARE
    (B^2/R) Pi^2 + (rho - 2A + 2BS/R) Pi + (S^2/R - Q) = 0."""
    a2 = B * B / R
    a1 = rho - 2.0 * A + 2.0 * B * S / R
    a0 = S * S / R - Q
    disc = a1 * a1 - 4.0 * a2 * a0
    return (-a1 + math.sqrt(disc)) / (2.0 * a2)


@pytest.fixture(scope="session")
def decoupled():
    spec = scalar_decoupled_spec(lambda_explore=0.2, rho=0.5, A=0.0)
    return spec, solve_consistency(spec)


@pytest.fixture(scope="session")
def decoupled_noisy():
    spec = scalar_decoupled_spec(lambda_explore=0.2, rho=0.5, A=0.0,
                                 D=0.3, x0_var=0.25)
    return spec, solve_consistency(spec)


@pytest.fixture(scope="session")
def decoupled_coe():
    spec = scalar_decoupled_spec(lambda_explore=0.2, rho=0.1)
    return spec, solve_consistency(spec)


@pytest.fixture(scope="session")
def coupled():
    spec = coupled_single_type_spec()
    return spec, solve_consistency(spec)


@pytest.fixture(scope="session")
def two_type():
    spec = two_type_spec()
    return spec, solve_consistency(spec)


@pytest.fixture(scope="session")
def planar():
    spec = planar_spec(lambda_explore=0.2, rho=0.1)
    return spec, solve_consistency(spec)


def _stabilizable_pair(rng, n, m):
    """(A, B) with A of either stability and (A, B) controllable: B of full
    row rank when m >= n, else (n = 2, m = 1) a companion form under a
    random rotation."""
    if m >= n:
        Q, _ = np.linalg.qr(rng.normal(size=(m, m)))
        B = Q[:n] * rng.uniform(0.5, 1.5, m)
        return rng.uniform(-1.0, 1.0, (n, n)), B
    T, _ = np.linalg.qr(rng.normal(size=(n, n)))
    companion = np.array([[0.0, 1.0], rng.uniform(-1.0, 1.0, 2)])
    return T @ companion @ T.T, T @ np.array([[0.0], [1.0]])


def random_subpop(rng, n, m, coupling):
    """One type: (A, B) stabilizable, R > 0, Q - S R^-1 S^T >= 0.1 I,
    F/H/psi entries up to ``coupling``, small offsets b, eta, n."""
    A, B = _stabilizable_pair(rng, n, m)
    G = rng.uniform(-1.0, 1.0, (m, m))
    R = G @ G.T + 0.5 * np.eye(m)
    S = rng.uniform(-0.2, 0.2, (n, m))
    W = rng.uniform(-1.0, 1.0, (n, n))
    Q = W @ W.T + S @ np.linalg.solve(R, S.T) + 0.1 * np.eye(n)
    Q = 0.5 * (Q + Q.T)
    return SubpopParams(
        A=A, B=B, Q=Q, R=R, S=S,
        F=coupling * rng.uniform(-1.0, 1.0, (n, n)),
        H=coupling * rng.uniform(-1.0, 1.0, (n, m)),
        psi=coupling * rng.uniform(-1.0, 1.0, (n, n)),
        D=0.2 * np.eye(n), b=rng.uniform(-0.3, 0.3, n),
        eta=rng.uniform(-0.3, 0.3, n), nvec=rng.uniform(-0.3, 0.3, m),
        lambda_explore=float(rng.uniform(0.0, 0.5)))


@st.composite
def random_specs(draw, coupling=st.sampled_from([0.1, 0.3, 2.0])):
    """Random stabilizable games: K in {1, 2, 3}, n, m in {1, 2}, rho in
    [0.2, 1], each type from ``random_subpop`` with the drawn coupling
    scale: small (0.1, 0.3), or strong (2.0), which often breaks the
    aggregate stability margin.  The matrices come from a NumPy generator
    seeded by hypothesis, so an example is reproduced from its seed."""
    K, n, m = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(coupling)
    subpops = tuple(random_subpop(rng, n, m, scale) for _ in range(K))
    w = rng.uniform(0.2, 1.0, K)
    pi = w / w.sum()
    pi[-1] = 1.0 - pi[:-1].sum()
    return PopulationSpec(subpops=subpops, pi=pi, rho=float(rng.uniform(0.2, 1.0)),
                          x0_mean=rng.uniform(-1.0, 1.0, n), x0_cov=0.1 * np.eye(n))
