"""Exact-transition ensemble oracle for the Markovian kernel.

Paths follow dx = (p/M) dt, dp = -2 gamma p dt + sqrt(2 D) dW with the
constant Markovian D = hbar^2 Delta = 2 M gamma kT. This stochastic
representation exists only for the Markovian kernel; the non-Markovian cross
term makes the diffusion matrix indefinite, so there the validation path is
the xi = 0 reduction and the moment/PDE cross-check instead.

The SDE is linear, so its transition over any interval h is Gaussian and
known in closed form: z(t + h) = Phi(h) z(t) + L xi with L L^T = Sigma(h) and
xi two standard normals per path (Gillespie, Phys. Rev. E 54 (1996) 2084).
Each output interval is one such transition: there is no time step, no
discretization bias and no stability bound. Phi and Sigma are written out
here, not taken from the moment engine this oracle checks.

Randomness comes from the counter-based Philox generator. Paths are laid out
in fixed-size blocks and block b of seed s draws from Philox(key=(s, b)): two
normals per path for the initial state, then two per interval. So every
path's noise is a pure function of (seed, path index). The blocks run one
after another, so one block of paths is in memory at a time, and their moment
sums are added in block order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..model import ModelParams, SecondMomentInit, _thermal_spread
from .moments import MOMENT_KEYS, KernelSchedule

__all__ = ["EnsembleMoments", "simulate_sde_markov", "PATH_BLOCK"]

PATH_BLOCK = 4096
_MASK64 = (1 << 64) - 1
# each monomial x^j p^k of MOMENT_KEYS after m00: its index, the index of the
# monomial one power of x (or, for j = 0, of p) below it, and that coordinate
_LADDER = tuple((i, MOMENT_KEYS.index((j - 1, k) if j else (0, k - 1)), 0 if j else 1)
                for i, (j, k) in enumerate(MOMENT_KEYS) if i)


@dataclass(frozen=True)
class EnsembleMoments:
    """Ensemble moment estimates with standard errors at sampled times, one
    exact transition of length ``interval`` apart."""

    times: np.ndarray
    mean: Mapping[tuple[int, int], np.ndarray]
    stderr: Mapping[tuple[int, int], np.ndarray]
    n_paths: int
    interval: float


def _block_rng(seed: int, block: int) -> np.random.Generator:
    key = np.array([seed & _MASK64, block & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _lower_factor(sxx: float, sxp: float, spp: float) -> np.ndarray:
    """Lower-triangular L with L L^T = [[sxx, sxp], [sxp, spp]], in closed form
    for a positive semi-definite matrix: where a variance is 0 (kT = 0) its
    column is 0, where Cholesky would fail."""
    a = math.sqrt(sxx)
    b = sxp / a if a > 0 else 0.0
    return np.array([[a, 0.0], [b, math.sqrt(max(spp - b * b, 0.0))]])


def _transition(params: ModelParams, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(Phi, Sigma) of the exact transition over an interval h. With
    u = 1 - e^{-2 gamma h} and D = 2 M gamma kT:

    Phi = [[1, u / (2 gamma M)], [0, 1 - u]],
    Sigma_xx = (kT / 2M) (2 gamma h - u - u^2/2) / gamma^2,
    Sigma_xp = D u^2 / (4 gamma^2 M),  Sigma_pp = (D / 2 gamma) u (2 - u).

    u / gamma tends to 2h as gamma -> 0, so no factor overflows there, and the
    Sigma_xx bracket is summed as a series where its terms cancel.
    """
    D, _ = KernelSchedule.markov(params).coefficients(0.0)
    g, M = params.gamma, params.M
    u = -math.expm1(-2.0 * g * h)
    u_g = u / g
    phi = np.array([[1.0, u_g / (2.0 * M)], [0.0, math.exp(-2.0 * g * h)]])
    sxx = params.kT / (2.0 * M) * float(_thermal_spread(g, np.float64(h)))
    sxp = D * u_g**2 / (4.0 * M)
    return phi, np.array([[sxx, sxp], [sxp, D * u_g * (2.0 - u) / 2.0]])


def simulate_sde_markov(
    params: ModelParams,
    init: SecondMomentInit,
    n_paths: int,
    interval: float,
    t_end: float,
    seed: int,
) -> EnsembleMoments:
    """Ensemble moments of the Markovian model at t = 0 and after each of
    n = ceil(t_end / interval) equal exact transitions: rows at
    linspace(0, t_end, n + 1).

    Initial states are Gaussian moment-matched samples of ``init``. Requires
    at least 1000 paths. Deterministic under a fixed seed.
    """
    if not (interval > 0 and t_end > 0 and math.isfinite(t_end / interval)):
        raise ValueError("interval and t_end must be positive, with a finite ratio")
    if n_paths < 1000:
        raise ValueError("n_paths must be at least 1000")
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    cross = init.spx_0 / 2.0
    if not cross * cross < init.sx2_0 * init.sp2_0:
        raise ValueError("initial second moments are not positive definite")

    n = math.ceil(t_end / interval - 1e-12)
    times = np.linspace(0.0, t_end, n + 1)
    phi, sigma = _transition(params, t_end / n)
    start = _lower_factor(init.sx2_0, cross, init.sp2_0)
    noise = _lower_factor(sigma[0, 0], sigma[0, 1], sigma[1, 1])

    # per row: the sums over the paths of each monomial and of its square
    sums = np.zeros((n + 1, 2, len(MOMENT_KEYS)))
    for b in range((n_paths + PATH_BLOCK - 1) // PATH_BLOCK):
        rng = _block_rng(seed, b)
        shape = (2, min(PATH_BLOCK, n_paths - b * PATH_BLOCK))
        z = start @ rng.standard_normal(shape)
        _accumulate(sums[0], z)
        for row in sums[1:]:
            z = phi @ z + noise @ rng.standard_normal(shape)
            _accumulate(row, z)

    mu = sums[:, 0] / n_paths
    se = np.sqrt(np.maximum(sums[:, 1] / n_paths - mu**2, 0.0) / n_paths)
    mean = {key: mu[:, i] for i, key in enumerate(MOMENT_KEYS)}
    stderr = {key: se[:, i] for i, key in enumerate(MOMENT_KEYS)}
    times.setflags(write=False)
    return EnsembleMoments(times=times, mean=mean, stderr=stderr, n_paths=n_paths, interval=t_end / n)


def _accumulate(row: np.ndarray, z: np.ndarray) -> None:
    """Add the path sums of each monomial x^j p^k of MOMENT_KEYS, and of its
    square, to row[0] and row[1]."""
    q = np.empty((len(MOMENT_KEYS), z.shape[1]))
    q[0] = 1.0
    for i, lower, axis in _LADDER:
        np.multiply(q[lower], z[axis], out=q[i])
    row[0] += q.sum(axis=1)
    q *= q
    row[1] += q.sum(axis=1)
