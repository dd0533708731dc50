"""Euler-Maruyama ensemble oracle for the Markovian kernel.

Paths follow dx = (p/M) dt, dp = -2 gamma p dt + sqrt(2 D) dW with the
constant Markovian D = hbar^2 Delta = 2 M gamma kT. This stochastic
representation exists only for the Markovian kernel; the non-Markovian cross
term makes the diffusion matrix indefinite, so there the validation path is
the xi = 0 reduction and the moment/PDE cross-check instead.

Randomness comes from the counter-based Philox generator. Paths are laid out
in fixed-size blocks and block b of seed s draws from Philox(key=(s, b)), so
every path's noise is a pure function of (seed, path index). The blocks run
concurrently on a thread pool of up to one thread per usable CPU (numpy's
normal draws and array arithmetic release the interpreter lock), and their
moment sums are added in block order, so the result is bit-identical whatever
the thread count or scheduling.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..errors import StabilityError
from ..model import ModelParams, SecondMomentInit
from .moments import MOMENT_KEYS, KernelSchedule

__all__ = ["EnsembleMoments", "simulate_sde_markov", "PATH_BLOCK"]

PATH_BLOCK = 4096
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class EnsembleMoments:
    """Ensemble moment estimates with standard errors at sampled times."""

    times: np.ndarray
    mean: Mapping[tuple[int, int], np.ndarray]
    stderr: Mapping[tuple[int, int], np.ndarray]
    n_paths: int
    seed: int
    dt: float


def _block_rng(seed: int, block: int) -> np.random.Generator:
    key = np.array([seed & _MASK64, block & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _init_factor(init: SecondMomentInit) -> np.ndarray:
    """Cholesky factor of the initial (x, p) covariance, which maps standard
    normal pairs to Gaussian moment-matched initial states."""
    cov = np.array([[init.sx2_0, init.spx_0 / 2.0], [init.spx_0 / 2.0, init.sp2_0]])
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise ValueError("initial second moments are not positive definite") from exc


def simulate_sde_markov(
    params: ModelParams,
    init: SecondMomentInit,
    n_paths: int,
    dt: float,
    t_end: float,
    seed: int,
    t_eval: Sequence[float] | None = None,
) -> EnsembleMoments:
    """Ensemble moments of the Markovian model by Euler-Maruyama.

    Initial states are Gaussian moment-matched samples of ``init``. Requires
    dt * 2 gamma < 0.1 (explicit-scheme stability margin) and at least 1000
    paths. Deterministic under a fixed seed: the path blocks run concurrently
    on up to one thread per usable CPU, and the bytes of the result depend on
    neither the thread count nor the order in which blocks finish.
    """
    if not (dt > 0 and t_end > 0):
        raise ValueError("dt and t_end must be positive")
    if dt * 2.0 * params.gamma >= 0.1:
        raise StabilityError(f"unstable step: dt*2*gamma = {dt * 2 * params.gamma:.3g} >= 0.1")
    if n_paths < 1000:
        raise ValueError("n_paths must be at least 1000")
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")

    n_steps = int(math.ceil(t_end / dt - 1e-12))
    if t_eval is None:
        t_eval = np.linspace(0.0, n_steps * dt, 11)
    want = np.asarray(t_eval, dtype=float)
    if np.any(want < 0) or np.any(want > n_steps * dt * (1 + 1e-12)):
        raise ValueError("t_eval must lie within [0, t_end]")
    record_idx = np.unique(np.clip(np.round(want / dt).astype(int), 0, n_steps))
    times = record_idx * dt

    D, _ = KernelSchedule.markov(params).coefficients(0.0)
    noise_sd = math.sqrt(2.0 * D * dt)
    damp = 2.0 * params.gamma * dt
    inv_m = dt / params.M

    n_rec = len(record_idx)
    n_mom = len(MOMENT_KEYS)
    chol = _init_factor(init)

    def run_block(b: int) -> tuple[np.ndarray, np.ndarray]:
        # in-place forms of x + p*inv_m and p - damp*p + noise_sd*dw: the
        # same operations in the same order, so the same bits
        size = min(PATH_BLOCK, n_paths - b * PATH_BLOCK)
        rng = _block_rng(seed, b)
        x, p = chol @ rng.standard_normal((2, size))
        dw = np.empty(size)
        tmp = np.empty(size)
        sums = np.zeros((n_rec, n_mom))
        sq_sums = np.zeros((n_rec, n_mom))
        rec_pos = 0
        for step in range(n_steps + 1):
            while rec_pos < n_rec and record_idx[rec_pos] == step:
                _accumulate(sums[rec_pos], sq_sums[rec_pos], x, p)
                rec_pos += 1
            if step == n_steps:
                break
            rng.standard_normal(out=dw)
            np.multiply(p, inv_m, out=tmp)
            x += tmp
            np.multiply(p, damp, out=tmp)
            p -= tmp
            dw *= noise_sd
            p += dw
        return sums, sq_sums

    from concurrent.futures import ThreadPoolExecutor  # here, not at the top: only this command pays for it

    # each block's partial sum is exactly its own q.sum(), and the partials
    # are added in block order, as a serial loop over the blocks would
    sums = np.zeros((n_rec, n_mom))
    sq_sums = np.zeros((n_rec, n_mom))
    n_blocks = (n_paths + PATH_BLOCK - 1) // PATH_BLOCK
    pool = ThreadPoolExecutor(max_workers=min(n_blocks, _usable_cpus()))
    try:
        for block_sums, block_sq_sums in pool.map(run_block, range(n_blocks)):
            sums += block_sums
            sq_sums += block_sq_sums
    finally:
        pool.shutdown(cancel_futures=True)

    mean = {}
    stderr = {}
    for i, key in enumerate(MOMENT_KEYS):
        mu = sums[:, i] / n_paths
        var = np.maximum(sq_sums[:, i] / n_paths - mu**2, 0.0)
        mean[key] = mu
        stderr[key] = np.sqrt(var / n_paths)
    times.setflags(write=False)
    return EnsembleMoments(times=times, mean=mean, stderr=stderr, n_paths=n_paths, seed=seed, dt=dt)


def _accumulate(sum_row: np.ndarray, sq_row: np.ndarray, x: np.ndarray, p: np.ndarray) -> None:
    xs = [np.ones_like(x), x, x * x]
    xs.append(xs[2] * x)
    xs.append(xs[3] * x)
    ps = [np.ones_like(p), p, p * p]
    ps.append(ps[2] * p)
    ps.append(ps[3] * p)
    for i, (j, k) in enumerate(MOMENT_KEYS):
        q = xs[j] * ps[k]
        sum_row[i] += q.sum()
        sq_row[i] += (q * q).sum()
