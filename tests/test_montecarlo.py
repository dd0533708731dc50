"""Euler-Maruyama ensemble oracle: statistical agreement with the closed form
and the moment recursion, reproducibility, and stability preconditions."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbmarket import ModelParams, SecondMomentInit, StabilityError, variance_closed_form
from qbmarket.dynamics import KernelSchedule, MomentState, evolve_moments, simulate_sde_markov
from qbmarket.dynamics import montecarlo
from qbmarket.dynamics.moments import MOMENT_KEYS

from conftest import moment_derivative


class TestPreconditions:
    def test_unstable_step_rejected(self):
        params = ModelParams(M=1.0, gamma=10.0, kT=1.0, hbar=1.0)
        init = SecondMomentInit(sx2_0=1.0, sp2_0=1.0)
        with pytest.raises(StabilityError):
            simulate_sde_markov(params, init, 1000, dt=0.01, t_end=1.0, seed=1)

    def test_path_count_floor(self):
        params = ModelParams(M=1.0, gamma=1.0, kT=1.0, hbar=1.0)
        init = SecondMomentInit(sx2_0=1.0, sp2_0=1.0)
        with pytest.raises(ValueError):
            simulate_sde_markov(params, init, 100, dt=1e-3, t_end=0.1, seed=1)

    def test_indefinite_initial_covariance_rejected_before_any_block(self, monkeypatch):
        # |spx_0 / 2| = 2.5 exceeds sqrt(sx2_0 * sp2_0) = 1
        def no_block(seed, block):
            raise AssertionError(f"block {block} ran")

        monkeypatch.setattr(montecarlo, "_block_rng", no_block)
        params = ModelParams(M=1.0, gamma=1.0, kT=1.0, hbar=1.0)
        init = SecondMomentInit(sx2_0=1.0, sp2_0=1.0, spx_0=5.0)
        with pytest.raises(ValueError, match="not positive definite"):
            simulate_sde_markov(params, init, 3 * 4096, dt=1e-3, t_end=0.1, seed=1)


class TestDegenerateDynamics:
    def test_zero_noise_zero_momentum_freezes_paths(self):
        # kT = 0 and a numerically zero momentum spread: x never moves
        params = ModelParams(M=1.0, gamma=1.0, kT=0.0, hbar=1.0)
        init = SecondMomentInit(sx2_0=1.0, sp2_0=1e-300)
        ens = simulate_sde_markov(params, init, 2000, dt=1e-3, t_end=0.5, seed=5)
        np.testing.assert_allclose(ens.mean[(2, 0)], ens.mean[(2, 0)][0], rtol=1e-12)
        assert np.all(np.asarray(ens.mean[(0, 2)]) < 1e-250)


class TestStatisticalAgreement:
    def test_equipartition_long_time(self):
        params = ModelParams(M=2.0, gamma=1.0, kT=1.5, hbar=1.0)
        init = SecondMomentInit(sx2_0=0.3, sp2_0=0.3)
        ens = simulate_sde_markov(params, init, 20000, dt=2e-3, t_end=6.0, seed=11, t_eval=[6.0])
        target = 2.0 * 1.5
        assert abs(ens.mean[(0, 2)][0] - target) < 3.0 * ens.stderr[(0, 2)][0]

    def test_coordinate_variance_matches_closed_form(self, kurtosis_params):
        init = SecondMomentInit(sx2_0=0.5, sp2_0=0.5, spx_0=0.0)
        ens = simulate_sde_markov(
            kurtosis_params, init, 100000, dt=2e-3, t_end=10.0, seed=3, t_eval=[10.0]
        )
        exact = variance_closed_form(kurtosis_params, init, 10.0)
        assert abs(ens.mean[(2, 0)][0] - exact) < 3.0 * ens.stderr[(2, 0)][0]

    def test_seed_determinism_and_block_independence(self, kurtosis_params):
        init = SecondMomentInit(sx2_0=0.5, sp2_0=0.5)
        a = simulate_sde_markov(kurtosis_params, init, 5000, dt=5e-3, t_end=1.0, seed=42)
        b = simulate_sde_markov(kurtosis_params, init, 5000, dt=5e-3, t_end=1.0, seed=42)
        c = simulate_sde_markov(kurtosis_params, init, 5000, dt=5e-3, t_end=1.0, seed=43)
        for key in MOMENT_KEYS:
            np.testing.assert_array_equal(a.mean[key], b.mean[key])
        assert any(not np.array_equal(a.mean[key], c.mean[key]) for key in MOMENT_KEYS)

    def test_block_substreams_keyed_by_seed_and_block(self):
        # noise is a pure function of (seed, block index): same key gives the
        # same stream, different block or seed gives an independent one
        from qbmarket.dynamics.montecarlo import _block_rng

        a = _block_rng(123, 0).standard_normal(8)
        b = _block_rng(123, 0).standard_normal(8)
        c = _block_rng(123, 1).standard_normal(8)
        d = _block_rng(124, 0).standard_normal(8)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_first_block_reproduced_within_larger_ensemble(self, kurtosis_params):
        # the 8192-path run contains the 4096-path run as its first block, so
        # the second block's mean recovered by difference must be statistically
        # consistent with the model (it is garbage if prefix reproducibility breaks)
        init = SecondMomentInit(sx2_0=0.5, sp2_0=0.5)
        small = simulate_sde_markov(kurtosis_params, init, 4096, dt=5e-3, t_end=0.5, seed=9, t_eval=[0.5])
        large = simulate_sde_markov(kurtosis_params, init, 8192, dt=5e-3, t_end=0.5, seed=9, t_eval=[0.5])
        block1_mean = 2.0 * large.mean[(2, 0)][0] - small.mean[(2, 0)][0]
        exact = variance_closed_form(kurtosis_params, init, 0.5)
        block_se = small.stderr[(2, 0)][0]
        assert abs(block1_mean - exact) < 5.0 * block_se


class TestDerivativeOracle:
    def test_moment_derivative_against_one_step_finite_difference(self, kurtosis_params):
        # independent oracle: a million-path single Euler step at dt = 1e-4,
        # paired per-path finite differences of every monomial
        rng = np.random.default_rng(20240817)
        n = 1_000_000
        dt = 1e-4
        params = kurtosis_params
        x = np.sqrt(0.5) * rng.standard_normal(n)
        p = np.sqrt(0.5) * rng.standard_normal(n)
        D = 2 * params.M * params.gamma * params.kT  # hbar^2 Delta
        noise_sd = np.sqrt(2 * D * dt)
        x1 = x + p / params.M * dt
        p1 = p - 2 * params.gamma * p * dt + noise_sd * rng.standard_normal(n)

        state = MomentState.gaussian(0.5, 0.5, 0.0)
        deriv = moment_derivative(state, params, D, 0.0)
        for (j, k) in MOMENT_KEYS:
            if (j, k) == (0, 0):
                continue
            fd = (x1**j * p1**k - x**j * p**k) / dt
            se = fd.std(ddof=1) / np.sqrt(n)
            tol = 4.0 * se + 1e-9
            assert abs(fd.mean() - deriv[(j, k)]) < tol, (j, k)


class TestAgainstMomentOde:
    def test_all_second_and_fourth_moments_within_three_se(self, kurtosis_params):
        init = SecondMomentInit(sx2_0=0.5, sp2_0=0.5, spx_0=0.0)
        t_eval = [0.0, 2.0, 5.0, 10.0]
        ens = simulate_sde_markov(kurtosis_params, init, 30000, dt=2e-3, t_end=10.0, seed=17, t_eval=t_eval)
        traj = evolve_moments(
            MomentState.from_init(init), KernelSchedule.markov(kurtosis_params), t_eval
        )
        for key in [(2, 0), (1, 1), (0, 2), (4, 0), (3, 1), (2, 2), (1, 3), (0, 4)]:
            mc = ens.mean[key]
            se = np.where(ens.stderr[key] > 0, ens.stderr[key], np.inf)
            ode = traj.moment(*key)
            assert np.all(np.abs(mc - ode) <= 3.0 * se + 1e-12), key


def reference_simulate(params, init, n_paths, dt, t_end, seed, t_eval):
    """The serial algorithm: blocks one after another, each step a fresh
    array expression, every block adding into one shared pair of sums."""
    n_steps = int(math.ceil(t_end / dt - 1e-12))
    want = np.asarray(t_eval, dtype=float)
    record_idx = np.unique(np.clip(np.round(want / dt).astype(int), 0, n_steps))
    noise_sd = math.sqrt(4.0 * params.M * params.gamma * params.kT * dt)
    damp = 2.0 * params.gamma * dt
    inv_m = dt / params.M
    chol = np.linalg.cholesky(np.array([[init.sx2_0, init.spx_0 / 2.0], [init.spx_0 / 2.0, init.sp2_0]]))
    n_rec = len(record_idx)
    sums = np.zeros((n_rec, len(MOMENT_KEYS)))
    sq_sums = np.zeros((n_rec, len(MOMENT_KEYS)))
    for b in range((n_paths + montecarlo.PATH_BLOCK - 1) // montecarlo.PATH_BLOCK):
        size = min(montecarlo.PATH_BLOCK, n_paths - b * montecarlo.PATH_BLOCK)
        rng = montecarlo._block_rng(seed, b)
        x, p = chol @ rng.standard_normal((2, size))
        rec_pos = 0
        for step in range(n_steps + 1):
            while rec_pos < n_rec and record_idx[rec_pos] == step:
                montecarlo._accumulate(sums[rec_pos], sq_sums[rec_pos], x, p)
                rec_pos += 1
            if step == n_steps:
                break
            dw = rng.standard_normal(size)
            x = x + p * inv_m
            p = p - damp * p + noise_sd * dw
    mean = {key: sums[:, i] / n_paths for i, key in enumerate(MOMENT_KEYS)}
    stderr = {
        key: np.sqrt(np.maximum(sq_sums[:, i] / n_paths - mean[key] ** 2, 0.0) / n_paths)
        for i, key in enumerate(MOMENT_KEYS)
    }
    return record_idx * dt, mean, stderr


def assert_same_ensemble(ens, ref):
    times, mean, stderr = ref
    np.testing.assert_array_equal(ens.times, times)
    for key in MOMENT_KEYS:
        np.testing.assert_array_equal(ens.mean[key], mean[key], err_msg=str(key))
        np.testing.assert_array_equal(ens.stderr[key], stderr[key], err_msg=str(key))


EQUIVALENCE_PARAMS = ModelParams(M=20.0, gamma=1.0, kT=1.0, hbar=1.0)
EQUIVALENCE_INIT = SecondMomentInit(sx2_0=0.5, sp2_0=0.5, spx_0=0.3)
EQUIVALENCE_DT = 1e-2


@st.composite
def record_grids(draw):
    """t_end and a record grid holding t = 0, t_end, free times and pairs of
    times that round to the same step."""
    t_end = draw(st.floats(0.005, 0.2))
    inside = st.floats(0.0, t_end)
    times = [0.0, t_end, *draw(st.lists(inside, max_size=4))]
    for t in draw(st.lists(inside, max_size=2)):
        times += [t, min(t_end, t + 0.3 * EQUIVALENCE_DT)]
    return t_end, draw(st.permutations(times))


class TestParallelBlocks:
    @settings(max_examples=30, deadline=None)
    @given(
        n_paths=st.sampled_from([1000, 4096, 4097, 3 * 4096 + 5]),
        grid=record_grids(),
        seed=st.integers(0, 2**63),
    )
    @example(n_paths=3 * 4096 + 5, grid=(0.1, [0.0, 0.031, 0.033, 0.1]), seed=0)
    def test_equals_serial_reference(self, n_paths, grid, seed):
        t_end, t_eval = grid
        args = (EQUIVALENCE_PARAMS, EQUIVALENCE_INIT, n_paths, EQUIVALENCE_DT, t_end, seed)
        assert_same_ensemble(simulate_sde_markov(*args, t_eval=t_eval), reference_simulate(*args, t_eval))

    @pytest.mark.parametrize("workers", [1, 3])
    def test_worker_count_does_not_change_bytes(self, monkeypatch, workers):
        # 3 workers is more than the 2 CPUs of the smallest supported host
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: workers)
        args = (EQUIVALENCE_PARAMS, EQUIVALENCE_INIT, 3 * 4096 + 5, EQUIVALENCE_DT, 0.2, 31)
        t_eval = [0.0, 0.05, 0.2]
        assert_same_ensemble(simulate_sde_markov(*args, t_eval=t_eval), reference_simulate(*args, t_eval))

    def test_failed_block_cancels_blocks_not_started(self, monkeypatch):
        started = []
        block_rng = montecarlo._block_rng

        def failing_first(seed, block):
            started.append(block)
            if block == 0:
                raise RuntimeError("block 0 failed")
            return block_rng(seed, block)

        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(montecarlo, "_block_rng", failing_first)
        with pytest.raises(RuntimeError, match="block 0 failed"):
            simulate_sde_markov(EQUIVALENCE_PARAMS, EQUIVALENCE_INIT, 8 * 4096, EQUIVALENCE_DT, 2.0, seed=1)
        # the one worker may have picked up block 1 before the failure was seen
        assert started in ([0], [0, 1])
