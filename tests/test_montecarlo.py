"""Exact-transition ensemble oracle: the transition's closed forms against the
moment engine, statistical agreement with the closed form and the moment
recursion, reproducibility, and preconditions."""

import numpy as np
import pytest

from qbmarket import ModelParams, SecondMomentInit, variance_closed_form
from qbmarket.dynamics import KernelSchedule, MomentState, evolve_moments, simulate_sde_markov
from qbmarket.dynamics import montecarlo
from qbmarket.dynamics.moments import MOMENT_KEYS

from conftest import moment_derivative, moment_state


class TestPreconditions:
    def test_path_count_floor(self):
        params = ModelParams(M=1.0, gamma=1.0, kT=1.0, hbar=1.0)
        init = SecondMomentInit(sx2_0=1.0, sp2_0=1.0)
        with pytest.raises(ValueError):
            simulate_sde_markov(params, init, 100, 0.05, 0.1, seed=1)

    def test_indefinite_initial_covariance_rejected_before_any_block(self, monkeypatch):
        # |spx_0 / 2| = 2.5 exceeds sqrt(sx2_0 * sp2_0) = 1
        def no_block(seed, block):
            raise AssertionError(f"block {block} ran")

        monkeypatch.setattr(montecarlo, "_block_rng", no_block)
        params = ModelParams(M=1.0, gamma=1.0, kT=1.0, hbar=1.0)
        init = SecondMomentInit(sx2_0=1.0, sp2_0=1.0, spx_0=5.0)
        with pytest.raises(ValueError, match="not positive definite"):
            simulate_sde_markov(params, init, 3 * 4096, 0.05, 0.1, seed=1)


class TestDegenerateDynamics:
    def test_zero_noise_zero_momentum_freezes_paths(self):
        # kT = 0 and a numerically zero momentum spread: x never moves
        params = ModelParams(M=1.0, gamma=1.0, kT=0.0, hbar=1.0)
        init = SecondMomentInit(sx2_0=1.0, sp2_0=1e-300)
        ens = simulate_sde_markov(params, init, 2000, 0.05, 0.5, seed=5)
        np.testing.assert_allclose(ens.mean[(2, 0)], ens.mean[(2, 0)][0], rtol=1e-12)
        assert np.all(np.asarray(ens.mean[(0, 2)]) < 1e-250)


def second_moments(traj, row):
    return np.array([[traj.moment(2, 0)[row], traj.moment(1, 1)[row]],
                     [traj.moment(1, 1)[row], traj.moment(0, 2)[row]]])


def relative_to_diagonal(error, cov):
    """Each entry of error over the geometric mean of its row and column variances (1 where those are 0)."""
    scale = np.sqrt(np.outer(np.diag(cov), np.diag(cov)))
    return np.abs(error) / np.where(scale > 0, scale, 1.0)


class TestExactTransition:
    """Phi and Sigma against the moment engine, with no sampling noise."""

    COV0 = np.array([[0.7, 0.15], [0.15, 0.4]])

    # without noise, e^{-4 gamma h} of the momentum variance must stay above the moment engine's floor of 0
    @pytest.mark.parametrize("gamma, kT, h", [
        (gamma, kT, h)
        for gamma, kT in [(1.0, 1.0), (1e-3, 1.0), (1e3, 1.0), (1e-3, 0.0), (1.0, 0.0)]
        for h in [1e-8, 1e-5, 1e-3, 0.1, 1.0, 10.0, 1e3]
        if kT or 4.0 * gamma * h < 700.0
    ])
    def test_second_moments_match_evolve_moments(self, gamma, kT, h):
        params = ModelParams(M=2.0, gamma=gamma, kT=kT, hbar=1.0)
        phi, sigma = montecarlo._transition(params, h)
        traj = evolve_moments(MomentState.gaussian(0.7, 0.4, 0.15), KernelSchedule.markov(params), [0.0, h])
        expected = second_moments(traj, 1)
        assert relative_to_diagonal(phi @ self.COV0 @ phi.T + sigma - expected, expected).max() < 1e-12

    @pytest.mark.parametrize("h", [1e-8, 1e-3, 0.3, 1.0, 40.0, 1e3])
    @pytest.mark.parametrize("gamma, kT", [(1.0, 1.0), (1e-3, 2.0), (1e3, 0.5), (1.0, 0.0)])
    def test_semigroup_and_factor(self, gamma, kT, h):
        # Sigma(2h) = Phi(h) Sigma(h) Phi(h)^T + Sigma(h), and L L^T = Sigma, with Sigma = 0 at kT = 0
        params = ModelParams(M=3.0, gamma=gamma, kT=kT, hbar=1.0)
        phi, sigma = montecarlo._transition(params, h)
        _, sigma2 = montecarlo._transition(params, 2.0 * h)
        assert relative_to_diagonal(phi @ sigma @ phi.T + sigma - sigma2, sigma2).max() < 1e-12
        factor = montecarlo._lower_factor(sigma[0, 0], sigma[0, 1], sigma[1, 1])
        assert factor[0, 1] == 0.0
        assert relative_to_diagonal(factor @ factor.T - sigma, sigma).max() < 1e-12
        if kT == 0:
            assert not sigma.any() and not factor.any()


class TestBlockLayout:
    def test_rows_match_a_per_path_replica(self):
        # block b of seed s is Philox(s, b): two normals per path for the start, then two per interval
        params = ModelParams(M=20.0, gamma=1.0, kT=1.0, hbar=1.0)
        init = SecondMomentInit(sx2_0=0.5, sp2_0=0.5, spx_0=0.3)
        n_paths, seed = 2 * montecarlo.PATH_BLOCK + 5, 31
        ens = simulate_sde_markov(params, init, n_paths, 0.1, 0.3, seed)
        phi, sigma = montecarlo._transition(params, 0.1)
        noise = np.linalg.cholesky(sigma)
        start = np.linalg.cholesky(np.array([[0.5, 0.15], [0.15, 0.5]]))
        rows = [[], [], [], []]
        for b, size in enumerate([montecarlo.PATH_BLOCK, montecarlo.PATH_BLOCK, 5]):
            rng = montecarlo._block_rng(seed, b)
            z = start @ rng.standard_normal((2, size))
            rows[0].append(z)
            for row in rows[1:]:
                z = phi @ z + noise @ rng.standard_normal((2, size))
                row.append(z)
        np.testing.assert_array_equal(ens.times, np.linspace(0.0, 0.3, 4))
        for r, parts in enumerate(rows):
            x, p = np.concatenate(parts, axis=1)
            for (j, k) in MOMENT_KEYS:
                q = x**j * p**k
                assert ens.mean[(j, k)][r] == pytest.approx(q.mean(), rel=1e-12, abs=1e-15)
                assert ens.stderr[(j, k)][r] == pytest.approx(q.std() / np.sqrt(n_paths), rel=1e-9, abs=1e-15)

    def test_intervals_are_equal_and_cover_t_end(self):
        params = ModelParams(M=1.0, gamma=1.0, kT=1.0, hbar=1.0)
        init = SecondMomentInit(sx2_0=1.0, sp2_0=1.0)
        ens = simulate_sde_markov(params, init, 1000, 0.3, 1.0, seed=2)
        np.testing.assert_array_equal(ens.times, np.linspace(0.0, 1.0, 5))
        assert ens.interval == 0.25


class TestStatisticalAgreement:
    def test_equipartition_long_time(self):
        params = ModelParams(M=2.0, gamma=1.0, kT=1.5, hbar=1.0)
        init = SecondMomentInit(sx2_0=0.3, sp2_0=0.3)
        ens = simulate_sde_markov(params, init, 20000, 6.0, 6.0, seed=11)
        target = 2.0 * 1.5
        assert abs(ens.mean[(0, 2)][-1] - target) < 3.0 * ens.stderr[(0, 2)][-1]

    def test_coordinate_variance_matches_closed_form(self, kurtosis_params):
        init = SecondMomentInit(sx2_0=0.5, sp2_0=0.5, spx_0=0.0)
        ens = simulate_sde_markov(kurtosis_params, init, 100000, 10.0, 10.0, seed=3)
        exact = variance_closed_form(kurtosis_params, init, 10.0)
        assert abs(ens.mean[(2, 0)][-1] - exact) < 3.0 * ens.stderr[(2, 0)][-1]

    def test_seed_determinism_and_block_independence(self, kurtosis_params):
        init = SecondMomentInit(sx2_0=0.5, sp2_0=0.5)
        a = simulate_sde_markov(kurtosis_params, init, 5000, 0.1, 1.0, seed=42)
        b = simulate_sde_markov(kurtosis_params, init, 5000, 0.1, 1.0, seed=42)
        c = simulate_sde_markov(kurtosis_params, init, 5000, 0.1, 1.0, seed=43)
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
        small = simulate_sde_markov(kurtosis_params, init, 4096, 0.5, 0.5, seed=9)
        large = simulate_sde_markov(kurtosis_params, init, 8192, 0.5, 0.5, seed=9)
        block1_mean = 2.0 * large.mean[(2, 0)][-1] - small.mean[(2, 0)][-1]
        exact = variance_closed_form(kurtosis_params, init, 0.5)
        block_se = small.stderr[(2, 0)][-1]
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
        ens = simulate_sde_markov(kurtosis_params, init, 30000, 2.5, 10.0, seed=17)
        np.testing.assert_array_equal(ens.times, [0.0, 2.5, 5.0, 7.5, 10.0])
        traj = evolve_moments(moment_state(init), KernelSchedule.markov(kurtosis_params), ens.times)
        for key in [(2, 0), (1, 1), (0, 2), (4, 0), (3, 1), (2, 2), (1, 3), (0, 4)]:
            mc = ens.mean[key]
            se = np.where(ens.stderr[key] > 0, ens.stderr[key], np.inf)
            ode = traj.moment(*key)
            assert np.all(np.abs(mc - ode) <= 3.0 * se + 1e-12), key


