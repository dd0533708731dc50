"""Acceptance suite: one test per release criterion, each printing a pass/fail
line at its stated tolerance.

Criterion 1 note: at the stated parameter point the quantum/classical variance
ratio crosses the 2% band at kT ~= 0.0363, not at the nominal regime edge 1e-2
(at kT = 1e-2 the gap is 7.2%, driven by the uncertainty floor; see
test_high_temperature_crossover_location which pins the actual crossover).
The high-temperature branch is therefore sampled at the decade points
{0.1, 1, 10} of its regime and the floor branch covers {0, 1e-4, 1e-3, 1e-2}.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from qbmarket import (
    ModelParams,
    NonMarkovParams,
    SecondMomentInit,
    acf_model,
    classical_variance,
    delta_coefficient,
    delta_limit,
    fit_acf,
    fit_power_law,
    lambda_coefficient,
    lambda_limit,
    minimal_uncertainty_momentum,
    return_histogram,
    synth_gbm,
    variance_closed_form,
    drift_vol_scaling,
    empirical_acf,
    empirical_kurtosis,
    log_returns,
)
from qbmarket.dynamics import (
    HarmonicPotential,
    KernelSchedule,
    MomentState,
    PhaseSpaceGrid,
    evolve_moments,
    evolve_wigner_pde,
    simulate_sde_markov,
)
from qbmarket.market import AcfEstimate, ReturnSeries, SYNTH_START_MINUTE

from conftest import FIT_TRIPLES, linear_fit_r2, moment_state, significant_tail_bins


@contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} FAIL: {title}")
        raise
    else:
        print(f"ACCEPTANCE {num:2d} PASS: {title}")


def fig2_params(kT: float) -> ModelParams:
    return ModelParams(M=10.0, gamma=1e3, kT=kT, hbar=0.01)


def fig2_init() -> SecondMomentInit:
    return SecondMomentInit(sx2_0=1e-7, sp2_0=250.0, spx_0=0.0)


def fig2c_moments() -> MomentState:
    return MomentState.gaussian(0.5, 0.5, 0.0).with_value(4, 0, 50.0)


KURT_PARAMS = ModelParams(M=20.0, gamma=1.0, kT=1.0, hbar=1.0)


def test_criterion_1_variance_vs_classical_limit():
    with criterion(1, "variance closed form vs classical limit (2% band and uncertainty floor)"):
        init = fig2_init()
        floor = 250.0 / (2.0 * 10.0 * 1e3) ** 2
        for kT in (0.1, 1.0, 10.0):
            q = variance_closed_form(fig2_params(kT), init, 10.0)
            c = classical_variance(fig2_params(kT), 10.0)
            assert abs(q / c - 1.0) < 0.02, kT
        for kT in (0.0, 1e-4, 1e-3, 1e-2):
            q = variance_closed_form(fig2_params(kT), init, 10.0)
            c = classical_variance(fig2_params(kT), 10.0)
            assert q - c >= floor * (1.0 - 1e-3), kT


def test_high_temperature_crossover_location():
    # documents the actual 2%-agreement edge of criterion 1 at this parameter
    # point: it sits near kT = 0.0363, not at the nominal 1e-2 regime label
    init = fig2_init()

    def gap(kT: float) -> float:
        q = variance_closed_form(fig2_params(kT), init, 10.0)
        return abs(q / classical_variance(fig2_params(kT), 10.0) - 1.0)

    assert gap(1e-2) > 0.02
    assert gap(0.036) > 0.02 > gap(0.037)


def test_criterion_2_moment_ode_matches_closed_form_randomized():
    with criterion(2, "moment ODE reproduces the variance law to 1e-6 over 20 random sets"):
        rng = np.random.default_rng(12345)
        worst = 0.0
        for _ in range(20):
            params = ModelParams(
                M=10 ** rng.uniform(-1.0, 1.3),
                gamma=10 ** rng.uniform(-1.0, 2.0),
                kT=10 ** rng.uniform(-3.0, 0.5),
                hbar=10 ** rng.uniform(-2.0, 0.5),
            )
            sx2 = 10 ** rng.uniform(-3.0, 0.5)
            sp2 = minimal_uncertainty_momentum(params, sx2) * rng.uniform(1.0, 3.0)
            rho = rng.uniform(-0.5, 0.5)
            spx = 2.0 * rho * math.sqrt(sx2 * sp2)
            init = SecondMomentInit(sx2_0=sx2, sp2_0=sp2, spx_0=spx)
            t = np.linspace(0.0, 10.0 / params.gamma, 21)
            traj = evolve_moments(moment_state(init), KernelSchedule.markov(params), t)
            exact = np.asarray(variance_closed_form(params, init, t))
            worst = max(worst, float(np.max(np.abs(traj.moment(2, 0) - exact) / exact)))
        assert worst < 1e-6, worst


def test_criterion_3_moment_ode_vs_monte_carlo():
    with criterion(3, "moment ODE vs Monte-Carlo oracle within 3 standard errors at 1e5 paths"):
        init = SecondMomentInit(sx2_0=0.5, sp2_0=0.5, spx_0=0.0)
        t_eval = [0.0, 2.5, 5.0, 7.5, 10.0]
        ens = simulate_sde_markov(KURT_PARAMS, init, n_paths=100_000, interval=2.5, t_end=10.0, seed=7)
        np.testing.assert_array_equal(ens.times, t_eval)
        traj = evolve_moments(moment_state(init), KernelSchedule.markov(KURT_PARAMS), t_eval)
        for key in [(2, 0), (1, 1), (0, 2), (4, 0), (3, 1), (2, 2), (1, 3), (0, 4)]:
            mc = ens.mean[key]
            se = np.where(ens.stderr[key] > 0, ens.stderr[key], np.inf)
            assert np.all(np.abs(mc - traj.moment(*key)) <= 3.0 * se), key


def test_criterion_4_kurtosis_decay():
    with criterion(4, "kurtosis starts at 197 exactly, decreases strictly, log-linear R^2 >= 0.99"):
        t = np.linspace(0.0, 12.0, 49)
        traj = evolve_moments(fig2c_moments(), KernelSchedule.markov(KURT_PARAMS), t)
        kappa = traj.kurtosis_x()
        assert fig2c_moments().kurtosis_x() == 197.0
        assert kappa[0] == pytest.approx(197.0, rel=1e-12)
        assert np.all(np.diff(kappa) < 0.0)
        window = t <= 10.0
        slope, _, r2 = linear_fit_r2(t[window], np.log(kappa[window]))
        assert slope < 0.0
        assert r2 >= 0.99, r2


def test_criterion_5_coefficient_limits_and_reduction():
    with criterion(5, "diffusion coefficients: exact initial values, 1e-10 limits, xi=0 reduction"):
        nm = FIT_TRIPLES["1999-2004"]
        for params in (KURT_PARAMS, ModelParams(M=2.0, gamma=0.3, kT=0.7, hbar=0.2)):
            markov_delta = 2.0 * params.M * params.gamma * params.kT / params.hbar**2
            assert delta_coefficient(params, nm, 0.0) == markov_delta
            assert lambda_coefficient(params, nm, 0.0) == 0.0
            t_long = 40.0 / nm.eta
            assert delta_coefficient(params, nm, t_long) == pytest.approx(
                delta_limit(params, nm), rel=1e-10
            )
            assert lambda_coefficient(params, nm, t_long) == pytest.approx(
                lambda_limit(params, nm), rel=1e-10
            )
        nm0 = NonMarkovParams(xi=0.0, eta=nm.eta, omega=nm.omega)
        t = np.linspace(0.0, 8.0, 33)
        markov = evolve_moments(fig2c_moments(), KernelSchedule.markov(KURT_PARAMS), t)
        reduced = evolve_moments(
            fig2c_moments(), KernelSchedule.non_markov(KURT_PARAMS, nm0), t
        )
        for key in [(2, 0), (1, 1), (0, 2), (4, 0), (0, 4)]:
            np.testing.assert_allclose(
                reduced.moment(*key), markov.moment(*key), rtol=1e-12, atol=0.0
            )


def test_criterion_6_acf_periodicity():
    with criterion(6, "model ACF: maxima at 120 and 240 min (5-min grid), R(0) = 3.0030e-7"):
        nm = FIT_TRIPLES["1999-2004"]
        assert acf_model(nm, 0.0) == pytest.approx(nm.xi**2, rel=1e-14)
        assert acf_model(nm, 0.0) == pytest.approx(3.0030e-7, rel=1e-4)
        tau = np.arange(0, 485, 5, dtype=float)
        vals = np.asarray(acf_model(nm, tau))
        maxima = [
            int(tau[i])
            for i in range(1, len(tau) - 1)
            if vals[i] > vals[i - 1] and vals[i] > vals[i + 1]
        ]
        assert abs(maxima[0] - 120) <= 5
        assert abs(maxima[1] - 240) <= 5


def _estimate(values: np.ndarray, lags: np.ndarray) -> AcfEstimate:
    return AcfEstimate(
        lags=lags,
        values=values,
        counts=np.full(len(lags), 1000, dtype=np.int64),
        stderr=np.full(len(lags), np.nan),
        base_minutes=5,
        tau_minutes=5,
    )


def test_criterion_7_calibration_round_trip():
    with criterion(7, "ACF fit: noiseless triples to 1e-6, 5% noise within 5% (3/3 seeds)"):
        lags = np.arange(0, 481, 5, dtype=np.int64)
        for nm in FIT_TRIPLES.values():
            values = np.asarray(acf_model(nm, lags.astype(float)))
            fit = fit_acf(_estimate(values, lags))
            assert fit.converged
            assert fit.nm.xi == pytest.approx(nm.xi, rel=1e-6)
            assert fit.nm.eta == pytest.approx(nm.eta, rel=1e-6)
            assert fit.nm.omega == pytest.approx(nm.omega, rel=1e-6)
        nm = FIT_TRIPLES["1999-2004"]
        clean = np.asarray(acf_model(nm, lags.astype(float)))
        for seed in (1, 2, 3):
            rng = np.random.default_rng(seed)
            noisy = clean.copy()
            noisy[1:] += 0.05 * nm.xi**2 * rng.standard_normal(len(lags) - 1)
            fit = fit_acf(_estimate(noisy, lags))
            assert fit.converged, seed
            assert abs(fit.nm.xi - nm.xi) / nm.xi < 0.05, seed
            assert abs(fit.nm.eta - nm.eta) / nm.eta < 0.05, seed
            assert abs(fit.nm.omega - nm.omega) / nm.omega < 0.05, seed


def test_criterion_8_empirical_pipeline_on_gbm():
    with criterion(8, "synthetic pipeline: sigma ~ tau^0.5, mu linear, white-noise bands"):
        series = synth_gbm(mu=1e-5, sigma=0.01, n=200_000, dt_minutes=1, seed=11)
        sc = drift_vol_scaling(series, list(range(5, 101, 5)))
        fit = fit_power_law(sc.taus.astype(float), sc.sigma)
        assert abs(fit.exponent - 0.5) < 0.05
        _, _, r2 = linear_fit_r2(sc.taus.astype(float), sc.mu)
        assert r2 >= 0.99
        kr = empirical_kurtosis(series, [1, 5, 10, 20])
        assert np.all(np.abs(kr.kappa) < 4.0 * np.sqrt(24.0 / kr.counts))
        returns = log_returns(series, 1)
        acf = empirical_acf(returns, 60)
        band = 4.0 / math.sqrt(len(returns)) * acf.values[0]
        assert np.all(np.abs(acf.values[1:]) < band)


def test_criterion_9_pde_solver():
    with criterion(9, "phase-space solver: mass 1e-6, moments 1e-3 vs ODE, closed-form transport"):
        # Markovian Gaussian relaxation at the default 256x256 resolution
        params = ModelParams(M=1.0, gamma=0.25, kT=1.0, hbar=1.0)
        sched = KernelSchedule.markov(params)
        grid = PhaseSpaceGrid.gaussian(
            1.0, 1.0, 0.0, x_half_width=14.0, p_half_width=7.0, n_x=256, n_p=256
        )
        tgrid = np.linspace(0.0, 2.0, 9)
        evo = evolve_wigner_pde(grid, sched, tgrid)
        assert evo.mass_drift() < 1e-6
        # compare at the recorded times
        traj = evolve_moments(MomentState.gaussian(1.0, 1.0, 0.0), sched, evo.times)
        scale = np.sqrt(traj.moment(2, 0) * traj.moment(0, 2))
        for key in [(2, 0), (1, 1), (0, 2)]:
            rel = np.abs(evo.moment(*key) - traj.moment(*key)) / np.maximum(
                np.abs(traj.moment(*key)), 1e-3 * scale
            )
            assert np.max(rel) < 1e-3, key

        # free streaming: exactly known sheared Gaussian
        free = ModelParams(M=1.0, gamma=1e-12, kT=0.0, hbar=1.0)
        fs_grid = PhaseSpaceGrid.gaussian(
            1.0, 1.0, 0.0, x_half_width=16.0, p_half_width=8.0, n_x=256, n_p=256
        )
        t = 1.5
        fs = evolve_wigner_pde(fs_grid, KernelSchedule.markov(free), [0.0, t])
        assert fs.mass_drift() < 1e-6
        mend = fs.moments[-1]
        assert mend[(2, 0)] == pytest.approx(1.0 + t * t, abs=1e-5)
        assert mend[(1, 1)] == pytest.approx(t, abs=1e-5)
        assert mend[(0, 2)] == pytest.approx(1.0, abs=1e-5)
        xs, ps = fs.final.x, fs.final.p
        xx, pp = np.meshgrid(xs, ps, indexing="ij")
        quad = (xx**2 - 2 * t * xx * pp + (1 + t * t) * pp**2) / 1.0
        exact = np.exp(-0.5 * quad) / (2 * np.pi)
        l2 = np.sqrt(np.sum((fs.final.w - exact) ** 2) / np.sum(exact**2))
        assert l2 < 1e-4

        # pure harmonic flow: moments oscillate at twice the well frequency
        pot = HarmonicPotential(omega0=1.0)
        h_grid = PhaseSpaceGrid.gaussian(
            1.5, 0.7, 0.0, x_half_width=12.0, p_half_width=12.0, n_x=256, n_p=256
        )
        h_times = np.linspace(0.0, np.pi, 9)
        h = evolve_wigner_pde(
            h_grid, KernelSchedule.markov(free), h_times, potential=pot
        )
        expected = 1.5 * np.cos(h.times) ** 2 + 0.7 * np.sin(h.times) ** 2
        np.testing.assert_allclose(h.moment(2, 0), expected, atol=5e-3)
        # the moment engine in the same well is the sharper oracle: relative to each order's
        # largest value, order 2 within 1e-10 and order 4 within 1e-4 (measured 1.1e-14 and 5.4e-6)
        h_traj = evolve_moments(MomentState.gaussian(1.5, 0.7, 0.0), KernelSchedule.markov(free), h.times,
                                potential=pot)
        for order, tol in ((2, 1e-10), (4, 1e-4)):
            keys = [(j, order - j) for j in range(order + 1)]
            largest = max(np.max(np.abs(h_traj.moment(*key))) for key in keys)
            for key in keys:
                assert np.max(np.abs(h.moment(*key) - h_traj.moment(*key))) < tol * largest, key
        energy = 0.5 * h.moment(0, 2) + 0.5 * h.moment(2, 0)
        assert np.max(np.abs(energy - energy[0])) / energy[0] < 1e-4
        assert h.mass_drift() < 1e-6


def test_criterion_10_fat_tail_detection():
    with criterion(10, "fat tails: heavy-tailed sample flags tail bins, Gaussian does not"):
        def returns_from(values: np.ndarray) -> ReturnSeries:
            n = len(values)
            return ReturnSeries(
                tau_minutes=1,
                values=values,
                drift_removed=False,
                times=SYNTH_START_MINUTE + np.arange(n, dtype=np.int64),
                session_idx=np.zeros(n, dtype=np.int64),
                base_minutes=1,
                policy="contiguous",
            )

        rng = np.random.default_rng(10)
        heavy = rng.standard_t(3, size=100_000) * 1e-4
        assert len(significant_tail_bins(return_histogram(returns_from(heavy), bins=64), heavy)) > 0
        rng = np.random.default_rng(11)
        clean = rng.standard_normal(100_000) * 1e-4
        assert len(significant_tail_bins(return_histogram(returns_from(clean), bins=64), clean)) == 0
