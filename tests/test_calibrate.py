"""Calibration fitters: round-trip recovery, degeneracy handling, the
fit-invariance properties, and the ACF fit against a least-squares reference."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbmarket import (
    DegenerateDataError,
    InsufficientDataError,
    NonMarkovParams,
    acf_model,
    empirical_acf,
    fit_acf,
    fit_kurtosis_decay,
    fit_power_law,
    log_returns,
    synth_colored,
    synth_gbm,
    drift_vol_scaling,
)
from qbmarket.calibrate import ETA_MAX_PER_MIN, _auto_guess, _local_maxima, _ols_line
from qbmarket.dynamics import KernelSchedule, MomentState, evolve_moments
from qbmarket.market import AcfEstimate

from conftest import FIT_TRIPLES


def synthetic_estimate(values: np.ndarray, lags: np.ndarray, base: int = 5) -> AcfEstimate:
    return AcfEstimate(
        lags=lags,
        values=values,
        counts=np.full(len(lags), 1000, dtype=np.int64),
        stderr=np.full(len(lags), np.nan),
        base_minutes=base,
        tau_minutes=base,
    )


def model_samples(nm: NonMarkovParams, include_white: float = 0.0) -> AcfEstimate:
    lags = np.arange(0, 481, 5, dtype=np.int64)
    values = np.asarray(acf_model(nm, lags.astype(float)))
    values = values.copy()
    values[0] += include_white
    return synthetic_estimate(values, lags)


# few distinct values, so that plateaus and equal neighbours are common
@given(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0, math.nan, math.inf]), max_size=12))
@settings(max_examples=300, deadline=None)
def test_local_maxima_are_the_values_above_both_neighbours(values):
    v = np.array(values, dtype=float)
    expected = [i for i in range(1, len(v) - 1) if v[i] > v[i - 1] and v[i] > v[i + 1]]
    found = _local_maxima(v)
    assert found.dtype == np.intp
    assert found.tolist() == expected


def test_line_through_two_points_has_an_infinite_slope_stderr():
    # sse / (n - 2) used to raise ZeroDivisionError
    slope, _, stderr, _ = _ols_line(np.array([1.0, 3.0]), np.array([2.0, 8.0]))
    assert slope == pytest.approx(3.0, rel=1e-15)
    assert stderr == math.inf


@pytest.mark.parametrize("rate", [0.05, -0.05, 3.0], ids=["decaying", "growing", "steep"])
def test_auto_guess_decay_is_the_slope_through_two_maxima(rate):
    lags = np.arange(1.0, 21.0)
    values = np.full(20, -1e-3)
    # the only two values above both neighbours, both positive
    values[4] = 2e-3
    values[12] = 2e-3 * math.exp(-rate * (lags[12] - lags[4]))
    start, _ = _auto_guess(lags, values, math.pi)
    slope = (math.log(values[12]) - math.log(values[4])) / (lags[12] - lags[4])
    assert start.eta == pytest.approx(min(max(-slope, 1e-6), ETA_MAX_PER_MIN), rel=1e-12)


class TestFitAcf:
    @pytest.mark.parametrize("period", sorted(FIT_TRIPLES))
    def test_noiseless_recovery(self, period):
        nm = FIT_TRIPLES[period]
        fit = fit_acf(model_samples(nm, include_white=1e-6))
        assert fit.converged
        assert fit.diagnostic is None
        assert fit.nm.xi == pytest.approx(nm.xi, rel=1e-6)
        assert fit.nm.eta == pytest.approx(nm.eta, rel=1e-6)
        assert fit.nm.omega == pytest.approx(nm.omega, rel=1e-6)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_noisy_recovery_within_five_percent(self, nm_9904, seed):
        est = model_samples(nm_9904)
        rng = np.random.default_rng(seed)
        noisy = est.values.copy()
        noisy[1:] += 0.05 * nm_9904.xi**2 * rng.standard_normal(len(est.lags) - 1)
        fit = fit_acf(synthetic_estimate(noisy, est.lags))
        assert fit.converged
        assert abs(fit.nm.xi - nm_9904.xi) / nm_9904.xi < 0.05
        assert abs(fit.nm.eta - nm_9904.eta) / nm_9904.eta < 0.05
        assert abs(fit.nm.omega - nm_9904.omega) / nm_9904.omega < 0.05

    @pytest.mark.parametrize("values, named", [
        # an undamped oscillation: the best decay rate, 0, is below eta's bound
        (lambda lags: 0.5e-6 * (np.cos(0.06 * lags) + 1.0), "eta = 1e-12 is on its lower bound"),
        # memory at the first positive lag alone decays faster than eta's bound allows
        (lambda lags: 1e-6 * (lags == 5), f"eta = {ETA_MAX_PER_MIN:.6g} is on its upper bound"),
    ], ids=["undamped", "one-lag"])
    def test_parameter_on_a_bound_is_named(self, values, named):
        lags = np.arange(0, 481, 5, dtype=np.int64)
        fit = fit_acf(synthetic_estimate(values(lags.astype(float)), lags))
        assert fit.converged
        assert fit.diagnostic == named

    def test_flat_zero_acf_is_degenerate(self):
        lags = np.arange(0, 201, 5, dtype=np.int64)
        fit = fit_acf(synthetic_estimate(np.zeros(len(lags)), lags))
        assert not fit.converged
        assert "degenerate" in fit.diagnostic
        assert "omega" in fit.diagnostic.lower()

    def test_lag_zero_with_white_noise_term_does_not_bias_amplitude(self, nm_9904):
        # a large Dirac weight at lag 0 must not inflate the fitted intensity
        fit = fit_acf(model_samples(nm_9904, include_white=5.0 * nm_9904.xi**2))
        assert fit.nm.xi == pytest.approx(nm_9904.xi, rel=1e-6)

    def test_scale_equivariance(self, nm_9904):
        est = model_samples(nm_9904)
        c = 3.7
        scaled = synthetic_estimate(est.values * c**2, est.lags)
        fit = fit_acf(scaled)
        assert fit.nm.xi == pytest.approx(c * nm_9904.xi, rel=1e-6)
        assert fit.nm.eta == pytest.approx(nm_9904.eta, rel=1e-6)
        assert fit.nm.omega == pytest.approx(nm_9904.omega, rel=1e-6)

    def test_idempotence_at_fixed_point(self, nm_9904):
        first = fit_acf(model_samples(nm_9904))
        resampled = model_samples(first.nm)
        second = fit_acf(resampled)
        assert second.nm.xi == pytest.approx(first.nm.xi, rel=1e-8)
        assert second.nm.eta == pytest.approx(first.nm.eta, rel=1e-8)
        assert second.nm.omega == pytest.approx(first.nm.omega, rel=1e-8)

    def test_determinism(self, nm_9904):
        est = model_samples(nm_9904)
        a = fit_acf(est)
        b = fit_acf(est)
        assert (a.nm, a.residual, a.iterations) == (b.nm, b.residual, b.iterations)

    def test_too_few_lags_rejected(self, nm_9904):
        lags = np.arange(0, 41, 5, dtype=np.int64)
        values = np.asarray(acf_model(nm_9904, lags.astype(float)))
        with pytest.raises(InsufficientDataError):
            fit_acf(synthetic_estimate(values, lags))

    def test_count_weighting_changes_nothing_on_uniform_counts(self, nm_9904):
        est = model_samples(nm_9904)
        a = fit_acf(est, weights="uniform")
        b = fit_acf(est, weights="count-weighted")
        assert a.nm.xi == pytest.approx(b.nm.xi, rel=1e-9)

    def test_explicit_guess_accepted(self, nm_9904):
        fit = fit_acf(model_samples(nm_9904), guess=nm_9904)
        assert fit.converged
        assert fit.nm.eta == pytest.approx(nm_9904.eta, rel=1e-8)

    def test_residual_never_above_initial_guess(self, nm_9904):
        est = model_samples(nm_9904)
        rng = np.random.default_rng(99)
        noisy = est.values + 0.3 * nm_9904.xi**2 * rng.standard_normal(len(est.lags))
        fit = fit_acf(synthetic_estimate(noisy, est.lags))
        start = fit.guess
        resid_start = float(np.sum((np.asarray(acf_model(start, est.lags[1:].astype(float))) - noisy[1:]) ** 2))
        assert fit.residual <= resid_start * (1 + 1e-9)

    def test_stderr_reported(self, nm_9904):
        est = model_samples(nm_9904)
        rng = np.random.default_rng(5)
        noisy = est.values.copy()
        noisy[1:] += 0.05 * nm_9904.xi**2 * rng.standard_normal(len(est.lags) - 1)
        fit = fit_acf(synthetic_estimate(noisy, est.lags))
        assert fit.stderr is not None
        assert all(s > 0 for s in fit.stderr)
        # the true parameters lie within a few reported standard errors
        assert abs(fit.nm.eta - nm_9904.eta) < 5 * fit.stderr[1]


def noisy_samples(nm: NonMarkovParams, seed: int) -> AcfEstimate:
    """Criterion 7's noisy estimate: 5% of xi^2 added to every positive lag."""
    est = model_samples(nm)
    noisy = est.values.copy()
    noisy[1:] += 0.05 * nm.xi**2 * np.random.default_rng(seed).standard_normal(len(est.lags) - 1)
    return synthetic_estimate(noisy, est.lags)


def colored_estimate(nm: NonMarkovParams) -> AcfEstimate:
    """The ACF estimate of a synthetic colored series, as the market benchmark fits it."""
    return empirical_acf(synth_colored(nm, n=100_000, dt_minutes=1, seed=1), 480)


def white_noise_estimate(seed: int) -> AcfEstimate:
    series = synth_gbm(mu=1e-5, sigma=0.01, n=40_000, dt_minutes=1, seed=seed)
    return empirical_acf(log_returns(series, 1), 480)


def least_squares_reference(acf: AcfEstimate):
    """The three-parameter fit that variable projection replaced: scipy's
    trust-region least squares in (xi, eta, omega) from the same start and
    frequency candidates, with the same bounds, tolerances and tie rule.
    Returns the winning `OptimizeResult` and its cost."""
    from scipy.optimize import least_squares

    positive = acf.lags > 0
    tau = acf.lags[positive].astype(float)
    values = acf.values[positive]
    nyquist = math.pi / acf.base_minutes
    start, clear_peak = _auto_guess(tau, values, nyquist)

    def residuals(theta):
        nm = NonMarkovParams(xi=max(theta[0], 0.0), eta=max(theta[1], 1e-300), omega=max(theta[2], 0.0))
        return acf_model(nm, tau) - values

    lower, upper = [0.0, 1e-12, 0.0], [np.inf, 1.0, nyquist * (1.0 - 1e-12)]
    omegas = [start.omega] + ([] if clear_peak else list(np.linspace(0.0, nyquist, 15)[1:-1]))
    best = None
    for omega in omegas:
        x0 = np.clip([start.xi, start.eta, omega], lower, [np.finfo(float).max, 1.0, nyquist * (1.0 - 1e-9)])
        res = least_squares(residuals, x0, bounds=(lower, upper), method="trf", xtol=1e-10, ftol=1e-12,
                            gtol=None, max_nfev=800)
        cost = 2.0 * res.cost
        if best is None or cost < best[1] * (1.0 - 1e-12) or (
            abs(cost - best[1]) <= best[1] * 1e-12 and res.x[2] < best[0].x[2]
        ):
            best = (res, cost)
    return best


def rounding_slack(acf: AcfEstimate) -> float:
    """A cost is known to within rounding, about eps^2 |values|^2; the
    noiseless reference reaches exactly 0."""
    return np.finfo(float).eps ** 2 * float(np.sum(acf.values[acf.lags > 0] ** 2))


MODEL_CASES = {
    **{f"noiseless-{period}": (lambda nm=nm: model_samples(nm)) for period, nm in FIT_TRIPLES.items()},
    **{f"noisy-{seed}": (lambda seed=seed: noisy_samples(FIT_TRIPLES["1999-2004"], seed)) for seed in (1, 2, 3)},
    "colored-synth": lambda: colored_estimate(FIT_TRIPLES["1999-2004"]),
}


class TestFitAcfAgainstLeastSquares:
    """Variable projection reaches the reference's minimum, or a lower one."""

    @pytest.mark.parametrize("case", sorted(MODEL_CASES))
    def test_same_parameters_where_the_model_holds(self, case):
        acf = MODEL_CASES[case]()
        fit = fit_acf(acf)
        res, cost = least_squares_reference(acf)
        assert fit.converged and res.status > 0
        assert fit.nm.xi == pytest.approx(res.x[0], rel=1e-6)
        assert fit.nm.eta == pytest.approx(res.x[1], rel=1e-6)
        assert fit.nm.omega == pytest.approx(res.x[2], rel=1e-6)
        assert fit.residual <= cost * (1.0 + 1e-6) + rounding_slack(acf)

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_white_noise_residual_not_above_reference(self, seed):
        # On white noise the cost surface has many shallow minima and both fits
        # are local searches. On seeds 1, 3 and 5 the start's best amplitude is
        # zero, where a descent that stops ends 0.4-1% above the reference.
        # Where both fits end in
        # the same minimum the frequency agrees to 1e-6, while xi and eta lie
        # along a flat valley and agree only to about 3e-5, so they are not
        # compared. Neither fit is a global search: on seeds 11 and 12 this
        # fit ends 0.3% and 0.8% above the reference.
        acf = white_noise_estimate(seed)
        fit = fit_acf(acf)
        res, cost = least_squares_reference(acf)
        assert fit.converged
        assert fit.residual <= cost * (1.0 + 1e-6)
        if res.status > 0 and fit.residual >= cost * (1.0 - 1e-6):
            assert fit.nm.omega == pytest.approx(res.x[2], rel=1e-6)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_stderr_matches_reference_jacobian(self, seed):
        acf = noisy_samples(FIT_TRIPLES["1999-2004"], seed)
        fit = fit_acf(acf)
        res, cost = least_squares_reference(acf)
        dof = int(np.sum(acf.lags > 0)) - 3
        reference = np.sqrt(np.diag(np.linalg.inv(res.jac.T @ res.jac) * (cost / dof)))
        assert fit.stderr == pytest.approx(reference, rel=1e-3)

    def test_start_where_the_model_underflows_is_reported(self):
        # at eta = 1 per minute the model is exp(-400) or less at every lag and
        # underflows in the projection; the trust-region fit raised
        # "xi must be finite" here
        lags = np.arange(0, 400 * 31, 400, dtype=np.int64)
        nm = NonMarkovParams(xi=1e-3, eta=1e-4, omega=1e-4)
        acf = synthetic_estimate(np.asarray(acf_model(nm, lags.astype(float))), lags, base=400)
        fit = fit_acf(acf, guess=NonMarkovParams(xi=1e-3, eta=1.0, omega=1e-3))
        assert not fit.converged
        assert fit.diagnostic.startswith("did not converge")
        assert fit.nm.xi == 0.0


class TestFitPowerLaw:
    def test_exact_half_power(self):
        taus = np.arange(5, 101, 5, dtype=float)
        fit = fit_power_law(taus, 2.0 * taus**0.5)
        assert fit.exponent == pytest.approx(0.5, abs=1e-12)
        assert fit.prefactor == pytest.approx(2.0, rel=1e-12)

    def test_exact_linear(self):
        taus = np.arange(5, 101, 5, dtype=float)
        fit = fit_power_law(taus, 0.37 * taus)
        assert fit.exponent == pytest.approx(1.0, abs=1e-12)

    def test_scaling_invariance_of_exponent(self):
        taus = np.arange(5, 101, 5, dtype=float)
        values = 1.3 * taus**0.62
        a = fit_power_law(taus, values)
        b = fit_power_law(taus, 17.0 * values)
        assert a.exponent == pytest.approx(b.exponent, rel=1e-12)

    def test_gbm_pipeline_end_to_end(self):
        series = synth_gbm(mu=1e-5, sigma=0.01, n=200_000, dt_minutes=1, seed=13)
        sc = drift_vol_scaling(series, list(range(5, 101, 5)))
        fit = fit_power_law(sc.taus.astype(float), sc.sigma)
        assert abs(fit.exponent - 0.5) < 0.05

    def test_non_positive_rejected(self):
        with pytest.raises(DegenerateDataError):
            fit_power_law(np.array([1.0, 2.0, 3.0]), np.array([1.0, -2.0, 3.0]))

    def test_too_few_points_rejected(self):
        with pytest.raises(InsufficientDataError):
            fit_power_law(np.array([1.0, 2.0]), np.array([1.0, 2.0]))


class TestFitKurtosisDecay:
    def test_exact_recovery(self):
        taus = np.linspace(0.0, 400.0, 21)
        kappa = 197.0 * np.exp(-0.01 * taus)
        fit = fit_kurtosis_decay(taus, kappa)
        assert fit.converged
        assert fit.amplitude == pytest.approx(197.0, rel=1e-10)
        assert fit.rate == pytest.approx(0.01, rel=1e-10)

    def test_model_generated_kurtosis_rate_stable_across_windows(self, kurtosis_params):
        init = MomentState.gaussian(0.5, 0.5, 0.0).with_value(4, 0, 50.0)
        t = np.linspace(0.0, 12.0, 241)
        traj = evolve_moments(init, KernelSchedule.markov(kurtosis_params), t)
        kappa = traj.kurtosis_x()
        rates = []
        for lo, hi in [(5.0, 10.0), (6.0, 11.0), (7.0, 12.0)]:
            mask = (t >= lo) & (t <= hi)
            fit = fit_kurtosis_decay(t[mask], kappa[mask])
            assert fit.converged and fit.rate > 0
            rates.append(fit.rate)
        mid = np.mean(rates)
        assert all(abs(r - mid) / mid < 0.10 for r in rates)

    def test_non_positive_points_excluded_with_diagnostic(self):
        taus = np.linspace(1.0, 10.0, 10)
        kappa = 5.0 * np.exp(-0.3 * taus)
        kappa[3] = -0.2
        fit = fit_kurtosis_decay(taus, kappa)
        assert fit.n_excluded == 1
        assert fit.n_used == 9
        assert fit.converged

    def test_alternating_sign_refused(self):
        taus = np.arange(1.0, 9.0)
        kappa = np.array([1.0, -1.0, 0.5, -0.5, 0.25, -0.25, 0.125, -0.125])
        with pytest.raises(InsufficientDataError):
            fit_kurtosis_decay(taus, kappa)

    def test_growing_data_reported_unconverged(self):
        taus = np.linspace(1.0, 10.0, 10)
        fit = fit_kurtosis_decay(taus, np.exp(0.2 * taus))
        assert not fit.converged
        assert fit.rate < 0
        assert "not decaying" in fit.diagnostic
