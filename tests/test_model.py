"""Closed-form model functions: values frozen from independent high-precision
evaluation, plus quadrature cross-checks of the diffusion coefficients."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.integrate import quad

from qbmarket import (
    BathSpectrum,
    ModelParams,
    NonMarkovParams,
    SecondMomentInit,
    acf_model,
    delta_coefficient,
    delta_limit,
    lambda_coefficient,
    lambda_limit,
    minimal_uncertainty_momentum,
    spectral_density,
    variance_closed_form,
)
from qbmarket.errors import NumericalError

from conftest import MARKOV_WARN_RATIO, is_quantum_admissible, markov_validity


class TestParamTypes:
    def test_model_params_invariants(self):
        with pytest.raises(ValueError):
            ModelParams(M=0.0, gamma=1.0, kT=1.0, hbar=1.0)
        with pytest.raises(ValueError):
            ModelParams(M=1.0, gamma=-1.0, kT=1.0, hbar=1.0)
        with pytest.raises(ValueError):
            ModelParams(M=1.0, gamma=1.0, kT=-0.1, hbar=1.0)
        with pytest.raises(ValueError):
            ModelParams(M=1.0, gamma=1.0, kT=1.0, hbar=0.0)
        ModelParams(M=1.0, gamma=1.0, kT=0.0, hbar=1.0)  # kT = 0 allowed

    def test_nm_params_invariants(self):
        with pytest.raises(ValueError):
            NonMarkovParams(xi=-1e-4, eta=1e-3, omega=0.0)
        with pytest.raises(ValueError):
            NonMarkovParams(xi=1e-4, eta=0.0, omega=0.0)
        NonMarkovParams(xi=0.0, eta=1e-3, omega=0.0)

    def test_second_moment_init(self):
        with pytest.raises(ValueError):
            SecondMomentInit(sx2_0=0.0, sp2_0=1.0)
        init = SecondMomentInit(sx2_0=1e-7, sp2_0=250.0)
        assert is_quantum_admissible(init, hbar=0.01)
        assert not is_quantum_admissible(SecondMomentInit(sx2_0=1e-7, sp2_0=1.0), hbar=0.01)

    @pytest.mark.parametrize("cls", [ModelParams, NonMarkovParams, SecondMomentInit])
    @given(data=st.data())
    def test_non_finite_fields_rejected(self, cls, data):
        names = [field.name for field in dataclasses.fields(cls)]
        # every field of the three types accepts any finite positive value
        values = {name: data.draw(st.floats(min_value=1e-300, max_value=1e300), label=name) for name in names}
        cls(**values)
        bad = data.draw(st.sampled_from(names), label="bad field")
        values[bad] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]), label="bad value")
        with pytest.raises(ValueError, match="must be finite"):
            cls(**values)

    def test_bath_spectrum_validation(self):
        with pytest.raises(ValueError):
            BathSpectrum(kind="bogus")
        with pytest.raises(ValueError):
            BathSpectrum(kind="ohmic-lorentz")
        with pytest.raises(ValueError):
            BathSpectrum(kind="composite")


class TestAcfModel:
    def test_lag_zero_is_amplitude_squared(self, nm_9904):
        # cos 0 + 1 = 2 forces R(0) = xi^2
        assert acf_model(nm_9904, 0.0) == pytest.approx(5.48e-4**2, rel=1e-14)
        assert acf_model(nm_9904, 0.0) == pytest.approx(3.0030e-7, rel=1e-4)

    def test_long_lag_decays_to_zero(self, nm_9904):
        assert acf_model(nm_9904, 1e7) == pytest.approx(0.0, abs=1e-30)

    def test_thirty_minute_value(self, nm_9904):
        # frozen from a 40-digit evaluation of the closed form
        assert acf_model(nm_9904, 30.0) == pytest.approx(1.2716382750891714e-07, rel=1e-12)

    def test_negative_lag_rejected(self, nm_9904):
        with pytest.raises(ValueError):
            acf_model(nm_9904, -1.0)

    def test_bounds_and_nonnegativity(self, nm_9904):
        tau = np.linspace(0.0, 2000.0, 4001)
        vals = acf_model(nm_9904, tau)
        assert np.all(vals >= 0.0)
        assert np.all(vals <= nm_9904.xi**2 * (1 + 1e-15))

    def test_local_maxima_at_multiples_of_pi_over_omega(self, nm_9904):
        # grid maxima land within one 5-minute step of 120 and 240 minutes
        tau = np.arange(0, 485, 5, dtype=float)
        vals = np.asarray(acf_model(nm_9904, tau))
        maxima = [int(tau[i]) for i in range(1, len(tau) - 1) if vals[i] > vals[i - 1] and vals[i] > vals[i + 1]]
        first_two = maxima[:2]
        assert abs(first_two[0] - 120) <= 5
        assert abs(first_two[1] - 240) <= 5


class TestDeltaCoefficient:
    def test_initial_value_is_markovian(self, kurtosis_params, nm_9904):
        markov = 2 * 20.0 * 1.0 * 1.0 / 1.0
        assert delta_coefficient(kurtosis_params, nm_9904, 0.0) == markov

    def test_against_quadrature_of_definition(self, kurtosis_params, nm_9904):
        # independent oracle: Markovian part plus the integral of the smooth
        # part of the bath noise kernel, 8 M^2 gamma^2 R(tau), written out here, over 2 hbar^2
        for t in (30.0, 1.0 / nm_9904.eta, 500.0):
            smooth, _ = quad(
                lambda u: 8.0 * 20.0**2 * acf_model(nm_9904, u) / 2.0, 0.0, t, limit=200
            )
            expected = 40.0 + smooth
            assert delta_coefficient(kurtosis_params, nm_9904, t) == pytest.approx(expected, rel=1e-10)

    def test_value_at_one_decay_time(self, kurtosis_params, nm_9904):
        # frozen from a 40-digit evaluation
        value = delta_coefficient(kurtosis_params, nm_9904, 1.0 / nm_9904.eta)
        assert value == pytest.approx(40.02799184111688, rel=1e-13)
        assert 40.0 < value < delta_limit(kurtosis_params, nm_9904)

    def test_long_time_limit(self, kurtosis_params, nm_9904):
        t_long = 40.0 / nm_9904.eta
        assert delta_coefficient(kurtosis_params, nm_9904, t_long) == pytest.approx(
            delta_limit(kurtosis_params, nm_9904), rel=1e-12
        )

    def test_monotone_in_time(self, kurtosis_params, nm_9904):
        t = np.linspace(0.0, 2000.0, 2001)
        vals = np.asarray(delta_coefficient(kurtosis_params, nm_9904, t))
        assert np.all(np.diff(vals) >= 0.0)


class TestLambdaCoefficient:
    def test_zero_at_origin_exactly(self, nm_9904):
        params = ModelParams(M=1.0, gamma=1.0, kT=1.0, hbar=1.0)
        assert lambda_coefficient(params, nm_9904, 0.0) == 0.0

    def test_zero_for_zero_intensity(self):
        params = ModelParams(M=3.0, gamma=0.7, kT=1.0, hbar=0.5)
        nm = NonMarkovParams(xi=0.0, eta=4e-3, omega=2e-2)
        t = np.linspace(0.0, 3000.0, 301)
        assert np.all(np.asarray(lambda_coefficient(params, nm, t)) == 0.0)

    def test_long_time_limit_value(self, nm_9904):
        # frozen from a 40-digit evaluation of the closed-form limit
        params = ModelParams(M=1.0, gamma=1.0, kT=1.0, hbar=1.0)
        assert lambda_limit(params, nm_9904) == pytest.approx(0.019216635385457, rel=1e-12)
        t_long = 40.0 / nm_9904.eta
        assert lambda_coefficient(params, nm_9904, t_long) == pytest.approx(
            lambda_limit(params, nm_9904), rel=1e-10
        )

    def test_series_fallback_continuity(self, nm_9904):
        # values straddling the eta*t = 1e-6 switch agree through the seam
        params = ModelParams(M=1.0, gamma=1.0, kT=1.0, hbar=1.0)
        eta = nm_9904.eta
        below = lambda_coefficient(params, nm_9904, 0.99e-6 / eta)
        above = lambda_coefficient(params, nm_9904, 1.01e-6 / eta)
        # frozen reference at the seam from a 40-digit evaluation
        assert lambda_coefficient(params, nm_9904, 1e-6 / eta) == pytest.approx(
            -8.57557909954e-10, rel=1e-8
        )
        assert below == pytest.approx(above * 0.99 / 1.01, rel=1e-4)

    def test_omega_zero_reduces_to_double_relaxation_term(self):
        # with omega = 0 both terms coincide: Lambda = 2 P [1 - (1+eta t) e^(-eta t)] / eta^2
        params = ModelParams(M=2.0, gamma=1.5, kT=1.0, hbar=1.0)
        nm = NonMarkovParams(xi=3e-4, eta=5e-3, omega=0.0)
        t = 123.0
        pref = 2 * 2.0 * 1.5**2 * 9e-8
        expected = 2 * pref * (1 - (1 + 5e-3 * t) * math.exp(-5e-3 * t)) / 5e-3**2
        assert lambda_coefficient(params, nm, t) == pytest.approx(expected, rel=1e-12)


class TestSpectralDensity:
    def test_ohmic_value(self):
        params = ModelParams(M=1.0, gamma=math.pi / 2.0, kT=1.0, hbar=1.0)
        assert spectral_density(params, BathSpectrum("ohmic"), 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_lorentz_cutoff_approaches_ohmic_at_low_frequency(self):
        params = ModelParams(M=2.0, gamma=0.5, kT=1.0, hbar=1.0)
        lorentz = BathSpectrum("ohmic-lorentz", cutoff=100.0)
        w = 1e-3
        ratio = spectral_density(params, lorentz, w) / spectral_density(params, BathSpectrum("ohmic"), w)
        assert ratio == pytest.approx(1.0, abs=1e-8)
        # far above cutoff the density is suppressed
        assert spectral_density(params, lorentz, 1e4) < spectral_density(params, BathSpectrum("ohmic"), 1e4)

    def test_lorentz_matches_former_form(self):
        # the former form, ohmic * cutoff^2 / (cutoff^2 + omega^2)
        params = ModelParams(M=2.0, gamma=0.5, kT=1.0, hbar=1.0)
        w = np.concatenate([[0.0], np.logspace(-6, 6, 121)])
        ohmic = 2.0 * params.M * params.gamma * w / math.pi
        for cutoff in np.logspace(-4, 4, 17):
            lorentz = spectral_density(params, BathSpectrum("ohmic-lorentz", cutoff=cutoff), w)
            np.testing.assert_allclose(lorentz, ohmic * cutoff**2 / (cutoff**2 + w**2), rtol=1e-14, atol=0)

    def test_lorentz_with_underflowing_cutoff(self):
        # cutoff^2 underflows to 0, which made J 0/0 at omega = 0
        params = ModelParams(M=2.0, gamma=0.5, kT=1.0, hbar=1.0)
        w = np.array([0.0, 5e-321, 0.5, 1e300])
        lorentz = spectral_density(params, BathSpectrum("ohmic-lorentz", cutoff=1e-320), w)
        assert lorentz[0] == 0.0
        assert np.all(np.isfinite(lorentz)) and np.all(lorentz >= 0.0)

    def test_composite_reduces_to_ohmic_for_zero_intensity(self):
        params = ModelParams(M=1.0, gamma=2.0, kT=0.5, hbar=1.0)
        nm = NonMarkovParams(xi=0.0, eta=1e-3, omega=1e-2)
        w = np.linspace(0.0, 1.0, 101)
        composite = np.asarray(spectral_density(params, BathSpectrum("composite", nm=nm), w))
        ohmic = np.asarray(spectral_density(params, BathSpectrum("ohmic"), w))
        np.testing.assert_allclose(composite, ohmic, rtol=0, atol=0)

    def test_composite_dominates_ohmic(self, nm_9904):
        params = ModelParams(M=1.0, gamma=1.0, kT=0.3, hbar=1.0)
        w = np.linspace(0.0, 0.5, 301)
        composite = np.asarray(spectral_density(params, BathSpectrum("composite", nm=nm_9904), w))
        ohmic = np.asarray(spectral_density(params, BathSpectrum("ohmic"), w))
        assert np.all(composite - ohmic >= -1e-18)

    def test_composite_rejects_zero_temperature(self, nm_9904):
        params = ModelParams(M=1.0, gamma=1.0, kT=0.0, hbar=1.0)
        with pytest.raises(ValueError):
            spectral_density(params, BathSpectrum("composite", nm=nm_9904), 0.1)


class TestMarkovValidity:
    def test_cutoff_dominated(self):
        # thermal time hbar/(2 pi kT) = 1e-3, cutoff time 1e-2 -> ratio 0.01
        params = ModelParams(M=1.0, gamma=1.0, kT=1.0 / (2 * math.pi * 1e-3), hbar=1.0)
        assert markov_validity(params, cutoff=100.0) == pytest.approx(0.01, rel=1e-12)

    def test_clearly_non_markovian(self):
        params = ModelParams(M=1.0, gamma=10.0, kT=1e6, hbar=1e-6)
        assert markov_validity(params, cutoff=1.0) == pytest.approx(10.0, rel=1e-12)

    def test_thermal_time_vanishes_for_small_hbar(self):
        params = ModelParams(M=1.0, gamma=2.0, kT=1.0, hbar=1e-30)
        assert markov_validity(params, cutoff=50.0) == pytest.approx(2.0 / 50.0, rel=1e-12)

    def test_default_threshold(self):
        assert MARKOV_WARN_RATIO == 0.1

    def test_preconditions(self):
        params = ModelParams(M=1.0, gamma=1.0, kT=0.0, hbar=1.0)
        with pytest.raises(ValueError):
            markov_validity(params, cutoff=1.0)
        with pytest.raises(ValueError):
            markov_validity(ModelParams(M=1, gamma=1, kT=1, hbar=1), cutoff=0.0)


class TestMinimalUncertainty:
    def test_reference_value(self):
        params = ModelParams(M=1.0, gamma=1.0, kT=1.0, hbar=0.01)
        assert minimal_uncertainty_momentum(params, 1e-7) == pytest.approx(250.0, rel=1e-14)

    def test_half_by_half(self):
        params = ModelParams(M=1.0, gamma=1.0, kT=1.0, hbar=1.0)
        assert minimal_uncertainty_momentum(params, 0.5) == pytest.approx(0.5, rel=1e-15)

    def test_product_identity(self):
        params = ModelParams(M=1.0, gamma=1.0, kT=1.0, hbar=0.37)
        for sx2 in (1e-6, 0.2, 5.0):
            assert minimal_uncertainty_momentum(params, sx2) * sx2 == pytest.approx(
                0.37**2 / 4.0, rel=1e-14
            )

    def test_zero_variance_rejected(self):
        params = ModelParams(M=1.0, gamma=1.0, kT=1.0, hbar=1.0)
        with pytest.raises(ValueError):
            minimal_uncertainty_momentum(params, 0.0)

    @pytest.mark.parametrize("hbar, sx2, fault", [(1e-200, 1.0, "underflows to 0"), (1e200, 1.0, "overflows")])
    def test_unrepresentable_value_is_numerical_error(self, hbar, sx2, fault):
        # hbar^2 = 1e-400 is 0 in double precision: a numerical failure, not a bad input
        params = ModelParams(M=1.0, gamma=1.0, kT=1.0, hbar=hbar)
        with np.errstate(under="ignore", over="ignore"), pytest.raises(NumericalError, match=fault):
            minimal_uncertainty_momentum(params, sx2)


@pytest.mark.parametrize("hbar", [1e-160, 1e-200])
def test_tiny_hbar_coefficients_are_non_finite_not_errors(hbar):
    # 1/hbar^2 overflows (or hbar^2 underflows to 0): the value says so, and
    # the CSV writer refuses it by name. Lambda(0) = 0 is left out: 0 / hbar^2
    # is the exact 0 at hbar = 1e-160 (nan where hbar^2 underflows to 0).
    params = ModelParams(M=1.0, gamma=1.0, kT=1.0, hbar=hbar)
    nm = NonMarkovParams(xi=1.0, eta=1.0, omega=1.0)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        assert not np.isfinite(delta_coefficient(params, nm, np.array([0.0, 0.5, 1.0]))).any()
        assert not np.isfinite(lambda_coefficient(params, nm, np.array([0.5, 1.0]))).any()
        for fn in (delta_limit, lambda_limit):
            assert not math.isfinite(fn(params, nm))


def _log_uniform(lo: float, hi: float):
    """Floats spread evenly over the decades 10**lo .. 10**hi."""
    return st.floats(min_value=lo, max_value=hi).map(lambda e: 10.0**e)


_model_params = st.builds(
    ModelParams,
    M=_log_uniform(-3, 3),
    gamma=_log_uniform(-4, 4),
    kT=st.one_of(st.just(0.0), _log_uniform(-4, 3)),
    hbar=_log_uniform(-3, 1),
)
_nm_params = st.builds(
    NonMarkovParams,
    xi=st.one_of(st.just(0.0), _log_uniform(-5, 0)),
    eta=_log_uniform(-4, 1),
    omega=st.one_of(st.just(0.0), _log_uniform(-4, 1)),
)
_times = st.one_of(st.just(0.0), _log_uniform(-8, 5))
# Delta(t) is a sum whose largest terms are of the size of its limit, so
# rounding may move it by a few ulps of the limit
_DELTA_ROUNDING = 8.0 * np.finfo(float).eps


class TestClosedFormInvariants:
    @given(params=_model_params, sx2_0=_log_uniform(-8, 4), sp2_0=_log_uniform(-8, 4), t=_times)
    # small gamma t, where the direct three-term thermal bracket cancels to a negative value
    @example(params=ModelParams(M=1.0, gamma=1e-4, kT=1e3, hbar=1.0), sx2_0=1.0, sp2_0=1.0, t=1e-5)
    def test_variance_never_below_initial(self, params, sx2_0, sp2_0, t):
        init = SecondMomentInit(sx2_0=sx2_0, sp2_0=sp2_0, spx_0=0.0)
        assert variance_closed_form(params, init, t) >= sx2_0

    @given(params=_model_params, nm=_nm_params, t1=_times, t2=_times)
    def test_delta_monotone_and_saturating(self, params, nm, t1, t2):
        t1, t2 = sorted((t1, t2))
        limit = delta_limit(params, nm)
        d1 = delta_coefficient(params, nm, t1)
        d2 = delta_coefficient(params, nm, t2)
        assert d1 <= d2 + _DELTA_ROUNDING * limit
        assert d2 <= limit * (1.0 + _DELTA_ROUNDING)

    @given(nm=_nm_params, tau=_times)
    def test_acf_between_zero_and_amplitude_squared(self, nm, tau):
        assert 0.0 <= acf_model(nm, tau) <= nm.xi**2
