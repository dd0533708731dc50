"""Position-variance laws: exact values, limits, and the classical reduction."""

import numpy as np
import pytest

from qbmarket import (
    ModelParams,
    SecondMomentInit,
    classical_variance,
    variance_closed_form,
    variance_short_time,
)


class TestClosedForm:
    def test_initial_value(self, variance_params, variance_init):
        assert variance_closed_form(variance_params, variance_init, 0.0) == variance_init.sx2_0

    def test_reference_point(self, variance_params, variance_init):
        # frozen: 1e-7 + 250/(2*10*1e3)^2 + 1e-5*(10 - 3/4000) = 1.007175e-4
        value = variance_closed_form(variance_params, variance_init, 10.0)
        assert value == pytest.approx(1.007175e-4, rel=1e-12)
        classical = classical_variance(variance_params, 10.0)
        assert abs(value / classical - 1.0) < 0.01

    def test_zero_temperature_floor(self, variance_params, variance_init):
        # the uncertainty floor survives: sx2(0) + sp2(0)/(2 M gamma)^2
        params = ModelParams(M=10.0, gamma=1e3, kT=0.0, hbar=0.01)
        value = variance_closed_form(params, variance_init, 10.0)
        assert value == pytest.approx(7.25e-7, rel=1e-12)

    def test_matches_classical_for_diffusion_dominated_growth(self):
        # when kT t/(M gamma) dwarfs every other term the relative deviation
        # from the classical line is below 1e-3
        params = ModelParams(M=1.0, gamma=2.0, kT=5.0, hbar=1e-3)
        init = SecondMomentInit(sx2_0=1e-6, sp2_0=1e-3, spx_0=0.0)
        t = 1e4
        quantum = variance_closed_form(params, init, t)
        classical = classical_variance(params, t)
        assert abs(quantum / classical - 1.0) < 1e-3

    def test_hbar_enters_only_through_initial_conditions(self, variance_params):
        # rescaling hbar at fixed init leaves the law unchanged; the scaled
        # minimal-uncertainty momentum is what actually moves the curve
        init = SecondMomentInit(sx2_0=1e-7, sp2_0=250.0, spx_0=0.0)
        other = ModelParams(M=10.0, gamma=1e3, kT=0.1, hbar=0.02)
        t = np.linspace(0.0, 10.0, 11)
        np.testing.assert_array_equal(
            np.asarray(variance_closed_form(variance_params, init, t)),
            np.asarray(variance_closed_form(other, init, t)),
        )

    def test_cross_moment_term(self):
        params = ModelParams(M=2.0, gamma=0.5, kT=0.0, hbar=1.0)
        base = SecondMomentInit(sx2_0=1.0, sp2_0=1.0, spx_0=0.0)
        tilted = SecondMomentInit(sx2_0=1.0, sp2_0=1.0, spx_0=0.8)
        t = 1.3
        u = -np.expm1(-2 * 0.5 * t)
        expected_gap = u / (2 * 2.0 * 0.5) * 0.8
        gap = variance_closed_form(params, tilted, t) - variance_closed_form(params, base, t)
        assert gap == pytest.approx(expected_gap, rel=1e-12)


    def test_matches_former_formula_at_ordinary_gamma(self):
        # the former form, kT/(2 M gamma^2) times the bracket, which fails only
        # where 1/gamma^2 overflows
        def former(params, init, t):
            g, M, kT = params.gamma, params.M, params.kT
            x = 2.0 * g * t
            u = -np.expm1(-x)
            relax = u / (2.0 * M * g)
            series = np.zeros_like(u)
            for n in range(20, 2, -1):
                series = u * (series + 1.0 / n)
            bracket = np.where(u < 0.1, series * u**2, x - u - 0.5 * u**2)
            return init.sx2_0 + relax**2 * init.sp2_0 + relax * init.spx_0 + (kT / (2.0 * M * g**2)) * bracket

        t = np.concatenate([[0.0], np.logspace(-6, 4, 61)])
        init = SecondMomentInit(sx2_0=0.3, sp2_0=2.0, spx_0=0.4)
        for gamma in np.logspace(-6, 6, 25):
            for M, kT in ((1.0, 1.0), (0.02, 30.0), (50.0, 1e-3)):
                params = ModelParams(M=M, gamma=gamma, kT=kT, hbar=1.0)
                np.testing.assert_allclose(
                    variance_closed_form(params, init, t), former(params, init, t), rtol=1e-13, atol=0
                )

    @pytest.mark.parametrize("gamma", [1e-160, 1e-300])
    def test_tiny_gamma_is_finite(self, gamma):
        params = ModelParams(M=2.0, gamma=gamma, kT=3.0, hbar=1.0)
        init = SecondMomentInit(sx2_0=1.0, sp2_0=0.5, spx_0=0.2)
        t = np.array([0.0, 0.5, 1.0, 7.0])
        limit = 1.0 + t**2 * 0.5 / 2.0**2 + t * 0.2 / 2.0 + 4.0 * 3.0 * gamma * t**3 / (3.0 * 2.0)
        np.testing.assert_allclose(variance_closed_form(params, init, t), limit, rtol=1e-12, atol=0)


class TestShortTime:
    def test_initial_value(self, variance_params):
        assert variance_short_time(variance_params, 1e-7, 0.0) == pytest.approx(1e-7)

    def test_zero_temperature_is_pure_quadratic(self):
        params = ModelParams(M=2.0, gamma=1.0, kT=0.0, hbar=0.5)
        t = np.array([0.0, 1e-3, 2e-3])
        vals = np.asarray(variance_short_time(params, 0.1, t))
        expected = 0.1 + 0.5**2 * t**2 / (2.0**2 * 0.1)
        np.testing.assert_allclose(vals, expected, rtol=1e-14)

    def test_ratio_to_closed_form_approaches_one(self, variance_params, variance_init):
        # numerical sweep gamma*t in {1e-2, 1e-3, 1e-4}
        ratios = []
        for f in (1e-2, 1e-3, 1e-4):
            t = f / variance_params.gamma
            closed = variance_closed_form(variance_params, variance_init, t)
            short = variance_short_time(variance_params, variance_init.sx2_0, t)
            ratios.append(abs(closed / short - 1.0))
        assert ratios[0] > ratios[1] > ratios[2]
        assert ratios[2] < 1e-5

    def test_zero_initial_variance_rejected(self, variance_params):
        # a negative one gave negative variances
        for sx2_0 in (0.0, -1.0):
            with pytest.raises(ValueError, match="sx2_0 must be positive"):
                variance_short_time(variance_params, sx2_0, 1.0)


class TestClassical:
    def test_zero_at_origin(self, variance_params):
        assert classical_variance(variance_params, 0.0) == 0.0

    def test_reference_value(self, variance_params):
        assert classical_variance(variance_params, 10.0) == pytest.approx(1e-4, rel=1e-15)

    def test_linearity(self, variance_params):
        t = np.linspace(0.0, 50.0, 11)
        vals = np.asarray(classical_variance(variance_params, t))
        np.testing.assert_allclose(2.0 * vals, np.asarray(classical_variance(variance_params, 2.0 * t)), rtol=1e-15)

    def test_negative_time_rejected(self, variance_params):
        with pytest.raises(ValueError):
            classical_variance(variance_params, -0.5)
