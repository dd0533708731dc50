"""Moment recursion and exact trajectory propagation, validated against the
variance closed form, an adaptive ODE integration (a test-only reference), a
40-digit matrix exponential and the analytic properties of the linear
generator."""

import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

from qbmarket import (
    ModelParams,
    NonMarkovParams,
    SecondMomentInit,
    cross_diffusion,
    normal_diffusion,
    variance_closed_form,
)
from qbmarket.dynamics import (
    KernelSchedule,
    MomentState,
    evolve_moments,
)
from qbmarket.dynamics.moments import MOMENT_KEYS, _TRIANGULAR, _expm, _generator_matrices
from qbmarket.errors import NumericalError

from conftest import FIT_TRIPLES, linear_fit_r2, minimal_uncertainty, moment_derivative, moment_state


def fig2c_init() -> MomentState:
    # second moments hbar/2 each, fourth coordinate moment inflated to 50 hbar^2,
    # remaining fourth moments at their Gaussian values
    return MomentState.gaussian(0.5, 0.5, 0.0).with_value(4, 0, 50.0)


class TestMomentState:
    def test_gaussian_values(self):
        g = MomentState.gaussian(2.0, 3.0, 0.5)
        assert g[(4, 0)] == pytest.approx(12.0)
        assert g[(0, 4)] == pytest.approx(27.0)
        assert g[(2, 2)] == pytest.approx(2.0 * 3.0 + 2 * 0.25)
        assert g[(3, 1)] == pytest.approx(3.0 * 2.0 * 0.5)
        assert g[(1, 0)] == 0.0 and g[(3, 0)] == 0.0 and g[(2, 1)] == 0.0

    def test_invariant_violations_rejected(self):
        with pytest.raises(ValueError):
            MomentState.gaussian(2.0, 3.0, 0.5).with_value(0, 0, 2.0)
        with pytest.raises(ValueError):
            MomentState.gaussian(1.0, 1.0).with_value(4, 0, 0.5)  # below m20^2
        with pytest.raises(ValueError):
            MomentState.gaussian(1.0, 1.0).with_value(1, 1, 1.5)  # violates CS

    def test_from_init_uses_symmetrized_cross_moment(self):
        init = SecondMomentInit(sx2_0=1.0, sp2_0=2.0, spx_0=0.6)
        state = moment_state(init)
        assert state[(1, 1)] == pytest.approx(0.3)

    def test_kurtosis_fig2c(self):
        assert fig2c_init().kurtosis_x() == 197.0

    def test_kurtosis_invariant_under_coordinate_rescaling(self):
        # ratio of degree-4 to squared degree-2 moments kills any x -> c x scaling
        state = fig2c_init()
        c = 3.7
        scaled = {key: val * c ** key[0] for key, val in state.m.items()}
        assert MomentState(scaled).kurtosis_x() == pytest.approx(state.kurtosis_x(), rel=1e-12)


class TestMomentDerivative:
    def test_equipartition_is_stationary_for_p_variance(self):
        # m(0,2) = M kT under the Markovian coefficient: -4 g M kT + 2 D = 0
        params = ModelParams(M=3.0, gamma=0.7, kT=1.3, hbar=0.5)
        D = 2 * 3.0 * 0.7 * 1.3  # hbar^2 Delta, whatever hbar
        state = MomentState.gaussian(1.0, 3.0 * 1.3, 0.0)
        deriv = moment_derivative(state, params, D, 0.0)
        assert deriv[(0, 2)] == pytest.approx(0.0, abs=1e-12)

    def test_coordinate_variance_rate_is_pure_drift(self):
        params = ModelParams(M=2.5, gamma=1.1, kT=0.2, hbar=1.0)
        state = MomentState.gaussian(1.0, 2.0, 0.4)
        for D, L in [(0.0, 0.0), (3.0, 0.5), (10.0, -2.0)]:
            deriv = moment_derivative(state, params, D, L)
            assert deriv[(2, 0)] == pytest.approx((2.0 / 2.5) * 0.4, rel=1e-14)

    def test_normalization_is_conserved(self):
        params = ModelParams(M=1.0, gamma=1.0, kT=1.0, hbar=1.0)
        deriv = moment_derivative(fig2c_init(), params, 40.0, 0.1)
        assert deriv[(0, 0)] == 0.0

    def test_full_table_against_hand_expansion(self):
        # spot-check the highest-order row: dm(0,4)/dt = -8 g m04 + 12 D m02
        params = ModelParams(M=20.0, gamma=1.0, kT=1.0, hbar=1.0)
        state = fig2c_init()
        deriv = moment_derivative(state, params, 40.0, 0.0)
        assert deriv[(0, 4)] == pytest.approx(-8.0 * 0.75 + 12.0 * 40.0 * 0.5, rel=1e-14)
        # and the cross term: dm(1,3)/dt = m04/M - 6 g m13 + 6 D m11 - 3 L m02
        deriv = moment_derivative(state, params, 40.0, 2.0)
        assert deriv[(1, 3)] == pytest.approx(0.75 / 20.0 - 0.0 + 0.0 - 3.0 * 2.0 * 0.5, rel=1e-14)


class TestEvolveMoments:
    def test_markovian_variance_matches_closed_form(self, kurtosis_params):
        init = SecondMomentInit(sx2_0=0.5, sp2_0=0.5, spx_0=0.0)
        t = np.linspace(0.0, 10.0, 41)
        traj = evolve_moments(moment_state(init), KernelSchedule.markov(kurtosis_params), t)
        exact = np.asarray(variance_closed_form(kurtosis_params, init, t))
        np.testing.assert_allclose(traj.moment(2, 0), exact, rtol=1e-8)

    def test_extreme_scale_parameters(self, variance_params, variance_init):
        # the nondimensionalization keeps mixed magnitudes (1e-7 vs 250) accurate
        t = np.linspace(0.0, 10.0 / variance_params.gamma, 21)
        traj = evolve_moments(
            moment_state(variance_init), KernelSchedule.markov(variance_params), t
        )
        exact = np.asarray(variance_closed_form(variance_params, variance_init, t))
        np.testing.assert_allclose(traj.moment(2, 0), exact, rtol=1e-7)

    def test_fig2c_kurtosis_decays_monotonically(self, kurtosis_params):
        t = np.linspace(0.0, 12.0, 49)
        traj = evolve_moments(fig2c_init(), KernelSchedule.markov(kurtosis_params), t)
        kappa = traj.kurtosis_x()
        assert kappa[0] == pytest.approx(197.0, rel=1e-12)
        assert np.all(np.diff(kappa) < 0.0)
        assert np.all(kappa > 0.0)
        # asymptotically exponential-looking: log kappa close to affine in t
        slope, _, r2 = linear_fit_r2(t[t <= 10.0], np.log(kappa[t <= 10.0]))
        assert slope < 0.0
        assert r2 >= 0.99

    def test_gaussian_family_is_invariant(self):
        params = ModelParams(M=2.0, gamma=0.8, kT=1.4, hbar=0.7)
        init = MomentState.gaussian(1.2, 2.1, -0.4)
        t = np.linspace(0.0, 6.0, 25)
        traj = evolve_moments(init, KernelSchedule.markov(params), t)
        assert np.max(np.abs(traj.kurtosis_x())) < 1e-8
        # all fourth moments keep their Gaussian relation to the second moments
        for state in traj.states[:: len(traj.states) // 4]:
            ref = MomentState.gaussian(state[(2, 0)], state[(0, 2)], state[(1, 1)])
            assert state[(2, 2)] == pytest.approx(ref[(2, 2)], rel=1e-7)
            assert state[(0, 4)] == pytest.approx(ref[(0, 4)], rel=1e-7)

    def test_non_markovian_with_zero_intensity_reduces_to_markovian(self, kurtosis_params):
        nm0 = NonMarkovParams(xi=0.0, eta=5.56e-3, omega=8.33e-3 * np.pi)
        t = np.linspace(0.0, 8.0, 33)
        markov = evolve_moments(fig2c_init(), KernelSchedule.markov(kurtosis_params), t)
        reduced = evolve_moments(fig2c_init(), KernelSchedule.non_markov(kurtosis_params, nm0), t)
        for key in [(2, 0), (1, 1), (0, 2), (4, 0), (2, 2), (0, 4)]:
            np.testing.assert_array_equal(markov.moment(*key), reduced.moment(*key))

    def test_non_markovian_kernel_adds_diffusion(self, kurtosis_params, nm_9904):
        # a visible intensity raises the momentum variance relative to Markovian
        nm = NonMarkovParams(xi=0.05, eta=nm_9904.eta, omega=nm_9904.omega)
        t = np.linspace(0.0, 2.0, 9)
        markov = evolve_moments(fig2c_init(), KernelSchedule.markov(kurtosis_params), t)
        colored = evolve_moments(fig2c_init(), KernelSchedule.non_markov(kurtosis_params, nm), t)
        assert colored.moment(0, 2)[-1] > markov.moment(0, 2)[-1]

    def test_grid_validation(self, kurtosis_params):
        sched = KernelSchedule.markov(kurtosis_params)
        with pytest.raises(ValueError):
            evolve_moments(fig2c_init(), sched, [0.0])
        with pytest.raises(ValueError):
            evolve_moments(fig2c_init(), sched, [1.0, 2.0])
        with pytest.raises(ValueError):
            evolve_moments(fig2c_init(), sched, [0.0, 2.0, 1.0])

    def test_kurtosis_requires_positive_variance(self):
        with pytest.raises(ValueError):
            MomentState.gaussian(1.0, 1.0).with_value(2, 0, 0.0)


class TestKernelSchedule:
    def test_markov_constants(self, kurtosis_params):
        # D = hbar^2 Delta = 2 M gamma kT, L = 0, whatever hbar
        for hbar in (1.0, 1e-200, 1e200):
            sched = KernelSchedule.markov(dataclasses.replace(kurtosis_params, hbar=hbar))
            assert sched.coefficients(0.0) == sched.coefficients(5.0) == (40.0, 0.0)

    def test_non_markov_requires_nm(self, kurtosis_params):
        with pytest.raises(ValueError):
            KernelSchedule("non-markov", kurtosis_params)

    def test_non_markov_tracks_closed_forms(self, kurtosis_params, nm_9904):
        from qbmarket import delta_coefficient, lambda_coefficient

        sched = KernelSchedule.non_markov(kurtosis_params, nm_9904)
        for t in (0.0, 17.0, 400.0):
            D, L = sched.coefficients(t)
            assert (D, L) == (normal_diffusion(kurtosis_params, nm_9904, t), cross_diffusion(kurtosis_params, nm_9904, t))
            # at hbar = 1 the pair is (Delta, Lambda) itself
            assert (D, L) == (delta_coefficient(kurtosis_params, nm_9904, t), lambda_coefficient(kurtosis_params, nm_9904, t))
        ts = np.array([0.0, 17.0, 400.0])
        np.testing.assert_array_equal(sched.coefficients(ts), [[sched.coefficients(t)[k] for t in ts] for k in (0, 1)])

    @pytest.mark.parametrize("case", ["fit-1999-2004", "omega-0", "slow-eta", "unit-triple"])
    def test_driver_states_track_closed_forms(self, case):
        # z' = F z from z0: its last two states are D(t) - D(0) and L(t)
        _, schedule, _ = driven_cases()[case]
        f, z0 = schedule.drivers()
        assert np.all(np.triu(f, 1) == 0.0)
        p, nm = schedule.params, schedule.nm
        for t in (0.0, 0.37, 17.0, 400.0):
            d, lam = (_expm(f * t) @ z0)[-2:]
            expected = (normal_diffusion(p, nm, t) - normal_diffusion(p, nm, 0.0), cross_diffusion(p, nm, t))
            np.testing.assert_allclose([d.real, lam.real], expected, rtol=1e-11, atol=0)

    @pytest.mark.parametrize("kind", ["markov", "non-markov"])
    def test_non_finite_coefficient_is_named(self, kind, nm_9904):
        # 2 M gamma kT overflows
        params = ModelParams(M=10.0, gamma=1.0, kT=1e308, hbar=1.0)
        sched = KernelSchedule(kind, params, nm_9904 if kind == "non-markov" else None)
        with pytest.raises(NumericalError, match=r"diffusion coefficient D is inf at t = 0\.5"):
            sched.coefficients(0.5)
        with pytest.raises(NumericalError, match=r"diffusion coefficient D is inf at t = 0$"):
            sched.coefficients(np.array([0.0, 0.5]))


def dop853_reference(init: MomentState, schedule: KernelSchedule, t: np.ndarray) -> np.ndarray:
    """The moment ODE integrated by DOP853 at rtol 1e-12 in physical units,
    one row of MOMENT_KEYS per time; the absolute tolerance of each moment is
    1e-14 of its initial spread scale."""
    from scipy.integrate import solve_ivp

    p = schedule.params
    a, b, c = _generator_matrices(p.M, p.gamma)
    x_s = math.sqrt(init[(2, 0)])
    p_s = math.sqrt(max(init[(0, 2)], p.M * p.kT))
    scale = np.array([x_s**j * p_s**k for (j, k) in MOMENT_KEYS])

    def rhs(tt, y):
        D, L = schedule.coefficients(tt)
        return (a + D * b + L * c) @ y

    sol = solve_ivp(rhs, (t[0], t[-1]), init.vector(), method="DOP853", t_eval=t, rtol=1e-12, atol=1e-14 * scale)
    assert sol.success, sol.message
    return sol.y.T


def constant_coefficient_cases():
    kurt = ModelParams(M=20.0, gamma=1.0, kT=1.0, hbar=1.0)
    stiff = ModelParams(M=10.0, gamma=1e3, kT=0.1, hbar=0.01)
    return {
        "fig2c": (fig2c_init(), KernelSchedule.markov(kurt), np.linspace(0.0, 12.0, 49)),
        "gamma-1e3": (
            moment_state(minimal_uncertainty(stiff, 1e-7)),
            KernelSchedule.markov(stiff),
            np.linspace(0.0, 10.0, 49),
        ),
        "cross-moment": (
            MomentState.gaussian(1.2, 2.1, -0.4),
            KernelSchedule.markov(ModelParams(M=2.0, gamma=0.8, kT=1.4, hbar=0.7)),
            np.linspace(0.0, 6.0, 25),
        ),
        "non-markov-xi-0": (
            fig2c_init(),
            KernelSchedule.non_markov(kurt, NonMarkovParams(xi=0.0, eta=5.56e-3, omega=0.026)),
            np.linspace(0.0, 8.0, 33),
        ),
        "zero-temperature": (
            MomentState.gaussian(1.0, 2.0, 0.3).with_value(4, 0, 5.0),
            KernelSchedule.markov(ModelParams(M=1.0, gamma=0.3, kT=0.0, hbar=1.0)),
            np.linspace(0.0, 20.0, 41),
        ),
        "weak-damping": (
            MomentState.gaussian(0.2, 3.0, 0.1),
            KernelSchedule.markov(ModelParams(M=5.0, gamma=1e-3, kT=2.0, hbar=0.5)),
            np.linspace(0.0, 50.0, 26),
        ),
    }


def driven_cases():
    # time-dependent pairs: the published fit triple, no oscillation, a slow
    # decay and the unit triple
    return {
        "fit-1999-2004": (
            fig2c_init(),
            KernelSchedule.non_markov(ModelParams(M=20.0, gamma=1.0, kT=1.0, hbar=1.0), FIT_TRIPLES["1999-2004"]),
            np.linspace(0.0, 12.0, 49),
        ),
        "omega-0": (
            MomentState.gaussian(1.2, 2.1, -0.4),
            KernelSchedule.non_markov(ModelParams(M=2.0, gamma=0.8, kT=1.4, hbar=0.7),
                                      NonMarkovParams(xi=0.3, eta=0.5, omega=0.0)),
            np.linspace(0.0, 6.0, 25),
        ),
        "slow-eta": (
            MomentState.gaussian(1.0, 2.0, 0.3).with_value(4, 0, 5.0),
            KernelSchedule.non_markov(ModelParams(M=1.0, gamma=0.5, kT=0.3, hbar=1.0),
                                      NonMarkovParams(xi=0.05, eta=1e-4, omega=0.026)),
            np.linspace(0.0, 30.0, 31),
        ),
        "unit-triple": (
            MomentState.gaussian(1.0, 1.0),
            KernelSchedule.non_markov(ModelParams(M=1.0, gamma=1.0, kT=1.0, hbar=1.0),
                                      NonMarkovParams(xi=1.0, eta=1.0, omega=1.0)),
            np.linspace(0.0, 5.0, 21),
        ),
    }


class TestExactPropagation:
    def test_generator_is_lower_triangular_in_propagation_order(self):
        a, b, c = _generator_matrices(3.0, 2.0)
        g = (a + b + c)[np.ix_(_TRIANGULAR, _TRIANGULAR)]
        assert np.all(np.triu(g, 1) == 0.0)
        assert np.any(np.triu(a + b + c, 1) != 0.0)  # as stored, it is not

    def test_harmonic_generator_exponential_matches_scipy(self):
        # the harmonic force is the one coupling that breaks the triangular
        # order, so _expm must take such a matrix without its triangular fix-ups
        from scipy.linalg import expm

        a, b, c = _generator_matrices(0.7, 0.25, omega0=1.3)
        g = (a + 2.0 * b - 0.5 * c)[np.ix_(_TRIANGULAR, _TRIANGULAR)]
        assert np.any(np.triu(g, 1) != 0.0)
        for h in (0.01, 1.0, 30.0):
            ref = expm(g * h)
            assert np.max(np.abs(_expm(g * h) - ref)) <= 1e-12 * np.max(np.abs(ref)), h

    @pytest.mark.parametrize("case", list(constant_coefficient_cases()))
    def test_matches_dop853_reference(self, case):
        # within 1e-8 of each moment's largest value on the grid; the largest
        # gap (6e-9, gamma = 1e3) is the integrator's: see the next test
        init, schedule, t = constant_coefficient_cases()[case]
        assert not len(schedule.drivers()[0])
        exact = np.array([s.vector() for s in evolve_moments(init, schedule, t).states])
        ref = dop853_reference(init, schedule, t)
        size = np.abs(ref).max(axis=0)
        gap = np.abs(exact - ref).max(axis=0)
        assert np.all(gap <= 1e-8 * size), (gap / np.where(size > 0, size, 1.0)).max()

    @pytest.mark.parametrize("case", list(driven_cases()))
    def test_time_dependent_pair_matches_dop853_reference(self, case):
        # the moments and their products with the drivers of D and L, propagated
        # as one system: within 1e-10 of each moment's largest value on the grid
        init, schedule, t = driven_cases()[case]
        exact = np.array([s.vector() for s in evolve_moments(init, schedule, t).states])
        ref = dop853_reference(init, schedule, t)
        size = np.abs(ref).max(axis=0)
        gap = np.abs(exact - ref).max(axis=0)
        assert np.all(gap <= 1e-10 * size), (gap / np.where(size > 0, size, 1.0)).max()

    def test_stiff_case_matches_high_precision_exponential(self):
        # every moment within 1e-14 of exp(G t) m(0) in 40-digit arithmetic
        init, schedule, t = constant_coefficient_cases()["gamma-1e3"]
        p = schedule.params
        a, b, _ = _generator_matrices(p.M, p.gamma)
        gen = mp.matrix((a + schedule.coefficients(0.0)[0] * b).tolist())
        traj = evolve_moments(init, schedule, t)
        with mp.workdps(40):
            for k in (1, 10, len(t) - 1):
                ref = np.array([float(v) for v in mp.expm(gen * mp.mpf(t[k])) * mp.matrix(init.vector().tolist())])
                np.testing.assert_allclose(traj.states[k].vector(), ref, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("case", ["fig2c", "gamma-1e3", "cross-moment", "weak-damping"])
    def test_variance_matches_closed_form(self, case):
        # without the exact diagonal in the squaring phase, gamma = 1e3 was off by 5e-12
        init, schedule, t = constant_coefficient_cases()[case]
        sx2 = init[(2, 0)]
        start = SecondMomentInit(sx2_0=sx2, sp2_0=init[(0, 2)], spx_0=2.0 * init[(1, 1)])
        exact = np.asarray(variance_closed_form(schedule.params, start, t))
        np.testing.assert_allclose(evolve_moments(init, schedule, t).moment(2, 0), exact, rtol=1e-14)

    @pytest.mark.parametrize("case", ["gamma-1e3", "cross-moment"])
    def test_centered_gaussian_keeps_exact_norm_and_zero_odd_moments(self, case):
        init, schedule, t = constant_coefficient_cases()[case]
        traj = evolve_moments(init, schedule, t)
        assert np.all(traj.moment(0, 0) == 1.0)
        for key in MOMENT_KEYS:
            if sum(key) % 2:
                odd = traj.moment(*key)
                assert np.all(odd == 0.0) and not np.any(np.signbit(odd)), key

    def test_one_propagator_per_distinct_interval(self, monkeypatch, kurtosis_params):
        from qbmarket.dynamics import moments

        calls = []
        real = moments._expm
        monkeypatch.setattr(moments, "_expm", lambda a: calls.append(a) or real(a))
        t = np.array([0.0, 0.5, 1.0, 1.5, 2.5, 3.0])
        evolve_moments(fig2c_init(), KernelSchedule.markov(kurtosis_params), t)
        assert len(calls) == 2
