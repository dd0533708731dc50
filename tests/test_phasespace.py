"""Phase-space grid and PDE solver: quadrature moments, closed-form transport
checks, and the cross-check against the moment ODE."""

import math

import numpy as np
import pytest
from scipy.ndimage import map_coordinates, spline_filter1d

from qbmarket import ModelParams, StabilityError
from qbmarket.dynamics import (
    HarmonicPotential,
    KernelSchedule,
    MomentState,
    PhaseSpaceGrid,
    evolve_moments,
    evolve_wigner_pde,
    grid_moments,
    stable_time_step,
)
from qbmarket.dynamics.phasespace import (
    _p_diffusion_modes,
    _spline_coefficients,
    _spline_prefilter,
    _transport_substeps,
)


def free_params() -> ModelParams:
    # vanishing damping and temperature: pure transport
    return ModelParams(M=1.0, gamma=1e-12, kT=0.0, hbar=1.0)


class TestGrid:
    def test_shape_and_normalization_validation(self):
        with pytest.raises(ValueError):
            PhaseSpaceGrid(-1, 1, 8, -1, 1, 32, np.zeros((8, 32)))  # too few cells
        with pytest.raises(ValueError):
            PhaseSpaceGrid(-1, 1, 32, -1, 1, 32, np.ones((32, 32)))  # mass != 1

    @pytest.mark.parametrize("cells", [{(3, 4): math.nan}, {(3, 4): math.inf, (5, 6): -math.inf}], ids=["nan", "inf"])
    def test_non_finite_density_rejected(self, cells):
        # both make the mass NaN, which no tolerance comparison rejects
        w = np.full((16, 16), 1.0 / 4.0)
        for cell, value in cells.items():
            w[cell] = value
        with pytest.raises(ValueError, match="finite"):
            PhaseSpaceGrid(-1, 1, 16, -1, 1, 16, w)

    def test_gaussian_grid_moments(self):
        grid = PhaseSpaceGrid.gaussian(0.8, 1.7, 0.0, n_x=128, n_p=128)
        m = grid_moments(grid)
        assert m[(2, 0)] == pytest.approx(0.8, rel=1e-9)
        assert m[(0, 2)] == pytest.approx(1.7, rel=1e-9)
        assert m[(2, 2)] == pytest.approx(0.8 * 1.7, rel=1e-9)
        # odd moments vanish by symmetry
        for key in [(1, 0), (0, 1), (3, 0), (2, 1), (1, 2), (0, 3)]:
            assert abs(m[key]) < 1e-12

    def test_correlated_gaussian(self):
        grid = PhaseSpaceGrid.gaussian(1.0, 1.0, 0.45, n_x=128, n_p=128)
        m = grid_moments(grid)
        assert m[(1, 1)] == pytest.approx(0.45, rel=1e-9)
        assert m[(3, 1)] == pytest.approx(3 * 1.0 * 0.45, rel=1e-8)

    def test_refinement_improves_moments(self):
        # a deliberately coarse grid so quadrature error is visible
        errs = []
        for n in (16, 32):
            grid = PhaseSpaceGrid.gaussian(1.0, 1.0, 0.0, x_half_width=8.0, p_half_width=8.0, n_x=n, n_p=n)
            errs.append(abs(grid_moments(grid)[(4, 0)] - 3.0))
        assert errs[1] < errs[0] / 4.0 or errs[1] < 1e-12

    def test_negative_fraction_diagnostic(self):
        grid = PhaseSpaceGrid.gaussian(1.0, 1.0, 0.0, n_x=64, n_p=64)
        assert grid.negative_fraction() == 0.0


class TestStability:
    def test_time_step_bound_enforced(self):
        params = ModelParams(M=1.0, gamma=0.25, kT=1.0, hbar=1.0)
        sched = KernelSchedule.markov(params)
        grid = PhaseSpaceGrid.gaussian(1.0, 1.0, 0.0, x_half_width=10.0, p_half_width=7.0, n_x=64, n_p=64)
        bound = stable_time_step(grid, sched, 1.0)
        with pytest.raises(StabilityError):
            evolve_wigner_pde(grid, sched, t_end=1.0, dt=4.0 * bound)

    def test_narrow_grid_rejected(self):
        # 6 sigma: normalized within tolerance but boundary density above 1e-10
        sched = KernelSchedule.markov(free_params())
        grid = PhaseSpaceGrid.gaussian(1.0, 1.0, 0.0, x_half_width=6.0, p_half_width=6.0, n_x=64, n_p=64)
        with pytest.raises(StabilityError):
            evolve_wigner_pde(grid, sched, t_end=0.1)

    def test_boundary_overflow_aborts(self):
        # free streaming long enough that the sheared density hits the p edge
        # of a deliberately tight box in x
        sched = KernelSchedule.markov(free_params())
        grid = PhaseSpaceGrid.gaussian(1.0, 1.0, 0.0, x_half_width=7.5, p_half_width=7.5, n_x=64, n_p=64)
        with pytest.raises(StabilityError):
            evolve_wigner_pde(grid, sched, t_end=6.0, sample_times=np.linspace(0, 6.0, 25))

    def test_boundary_overflow_between_samples_aborts(self):
        # same box: the ring fraction passes 1e-6 near t = 1.2, yet at t = 1.5
        # the final grid still holds its mass within the 1e-3 leak tolerance,
        # so only a check on every step can see the overflow
        sched = KernelSchedule.markov(free_params())
        grid = PhaseSpaceGrid.gaussian(1.0, 1.0, 0.0, x_half_width=7.5, p_half_width=7.5, n_x=64, n_p=64)
        with pytest.raises(StabilityError, match="boundary-mass overflow"):
            evolve_wigner_pde(grid, sched, t_end=1.5, sample_times=[0.0])

    def test_mixed_term_sets_the_bound_when_it_is_the_smallest(self):
        # strong colored noise on a coarse grid: max|L| = hbar^2 max|Lambda| is
        # ~15, so dx dp / max|L| is below both transport terms
        from qbmarket import NonMarkovParams

        params = ModelParams(M=1.0, gamma=1.0, kT=1.0, hbar=1.0)
        sched = KernelSchedule.non_markov(params, NonMarkovParams(xi=8.0, eta=2.0, omega=1.0))
        grid = PhaseSpaceGrid.gaussian(1.0, 1.0, 0.0, n_x=32, n_p=32)
        t_end = 1.0
        lam_max = max(abs(sched.coefficients(float(t))[1]) for t in np.linspace(0.0, t_end, 513))
        mixed = grid.dx * grid.dp / lam_max
        p_max = grid.p_max
        assert mixed < min(grid.dx * params.M / p_max, grid.dp / (2.0 * params.gamma * p_max))
        bound = stable_time_step(grid, sched, t_end)
        assert bound == pytest.approx(0.5 * mixed, rel=1e-12)
        with pytest.raises(StabilityError, match="violates stability bound"):
            evolve_wigner_pde(grid, sched, t_end=t_end, dt=t_end / math.floor(t_end / (1.25 * bound)))

    def test_normal_diffusion_sets_no_bound(self):
        # a thousand times the diffusion leaves dt at the x-transport term
        grid = PhaseSpaceGrid.gaussian(1.0, 1.0, 0.0, x_half_width=10.0, p_half_width=7.0, n_x=64, n_p=64)
        bounds = [
            stable_time_step(grid, KernelSchedule.markov(ModelParams(M=1.0, gamma=0.25, kT=kT, hbar=1.0)), 1.0)
            for kT in (1.0, 1000.0)
        ]
        assert bounds[0] == bounds[1] == 0.5 * grid.dx / 7.0


class TestDiffusionSubstep:
    def test_modes_diagonalize_the_zero_padded_stencil(self):
        n, dp = 37, 0.3
        q, eig = _p_diffusion_modes(n, dp)
        stencil = (np.eye(n, k=1) - 2.0 * np.eye(n) + np.eye(n, k=-1)) / dp**2
        np.testing.assert_allclose(q @ q, np.eye(n), atol=1e-14)
        np.testing.assert_allclose(q @ np.diag(eig) @ q, stencil, atol=1e-12 / dp**2)

    def test_uniform_samples_land_on_steps(self):
        # 8 sample intervals: the step count is a multiple of 8 and every
        # requested time is recorded as it was asked for
        params = ModelParams(M=1.0, gamma=0.25, kT=1.0, hbar=1.0)
        grid = PhaseSpaceGrid.gaussian(1.0, 0.9, 0.0, x_half_width=14.0, p_half_width=7.0, n_x=64, n_p=64)
        tgrid = np.linspace(0.0, 0.03, 9)
        evo = evolve_wigner_pde(grid, KernelSchedule.markov(params), t_end=0.03, sample_times=tgrid)
        assert evo.n_steps == 8
        assert np.array_equal(evo.times, tgrid)


class TestSplinePrefilter:
    """The cubic B-spline prefilter matrix: the inverse of the mirror-folded
    stencil [1, 4, 1]/6, and scipy's recursive filter to roundoff."""

    @pytest.mark.parametrize("n", [16, 17, 40, 256])
    def test_inverts_the_folded_stencil(self, n):
        diagonal, off_diagonal = _spline_prefilter(n)
        stencil = (np.diag(np.full(n, 4.0)) + np.eye(n, k=1) + np.eye(n, k=-1)) / 6.0
        stencil[0, 1] = stencil[-1, -2] = 2.0 / 6.0
        assert np.max(np.abs(stencil @ (off_diagonal + np.diag(diagonal)) - np.eye(n))) <= 1e-15

    @pytest.mark.parametrize("n", [16, 17, 40, 256])
    def test_matches_spline_filter1d(self, n):
        prefilter = _spline_prefilter(n)
        rng = np.random.default_rng(n)
        for axis in (0, 1):
            for _ in range(3):
                w = rng.standard_normal((n, n))
                expected = spline_filter1d(w, 3, axis=axis, mode="mirror")
                got = _spline_coefficients(prefilter, w, axis, np.empty_like(w))
                assert np.max(np.abs(got - expected)) <= 1e-15 * np.max(np.abs(expected))


class TestTransportSubsteps:
    """The precomputed semi-Lagrangian substeps against the 2-D cubic-spline
    interpolation of the same backtrace, evaluated by scipy."""

    @pytest.mark.parametrize("potential", [None, HarmonicPotential(omega0=1.3)], ids=["free", "harmonic"])
    def test_match_map_coordinates(self, potential):
        params = ModelParams(M=0.7, gamma=0.25, kT=1.0, hbar=1.0)
        grid = PhaseSpaceGrid.gaussian(1.0, 1.0, 0.0, n_x=48, n_p=40)
        h = 0.4  # departure points up to ~14 cells away, many outside the grid
        advect_x, drift_p = _transport_substeps(grid, params, potential, h)

        shape = (grid.n_x, grid.n_p)
        rows = np.broadcast_to(np.arange(grid.n_x, dtype=float)[:, None], shape)
        cols = np.broadcast_to(np.arange(grid.n_p, dtype=float)[None, :], shape)
        row_back = rows - grid.p[None, :] * h / (params.M * grid.dx)
        force = np.zeros(grid.n_x) if potential is None else params.M * potential.omega0**2 * grid.x
        growth = math.exp(2.0 * params.gamma * h)
        p_back = grid.p[None, :] * growth + force[:, None] * math.expm1(2.0 * params.gamma * h) / (2.0 * params.gamma)
        col_back = (p_back - grid.p_min) / grid.dp - 0.5
        cases = [(advect_x, np.stack([row_back, cols]), 1.0, row_back, grid.n_x),
                 (drift_p, np.stack([rows, col_back]), growth, col_back, grid.n_p)]

        rng = np.random.default_rng(11)
        for substep, coords, jacobian, back, n in cases:
            # departure points inside, outside, and within one cell of either edge
            assert (back < 0).any() and (back > n - 1).any()
            assert ((back >= 0) & (back < 1)).any() and ((back > n - 2) & (back <= n - 1)).any()
            for _ in range(3):
                w = rng.standard_normal(shape)
                expected = jacobian * map_coordinates(w, coords, order=3, mode="constant", cval=0.0, prefilter=True)
                assert np.max(np.abs(substep(w) - expected)) <= 1e-13 * np.max(np.abs(w))


class TestClosedFormTransport:
    def test_free_streaming_matches_sheared_gaussian(self):
        sched = KernelSchedule.markov(free_params())
        grid = PhaseSpaceGrid.gaussian(1.0, 1.0, 0.0, x_half_width=16.0, p_half_width=8.0, n_x=256, n_p=256)
        t = 1.5
        evo = evolve_wigner_pde(grid, sched, t_end=t, sample_times=[0.0, t])
        mend = evo.moments[-1]
        assert mend[(2, 0)] == pytest.approx(1.0 + t * t, abs=5e-6)
        assert mend[(1, 1)] == pytest.approx(t, abs=5e-6)
        assert mend[(0, 2)] == pytest.approx(1.0, abs=5e-6)
        # pointwise comparison against the exact sheared density
        xs, ps = evo.final.x, evo.final.p
        xx, pp = np.meshgrid(xs, ps, indexing="ij")
        det = (1 + t * t) - t * t
        quad = (xx**2 - 2 * t * xx * pp + (1 + t * t) * pp**2) / det
        exact = np.exp(-0.5 * quad) / (2 * np.pi * np.sqrt(det))
        l2 = np.sqrt(np.sum((evo.final.w - exact) ** 2) / np.sum(exact**2))
        assert l2 < 1e-4

    def test_harmonic_moments_oscillate_at_twice_the_frequency(self):
        sched = KernelSchedule.markov(free_params())
        pot = HarmonicPotential(omega0=1.0)
        grid = PhaseSpaceGrid.gaussian(1.5, 0.7, 0.0, x_half_width=12.0, p_half_width=12.0, n_x=192, n_p=192)
        tgrid = np.linspace(0.0, np.pi, 9)
        evo = evolve_wigner_pde(grid, sched, potential=pot, t_end=float(np.pi), sample_times=tgrid)
        m20 = evo.moment(2, 0)
        expected = 1.5 * np.cos(evo.times) ** 2 + 0.7 * np.sin(evo.times) ** 2
        np.testing.assert_allclose(m20, expected, atol=5e-3)
        energy = 0.5 * evo.moment(0, 2) + 0.5 * m20
        assert np.max(np.abs(energy - energy[0])) / energy[0] < 1e-4
        assert evo.mass_drift() < 1e-6


class TestAgainstMomentOde:
    def test_markovian_gaussian_tracks_moment_ode(self):
        params = ModelParams(M=1.0, gamma=0.25, kT=1.0, hbar=1.0)
        sched = KernelSchedule.markov(params)
        grid = PhaseSpaceGrid.gaussian(1.0, 1.0, 0.0, x_half_width=12.0, p_half_width=7.0, n_x=128, n_p=128)
        tgrid = np.linspace(0.0, 1.0, 5)
        evo = evolve_wigner_pde(grid, sched, t_end=1.0, sample_times=tgrid)
        traj = evolve_moments(MomentState.gaussian(1.0, 1.0, 0.0), sched, evo.times)
        scale = np.sqrt(traj.moment(2, 0) * traj.moment(0, 2))
        # measured scheme error at this reduced resolution is ~1e-3 (the
        # acceptance suite checks 1e-3 at the 256x256 default, margin ~4000x)
        for key in [(2, 0), (1, 1), (0, 2)]:
            pde = evo.moment(*key)
            ode = traj.moment(*key)
            rel = np.abs(pde - ode) / np.maximum(np.abs(ode), 1e-3 * scale)
            assert np.max(rel) < 5e-3, key
        assert evo.mass_drift() < 1e-6
        assert evo.eps_neg < 1e-8

    def test_relaxation_at_the_transport_step(self):
        # the benchmark's relaxation case: 8 steps of dt = 3.75e-3, five times
        # the step the explicit diffusion bound used to allow. Stated
        # tolerances, against the moment ODE and against the explicit scheme
        # (41 steps) this solver replaced, whose final values are the constants below
        params = ModelParams(M=1.0, gamma=0.25, kT=1.0, hbar=1.0)
        sched = KernelSchedule.markov(params)
        grid = PhaseSpaceGrid.gaussian(1.0, 0.9, 0.0, x_half_width=14.0, p_half_width=7.0, n_x=256, n_p=256)
        tgrid = np.linspace(0.0, 0.03, 9)
        evo = evolve_wigner_pde(grid, sched, t_end=0.03, sample_times=tgrid)
        assert evo.n_steps == 8
        assert evo.mass_drift() < 1e-8
        assert evo.eps_neg < 1e-20
        traj = evolve_moments(MomentState.gaussian(1.0, 0.9, 0.0), sched, evo.times)
        scale = np.sqrt(traj.moment(2, 0) * traj.moment(0, 2))
        for key in [(2, 0), (1, 1), (0, 2)]:
            rel = np.abs(evo.moment(*key) - traj.moment(*key)) / np.maximum(np.abs(traj.moment(*key)), 1e-3 * scale)
            assert np.max(rel) < 1e-5, key

        explicit = {(2, 0): 1.0008068537644652, (1, 1): 0.026842839753691488, (0, 2): 0.9029554380620357,
                    (4, 0): 3.0048429584711207, (0, 4): 2.4460726749275166}
        final = evo.moments[-1]
        assert abs(evo.masses[-1] - 1.000000000010906) < 1e-8
        for key in [(2, 0), (0, 2)]:
            assert final[key] == pytest.approx(explicit[key], rel=1e-6), key
        assert abs(final[(1, 1)] - explicit[(1, 1)]) < 1e-6 * scale[-1]
        for key in [(4, 0), (0, 4)]:
            assert final[key] == pytest.approx(explicit[key], rel=1e-5), key

    def test_non_markovian_cross_term_changes_the_flow(self, nm_9904):
        # a visible cross-diffusion coefficient must steer m11 away from the
        # Markovian track (regression against silently dropping the term);
        # minute-scale rates need long horizons, so rescale eta and omega up
        from qbmarket import NonMarkovParams

        params = ModelParams(M=1.0, gamma=0.25, kT=1.0, hbar=1.0)
        nm = NonMarkovParams(xi=0.6, eta=2.0, omega=1.0)
        markov = KernelSchedule.markov(params)
        colored = KernelSchedule.non_markov(params, nm)
        grid = PhaseSpaceGrid.gaussian(1.0, 1.0, 0.0, x_half_width=12.0, p_half_width=8.0, n_x=128, n_p=128)
        tgrid = np.linspace(0.0, 0.8, 3)
        evo_m = evolve_wigner_pde(grid, markov, t_end=0.8, sample_times=tgrid)
        evo_c = evolve_wigner_pde(grid, colored, t_end=0.8, sample_times=tgrid)
        traj_c = evolve_moments(MomentState.gaussian(1.0, 1.0, 0.0), colored, tgrid)
        gap = abs(evo_c.moment(1, 1)[-1] - evo_m.moment(1, 1)[-1])
        assert gap > 1e-3
        # and the PDE with the colored kernel still matches its own moment ODE
        assert evo_c.moment(1, 1)[-1] == pytest.approx(traj_c.moment(1, 1)[-1], abs=2e-3)
        assert evo_c.moment(0, 2)[-1] == pytest.approx(traj_c.moment(0, 2)[-1], rel=2e-3)
