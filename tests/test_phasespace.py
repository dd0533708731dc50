"""Phase-space grid and PDE solver: quadrature moments, the remaps and the
growth bound of the exact map, closed-form transport checks, and the
cross-check against the moment ODE."""

import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.ndimage import map_coordinates, spline_filter1d

from qbmarket import ModelParams, NonMarkovParams, StabilityError
from qbmarket.dynamics import (
    HarmonicPotential,
    KernelSchedule,
    MomentState,
    PhaseSpaceGrid,
    evolve_moments,
    evolve_wigner_pde,
    grid_moments,
    phasespace,
)
from qbmarket.dynamics.phasespace import (
    _remap_factors,
    _remaps,
    _spline_coefficients,
    _spline_prefilter,
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

    @pytest.mark.parametrize("sx2, sp2", [(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0)], ids=["both", "x", "p"])
    def test_negative_variance_is_not_positive_definite(self, sx2, sp2):
        # the default half-widths take square roots of the variances
        with pytest.raises(ValueError, match="second-moment matrix must be positive definite"):
            PhaseSpaceGrid.gaussian(sx2, sp2, n_x=16, n_p=16)

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


def colored_schedule() -> KernelSchedule:
    # strong colored noise: its cross diffusion makes Sigma indefinite over short intervals
    return KernelSchedule.non_markov(ModelParams(M=1.0, gamma=1.0, kT=1.0, hbar=1.0), NonMarkovParams(8.0, 2.0, 1.0))


class TestStability:
    def test_time_step_bound_enforced(self):
        # the one bound left on an interval: on this 128^2 grid the smoothing
        # over the last eighth of [0, 1] would grow the highest grid modes 17.7-fold
        grid = PhaseSpaceGrid.gaussian(1.0, 1.0, 0.0, x_half_width=16.0, p_half_width=32.0, n_x=128, n_p=128)
        with pytest.raises(StabilityError, match=r"over \[0.875, 1\] grows the highest grid modes by 17.7, above "
                                                 r"the growth bound 10"):
            evolve_wigner_pde(grid, colored_schedule(), np.linspace(0.0, 1.0, 9))

    @pytest.mark.parametrize("times", [[0.0], [0.5, 1.0], [0.0, 0.5, 0.5], [[0.0, 1.0]]],
                             ids=["one", "late-start", "repeated", "2-d"])
    def test_time_grid_is_checked(self, times):
        grid = PhaseSpaceGrid.gaussian(1.0, 1.0, 0.0, n_x=16, n_p=16)
        with pytest.raises(ValueError, match="the time grid must"):
            evolve_wigner_pde(grid, KernelSchedule.markov(free_params()), times)

    def test_narrow_grid_rejected(self):
        # 6 sigma: normalized within tolerance but boundary density above 1e-10
        sched = KernelSchedule.markov(free_params())
        grid = PhaseSpaceGrid.gaussian(1.0, 1.0, 0.0, x_half_width=6.0, p_half_width=6.0, n_x=64, n_p=64)
        with pytest.raises(StabilityError):
            evolve_wigner_pde(grid, sched, [0.0, 0.1])

    def test_boundary_overflow_aborts(self):
        # free streaming long enough that the sheared density hits the p edge
        # of a deliberately tight box in x
        sched = KernelSchedule.markov(free_params())
        grid = PhaseSpaceGrid.gaussian(1.0, 1.0, 0.0, x_half_width=7.5, p_half_width=7.5, n_x=64, n_p=64)
        with pytest.raises(StabilityError):
            evolve_wigner_pde(grid, sched, np.linspace(0, 6.0, 25))

    def test_boundary_overflow_between_samples_aborts(self):
        # same box: the ring fraction passes 1e-6 near t = 1.2, between the two
        # times, and is 2.4e-5 at t = 1.5, where the grid still holds its mass
        # within the 1e-3 leak tolerance; the ring is checked at every time
        sched = KernelSchedule.markov(free_params())
        grid = PhaseSpaceGrid.gaussian(1.0, 1.0, 0.0, x_half_width=7.5, p_half_width=7.5, n_x=64, n_p=64)
        with pytest.raises(StabilityError, match="boundary-mass overflow at t = 1.5"):
            evolve_wigner_pde(grid, sched, [0.0, 1.5])

    def test_normal_diffusion_sets_no_bound(self, monkeypatch):
        # a Markov kernel's Sigma is positive semi-definite, so its smoothing
        # grows no grid mode at all, whatever the diffusion: not even a bound
        # of 1 refuses a run, while the colored kernel's indefinite Sigma is
        # refused by it
        monkeypatch.setattr(phasespace, "GROWTH_LIMIT", 1.0)
        grid = PhaseSpaceGrid.gaussian(1.0, 1.0, 0.0, x_half_width=10.0, p_half_width=7.0, n_x=64, n_p=64)
        for kT, t_end in ((1.0, 1.0), (1000.0, 2e-4)):
            sched = KernelSchedule.markov(ModelParams(M=1.0, gamma=0.25, kT=kT, hbar=1.0))
            tgrid = np.linspace(0.0, t_end, 5)
            m02 = evolve_wigner_pde(grid, sched, tgrid).moment(0, 2)
            np.testing.assert_allclose(m02, evolve_moments(MomentState.gaussian(1.0, 1.0), sched, tgrid).moment(0, 2),
                                       rtol=1e-3)
        with pytest.raises(StabilityError, match="growth bound 1:"):
            evolve_wigner_pde(PhaseSpaceGrid.gaussian(1.0, 1.0, 0.0, n_x=32, n_p=32), colored_schedule(),
                              np.linspace(0.0, 1.0, 9))


class TestDiffusionSubstep:
    def test_uniform_samples_land_on_steps(self):
        # one map per interval, ending on each requested time as it was asked for
        params = ModelParams(M=1.0, gamma=0.25, kT=1.0, hbar=1.0)
        grid = PhaseSpaceGrid.gaussian(1.0, 0.9, 0.0, x_half_width=14.0, p_half_width=7.0, n_x=64, n_p=64)
        tgrid = np.linspace(0.0, 0.03, 9)
        evo = evolve_wigner_pde(grid, KernelSchedule.markov(params), tgrid)
        assert evo.n_steps == 8
        assert evo.dt == np.diff(tgrid).max()
        assert np.array_equal(evo.times, tgrid)
        assert evo.negative_fractions.shape == tgrid.shape and evo.eps_neg == evo.negative_fractions.max()


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
    """The remaps that move the density by the flow's inverse: their product
    is Phi(h)^-1, each one is the transpose of the 2-D cubic-spline
    interpolation at its own arrival points, evaluated by scipy, and so keeps
    the cell sum and the moments through order three."""

    @pytest.mark.parametrize("potential, h, count", [
        (None, 0.4, 2),
        # the x shear moves the lines at the p edges by about 59 cells, more than the 48 of the grid
        (None, 4.0, 2),
        (HarmonicPotential(omega0=1.3), 0.4, 4),
        (HarmonicPotential(omega0=1.3), 1.2, 4),  # about a quarter turn: no pivot is left for two remaps
    ], ids=["free", "long-shear", "harmonic", "quarter-turn"])
    def test_match_map_coordinates(self, potential, h, count):
        params = ModelParams(M=0.7, gamma=0.25, kT=1.0, hbar=1.0)
        grid = PhaseSpaceGrid.gaussian(1.0, 1.0, 0.0, n_x=48, n_p=40)
        omega2 = potential.omega0**2 if potential else 0.0
        drift = np.array([[0.0, 1.0 / params.M], [-params.M * omega2, -2.0 * params.gamma]])
        cells = np.diag([grid.dx, grid.dp])
        inv = np.linalg.inv(cells) @ expm(-drift * h) @ cells  # Phi(h)^-1 in cell units
        factors = _remap_factors(inv)
        assert len(factors) == count
        product = np.eye(2)
        for axis, u, v in factors:
            product = product @ (np.array([[u, v], [0.0, 1.0]]) if axis == 0 else np.array([[1.0, 0.0], [u, v]]))
        np.testing.assert_allclose(product, inv, rtol=0, atol=1e-13 * np.abs(inv).max())

        shape = (grid.n_x, grid.n_p)
        x, p = np.meshgrid(grid.x / grid.dx, grid.p / grid.dp, indexing="ij")
        rows, cols = np.indices(shape, dtype=float)
        remaps = _remaps(grid, inv, {n: _spline_prefilter(n) for n in set(shape)})
        rng = np.random.default_rng(11)
        edges = []
        for remap, (axis, u, v) in zip(remaps, factors):
            # arrival point of each cell: the departure coordinate u x + v p solved for the axis
            ahead = ((x - v * p) / u if axis == 0 else (p - u * x) / v) - (x if axis == 0 else p)
            coords = np.stack([rows + ahead, cols] if axis == 0 else [rows, cols + ahead])
            arrive, n = coords[axis], shape[axis]
            edges += [arrive < 0, arrive > n - 1, (arrive >= 0) & (arrive < 1), (arrive > n - 2) & (arrive <= n - 1)]
            if potential is None and h > 1.0 and axis == 0:
                # many runs of lines with one floor of the offset, and whole lines past either edge
                assert np.unique(np.floor(ahead)).size >= 10
                assert np.any(np.all(arrive < 0, axis=0)) and np.any(np.all(arrive > n - 1, axis=0))
            # cells whose departure point is off the grid take nothing
            depart = u * x + v * p - (x if axis == 0 else p)[0, 0]
            inflow = (depart >= 0) & (depart <= n - 1)
            for _ in range(3):
                # the remap is the transpose of interpolating at the arrival points
                w, f = rng.standard_normal((2,) + shape)
                interpolated = map_coordinates(f * inflow, coords, order=3, mode="constant", cval=0.0, prefilter=True)
                assert np.sum(remap(w) * f) == pytest.approx(np.sum(w * interpolated), rel=1e-13, abs=1e-13 * w.size)
        # some remap has arrival points outside, and within one cell of, either edge
        assert all(np.any(edges[k::4]) for k in range(4))

    SCALES = [0.8, 1.0, 1.1051709180756477, math.exp(phasespace.MAX_LOG_COMPRESSION)]

    @pytest.mark.parametrize("inv", [np.diag([1.0, u]) for u in SCALES] + [np.array([[1.0, 0.3], [0.0, 1.0]])],
                             ids=[str(u) for u in SCALES] + ["shear"])
    def test_keep_mass_and_moments_through_order_three(self, inv):
        # a density four cells wide in p, stretched (u < 1) or compressed (u > 1) about the center,
        # or sheared along x by 0.3 cells per cell of p: a cell at z arrives at inv^-1 z, so at p / u
        # or at x - 0.3 p
        grid = PhaseSpaceGrid.gaussian(1.0, 0.04, 0.0, x_half_width=12.0, p_half_width=2.0, n_x=48, n_p=80)
        moved = grid.w
        for remap in _remaps(grid, inv, {n: _spline_prefilter(n) for n in (48, 80)}):
            moved = remap(moved)
        z = np.meshgrid(grid.x / grid.dx, grid.p / grid.dp, indexing="ij")
        arrival = np.tensordot(np.linalg.inv(inv), z, axes=1)
        for axis in range(2):
            for k in range(4):
                before = np.sum(grid.w * arrival[axis] ** k)
                assert np.sum(moved * z[axis] ** k) == pytest.approx(before, rel=1e-12, abs=1e-12 * np.sum(grid.w))


class TestClosedFormTransport:
    def test_free_streaming_matches_sheared_gaussian(self):
        sched = KernelSchedule.markov(free_params())
        grid = PhaseSpaceGrid.gaussian(1.0, 1.0, 0.0, x_half_width=16.0, p_half_width=8.0, n_x=256, n_p=256)
        t = 1.5
        evo = evolve_wigner_pde(grid, sched, [0.0, t])
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
        evo = evolve_wigner_pde(grid, sched, tgrid, potential=pot)
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
        evo = evolve_wigner_pde(grid, sched, tgrid)
        traj = evolve_moments(MomentState.gaussian(1.0, 1.0, 0.0), sched, evo.times)
        scale = np.sqrt(traj.moment(2, 0) * traj.moment(0, 2))
        # measured error at this reduced resolution is 7.5e-10 (the
        # acceptance suite checks 1e-3 at the 256x256 default)
        for key in [(2, 0), (1, 1), (0, 2)]:
            pde = evo.moment(*key)
            ode = traj.moment(*key)
            rel = np.abs(pde - ode) / np.maximum(np.abs(ode), 1e-3 * scale)
            assert np.max(rel) < 5e-3, key
        assert evo.mass_drift() < 1e-6
        assert evo.eps_neg < 1e-8

    def test_relaxation_at_the_transport_step(self):
        # the benchmark's relaxation case: 8 intervals of 3.75e-3, each one map.
        # Stated tolerances against the moment ODE: 1e-6 for every moment of
        # order 2 and 4 (relative, floored at 1e-3 of the spread scale), 1e-8
        # for the mass; measured 2.3e-11, 3.6e-7 and 2.8e-13
        params = ModelParams(M=1.0, gamma=0.25, kT=1.0, hbar=1.0)
        sched = KernelSchedule.markov(params)
        grid = PhaseSpaceGrid.gaussian(1.0, 0.9, 0.0, x_half_width=14.0, p_half_width=7.0, n_x=256, n_p=256)
        tgrid = np.linspace(0.0, 0.03, 9)
        evo = evolve_wigner_pde(grid, sched, tgrid)
        assert evo.n_steps == 8
        assert evo.mass_drift() < 1e-8
        assert evo.eps_neg < 1e-14
        traj = evolve_moments(MomentState.gaussian(1.0, 0.9, 0.0), sched, evo.times)
        scale = np.sqrt(traj.moment(2, 0) * traj.moment(0, 2))
        for key in [(2, 0), (1, 1), (0, 2), (4, 0), (0, 4)]:
            floor = 1e-3 * scale ** (sum(key) // 2)
            rel = np.abs(evo.moment(*key) - traj.moment(*key)) / np.maximum(np.abs(traj.moment(*key)), floor)
            assert np.max(rel) < 1e-6, key

    @pytest.mark.parametrize("kT", [1.0, 0.25])
    def test_strong_damping_tracks_moment_ode(self, kT):
        # gamma h = 1: each interval compresses p by e^2, so it is split into 4
        # maps of e^0.5 each. A single map that samples the compressed spline
        # point by point leaked 6e-3 of the mass here and the stepper drifted
        # 2.3e-5. Stated tolerances against the moment ODE: 1e-6 for the second
        # moments (relative, floored at 1e-3 of the spread scale), 1e-3 for the
        # fourth, 1e-8 for the mass; measured at most 6.9e-10, 8e-4 and 2.1e-11
        params = ModelParams(M=1.0, gamma=2.0, kT=kT, hbar=1.0)
        sched = KernelSchedule.markov(params)
        grid = PhaseSpaceGrid.gaussian(1.0, 1.0, 0.0, x_half_width=8.0, p_half_width=8.0, n_x=64, n_p=64)
        tgrid = np.linspace(0.0, 1.0, 3)
        evo = evolve_wigner_pde(grid, sched, tgrid)
        assert evo.n_steps == 8 and evo.dt == pytest.approx(0.125)
        assert evo.mass_drift() < 1e-8
        traj = evolve_moments(MomentState.gaussian(1.0, 1.0, 0.0), sched, tgrid)
        scale = np.sqrt(traj.moment(2, 0) * traj.moment(0, 2))
        for key, tol in [((2, 0), 1e-6), ((1, 1), 1e-6), ((0, 2), 1e-6), ((4, 0), 1e-3), ((0, 4), 1e-3)]:
            floor = 1e-3 * scale ** (sum(key) // 2)
            rel = np.abs(evo.moment(*key) - traj.moment(*key)) / np.maximum(np.abs(traj.moment(*key)), floor)
            assert np.max(rel) < tol, key

    def test_indefinite_sigma_tracks_moment_ode(self):
        # (xi, eta, omega) = (8, 2, 1) makes Sigma indefinite over these
        # intervals, and the smoothing grows the highest modes by up to 1.09;
        # the stepper ran this kernel only below its mixed-term bound (and was
        # off by 1.2e-3 in m11 and 1.3e-2 in m04 here). Stated tolerance: 1e-3
        # relative for the moments of order 2 and 4 and for the mass, the
        # criterion-9 tolerance of the finer Markov run; measured at most
        # 6.1e-13 (order 2), 2.2e-5 (order 4) and 1.3e-14
        grid = PhaseSpaceGrid.gaussian(1.0, 1.0, 0.0, x_half_width=8.0, p_half_width=12.0, n_x=64, n_p=64)
        tgrid = np.linspace(0.0, 0.1, 9)
        evo = evolve_wigner_pde(grid, colored_schedule(), tgrid)
        traj = evolve_moments(MomentState.gaussian(1.0, 1.0, 0.0), colored_schedule(), tgrid)
        scale = np.sqrt(traj.moment(2, 0) * traj.moment(0, 2))
        for key in [(2, 0), (1, 1), (0, 2), (4, 0), (0, 4)]:
            floor = 1e-3 * scale ** (sum(key) // 2)
            rel = np.abs(evo.moment(*key) - traj.moment(*key)) / np.maximum(np.abs(traj.moment(*key)), floor)
            assert np.max(rel) < 1e-3, key
        assert evo.mass_drift() < 1e-3
        assert evo.eps_neg < 1e-8

    def test_non_markovian_cross_term_changes_the_flow(self, nm_9904):
        # a visible cross-diffusion coefficient must steer m11 away from the
        # Markovian track (regression against silently dropping the term);
        # minute-scale rates need long horizons, so rescale eta and omega up
        params = ModelParams(M=1.0, gamma=0.25, kT=1.0, hbar=1.0)
        nm = NonMarkovParams(xi=0.6, eta=2.0, omega=1.0)
        markov = KernelSchedule.markov(params)
        colored = KernelSchedule.non_markov(params, nm)
        grid = PhaseSpaceGrid.gaussian(1.0, 1.0, 0.0, x_half_width=12.0, p_half_width=8.0, n_x=128, n_p=128)
        tgrid = np.linspace(0.0, 0.8, 3)
        evo_m = evolve_wigner_pde(grid, markov, tgrid)
        evo_c = evolve_wigner_pde(grid, colored, tgrid)
        traj_c = evolve_moments(MomentState.gaussian(1.0, 1.0, 0.0), colored, tgrid)
        gap = abs(evo_c.moment(1, 1)[-1] - evo_m.moment(1, 1)[-1])
        assert gap > 1e-3
        # and the PDE with the colored kernel still matches its own moment ODE
        assert evo_c.moment(1, 1)[-1] == pytest.approx(traj_c.moment(1, 1)[-1], abs=2e-3)
        assert evo_c.moment(0, 2)[-1] == pytest.approx(traj_c.moment(0, 2)[-1], rel=2e-3)
