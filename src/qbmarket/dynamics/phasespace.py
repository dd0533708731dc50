"""Phase-space density evolution on a rectangular (x, p) grid.

Solves dW/dt = -(p/M) dW/dx + 2 gamma d(p W)/dp + hbar^2 Delta(t) d2W/dp2
- hbar^2 Lambda(t) d2W/dxdp [+ harmonic force term], i.e. the Kramers-type
transport generated by the kernel schedule, with all Kramers-Moyal terms of
order three and higher identically zero.

Scheme: Strang splitting. The x-transport and the p drift/damping substeps are
semi-Lagrangian (cubic-spline backtrace, exact characteristics, analytic
Jacobian for the damping compression); the normal and mixed diffusion terms
are explicit central differences. The mixed term is not positivity preserving,
so small negative densities are expected; they are tracked and reported, never
clipped, because clipping would corrupt the moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.ndimage import map_coordinates

from ..errors import StabilityError
from .moments import MomentState, KernelSchedule

__all__ = [
    "PhaseSpaceGrid",
    "HarmonicPotential",
    "WignerEvolution",
    "grid_moments",
    "evolve_wigner_pde",
    "stable_time_step",
]

# Declared normalization tolerance for a valid grid.
NORMALIZATION_TOL = 1e-6
# Negative densities down to this fraction of the peak are tolerated (tracked,
# not clipped); they come from spline overshoot and the mixed-derivative term.
NEGATIVE_TOL = 1e-8
# Initial boundary-mass precondition and the runtime abort level.
BOUNDARY_INIT_FRACTION = 1e-10
BOUNDARY_ABORT_FRACTION = 1e-6


@dataclass(frozen=True)
class HarmonicPotential:
    """Harmonic well 0.5 M omega0^2 x^2 (force enters the p characteristics)."""

    omega0: float

    def __post_init__(self) -> None:
        if not self.omega0 > 0:
            raise ValueError("omega0 must be positive")


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Discretized phase-space density on cell centers.

    w[i, j] is the probability density (per unit phase-space area) at
    x_i = x_min + (i + 1/2) dx, p_j = p_min + (j + 1/2) dp. The cell sum times
    the cell area must be 1 within ``norm_tol``.
    """

    x_min: float
    x_max: float
    n_x: int
    p_min: float
    p_max: float
    n_p: int
    w: np.ndarray
    norm_tol: float = NORMALIZATION_TOL

    def __post_init__(self) -> None:
        if self.n_x < 16 or self.n_p < 16:
            raise ValueError("grid must have at least 16 cells per axis")
        if not (self.x_max > self.x_min and self.p_max > self.p_min):
            raise ValueError("grid bounds must be ordered")
        w = np.asarray(self.w, dtype=float)
        if w.shape != (self.n_x, self.n_p):
            raise ValueError(f"w must have shape ({self.n_x}, {self.n_p})")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "w", w)
        mass = self.mass()
        if abs(mass - 1.0) > self.norm_tol:
            raise ValueError(f"grid not normalized: cell sum * area = {mass:.9g}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_x

    @property
    def dp(self) -> float:
        return (self.p_max - self.p_min) / self.n_p

    @property
    def cell_area(self) -> float:
        return self.dx * self.dp

    @property
    def x(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n_x) + 0.5) * self.dx

    @property
    def p(self) -> np.ndarray:
        return self.p_min + (np.arange(self.n_p) + 0.5) * self.dp

    def mass(self) -> float:
        return float(self.w.sum() * self.cell_area)

    def negative_fraction(self) -> float:
        """Most negative density as a fraction of the peak (0 if none)."""
        peak = float(self.w.max())
        return float(max(0.0, -self.w.min()) / peak) if peak > 0 else 0.0

    def boundary_fraction(self) -> float:
        """Mass fraction carried by the outermost cell ring."""
        w = self.w
        ring = w[0, :].sum() + w[-1, :].sum() + w[1:-1, 0].sum() + w[1:-1, -1].sum()
        total = w.sum()
        return float(ring / total) if total > 0 else 0.0

    @classmethod
    def gaussian(
        cls,
        sx2: float,
        sp2: float,
        m11: float = 0.0,
        x_half_width: float | None = None,
        p_half_width: float | None = None,
        n_x: int = 256,
        n_p: int = 256,
    ) -> "PhaseSpaceGrid":
        """Centered moment-matched Gaussian density. Default half-widths are
        8 standard deviations, wide enough for the boundary precondition."""
        if x_half_width is None:
            x_half_width = 8.0 * math.sqrt(sx2)
        if p_half_width is None:
            p_half_width = 8.0 * math.sqrt(sp2)
        det = sx2 * sp2 - m11**2
        if not det > 0:
            raise ValueError("second-moment matrix must be positive definite")
        xs = -x_half_width + (np.arange(n_x) + 0.5) * (2.0 * x_half_width / n_x)
        ps = -p_half_width + (np.arange(n_p) + 0.5) * (2.0 * p_half_width / n_p)
        xx, pp = np.meshgrid(xs, ps, indexing="ij")
        quad = (sp2 * xx**2 - 2.0 * m11 * xx * pp + sx2 * pp**2) / det
        w = np.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(det))
        return cls(-x_half_width, x_half_width, n_x, -p_half_width, p_half_width, n_p, w)


def grid_moments(grid: PhaseSpaceGrid) -> MomentState:
    """Midpoint-rule moments of the grid through total order four.

    Moments are taken relative to the actual discrete mass, so they describe
    the normalized measure; mass itself is reported by :meth:`PhaseSpaceGrid.mass`.
    """
    vx = np.vstack([grid.x**j for j in range(5)])
    vp = np.vstack([grid.p**k for k in range(5)])
    table = vx @ grid.w @ vp.T * grid.cell_area
    table = table / table[0, 0]
    m = {(j, k): float(table[j, k]) for j in range(5) for k in range(5) if j + k <= 4}
    m[(0, 0)] = 1.0
    return MomentState(m)


@dataclass(frozen=True)
class WignerEvolution:
    """Sampled diagnostics of a phase-space run.

    eps_neg is the largest negative density fraction seen at sample times;
    values up to NEGATIVE_TOL are the expected overshoot scale.
    """

    times: np.ndarray
    moments: tuple[MomentState, ...]
    masses: np.ndarray
    eps_neg: float
    final: PhaseSpaceGrid
    dt: float
    n_steps: int

    def moment(self, j: int, k: int) -> np.ndarray:
        return np.array([s[(j, k)] for s in self.moments])

    def mass_drift(self) -> float:
        return float(np.max(np.abs(self.masses - self.masses[0])))


def stable_time_step(
    grid: PhaseSpaceGrid, schedule: KernelSchedule, t_end: float
) -> float:
    """Stability bound dt <= min(dx M / p_max, dp / (2 gamma p_max),
    dp^2 / (4 hbar^2 Delta_max)) / 2."""
    params = schedule.params
    p_max = max(abs(grid.p_min), abs(grid.p_max))
    bounds = [grid.dx * params.M / p_max]
    if params.gamma > 0:
        bounds.append(grid.dp / (2.0 * params.gamma * p_max))
    ts = np.linspace(0.0, t_end, 513)
    delta_max = max(schedule.delta(float(t)) for t in ts)
    diff_max = params.hbar**2 * delta_max
    if diff_max > 0:
        bounds.append(grid.dp**2 / (4.0 * diff_max))
    return 0.5 * min(bounds)


def _second_p(w: np.ndarray, dp: float) -> np.ndarray:
    padded = np.pad(w, ((0, 0), (1, 1)))
    return (padded[:, 2:] - 2.0 * w + padded[:, :-2]) / dp**2


def _mixed_xp(w: np.ndarray, dx: float, dp: float) -> np.ndarray:
    padded = np.pad(w, ((1, 1), (1, 1)))
    return (padded[2:, 2:] - padded[2:, :-2] - padded[:-2, 2:] + padded[:-2, :-2]) / (4.0 * dx * dp)


def evolve_wigner_pde(
    grid: PhaseSpaceGrid,
    schedule: KernelSchedule,
    potential: HarmonicPotential | None = None,
    t_end: float = 1.0,
    dt: float | None = None,
    sample_times: Sequence[float] | None = None,
) -> WignerEvolution:
    """Advance the phase-space density to t_end and record diagnostics.

    dt defaults to the stability bound; a user-supplied dt above the bound is
    rejected. Aborts with a StabilityError if the density blows up, leaks
    mass, or substantial mass reaches the grid boundary.
    """
    if not t_end > 0:
        raise ValueError("t_end must be positive")
    params = schedule.params
    if grid.boundary_fraction() > BOUNDARY_INIT_FRACTION:
        raise StabilityError(
            f"initial boundary density fraction {grid.boundary_fraction():.3g} exceeds "
            f"{BOUNDARY_INIT_FRACTION:g}; widen the grid"
        )

    dt_bound = stable_time_step(grid, schedule, t_end)
    if dt is None:
        n_steps = max(1, int(math.ceil(t_end / dt_bound)))
        dt = t_end / n_steps
    else:
        if dt > dt_bound * (1.0 + 1e-12):
            raise StabilityError(f"dt = {dt:.3g} violates stability bound {dt_bound:.3g}")
        n_steps = max(1, int(round(t_end / dt)))
        if abs(n_steps * dt - t_end) > 1e-9 * t_end:
            raise ValueError("dt must divide t_end evenly")

    if sample_times is None:
        sample_times = np.linspace(0.0, t_end, 9)
    sample_idx = np.unique(np.clip(np.round(np.asarray(sample_times, dtype=float) / dt).astype(int), 0, n_steps))

    x = grid.x
    p = grid.p
    dx, dp = grid.dx, grid.dp
    half = 0.5 * dt

    # x-advection backtrace (half step): row i, column j samples x_i - p_j dt/(2M)
    col_idx = np.broadcast_to(np.arange(grid.n_p, dtype=float), (grid.n_x, grid.n_p))
    shift_x = p * half / (params.M * dx)
    row_back = np.arange(grid.n_x, dtype=float)[:, None] - shift_x[None, :]
    coords_x = np.stack([row_back, np.broadcast_to(col_idx, row_back.shape)])

    # p drift/damping backtrace (half step) along characteristics, in the
    # cancellation-free form p*e^{2g s} + V' * expm1(2g s)/(2g)
    force = np.zeros_like(x) if potential is None else params.M * potential.omega0**2 * x
    growth = math.exp(2.0 * params.gamma * half)
    kick_factor = math.expm1(2.0 * params.gamma * half) / (2.0 * params.gamma) if params.gamma > 0 else half
    p_back = p[None, :] * growth + force[:, None] * kick_factor
    jac = growth
    col_back = (p_back - grid.p_min) / dp - 0.5
    row_idx = np.broadcast_to(np.arange(grid.n_x, dtype=float)[:, None], col_back.shape)
    coords_p = np.stack([np.ascontiguousarray(row_idx), col_back])

    hb2 = params.hbar**2

    def advect_x(w: np.ndarray) -> np.ndarray:
        return map_coordinates(w, coords_x, order=3, mode="constant", cval=0.0, prefilter=True)

    def drift_p(w: np.ndarray) -> np.ndarray:
        return jac * map_coordinates(w, coords_p, order=3, mode="constant", cval=0.0, prefilter=True)

    w = grid.w.copy()
    times: list[float] = []
    masses: list[float] = []
    moments: list[MomentState] = []
    eps_neg = 0.0

    def snapshot(step: int, w_now: np.ndarray) -> PhaseSpaceGrid:
        if not np.isfinite(w_now).all():
            raise StabilityError(f"density blew up at t = {step * dt:.6g}")
        try:
            return PhaseSpaceGrid(
                grid.x_min, grid.x_max, grid.n_x, grid.p_min, grid.p_max, grid.n_p, w_now, norm_tol=1e-3
            )
        except ValueError as exc:
            raise StabilityError(f"mass leak at t = {step * dt:.6g}: {exc}") from exc

    def record(step: int, w_now: np.ndarray) -> None:
        nonlocal eps_neg
        snap = snapshot(step, w_now)
        times.append(step * dt)
        masses.append(snap.mass())
        moments.append(grid_moments(snap))
        eps_neg = max(eps_neg, snap.negative_fraction())
        if snap.boundary_fraction() > BOUNDARY_ABORT_FRACTION:
            raise StabilityError(
                f"boundary-mass overflow at t = {step * dt:.6g}: fraction "
                f"{snap.boundary_fraction():.3g} exceeds {BOUNDARY_ABORT_FRACTION:g}"
            )

    rec_pos = 0
    for step in range(n_steps + 1):
        while rec_pos < len(sample_idx) and sample_idx[rec_pos] == step:
            record(step, w)
            rec_pos += 1
        if step == n_steps:
            break
        t_mid = (step + 0.5) * dt
        delta, lam = schedule.coefficients(t_mid)

        def diffusion(field: np.ndarray) -> np.ndarray:
            flux = hb2 * delta * _second_p(field, dp)
            if lam != 0.0:
                flux = flux - hb2 * lam * _mixed_xp(field, dx, dp)
            return flux

        w = advect_x(w)
        w = drift_p(w)
        # midpoint step keeps the diffusion substep second order in dt
        w_mid = w + 0.5 * dt * diffusion(w)
        w = w + dt * diffusion(w_mid)
        w = drift_p(w)
        w = advect_x(w)

    final = snapshot(n_steps, w)
    t_arr = np.asarray(times)
    t_arr.setflags(write=False)
    return WignerEvolution(
        times=t_arr,
        moments=tuple(moments),
        masses=np.asarray(masses),
        eps_neg=eps_neg,
        final=final,
        dt=dt,
        n_steps=n_steps,
    )
