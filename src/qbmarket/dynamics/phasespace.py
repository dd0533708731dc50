"""Phase-space density evolution on a rectangular (x, p) grid.

Solves dW/dt = -(p/M) dW/dx + 2 gamma d(p W)/dp + D(t) d2W/dp2
- L(t) d2W/dxdp [+ harmonic force term], i.e. the Kramers-type transport
generated by the kernel schedule, whose diffusion pair D(t), L(t) is
hbar^2 Delta(t), hbar^2 Lambda(t); all Kramers-Moyal terms of order three and
higher are identically zero.

Scheme: Strang splitting. The x-transport and the p drift/damping substeps are
semi-Lagrangian (exact characteristics, analytic Jacobian for the damping
compression). Each is a shift along one axis whose departure points do not
change from step to step, so its cubic B-spline interpolation is built once
per run: the 4-tap weights and the tap indices of every cell. A substep then
prefilters the density along that axis and applies the 4-tap operator;
departure points outside the grid give 0. The prefilter (mirror-extended
spline coefficients) is a fixed linear map along the axis: a dense matrix in
closed form, built once per distinct axis length per run and applied as one
matrix product plus its diagonal.

The normal diffusion term is integrated exactly in time for its zero-padded
3-point stencil along p: the orthonormal DST-I matrix diagonalizes that
stencil, so a substep is one transform, a per-mode decay factor and the
inverse transform (unconditionally stable, and high-p modes decay rather than
ring). The mixed term is an explicit central difference with its own time-step
bound. It is not positivity preserving, so small negative densities are
expected; they are tracked and reported, never clipped, because clipping would
corrupt the moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..errors import StabilityError
from ..model import ModelParams
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


def _boundary_fraction(w: np.ndarray, total: float) -> float:
    """Share of ``total`` (the sum of w) carried by the outermost cell ring."""
    ring = w[0, :].sum() + w[-1, :].sum() + w[1:-1, 0].sum() + w[1:-1, -1].sum()
    return float(ring / total) if total > 0 else 0.0


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
        if not np.all(np.isfinite(w)):
            raise ValueError("grid density must be finite")
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
        return _boundary_fraction(self.w, self.w.sum())

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


def stable_time_step(grid: PhaseSpaceGrid, schedule: KernelSchedule, t_end: float) -> float:
    """Largest step the scheme accepts: half the smallest of

    - dx M / p_max: a step carries no density more than one cell along x;
    - dp / (2 gamma p_max): the same along p for the damping drift;
    - dx dp / max|L(t)| over 513 times in [0, t_end], for the explicit mixed
      term. Its central difference D_x D_p factors into two antisymmetric
      difference matrices with imaginary eigenvalues of modulus at most 1/dx
      and 1/dp, so the substep operator -L D_x D_p has real eigenvalues mu
      with |mu| <= |L| / (dx dp). An explicit step multiplies a mode by
      1 + mu dt, which stays in [0, 2] (no sign flip, no growth beyond the
      factor e^{mu dt} >= 1 + mu dt of the exact flow) when |mu| dt <= 1.

    The normal diffusion term is integrated exactly and sets no bound.
    """
    params = schedule.params
    p_max = max(abs(grid.p_min), abs(grid.p_max))
    bounds = [grid.dx * params.M / p_max, grid.dp / (2.0 * params.gamma * p_max)]
    mixed_max = np.max(np.abs(schedule.coefficients(np.linspace(0.0, t_end, 513))[1]))
    if mixed_max > 0:
        bounds.append(grid.dx * grid.dp / mixed_max)
    return 0.5 * min(bounds)


def _p_diffusion_modes(n_p: int, dp: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal DST-I matrix Q (symmetric, its own inverse) and the
    eigenvalues of the zero-padded stencil (w[j+1] - 2 w[j] + w[j-1]) / dp^2:
    that stencil equals Q diag(eig) Q."""
    k = np.arange(1, n_p + 1)
    q = math.sqrt(2.0 / (n_p + 1)) * np.sin(np.outer(k, k) * (math.pi / (n_p + 1)))
    eig = -4.0 * np.sin(k * (0.5 * math.pi / (n_p + 1))) ** 2 / dp**2
    return q, eig


def _mixed_xp(w: np.ndarray, dx: float, dp: float) -> np.ndarray:
    padded = np.pad(w, ((1, 1), (1, 1)))
    return (padded[2:, 2:] - padded[2:, :-2] - padded[:-2, 2:] + padded[:-2, :-2]) / (4.0 * dx * dp)


def _spline_prefilter(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n x n matrix P that maps samples along an axis to their cubic
    B-spline coefficients, mirror-extended past either edge, returned as its
    diagonal and its off-diagonal part (see ``_spline_coefficients``).

    P inverts the stencil [1, 4, 1]/6 folded at the edges (first and last rows
    [4, 2]/6). Its infinite-line inverse is sqrt(3) z^|i-k| with the pole
    z = sqrt(3) - 2 (Unser, Aldroubi & Eden, IEEE Trans. Signal Process. 41
    (1993) 821), so P[i, j] sums that over every mirror image k of j. The
    images are j + 2m(n-1) and -j + 2m(n-1); summed over m, each family is
    phi(i - j) or phi(i + j), with the geometric series
    phi(u) = sqrt(3) (z^u + z^(2(n-1)-u)) / (1 - z^(2(n-1))) for u in [0, 2(n-1)].
    For the edge columns j = 0 and n-1 the two families coincide.
    """
    z = math.sqrt(3.0) - 2.0
    period = 2 * (n - 1)
    u = np.arange(period + 1)
    phi = math.sqrt(3.0) * (z**u + z ** (period - u)) / (1.0 - z**period)
    windows = np.lib.stride_tricks.sliding_window_view
    # phi(|i - j|) (Toeplitz) plus phi(i + j) (Hankel)
    p = windows(np.concatenate([phi[n - 1 : 0 : -1], phi[:n]]), n)[:, ::-1] + windows(phi, n)
    p[:, [0, -1]] *= 0.5
    diagonal = p.diagonal().copy()
    np.fill_diagonal(p, 0.0)
    return diagonal, p


def _spline_coefficients(
    prefilter: tuple[np.ndarray, np.ndarray], w: np.ndarray, axis: int, out: np.ndarray
) -> np.ndarray:
    """P applied to every line of w along ``axis``, written to ``out``.

    The matrix product runs on P's off-diagonal part, and the diagonal term,
    the largest (about sqrt(3) w), is added after it. Rounded once instead of
    riding through the product's partial sums, it keeps the result within
    1e-15 of its largest value from scipy's recursive filter; one product with
    all of P reached 1.2e-15 on some 256-cell inputs.
    """
    diagonal, off_diagonal = prefilter
    if axis == 0:
        np.matmul(off_diagonal, w, out=out)
        out += diagonal[:, None] * w
    else:
        np.matmul(w, off_diagonal.T, out=out)
        out += diagonal * w
    return out


def _cubic_shift(
    offset: np.ndarray,
    axis: int,
    shape: tuple[int, int],
    prefilter: tuple[np.ndarray, np.ndarray],
    scale: float = 1.0,
) -> Callable[[np.ndarray], np.ndarray]:
    """Precomputed semi-Lagrangian substep along one axis.

    Cell k (counted along ``axis``) takes the cubic B-spline interpolant of the
    density at the departure point k + offset, times ``scale``; ``offset``
    broadcasts to ``shape``. ``prefilter`` is ``_spline_prefilter`` of the
    axis length: it turns the density into spline coefficients that are
    mirror-extended past the edges. Departure points outside [0, n-1] give 0.
    The result is that of ``map_coordinates(order=3, mode="constant",
    cval=0.0, prefilter=True)`` when the other coordinate is the cell's own
    index, to roundoff.
    """
    n = shape[axis]
    base = np.floor(offset)
    t = offset - base
    s = 1.0 - t
    # weights of the taps at floor - 1 .. floor + 2; they broadcast like offset
    weights = (scale / 6.0) * np.stack([s**3, 4.0 - 6.0 * t**2 + 3.0 * t**3, 4.0 - 6.0 * s**2 + 3.0 * s**3, t**3])
    rows, cols = np.indices(shape, sparse=True)
    index = rows if axis == 0 else cols
    first = index + base.astype(np.intp) - 1
    outside = (index + offset < 0) | (index + offset > n - 1)
    size = shape[0] * shape[1]
    # flat indices of the four taps; outside points read the zero slot at `size`
    flat = np.empty((4,) + shape, dtype=np.int32)
    for k in range(4):
        # taps of departure points inside the grid reach one cell past either edge
        tap = np.abs(first + k)
        tap = np.where(tap < n, tap, 2 * n - 2 - tap)
        flat[k] = np.where(outside, size, tap * shape[1] + cols if axis == 0 else rows * shape[1] + tap)
    # spline coefficients, then the zero slot
    coeffs = np.zeros(size + 1)
    grid_coeffs = coeffs[:size].reshape(shape)

    def apply(w: np.ndarray) -> np.ndarray:
        _spline_coefficients(prefilter, w, axis, grid_coeffs)
        out = weights[0] * coeffs.take(flat[0])
        for k in range(1, 4):
            out += weights[k] * coeffs.take(flat[k])
        return out

    return apply


def _transport_substeps(
    grid: PhaseSpaceGrid, params: ModelParams, potential: HarmonicPotential | None, h: float
) -> tuple[Callable[[np.ndarray], np.ndarray], Callable[[np.ndarray], np.ndarray]]:
    """The x-advection and p drift/damping substeps of length h.

    x-advection: cell (i, j) departs from x_i - p_j h / M. p drift/damping:
    the backtrace along the characteristics is p e^{2 gamma h} + V'(x)
    expm1(2 gamma h) / (2 gamma) (cancellation-free), and the damping
    compression multiplies the density by the Jacobian e^{2 gamma h}.
    """
    shape = (grid.n_x, grid.n_p)
    p = grid.p
    prefilter = {n: _spline_prefilter(n) for n in set(shape)}
    advect_x = _cubic_shift(-(p * h / (params.M * grid.dx))[None, :], 0, shape, prefilter[grid.n_x])
    rate = 2.0 * params.gamma * h
    shift_p = p[None, :] * math.expm1(rate)
    if potential is not None:
        kick = math.expm1(rate) / (2.0 * params.gamma)
        shift_p = shift_p + (params.M * potential.omega0**2 * grid.x * kick)[:, None]
    drift_p = _cubic_shift(shift_p / grid.dp, 1, shape, prefilter[grid.n_p], scale=math.exp(rate))
    return advect_x, drift_p


def evolve_wigner_pde(
    grid: PhaseSpaceGrid,
    schedule: KernelSchedule,
    potential: HarmonicPotential | None = None,
    t_end: float = 1.0,
    dt: float | None = None,
    sample_times: Sequence[float] | None = None,
) -> WignerEvolution:
    """Advance the phase-space density to t_end and record diagnostics.

    Without dt, the step count is the smallest multiple of the number of
    sample intervals (len(sample_times) - 1) whose step fits the stability
    bound, so uniformly spaced sample times from 0 to t_end fall on steps. A
    user-supplied dt above the bound is rejected. A sample time between steps
    is recorded at the nearest step, with that step's time; one on a step keeps
    its requested value. Aborts with a StabilityError if the density blows up
    or substantial mass reaches the grid boundary (both checked after every
    step), or if it leaks mass (checked at sample times and at the end).
    """
    if not t_end > 0:
        raise ValueError("t_end must be positive")
    params = schedule.params
    if grid.boundary_fraction() > BOUNDARY_INIT_FRACTION:
        raise StabilityError(
            f"initial boundary density fraction {grid.boundary_fraction():.3g} exceeds "
            f"{BOUNDARY_INIT_FRACTION:g}; widen the grid"
        )

    if sample_times is None:
        sample_times = np.linspace(0.0, t_end, 9)
    dt_bound = stable_time_step(grid, schedule, t_end)
    if dt is None:
        # a multiple of the sample intervals, so a uniform sample grid lands on steps
        k = max(1, len(sample_times) - 1)
        n_steps = k * int(math.ceil(t_end / (k * dt_bound)))
        dt = t_end / n_steps
    else:
        if dt > dt_bound * (1.0 + 1e-12):
            raise StabilityError(f"dt = {dt:.3g} violates stability bound {dt_bound:.3g}")
        n_steps = max(1, int(round(t_end / dt)))
        if abs(n_steps * dt - t_end) > 1e-9 * t_end:
            raise ValueError("dt must divide t_end evenly")

    requested = np.asarray(sample_times, dtype=float)
    sample_idx, first = np.unique(np.clip(np.round(requested / dt).astype(int), 0, n_steps), return_index=True)
    # a sample time that falls on its step (to roundoff) is recorded as given,
    # not as step * dt, which can differ from it in the last bit
    step_times = sample_idx * dt
    on_step = np.abs(requested[first] - step_times) <= 1e-9 * t_end
    sample_t = np.where(on_step, requested[first], step_times)

    dx, dp = grid.dx, grid.dp
    advect_x, drift_p = _transport_substeps(grid, params, potential, 0.5 * dt)
    q, eig = _p_diffusion_modes(grid.n_p, dp)

    w = grid.w.copy()
    times: list[float] = []
    masses: list[float] = []
    moments: list[MomentState] = []
    eps_neg = 0.0

    def check(step: int, w_now: np.ndarray) -> None:
        total = w_now.sum()  # any non-finite cell makes the sum non-finite
        if not math.isfinite(total):
            raise StabilityError(f"density blew up at t = {step * dt:.6g}")
        fraction = _boundary_fraction(w_now, total)
        if fraction > BOUNDARY_ABORT_FRACTION:
            raise StabilityError(
                f"boundary-mass overflow at t = {step * dt:.6g}: fraction "
                f"{fraction:.3g} exceeds {BOUNDARY_ABORT_FRACTION:g}"
            )

    def snapshot(step: int, w_now: np.ndarray) -> PhaseSpaceGrid:
        try:
            return PhaseSpaceGrid(
                grid.x_min, grid.x_max, grid.n_x, grid.p_min, grid.p_max, grid.n_p, w_now, norm_tol=1e-3
            )
        except ValueError as exc:
            raise StabilityError(f"mass leak at t = {step * dt:.6g}: {exc}") from exc

    def record(step: int, t_now: float, w_now: np.ndarray) -> None:
        nonlocal eps_neg
        snap = snapshot(step, w_now)
        times.append(t_now)
        masses.append(snap.mass())
        moments.append(grid_moments(snap))
        eps_neg = max(eps_neg, snap.negative_fraction())

    rec_pos = 0
    for step in range(n_steps + 1):
        check(step, w)
        while rec_pos < len(sample_idx) and sample_idx[rec_pos] == step:
            record(step, float(sample_t[rec_pos]), w)
            rec_pos += 1
        if step == n_steps:
            break
        D, L = schedule.coefficients((step + 0.5) * dt)
        w = advect_x(w)
        w = drift_p(w)
        if D != 0.0:
            w = ((w @ q) * np.exp((dt * D) * eig)) @ q
        if L != 0.0:
            w = w - (dt * L) * _mixed_xp(w, dx, dp)
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
