"""Phase-space density evolution on a rectangular (x, p) grid.

Solves dW/dt = -(p/M) dW/dx + 2 gamma d(p W)/dp + D(t) d2W/dp2
- L(t) d2W/dxdp [+ harmonic force term], i.e. the Kramers-type transport
generated by the kernel schedule, whose diffusion pair D(t), L(t) is
hbar^2 Delta(t), hbar^2 Lambda(t); all Kramers-Moyal terms of order three and
higher are identically zero.

The equation is linear with a linear drift, so it needs no time step: over an
interval [t, t + h] the density is moved by the drift's flow Phi(h) = exp(A h)
and smoothed by a Gaussian of covariance Sigma(t, t + h) (Wang & Uhlenbeck,
Rev. Mod. Phys. 17 (1945) 323). Phi and Sigma are the first- and second-order
blocks of the moment propagator, in grid cells, started from a point mass at t.

The move, W(Phi^-1 z) |det Phi^-1|, is two to four remaps along one axis,
built once per distinct interval, each the transpose of cubic B-spline
interpolation at the cells' arrival points: it keeps the mass and the moments
through order three exactly, however the damping compresses p. Each remap is a
scale or a shear (Unser, Thevenaz & Yaroslavsky, IEEE Trans. Image Process. 4
(1995) 1371). A scale moves the cells of every line along the axis alike, so
it is one n x n matrix applied to all lines at once: the free particle's p
remap. A shear shifts each line by its own offset, so it deposits by shifted
slices: the free particle's x remap. In a harmonic well each remap of the
flow's factorization is a scale followed by a shear. An interval that
compresses the area by more than e^MAX_LOG_COMPRESSION is split into equal
maps, so the density stays resolved between the remaps and the smoothing.

The smoothing multiplies the density's 2-D real FFT by the Gaussian's
exp(-k^T Sigma k / 2) with k and k^2 replaced by the symbols of the
fourth-order central differences, which agree with them to order k^3 and k^4.
So every moment through order four is smoothed exactly, while the kernel stays
a few cells wide (the Gaussian's own symbol, cut off at the grid's highest
frequency, rings across the grid where a density is under-resolved). It keeps
mass exactly and takes a correlated or an indefinite Sigma alike; its wrap at
the edges is bounded by the boundary-mass abort. A non-Markov kernel's cross
diffusion can make Sigma indefinite, and then the highest grid modes grow: that
growth per interval is the engine's one bound. Small negative densities (spline
overshoot, the stencils' negative weights) are tracked, never clipped, because
clipping would corrupt the moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..errors import StabilityError
from .moments import HarmonicPotential, KernelSchedule, MomentState, _closed_system, _expm, _interval_key, _time_grid

__all__ = [
    "PhaseSpaceGrid",
    "WignerEvolution",
    "grid_moments",
    "evolve_wigner_pde",
]

# Declared normalization tolerance for a valid grid.
NORMALIZATION_TOL = 1e-6
# Negative densities down to this fraction of the peak are the overshoot scale at 4 or more cells per
# standard deviation (at most 2e-11 seen; 1 or 2 cells reach 2.6e-5 on 16^2, 3.8e-6 on 32^2); tracked, not clipped.
NEGATIVE_TOL = 1e-8
# Initial boundary-mass precondition and the runtime abort level.
BOUNDARY_INIT_FRACTION = 1e-10
BOUNDARY_ABORT_FRACTION = 1e-6
# Largest factor by which one interval's smoothing may grow a grid mode. Only an
# indefinite Sigma grows one, and what it grows at the highest modes is roundoff.
GROWTH_LIMIT = 10.0
# Largest log of one map's area compression e^{2 gamma h}; longer intervals are
# split. The remaps squeeze the density before the smoothing widens it again,
# and one squeezed below a cell spreads into cells that take nothing (_scale).
MAX_LOG_COMPRESSION = 0.5


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
        det = sx2 * sp2 - m11**2
        if not (sx2 > 0 and det > 0):  # then sp2 > 0 too
            raise ValueError("second-moment matrix must be positive definite")
        if x_half_width is None:
            x_half_width = 8.0 * math.sqrt(sx2)
        if p_half_width is None:
            p_half_width = 8.0 * math.sqrt(sp2)
        xs = -x_half_width + (np.arange(n_x) + 0.5) * (2.0 * x_half_width / n_x)
        ps = -p_half_width + (np.arange(n_p) + 0.5) * (2.0 * p_half_width / n_p)
        xx, pp = xs[:, None], ps[None, :]
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
    """Diagnostics of a phase-space run at each requested time.

    negative_fractions holds each time's most negative density as a fraction
    of the peak; values up to NEGATIVE_TOL are the expected overshoot scale.
    """

    times: np.ndarray
    moments: tuple[MomentState, ...]
    masses: np.ndarray
    negative_fractions: np.ndarray
    final: PhaseSpaceGrid
    n_steps: int  # maps applied
    dt: float  # the longest span of one map

    @property
    def eps_neg(self) -> float:  # the run's largest negative fraction
        return float(self.negative_fractions.max())

    def moment(self, j: int, k: int) -> np.ndarray:
        return np.array([s[(j, k)] for s in self.moments])

    def mass_drift(self) -> float:
        return float(np.max(np.abs(self.masses - self.masses[0])))


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
    """P applied to every line of w along ``axis``, written to ``out``; w is
    overwritten.

    The matrix product runs on P's off-diagonal part, and the diagonal term,
    the largest (about sqrt(3) w), is formed in w and added after it. Rounded
    once instead of riding through the product's partial sums, it keeps the
    result within 1e-15 of its largest value from scipy's recursive filter; one
    product with all of P reached 1.2e-15 on some 256-cell inputs.
    """
    diagonal, off_diagonal = prefilter
    if axis == 0:
        np.matmul(off_diagonal, w, out=out)
        w *= diagonal[:, None]
    else:
        np.matmul(w, off_diagonal.T, out=out)
        w *= diagonal
    out += w
    return out


def _taps(offset: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Floor of each arrival offset and the cubic B-spline weights, shape (4,) + offset.shape, of the
    taps at floor - 1 .. floor + 2 around the arrival point."""
    base = np.floor(offset)
    t = offset - base
    s = 1.0 - t
    return base, np.stack([s**3, 4.0 - 6.0 * t**2 + 3.0 * t**3, 4.0 - 6.0 * s**2 + 3.0 * s**3, t**3]) / 6.0


def _scale(
    offset: np.ndarray, depart: np.ndarray, axis: int, prefilter: tuple[np.ndarray, np.ndarray]
) -> Callable[[np.ndarray], np.ndarray]:
    """Remap along ``axis`` whose arrival offset and departure point (in cells, one per cell of the
    axis) vary only along the axis itself: one n x n matrix R = diag(inflow) P^T D on every line.

    Column k of the deposit D spreads cell k over the spline coefficients of the four cells nearest
    its arrival point k + offset[k] with the B-spline weights: folded back at the edges, dropped if
    the arrival point is outside [0, n-1]. P^T is the transposed ``prefilter`` (``_spline_prefilter``
    of the axis length), and a cell whose departure point is outside [0, n-1] takes nothing.
    """
    n = offset.size
    base, weights = _taps(offset)
    cells = np.arange(n)
    inside = (cells + offset >= 0) & (cells + offset <= n - 1)
    deposit = np.zeros((n, n))
    for k in range(4):
        # taps of arrival points inside the grid reach one cell past either edge
        tap = np.abs(cells + base.astype(np.intp) - 1 + k)
        tap = np.where(tap < n, tap, 2 * n - 2 - tap)
        deposit[tap[inside], cells[inside]] += weights[k, inside]  # one entry per column: no collision
    matrix = _spline_coefficients((prefilter[0], prefilter[1].T), deposit, 0, np.empty((n, n)))
    matrix *= ((depart >= 0) & (depart <= n - 1))[:, None]
    if axis == 0:
        return lambda w: matrix @ w
    return lambda w: w @ matrix.T


def _shear(
    offset: np.ndarray, axis: int, shape: tuple[int, int], prefilter: tuple[np.ndarray, np.ndarray]
) -> Callable[[np.ndarray], np.ndarray]:
    """Remap along ``axis`` that shifts each line by its own arrival offset (in cells, one per line,
    indexed by the other coordinate); a cell takes nothing from a departure point (cell index minus
    the offset) outside [0, n-1].

    Within one line every cell moves by the same offset, so the deposit needs no scatter. Each run of
    lines whose offset has the same floor f and ceiling is copied f cells along, the cells whose
    arrival point is outside [0, n-1] left out; the B-spline weights of each line then spread the
    shifted lines over the taps, four slice adds over the whole array, into coefficients one cell
    wider than the axis on either side, whose outer rows fold back onto their mirror images (tap
    n + 1 is reached only from the arrival point n - 1, with weight 0). The transposed ``prefilter``
    turns the coefficients into cell values, and the same runs bound the cells that take anything.
    """
    n = shape[axis]
    base, weights = _taps(offset)
    ceiling = np.ceil(offset)
    # (floor, ceiling) is the same along a run of lines exactly where floor + ceiling is
    starts = np.flatnonzero(np.diff(base + ceiling)) + 1
    moves, empty = [], []
    for first, last in zip([0, *starts], [*starts, offset.size]):
        line, f, c = slice(first, last), int(base[first]), int(ceiling[first])
        low = max(0, -f)  # cells low .. high - 1 arrive in [0, n-1]; none where the shift passes an edge
        moves.append((line, f, low, max(low, min(n, n - c))))
        empty.append((line, max(0, min(c, n)), max(0, n + f)))  # cells below and from these take nothing
    transposed = (prefilter[0], prefilter[1].T)

    def lines(a: np.ndarray) -> np.ndarray:  # the lines of the axis along the first dimension
        return a if axis == 0 else a.T

    def apply(w: np.ndarray) -> np.ndarray:
        source = lines(w)
        # shifted[3 + j] holds the cells whose arrival floor is j (0 <= j < n, zero-padded for the
        # taps); coeffs[1 + j] is the coefficient of tap j = -1 .. n
        shifted = np.zeros((n + 5, source.shape[1]))
        for line, f, low, high in moves:
            shifted[3 + low + f : 3 + high + f, line] = source[low:high, line]
        coeffs = weights[0] * shifted[3 : n + 5]  # tap k of a cell whose arrival floor is j lands on j - 1 + k
        products = np.empty_like(coeffs)
        for k in range(1, 4):
            coeffs += np.multiply(weights[k], shifted[3 - k : n + 5 - k], out=products)
        del shifted, products
        coeffs[2] += coeffs[0]  # tap -1 is the mirror image of tap 1
        coeffs[n - 1] += coeffs[n + 1]  # and tap n of tap n - 2
        out = _spline_coefficients(transposed, lines(coeffs[1 : n + 1]), axis, np.empty(shape))
        cells = lines(out)
        for line, below, above in empty:
            cells[:below, line] = 0.0
            cells[above:, line] = 0.0
        return out

    return apply


def _remap_factors(inv: np.ndarray) -> list[tuple[int, float, float]]:
    """The departure map z -> inv z (cell units) as remaps along one axis, in
    the order they are applied: (axis, u, v) takes the departure coordinate
    along ``axis`` to be u x + v p and keeps the other. Each is a scale (its
    cross coupling, v of an x remap and u of a p remap, is 0) or a shear (its
    own coefficient is 1).

    With inv = [[a, b], [c, d]], x then p remaps need d != 0, p then x need
    a != 0, and x, p, x need c != 0 (the x remaps are pure shears, the p remap
    keeps the determinant). The one taken has the smallest largest cross
    coupling, counting every coupling up to 1 as 1 so that the two-remap
    options win those ties: no remap divides by a pivot that a quarter turn of
    the flow has sent to 0. Each of its remaps is then a scale by its own
    coefficient followed by a shear by the cross coupling over it
    (u x + v p = u (x + v/u p) along x), leaving out either one that is the
    identity.
    """
    (a, b), (c, d) = inv
    det = a * d - b * c
    options = []
    if d:
        options.append([(0, det / d, b / d), (1, c, d)])
    if a:
        options.append([(1, c / a, det / a), (0, a, b)])
    if c:
        s = (a - 1.0) / c
        options.append([(0, 1.0, s), (1, c, det), (0, 1.0, b - s * d)])
    chosen = min(options, key=lambda remaps: max(1.0, *(abs(v if axis == 0 else u) for axis, u, v in remaps)))
    factors = []
    for axis, u, v in chosen:
        own, cross = (u, v) if axis == 0 else (v, u)
        if own != 1.0:
            factors.append((0, own, 0.0) if axis == 0 else (1, 0.0, own))
        if cross != 0.0:
            factors.append((0, 1.0, cross / own) if axis == 0 else (1, cross / own, 1.0))
    return factors


def _remaps(
    grid: PhaseSpaceGrid, inv: np.ndarray, prefilter: dict[int, tuple[np.ndarray, np.ndarray]]
) -> list[Callable[[np.ndarray], np.ndarray]]:
    """The remaps that take W to W(inv z) |det inv|, inv in grid-cell units.

    Each is a ``_scale`` or a ``_shear``: the transpose of ``map_coordinates(order=3,
    mode="constant", cval=0.0, prefilter=True)`` at the cells' arrival points, then 0 where a cell's
    departure point is off the grid. A sum of f(k) times the result is the sum of the cells times the
    spline of f at their arrival points, so the mass and the moments through order three are kept
    exactly however the axis is compressed (sampling the spline at the departure points lost 1e-4 of
    the mass per interval at two cells per standard deviation). What the transposed prefilter spreads
    onto cells that take nothing, a share of a density a cell or two wide, is lost.
    """
    shape = (grid.n_x, grid.n_p)
    coordinates = (grid.x / grid.dx, grid.p / grid.dp)  # cell coordinates along x and p
    remaps = []
    for axis, u, v in _remap_factors(inv):
        own, cross = (u, v) if axis == 0 else (v, u)
        y = coordinates[axis]
        if cross:  # the departure point y + cross * (other coordinate): arrival offset -cross * other
            remaps.append(_shear(-cross * coordinates[1 - axis], axis, shape, prefilter[shape[axis]]))
        else:  # the departure point own * y: arrival y / own
            remaps.append(_scale((1.0 / own - 1.0) * y, own * y - y[0], axis, prefilter[shape[axis]]))
    return remaps


def evolve_wigner_pde(
    grid: PhaseSpaceGrid,
    schedule: KernelSchedule,
    times: Sequence[float],
    potential: HarmonicPotential | None = None,
) -> WignerEvolution:
    """Evolve the phase-space density over an ascending grid of times starting
    at 0, the last of them the end, and record diagnostics at each one.

    Each interval is ceil(2 gamma h / MAX_LOG_COMPRESSION) equal exact maps
    (one unless the damping is strong), each remaps by Phi^-1 and then the
    Gaussian smoothing of Sigma; intervals with one ``moments._interval_key``
    share them. Aborts with a StabilityError if an interval's flow or its area
    compression e^{2 gamma h} is not finite, if its smoothing would grow a grid
    mode by more than GROWTH_LIMIT, or if at any time the density is not finite,
    substantial mass sits on the grid boundary or mass leaked.
    """
    t = _time_grid(schedule, times)
    if grid.boundary_fraction() > BOUNDARY_INIT_FRACTION:
        raise StabilityError(
            f"initial boundary density fraction {grid.boundary_fraction():.3g} exceeds "
            f"{BOUNDARY_INIT_FRACTION:g}; widen the grid"
        )
    shape = (grid.n_x, grid.n_p)
    prefilter = {n: _spline_prefilter(n) for n in set(shape)}
    # the moments through order 2 from a point mass, in cells, after the driver
    # states: (1, 0), (0, 1) carry Phi and (2, 0), (1, 1), (0, 2) Sigma
    point = np.eye(6)[0]
    gen, y = _closed_system(schedule, grid.dx, grid.dp, point, 6, potential.omega0 if potential else 0.0)
    drivers = len(y) - 6
    first, second = drivers + np.array([2, 1]), drivers + np.array([5, 4, 3])
    kx = 2.0 * math.pi * np.fft.fftfreq(grid.n_x)[:, None]
    kp = 2.0 * math.pi * np.fft.rfftfreq(grid.n_p)[None, :]
    # k and k^2 as the fourth-order central differences see them: k - k^5/30 and
    # k^2 - k^6/90, with (symbol of k)^2 <= (symbol of k^2), so q >= 0 for a
    # positive semi-definite Sigma; -q/2 is the sum of these times Sigma's entries
    sx, sp = ((8.0 * np.sin(k) - np.sin(2.0 * k)) / 6.0 for k in (kx, kp))
    sxx, spp = ((30.0 - 32.0 * np.cos(k) + 2.0 * np.cos(2.0 * k)) / 12.0 for k in (kx, kp))
    quadratic = (-0.5 * sxx, -sx * sp, -0.5 * spp)

    maps: dict[float, tuple] = {}
    w = grid.w
    moments: list[MomentState] = []
    masses: list[float] = []
    negative: list[float] = []
    for k, t_now in enumerate(t):
        if k:
            h = t_now - t[k - 1]
            key = _interval_key(h)
            if key not in maps:
                m = max(1, math.ceil(2.0 * schedule.params.gamma * h / MAX_LOG_COMPRESSION))
                if not np.all(np.isfinite(gen * h)) or m * MAX_LOG_COMPRESSION > np.log(np.finfo(float).max):
                    raise StabilityError(f"phase-space flow over an interval of {h:.6g} is not finite")
                propagator = _expm(gen * (h / m))  # its block of the first-order moments is Phi
                inv = np.linalg.inv(propagator[np.ix_(first, first)].real)
                if not (np.all(np.isfinite(propagator)) and np.all(np.isfinite(inv))):
                    raise StabilityError(f"phase-space flow over an interval of {h:.6g} is not finite")
                maps[key] = (m, propagator, _remaps(grid, inv, prefilter))
            m, propagator, remaps = maps[key]
            growth = 1.0
            for _ in range(m):  # each map starts from a point mass
                y = propagator @ y
                factor = np.exp(sum(q * s for q, s in zip(quadratic, y[second].real)))
                y = np.concatenate([y[:drivers], point])
                growth *= factor.max()
                if growth > GROWTH_LIMIT:
                    raise StabilityError(
                        f"smoothing over [{t[k - 1]:.6g}, {t_now:.6g}] grows the highest grid modes by {growth:.3g}, "
                        f"above the growth bound {GROWTH_LIMIT:g}: the cross diffusion makes Sigma indefinite there; "
                        "use a coarser grid or shorter intervals"
                    )
                for remap in remaps:  # none writes to its input
                    w = remap(w)
                # irfft2's own steps: ifft along x over the spectrum, then irfft along p over the remap's
                # fresh output (numpy 2.0's out=), so no spare spectrum or density is allocated
                spectrum = np.fft.rfft2(w)
                spectrum *= factor
                np.fft.ifft(spectrum, axis=0, out=spectrum)
                w = np.fft.irfft(spectrum, shape[1], axis=1, out=w if w.flags.writeable else None)
                del spectrum
        total = w.sum()  # any non-finite cell makes the sum non-finite
        if not math.isfinite(total):
            raise StabilityError(f"density blew up at t = {t_now:.6g}")
        fraction = _boundary_fraction(w, total)
        if fraction > BOUNDARY_ABORT_FRACTION:
            raise StabilityError(
                f"boundary-mass overflow at t = {t_now:.6g}: fraction "
                f"{fraction:.3g} exceeds {BOUNDARY_ABORT_FRACTION:g}"
            )
        try:
            snap = PhaseSpaceGrid(grid.x_min, grid.x_max, grid.n_x, grid.p_min, grid.p_max, grid.n_p, w,
                                  norm_tol=1e-3)
        except ValueError as exc:
            raise StabilityError(f"mass leak at t = {t_now:.6g}: {exc}") from exc
        w = snap.w  # the snapshot's read-only copy: one copy of the density stays alive
        moments.append(grid_moments(snap))
        masses.append(snap.mass())
        negative.append(snap.negative_fraction())

    t = t.copy()
    t.setflags(write=False)
    spans = [(h, maps[_interval_key(h)][0]) for h in np.diff(t)]  # (interval, maps applied over it)
    return WignerEvolution(times=t, moments=tuple(moments), masses=np.asarray(masses),
                           negative_fractions=np.asarray(negative), final=snap,
                           n_steps=sum(m for _, m in spans), dt=max(h / m for h, m in spans))
