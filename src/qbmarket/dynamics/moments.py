"""Moment-closure evolution of the phase-space density.

For a free particle the generator is linear with state-independent diffusion,
so the moments through total order four form a closed linear ODE system. The
recursion is derived from the phase-space equation by integration by parts and
is validated against an independent Monte-Carlo oracle in the test suite.

The system is solved exactly on every kernel: m(t + h) = exp(G h) m(t)
(Moler & Van Loan, SIAM Rev. 45 (2003) 3), with no step size or tolerance.
Time-dependent coefficients are themselves the outputs of a small constant
linear system, so the moments and their products with them form one larger
constant system (Van Loan, IEEE TAC 23 (1978) 395), propagated the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from ..errors import IntegrationError, NumericalError
from ..model import (ModelParams, NonMarkovParams, _delta_prefactor, _lambda_prefactor,
                     _markov_diffusion, cross_diffusion, normal_diffusion)

__all__ = [
    "MOMENT_KEYS",
    "HarmonicPotential",
    "MomentState",
    "KernelSchedule",
    "MomentTrajectory",
    "evolve_moments",
]

# Canonical ordering of the moment map (x-power j, p-power k), total order <= 4.
MOMENT_KEYS: tuple[tuple[int, int], ...] = tuple(
    (j, order - j) for order in range(5) for j in range(order, -1, -1)
)
_KEY_INDEX = {key: i for i, key in enumerate(MOMENT_KEYS)}
_N = len(MOMENT_KEYS)

# Relative slack for the moment inequalities; exact solutions satisfy them
# strictly, integration roundoff may graze the boundary.
_INVARIANT_SLACK = 1e-9

# Coefficients of the [13/13] Pade approximant to exp and the 1-norm up to
# which its backward error stays below the unit roundoff (Higham, SIAM J.
# Matrix Anal. Appl. 26 (2005) 1179).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
    40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152

# A moment is fed only by moments of lower order, or of its own order and lower
# x-power, so in this ordering (order, then x-power, ascending) every moment
# generator is lower triangular.
_TRIANGULAR = np.array(sorted(range(_N), key=lambda i: (sum(MOMENT_KEYS[i]), MOMENT_KEYS[i][0])))


@dataclass(frozen=True)
class MomentState:
    """Phase-space moments m[(j, k)] = <x^j p^k> through total order four.

    The map always contains all 15 keys. m[(1, 1)] is the symmetrized cross
    moment, i.e. <XP+PX>/2 in operator language.
    """

    m: Mapping[tuple[int, int], float]

    def __post_init__(self) -> None:
        missing = [k for k in MOMENT_KEYS if k not in self.m]
        if missing:
            raise ValueError(f"moment map missing keys {missing}")
        object.__setattr__(self, "m", MappingProxyType(dict(self.m)))
        self.validate()

    def validate(self) -> None:
        m = self.m
        if abs(m[(0, 0)] - 1.0) > _INVARIANT_SLACK:
            raise ValueError("m(0,0) must equal 1")
        if not m[(2, 0)] > 0 or not m[(0, 2)] > 0:
            raise ValueError("second moments must be positive")
        slack = _INVARIANT_SLACK
        if m[(4, 0)] < m[(2, 0)] ** 2 * (1.0 - slack):
            raise ValueError("Cauchy-Schwarz violated: m(4,0) < m(2,0)^2")
        if m[(0, 4)] < m[(0, 2)] ** 2 * (1.0 - slack):
            raise ValueError("Cauchy-Schwarz violated: m(0,4) < m(0,2)^2")
        if m[(2, 0)] * m[(0, 2)] < m[(1, 1)] ** 2 * (1.0 - slack):
            raise ValueError("Cauchy-Schwarz violated: m(2,0) m(0,2) < m(1,1)^2")

    def __getitem__(self, key: tuple[int, int]) -> float:
        return self.m[key]

    def vector(self) -> np.ndarray:
        return np.array([self.m[k] for k in MOMENT_KEYS], dtype=float)

    @classmethod
    def from_vector(cls, vec: np.ndarray) -> "MomentState":
        return cls(dict(zip(MOMENT_KEYS, map(float, vec))))

    @classmethod
    def gaussian(cls, sx2: float, sp2: float, m11: float = 0.0) -> "MomentState":
        """Centered Gaussian moments with second moments (sx2, sp2, m11)."""
        m = {k: 0.0 for k in MOMENT_KEYS}
        m[(0, 0)] = 1.0
        m[(2, 0)] = sx2
        m[(1, 1)] = m11
        m[(0, 2)] = sp2
        m[(4, 0)] = 3.0 * sx2**2
        m[(3, 1)] = 3.0 * sx2 * m11
        m[(2, 2)] = sx2 * sp2 + 2.0 * m11**2
        m[(1, 3)] = 3.0 * sp2 * m11
        m[(0, 4)] = 3.0 * sp2**2
        return cls(m)

    def with_value(self, j: int, k: int, value: float) -> "MomentState":
        m = dict(self.m)
        m[(j, k)] = float(value)
        return MomentState(m)

    def kurtosis_x(self) -> float:
        """Excess kurtosis of the coordinate marginal."""
        sx2 = self.m[(2, 0)]
        if not sx2 > 0:
            raise ValueError("vanishing coordinate variance")
        return self.m[(4, 0)] / sx2**2 - 3.0


@dataclass(frozen=True)
class HarmonicPotential:
    """Harmonic well 0.5 M omega0^2 x^2 (force enters the p characteristics)."""

    omega0: float

    def __post_init__(self) -> None:
        if not self.omega0 > 0:
            raise ValueError("omega0 must be positive")


@dataclass(frozen=True)
class KernelSchedule:
    """Diffusion-coefficient schedule driving the moment and phase-space
    evolution: the pair D(t) = hbar^2 Delta(t), L(t) = hbar^2 Lambda(t).

    kind "markov" holds the constant pair (2 M gamma kT, 0);
    kind "non-markov" evaluates the time-dependent closed forms and needs nm.
    A non-Markovian schedule with xi = 0 reproduces the Markovian one exactly.
    """

    kind: str
    params: ModelParams
    nm: NonMarkovParams | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("markov", "non-markov"):
            raise ValueError("kind must be 'markov' or 'non-markov'")
        if self.kind == "non-markov" and self.nm is None:
            raise ValueError("non-markov schedule requires nm parameters")

    @classmethod
    def markov(cls, params: ModelParams) -> "KernelSchedule":
        return cls("markov", params)

    @classmethod
    def non_markov(cls, params: ModelParams, nm: NonMarkovParams) -> "KernelSchedule":
        return cls("non-markov", params, nm)

    def coefficients(self, t: float | np.ndarray) -> tuple[float | np.ndarray, float | np.ndarray]:
        """(D(t), L(t)) at a time or an array of times (the Markovian pair is
        scalar). One that is not finite, say 2 M gamma kT overflowing, is
        refused by name: a propagator built from inf holds nothing but nan."""
        if self.kind == "markov":
            pair = (_markov_diffusion(self.params), 0.0)
        else:
            pair = (normal_diffusion(self.params, self.nm, t), cross_diffusion(self.params, self.nm, t))
        *values, ts = np.broadcast_arrays(*pair, t)
        for name, value in zip("DL", values):
            bad = ~np.isfinite(value)
            if bad.any():
                raise NumericalError(f"diffusion coefficient {name} is {value[bad][0]} at t = {ts[bad][0]:.6g}")
        return pair

    def drivers(self) -> tuple[np.ndarray, np.ndarray]:
        """(F, z0) of the constant system z' = F z, z(0) = z0, whose last two states
        are D(t) - D(0) and L(t); empty if D and L are constant (Markov, or xi = 0).
        The others are e^{-eta t}, e^{-mu t}, conj(e^{-mu t}) and t times each, with
        mu = eta - 2i omega, b = 2 omega and the model's prefactors P_D, P_L, so F is
        lower triangular: D' = P_D (e^{-eta t} + Re e^{-mu t}) and L' = P_L (t e^{-eta t}
        + Re[(mu/conj mu) t e^{-mu t} - (2ib/conj mu^2) e^{-mu t}])."""
        if self.kind == "markov" or self.nm.xi == 0.0:
            return np.zeros((0, 0)), np.zeros(0)
        mu = complex(self.nm.eta, -2.0 * self.nm.omega)  # b = -Im mu
        ratio, lead = mu / mu.conjugate(), 2j * mu.imag / mu.conjugate() ** 2
        f = np.diag(-np.array([mu.real, mu, mu.conjugate()] * 2 + [0.0, 0.0]))
        f[3:6, :3] = np.eye(3)
        f[6, :3] = _delta_prefactor(self.params, self.nm) * np.array([1.0, 0.5, 0.5])
        f[7, :6] = _lambda_prefactor(self.params, self.nm) / 2 * np.array(
            [0.0, lead, lead.conjugate(), 2.0, ratio, ratio.conjugate()])
        return f, np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])


def _generator_matrices(M: float, gamma: float, omega0: float = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Constant structure matrices: dm/dt = (A + D B + L C) m. A harmonic well
    0.5 M omega0^2 x^2 adds its force to A; that coupling raises the x-power, so
    it is the one term that breaks the triangular order below."""
    a = np.zeros((_N, _N))
    b = np.zeros((_N, _N))
    c = np.zeros((_N, _N))
    for (j, k) in MOMENT_KEYS:
        row = _KEY_INDEX[(j, k)]
        a[row, row] += -2.0 * gamma * k
        if j >= 1:
            a[row, _KEY_INDEX[(j - 1, k + 1)]] += j / M
        if k >= 1 and omega0:
            a[row, _KEY_INDEX[(j + 1, k - 1)]] += -k * M * omega0**2
        if k >= 2:
            b[row, _KEY_INDEX[(j, k - 2)]] += k * (k - 1)
        if j >= 1 and k >= 1:
            c[row, _KEY_INDEX[(j - 1, k - 1)]] += -j * k
    return a, b, c


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by Pade-13 scaling and squaring.

    Where a is lower triangular, so is exp(a), and its diagonal is exp(diag(a)):
    the upper triangle is zeroed and the diagonal set exactly after each
    squaring (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31 (2009) 970).
    Squared s times instead, an approximant diagonal one ulp below 1 drifts by
    2^s ulps: at gamma = 1e3 (s = 10), m(2,0) lost 1e-13 per step. With the
    upper triangle zeroed, a row fed by nothing else (m(0,0)) stays exact.
    """
    lower = not np.triu(a, 1).any()
    norm = np.abs(a).sum(axis=0).max()
    s = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    x = a / 2.0**s
    b = _PADE13
    ident = np.eye(len(a))
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    u = x @ (x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2) + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * ident)
    v = x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2) + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * ident
    r = np.linalg.solve(v - u, v + u)
    d = np.diag(x)
    if lower:
        r = np.tril(r)
        np.fill_diagonal(r, np.exp(d))
    for _ in range(s):
        d = 2.0 * d
        r = r @ r
        if lower:
            np.fill_diagonal(r, np.exp(d))
    return r


def _interval_key(h: float) -> float:
    """h to 12 digits: intervals with one key share a propagator (``np.linspace``'s differ in the last bits)."""
    return float(f"{h:.12g}")


def _propagate(gen: np.ndarray, t: np.ndarray, y0: np.ndarray) -> np.ndarray:
    """Exact solution of y' = gen y on the grid t from y(t[0]) = y0, one row
    per time: one propagator exp(gen h) per distinct interval h of the grid."""
    steps = np.diff(t)
    if not np.all(np.isfinite(gen * steps.max())):
        raise IntegrationError(f"moment generator over a step of {steps.max():.6g} is not finite")
    propagators: dict[float, np.ndarray] = {}
    ys = np.empty((len(t), len(y0)), dtype=gen.dtype)
    ys[0] = y = y0
    for k, h in enumerate(steps, 1):
        key = _interval_key(h)
        if key not in propagators:
            propagators[key] = _expm(gen * h)
        ys[k] = y = propagators[key] @ y
    return ys


@dataclass(frozen=True)
class MomentTrajectory:
    """Moment states sampled on an ascending time grid."""

    times: np.ndarray
    states: tuple[MomentState, ...]

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        t.setflags(write=False)
        object.__setattr__(self, "times", t)

    def moment(self, j: int, k: int) -> np.ndarray:
        return np.array([s[(j, k)] for s in self.states])

    def kurtosis_x(self) -> np.ndarray:
        return np.array([s.kurtosis_x() for s in self.states])


def _time_grid(schedule: KernelSchedule, t_grid: Sequence[float]) -> np.ndarray:
    """The time grid as an array, checked: ascending from 0, at least two times, and D and L finite on it."""
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or len(t) < 2:
        raise ValueError("the time grid must contain at least two times")
    if t[0] != 0.0:
        raise ValueError("the time grid must start at 0")
    if np.any(np.diff(t) <= 0):
        raise ValueError("the time grid must be strictly ascending")
    schedule.coefficients(t)  # a non-finite D or L stops the run here, by name, not in a scaling
    return t


def _closed_system(
    schedule: KernelSchedule, x_scale: float, p_scale: float, y0: np.ndarray, n: int = _N, omega0: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """(generator, initial state) of the moments through order 2 (n = 6) or 4 (n = 15) in the triangular
    order, y0 their initial values, with x and p in units of x_scale and p_scale (M -> M x_scale / p_scale,
    D -> D / p_scale^2, L -> L / (x_scale p_scale)), led by their products with the drivers of D and L."""
    p = schedule.params
    tri = np.ix_(_TRIANGULAR, _TRIANGULAR)
    a_mat, b_mat, c_mat = (g[tri] for g in _generator_matrices(p.M * x_scale / p_scale, p.gamma, omega0))
    inv_xp = 1.0 / (x_scale * p_scale)
    inv_pp = 1.0 / p_scale**2
    D, L = schedule.coefficients(0.0)
    gen = a_mat + (D * inv_pp) * b_mat + (L * inv_xp) * c_mat

    # D(t) - D(0) and L(t) are the last states of z' = F z (KernelSchedule.drivers). B and C lower the
    # order by two, so products close on (z(x)z(x)m_0, z(x)m_<=2, m), each block fed by the one before.
    f, z0 = schedule.drivers()
    pick = np.eye(2, len(z0), len(z0) - 2) * [[inv_pp], [inv_xp]]  # (D - D(0), L), scaled
    g, y = gen[:1, :1], y0[:1]  # m(0,0), which B and C do not feed
    for block, inner in ((6, 1), (_N, 6))[: 1 if n == 6 else 2]:  # orders <= 2 and <= 4 lead the order
        g = np.kron(g, np.eye(len(z0))) + np.kron(np.eye(len(g)), f)
        feed = np.kron(b_mat[:block, :inner], pick[:1]) + np.kron(c_mat[:block, :inner], pick[1:])
        g = np.block([[g, np.zeros((len(g), block))], [np.zeros((block, len(g) - feed.shape[1])), feed,
                                                        gen[:block, :block]]])
        y = np.concatenate([np.kron(y, z0), y0[:block]])
    return g, y


def evolve_moments(
    init: MomentState, schedule: KernelSchedule, t_grid: Sequence[float], potential: HarmonicPotential | None = None
) -> MomentTrajectory:
    """Evolve the moments over an ascending grid starting at 0, free or in a harmonic well.

    The state is nondimensionalized internally (x and p scaled by the initial
    spread and the larger of the initial and equilibrium momentum spread), and
    propagated exactly on every kernel: one matrix exponential per distinct
    grid interval.
    """
    t = _time_grid(schedule, t_grid)
    p = schedule.params
    if not math.isfinite(p.M * p.kT):
        raise NumericalError(f"momentum scale M kT overflows at M = {p.M:g}, kT = {p.kT:g}")
    x_scale = math.sqrt(init[(2, 0)])
    p_scale = math.sqrt(max(init[(0, 2)], p.M * p.kT))
    scale = np.array([x_scale**j * p_scale**k for (j, k) in MOMENT_KEYS])
    omega0 = potential.omega0 if potential else 0.0
    g, y = _closed_system(schedule, x_scale, p_scale, (init.vector() / scale)[_TRIANGULAR], omega0=omega0)
    ys = _propagate(g, t, y)[:, -_N:].real[:, np.argsort(_TRIANGULAR)]

    states = []
    for t_i, y in zip(t, ys):
        try:
            states.append(MomentState.from_vector(y * scale))
        except ValueError as exc:  # the solution left the region of valid moments
            raise IntegrationError(f"moment integration invalid at t = {t_i:.6g}: {exc}") from exc
    return MomentTrajectory(times=t.copy(), states=tuple(states))
