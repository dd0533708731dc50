"""Moment-closure evolution of the phase-space density.

For a free particle the generator is linear with state-independent diffusion,
so the moments through total order four form a closed linear ODE system. The
recursion is derived from the phase-space equation by integration by parts and
is validated against an independent Monte-Carlo oracle in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from ..errors import IntegrationError
from ..model import ModelParams, NonMarkovParams, SecondMomentInit, _markov_delta, delta_coefficient, lambda_coefficient

__all__ = [
    "MOMENT_KEYS",
    "MomentState",
    "KernelSchedule",
    "MomentTrajectory",
    "moment_derivative",
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

    @classmethod
    def from_init(cls, init: SecondMomentInit) -> "MomentState":
        """Gaussian state matching a SecondMomentInit (spx_0 is <XP+PX>)."""
        return cls.gaussian(init.sx2_0, init.sp2_0, init.spx_0 / 2.0)

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
class KernelSchedule:
    """Diffusion-coefficient schedule driving the moment and phase-space
    evolution.

    kind "markov" holds the constant pair (2 M gamma kT / hbar^2, 0);
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

    def delta(self, t: float) -> float:
        if self.kind == "markov":
            return _markov_delta(self.params)
        return float(delta_coefficient(self.params, self.nm, t))

    def lam(self, t: float) -> float:
        if self.kind == "markov":
            return 0.0
        return float(lambda_coefficient(self.params, self.nm, t))

    def coefficients(self, t: float) -> tuple[float, float]:
        return self.delta(t), self.lam(t)


def _check_hbar2_terms(hbar: float, hb2_delta: float, hb2_lam: float, t: float) -> None:
    """Refuse a generator term hbar^2 Delta(t) or hbar^2 Lambda(t) that is not
    finite: at a tiny hbar, 1/hbar^2 overflows to inf (or hbar^2 underflows to
    0 and the product is nan), and an integrator fed inf may never return."""
    for name, value in (("Delta", hb2_delta), ("Lambda", hb2_lam)):
        if not math.isfinite(value):
            raise IntegrationError(f"hbar^2 {name} is {value} at t = {t:.6g}, hbar = {hbar:g}")


def moment_derivative(
    state: MomentState, params: ModelParams, delta: float, lam: float
) -> dict[tuple[int, int], float]:
    """Time derivative of every tracked moment for the free-particle generator.

    dm(j,k)/dt = (j/M) m(j-1,k+1) - 2 gamma k m(j,k)
                 + hbar^2 delta k(k-1) m(j,k-2) - hbar^2 lam j k m(j-1,k-1)

    with out-of-range indices contributing zero. Evaluated with the structure
    matrices :func:`evolve_moments` integrates.
    """
    a_mat, b_mat, c_mat = _generator_matrices(params.M, params.gamma)
    hb2 = np.float64(params.hbar) ** 2
    rates = (a_mat + (hb2 * delta) * b_mat + (hb2 * lam) * c_mat) @ state.vector()
    return dict(zip(MOMENT_KEYS, map(float, rates)))


def _generator_matrices(M: float, gamma: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Constant structure matrices: dm/dt = (A + delta*B + lam*C) m, with the
    hbar^2 factor folded into the delta/lam coefficients by the caller."""
    a = np.zeros((_N, _N))
    b = np.zeros((_N, _N))
    c = np.zeros((_N, _N))
    for (j, k) in MOMENT_KEYS:
        row = _KEY_INDEX[(j, k)]
        a[row, row] += -2.0 * gamma * k
        if j >= 1:
            a[row, _KEY_INDEX[(j - 1, k + 1)]] += j / M
        if k >= 2:
            b[row, _KEY_INDEX[(j, k - 2)]] += k * (k - 1)
        if j >= 1 and k >= 1:
            c[row, _KEY_INDEX[(j - 1, k - 1)]] += -j * k
    return a, b, c


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

    def __len__(self) -> int:
        return len(self.states)


def evolve_moments(
    init: MomentState,
    schedule: KernelSchedule,
    t_grid: Sequence[float],
    rtol: float = 1e-8,
    atol: float = 1e-12,
) -> MomentTrajectory:
    """Integrate the moment ODE system over an ascending grid starting at 0.

    The state is nondimensionalized internally (x and p scaled by the initial
    spread and the larger of the initial and equilibrium momentum spread) so
    the tolerances act on order-one quantities regardless of parameter
    magnitudes. Uses an adaptive high-order Runge-Kutta scheme.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or len(t) < 2:
        raise ValueError("t_grid must contain at least two times")
    if t[0] != 0.0:
        raise ValueError("t_grid must start at 0")
    if np.any(np.diff(t) <= 0):
        raise ValueError("t_grid must be strictly ascending")

    p = schedule.params
    x_scale = math.sqrt(init[(2, 0)])
    p_scale = math.sqrt(max(init[(0, 2)], p.M * p.kT))
    scale = np.array([x_scale**j * p_scale**k for (j, k) in MOMENT_KEYS])

    # scaled system: M -> M x_scale / p_scale, delta -> delta/p_scale^2,
    # lam -> lam/(x_scale p_scale); same matrix structure.
    a_mat, b_mat, c_mat = _generator_matrices(p.M * x_scale / p_scale, p.gamma)
    hb2 = np.float64(p.hbar) ** 2  # overflows to inf, not OverflowError
    if not math.isfinite(hb2):
        raise IntegrationError(f"hbar^2 overflows at hbar = {p.hbar:g}")
    inv_xp = 1.0 / (x_scale * p_scale)
    inv_pp = 1.0 / p_scale**2

    def rhs(tt: float, y: np.ndarray) -> np.ndarray:
        delta, lam = schedule.coefficients(tt)
        hb2_delta, hb2_lam = hb2 * delta, hb2 * lam
        _check_hbar2_terms(p.hbar, hb2_delta, hb2_lam, tt)
        mat = a_mat + (hb2_delta * inv_pp) * b_mat + (hb2_lam * inv_xp) * c_mat
        return mat @ y

    from scipy.integrate import solve_ivp  # here, not at the top: `import qbmarket` loads numpy only

    y0 = init.vector() / scale
    sol = solve_ivp(rhs, (t[0], t[-1]), y0, method="DOP853", t_eval=t, rtol=rtol, atol=atol)
    if not sol.success:
        t_fail = sol.t[-1] if len(sol.t) else t[0]
        raise IntegrationError(f"moment integration failed near t = {t_fail:.6g}: {sol.message}")

    states = []
    for t_i, y in zip(t, sol.y.T):
        try:
            states.append(MomentState.from_vector(y * scale))
        except ValueError as exc:  # the integrator left the region of valid moments
            raise IntegrationError(f"moment integration invalid at t = {t_i:.6g}: {exc}") from exc
    return MomentTrajectory(times=t.copy(), states=tuple(states))

