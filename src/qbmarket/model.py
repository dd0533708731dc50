"""Closed-form scalar functions of the open-system index model.

Position variance laws, time-dependent diffusion coefficients, bath spectral
densities, and the damped oscillatory return autocorrelation, all evaluated
exactly in double precision. Every function here is pure and stateless, so
concurrent use needs no coordination.

Model quantities are dimensionless. The empirical pipeline (``qbmarket.market``
and ``qbmarket.calibrate``) works in minutes and log-price units; when its
fitted parameters are fed into these functions the model time unit is declared
to be one minute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import NumericalError

__all__ = [
    "ModelParams",
    "SecondMomentInit",
    "NonMarkovParams",
    "BathSpectrum",
    "acf_model",
    "normal_diffusion",
    "cross_diffusion",
    "delta_coefficient",
    "delta_limit",
    "lambda_coefficient",
    "lambda_limit",
    "spectral_density",
    "variance_closed_form",
    "variance_short_time",
    "classical_variance",
    "minimal_uncertainty_momentum",
]

# Below eta*t = 1e-6 the cross-diffusion coefficient is evaluated by its
# second-order Taylor expansion; the direct expression is a difference of
# near-equal terms there.
_LAMBDA_SERIES_CUT = 1e-6


def _as_nonnegative(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError(f"{name} must be nonnegative")
    return arr


def _require_finite(params) -> None:
    for field in fields(params):
        if not math.isfinite(getattr(params, field.name)):
            raise ValueError(f"{field.name} must be finite")


def _like_input(out: np.ndarray, value) -> float | np.ndarray:
    if np.isscalar(value) or getattr(value, "ndim", 0) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class ModelParams:
    """Physical parameter set of the open system.

    M      : index inertia (dimensionless mass), > 0
    gamma  : dissipation rate (1/time), > 0
    kT     : fluctuation strength (energy), >= 0
    hbar   : irrationality scale (action), > 0
    """

    M: float
    gamma: float
    kT: float
    hbar: float

    def __post_init__(self) -> None:
        _require_finite(self)
        if not self.M > 0:
            raise ValueError("M must be positive")
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if self.kT < 0:
            raise ValueError("kT must be nonnegative")
        if not self.hbar > 0:
            raise ValueError("hbar must be positive")


@dataclass(frozen=True)
class SecondMomentInit:
    """Initial second moments: coordinate variance, momentum variance and the
    symmetrized cross moment <XP+PX>."""

    sx2_0: float
    sp2_0: float
    spx_0: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(self)
        if not self.sx2_0 > 0:
            raise ValueError("sx2_0 must be positive")
        if not self.sp2_0 > 0:
            raise ValueError("sp2_0 must be positive")


@dataclass(frozen=True)
class NonMarkovParams:
    """Autocorrelation fit triple: intensity xi (log-price per unit time),
    decay rate eta (1/time), market periodicity omega (angular frequency)."""

    xi: float
    eta: float
    omega: float

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.xi < 0:
            raise ValueError("xi must be nonnegative")
        if not self.eta > 0:
            raise ValueError("eta must be positive")
        if self.omega < 0:
            raise ValueError("omega must be nonnegative")


_SPECTRUM_KINDS = ("ohmic", "ohmic-lorentz", "composite")


@dataclass(frozen=True)
class BathSpectrum:
    """Bath spectral-density selector.

    kind   : "ohmic", "ohmic-lorentz" or "composite"
    cutoff : angular cutoff frequency, required for "ohmic-lorentz"
    nm     : NonMarkovParams, required for "composite"
    """

    kind: str
    cutoff: float | None = None
    nm: NonMarkovParams | None = None

    def __post_init__(self) -> None:
        if self.kind not in _SPECTRUM_KINDS:
            raise ValueError(f"unknown spectrum kind {self.kind!r}; expected one of {_SPECTRUM_KINDS}")
        if self.kind == "ohmic-lorentz":
            if self.cutoff is None or not self.cutoff > 0:
                raise ValueError("ohmic-lorentz spectrum requires cutoff > 0")
        if self.kind == "composite" and self.nm is None:
            raise ValueError("composite spectrum requires nm parameters")


def acf_model(nm: NonMarkovParams, tau) -> float | np.ndarray:
    """Damped oscillatory return autocorrelation,
    R(tau) = 0.5 xi^2 exp(-eta tau) (cos(2 omega tau) + 1).

    Nonnegative and bounded by xi^2; accepts scalar or array tau >= 0.
    """
    t = _as_nonnegative(tau, "tau")
    out = 0.5 * nm.xi**2 * np.exp(-nm.eta * t) * (np.cos(2.0 * nm.omega * t) + 1.0)
    return _like_input(out, tau)


# hbar^2 Delta and hbar^2 Lambda, the diffusion terms of the master equation,
# do not contain hbar; Delta and Lambda divide them by hbar^2 in np.float64, so
# a tiny hbar gives an inf (or, where hbar^2 underflows to 0, a nan) that the
# CSV writer refuses by name, not an OverflowError or ZeroDivisionError.


def _markov_diffusion(params: ModelParams) -> float:
    return 2.0 * params.M * params.gamma * params.kT


def _delta_prefactor(params: ModelParams, nm: NonMarkovParams) -> float:
    return 2.0 * np.float64(params.M * params.gamma * nm.xi) ** 2


def _lambda_prefactor(params: ModelParams, nm: NonMarkovParams) -> float:
    return 2.0 * params.M * np.float64(params.gamma) ** 2 * np.float64(nm.xi) ** 2


def _over_hbar2(value, params: ModelParams, like) -> float | np.ndarray:
    return _like_input(np.divide(value, np.float64(params.hbar) ** 2), like)


def normal_diffusion(params: ModelParams, nm: NonMarkovParams, t) -> float | np.ndarray:
    """hbar^2 Delta(t), the normal diffusion the dynamics engines integrate.

    Equals the Markovian value 2 M gamma kT at t = 0, grows monotonically and
    saturates at hbar^2 :func:`delta_limit`.
    """
    tt = _as_nonnegative(t, "t")
    eta, om = nm.eta, nm.omega
    pref = _delta_prefactor(params, nm)
    decay = np.exp(-eta * tt)
    one_minus = -np.expm1(-eta * tt)
    brace1 = one_minus / eta
    # 1 - e^{-eta t} (cos 2wt - (2w/eta) sin 2wt), written in cancellation-free form
    brace2 = (eta / (eta**2 + 4.0 * om**2)) * (
        one_minus + decay * 2.0 * np.sin(om * tt) ** 2 + decay * (2.0 * om / eta) * np.sin(2.0 * om * tt)
    )
    out = _markov_diffusion(params) + pref * (brace1 + brace2)
    return _like_input(out, t)


def delta_coefficient(params: ModelParams, nm: NonMarkovParams, t) -> float | np.ndarray:
    """Time-dependent normal diffusion coefficient Delta(t), :func:`normal_diffusion` / hbar^2."""
    return _over_hbar2(normal_diffusion(params, nm, t), params, t)


def delta_limit(params: ModelParams, nm: NonMarkovParams) -> float:
    """Long-time limit of :func:`delta_coefficient`."""
    pref = _delta_prefactor(params, nm)
    limit = _markov_diffusion(params) + pref * (1.0 / nm.eta + nm.eta / (nm.eta**2 + 4.0 * nm.omega**2))
    return _over_hbar2(limit, params, 0.0)


def cross_diffusion(params: ModelParams, nm: NonMarkovParams, t) -> float | np.ndarray:
    """hbar^2 Lambda(t), the cross diffusion the dynamics engines integrate.

    Vanishes identically at t = 0 and for xi = 0, and saturates at
    hbar^2 :func:`lambda_limit`. For eta*t below 1e-6 the value comes from the
    second-order Taylor expansion; the direct expression loses all relative
    precision to cancellation there.
    """
    tt = _as_nonnegative(t, "t")
    eta, om = nm.eta, nm.omega
    b = 2.0 * om
    d = eta**2 + b**2
    pref = _lambda_prefactor(params, nm)

    small = eta * tt < _LAMBDA_SERIES_CUT
    # series: (pref / d^2) t [ -4 eta b^2 + t (eta^4 + 4 eta^2 b^2 - b^4) ]
    # (the trailing +0.0 normalizes -0.0 at t = 0)
    series = (pref / d**2) * tt * (-4.0 * eta * b**2 + tt * (eta**4 + 4.0 * eta**2 * b**2 - b**4)) + 0.0

    decay = np.exp(-eta * tt)
    a_inf = (eta**2 - b**2) / d
    b_inf = 2.0 * eta * b / d
    term1 = (-np.expm1(-eta * tt) - eta * tt * decay) / eta**2
    one_minus_dcos = -np.expm1(-eta * tt) + decay * 2.0 * np.sin(om * tt) ** 2
    term2 = (a_inf * one_minus_dcos - decay * (eta * tt * np.cos(b * tt) + (b_inf + b * tt) * np.sin(b * tt))) / d
    full = pref * (term1 + term2)

    out = np.where(small, series, full)
    return _like_input(out, t)


def lambda_coefficient(params: ModelParams, nm: NonMarkovParams, t) -> float | np.ndarray:
    """Time-dependent cross-diffusion coefficient, :func:`cross_diffusion` / hbar^2."""
    return _over_hbar2(cross_diffusion(params, nm, t), params, t)


def lambda_limit(params: ModelParams, nm: NonMarkovParams) -> float:
    """Long-time limit of :func:`lambda_coefficient`."""
    eta, om = nm.eta, nm.omega
    d = eta**2 + 4.0 * om**2
    c = _lambda_prefactor(params, nm)
    return _over_hbar2(c / eta**2 + c * (eta**2 - 4.0 * om**2) / d**2, params, 0.0)


def spectral_density(params: ModelParams, spec: BathSpectrum, omega) -> float | np.ndarray:
    """Bath spectral density J(omega) for the selected kind.

    ohmic          : 2 M gamma omega / pi
    ohmic-lorentz  : 2 M gamma omega cutoff^2 / (pi (cutoff^2 + omega^2)),
                     evaluated as ohmic / (1 + (omega/cutoff)^2)
    composite      : ohmic plus three Lorentzians of width eta centered at
                     0 (double weight) and +-2 omega_market, each carrying
                     weight M^2 gamma^2 xi^2 eta / (pi kT)
    """
    w = _as_nonnegative(omega, "omega")
    ohmic = 2.0 * params.M * params.gamma * w / math.pi
    if spec.kind == "ohmic":
        out = ohmic
    elif spec.kind == "ohmic-lorentz":
        with np.errstate(over="ignore"):  # omega/cutoff -> inf gives J -> 0, its limit
            out = ohmic / (1.0 + (w / spec.cutoff) ** 2)
    else:
        if params.kT == 0:
            raise ValueError("composite spectral density requires kT > 0")
        nm = spec.nm
        eta2 = nm.eta**2
        weight = params.M**2 * params.gamma**2 * nm.xi**2 * nm.eta / (math.pi * params.kT)
        lorentz = (
            2.0 / (eta2 + w**2)
            + 1.0 / (eta2 + (w - 2.0 * nm.omega) ** 2)
            + 1.0 / (eta2 + (w + 2.0 * nm.omega) ** 2)
        )
        out = ohmic + weight * lorentz * w
    return _like_input(out, omega)


def _thermal_spread(gamma: float, t: np.ndarray) -> np.ndarray:
    """(x - u - u^2/2) / gamma^2 with x = 2 gamma t and u = 1 - e^{-x}: the
    coordinate variance that thermal noise of unit kT/(2 M) builds up over t.

    The bracket equals sum_{n>=3} u^n / n, which is summed directly below
    u = 0.1, where the difference of the three terms would lose most of its
    digits (and could turn negative). There the 1/gamma^2 goes in as
    (u/gamma)^2, which tends to (2t)^2 as gamma -> 0, so no factor overflows
    or underflows at tiny gamma.
    """
    x = 2.0 * gamma * t
    u = -np.expm1(-x)
    series = np.zeros_like(u)
    for n in range(20, 2, -1):  # Horner form of sum_{n=3}^{20} u^(n-2) / n; u^18 < 1e-18
        series = u * (series + 1.0 / n)
    series *= (u / gamma) ** 2
    return np.where(u < 0.1, series, (x - u - 0.5 * u**2) / gamma / gamma)


def variance_closed_form(params: ModelParams, init: SecondMomentInit, t) -> float | np.ndarray:
    """Exact coordinate variance of the damped free model.

    Reduces to the initial value at t = 0; for gamma*t >> 1 the variance grows
    at the classical rate kT/(M gamma) per unit time on top of the floor set
    by the initial momentum spread. The thermal term is kT/(2 M) times
    :func:`_thermal_spread`.
    """
    tt = _as_nonnegative(t, "t")
    g, M = params.gamma, params.M
    relax = -np.expm1(-2.0 * g * tt) / g / (2.0 * M)
    thermal = (params.kT / (2.0 * M)) * _thermal_spread(g, tt)
    out = init.sx2_0 + relax**2 * init.sp2_0 + relax * init.spx_0 + thermal
    return _like_input(out, t)


def variance_short_time(params: ModelParams, sx2_0: float, t) -> float | np.ndarray:
    """Short-time variance expansion for a minimal-uncertainty initial state:
    sx2(0) + hbar^2 t^2 / (M^2 sx2(0)) + 4 kT gamma t^3 / (3 M).

    The quadratic term is the wave-packet broadening set by the uncertainty
    floor; the cubic term is the onset of relaxation.
    """
    if not sx2_0 > 0:
        raise ValueError("sx2_0 must be positive")
    tt = _as_nonnegative(t, "t")
    hbar, M = np.float64(params.hbar), np.float64(params.M)  # their squares overflow to inf, not OverflowError
    out = (
        sx2_0
        + hbar**2 * tt**2 / (M**2 * sx2_0)
        + 4.0 * params.kT * params.gamma * tt**3 / (3.0 * params.M)
    )
    return _like_input(out, t)


def classical_variance(params: ModelParams, t) -> float | np.ndarray:
    """Classical random-walk variance kT/(M gamma) * t."""
    tt = _as_nonnegative(t, "t")
    out = (params.kT / (params.M * params.gamma)) * tt
    return _like_input(out, t)


def minimal_uncertainty_momentum(params: ModelParams, sx2_0: float) -> float:
    """Momentum variance saturating the uncertainty bound: hbar^2/(4 sx2_0)."""
    if not sx2_0 > 0:
        raise ValueError("sx2_0 must be positive")
    sp2_0 = np.float64(params.hbar) ** 2 / (4.0 * sx2_0)  # overflows to inf, not OverflowError
    if not math.isfinite(sp2_0) or sp2_0 == 0:
        fault = "underflows to 0" if sp2_0 == 0 else "overflows"
        raise NumericalError(f"minimal-uncertainty sp2_0 = hbar^2/(4 sx2_0) {fault} at hbar = {params.hbar:g}")
    return float(sp2_0)
