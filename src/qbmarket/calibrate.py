"""Fitting model parameters to empirical statistics.

fit_acf recovers the damped oscillatory autocorrelation triple (xi, eta,
omega) from a lag-ACF estimate by damped nonlinear least squares. The model is
multimodal in the frequency, so initialization does the heavy lifting: the
amplitude seeds from the smallest positive lag, the decay rate from the
log-slope of the upper envelope, and the frequency from the first local
maximum refined by the periodogram peak, with a deterministic coarse frequency
grid as fallback when the peak is ambiguous.

Lag 0 is always excluded from the ACF fit: it carries the white-noise Dirac
weight of the noise kernel and would bias the amplitude upward.

All fitters are deterministic given identical inputs and options. Fitted rates
are per minute when the input lags are minutes; feeding them to the model
coefficient functions declares the model time unit to be one minute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, InsufficientDataError
from .market import AcfEstimate, _ols_line
from .model import NonMarkovParams, acf_model

__all__ = [
    "AcfFit",
    "PowerLawFit",
    "DecayFit",
    "fit_acf",
    "fit_power_law",
    "fit_kurtosis_decay",
]

# Convergence policy: relative step below 1e-10 or relative residual change
# below 1e-12, at most 200 iterations (~4 evaluations each for the 3-parameter
# trust-region steps).
_XTOL = 1e-10
_FTOL = 1e-12
_MAX_NFEV = 800
ETA_MAX_PER_MIN = 1.0


@dataclass(frozen=True)
class AcfFit:
    """Result of the autocorrelation fit."""

    nm: NonMarkovParams
    residual: float
    stderr: tuple[float, float, float] | None
    iterations: int
    converged: bool
    diagnostic: str | None = None
    guess: NonMarkovParams | None = None


@dataclass(frozen=True)
class PowerLawFit:
    """Ordinary least squares of log(value) on log(tau)."""

    exponent: float
    prefactor: float
    exponent_stderr: float
    residual: float


@dataclass(frozen=True)
class DecayFit:
    """Exponential-decay fit kappa(tau) = amplitude * exp(-rate * tau), done by
    least squares on the log of the positive points."""

    amplitude: float
    rate: float
    residual: float
    converged: bool
    n_used: int
    n_excluded: int
    diagnostic: str | None = None


def _local_maxima(values: np.ndarray) -> np.ndarray:
    idx = []
    for i in range(1, len(values) - 1):
        if values[i] > values[i - 1] and values[i] > values[i + 1]:
            idx.append(i)
    return np.asarray(idx, dtype=int)


def _auto_guess(lags: np.ndarray, values: np.ndarray, omega_nyquist: float) -> tuple[NonMarkovParams, bool]:
    """Deterministic starting point; second element reports whether the
    periodogram peak was unambiguous."""
    xi2 = float(values[0])
    if xi2 <= 0:
        xi2 = float(max(values.max(), 0.0))
    xi0 = math.sqrt(xi2) if xi2 > 0 else 0.0

    maxima = _local_maxima(values)
    maxima = maxima[values[maxima] > 0]
    if len(maxima) >= 2:
        slope, _ = np.polyfit(lags[maxima], np.log(values[maxima]), 1)
        eta0 = float(np.clip(-slope, 1e-6, ETA_MAX_PER_MIN))
    else:
        eta0 = float(np.clip(2.0 / (lags[-1] - lags[0]), 1e-6, ETA_MAX_PER_MIN))

    omega0 = math.pi / float(lags[maxima[0]]) if len(maxima) else 0.25 * omega_nyquist

    # periodogram of the (approximately) uniform lag series; the oscillatory
    # part of the ACF sits at angular frequency 2*omega
    clear_peak = False
    step = float(np.min(np.diff(lags)))
    uniform = np.allclose(np.diff(lags), step)
    if uniform and len(values) >= 16:
        detrended = values - values.mean()
        power = np.abs(np.fft.rfft(detrended)) ** 2
        if len(power) > 3:
            interior = power[1:]
            k_star = 1 + int(np.argmax(interior))
            med = float(np.median(interior))
            if med > 0 and power[k_star] > 4.0 * med:
                clear_peak = True
                freq = 2.0 * math.pi * k_star / (len(values) * step)
                omega0 = freq / 2.0
    omega0 = float(np.clip(omega0, 0.0, omega_nyquist * (1.0 - 1e-9)))
    return NonMarkovParams(xi=xi0, eta=eta0, omega=omega0), clear_peak


def fit_acf(
    acf: AcfEstimate,
    guess: NonMarkovParams | str = "auto",
    weights: str = "uniform",
) -> AcfFit:
    """Nonlinear least squares of the damped oscillatory ACF model against an
    estimate, excluding lag 0.

    weights "uniform" fits raw residuals; "count-weighted" scales each
    residual by sqrt(count / mean count). Non-convergence is reported in the
    result, never silently replaced by a fallback. Ties between frequency
    candidates are broken toward the smallest frequency.
    """
    if weights not in ("uniform", "count-weighted"):
        raise ValueError(f"unknown weights {weights!r}")
    positive = acf.lags > 0
    lags = acf.lags[positive].astype(float)
    values = acf.values[positive]
    counts = acf.counts[positive].astype(float)
    if len(lags) < 10:
        raise InsufficientDataError("ACF fit needs at least 10 positive lags with pairs")

    scale = float(np.max(np.abs(values)))
    if scale == 0.0:
        return AcfFit(
            nm=NonMarkovParams(xi=0.0, eta=1e-6, omega=0.0),
            residual=0.0,
            stderr=None,
            iterations=0,
            converged=False,
            diagnostic="degenerate fit: ACF is identically zero, omega unidentifiable",
        )

    w = np.sqrt(counts / counts.mean()) if weights == "count-weighted" else np.ones_like(values)
    omega_nyquist = math.pi / acf.base_minutes

    if isinstance(guess, NonMarkovParams):
        start, clear_peak = guess, True
    else:
        start, clear_peak = _auto_guess(lags, values, omega_nyquist)

    def residuals(theta: np.ndarray) -> np.ndarray:
        nm = NonMarkovParams(xi=max(theta[0], 0.0), eta=max(theta[1], 1e-300), omega=max(theta[2], 0.0))
        return w * (acf_model(nm, lags) - values)

    lower = np.array([0.0, 1e-12, 0.0])
    upper = np.array([np.inf, ETA_MAX_PER_MIN, omega_nyquist * (1.0 - 1e-12)])

    candidates = [start]
    if not clear_peak:
        for om in np.linspace(0.0, omega_nyquist, 15)[1:-1]:
            candidates.append(NonMarkovParams(xi=start.xi, eta=start.eta, omega=float(om)))

    from scipy.optimize import least_squares  # here, not at the top: `import qbmarket` loads numpy only

    best = None
    for cand in candidates:
        x0 = np.clip(
            np.array([cand.xi, cand.eta, cand.omega]),
            lower,
            np.minimum(upper, [np.finfo(float).max, ETA_MAX_PER_MIN, omega_nyquist * (1 - 1e-9)]),
        )
        res = least_squares(
            residuals,
            x0,
            bounds=(lower, upper),
            method="trf",
            xtol=_XTOL,
            ftol=_FTOL,
            gtol=None,
            max_nfev=_MAX_NFEV,
        )
        cost = 2.0 * res.cost
        if best is None or cost < best[0] * (1.0 - 1e-12) or (
            abs(cost - best[0]) <= best[0] * 1e-12 and res.x[2] < best[1].x[2]
        ):
            best = (cost, res)

    cost, res = best
    converged = res.status > 0
    sse_start = float(np.sum(residuals(np.array([start.xi, start.eta, start.omega])) ** 2))
    if converged and cost > sse_start * (1.0 + 1e-9):
        converged = False

    stderr = None
    dof = len(lags) - 3
    if dof > 0:
        try:
            jtj = res.jac.T @ res.jac
            cov = np.linalg.inv(jtj) * (cost / dof)
            diag = np.diag(cov)
            if np.all(diag >= 0):
                stderr = tuple(float(s) for s in np.sqrt(diag))
        except np.linalg.LinAlgError:
            stderr = None

    nm = NonMarkovParams(xi=float(res.x[0]), eta=float(res.x[1]), omega=float(res.x[2]))
    diagnostic = None if converged else f"did not converge: {res.message}"
    return AcfFit(
        nm=nm,
        residual=float(cost),
        stderr=stderr,
        iterations=int(res.nfev),
        converged=converged,
        diagnostic=diagnostic,
        guess=start,
    )


def fit_power_law(taus, values) -> PowerLawFit:
    """Ordinary least squares of log(value) on log(tau): value = c * tau^a.
    Requires at least 3 pairs, all positive."""
    x = np.asarray(taus, dtype=float)
    y = np.asarray(values, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("taus and values must be 1-d arrays of equal length")
    if len(x) < 3:
        raise InsufficientDataError("power-law fit needs at least 3 points")
    if np.any(x <= 0) or np.any(y <= 0):
        raise DegenerateDataError("power-law fit requires positive taus and values")
    slope, intercept, stderr, sse = _ols_line(np.log(x), np.log(y))
    return PowerLawFit(exponent=slope, prefactor=math.exp(intercept), exponent_stderr=stderr, residual=sse)


def fit_kurtosis_decay(taus, kappas) -> DecayFit:
    """Least squares of kappa = A exp(-r tau) on the log of the positive
    points. Non-positive kurtosis points are excluded with a diagnostic;
    fewer than 5 positive points is refused. A non-positive fitted rate is
    reported as unconverged."""
    x = np.asarray(taus, dtype=float)
    y = np.asarray(kappas, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("taus and kappas must be 1-d arrays of equal length")
    keep = y > 0
    n_excluded = int(np.sum(~keep))
    x, y = x[keep], y[keep]
    if len(x) < 5:
        raise InsufficientDataError(
            f"kurtosis decay fit needs at least 5 positive points, got {len(x)} "
            f"({n_excluded} non-positive excluded)"
        )
    slope, intercept, _, sse = _ols_line(x, np.log(y))
    rate = -slope
    converged = rate > 0
    return DecayFit(
        amplitude=math.exp(intercept),
        rate=rate,
        residual=sse,
        converged=converged,
        n_used=len(x),
        n_excluded=n_excluded,
        diagnostic=None if converged else "fitted rate is non-positive (data not decaying)",
    )
