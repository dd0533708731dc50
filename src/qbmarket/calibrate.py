"""Fitting model parameters to empirical statistics.

fit_acf recovers the damped oscillatory autocorrelation triple (xi, eta,
omega) from a lag-ACF estimate by variable projection: the model
xi^2 u(tau; eta, omega) is linear in the amplitude xi^2, whose best
nonnegative value has a closed form at every (eta, omega), so a
Levenberg-Marquardt descent runs in (eta, omega) alone. The model is
multimodal in the frequency, so initialization does the heavy lifting: the
decay rate seeds from the log-slope of the upper envelope and the frequency
from the first local maximum refined by the periodogram peak, with a
deterministic coarse frequency grid as fallback when the peak is ambiguous or
the best amplitude at the start is zero, and a second descent from the
periodogram's next clear peak, if any. The starting amplitude, from the
smallest positive lag, sets the cost the fit must not end above.

Lag 0 is always excluded from the ACF fit: it carries the white-noise Dirac
weight of the noise kernel and would bias the amplitude upward.

All fitters are deterministic given identical inputs and options. Fitted rates
are per minute when the input lags are minutes; feeding them to the model
coefficient functions declares the model time unit to be one minute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import DegenerateDataError, InsufficientDataError
from .model import NonMarkovParams, acf_model

if TYPE_CHECKING:
    from .market import AcfEstimate

__all__ = [
    "AcfFit",
    "PowerLawFit",
    "DecayFit",
    "fit_acf",
    "fit_power_law",
    "fit_kurtosis_decay",
]

# Convergence policy of each frequency candidate's descent in (eta, omega): a
# step below 1e-10 relative to the point, or an accepted step that lowers the
# cost by less than 1e-12 relative; at most 800 model evaluations, one a step.
_XTOL = 1e-10
_FTOL = 1e-12
_MAX_NFEV = 800
ETA_MAX_PER_MIN = 1.0
_LOWER = np.array([1e-12, 0.0])  # eta, omega


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


def _ols_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float, float]:
    """Least-squares line through at least 2 points: slope, intercept, slope
    standard error (inf through 2 points or one x) and the residual sum of
    squares."""
    n = len(x)
    a = np.vstack([x, np.ones(n)]).T
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    resid = y - a @ coef
    sse = float(resid @ resid)
    sxx = float(np.sum((x - x.mean()) ** 2))
    stderr = math.sqrt(sse / (n - 2) / sxx) if sxx > 0 and n > 2 else float("inf")
    return float(coef[0]), float(coef[1]), stderr, sse


def _local_maxima(values: np.ndarray) -> np.ndarray:
    """Indices of the values above both neighbours."""
    middle = values[1:-1]
    return np.flatnonzero((middle > values[:-2]) & (middle > values[2:])) + 1


def _median(x: np.ndarray) -> float:
    """np.median(x) of finite x, bit for bit: the mean of the middle one or
    two values of one np.partition. np.median imports numpy.ma for its NaN
    check, which no other step of a command loads."""
    middle = sorted({(len(x) - 1) // 2, len(x) // 2})
    return float(np.partition(x, middle)[middle[0] : middle[-1] + 1].mean())


def _auto_guess(lags: np.ndarray, values: np.ndarray, omega_nyquist: float) -> tuple[NonMarkovParams, list[float]]:
    """Deterministic starting point, and the frequencies of the periodogram's
    clear peaks (above 4 times its median): the strongest, which the start
    takes, and the strongest other local maximum. None where the peak is
    ambiguous."""
    xi2 = float(values[0])
    if xi2 <= 0:
        xi2 = float(max(values.max(), 0.0))
    xi0 = math.sqrt(xi2) if xi2 > 0 else 0.0

    maxima = _local_maxima(values)
    maxima = maxima[values[maxima] > 0]
    if len(maxima) >= 2:
        slope, *_ = _ols_line(lags[maxima], np.log(values[maxima]))
        eta0 = float(np.clip(-slope, 1e-6, ETA_MAX_PER_MIN))
    else:
        eta0 = float(np.clip(2.0 / (lags[-1] - lags[0]), 1e-6, ETA_MAX_PER_MIN))

    omega0 = math.pi / float(lags[maxima[0]]) if len(maxima) else 0.25 * omega_nyquist

    # periodogram of the (approximately) uniform lag series; the oscillatory
    # part of the ACF sits at angular frequency 2*omega
    peaks: list[float] = []
    step = float(np.min(np.diff(lags)))
    uniform = np.allclose(np.diff(lags), step)
    if uniform and len(values) >= 16:
        detrended = values - values.mean()
        power = np.abs(np.fft.rfft(detrended)) ** 2
        if len(power) > 3:
            interior = power[1:]
            k_star = 1 + int(np.argmax(interior))
            med = _median(interior)
            if med > 0 and power[k_star] > 4.0 * med:
                others = [k for k in _local_maxima(power) if k != k_star and power[k] > 4.0 * med]
                bins = [k_star] + sorted(others, key=lambda k: -power[k])[:1]
                peaks = [math.pi * k / (len(values) * step) for k in bins]
                omega0 = peaks[0]
    omega0 = float(np.clip(omega0, 0.0, omega_nyquist * (1.0 - 1e-9)))
    return NonMarkovParams(xi=xi0, eta=eta0, omega=omega0), peaks


class _Descent(NamedTuple):
    """One frequency candidate's local fit in (eta, omega)."""

    theta: np.ndarray
    shape: np.ndarray  # the weighted model at xi = 1
    amplitude: float  # xi^2, the best nonnegative one at theta
    cost: float
    nfev: int
    converged: bool
    start_clamped: bool


def _shape_derivatives(tau: np.ndarray, w: np.ndarray, shape: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Columns d/d eta and d/d omega of shape = w 0.5 exp(-eta tau) (cos 2 omega tau + 1)."""
    eta, omega = theta
    return np.column_stack([-tau * shape, -w * tau * np.exp(-eta * tau) * np.sin(2.0 * omega * tau)])


def _descend(tau: np.ndarray, v: np.ndarray, w: np.ndarray, theta: np.ndarray, upper: np.ndarray) -> _Descent:
    """Levenberg-Marquardt in theta = (eta, omega) on the residual a u(theta) - v,
    with the amplitude a = xi^2 projected out (variable projection, Golub &
    Pereyra 1973, with Kaufman's 1975 Jacobian a (I - u u^T / |u|^2) du).

    Where the best amplitude <u, v> / |u|^2 is positive the descent uses it.
    Where it clamps to zero the cost is flat in theta, so the descent steers
    with a = |v| / |u|: that residual shrinks as u turns toward v, and every
    point with a positive amplitude costs less than every clamped one.
    """
    vv = float(v @ v)
    nfev = 0

    def evaluate(th: np.ndarray):
        nonlocal nfev
        nfev += 1
        u = w * acf_model(NonMarkovParams(xi=1.0, eta=float(th[0]), omega=float(th[1])), tau)
        uu = float(u @ u)
        if not uu > 0:  # the model underflows at every lag: a point no step may take
            return u, 0.0, -v, math.inf, None
        free = float(u @ v) / uu
        steer = free if free > 0 else math.sqrt(vv / uu)
        r = steer * u - v
        du = _shape_derivatives(tau, w, u, th)
        return u, free, r, float(r @ r), steer * (du - np.outer(u, (u @ du) / uu))

    u, free, r, merit, jac = evaluate(theta)
    start_clamped = free <= 0
    scale = np.zeros(2)
    lam, growth = 1e-3, 2.0
    converged = False
    while nfev < _MAX_NFEV and jac is not None:
        grad = jac.T @ r
        hess = jac.T @ jac
        scale = np.maximum(scale, np.sqrt(np.diag(hess)))
        # a parameter on a bound that the gradient pushes beyond stays there
        move = ~(((theta <= _LOWER) & (grad > 0)) | ((theta >= upper) & (grad < 0)))
        if not np.any(grad[move]):
            converged = True
            break
        damped = hess + lam * np.diag(np.where(scale > 0, scale, 1.0) ** 2)
        step = np.zeros(2)
        step[move] = np.linalg.solve(damped[np.ix_(move, move)], -grad[move])
        trial = np.clip(theta + step, _LOWER, upper)
        step = trial - theta
        predicted = -(2.0 * grad @ step + step @ hess @ step)
        t_u, t_free, t_r, t_merit, t_jac = evaluate(trial)
        actual = merit - t_merit
        if predicted > 0 and actual > 1e-4 * predicted:
            lam *= max(1.0 / 3.0, 1.0 - (2.0 * actual / predicted - 1.0) ** 3)
            growth = 2.0
            settled = actual <= _FTOL * merit
            theta, u, free, r, merit, jac = trial, t_u, t_free, t_r, t_merit, t_jac
            if settled:
                converged = True
                break
        else:
            lam *= growth
            growth *= 2.0
        if np.linalg.norm(step) <= _XTOL * (_XTOL + np.linalg.norm(theta)):
            converged = True
            break

    amplitude = max(free, 0.0)
    cost = float(np.sum((amplitude * u - v) ** 2))
    return _Descent(theta, u, amplitude, cost, nfev, converged, start_clamped)


def fit_acf(
    acf: AcfEstimate,
    guess: NonMarkovParams | str = "auto",
    weights: str = "uniform",
) -> AcfFit:
    """Nonlinear least squares of the damped oscillatory ACF model against an
    estimate, excluding lag 0.

    weights "uniform" fits raw residuals; "count-weighted" scales each
    residual by sqrt(count / mean count). Non-convergence is reported in the
    result, never silently replaced by a fallback, and the diagnostic names an
    eta or omega that the fit left on its bound. Ties between the coarse
    grid's frequency candidates are broken toward the smallest frequency; a
    descent from the periodogram's second peak wins only at a lower cost.
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
    v = w * values
    omega_nyquist = math.pi / acf.base_minutes

    if isinstance(guess, NonMarkovParams):
        start, peaks = guess, [guess.omega]
    else:
        start, peaks = _auto_guess(lags, values, omega_nyquist)

    upper = np.array([ETA_MAX_PER_MIN, omega_nyquist * (1.0 - 1e-12)])
    inner = np.array([ETA_MAX_PER_MIN, omega_nyquist * (1.0 - 1e-9)])

    def run(omega: float) -> _Descent:
        return _descend(lags, v, w, np.clip([start.eta, omega], _LOWER, inner), upper)

    best = run(start.omega)
    # a start whose best amplitude is zero says nothing about the frequency,
    # so it is searched like an ambiguous periodogram peak
    if not peaks or best.start_clamped:
        for om in np.linspace(0.0, omega_nyquist, 15)[1:-1]:
            cand = run(float(om))
            if cand.cost < best.cost * (1.0 - 1e-12) or (
                abs(cand.cost - best.cost) <= best.cost * 1e-12 and cand.theta[1] < best.theta[1]
            ):
                best = cand
    # of two near-equal peaks the weaker may be the oscillation, the other the decay's lowest bin
    for om in peaks[1:]:
        cand = run(om)
        if cand.cost < best.cost * (1.0 - 1e-12):
            best = cand

    eta, omega = (float(x) for x in best.theta)
    nm = NonMarkovParams(xi=math.sqrt(best.amplitude), eta=eta, omega=omega)
    converged = best.converged
    sse_start = float(np.sum((w * acf_model(start, lags) - v) ** 2))
    diagnostic = None if converged else f"did not converge ({best.nfev} model evaluations)"
    # a cost is known to within rounding, about eps^2 |v|^2
    slack = np.finfo(float).eps ** 2 * float(v @ v)
    if converged and best.cost > sse_start * (1.0 + 1e-9) + slack:
        converged = False
        diagnostic = "did not converge: residual above the starting guess"
    # a parameter the descent left on a bound was set by the bound, not the data
    on_bound = [
        f"{name} = {value:.6g} is on its {'lower' if value <= low else 'upper'} bound"
        for name, value, low, high in zip(("eta", "omega"), (eta, omega), _LOWER, upper)
        if value <= low or value >= high
    ]
    diagnostic = "; ".join(([diagnostic] if diagnostic else []) + on_bound) or None

    stderr = None
    dof = len(lags) - 3
    if dof > 0:
        # the model xi^2 u(eta, omega) differentiated in (xi, eta, omega)
        jac = np.column_stack(
            [2.0 * nm.xi * best.shape, best.amplitude * _shape_derivatives(lags, w, best.shape, best.theta)]
        )
        try:
            cov = np.linalg.inv(jac.T @ jac) * (best.cost / dof)
            diag = np.diag(cov)
            if np.all(diag >= 0):
                stderr = tuple(float(s) for s in np.sqrt(diag))
        except np.linalg.LinAlgError:
            stderr = None

    return AcfFit(
        nm=nm,
        residual=best.cost,
        stderr=stderr,
        iterations=best.nfev,
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
