"""Minute-bar series, return statistics, and synthetic series.

Holds the validated price series (csvio.load_prices reads one from CSV),
computes log-return samples at a horizon, drift/volatility scaling, density
histograms, lag autocorrelations and horizon kurtosis, and generates seeded
synthetic series for testing the pipeline end to end. All estimators are pure
functions over immutable series.

Session handling: returns are paired intraday-only by default (pairs spanning
a session boundary are dropped) because session-spanning returns mix
closed-market information into short lags; "contiguous" pairing is available
for sensitivity checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Callable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, DegenerateDataError, InsufficientDataError, NumericalError
from .model import NonMarkovParams

__all__ = [
    "PriceSeries", "ReturnSeries", "AcfEstimate", "ScalingResult", "HistogramResult", "KurtosisResult",
    "log_returns", "drift_vol_scaling", "return_histogram", "empirical_acf", "empirical_kurtosis", "synth_gbm",
    "synth_colored",
]

# Synthetic series start on an arbitrary fixed Monday morning.
SYNTH_START_MINUTE = int(datetime(2000, 1, 3, 9, 30, tzinfo=timezone.utc).timestamp()) // 60

PAIRING_POLICIES = ("intraday-only", "contiguous")

# samples of _complex_ar1's input converted to Python numbers at a time
_AR_BLOCK = 4096


def _freeze(result: object, **dtypes: type) -> None:
    """Set each named field of a frozen dataclass to a read-only array of the
    given dtype."""
    for name, dtype in dtypes.items():
        arr = np.asarray(getattr(result, name), dtype=dtype)
        arr.setflags(write=False)
        object.__setattr__(result, name, arr)


@dataclass(frozen=True)
class PriceSeries:
    """Validated minute-bar price series.

    times        : minutes since epoch, strictly increasing int64
    close        : positive prices
    session_idx  : session index per row, counting from 0; a session is a run
                   of rows, so it never decreases
    base_minutes : bar resolution (gcd of within-session spacings)
    """

    times: np.ndarray
    close: np.ndarray
    session_idx: np.ndarray
    base_minutes: int

    def __post_init__(self) -> None:
        _freeze(self, times=np.int64, close=float, session_idx=np.int64)
        if len(self.times) == 0:
            raise DataError("empty price series")
        if np.any(self.close <= 0):
            raise DataError("prices must be positive")
        if np.any(self.times[1:] <= self.times[:-1]):
            raise DataError("timestamps must be strictly increasing")
        if np.any(self.session_idx[1:] < self.session_idx[:-1]):
            raise DataError("session_idx must not decrease: a session is a run of rows")

    def __len__(self) -> int:
        return len(self.times)

    def log_price(self) -> np.ndarray:
        return np.log(self.close)

    @classmethod
    def synthetic(cls, s0: float, increments: np.ndarray, dt_minutes: int) -> "PriceSeries":
        """One-session series of bars dt_minutes apart from SYNTH_START_MINUTE:
        price s0 at the first bar, then each log increment in turn. A price
        that exp takes out of the positive finite range is a numerical failure
        of the generator, not bad data."""
        # each column is built in place: a temporary here would set synth's peak memory
        log_price = np.empty(len(increments) + 1)
        log_price[0] = 0.0
        np.cumsum(increments, out=log_price[1:])
        log_price += math.log(s0)
        close = np.exp(log_price)
        bad = np.flatnonzero(~((close > 0) & (close < math.inf)))
        if bad.size:
            i = bad[0]
            raise NumericalError(f"synthetic price of bar {i} is {close[i]:g}, outside the positive finite range "
                                 f"(log price {log_price[i]:.6g})")
        del log_price
        times = np.arange(len(close), dtype=np.int64)
        times *= dt_minutes
        times += SYNTH_START_MINUTE
        return cls(
            times=times,
            close=close,
            session_idx=np.zeros(len(times), dtype=np.int64),
            base_minutes=int(dt_minutes),
        )


@dataclass(frozen=True)
class ReturnSeries:
    """Log-return samples at a fixed horizon.

    values are tau-normalized returns [ln S(t+tau) - ln S(t)] / tau; times are
    the anchor minute of each sample, strictly increasing, and session_idx
    its session, which never decreases (a session is a run of rows). When
    drift_removed is set the sample mean has been subtracted.
    """

    values: np.ndarray
    drift_removed: bool
    times: np.ndarray
    session_idx: np.ndarray
    base_minutes: int
    policy: str

    def __post_init__(self) -> None:
        _freeze(self, values=float, times=np.int64, session_idx=np.int64)
        if self.policy not in PAIRING_POLICIES:
            raise ValueError(f"unknown pairing policy {self.policy!r}")
        if np.any(self.times[1:] <= self.times[:-1]):
            raise ValueError("times must be strictly increasing")
        if np.any(self.session_idx[1:] < self.session_idx[:-1]):
            raise ValueError("session_idx must not decrease: a session is a run of rows")

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class AcfEstimate:
    """Lag autocorrelation estimates of a return series.

    values carry the dimensional convention (mean product of returns, units
    [ln S]^2 min^-2). Only lags with at least one admissible pair are
    reported; empty lags are listed in omitted_lags.
    """

    lags: np.ndarray
    values: np.ndarray
    counts: np.ndarray
    stderr: np.ndarray
    base_minutes: int
    omitted_lags: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        _freeze(self, lags=np.int64, values=float, counts=np.int64, stderr=float)
        if np.any(self.counts <= 0):
            raise ValueError("reported lags must have positive pair counts")


def _slots(times: np.ndarray, labels: np.ndarray | None, max_lag: int) -> tuple[int, np.ndarray]:
    """(unit, pos): the slot layout on which every statistic pairs rows at
    lags up to max_lag minutes. Times strictly increase and labels never
    decrease, as the series types check: a session is a run of rows.

    Row i lies on slot pos[i] of the unit, the gcd time step, with every gap
    longer than the largest lag K = max_lag // unit shrunk to K + 1 slots and
    K + 1 slots between sessions, so no pair at a lag up to K units crosses
    either: two rows lie k <= K units apart and share a label (any two rows
    where labels is None) exactly when their slots are k apart.
    """
    pos = np.zeros(len(times), dtype=np.int64)
    steps = np.subtract(times[1:], times[:-1], out=pos[1:])
    unit = int(np.gcd.reduce(steps)) or 1
    k_max = max_lag // unit
    steps //= unit
    np.minimum(steps, k_max + 1, out=steps)
    if labels is not None:
        steps[labels[1:] != labels[:-1]] = k_max + 1
    np.cumsum(pos, out=pos)
    return unit, pos


def _pairs(
    times: np.ndarray, labels: np.ndarray | None, lags: Sequence[int]
) -> tuple[Callable[[np.ndarray], np.ndarray], Iterator[tuple[int, np.ndarray | None]]]:
    """The pairs of rows whose times are lag minutes apart and that share a
    label (every such pair where labels is None), on the slots of _slots.

    Returns (place, pairs). place(x) lays a per-row array on the slots, 0 at
    empty ones (x itself where the rows fill every slot). pairs yields
    (k, mask) for each lag in turn: in a placed x, the lag's anchors are
    _anchors(x, k, mask), in time order. The pairs are the held slots s with
    s + k held: mask selects them (None where the rows fill every slot), a
    view of one buffer that the next lag overwrites. A lag off the unit or
    past the last slot has k = the slot count, which leaves no pair.
    """
    lags = [int(lag) for lag in lags]
    if any(lag < 0 for lag in lags):
        raise ValueError("lags must be nonnegative")
    unit, pos = _slots(times, labels, max(lags, default=0))
    n_slots = int(pos[-1]) + 1
    ks = [min(lag // unit, n_slots) if lag % unit == 0 else n_slots for lag in lags]
    if n_slots == len(times):
        return (lambda x: x), ((k, None) for k in ks)

    def place(x: np.ndarray) -> np.ndarray:
        out = np.zeros(n_slots, dtype=x.dtype)
        out[pos] = x
        return out

    def pairs() -> Iterator[tuple[int, np.ndarray]]:
        held = np.zeros(n_slots, dtype=bool)
        held[pos] = True
        buf = np.empty(n_slots, dtype=bool)
        for k in ks:
            yield k, np.logical_and(held[k:], held[: n_slots - k], out=buf[: n_slots - k])

    return place, pairs()


def _anchors(x: np.ndarray, k: int, mask: np.ndarray | None) -> np.ndarray:
    """Anchor values, in a placed array x, of the pairs at one lag of
    _pairs."""
    anchors = x[: len(x) - k]
    return anchors if mask is None else anchors[mask]


def _differences(x: np.ndarray, k: int, mask: np.ndarray | None) -> np.ndarray:
    """Partner less anchor values, in a placed array x, of the pairs at one
    lag of _pairs, in a new array: one subtraction over the slots, then one
    gather of the pairs where there is a mask."""
    return _anchors(x[k:] - x[: len(x) - k], 0, mask)


def _check_tau(series: PriceSeries, tau_minutes: int, policy: str) -> None:
    if policy not in PAIRING_POLICIES:
        raise ValueError(f"unknown pairing policy {policy!r}")
    if tau_minutes <= 0 or tau_minutes % series.base_minutes != 0:
        raise ValueError(
            f"tau must be a positive multiple of the base resolution ({series.base_minutes} min)"
        )


def _increments(series: PriceSeries, taus: list[int], policy: str) -> Iterator[tuple[int, np.ndarray]]:
    """(tau, ln S(t+tau) - ln S(t) over the admissible pairs) for each horizon
    in turn, every horizon checked before the first is paired."""
    for tau in taus:
        _check_tau(series, tau, policy)
    labels = series.session_idx if policy == "intraday-only" else None
    place, pairs = _pairs(series.times, labels, taus)
    lp = place(series.log_price())
    for tau, pair in zip(taus, pairs):
        yield tau, _differences(lp, *pair)


def log_returns(
    series: PriceSeries,
    tau_minutes: int,
    policy: str = "intraday-only",
    remove_drift: bool = True,
) -> ReturnSeries:
    """Tau-normalized log returns [ln S(t+tau) - ln S(t)] / tau, one sample
    per admissible bar pair. Drift removal subtracts the sample mean."""
    _check_tau(series, tau_minutes, policy)
    labels = series.session_idx if policy == "intraday-only" else None
    place, pairs = _pairs(series.times, labels, [tau_minutes])
    [pair] = pairs
    values = _differences(place(series.log_price()), *pair)
    values /= float(tau_minutes)
    if len(values) == 0:
        exceeds = ": horizon exceeds every session" if policy == "intraday-only" else ""
        raise DataError(f"no admissible pairs at tau = {tau_minutes} min{exceeds}")
    if remove_drift:
        values -= values.mean()
    return ReturnSeries(
        values=values,
        drift_removed=remove_drift,
        times=_anchors(place(series.times), *pair),
        session_idx=_anchors(place(series.session_idx), *pair),
        base_minutes=series.base_minutes,
        policy=policy,
    )


@dataclass(frozen=True)
class ScalingResult:
    """Per-horizon drift and volatility of un-normalized increments: the
    columns of `qbm analyze`'s scaling table.

    mean_increment is the raw sample mean of ln S(t+tau) - ln S(t); mu is the
    drift-rate estimate mean + sigma^2/2, which grows linearly in tau with
    slope equal to the price drift rate. The exponent of sigma(tau) is fitted
    from this table by calibrate.fit_power_law.
    """

    taus: np.ndarray
    mean_increment: np.ndarray
    sigma: np.ndarray
    mu: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        _freeze(self, taus=np.int64, mean_increment=float, sigma=float, mu=float, counts=np.int64)


def _mean_std(x: np.ndarray) -> tuple[float, float]:
    """x.mean() and x.std(ddof=1), bit for bit (the std is nan for one
    element), summing x once for both; x is overwritten with its squared
    deviations."""
    n = len(x)
    mean = np.add.reduce(x) / n
    if n < 2:
        return float(mean), math.nan
    x -= mean
    x *= x
    return float(mean), math.sqrt(np.add.reduce(x) / (n - 1))


def drift_vol_scaling(
    series: PriceSeries, taus: Sequence[int], policy: str = "intraday-only"
) -> ScalingResult:
    """Mean and standard deviation of un-normalized increments, and the drift
    estimate mu, per horizon. Requires at least 3 horizons, and refuses a zero
    volatility, on which no power law in tau can be fitted."""
    taus = [int(t) for t in taus]
    if len(taus) < 3:
        raise InsufficientDataError("drift/vol scaling needs at least 3 horizons")
    means, sigmas, counts = [], [], []
    for tau, inc in _increments(series, taus, policy):
        if len(inc) < 2:
            raise InsufficientDataError(f"fewer than 2 increments at tau = {tau} min")
        mean, sigma = _mean_std(inc)
        means.append(mean)
        sigmas.append(sigma)
        counts.append(len(inc))
    sigma_arr = np.asarray(sigmas)
    mean_arr = np.asarray(means)
    if np.any(sigma_arr <= 1e-12 * np.maximum(np.abs(mean_arr), 1e-300)):
        raise DegenerateDataError(
            "zero volatility at some horizon: sigma(tau) has no power law (deterministic price path?)"
        )
    return ScalingResult(
        taus=np.asarray(taus, dtype=np.int64),
        mean_increment=mean_arr,
        sigma=sigma_arr,
        mu=mean_arr + sigma_arr**2 / 2.0,
        counts=np.asarray(counts, dtype=np.int64),
    )


@dataclass(frozen=True)
class HistogramResult:
    """Density-normalized return histogram with a moment-matched Gaussian
    reference at the bin centers: the columns of `qbm analyze`'s histogram
    table."""

    centers: np.ndarray
    density: np.ndarray
    counts: np.ndarray
    gaussian_ref: np.ndarray

    def __post_init__(self) -> None:
        _freeze(self, centers=float, density=float, counts=np.int64, gaussian_ref=float)


def _quantiles(x: np.ndarray, fractions: Sequence[float]) -> list[float]:
    """np.quantile(x, fractions) of finite x by its default linear method, bit
    for bit: one np.partition, then numpy's interpolation, which steps back
    from the upper neighbour at a weight of 1/2 or more. np.quantile and
    np.unique import numpy.ma, which no other step of a command loads."""
    n = len(x)
    at = [(n - 1) * q for q in fractions]
    below = [math.floor(v) for v in at]
    above = [min(i + 1, n - 1) for i in below]
    part = np.partition(x, sorted({*below, *above}))
    out = []
    for v, i, j in zip(at, below, above):
        a, b, t = float(part[i]), float(part[j]), v - i
        out.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return out


def return_histogram(returns: ReturnSeries, bins: int | None = None) -> HistogramResult:
    """Density histogram of the return samples plus the Gaussian with the same
    mean and variance evaluated at bin centers.

    Binning defaults to Freedman-Diaconis width over a symmetric range of
    +-6 sample standard deviations about the mean. Requires >= 100 samples and
    nondegenerate variance.
    """
    x = returns.values
    n = len(x)
    if n < 100:
        raise InsufficientDataError(f"histogram needs at least 100 samples, got {n}")
    mean = float(x.mean())
    std = float(x.std(ddof=1))
    scale = max(abs(mean), float(np.max(np.abs(x))), 1e-300)
    if std <= 1e-12 * scale:
        raise DegenerateDataError("degenerate variance: all return samples identical")
    lo, hi = mean - 6.0 * std, mean + 6.0 * std
    if bins is None:
        q75, q25 = _quantiles(x, (0.75, 0.25))
        width = 2.0 * (q75 - q25) / n ** (1.0 / 3.0)
        if width <= 0:
            width = 3.5 * std / n ** (1.0 / 3.0)
        bins = int(np.clip(math.ceil((hi - lo) / width), 16, 1024))
    counts, edges = np.histogram(x, bins=bins, range=(lo, hi))
    centers = 0.5 * (edges[:-1] + edges[1:])
    return HistogramResult(
        centers=centers,
        density=counts / (n * np.diff(edges)),
        counts=counts,
        gaussian_ref=np.exp(-0.5 * ((centers - mean) / std) ** 2) / (std * math.sqrt(2.0 * math.pi)),
    )


# The ACF's windows: at least this FFT length, and about this many values of
# one signal in a batch of windows, so a batch's buffers hold a fixed amount
_ACF_WINDOW = 1 << 10
_ACF_BATCH = 1 << 13


def _correlate_windows(flat: np.ndarray, width: int, k_max: int, size: int) -> np.ndarray:
    """Each row of flat correlated with itself at lags 0 to k_max, summed
    over windows j = 0, 1, ...: flat[:, j width : (j + 1) width + k_max],
    whose first width slots are the anchors, zero-padded to the FFT length
    size >= width + k_max, so no lag wraps round. (A function of its own, so
    that a batch's spectra are freed before the next batch is laid out.)"""
    windows = sliding_window_view(flat, width + k_max, axis=1)[:, ::width]
    spectra = np.fft.rfft(windows, n=size)
    anchors = np.fft.rfft(windows[..., :width], n=size)
    spectra *= np.conjugate(anchors, out=anchors)
    return np.fft.irfft(spectra.sum(axis=1), n=size)[:, : k_max + 1]


def _lag_sums(
    times: np.ndarray, labels: np.ndarray | None, r: np.ndarray, shift: float, max_lag: int
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """(unit, S1, S2, counts): at each lag of k = 0, 1, ... units of the gcd
    time step, up to max_lag, the sums over the pairs of rows k units apart
    of x x', of x² x'² and of 1, where x = r - shift; pairs share a label
    unless labels is None. Times strictly increase and labels never
    decrease (_slots).

    The rows are laid on the slots of _slots, where the pairs at a lag of k
    units up to K = max_lag // unit are the held slots k apart. The sums are
    correlations of the slot signals x, x² and h (1 on held slots, 0 on
    empty ones): each window of B anchor slots and the K slots after them is
    zero-padded to an FFT length N >= B + K, correlated by real FFTs and
    summed over a bounded batch of windows, so the working set is the slot
    of each row and one batch. The counts are the h-correlation rounded per
    batch, exact while a batch's rounding error stays below 1/2.
    """
    unit, pos = _slots(times, labels, max_lag)
    n_slots = int(pos[-1]) + 1
    k_max = min(max_lag // unit, n_slots - 1)  # no pair reaches past the last slot
    size = 1 << (max(_ACF_WINDOW, 4 * (k_max + 1)) - 1).bit_length()
    size = min(size, 1 << (n_slots + k_max - 1).bit_length())
    width = size - k_max  # anchor slots of a window
    n_windows = -(-n_slots // width)
    batch = max(1, _ACF_BATCH // size)
    sums = np.zeros((2, k_max + 1))
    counts = np.zeros(k_max + 1, dtype=np.int64)
    for first in range(0, n_windows, batch):
        m = min(batch, n_windows - first)
        start = first * width
        lo, hi = np.searchsorted(pos, [start, start + m * width + k_max])
        # the batch's slots as x, x², h; each window a view of them, zero-padded by rfft
        flat = np.zeros((3, m * width + k_max))
        slots = pos[lo:hi] - start
        flat[0, slots] = r[lo:hi] - shift
        np.multiply(flat[0], flat[0], out=flat[1])
        flat[2, slots] = 1.0
        lagged = _correlate_windows(flat, width, k_max, size)
        sums += lagged[:2]
        counts += np.rint(lagged[2]).astype(np.int64)
    return unit, sums[0], sums[1], counts


def empirical_acf(returns: ReturnSeries, max_lag: int) -> AcfEstimate:
    """Lag autocorrelation R(lag) = mean over admissible pairs of
    r(t) r(t+lag), on drift-removed returns, stepping at the base resolution.

    The session policy of the return series is inherited: under intraday-only
    pairing, products never span a session boundary. Lags without admissible
    pairs are omitted and listed in ``omitted_lags``.

    Every lag's sums come at once from blocked real-FFT correlations on the
    slot layout that the scaling, kurtosis and return pairs use too (_slots,
    _lag_sums): with n pairs, S1 the sum of their products and S2 that of
    the squared products, R = S1/n and stderr = sqrt(max(S2 - n R², 0) /
    (n - 1)) / sqrt(n), nan for one pair. The sums carry rounding of the
    whole series' scale, not of each lag's: against the mean and sample
    deviation of each lag's products, the counts are exact, the values are
    within 1e-12 of max|R|, and each lag's variance of the products
    (n stderr²) is within 1e-12 of the largest mean square product of any
    lag. So the stderr is within 1e-12 relative where a lag's products vary
    as much as the series' do; where they nearly cancel in S2 - n R² (all
    equal, say) it is rounding of that size, clamped at 0.
    """
    if max_lag < 0:
        raise ValueError("max_lag must be nonnegative")
    t = returns.times
    span = int(t[-1] - t[0]) if len(t) else 0
    if max_lag >= span:
        raise ValueError(f"max_lag must be below the sample span ({span} min)")
    r = returns.values
    shift = 0.0 if returns.drift_removed else r.mean()
    base = returns.base_minutes
    all_lags = np.arange(0, max_lag + 1, base, dtype=np.int64)
    labels = returns.session_idx if returns.policy == "intraday-only" else None
    unit, s1, s2, slot_counts = _lag_sums(t, labels, r, shift, int(all_lags[-1]))
    k = all_lags // unit
    on_slots = (all_lags % unit == 0) & (k < len(slot_counts))
    counts = np.zeros(len(all_lags), dtype=np.int64)
    counts[on_slots] = slot_counts[k[on_slots]]
    held = counts > 0
    k, n = k[held], counts[held]
    values = s1[k] / n
    residue = np.maximum(s2[k] - n * values * values, 0.0)
    stderr = np.full(len(n), math.nan)
    many = n > 1
    stderr[many] = np.sqrt(residue[many] / (n[many] - 1)) / np.sqrt(n[many])
    return AcfEstimate(
        lags=all_lags[held],
        values=values,
        counts=n,
        stderr=stderr,
        base_minutes=base,
        omitted_lags=tuple(all_lags[~held].tolist()),
    )


@dataclass(frozen=True)
class KurtosisResult:
    """Excess kurtosis of drift-removed returns per horizon; horizons with too
    few samples are omitted and listed with their counts."""

    taus: np.ndarray
    kappa: np.ndarray
    counts: np.ndarray
    omitted: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        _freeze(self, taus=np.int64, kappa=float, counts=np.int64)


MIN_KURTOSIS_SAMPLES = 1000


def empirical_kurtosis(
    series: PriceSeries, taus: Sequence[int], policy: str = "intraday-only"
) -> KurtosisResult:
    """Excess kurtosis of drift-removed returns at each horizon. Horizons with
    fewer than 1000 samples are omitted with a diagnostic entry."""
    kept_taus, kappas, counts = [], [], []
    omitted: list[tuple[int, int]] = []
    for tau, v in _increments(series, [int(t) for t in taus], policy):
        n = len(v)
        if n < MIN_KURTOSIS_SAMPLES:
            omitted.append((tau, n))
            continue
        v /= tau
        v -= v.mean()
        # (v^2)^2 in place: v**4 calls libm pow once per sample
        v *= v
        m2 = float(np.add.reduce(v)) / n
        v *= v
        m4 = float(np.add.reduce(v)) / n
        if m2 == 0:
            omitted.append((tau, n))
            continue
        kept_taus.append(tau)
        kappas.append(m4 / m2**2 - 3.0)
        counts.append(n)
    return KurtosisResult(
        taus=np.asarray(kept_taus, dtype=np.int64),
        kappa=np.asarray(kappas),
        counts=np.asarray(counts, dtype=np.int64),
        omitted=tuple(omitted),
    )


def synth_gbm(
    mu: float,
    sigma: float,
    n: int,
    dt_minutes: int = 1,
    seed: int = 0,
    s0: float = 100.0,
) -> PriceSeries:
    """Exact-discretization geometric Brownian motion minute bars.

    Log increments are N((mu - sigma^2/2) dt, sigma^2 dt) per bar; mu is the
    price drift rate per minute and sigma the volatility per sqrt-minute.
    Bit-reproducible under a fixed seed. Emitted as one trading session.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if dt_minutes <= 0:
        raise ValueError("dt_minutes must be positive")
    rng = np.random.default_rng(seed)
    dt = float(dt_minutes)
    increments = rng.standard_normal(n - 1)
    increments *= sigma * math.sqrt(dt)
    increments += (mu - sigma**2 / 2.0) * dt
    return PriceSeries.synthetic(s0, increments, dt_minutes)


def _complex_ar1(v: np.ndarray, a: complex, z: complex) -> np.ndarray:
    """First-order recursive filter y[k] = v[k] + a y[k-1], started from
    a y[-1] = z, written over v (a complex array), which is returned.

    Runs the transposed direct form (y = v + z, then z = a y) in Python
    complex arithmetic: the same operations in the same order as
    lfilter([1], [1, -a], v, zi=[z]), so the results are equal bit for bit.
    v is converted to Python numbers one block at a time, so the series is
    never held whole as a list.
    """
    for start in range(0, len(v), _AR_BLOCK):
        block = []
        for x in v[start:start + _AR_BLOCK].tolist():
            y = x + z
            z = a * y
            block.append(y)
        v[start:start + len(block)] = block
    return v


def synth_colored(
    nm: NonMarkovParams,
    n: int,
    dt_minutes: int = 1,
    base_noise: float = 1e-3,
    seed: int = 0,
) -> ReturnSeries:
    """Seeded return series whose population autocorrelation is
    base_noise^2 at lag 0 (white part) plus the damped oscillatory model ACF
    at every lag.

    Construction: white noise plus the centered square of a complex damped
    oscillator with amplitude decay eta/2 and frequency omega, so the squared
    envelope carries exactly the model ACF (the square of a Gaussian process
    with autocovariance C has autocovariance 2 C^2).
    """
    if dt_minutes <= 0:
        raise ValueError("dt_minutes must be positive")
    if nm.eta * dt_minutes > 0.5:
        raise ValueError(f"filter instability: eta*dt = {nm.eta * dt_minutes:.3g} > 0.5")
    n_min = 10.0 / (nm.eta * dt_minutes)
    if n < n_min:
        n_min = n_min if math.isinf(n_min) else math.ceil(n_min)  # inf where eta * dt is subnormal
        raise ValueError(f"n must cover ten decay times: need n >= {n_min}")
    rng = np.random.default_rng(seed)
    dt = float(dt_minutes)

    values = base_noise * rng.standard_normal(n)  # the white part

    if nm.xi > 0:
        # complex AR(1): chi_{k+1} = a chi_k + w_k with |a| = exp(-eta dt / 2),
        # stationary E|chi|^2 = sqrt(2) xi so that 2 C(tau)^2 matches the target.
        amp2 = math.sqrt(2.0) * nm.xi
        a = complex(math.cos(nm.omega * dt), math.sin(nm.omega * dt)) * math.exp(-nm.eta * dt / 2.0)
        noise_var = amp2 * (1.0 - abs(a) ** 2)
        # w and then chi in one array, each step in place
        chi = np.empty(n, dtype=complex)
        chi.real = rng.standard_normal(n)
        chi.imag = rng.standard_normal(n)
        chi *= math.sqrt(noise_var / 2.0)
        chi0 = math.sqrt(amp2 / 2.0) * complex(rng.standard_normal(), rng.standard_normal())
        chi[0] = chi0
        _complex_ar1(chi[1:], a, a * chi0)
        colored = chi.real
        colored *= colored
        colored -= amp2 / 2.0
        values += colored
        del chi, colored
    else:
        values += 0.0  # as adding zeros did: a -0.0 becomes 0.0

    times = SYNTH_START_MINUTE + np.arange(n, dtype=np.int64) * dt_minutes
    return ReturnSeries(
        values=values,
        drift_removed=False,
        times=times,
        session_idx=np.zeros(n, dtype=np.int64),
        base_minutes=int(dt_minutes),
        policy="contiguous",
    )
