import math

import numpy as np
import pytest

from qbmarket import ModelParams, NonMarkovParams, SecondMomentInit, market, minimal_uncertainty_momentum
from qbmarket.dynamics import MomentState
from qbmarket.dynamics.moments import MOMENT_KEYS, _generator_matrices

OMEGA_FIG3 = 8.33e-3 * math.pi

# Published fit triples for the three index periods (minutes units).
FIT_TRIPLES = {
    "1999-2004": NonMarkovParams(xi=5.48e-4, eta=5.56e-3, omega=OMEGA_FIG3),
    "2004-2010": NonMarkovParams(xi=4.47e-4, eta=4.55e-3, omega=OMEGA_FIG3),
    "2010-2013": NonMarkovParams(xi=3.46e-4, eta=3.33e-3, omega=OMEGA_FIG3),
}


@pytest.fixture
def nm_9904() -> NonMarkovParams:
    return FIT_TRIPLES["1999-2004"]


@pytest.fixture
def variance_params() -> ModelParams:
    """High-dissipation parameter point used for the variance comparisons."""
    return ModelParams(M=10.0, gamma=1e3, kT=0.1, hbar=0.01)


@pytest.fixture
def variance_init(variance_params) -> SecondMomentInit:
    return minimal_uncertainty(variance_params, 1e-7)


@pytest.fixture
def kurtosis_params() -> ModelParams:
    """Parameter point of the kurtosis-decay comparison."""
    return ModelParams(M=20.0, gamma=1.0, kT=1.0, hbar=1.0)


@pytest.fixture
def read_blocks(monkeypatch) -> list[bool]:
    """Per block that market._read_block is given during the test, in order,
    whether it read the block by column (True) or refused it (False)."""
    read: list[bool] = []
    read_block = market._read_block

    def spy(*args):
        block = read_block(*args)
        read.append(block is not None)
        return block

    monkeypatch.setattr(market, "_read_block", spy)
    return read


def linear_fit_r2(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares slope, intercept and R^2."""
    a = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    resid = y - a @ coef
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(resid @ resid) / ss_tot if ss_tot > 0 else float("nan")
    return float(coef[0]), float(coef[1]), r2


def significant_tail_bins(hist, values: np.ndarray, n_se: float = 5.0, tail_stds: float = 3.0) -> np.ndarray:
    """Indices of the tail bins of a return histogram of values (|center -
    mean| > tail_stds sample standard deviations) whose density exceeds the
    Gaussian reference by more than n_se Poisson standard errors, of the bin's
    count or of the reference's, whichever is larger. Empty for Gaussian data
    at these bounds."""
    per_count = len(values) * (hist.centers[1] - hist.centers[0])  # samples times bin width
    tail = np.abs(hist.centers - values.mean()) > tail_stds * values.std(ddof=1)
    stderr = np.sqrt(np.maximum(np.maximum(hist.counts, hist.gaussian_ref * per_count), 1.0)) / per_count
    return np.flatnonzero(tail & (hist.density - hist.gaussian_ref > n_se * stderr))


def moment_derivative(state: MomentState, params: ModelParams, D: float, L: float) -> dict[tuple[int, int], float]:
    """Time derivative of every tracked moment for the free-particle generator
    with diffusion pair (D, L), from the structure matrices evolve_moments
    propagates:

    dm(j,k)/dt = (j/M) m(j-1,k+1) - 2 gamma k m(j,k)
                 + D k(k-1) m(j,k-2) - L j k m(j-1,k-1)

    with out-of-range indices contributing zero."""
    a_mat, b_mat, c_mat = _generator_matrices(params.M, params.gamma)
    rates = (a_mat + D * b_mat + L * c_mat) @ state.vector()
    return dict(zip(MOMENT_KEYS, map(float, rates)))


# Default warning threshold for the Markov-validity ratio: an order of
# magnitude of margin on "much smaller than one".
MARKOV_WARN_RATIO = 0.1


def markov_validity(params: ModelParams, cutoff: float) -> float:
    """Ratio of the slower environment time scale (bath cutoff or thermal) to
    the relaxation time: max(1/cutoff, hbar/(2 pi kT)) * gamma.

    The Markovian description is trustworthy when the ratio is well below one;
    callers conventionally warn above MARKOV_WARN_RATIO.
    """
    if not cutoff > 0:
        raise ValueError("cutoff must be positive")
    if not params.kT > 0:
        raise ValueError("markov_validity requires kT > 0 (thermal time undefined)")
    thermal_time = params.hbar / (2.0 * math.pi * params.kT)
    return max(1.0 / cutoff, thermal_time) * params.gamma


def is_quantum_admissible(init: SecondMomentInit, hbar: float) -> bool:
    """Heisenberg bound sx2_0 * sp2_0 >= hbar^2 / 4, up to rounding."""
    return init.sx2_0 * init.sp2_0 >= hbar**2 / 4.0 * (1.0 - 1e-12)


def minimal_uncertainty(params: ModelParams, sx2_0: float) -> SecondMomentInit:
    """Minimal-uncertainty state: sp2_0 = hbar^2 / (4 sx2_0), no cross term."""
    return SecondMomentInit(sx2_0=sx2_0, sp2_0=minimal_uncertainty_momentum(params, sx2_0), spx_0=0.0)


def moment_state(init: SecondMomentInit) -> MomentState:
    """Gaussian moments matching a SecondMomentInit (spx_0 is <XP+PX>)."""
    return MomentState.gaussian(init.sx2_0, init.sp2_0, init.spx_0 / 2.0)


def reference_pairs(times, session_idx, lag: int, policy: str) -> tuple[np.ndarray, np.ndarray]:
    """Every (anchor, partner) whose times are lag apart, by direct search."""
    row_at = {int(t): i for i, t in enumerate(times)}
    pairs = [
        (i, row_at[int(t) + lag])
        for i, t in enumerate(times)
        if int(t) + lag in row_at and (policy == "contiguous" or session_idx[i] == session_idx[row_at[int(t) + lag]])
    ]
    return np.array([a for a, _ in pairs], dtype=np.int64), np.array([b for _, b in pairs], dtype=np.int64)


def reference_acf(times, session_idx, r, max_lag: int, policy: str, base: int = 1) -> market.AcfEstimate:
    """empirical_acf by its formula, one lag at a time: the mean, the count
    and the standard error of the products r[a] r[p] over the directly
    searched pairs at each lag 0, base, ... up to max_lag (r as given, no
    drift removed)."""
    lags, values, counts, stderr, omitted = [], [], [], [], []
    for lag in range(0, max_lag + 1, base):
        a, p = reference_pairs(times, session_idx, lag, policy)
        products = r[a] * r[p]
        if len(products) == 0:
            omitted.append(lag)
            continue
        lags.append(lag)
        values.append(float(products.mean()))
        counts.append(len(products))
        stderr.append(float(products.std(ddof=1) / math.sqrt(len(products))) if len(products) > 1 else math.nan)
    return market.AcfEstimate(
        lags=lags, values=values, counts=counts, stderr=stderr, base_minutes=base, tau_minutes=base,
        omitted_lags=tuple(omitted),
    )


# empirical_acf's stated tolerance against reference_acf, where the sums of
# every lag carry rounding of the whole series' scale: values within ACF_TOL
# of max |value|, and each lag's sample variance of the products
# (count * stderr**2) within ACF_TOL of the largest mean square product of
# any lag. So the stderr is within ACF_TOL relative where a lag's products
# vary as much as the series' do, and where they nearly cancel in
# S2 - n R**2 it is rounding of that size, never nan
ACF_TOL = 1e-12


def assert_acf_matches(acf, ref) -> None:
    """Lags, counts and omitted lags exact, nan stderr exactly where the
    reference has it, values and stderr within the stated tolerance."""
    np.testing.assert_array_equal(acf.lags, ref.lags)
    np.testing.assert_array_equal(acf.counts, ref.counts)
    assert acf.omitted_lags == ref.omitted_lags
    np.testing.assert_allclose(acf.values, ref.values, rtol=0, atol=ACF_TOL * np.max(np.abs(ref.values)))
    np.testing.assert_array_equal(np.isnan(acf.stderr), np.isnan(ref.stderr))
    n = ref.counts[ref.counts > 1]
    variance, ref_variance = (n * se[ref.counts > 1] ** 2 for se in (acf.stderr, ref.stderr))
    mean_square = ref_variance * (n - 1) / n + ref.values[ref.counts > 1] ** 2
    assert np.all(np.abs(variance - ref_variance) <= ACF_TOL * np.max(mean_square, initial=0.0))
