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
