"""Open-system Brownian dynamics for stock-index statistics.

Closed-form moment and diffusion-coefficient laws of a dissipative
quantum Brownian particle, moment-closure / Monte-Carlo / phase-space
evolution, a minute-bar market-data pipeline, and autocorrelation
calibration, wired together by the ``qbm`` command-line tool.

The package needs numpy only: no module imports scipy, which the test
suite uses as an independent reference.
"""

__version__ = "0.1.0"

from .calibrate import AcfFit, DecayFit, PowerLawFit, fit_acf, fit_kurtosis_decay, fit_power_law
from .dynamics import (
    EnsembleMoments,
    HarmonicPotential,
    KernelSchedule,
    MomentState,
    MomentTrajectory,
    PhaseSpaceGrid,
    WignerEvolution,
    evolve_moments,
    evolve_wigner_pde,
    grid_moments,
    simulate_sde_markov,
)
from .errors import (
    DataError,
    DegenerateDataError,
    InsufficientDataError,
    IntegrationError,
    NumericalError,
    QbmError,
    StabilityError,
)
from .market import (
    AcfEstimate,
    HistogramResult,
    KurtosisResult,
    PriceSeries,
    ReturnSeries,
    ScalingResult,
    drift_vol_scaling,
    empirical_acf,
    empirical_kurtosis,
    load_prices,
    log_returns,
    return_histogram,
    synth_colored,
    synth_gbm,
)
from .model import (
    BathSpectrum,
    ModelParams,
    NonMarkovParams,
    SecondMomentInit,
    acf_model,
    classical_variance,
    cross_diffusion,
    delta_coefficient,
    delta_limit,
    lambda_coefficient,
    lambda_limit,
    minimal_uncertainty_momentum,
    normal_diffusion,
    spectral_density,
    variance_closed_form,
    variance_short_time,
)
