"""Open-system Brownian dynamics for stock-index statistics.

Closed-form moment and diffusion-coefficient laws of a dissipative
quantum Brownian particle, moment-closure / Monte-Carlo / phase-space
evolution, a minute-bar market-data pipeline, and autocorrelation
calibration, wired together by the ``qbm`` command-line tool.

The package needs numpy only: no module imports scipy, which the test
suite uses as an independent reference. ``import qbmarket`` loads no numpy
and no layer: reading one of the names below imports the layer that
defines it (PEP 562).
"""

__version__ = "0.1.0"

from .errors import (
    DataError,
    DegenerateDataError,
    InsufficientDataError,
    IntegrationError,
    NumericalError,
    QbmError,
    StabilityError,
)


def _calibrate() -> dict:
    from .calibrate import AcfFit, DecayFit, PowerLawFit, fit_acf, fit_kurtosis_decay, fit_power_law

    return locals()


def _moments() -> dict:
    from .dynamics.moments import HarmonicPotential, KernelSchedule, MomentState, MomentTrajectory, evolve_moments

    return locals()


def _montecarlo() -> dict:
    from .dynamics.montecarlo import EnsembleMoments, simulate_sde_markov

    return locals()


def _phasespace() -> dict:
    from .dynamics.phasespace import PhaseSpaceGrid, WignerEvolution, evolve_wigner_pde, grid_moments

    return locals()


def _market() -> dict:
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

    return locals()


def _model() -> dict:
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

    return locals()


# each layer's binder and the names it returns
_LAYERS = {
    _calibrate: ("AcfFit", "DecayFit", "PowerLawFit", "fit_acf", "fit_kurtosis_decay", "fit_power_law"),
    _moments: ("HarmonicPotential", "KernelSchedule", "MomentState", "MomentTrajectory", "evolve_moments"),
    _montecarlo: ("EnsembleMoments", "simulate_sde_markov"),
    _phasespace: ("PhaseSpaceGrid", "WignerEvolution", "evolve_wigner_pde", "grid_moments"),
    _market: (
        "AcfEstimate", "HistogramResult", "KurtosisResult", "PriceSeries", "ReturnSeries", "ScalingResult",
        "drift_vol_scaling", "empirical_acf", "empirical_kurtosis", "load_prices", "log_returns",
        "return_histogram", "synth_colored", "synth_gbm",
    ),
    _model: (
        "BathSpectrum", "ModelParams", "NonMarkovParams", "SecondMomentInit", "acf_model", "classical_variance",
        "cross_diffusion", "delta_coefficient", "delta_limit", "lambda_coefficient", "lambda_limit",
        "minimal_uncertainty_momentum", "normal_diffusion", "spectral_density", "variance_closed_form",
        "variance_short_time",
    ),
}
_BINDER = {name: bind for bind, names in _LAYERS.items() for name in names}

__all__ = [
    "DataError",
    "DegenerateDataError",
    "InsufficientDataError",
    "IntegrationError",
    "NumericalError",
    "QbmError",
    "StabilityError",
    *_BINDER,
]


def __getattr__(name: str):
    """Bind the layer that defines ``name``; a name already bound is kept."""
    if name not in _BINDER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    namespace = globals()
    for key, value in _BINDER[name]().items():
        namespace.setdefault(key, value)
    return namespace[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
