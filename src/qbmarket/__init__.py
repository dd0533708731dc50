"""Open-system Brownian dynamics for stock-index statistics.

Closed-form moment and diffusion-coefficient laws of a dissipative
quantum Brownian particle, moment-closure / Monte-Carlo / phase-space
evolution, a minute-bar market-data pipeline, and autocorrelation
calibration, wired together by the ``qbm`` command-line tool.

The package needs numpy only: no module imports scipy, which the test
suite uses as an independent reference. ``import qbmarket`` loads no numpy
and no layer. The names below come from one table, module to names, read
by ``_lazy``: the first read of a name imports the module that defines it
and binds its names here (a module ``__getattr__``, PEP 562).
``qbmarket.dynamics`` and ``qbmarket.cli`` bind their layers the same way.
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


def _lazy(namespace: dict, homes: dict[str, tuple[str, ...]]):
    """``(bind, __getattr__)`` for the module whose globals are ``namespace``.

    ``homes`` maps a module, relative to the package, to the names taken from
    it. ``bind(*modules)`` imports each and binds its names, keeping a name
    already bound (a tracer or a test may have replaced it). ``__getattr__``
    binds a name's module on its first read; a name in no table imports nothing.
    """
    import importlib

    home_of = {name: home for home, names in homes.items() for name in names}

    def bind(*modules: str) -> None:
        for home in modules:
            module = importlib.import_module(home, namespace["__package__"])
            for name in homes[home]:
                namespace.setdefault(name, getattr(module, name))

    def __getattr__(name: str):
        if name not in home_of:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        bind(home_of[name])
        return namespace[name]

    return bind, __getattr__


_HOMES = {
    ".calibrate": ("AcfFit", "DecayFit", "PowerLawFit", "fit_acf", "fit_kurtosis_decay", "fit_power_law"),
    ".dynamics.moments": ("HarmonicPotential", "KernelSchedule", "MomentState", "MomentTrajectory", "evolve_moments"),
    ".dynamics.montecarlo": ("EnsembleMoments", "simulate_sde_markov"),
    ".dynamics.phasespace": ("PhaseSpaceGrid", "WignerEvolution", "evolve_wigner_pde", "grid_moments"),
    ".csvio": ("load_prices",),
    ".market": (
        "AcfEstimate", "HistogramResult", "KurtosisResult", "PriceSeries", "ReturnSeries", "ScalingResult",
        "drift_vol_scaling", "empirical_acf", "empirical_kurtosis", "log_returns", "return_histogram",
        "synth_colored", "synth_gbm",
    ),
    ".model": (
        "BathSpectrum", "ModelParams", "NonMarkovParams", "SecondMomentInit", "acf_model", "classical_variance",
        "cross_diffusion", "delta_coefficient", "delta_limit", "lambda_coefficient", "lambda_limit",
        "minimal_uncertainty_momentum", "normal_diffusion", "spectral_density", "variance_closed_form",
        "variance_short_time",
    ),
}
__getattr__ = _lazy(globals(), _HOMES)[1]

__all__ = [
    "DataError",
    "DegenerateDataError",
    "InsufficientDataError",
    "IntegrationError",
    "NumericalError",
    "QbmError",
    "StabilityError",
    *(name for names in _HOMES.values() for name in names),
]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
