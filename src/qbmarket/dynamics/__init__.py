"""Time evolution of the model: moment-closure ODEs, a Markovian Monte-Carlo
oracle, and a phase-space PDE solver.

Each name below is imported from its module on first use (PEP 562), so
importing one engine loads neither of the other two."""


def _moments() -> dict:
    from .moments import MOMENT_KEYS, HarmonicPotential, KernelSchedule, MomentState, MomentTrajectory, evolve_moments

    return locals()


def _montecarlo() -> dict:
    from .montecarlo import EnsembleMoments, simulate_sde_markov

    return locals()


def _phasespace() -> dict:
    from .phasespace import PhaseSpaceGrid, WignerEvolution, evolve_wigner_pde, grid_moments

    return locals()


# each engine's binder and the names it returns
_LAYERS = {
    _moments: ("MOMENT_KEYS", "KernelSchedule", "MomentState", "MomentTrajectory", "evolve_moments",
               "HarmonicPotential"),
    _montecarlo: ("EnsembleMoments", "simulate_sde_markov"),
    _phasespace: ("PhaseSpaceGrid", "WignerEvolution", "evolve_wigner_pde", "grid_moments"),
}
_BINDER = {name: bind for bind, names in _LAYERS.items() for name in names}

__all__ = list(_BINDER)


def __getattr__(name: str):
    """Bind the module that defines ``name``; a name already bound is kept."""
    if name not in _BINDER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    namespace = globals()
    for key, value in _BINDER[name]().items():
        namespace.setdefault(key, value)
    return namespace[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
