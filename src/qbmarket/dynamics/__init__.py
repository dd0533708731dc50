"""Time evolution of the model: moment-closure ODEs, a Markovian Monte-Carlo
oracle, and a phase-space PDE solver.

Each name below is imported from its module on first use (``qbmarket._lazy``),
so importing one engine loads neither of the other two."""

from .. import _lazy

_HOMES = {
    ".moments": ("MOMENT_KEYS", "KernelSchedule", "MomentState", "MomentTrajectory", "evolve_moments",
                 "HarmonicPotential"),
    ".montecarlo": ("EnsembleMoments", "simulate_sde_markov"),
    ".phasespace": ("PhaseSpaceGrid", "WignerEvolution", "evolve_wigner_pde", "grid_moments"),
}
__getattr__ = _lazy(globals(), _HOMES)[1]

__all__ = [name for names in _HOMES.values() for name in names]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
