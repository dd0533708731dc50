"""Time evolution of the model: moment-closure ODEs, a Markovian Monte-Carlo
oracle, and a phase-space PDE solver."""

from .moments import (
    MOMENT_KEYS,
    HarmonicPotential,
    KernelSchedule,
    MomentState,
    MomentTrajectory,
    evolve_moments,
)
from .montecarlo import EnsembleMoments, simulate_sde_markov
from .phasespace import (
    PhaseSpaceGrid,
    WignerEvolution,
    evolve_wigner_pde,
    grid_moments,
)

__all__ = [
    "MOMENT_KEYS",
    "KernelSchedule",
    "MomentState",
    "MomentTrajectory",
    "evolve_moments",
    "EnsembleMoments",
    "simulate_sde_markov",
    "HarmonicPotential",
    "PhaseSpaceGrid",
    "WignerEvolution",
    "evolve_wigner_pde",
    "grid_moments",
]
