"""The package's public names: bound on first use, each the object its home
module defines, and listed as before."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qbmarket

# home module: the names qbmarket exports from it
QBMARKET = {
    "qbmarket.calibrate": ("AcfFit", "DecayFit", "PowerLawFit", "fit_acf", "fit_kurtosis_decay", "fit_power_law"),
    "qbmarket.dynamics.moments": ("HarmonicPotential", "KernelSchedule", "MomentState", "MomentTrajectory",
                                  "evolve_moments"),
    "qbmarket.dynamics.montecarlo": ("EnsembleMoments", "simulate_sde_markov"),
    "qbmarket.dynamics.phasespace": ("PhaseSpaceGrid", "WignerEvolution", "evolve_wigner_pde", "grid_moments"),
    "qbmarket.errors": ("DataError", "DegenerateDataError", "InsufficientDataError", "IntegrationError",
                        "NumericalError", "QbmError", "StabilityError"),
    "qbmarket.csvio": ("load_prices",),
    "qbmarket.market": ("AcfEstimate", "HistogramResult", "KurtosisResult", "PriceSeries", "ReturnSeries",
                        "ScalingResult", "drift_vol_scaling", "empirical_acf", "empirical_kurtosis", "log_returns",
                        "return_histogram", "synth_colored", "synth_gbm"),
    "qbmarket.model": ("BathSpectrum", "ModelParams", "NonMarkovParams", "SecondMomentInit", "acf_model",
                       "classical_variance", "cross_diffusion", "delta_coefficient", "delta_limit",
                       "lambda_coefficient", "lambda_limit", "minimal_uncertainty_momentum", "normal_diffusion",
                       "spectral_density", "variance_closed_form", "variance_short_time"),
}
DYNAMICS = {
    "qbmarket.dynamics.moments": ("MOMENT_KEYS", "HarmonicPotential", "KernelSchedule", "MomentState",
                                  "MomentTrajectory", "evolve_moments"),
    "qbmarket.dynamics.montecarlo": ("EnsembleMoments", "simulate_sde_markov"),
    "qbmarket.dynamics.phasespace": ("PhaseSpaceGrid", "WignerEvolution", "evolve_wigner_pde", "grid_moments"),
}

# In a fresh interpreter: the package's dir() and __all__ before any name is
# read, the names that are not their home module's object, the names a star
# import binds, and the error for an unknown name.
SCRIPT = """
import importlib, json, sys
package, homes = sys.argv[1], json.loads(sys.argv[2])
pkg = importlib.import_module(package)
report = {"dir": dir(pkg), "all": list(pkg.__all__)}
report["not_home"] = [name for home, names in homes.items() for name in names
                      if getattr(pkg, name) is not getattr(importlib.import_module(home), name)]
star = {}
exec(f"from {package} import *", star)
report["star"] = sorted(set(star) - {"__builtins__"})
try:
    pkg.no_such_name
except AttributeError as exc:
    report["error"] = str(exc)
print(json.dumps(report))
"""


@pytest.mark.parametrize("package, homes, count", [
    ("qbmarket", QBMARKET, 54),
    ("qbmarket.dynamics", DYNAMICS, 12),
], ids=["qbmarket", "dynamics"])
def test_public_names_are_unchanged(package, homes, count):
    names = sorted(name for group in homes.values() for name in group)
    assert len(names) == count
    env = dict(os.environ, PYTHONPATH=str(Path(qbmarket.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, package, json.dumps(homes)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert set(names) <= set(report["dir"])
    assert sorted(report["all"]) == names
    assert report["not_home"] == []
    assert report["star"] == names
    assert report["error"] == f"module {package!r} has no attribute 'no_such_name'"
