"""The benchmark's tracer wraps program attributes by name; every one it
names must exist, or a traced run would fail or time nothing."""

import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from qbmarket import NonMarkovParams, acf_model
from qbmarket.cli import main

SPANS = Path(__file__).parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def traced(argv):
    """The tracer's spans over one in-process `qbm` run that exits 0."""
    tracer = load_spans().Tracer()
    with tracer.installed():
        assert main([str(a) for a in argv]) == 0
    return tracer.spans


def only(spans, name):
    (record,) = [s for s in spans if s["name"] == name]
    return record


def test_every_traced_attribute_resolves():
    spans = load_spans()
    missing = [
        (module, attr)
        for module, attr, _ in spans.PATCHES
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert spans.PATCHES and missing == []


def test_traced_pde_run_carries_its_counts(tmp_path):
    # the per-layer pde metrics are read off the result at the span boundary
    tracer = load_spans().Tracer()
    with tracer.installed():
        code = main(["simulate", "--mode", "pde", "--x2", "1", "--p2", "1", "--nx", "16", "--np", "16",
                     "--t-end", "0.01", "--points", "3", "--out-prefix", str(tmp_path / "pde")])
    assert code == 0
    (record,) = [s for s in tracer.spans if s["name"] == "phasespace.evolve_wigner_pde"]
    assert record["n_steps"] == 2 and record["samples"] == 3
    assert record["dt"] == 0.005 and record["cells"] == 256
    assert 0.0 <= record["mass_drift"] < 1e-6 and 0.0 <= record["eps_neg"] < 1e-4  # a coarse 16^2 grid


def test_traced_sde_run_carries_its_counts(tmp_path):
    # the span reads the output interval and t_end as the 4th and 5th positional arguments
    spans = traced(["simulate", "--mode", "sde", "--x2", 1, "--p2", 1, "--t-end", 1, "--points", 5,
                    "--n-paths", 1000, "--seed", 1, "--out-prefix", tmp_path / "sde"])
    record = only(spans, "montecarlo.simulate_sde_markov")
    assert record["paths"] == 1000 and record["steps"] == 4


def test_traced_moments_run_carries_its_counts(tmp_path):
    spans = traced(["simulate", "--mode", "moments", "--x2", 1, "--p2", 1, "--t-end", 1, "--points", 5,
                    "--out-prefix", tmp_path / "mom"])
    assert only(spans, "moments.evolve_moments")["points"] == 5


def test_traced_analyze_run_carries_its_counts(tmp_path):
    prices = tmp_path / "prices.csv"
    assert main(["synth", "--kind", "gbm", "--n", "500", "--seed", "1", "--out", str(prices)]) == 0
    spans = traced(["analyze", "--input", prices, "--taus", "1:5:1", "--max-lag", 30,
                    "--out-prefix", tmp_path / "run"])
    assert only(spans, "market.load_prices")["rows"] == 500
    # 499 one-minute returns in one session: every lag from 0 to 30 has 499 - lag pairs
    acf = only(spans, "market.empirical_acf")
    assert acf["lags"] == 31 and acf["pairs"] == sum(499 - lag for lag in range(31))
    for name in ("market.drift_vol_scaling", "market.return_histogram", "market.empirical_kurtosis"):
        only(spans, name)


def test_traced_acf_fit_carries_its_counts(tmp_path):
    lags = np.arange(0, 481, 5)
    values = acf_model(NonMarkovParams(xi=5.48e-4, eta=5.56e-3, omega=8.33e-3 * math.pi), lags.astype(float))
    table = tmp_path / "acf.csv"
    table.write_text("lag,acf\n" + "".join(f"{lag},{value!r}\n" for lag, value in zip(lags, values.tolist())))
    spans = traced(["fit", "--kind", "acf", "--input", table, "--out", tmp_path / "fit.json"])
    report = json.loads((tmp_path / "fit.json").read_text())
    record = only(spans, "calibrate.fit_acf")
    assert record["nfev"] == report["iterations"] > 0
    assert record["converged"] is report["converged"] is True
    assert len([s for s in spans if s["name"] == "model.acf_model"]) >= record["nfev"]


# The tracer installed in a fresh interpreter, before any command has bound
# its layers into qbmarket.cli: the spans of one analyze and one pde run.
FRESH_TRACE = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
from qbmarket.cli import main
tracer = spans.Tracer()
with tracer.installed():
    codes = [main(["analyze", "--input", "prices.csv", "--taus", "1:5:1", "--max-lag", "30", "--out-prefix", "run"]),
             main(["simulate", "--mode", "pde", "--x2", "1", "--p2", "1", "--nx", "16", "--np", "16",
                   "--t-end", "0.01", "--points", "3", "--out-prefix", "pde"])]
print(json.dumps({"codes": codes, "spans": tracer.spans}))
"""


def test_replaced_names_survive_the_late_bind(tmp_path):
    # a command binds its layers when it runs, and must keep the tracer's wrappers
    assert main(["synth", "--kind", "gbm", "--n", "500", "--seed", "1", "--out", str(tmp_path / "prices.csv")]) == 0
    src = Path(importlib.import_module("qbmarket").__file__).parents[1]
    proc = subprocess.run([sys.executable, "-c", FRESH_TRACE, str(SPANS)], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["codes"] == [0, 0]
    spans = out["spans"]
    assert only(spans, "market.load_prices")["rows"] == 500
    acf = only(spans, "market.empirical_acf")
    assert acf["lags"] == 31 and acf["pairs"] == sum(499 - lag for lag in range(31))
    pde = only(spans, "phasespace.evolve_wigner_pde")
    assert pde["n_steps"] == 2 and pde["samples"] == 3
    assert len([s for s in spans if s["name"] == "phasespace.grid_moments"]) == 3
