"""The benchmark's tracer wraps program attributes by name; every one it
names must exist, or a traced run would fail or time nothing."""

import importlib
import importlib.util
from pathlib import Path

from qbmarket.cli import main

SPANS = Path(__file__).parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


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
