"""Outside-in tracing: spans around calls into the layers of `qbmarket`.

The tracer replaces module attributes with timing wrappers for the duration of
a `with tracer.installed():` block and puts the originals back afterwards, so
the program's source carries no hooks. Spans stay in memory (name, start, end,
parent index, run id); run.py writes them out once, when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import time
from collections import defaultdict
from typing import Any, Callable

# (module, attribute, span name). The names `qbmarket.cli` imports are the
# entry points of each layer; the last three are the cross-layer calls made
# inside those layers.
PATCHES = (
    ("qbmarket.cli", "load_prices", "market.load_prices"),
    ("qbmarket.cli", "log_returns", "market.log_returns"),
    ("qbmarket.cli", "drift_vol_scaling", "market.drift_vol_scaling"),
    ("qbmarket.cli", "return_histogram", "market.return_histogram"),
    ("qbmarket.cli", "empirical_acf", "market.empirical_acf"),
    ("qbmarket.cli", "empirical_kurtosis", "market.empirical_kurtosis"),
    ("qbmarket.cli", "synth_colored", "market.synth"),
    ("qbmarket.cli", "synth_gbm", "market.synth"),
    ("qbmarket.cli", "fit_acf", "calibrate.fit_acf"),
    ("qbmarket.cli", "fit_kurtosis_decay", "calibrate.fit_kurtosis_decay"),
    ("qbmarket.cli", "evolve_wigner_pde", "phasespace.evolve_wigner_pde"),
    ("qbmarket.cli", "evolve_moments", "moments.evolve_moments"),
    ("qbmarket.cli", "simulate_sde_markov", "montecarlo.simulate_sde_markov"),
    ("qbmarket.dynamics.phasespace", "grid_moments", "phasespace.grid_moments"),
    ("qbmarket.calibrate", "acf_model", "model.acf_model"),
    ("qbmarket.market", "log_returns", "market.log_returns"),
)


class Tracer:
    """Collects spans; `span` and the installed wrappers append to `spans`."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self.run_id = 0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Time the block as a span; yields its record so callers may annotate it."""
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
        }
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                _annotate(name, record, result, args, kwargs)
                return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, attr, name in PATCHES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def _annotate(name: str, record: dict, result: Any, args: tuple, kwargs: dict) -> None:
    """Counts read from a layer's return value at the span boundary."""
    if name == "market.load_prices":
        record["rows"] = len(result.times)
    elif name == "market.empirical_acf":
        record["lags"] = len(result.lags)
        record["pairs"] = int(result.counts.sum())
    elif name == "calibrate.fit_acf":
        record["nfev"] = result.iterations
        record["converged"] = bool(result.converged)
    elif name == "phasespace.evolve_wigner_pde":
        grid = result.final
        record.update(
            n_steps=result.n_steps,
            dt=result.dt,
            cells=grid.n_x * grid.n_p,
            samples=len(result.times),
            mass_drift=result.mass_drift(),
            eps_neg=result.eps_neg,
        )
    elif name == "montecarlo.simulate_sde_markov":
        dt = args[3] if len(args) > 3 else kwargs["dt"]
        t_end = args[4] if len(args) > 4 else kwargs["t_end"]
        record["paths"] = result.n_paths
        record["steps"] = int(math.ceil(t_end / dt - 1e-12))
    elif name == "moments.evolve_moments":
        record["points"] = len(result.times)


def self_times(spans: list[dict]) -> list[float]:
    """Span duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


def summarize(all_spans: list[dict], run: int) -> dict[str, float]:
    """Per-layer totals of traced pass `run` over a workload's commands."""
    own = self_times(all_spans)
    spans = [s for s in all_spans if s["run"] == run]
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    selfs: dict[str, float] = defaultdict(float)
    for s, own_s in zip(all_spans, own):
        if s["run"] != run:
            continue
        total[s["name"]] += s["end"] - s["start"]
        calls[s["name"]] += 1
        selfs[s["name"]] += own_s

    def rec(name: str, key: str) -> float:
        return sum(s.get(key, 0) for s in spans if s["name"] == name)

    m: dict[str, float] = {}
    for cmd in ("synth", "analyze", "fit", "simulate"):
        m[f"cli.{cmd}_s"] = total[f"cli.{cmd}"]
    m["cli.self_s"] = sum(v for k, v in selfs.items() if k.startswith("cli."))

    m["market.load_prices_s"] = total["market.load_prices"]
    m["market.rows"] = rec("market.load_prices", "rows")
    m["market.rows_per_s"] = _rate(m["market.rows"], m["market.load_prices_s"])
    m["market.empirical_acf_s"] = total["market.empirical_acf"]
    m["market.acf_lags"] = rec("market.empirical_acf", "lags")
    m["market.acf_pairs"] = rec("market.empirical_acf", "pairs")
    m["market.acf_pairs_per_s"] = _rate(m["market.acf_pairs"], m["market.empirical_acf_s"])
    m["market.drift_vol_scaling_s"] = total["market.drift_vol_scaling"]
    m["market.empirical_kurtosis_s"] = total["market.empirical_kurtosis"]
    m["market.log_returns_calls"] = calls["market.log_returns"]
    m["market.return_histogram_s"] = total["market.return_histogram"]
    m["market.synth_s"] = total["market.synth"]

    m["calibrate.fit_acf_s"] = total["calibrate.fit_acf"]
    m["calibrate.model_evals"] = calls["model.acf_model"]
    m["calibrate.winner_nfev"] = rec("calibrate.fit_acf", "nfev")
    m["calibrate.useful_eval_ratio"] = _rate(m["calibrate.winner_nfev"], m["calibrate.model_evals"])
    m["calibrate.converged"] = rec("calibrate.fit_acf", "converged")
    m["calibrate.fit_kurtosis_s"] = total["calibrate.fit_kurtosis_decay"]
    m["model.acf_model_s"] = total["model.acf_model"]

    evolve = "phasespace.evolve_wigner_pde"
    m["phasespace.evolve_s"] = total[evolve]
    m["phasespace.n_steps"] = rec(evolve, "n_steps")
    m["phasespace.dt"] = rec(evolve, "dt")
    m["phasespace.step_ms"] = _rate(1e3 * selfs[evolve], m["phasespace.n_steps"])
    m["phasespace.cell_steps_per_s"] = _rate(rec(evolve, "cells") * m["phasespace.n_steps"], m["phasespace.evolve_s"])
    m["phasespace.grid_moments_s"] = total["phasespace.grid_moments"]
    m["phasespace.samples"] = rec(evolve, "samples")
    m["phasespace.mass_drift"] = rec(evolve, "mass_drift")
    m["phasespace.eps_neg"] = rec(evolve, "eps_neg")

    sde = "montecarlo.simulate_sde_markov"
    paths, steps = rec(sde, "paths"), rec(sde, "steps")
    m["montecarlo.simulate_s"] = total[sde]
    # per block: two normals per path for the initial state, one per step
    m["montecarlo.draws"] = paths * (steps + 2)
    m["montecarlo.path_steps_per_s"] = _rate(paths * steps, m["montecarlo.simulate_s"])

    m["moments.evolve_s"] = total["moments.evolve_moments"]
    m["moments.points"] = rec("moments.evolve_moments", "points")
    return m


COUNTS = (
    "market.rows",
    "market.acf_lags",
    "market.acf_pairs",
    "market.log_returns_calls",
    "calibrate.model_evals",
    "calibrate.winner_nfev",
    "phasespace.n_steps",
    "phasespace.samples",
    "montecarlo.draws",
    "moments.points",
)

# Derived from spans, counts or a microbenchmark rather than timed directly.
COMPUTED = (
    "market.rows_per_s",
    "market.acf_pairs_per_s",
    "phasespace.cell_steps_per_s",
    "montecarlo.draws",
    "montecarlo.path_steps_per_s",
    "montecarlo.rng_ns_per_draw",
    "montecarlo.rng_share",
)


def _rate(num: float, den: float) -> float:
    return num / den if den else 0.0
