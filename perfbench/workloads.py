"""The four benchmark workloads: their inputs, command sequences and references.

Every workload is a fixed sequence of `qbm` commands. Inputs are made from the
benchmark seed before any timing starts; the program sees only the generated
files and flags. Commands use paths relative to the directory they run in, so
every repetition writes byte-identical outputs (manifests record the paths).

Each workload's check returns `err_over_tol`: its error against a reference
computed here, independently of the program, divided by the tolerance of the
matching acceptance criterion (for sde_oracle see SDE_SE_TOL). A value of 1
or more is a failure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.linalg import expm

# The S&P triple of the paper (xi per minute, eta per minute, Omega rad/minute).
SP_XI, SP_ETA, SP_OMEGA = 5.48e-4, 5.56e-3, 0.02617

# Sizes. `tiny` is for the smoke test only; timings use `full`. The colored
# series stays at full size because the Omega check needs about 1e5 bars
# (the fitted Omega scatters by about 1% there, by 2-3% at 4e4).
SIZES = {
    "full": {
        "colored_bars": 100_000,
        "sessions": 256,
        "pde_t_end": 0.03,
        "sde_paths": 50_000,
        "sde_t_end": 2.0,
    },
}
SIZES["tiny"] = dict(SIZES["full"], sessions=48, pde_t_end=0.006, sde_paths=4096, sde_t_end=0.2)

SESSION_MINUTES = 390
MISSING_BAR_SHARE = 0.02
SDE_DT = 2e-3
# Criterion-3 parameters and the moments it compares.
SDE_PARAMS = {"M": 20.0, "gamma": 1.0, "kT": 1.0, "hbar": 1.0}
SDE_KEYS = ("m20", "m11", "m02", "m40", "m31", "m22", "m13", "m04")
# 3 standard errors is a per-comparison bound; over the 8 moments x 5 times it
# fails about 1 seed in 15 of correct code. 5 SE keeps the family-wise false
# alarm rate below 1e-4 per run.
SDE_SE_TOL = 5.0
# Criterion-9 relaxation parameters.
PDE_PARAMS = {"M": 1.0, "gamma": 0.25, "kT": 1.0, "hbar": 1.0}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: Callable[[Path, int, dict], None]
    commands: Callable[[int, dict], list[list[str]]]
    check: Callable[[Path, int, dict], float]


# --------------------------------------------------------------------------
# helpers


def _flags(params: dict) -> list[str]:
    out = []
    for key, value in params.items():
        out += [f"--{key}", repr(value)]
    return out


def read_csv(path: Path) -> dict[str, np.ndarray]:
    """Columns of a qbm output CSV (comment lines skipped)."""
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    return {name: rows[:, i] for i, name in enumerate(header)}


def second_moments_reference(params: dict, x2: float, p2: float, xp: float, times: np.ndarray) -> np.ndarray:
    """<x^2>, <xp>, <p^2> of the Markovian free particle at `times`.

    The second moments obey the closed affine system
    a' = 2b/M, b' = c/M - 2 gamma b, c' = -4 gamma c + 4 M gamma kT,
    solved here exactly by the matrix exponential of the augmented generator.
    """
    M, g, kT = params["M"], params["gamma"], params["kT"]
    gen = np.array(
        [
            [0.0, 2.0 / M, 0.0, 0.0],
            [0.0, -2.0 * g, 1.0 / M, 0.0],
            [0.0, 0.0, -4.0 * g, 4.0 * M * g * kT],
            [0.0, 0.0, 0.0, 0.0],
        ]
    )
    y0 = np.array([x2, xp, p2, 1.0])
    return np.array([(expm(gen * t) @ y0)[:3] for t in times])


# --------------------------------------------------------------------------
# market_colored: synth -> analyze -> fit acf -> fit kurtosis


def _colored_commands(seed: int, size: dict) -> list[list[str]]:
    return [
        ["synth", "--kind", "colored", "--n", str(size["colored_bars"]), "--xi", repr(SP_XI),
         "--eta", repr(SP_ETA), "--omega", repr(SP_OMEGA), "--seed", str(seed), "--out", "prices.csv"],
        ["analyze", "--input", "prices.csv", "--taus", "5:100:5", "--max-lag", "480", "--out-prefix", "stats"],
        ["fit", "--kind", "acf", "--input", "stats.acf.csv", "--out", "acf_fit.json"],
        ["fit", "--kind", "kurtosis", "--input", "stats.kurtosis.csv", "--out", "kurtosis_fit.json"],
    ]


def _colored_check(out: Path, seed: int, size: dict) -> float:
    fit = json.loads((out / "acf_fit.json").read_text())
    if not fit["converged"]:
        return math.inf
    return abs(fit["omega"] / SP_OMEGA - 1.0) / 0.05


# --------------------------------------------------------------------------
# market_sessions: a session-labelled CSV with offsets and gaps


def write_sessions_csv(path: Path, seed: int, n_sessions: int) -> None:
    """Minute bars of `n_sessions` weekday sessions (09:30-16:00 at -05:00).

    Returns are Gaussian with a volatility drawn per session (so every
    horizon has positive excess kurtosis and the sigma exponent is 1/2),
    sessions open with an overnight gap, and about 2% of bars are missing.
    """
    rng = np.random.default_rng(seed)
    day = np.datetime64("2021-01-04")
    lines = ["timestamp,close,session"]
    log_price = math.log(100.0)
    for _ in range(n_sessions):
        while not np.is_busday(day):
            day += 1
        label = str(day)
        vol = 1e-3 * math.exp(0.25 * rng.standard_normal())
        steps = 2e-6 + vol * rng.standard_normal(SESSION_MINUTES - 1)
        session = log_price + 5e-3 * rng.standard_normal() + np.concatenate([[0.0], np.cumsum(steps)])
        keep = rng.random(SESSION_MINUTES) >= MISSING_BAR_SHARE
        keep[0] = keep[-1] = True
        for minute in np.nonzero(keep)[0]:
            hh, mm = divmod(570 + int(minute), 60)
            lines.append(f"{label}T{hh:02d}:{mm:02d}:00-05:00,{math.exp(session[minute]):.12g},{label}")
        log_price = session[-1]
        day += 1
    path.write_text("\n".join(lines) + "\n")


def _sessions_prepare(inp: Path, seed: int, size: dict) -> None:
    write_sessions_csv(inp / "sessions.csv", seed, size["sessions"])


def _sessions_commands(seed: int, size: dict) -> list[list[str]]:
    # `fit --kind acf` is left out: on white-noise returns its cost depends on
    # the seed (85 to 20k model evaluations, 0.015 to 3.2 s, over seeds 1-15),
    # which no timing bound survives.
    return [
        ["analyze", "--input", "../input/sessions.csv", "--policy", "intraday-only", "--taus", "5:100:5",
         "--max-lag", "480", "--out-prefix", "stats"],
        ["fit", "--kind", "kurtosis", "--input", "stats.kurtosis.csv", "--out", "kurtosis_fit.json"],
    ]


def _sessions_check(out: Path, seed: int, size: dict) -> float:
    scaling = read_csv(out / "stats.scaling.csv")
    exponent = np.polyfit(np.log(scaling["tau"]), np.log(scaling["sigma"]), 1)[0]
    return abs(exponent - 0.5) / 0.05


# --------------------------------------------------------------------------
# pde_relax: criterion-9 Markov relaxation on 256^2


def _pde_init(seed: int) -> tuple[float, float]:
    # p stays narrow enough that the p = +-7 ring starts below 1e-10 of the mass
    rng = np.random.default_rng(seed)
    return float(rng.uniform(0.8, 1.2)), float(rng.uniform(0.8, 1.0))


def _pde_commands(seed: int, size: dict) -> list[list[str]]:
    x2, p2 = _pde_init(seed)
    return [
        ["simulate", "--mode", "pde", *_flags(PDE_PARAMS), "--x2", repr(x2), "--p2", repr(p2),
         "--t-end", repr(size["pde_t_end"]), "--points", "9", "--x-width", "14", "--p-width", "7",
         "--nx", "256", "--np", "256", "--out-prefix", "pde"],
    ]


def _pde_check(out: Path, seed: int, size: dict) -> float:
    x2, p2 = _pde_init(seed)
    run = read_csv(out / "pde.csv")
    ref = second_moments_reference(PDE_PARAMS, x2, p2, 0.0, run["t"])
    scale = np.sqrt(ref[:, 0] * ref[:, 2])
    rel = 0.0
    for i, key in enumerate(("m20", "m11", "m02")):
        err = np.abs(run[key] - ref[:, i]) / np.maximum(np.abs(ref[:, i]), 1e-3 * scale)
        rel = max(rel, float(np.max(err)))
    drift = float(np.max(np.abs(run["mass"] - run["mass"][0])))
    return max(rel / 1e-3, drift / 1e-6)


# --------------------------------------------------------------------------
# sde_oracle: Monte-Carlo ensemble against the moment ODE (criterion 3)


def _sde_commands(seed: int, size: dict) -> list[list[str]]:
    common = [*_flags(SDE_PARAMS), "--x2", "0.5", "--p2", "0.5", "--t-end", repr(size["sde_t_end"]), "--points", "5"]
    return [
        ["simulate", "--mode", "sde", *common, "--dt", repr(SDE_DT), "--n-paths", str(size["sde_paths"]),
         "--seed", str(seed), "--out-prefix", "sde"],
        ["simulate", "--mode", "moments", *common, "--out-prefix", "ode"],
    ]


def _sde_check(out: Path, seed: int, size: dict) -> float:
    mc = read_csv(out / "sde.csv")
    ode = read_csv(out / "ode.csv")
    if not np.allclose(mc["t"], ode["t"], rtol=0, atol=SDE_DT / 2):
        return math.inf
    worst = 0.0
    for key in SDE_KEYS:
        se = np.where(mc[key + "_se"] > 0, mc[key + "_se"], np.inf)
        worst = max(worst, float(np.max(np.abs(mc[key] - ode[key]) / (SDE_SE_TOL * se))))
    # the ODE output itself against the exact second moments
    ref = second_moments_reference(SDE_PARAMS, 0.5, 0.5, 0.0, ode["t"])
    ode_rel = max(
        float(np.max(np.abs(ode[key] - ref[:, i]) / np.abs(ref[:, i]).clip(1e-300)))
        for i, key in enumerate(("m20", "m11", "m02"))
        if np.any(ref[:, i] != 0)
    )
    return max(worst, ode_rel / 1e-6)


def _no_inputs(inp: Path, seed: int, size: dict) -> None:
    pass


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "market_colored",
            "paper calibration loop on one session of colored returns: market and cli formatting work, calibrate idle",
            _no_inputs,
            _colored_commands,
            _colored_check,
        ),
        Workload(
            "market_sessions",
            "session labels, -05:00 offsets and 2% missing bars: the market paths a dense-index or vectorized shortcut must fall back on",
            _sessions_prepare,
            _sessions_commands,
            _sessions_check,
        ),
        Workload(
            "pde_relax",
            "criterion-9 relaxation on 256x256: only the phase-space interpolation is busy",
            _no_inputs,
            _pde_commands,
            _pde_check,
        ),
        Workload(
            "sde_oracle",
            "criterion-3 Monte-Carlo oracle: Philox-bound ensemble, then the moment ODE that should cost nothing",
            _no_inputs,
            _sde_commands,
            _sde_check,
        ),
    )
}
