"""Command-line pipeline: evaluate closed forms, run simulations, analyze
price files, fit estimator output, and generate synthetic data.

Commands: eval, simulate, analyze, fit, synth. Every run takes its options
from flags and from an optional flat `key = value` config file (--config). A
key is a flag name without its leading dashes, case-insensitive, with `-` and
`_` alike. A config value is read as its flag would be, with the same type,
choices and finite check, and a flag wins over the file. A key that is not a
flag of the command, or a key given twice, is a usage error. Every run records
the resolved configuration in a JSON manifest next to the outputs
(`<out>.manifest.json` or `<prefix>.manifest.json`), and computes and checks
every result before it writes any file. All outputs of a run are
published together: each is staged to a temp file of the run's own, and only
when every one is staged are they renamed over their targets. A failed run
leaves none of its outputs and no temp file. Outputs carry no timestamps: a
rerun from the same manifest is bit-identical.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure. An
--input that is missing, cannot be read or is not UTF-8 text is a data error;
a --config that cannot be read, or an output that cannot be written, is a
usage error. A result holding a non-finite number is a numerical failure and
is not written; the one exception is the ACF standard error at a lag with a
single pair (NaN).
Unconverged fits exit 0 with converged=false in the report (scriptable).
The environment variable QBM_SEED is the fallback seed source; flags win.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import re
import sys
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from . import __version__, _lazy
from .errors import DataError, NumericalError

if TYPE_CHECKING:
    import numpy as np

__all__ = ["main"]

# The layers load when a command needs them, so `--version`, `--help` and the
# usage errors load no numpy. Each command binds the modules it calls, and a
# name read from outside binds its own (`qbmarket._lazy`); a name already bound
# is kept: a tracer or a test may have replaced it.
_HOMES = {
    ".model": (
        "BathSpectrum", "ModelParams", "NonMarkovParams", "SecondMomentInit", "acf_model", "classical_variance",
        "delta_coefficient", "lambda_coefficient", "minimal_uncertainty_momentum", "spectral_density",
        "variance_closed_form", "variance_short_time",
    ),
    ".market": (
        "STAMP_MINUTES", "SYNTH_START_MINUTE", "AcfEstimate", "PriceSeries", "drift_vol_scaling", "empirical_acf",
        "empirical_kurtosis", "load_prices", "log_returns", "return_histogram", "stamp_bytes",
        "synth_colored", "synth_gbm",
    ),
    ".calibrate": ("fit_acf", "fit_kurtosis_decay"),
    ".dynamics.moments": ("MOMENT_KEYS", "HarmonicPotential", "KernelSchedule", "MomentState", "evolve_moments"),
    ".dynamics.montecarlo": ("simulate_sde_markov",),
    ".dynamics.phasespace": ("PhaseSpaceGrid", "evolve_wigner_pde"),
}
_bind, __getattr__ = _lazy(globals(), _HOMES)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # argparse takes "-1e-6" for an option: its own pattern has no exponent
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message: str) -> None:  # exit code 1 instead of argparse's 2
        raise ValueError(message)


def _sha256_file(path: Path) -> str:
    """Digest of an input file. This is the first read of every --input, so a
    missing or unreadable one is a data error here."""
    # hashlib, for OpenSSL's SHA-256: an input file has no size bound, and
    # OpenSSL hashes one about 5 times as fast as CPython's own (3.6 against
    # 19.4 ms on a 5 MB prices file). Imported here, not at the top: loading
    # OpenSSL costs about 3.6 MB resident, which --version and --help do not need.
    import hashlib

    h = hashlib.sha256()
    try:
        with open(path, "rb") as handle:
            # chunks under glibc's initial 128 KiB mmap threshold: freeing a
            # mapped chunk raises the threshold to its size, and at 1 MiB every
            # later array of analyze would go to the heap, whose freed holes stay resident
            for chunk in iter(lambda: handle.read(1 << 16), b""):
                h.update(chunk)
    except FileNotFoundError as exc:
        raise DataError(f"input file not found: {path}") from exc
    except OSError as exc:
        raise DataError(f"cannot read input {path}: {exc.strerror or exc}") from exc
    return h.hexdigest()


_PATH_KEYS = ("config", "input", "out", "out_prefix")


def _sha256_config(config: dict) -> str:
    # identifies the run parameters; i/o locations do not affect the data.
    # A config is a few hundred bytes, so CPython's own SHA-256 hashes it as
    # fast as OpenSSL's, and eval and simulate, which digest nothing else,
    # never load OpenSSL. Some builds leave the built-in out
    # (--with-builtin-hashlib-hashes), so hashlib's stays the fallback.
    try:
        from _sha2 import sha256  # CPython 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256  # CPython 3.11
        except ImportError:
            from hashlib import sha256

    payload = {k: v for k, v in config.items() if k not in _PATH_KEYS}
    return sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _json_text(name: str, payload: dict) -> str:
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericalError(f"{name}: refusing to write a non-finite number") from exc


# the one column allowed to hold NaN: the ACF standard error at a lag with a single pair
_NAN_COLUMN = "stderr"
# rows formatted into one string of a CSV file's text
_CSV_BLOCK = 4096


def _percent(text: str, numbers: np.ndarray) -> str:
    """text % the numbers, as Python floats; text itself where there are none."""
    return text % tuple(numbers.tolist()) if len(numbers) else text


def _csv_chunks(name: str, digest: str, columns: dict[str, np.ndarray]) -> Iterable[str]:
    """The text of one CSV file, checked now and formatted as it is consumed,
    one string per block of rows.

    Numeric columns are written with 17 significant digits. A
    ``datetime64[m]`` column is written as `YYYY-MM-DDTHH:MM` stamps. Each
    block is a template of ASCII bytes: its stamps (stamp_bytes), a field per
    number, the commas and the newlines. In a full block of _CSV_BLOCK rows,
    g17 writes each number with 1 <= |x| < 1e15 into its field as the bytes
    `%.17g` makes of it. Every other number's field is a `%.17g`; the block's
    NUL padding is dropped, and one `%` of those numbers formats it. So the
    stamps are never Python strings, and a column's text is never held whole.
    A non-finite number outside the ``stderr`` column raises a NumericalError
    before anything is produced.
    """
    import numpy as np

    stamps, numbers = {}, {}  # each column's values by its place in the row
    for place, (key, col) in enumerate(columns.items()):
        if col.dtype == "datetime64[m]":
            _bind(".market")
            stamps[place] = col.view(np.int64)
        else:
            col = col.astype(float, copy=False)
            if key != _NAN_COLUMN and not np.isfinite(col).all():
                raise NumericalError(f"{name}: refusing to write non-finite values in column {key!r}")
            numbers[place] = col
    header = f"# qbmarket {__version__}; input sha256={digest}\n" + ",".join(columns) + "\n"
    n_rows = len(next(iter(columns.values())))

    def blocks() -> Iterator[str]:
        rows = min(n_rows, _CSV_BLOCK)  # a short table's buffers are its size: they can set a run's peak
        width = 5
        if rows == _CSV_BLOCK:  # room in each number's field for g17's bytes
            from ._g17 import WIDTH as width, g17
        placeholder = np.frombuffer(b"%.17g".ljust(width, b"\0"), dtype=np.uint8)
        fields = [b"YYYY-MM-DDTHH:MM" if place in stamps else placeholder.tobytes() for place in range(len(columns))]
        starts = list(itertools.accumulate((len(field) + 1 for field in fields), initial=0))
        row = np.frombuffer(b",".join(fields) + b"\n", dtype=np.uint8)
        template = np.tile(row, (rows, 1))
        values = np.empty((rows, len(numbers)))
        for start in range(0, n_rows, _CSV_BLOCK):
            block = slice(start, min(start + _CSV_BLOCK, n_rows))
            n = block.stop - start
            if n < _CSV_BLOCK:  # a `%.17g` in every number's field again, after g17 filled them
                template[:n] = row
            for place, times in stamps.items():
                template[:n, starts[place] : starts[place] + 16] = stamp_bytes(times[block])
            for j, col in enumerate(numbers.values()):
                values[:n, j] = col[block]
            left = values[:n].ravel()
            if n == _CSV_BLOCK:
                cells, done = g17(left)
                cells[~done] = placeholder
                for j, place in enumerate(numbers):
                    template[:, starts[place] : starts[place] + width] = cells[j :: len(numbers)]
                left = left[~done]
                del cells, done  # freed before the block's text is made
            chars = template[:n].ravel()
            yield _percent(chars[chars != 0].tobytes().decode("ascii"), left)

    return itertools.chain([header], blocks())


def _publish(command: str, cfg: dict, digest: str | None, files: dict[Path, Iterable[str]], prefix: Path) -> None:
    """Write a run's data files and its manifest, `<prefix>.manifest.json`:
    all of them or none.

    Each file's text is streamed to a temp file of this run's own; nothing is
    renamed over its target until every file is staged. A failure while
    staging removes every temp file, and a failed rename also removes the
    targets this run already renamed. An OSError is a usage error that names
    the target.
    """
    manifest = Path(f"{prefix}.manifest.json")
    record = {
        "tool": "qbmarket",
        "version": __version__,
        "command": command,
        "config": cfg,
        "input_sha256": digest,
        "outputs": [path.name for path in files],
    }
    files = {**files, manifest: [_json_text(manifest.name, record)]}
    tag = os.urandom(8).hex()
    staged: dict[Path, Path] = {}
    renamed: list[Path] = []
    try:
        for target, chunks in files.items():
            target.parent.mkdir(parents=True, exist_ok=True)
            tmp = target.with_name(f"{target.name}.{tag}.tmp")
            with open(tmp, "x", encoding="utf-8") as handle:
                staged[target] = tmp
                handle.writelines(chunks)
        for target, tmp in staged.items():
            os.replace(tmp, target)
            renamed.append(target)
    except BaseException as exc:
        for path in itertools.chain(staged.values(), renamed):
            path.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise ValueError(f"cannot write {target}: {exc.strerror or exc}") from exc
        raise


def _load_config_file(path: str) -> dict[str, str]:
    """The `key = value` lines of a config file, keyed by option dest: the
    flag name without its dashes, lower case, `-` read as `_`."""
    out: dict[str, str] = {}
    seen: dict[str, int] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc.strerror or exc}") from exc
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config {path} line {line_no}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip().lower().replace("-", "_")
        if key in seen:
            raise ValueError(f"config {path}: key {key!r} repeated on lines {seen[key]} and {line_no}")
        seen[key] = line_no
        out[key] = value.strip()
    return out


def _config_argv(path: str, flags: dict[str, str]) -> list[str]:
    """A config file as `--flag=value` tokens, so argparse types and checks
    each value as it does a flag (the `=` form keeps `-0.5` a value)."""
    tokens = []
    for key, value in _load_config_file(path).items():
        if key not in flags:
            raise ValueError(f"config key {key!r} is not a flag of this command")
        tokens.append(f"{flags[key]}={value}")
    return tokens


def _require(cfg: dict, *names: str) -> None:
    missing = [n for n in names if cfg.get(n) is None]
    if missing:
        raise ValueError("missing required option(s): " + ", ".join("--" + n.replace("_", "-") for n in missing))


def _seed_from(cfg: dict) -> int | None:
    if cfg.get("seed") is not None:
        return int(cfg["seed"])
    env = os.environ.get("QBM_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ValueError(f"QBM_SEED is not an integer: {env!r}") from exc
    return None


def _model_params(cfg: dict) -> ModelParams:
    return ModelParams(M=cfg["m"], gamma=cfg["gamma"], kT=cfg["kt"], hbar=cfg["hbar"])


def _nm_params(cfg: dict) -> NonMarkovParams:
    _require(cfg, "xi", "eta", "omega")
    return NonMarkovParams(xi=cfg["xi"], eta=cfg["eta"], omega=cfg["omega"])


def _parse_taus(spec: str) -> list[int]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"tau range must be start:end:step, got {spec!r}")
    try:
        start, end, step = (int(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"tau range must be integers, got {spec!r}") from exc
    if step <= 0 or end < start:
        raise ValueError(f"invalid tau range {spec!r}")
    if start <= 0:
        raise ValueError(f"tau range must start above 0, got {spec!r}")
    return list(range(start, end + 1, step))


_MODEL_OPTS = [
    ("--M", "m", float, 1.0, "index inertia M (dimensionless mass)"),
    ("--gamma", "gamma", float, 1.0, "dissipation rate gamma (1/time unit)"),
    ("--kT", "kt", float, 1.0, "fluctuation strength kT (energy units)"),
    ("--hbar", "hbar", float, 1.0, "irrationality scale hbar (action units)"),
]
_NM_OPTS = [
    ("--xi", "xi", float, None, "autocorrelation intensity xi (log-price per minute)"),
    ("--eta", "eta", float, None, "autocorrelation decay rate eta (1/minute)"),
    ("--omega", "omega", float, None, "market periodicity Omega (rad/minute)"),
]


def _add_opts(sub: argparse.ArgumentParser, opts: list[tuple]) -> dict[str, str]:
    """Add each (flag, dest, type or tuple of choices, default, help) option;
    return the map from dest to flag."""
    for flag, dest, kind, default, help_text in opts:
        checked = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
        sub.add_argument(flag, dest=dest, default=default, help=help_text, **checked)
    return {dest: flag for flag, dest, *_ in opts}


def build_parser() -> tuple[_Parser, dict[str, dict[str, str]]]:
    """The `qbm` parser and, per command, the map from dest to flag."""
    parser = _Parser(prog="qbm", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"qbmarket {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    flags: dict[str, dict[str, str]] = {}

    common = [("--config", "config", str, None, "flat key = value config file; flags override")]

    sub = subs.add_parser("eval", help="evaluate a closed-form curve to CSV")
    opts = common + [
        ("--formula", "formula", ("variance", "variance-short", "classical", "delta", "lambda", "acf",
                                  "spectral-density"), None, "curve to evaluate"),
        *_MODEL_OPTS,
        ("--sx2-0", "sx2_0", float, None, "initial coordinate variance"),
        ("--sp2-0", "sp2_0", float, None, "initial momentum variance (default: minimal uncertainty)"),
        ("--spx-0", "spx_0", float, 0.0, "initial symmetrized cross moment <XP+PX>"),
        *_NM_OPTS,
        ("--kind", "kind", ("ohmic", "ohmic-lorentz", "composite"), "ohmic", "spectral density kind"),
        ("--cutoff", "cutoff", float, None, "spectral cutoff Omega_cut (rad/time unit)"),
        ("--start", "start", float, None, "range start (time units; minutes for acf; rad/time for spectra)"),
        ("--end", "end", float, None, "range end"),
        ("--points", "points", int, 201, "number of evaluation points"),
        ("--out", "out", str, None, "output CSV path"),
    ]
    flags["eval"] = _add_opts(sub, opts)
    sub.set_defaults(func=cmd_eval)

    sub = subs.add_parser("simulate", help="run moment / SDE / phase-space evolution to CSV")
    opts = common + [
        ("--mode", "mode", ("moments", "sde", "pde"), None, "simulation mode"),
        *_MODEL_OPTS,
        ("--kernel", "kernel", ("markov", "non-markov"), "markov", "diffusion-coefficient schedule"),
        *_NM_OPTS,
        ("--x2", "x2", float, None, "initial <X^2> (default: none; required)"),
        ("--p2", "p2", float, None, "initial <P^2> (default: minimal uncertainty hbar^2/(4 x2))"),
        ("--xp", "xp", float, 0.0, "initial <XP+PX>"),
        ("--x4", "x4", float, None, "initial <X^4> override (default: Gaussian value 3 <X^2>^2)"),
        ("--t-end", "t_end", float, None, "end time (model time units)"),
        ("--points", "points", int, 101, "number of output times"),
        ("--n-paths", "n_paths", int, 100000, "SDE ensemble size"),
        ("--dt", "dt", float, None, "ignored: sde and moments are exact over each output interval (pde refuses it)"),
        ("--seed", "seed", int, None, "RNG seed (mandatory for sde; QBM_SEED fallback)"),
        ("--nx", "nx", int, 256, "grid cells along x"),
        ("--np", "np", int, 256, "grid cells along p"),
        ("--x-width", "x_width", float, None, "grid half-width in x (default 8 sqrt(<X^2>))"),
        ("--p-width", "p_width", float, None, "grid half-width in p (default 8 sqrt(<P^2>))"),
        ("--potential", "potential", ("none", "harmonic"), "none", "potential for moments and pde modes"),
        ("--omega0", "omega0", float, None, "harmonic potential frequency (1/time unit)"),
        ("--out-prefix", "out_prefix", str, None, "output prefix: writes <prefix>.csv and <prefix>.manifest.json"),
    ]
    flags["simulate"] = _add_opts(sub, opts)
    sub.set_defaults(func=cmd_simulate)

    sub = subs.add_parser("analyze", help="run the empirical pipeline on a prices CSV")
    opts = common + [
        ("--input", "input", str, None, "prices CSV (timestamp,close[,session])"),
        ("--taus", "taus", str, "5:100:5", "horizon range start:end:step in minutes"),
        ("--max-lag", "max_lag", int, 480, "ACF maximum lag (minutes)"),
        ("--return-tau", "return_tau", int, None, "horizon for histogram/ACF returns (default: base resolution)"),
        ("--policy", "policy", ("intraday-only", "contiguous"), "intraday-only", "session pairing policy"),
        ("--bins", "bins", int, None, "histogram bin count (default: Freedman-Diaconis)"),
        ("--out-prefix", "out_prefix", str, None, "output prefix for the statistics CSVs and manifest"),
    ]
    flags["analyze"] = _add_opts(sub, opts)
    sub.set_defaults(func=cmd_analyze)

    sub = subs.add_parser("fit", help="fit calibration models to estimator CSV output")
    opts = common + [
        ("--kind", "kind", ("acf", "kurtosis"), None, "which fit to run"),
        ("--input", "input", str, None, "estimator CSV (lag,acf[,count[,stderr]] or tau,kurtosis[,n])"),
        ("--base-minutes", "base_minutes", int, None, "lag resolution in minutes (default: inferred)"),
        ("--weights", "weights", ("uniform", "count-weighted"), "uniform", "ACF residual weighting"),
        ("--out", "out", str, None, "output JSON report path"),
    ]
    flags["fit"] = _add_opts(sub, opts)
    sub.set_defaults(func=cmd_fit)

    sub = subs.add_parser("synth", help="generate seeded synthetic market data")
    opts = common + [
        ("--kind", "kind", ("gbm", "colored"), None, "generator"),
        ("--n", "n", int, None, "number of bars / return samples"),
        ("--dt", "dt", int, 1, "bar spacing in minutes"),
        ("--seed", "seed", int, None, "RNG seed (mandatory; QBM_SEED fallback)"),
        ("--mu", "mu", float, 0.0, "gbm price drift rate (1/minute)"),
        ("--sigma", "sigma", float, 0.01, "gbm volatility (1/sqrt(minute))"),
        ("--s0", "s0", float, 100.0, "gbm initial price"),
        *_NM_OPTS,
        ("--base-noise", "base_noise", float, 1e-3, "colored: white-noise level (log-price per minute)"),
        ("--out", "out", str, None, "output prices CSV path"),
    ]
    flags["synth"] = _add_opts(sub, opts)
    sub.set_defaults(func=cmd_synth)

    return parser, flags


def cmd_eval(cfg: dict) -> int:
    _require(cfg, "formula", "start", "end", "out")
    start, end, points = cfg["start"], cfg["end"], int(cfg["points"])
    if not (end > start):
        raise ValueError("--start must be below --end")
    if start < 0:
        raise ValueError("--start must be nonnegative")
    if points < 2:
        raise ValueError("--points must be at least 2")
    import numpy as np

    _bind(".model")
    grid = np.linspace(start, end, points)
    formula = cfg["formula"]
    digest = _sha256_config(cfg)

    if formula == "acf":
        nm = _nm_params(cfg)
        columns = {"tau_minutes": grid, "acf": np.asarray(acf_model(nm, grid))}
    elif formula == "spectral-density":
        params = _model_params(cfg)
        kind = cfg["kind"]
        nm = _nm_params(cfg) if kind == "composite" else None
        spec = BathSpectrum(kind=kind, cutoff=cfg.get("cutoff"), nm=nm)
        columns = {"omega": grid, "j_omega": np.asarray(spectral_density(params, spec, grid))}
    elif formula in ("variance", "variance-short", "classical"):
        params = _model_params(cfg)
        if formula == "classical":
            values = classical_variance(params, grid)
        else:
            _require(cfg, "sx2_0")
            sx2 = cfg["sx2_0"]
            if formula == "variance-short":
                values = variance_short_time(params, sx2, grid)
            else:
                sp2 = cfg["sp2_0"] if cfg.get("sp2_0") is not None else minimal_uncertainty_momentum(params, sx2)
                init = SecondMomentInit(sx2_0=sx2, sp2_0=sp2, spx_0=cfg["spx_0"])
                values = variance_closed_form(params, init, grid)
        columns = {"t": grid, "sigma_x2": np.asarray(values)}
    else:  # delta / lambda
        params = _model_params(cfg)
        nm = _nm_params(cfg)
        fn = delta_coefficient if formula == "delta" else lambda_coefficient
        columns = {"t": grid, formula: np.asarray(fn(params, nm, grid))}

    out = Path(cfg["out"])
    _publish("eval", cfg, digest, {out: _csv_chunks(out.name, digest, columns)}, out)
    print(f"wrote {out}")
    return 0


def cmd_simulate(cfg: dict) -> int:
    _require(cfg, "mode", "t_end", "out_prefix")
    if cfg["points"] < 2:
        raise ValueError("--points must be at least 2")
    if not cfg["t_end"] > 0:
        raise ValueError("--t-end must be positive")
    mode = cfg["mode"]
    if cfg.get("dt") is not None:
        if mode == "pde":
            raise ValueError("--dt is an sde flag: pde maps each output interval exactly, with no time step")
        if not cfg["dt"] > 0:
            raise ValueError("--dt must be positive")
        # sde and moments are exact in time: a step changes nothing, so it stays out of the digest
        cfg["dt"] = None
    if mode == "sde":
        del cfg["dt"]  # sde configs carry no dt key; moments keeps its null, and so its output bytes
    import numpy as np

    _bind(".model", ".dynamics.moments")
    params = _model_params(cfg)
    if cfg["kernel"] == "non-markov":
        schedule = KernelSchedule.non_markov(params, _nm_params(cfg))
    else:
        schedule = KernelSchedule.markov(params)

    _require(cfg, "x2")
    x2 = cfg["x2"]
    p2 = cfg["p2"] if cfg.get("p2") is not None else minimal_uncertainty_momentum(params, x2)
    m11 = cfg["xp"] / 2.0
    # every mode starts from a Gaussian of covariance [[x2, m11], [m11, p2]]
    if not (x2 > 0 and m11 * m11 < x2 * p2):
        raise ValueError("--x2, --p2 and --xp give initial second moments that are not positive definite "
                         "(need --x2 > 0 and (--xp/2)^2 < --x2 * --p2)")
    t_end = cfg["t_end"]
    times = np.linspace(0.0, t_end, int(cfg["points"]))
    prefix = Path(cfg["out_prefix"])
    seed = _seed_from(cfg)
    if seed is not None:
        cfg["seed"] = seed
    digest = _sha256_config(cfg)

    potential = None
    if cfg["potential"] == "harmonic":
        if mode == "sde":
            raise ValueError("--potential harmonic is not modelled in sde mode")
        _require(cfg, "omega0")
        potential = HarmonicPotential(cfg["omega0"])

    if mode == "moments":
        init = MomentState.gaussian(x2, p2, m11)
        if cfg.get("x4") is not None:
            init = init.with_value(4, 0, cfg["x4"])
        traj = evolve_moments(init, schedule, times, potential=potential)
        columns = {"t": traj.times, **{f"m{j}{k}": traj.moment(j, k) for (j, k) in MOMENT_KEYS},
                   "kurtosis_x": traj.kurtosis_x()}
    elif mode == "sde":
        if seed is None:
            raise ValueError("sde mode requires --seed (or QBM_SEED)")
        if cfg["kernel"] != "markov":
            raise ValueError("sde mode supports only the markov kernel (no stochastic representation otherwise)")
        if cfg["n_paths"] < 1000:
            raise ValueError("--n-paths must be at least 1000")
        init = SecondMomentInit(sx2_0=x2, sp2_0=p2, spx_0=cfg["xp"])
        _bind(".dynamics.montecarlo")
        ens = simulate_sde_markov(params, init, int(cfg["n_paths"]), t_end / (len(times) - 1), t_end, seed)
        columns = {"t": ens.times}
        for (j, k) in MOMENT_KEYS[1:]:  # all but m00 = 1
            columns[f"m{j}{k}"] = ens.mean[(j, k)]
            columns[f"m{j}{k}_se"] = ens.stderr[(j, k)]
    else:  # pde
        for flag in ("nx", "np"):
            if cfg[flag] < 16:
                raise ValueError(f"--{flag} must be at least 16")
        _bind(".dynamics.phasespace")
        grid = PhaseSpaceGrid.gaussian(
            x2,
            p2,
            m11,
            x_half_width=cfg.get("x_width"),
            p_half_width=cfg.get("p_width"),
            n_x=int(cfg["nx"]),
            n_p=int(cfg["np"]),
        )
        evo = evolve_wigner_pde(grid, schedule, times, potential=potential)
        columns = {"t": evo.times, "mass": evo.masses}
        for (j, k) in [(2, 0), (1, 1), (0, 2), (4, 0), (0, 4)]:
            columns[f"m{j}{k}"] = evo.moment(j, k)
        columns["kurtosis_x"] = np.array([s.kurtosis_x() for s in evo.moments])
        columns["eps_neg"] = evo.negative_fractions

    out_csv = Path(f"{prefix}.csv")
    _publish("simulate", cfg, digest, {out_csv: _csv_chunks(out_csv.name, digest, columns)}, prefix)
    print(f"wrote {out_csv}")
    return 0


def cmd_analyze(cfg: dict) -> int:
    _require(cfg, "input", "out_prefix")
    taus = _parse_taus(cfg["taus"])
    if cfg["max_lag"] < 0:
        raise ValueError("--max-lag must be nonnegative")
    for flag in ("bins", "return_tau"):
        if cfg.get(flag) is not None and cfg[flag] <= 0:
            raise ValueError(f"--{flag.replace('_', '-')} must be positive")
    in_path = Path(cfg["input"])
    digest = _sha256_file(in_path)
    _bind(".market")
    series = load_prices(in_path)
    policy = cfg["policy"]
    taus = [t for t in taus if t % series.base_minutes == 0]
    if len(taus) < 3:
        raise DataError("fewer than 3 usable horizons at this base resolution")

    # the series' stages, then the returns': none holds both (kurtosis raises only what scaling would)
    scaling = drift_vol_scaling(series, taus, policy=policy)
    kurt = empirical_kurtosis(series, taus, policy=policy)
    return_tau = int(cfg["return_tau"]) if cfg.get("return_tau") is not None else series.base_minutes
    returns = log_returns(series, return_tau, policy=policy, remove_drift=True)
    del series
    hist = return_histogram(returns, bins=cfg.get("bins"))
    try:
        acf = empirical_acf(returns, int(cfg["max_lag"]))
    except ValueError as exc:  # the sign was checked above: a lag longer than the data span
        raise DataError(str(exc)) from exc
    del returns

    tables = {
        "scaling": {
            "tau": scaling.taus,
            "mean_increment": scaling.mean_increment,
            "sigma": scaling.sigma,
            "mu": scaling.mu,
            "count": scaling.counts,
        },
        "histogram": {
            "center": hist.centers,
            "density": hist.density,
            "gaussian_ref": hist.gaussian_ref,
            "count": hist.counts,
        },
        "acf": {
            "lag": acf.lags,
            "acf": acf.values,
            "count": acf.counts,
            "stderr": acf.stderr,
        },
        "kurtosis": {"tau": kurt.taus, "kurtosis": kurt.kappa, "n": kurt.counts},
    }
    prefix = Path(cfg["out_prefix"])
    # every table is checked before the first file is written
    files = {}
    for name, columns in tables.items():
        path = Path(f"{prefix}.{name}.csv")
        files[path] = _csv_chunks(path.name, digest, columns)
    _publish("analyze", cfg, digest, files, prefix)
    print(f"wrote {len(files)} statistics files with prefix {prefix}")
    return 0


def _read_estimator_csv(path: Path, expected: tuple[str, ...]) -> dict[str, np.ndarray]:
    import numpy as np

    rows = []
    header: list[str] | None = None
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from exc
    for raw in text.splitlines():
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        if header is None:
            header = [h.strip().lower() for h in raw.split(",")]
            continue
        rows.append(raw.split(","))
    if header is None or not rows:
        raise DataError(f"{path}: no data rows")
    repeated = sorted({c for c in header if header.count(c) > 1})
    if repeated:
        raise DataError(f"{path}: repeated column(s) {repeated}; header is {header}")
    missing = [c for c in expected if c not in header]
    if missing:
        raise DataError(f"{path}: missing column(s) {missing}; header is {header}")
    data: dict[str, list[float]] = {c: [] for c in header}
    for i, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise DataError(f"{path}: row {i} has {len(row)} fields, expected {len(header)}")
        for c, cell in zip(header, row):
            try:
                value = float(cell)
            except ValueError as exc:
                raise DataError(f"{path}: row {i}: cannot parse {cell!r}") from exc
            if c != _NAN_COLUMN and not math.isfinite(value):
                raise DataError(f"{path}: row {i}: {c} is not finite ({cell.strip()!r})")
            if c in ("lag", "count") and not (value.is_integer() and abs(value) < 2.0**63):
                raise DataError(f"{path}: row {i}: {c} is not a 64-bit integer ({cell.strip()!r})")
            if c == "count" and value < 1:
                raise DataError(f"{path}: row {i}: count is below 1 ({cell.strip()!r})")
            data[c].append(value)
    return {c: np.asarray(v) for c, v in data.items()}


def cmd_fit(cfg: dict) -> int:
    _require(cfg, "kind", "input", "out")
    if cfg.get("base_minutes") is not None and cfg["base_minutes"] <= 0:
        raise ValueError("--base-minutes must be positive")
    in_path = Path(cfg["input"])
    digest = _sha256_file(in_path)
    import numpy as np

    _bind(".market", ".calibrate")

    if cfg["kind"] == "acf":
        data = _read_estimator_csv(in_path, ("lag", "acf"))
        lags = data["lag"].astype(np.int64)
        bad = np.flatnonzero((lags < 0) | (np.diff(lags, prepend=-1) <= 0))
        if len(bad):
            i = bad[0]
            fault = "is negative" if lags[i] < 0 else f"does not exceed the lag {lags[i - 1]} before it"
            raise DataError(f"{in_path}: row {i + 1}: lag {lags[i]} {fault}; lags must be nonnegative and strictly increasing")
        counts = data.get("count", np.ones(len(lags))).astype(np.int64)
        stderr = data.get("stderr", np.full(len(lags), np.nan))
        base = int(cfg["base_minutes"]) if cfg.get("base_minutes") is not None else int(np.min(np.diff(lags[lags > 0]))) if np.sum(lags > 0) > 1 else 1
        est = AcfEstimate(
            lags=lags,
            values=data["acf"],
            counts=counts,
            stderr=stderr,
            base_minutes=base,
            tau_minutes=base,
        )
        fit = fit_acf(est, weights=cfg["weights"])
        report = {
            "kind": "acf",
            "xi": fit.nm.xi,
            "eta": fit.nm.eta,
            "omega": fit.nm.omega,
            "stderr": {"xi": fit.stderr[0], "eta": fit.stderr[1], "omega": fit.stderr[2]} if fit.stderr else None,
            "residual": fit.residual,
            "iterations": fit.iterations,
            "converged": fit.converged,
            "diagnostic": fit.diagnostic,
            "input_sha256": digest,
        }
    else:
        data = _read_estimator_csv(in_path, ("tau", "kurtosis"))
        fit = fit_kurtosis_decay(data["tau"], data["kurtosis"])
        import dataclasses

        report = {"kind": "kurtosis", **dataclasses.asdict(fit), "input_sha256": digest}

    out = Path(cfg["out"])
    _publish("fit", cfg, digest, {out: [_json_text(out.name, report)]}, out)
    print(f"wrote {out} (converged={report['converged']})")
    return 0


def cmd_synth(cfg: dict) -> int:
    _require(cfg, "kind", "n", "out")
    seed = _seed_from(cfg)
    if seed is None:
        raise ValueError("synth requires --seed (or QBM_SEED)")
    if not cfg["s0"] > 0:
        raise ValueError("--s0 must be positive")
    cfg["seed"] = seed
    n = int(cfg["n"])
    dt = int(cfg["dt"])
    if n < 2:
        raise ValueError("--n must be at least 2")
    if dt <= 0:
        raise ValueError("--dt must be positive")
    _bind(".model", ".market")
    if SYNTH_START_MINUTE + (n - 1) * dt > STAMP_MINUTES[1]:
        raise ValueError(
            "--n and --dt put the last bar after 9999-12-31T23:59: "
            f"need (--n - 1) * --dt <= {STAMP_MINUTES[1] - SYNTH_START_MINUTE}"
        )
    digest = _sha256_config(cfg)
    out = Path(cfg["out"])

    if cfg["kind"] == "gbm":
        series = synth_gbm(mu=cfg["mu"], sigma=cfg["sigma"], n=n, dt_minutes=dt, seed=seed, s0=cfg["s0"])
    else:
        nm = _nm_params(cfg)
        # synth_colored's own checks, with the flags named
        eta_dt = nm.eta * dt
        if eta_dt > 0.5:
            raise ValueError(f"--eta times --dt must be at most 0.5 for a stable filter: got {eta_dt:.3g}")
        need = 10.0 / eta_dt
        if n < need:
            need = need if math.isinf(need) else math.ceil(need)  # inf where --eta * --dt is subnormal
            raise ValueError(f"--n must cover ten decay times, 10 / (--eta * --dt): need --n >= {need}")
        # integrate tau-normalized returns into a price path so the output is
        # a prices CSV the analyze command can consume directly
        steps = synth_colored(nm, n=n, dt_minutes=dt, base_noise=cfg["base_noise"], seed=seed).values * dt
        series = PriceSeries.synthetic(cfg["s0"], steps, dt)
        del steps

    columns = {"timestamp": series.times.view("datetime64[m]"), "close": series.close}
    _publish("synth", cfg, digest, {out: _csv_chunks(out.name, digest, columns)}, out)
    print(f"wrote {out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser, flags = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config:
            # the file's values go before the user's own, so a flag wins (argparse keeps the last)
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + _config_argv(args.config, flags[args.command]) + argv[at:])
        cfg = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
        for dest, value in cfg.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{flags[args.command][dest]} must be finite")
        # a non-finite result is reported once, by the check that refuses it
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "(overflow|invalid value|divide by zero) encountered", RuntimeWarning)
            return args.func(cfg)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
