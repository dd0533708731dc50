"""Benchmark of the `qbm` command pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload market_colored --seed 1 --seconds 10 --trace 0

One closed-loop client runs a workload's `qbm` commands one after another;
nothing runs concurrently and BLAS may use at most `nproc` threads. Inputs are
made from `--seed` before timing starts. Rounds repeat while another fits in
`--seconds`, and every timing is the median over rounds.

--trace 0 reports the end-to-end metrics: `wall_s` (the commands as separate
processes, as a user runs them), `warm_s` (the same commands in-process through
`qbmarket.cli.main` after import), `setup_s` (median `qbm --version` launch) and
`peak_rss_mb` (largest peak RSS of any `qbm` process). The three times are
scaled by a reference kernel timed between commands (see SpeedReference); the
unscaled medians are printed too. --trace 1 reports per-layer metrics from
spans the benchmark records around calls into the layers (see spans.py), and
the tracing overhead; span times are not scaled.

Every repetition's outputs are checked against the workload's reference
(workloads.py) and their sha256 must match the first repetition's. The last
line of standard output is the JSON result; the spans, hashes and environment
also go to perfbench/work/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
LAUNCHES = 3
REF_LOOP = 500_000
REF_NOMINAL_S = 0.04
COMMAND_TIMEOUT_S = 150
RNG_REPS = 200
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
# What the `qbm` console script runs, plus a report of the process's peak RSS
# at exit. VmHWM covers only the program's own address space; getrusage in
# the parent would also count this benchmark's pages the child held before exec.
PEAK_TAG = "qbm-peak-rss-kb "
QBM = [
    sys.executable,
    "-c",
    "import atexit, sys\n"
    "def peak():\n"
    "    status = open('/proc/self/status').read()\n"
    f"    sys.stderr.write('\\n{PEAK_TAG}' + status.split('VmHWM:')[1].split()[0] + '\\n')\n"
    "atexit.register(peak)\n"
    "from qbmarket.cli import main\n"
    "sys.exit(main())",
]
IMPORT_PROBE = [
    sys.executable,
    "-c",
    "import time; t = time.perf_counter(); import qbmarket.cli; print(time.perf_counter() - t)",
]


def cap_threads() -> tuple[int, int]:
    """Cap every BLAS/OpenMP pool at nproc before numpy loads; return both."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))
    return nproc, int(os.environ["OPENBLAS_NUM_THREADS"])


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class SpeedReference:
    """A fixed kernel timed between commands.

    On a shared host the speed a process gets drifts, by up to 2x over tens
    of seconds on a 2-core VM whose neighbours are busy. The kernel (an
    interpreter loop and a numpy search, timed separately, geometric mean)
    drifts with it, so a command's time divided by the kernel time measured
    around it follows the program rather than the host. Times are reported
    as seconds at REF_NOMINAL_S per kernel run, the kernel's median on a
    2-core x86_64 VM with Python 3.11.7 and numpy 2.4.6.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._haystack = np.sort(rng.random(1 << 20))
        self._needles = rng.random(1 << 16)
        self._search = np.searchsorted

    def measure(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(REF_LOOP):
            total += i * i % 7
        mid = time.perf_counter()
        self._search(self._haystack, self._needles)
        end = time.perf_counter()
        return math.sqrt((mid - start) * (end - mid))


class Bench:
    """One workload at one seed: its inputs, repetitions and their checks."""

    def __init__(self, workload, seed: int, size: dict, env: dict) -> None:
        self.workload = workload
        self.seed = seed
        self.size = size
        self.env = env
        self.ref = SpeedReference()
        self.dir = WORK / workload.name
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "input").mkdir(parents=True)
        workload.prepare(self.dir / "input", seed, size)
        self.commands = workload.commands(seed, size)
        self.attempted = 0
        self.failed = 0
        self.errs: list[float] = []
        self.hashes: dict[str, str] | None = None
        self.bytes_written = 0
        self.raw: dict[str, list[float]] = {}
        self.peak_rss_kb = 0
        self._rounds = 0

    def timed(self, label: str, steps: list, run_step) -> float | None:
        """Run `run_step` on each step; the summed time of the steps, each
        scaled by the reference kernel timed just before and after it."""
        before = self.ref.measure()
        raw = scaled = 0.0
        for step in steps:
            start = time.perf_counter()
            ok = run_step(step)
            elapsed = time.perf_counter() - start
            after = self.ref.measure()
            raw += elapsed
            scaled += elapsed * REF_NOMINAL_S / (0.5 * (before + after))
            before = after
            if not ok:
                return None
        self.raw.setdefault(label, []).append(raw)
        return scaled

    def _note_peak(self, stderr: str) -> None:
        for line in stderr.splitlines():
            if line.startswith(PEAK_TAG):
                self.peak_rss_kb = max(self.peak_rss_kb, int(line[len(PEAK_TAG):]))

    def _out_dir(self) -> Path:
        self._rounds += 1
        out = self.dir / f"r{self._rounds}"
        out.mkdir()
        return out

    def cold(self) -> float | None:
        """The commands as separate processes; None on failure."""
        out = self._out_dir()

        def launch(argv: list[str]) -> bool:
            proc = subprocess.run(
                QBM + argv, cwd=out, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, timeout=COMMAND_TIMEOUT_S,
            )
            self._note_peak(proc.stderr)
            if proc.returncode != 0:
                print(f"qbm {' '.join(argv)}: exit {proc.returncode}: {proc.stderr.strip()}", file=sys.stderr)
            return proc.returncode == 0

        return self._finish(out, self.timed("wall_s", self.commands, launch))

    def warm(self, tracer=None) -> float | None:
        """The commands in this process through qbmarket.cli.main."""
        from qbmarket.cli import main as qbm_main

        out = self._out_dir()

        def call(argv: list[str]) -> bool:
            span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
            with span:
                return qbm_main(argv) == 0

        gc.collect()
        cwd = os.getcwd()
        os.chdir(out)
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                elapsed = self.timed("traced_s" if tracer else "warm_s", self.commands, call)
        except Exception:  # a crash in the program is a failed operation, not a crashed benchmark
            elapsed = None
            sink.write(traceback.format_exc())
        finally:
            os.chdir(cwd)
        if elapsed is None:
            print(sink.getvalue().strip(), file=sys.stderr)
        return self._finish(out, elapsed)

    def _finish(self, out: Path, elapsed: float | None) -> float | None:
        self.attempted += 1
        ok = elapsed is not None
        if ok:
            try:
                err = self.workload.check(out, self.seed, self.size)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                print(f"{self.workload.name}: check failed: {exc!r}", file=sys.stderr)
                err = float("inf")
            self.errs.append(err)
            files = sorted(p for p in out.iterdir() if p.is_file())
            hashes = {p.name: sha256(p) for p in files}
            self.bytes_written = sum(p.stat().st_size for p in files)
            if self.hashes is None:
                self.hashes = hashes
            if hashes != self.hashes:
                print(f"{self.workload.name}: outputs differ between repetitions", file=sys.stderr)
            if err >= 1.0:
                print(f"{self.workload.name}: err_over_tol = {err:.4g} >= 1", file=sys.stderr)
            ok = err < 1.0 and hashes == self.hashes
        shutil.rmtree(out)
        if not ok:
            self.failed += 1
            return None
        return elapsed

    def launches(self, label: str, argv: list[str], parse=None) -> float:
        """Median over LAUNCHES runs of `argv` from the workload directory:
        the scaled launch time, or `parse(stdout)` when given."""
        values = []

        def launch(_) -> bool:
            proc = subprocess.run(
                argv, cwd=self.dir, env=self.env, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S
            )
            self.attempted += 1
            self._note_peak(proc.stderr)
            if proc.returncode != 0:
                self.failed += 1
                print(f"{argv[-1]}: exit {proc.returncode}: {proc.stderr.strip()}", file=sys.stderr)
            elif parse:
                values.append(parse(proc.stdout))
            return proc.returncode == 0

        for _ in range(LAUNCHES):
            scaled = self.timed(label, [None], launch)
            if scaled is not None and not parse:
                values.append(scaled)
        return median(values)


def repeat(seconds: float, one_round) -> None:
    """Run rounds while another one still fits in `seconds`; at least one."""
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        one_round()
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return


def end_to_end(bench: Bench, seconds: float) -> dict[str, float]:
    setup = bench.launches("setup_s", QBM + ["--version"])
    walls, warms = [], []

    def one_round() -> None:
        walls.append(bench.cold())
        warms.append(bench.warm())

    repeat(seconds, one_round)
    return {
        "wall_s": median([w for w in walls if w is not None]),
        "warm_s": median([w for w in warms if w is not None]),
        "setup_s": setup,
        "peak_rss_mb": bench.peak_rss_kb / 1024.0,
    }


def rng_ns_per_draw(seed: int) -> float:
    """Philox standard_normal cost per draw at the ensemble's block size (computed)."""
    import numpy as np
    from qbmarket.dynamics.montecarlo import PATH_BLOCK

    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    samples = []
    for _ in range(6):
        start = time.perf_counter()
        for _ in range(RNG_REPS):
            rng.standard_normal(PATH_BLOCK)
        samples.append((time.perf_counter() - start) / (RNG_REPS * PATH_BLOCK) * 1e9)
    # the fastest pass, as timeit reports: passes right after the ensemble
    # run up to 2x slow, which would put the share of RNG time above 1
    return min(samples)


def per_layer(bench: Bench, seconds: float, tracer) -> dict[str, float]:
    from spans import COUNTS, summarize

    import_s = bench.launches("import_probe_s", IMPORT_PROBE, float)
    summaries = []

    def one_round() -> None:
        plain = bench.warm()
        tracer.run_id += 1
        with tracer.installed():
            traced = bench.warm(tracer)
        if traced is None:
            return
        summary = summarize(tracer.spans, tracer.run_id)
        if plain is not None:
            summary["trace.overhead_s"] = traced - plain
        simulate_s = summary["montecarlo.simulate_s"]
        if simulate_s:
            # timed right after the ensemble, so both see the same host speed
            ns = rng_ns_per_draw(bench.seed)
            summary["montecarlo.rng_ns_per_draw"] = ns
            summary["montecarlo.rng_share"] = summary["montecarlo.draws"] * ns * 1e-9 / simulate_s
        summaries.append(summary)

    repeat(seconds, one_round)
    for key in COUNTS:
        if len({s[key] for s in summaries}) > 1:
            print(f"count {key} differs between repetitions", file=sys.stderr)
            bench.failed += 1
    summaries = summaries or [summarize([], 0)]  # every traced pass failed: report zeros
    metrics = {
        key: median([s.get(key, 0.0) for s in summaries])
        for key in ("trace.overhead_s", "montecarlo.rng_ns_per_draw", "montecarlo.rng_share", *summaries[0])
    }
    metrics["cli.bytes_written"] = bench.bytes_written
    metrics["cli.import_s"] = import_s
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for smoke.py only")
    args = parser.parse_args(argv)
    if not (SRC / "qbmarket" / "cli.py").is_file():
        print(f"perfbench: no qbmarket sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2

    nproc, blas_threads = cap_threads()
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    from spans import COMPUTED, Tracer
    from workloads import SIZES, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    env_info = {
        "nproc": nproc,
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }
    bench = Bench(WORKLOADS[args.workload], args.seed, SIZES[args.size], dict(os.environ))
    tracer = Tracer()
    if args.trace:
        metrics = per_layer(bench, args.seconds, tracer)
        metrics["check.err_over_tol"] = max(bench.errs, default=0.0)
    else:
        metrics = end_to_end(bench, args.seconds)
    # BENCHMARK.json names the metrics each mode reports, with their units
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}

    err = max(bench.errs, default=float("inf"))
    fail_ratio = bench.failed / bench.attempted
    print("# env " + json.dumps(env_info, sort_keys=True))
    print(f"# {args.workload} seed={args.seed}: err_over_tol={err:.4g} ratio fail_ratio={fail_ratio:.4g} ratio")
    for name, unit in units.items():
        print(f"# {name} = {metrics[name]:.6g} {unit}")
    for label, values in bench.raw.items():
        print(f"# unscaled {label}: median {median(values):.6g} s over {len(values)}")
    if args.trace:
        print("# computed, not timed: " + ", ".join(COMPUTED))
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    (WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(
            {"env": env_info, "result": result, "err_over_tol": bench.errs, "sha256": bench.hashes,
             "unscaled_s": bench.raw, "spans": tracer.spans},
            indent=1,
        )
    )
    shutil.rmtree(bench.dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
