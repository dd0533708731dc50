"""Self-check of the benchmark at tiny sizes.

Run from the repository root:

    python3 perfbench/smoke.py

For every workload it runs perfbench/run.py twice in each mode and checks
that the result line has the contracted shape and is correct, that every
metric BENCHMARK.json names is printed with its unit, that every per-layer
metric has an entry in predictions.json, and that the counts the trace
reports repeat exactly. Last, it checks that the benchmark refuses to run,
without printing a result, where the program's sources are absent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import COUNTS  # noqa: E402


def run(cwd: Path, workload: str, trace: int) -> tuple[subprocess.CompletedProcess, dict | None]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        return proc, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc, None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    predictions = json.loads((HERE / "predictions.json").read_text())
    problems = [f"no prediction for {m['name']}" for m in spec["per_layer"] if m["name"] not in predictions]
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            results = []
            for _ in range(2):
                proc, result = run(ROOT, workload, trace)
                where = f"{workload} --trace {trace}"
                if proc.returncode != 0 or result is None:
                    problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                    continue
                if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
                    problems.append(f"{where}: bad or incorrect result {result}")
                for metric in spec[key]:
                    name, unit = metric["name"], metric["unit"]
                    if result["metrics"].get(name, {}).get("unit") != unit:
                        problems.append(f"{where}: {name} missing or not in {unit}")
                    if not any(line.startswith(f"# {name} = ") and line.endswith(f" {unit}")
                               for line in proc.stdout.splitlines()):
                        problems.append(f"{where}: {name} not printed with its unit")
                results.append(result)
            if trace == 1 and len(results) == 2:
                for name in COUNTS:
                    a, b = (r["metrics"][name]["value"] for r in results)
                    if a != b:
                        problems.append(f"{workload}: count {name} differs between runs: {a} != {b}")
            print(f"{workload} --trace {trace}: checked", flush=True)

    bare = HERE / "work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    proc, result = run(bare, spec["workloads"][0]["name"], 0)
    if proc.returncode == 0 or result is not None:
        problems.append("without sources the benchmark did not fail cleanly")
    shutil.rmtree(bare)

    for problem in problems:
        print("FAIL:", problem)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
