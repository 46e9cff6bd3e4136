"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs the benchmark on the default
seed with --seconds 1, once untraced and twice traced, and checks that

* each run exits 0 with correct outputs and no failed operation;
* the last line holds exactly the end-to-end metrics (untraced) or the
  per-layer metrics (traced) that BENCHMARK.json names, with their units;
* every work count and ratio of the traced run (all per-layer metrics but
  times and trace_overhead_fraction) is the same in both traced runs.

Last, it runs the benchmark in a directory that holds only BENCHMARK.json
and perfbench/, where it must fail without printing a result. Takes about
ten minutes on 2 cores. Exits 1 if any check fails.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMES = ("s", "ms")


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )


def result_of(proc: subprocess.CompletedProcess):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if proc.returncode == 0 and lines else None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        traced = []
        for trace in (0, 1, 1):
            proc = bench(ROOT, workload, trace)
            result = result_of(proc)
            where = f"{workload} --trace {trace}"
            if result is None:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"failed={result['failed']}/{result['attempted']}")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected[trace]:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(units) ^ set(expected[trace]))}")
            if trace:
                traced.append(result["metrics"])
            print(f"ran {where}", flush=True)
        if len(traced) == 2:
            for name, unit in expected[1].items():
                if unit in TIMES or name == "trace_overhead_fraction":
                    continue
                a, b = traced[0][name]["value"], traced[1][name]["value"]
                if a != b:
                    problems.append(f"{workload}: {name} differs between runs: {a} vs {b}")

    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="selftest-bare-", dir=ROOT / ".perfbench_work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"without sources: exit {proc.returncode}, stdout {proc.stdout!r}")
        print("ran without sources", flush=True)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
