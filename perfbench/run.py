"""ramanfuse benchmark: one seeded batch workload per run.

    python3 perfbench/run.py --workload cv_all --seed 0 --seconds 20 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's src/. A run generates its cohort from --seed (set-up), then runs
the workload's batch job back to back for about --seconds (at least once),
and checks every job's outputs. With --trace 1 it then sets up and runs one
more job with every layer traced, and writes the spans to
.perfbench_out/spans-<workload>-seed<seed>.jsonl.

The last line of stdout is the result, one JSON object:
    {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}
holding the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1) that BENCHMARK.json lists. The line before it is the full record
of the run: machine, every metric the workload has, the summary of its
outputs and the text of each failure.
"""
from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".perfbench_work"
OUT_ROOT = ROOT / ".perfbench_out"

DEFAULT_SEED = 0
SETUP_REPEATS = 5
FLOAT_TOLERANCE = 1e-9


def machine_record() -> dict:
    import numpy as np

    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "loadavg": list(os.getloadavg()),
    }


def _blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def _matches(value, expected) -> bool:
    if isinstance(expected, float) or isinstance(value, float):
        return (isinstance(value, (int, float)) and isinstance(expected, (int, float))
                and abs(value - expected) <= FLOAT_TOLERANCE)
    if isinstance(expected, dict):
        return (isinstance(value, dict) and value.keys() == expected.keys()
                and all(_matches(value[k], expected[k]) for k in expected))
    if isinstance(expected, list):
        return (isinstance(value, list) and len(value) == len(expected)
                and all(_matches(v, e) for v, e in zip(value, expected)))
    return value == expected


class Checker:
    """Runs jobs and counts failures: a job fails if it raises, if its
    outputs differ from the first job's, or (default seed) if their summary
    differs from the reference."""

    def __init__(self, name: str, workload, seed: int):
        self.workload = workload
        self.reference = None
        if seed == DEFAULT_SEED:
            self.reference = json.loads((HERE / "reference.json").read_text())[name]
        self.first = None     # canonical outputs of the first job that finished
        self.summary = None   # and their summary
        self.attempted = 0
        self.failures = []

    def run(self, ctx):
        """Run one job; returns (wall seconds, units of work done)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            units, outputs = self.workload.job(ctx)
        except Exception:
            self.failures.append(traceback.format_exc(limit=4))
            return time.perf_counter() - start, 0
        wall = time.perf_counter() - start
        canonical = json.dumps(outputs, sort_keys=True)
        if self.first is None:
            self.first = canonical
            self.summary = self.workload.summary(outputs)
        if canonical != self.first:
            self.failures.append(f"job {self.attempted}: outputs differ from job 1")
        elif self.reference is not None and not _matches(self.summary, self.reference):
            self.failures.append(
                f"job {self.attempted}: {json.dumps(self.summary)} differs from "
                f"reference {json.dumps(self.reference)}")
        return wall, units


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    import workloads
    from tracer import Tracer

    machine = machine_record()
    workload = workloads.WORKLOADS[workload_name]
    checker = Checker(workload_name, workload, seed)
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload_name}-", dir=WORK_ROOT))
    try:
        ctx, setup_s = workloads.set_up(workload, seed, workdir, SETUP_REPEATS)

        # Jobs run back to back; another starts only if a job of median
        # length still ends within --seconds, so a run lasts about set-up
        # plus --seconds, or one job if that is longer.
        walls, units_done = [], 0
        begin = time.perf_counter()
        while not walls or (time.perf_counter() - begin
                            + statistics.median(walls) <= seconds):
            gc.collect()
            wall, units = checker.run(ctx)
            walls.append(wall)
            units_done += units
        wall_s = statistics.median(walls)

        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "units_per_s": (units_done / sum(walls), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        layers = {}
        if trace:
            tracer = Tracer()
            with tracer.installed():
                with tracer.span("bench.setup"):
                    traced_ctx, _ = workloads.set_up(workload, seed, workdir, 1)
                gc.collect()
                with tracer.span("bench.job"):
                    traced_wall, _ = checker.run(traced_ctx)
            layers = tracer.layer_metrics(workloads.experiments.PipelineConfig().dp_size)
            layers["trace_overhead_fraction"] = (traced_wall / wall_s - 1.0, "ratio")
            OUT_ROOT.mkdir(exist_ok=True)
            tracer.write_jsonl(OUT_ROOT / f"spans-{workload_name}-seed{seed}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(checker.failures)
    unit_metric = {"samples": "samples_per_s", "fits": "svm_fits_per_s"}[workload.unit]
    named = dict(metrics)
    named[unit_metric] = (metrics["units_per_s"][0], f"{workload.unit}/s")
    named["failed_ops_fraction"] = (failed / checker.attempted, "ratio")
    if checker.summary is not None:
        named.update(workload.quality(checker.summary))
    if trace:
        named["trace_overhead_fraction"] = layers["trace_overhead_fraction"]

    record = {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": machine,
        "jobs_timed": len(walls), "job_walls_s": walls, "units_per_job": units_done // len(walls),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "layers": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
        "summary": checker.summary,
        "failures": checker.failures,
    }
    chosen = layers if trace else metrics
    result = {
        "correct": failed == 0,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ramanfuse" / "cli.py").is_file():
        print(f"perfbench: no ramanfuse sources under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread: as fast as two on a 2-vCPU VM, and with two, any
    # other process on the machine slowed a job up to 4.5x while OpenBLAS
    # threads waited.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import ramanfuse.cli

    if not Path(ramanfuse.cli.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: ramanfuse was imported from outside {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    record, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
