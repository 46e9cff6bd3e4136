"""The three benchmark workloads: cohort each one generates, the set-up
that follows generation, and the timed batch job.

Each workload is a closed loop with one caller: one process, jobs=1. A job
returns (units of work, outputs). Outputs are plain JSON values that must
repeat exactly on every job of a seed; `summary` reduces them to the values
kept as reference for the default seed.

Why these three:
* cv_all: the paper's headline run, task nc-c, every module once; SIFT
  extraction is most of the work.
* grid: the dictionary-size x kernel x C x gamma accuracy search; SIFT runs
  in set-up, so SMO fits are most of the timed work, thousands of them
  uncalibrated, where cv_all makes 15 calibrated fits. Its labels carry no
  signal, so the SMO work is nearly the same on every seed.
* pls_select: a 512-band cohort through the `pls-select` command. The cubes
  are 8x larger, the fluorescence chains (>= 301 bands) join the menu, and
  SIFT, BoVW and SVM are not touched; it is the one job that goes through
  `cli` and writes a report.
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import os
import re
import shutil
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ramanfuse import cli, dataio, experiments, spectral, svm, synth

TASK = "nc-c"
GRID_DP_SIZES = (50, 100)
GRID_RCI_SIZES = (5, 10)
PLS_REPEATS = 8
PLS_LV_MAX = 15


@dataclass
class Context:
    """What a job needs: the generated cohort and whatever set-up made."""

    seed: int
    workdir: Path
    manifest: object
    manifest_path: Path
    features: object = None


# --- cv_all -------------------------------------------------------------------------


def _report(report) -> dict:
    return {
        "fold_aucs": list(report.fold_aucs),
        "pooled_auc": report.pooled_auc,
        "fold_confusions": [[c.tp, c.fp, c.tn, c.fn] for c in report.fold_confusions],
    }


def cv_all_job(ctx: Context):
    desc = experiments.extract_cohort(ctx.manifest, TASK)
    features = experiments.partition_features(desc, ctx.seed)
    outputs = {
        route: _report(experiments.run_bovw_cv(features, route))
        for route in ("dp", "rci", "fused")
    }
    pretreatment, n_lv = cli.PLS_DEFAULTS[TASK]
    outputs["median"] = _report(
        experiments.run_pls_cv(features, spectral.parse_pretreatment(pretreatment), n_lv)
    )
    return len(desc.y), outputs


def cv_all_summary(outputs: dict) -> dict:
    return {
        f"auc_{route}": float(np.mean(outputs[route]["fold_aucs"]))
        for route in ("dp", "rci", "fused", "median")
    }


def cv_all_quality(summary: dict) -> dict:
    return {
        "auc_fused": (summary["auc_fused"], "AUC"),
        "auc_fusion_gain": (
            summary["auc_fused"] - max(summary["auc_dp"], summary["auc_rci"]), "AUC"),
        "auc_median": (summary["auc_median"], "AUC"),
    }


# --- grid ---------------------------------------------------------------------------


def grid_prepare(ctx: Context) -> None:
    desc = experiments.extract_cohort(ctx.manifest, TASK)
    # The job builds its own dictionaries, so set-up builds none.
    ctx.features = experiments.partition_features(desc, ctx.seed, build_dictionaries=False)


def grid_job(ctx: Context):
    features = ctx.features
    matrices = experiments.grid_feature_sets(
        features, GRID_DP_SIZES, GRID_RCI_SIZES, ctx.seed)
    folds = experiments.plan_fold_indices(features)
    result = svm.grid_search(
        matrices, 2.0 * features.y.astype(np.float64) - 1.0, folds, jobs=1)
    rows = [[list(key), kernel, c, gamma, list(accs), mean]
            for key, kernel, c, gamma, accs, mean in result.rows]
    best = result.best
    outputs = {
        "rows": rows,
        "best": {
            "feature_key": list(best.feature_key),
            "kernel": best.config.kernel,
            "C": best.config.C,
            "gamma": best.config.gamma if best.config.kernel == "rbf" else None,
            "mean_accuracy": result.mean_accuracy,
        },
    }
    return len(rows) * len(folds), outputs


def grid_summary(outputs: dict) -> dict:
    return outputs["best"]


def grid_quality(summary: dict) -> dict:
    return {"grid_best_accuracy": (summary["mean_accuracy"], "ratio")}


# --- pls_select ---------------------------------------------------------------------

_SELECTED = re.compile(r"selected (\S+) with (\d+) LVs")


def pls_select_job(ctx: Context):
    report = ctx.workdir / "pls_select.csv"
    report.unlink(missing_ok=True)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main([
            "pls-select", "--manifest", str(ctx.manifest_path), "--out", str(report),
            "--task", TASK, "--n-repeats", str(PLS_REPEATS),
            "--lv-max", str(PLS_LV_MAX), "--seed", str(ctx.seed), "--jobs", "1",
        ])
    if code != 0:
        raise RuntimeError(f"pls-select exited with code {code}")
    match = _SELECTED.search(stdout.getvalue())
    if match is None:
        raise RuntimeError(f"pls-select printed no selection: {stdout.getvalue()!r}")
    text = report.read_text()
    best = None
    for line in text.splitlines()[1:]:
        cells = line.split(",")
        if cells[0] == match.group(1) and cells[1] == match.group(2):
            best = {
                "pretreatment": cells[0], "n_lv": int(cells[1]),
                "mean_product": float(cells[2]), "mean_accuracy": float(cells[3]),
            }
    if best is None:
        raise RuntimeError("the selected cell is missing from the report")
    outputs = {
        "report_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "best": best,
    }
    return len(experiments.task_records(ctx.manifest, TASK)[0]), outputs


def pls_select_summary(outputs: dict) -> dict:
    return outputs["best"]


def pls_select_quality(summary: dict) -> dict:
    return {"pls_best_product": (summary["mean_product"], "ratio")}


# --- table --------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    cohort: synth.SynthSpec     # seed replaced by the run's seed
    unit: str                   # what units_per_s counts
    job: object
    summary: object
    quality: object
    prepare: object = None      # set-up after generation, or None


WORKLOADS = {
    # Every patient has the same number of samples, so the reference pool,
    # the folds and with them the work are the same size on every seed.
    # 24 patients x 5 samples kept both classes in every CV fold on all of
    # 2000 seeds tried; smaller cohorts leave a single-class fold on some
    # seeds, and ROC AUC is undefined there.
    "cv_all": Workload(
        cohort=synth.SynthSpec(n_patients=24, n_samples=120, samples_per_patient=(5, 5)),
        unit="samples", job=cv_all_job, summary=cv_all_summary, quality=cv_all_quality,
    ),
    # No class signal: how long SMO takes depends on how well the classes
    # separate, and without signal every seed's cohort is equally
    # inseparable. The SMO iterations of the whole grid, (max - min) /
    # median: 8% over seeds 1-5 without signal, 43% at signal 0.6 (seeds
    # 1-8), 46% at 1.0 (seeds 1-5, summed over two partitions).
    "grid": Workload(
        cohort=synth.SynthSpec(n_patients=16, n_samples=48, samples_per_patient=(3, 3),
                               dp_signal=0.0, rci_signal=0.0),
        unit="fits", job=grid_job, summary=grid_summary, quality=grid_quality,
        prepare=grid_prepare,
    ),
    "pls_select": Workload(
        cohort=synth.SynthSpec(n_patients=20, n_samples=40, samples_per_patient=(2, 2),
                               n_bands=512),
        unit="samples", job=pls_select_job, summary=pls_select_summary,
        quality=pls_select_quality,
    ),
}


def _flush(directory: Path) -> None:
    """Write the cohort's files to disk now, so that write-back does not
    compete with the timed job."""
    for path in directory.iterdir():
        with open(path, "rb") as fh:
            os.fsync(fh.fileno())


def set_up(workload: Workload, seed: int, workdir: Path, repeats: int):
    """Generate the workload's cohort `repeats` times, then run its prepare
    step once: generation is cheap enough to repeat for a median, the grid's
    extraction costs as much as its job. Returns (context, seconds), the
    seconds being the median generation time plus the prepare time."""
    cohort_dir = workdir / "cohort"
    spec = replace(workload.cohort, seed=seed)
    times = []
    for _ in range(repeats):
        shutil.rmtree(cohort_dir, ignore_errors=True)
        gc.collect()
        start = time.perf_counter()
        synth.generate(spec, cohort_dir)
        times.append(time.perf_counter() - start)
    _flush(cohort_dir)
    # The program sees only the generated files, the manifest included.
    manifest_path = cohort_dir / synth.MANIFEST_NAME
    ctx = Context(seed=seed, workdir=workdir, manifest=dataio.load_manifest(manifest_path),
                  manifest_path=manifest_path)
    prepare_s = 0.0
    if workload.prepare is not None:
        gc.collect()
        start = time.perf_counter()
        workload.prepare(ctx)
        prepare_s = time.perf_counter() - start
    return ctx, statistics.median(times) + prepare_s
