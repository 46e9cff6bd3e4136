"""Command-line front end: one subcommand per pipeline stage, wired for
reproducibility (every run is a pure function of its inputs and --seed).

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
A JSON config file (--config) supplies defaults for any long flag, with
command-line flags taking precedence.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import bovw, dataio, evaluation, experiments, plsda, spectral, svm, synth
from .errors import DataError, MalformedFile, MissingFile, ModalityMismatch, NumericalError
from .seeds import derive_seed

TASKS = experiments.TASKS
MODALITIES = experiments.MODALITIES
REFERENCE_SET_COUNTS = (1, 10)

# Per-task median-spectrum defaults (pretreatment, latent variables).
PLS_DEFAULTS = {
    "nc-c": (plsda.NCC_PRETREATMENT, plsda.NCC_N_LV),
    "g3-g4": (plsda.G3G4_PRETREATMENT, plsda.G3G4_N_LV),
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports usage problems via exception so main()
    can map them to exit code 1."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}")


def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _open_fraction(text: str) -> float:
    if not 0.0 < float(text) < 1.0:
        raise argparse.ArgumentTypeError(f"must lie strictly between 0 and 1, got {text!r}")
    return float(text)


# --- config handling ---------------------------------------------------------------


def _load_config(path) -> dict:
    path = Path(path)
    if not path.is_file():
        raise MissingFile(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise MalformedFile(f"config file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise MalformedFile("config file must hold a JSON object")
    return {str(k).replace("-", "_"): v for k, v in doc.items()}


def _check_config(parser: argparse.ArgumentParser, config: dict) -> None:
    """Hold each config-file value to the type and choices of the flag it
    stands in for, so a bad value stops the run before any work."""
    for action in parser._actions:
        if action.dest not in config:
            continue
        value = config[action.dest]
        try:
            checked = value if action.type is None else action.type(str(value))
            ok = action.choices is None or checked in action.choices
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            ok = False
        if not ok:
            raise _UsageError(
                f"{parser.prog}: error: config value {action.dest}={value!r} is not "
                f"valid for {action.option_strings[-1]}"
            )


def _opt(args, config: dict, name: str, default=None):
    """Flag value if given, else config-file value, else default."""
    value = getattr(args, name, None)
    if value is not None:
        return value
    return config.get(name, default)


def _list(value, typ) -> list:
    """The items of a comma-list flag or a JSON-list config value, as typ."""
    items = value if isinstance(value, (list, tuple)) else str(value).split(",")
    return [typ(v) for v in items if str(v).strip()]


def _pipeline_config(args, config) -> experiments.PipelineConfig:
    base = experiments.PipelineConfig()
    return replace(
        base,
        dp_size=int(_opt(args, config, "dp_size", base.dp_size)),
        rci_size=int(_opt(args, config, "rci_size", base.rci_size)),
        k_dp=int(_opt(args, config, "k_dp", base.k_dp)),
        k_rci=int(_opt(args, config, "k_rci", base.k_rci)),
        folds=int(_opt(args, config, "folds", base.folds)),
        reference_fraction=float(
            _opt(args, config, "reference_fraction", base.reference_fraction)
        ),
    )


def _svm_config(args, config) -> svm.SvmConfig:
    base = experiments.PipelineConfig().svm_config
    kernel = str(_opt(args, config, "kernel", base.kernel))
    return svm.SvmConfig(
        C=float(_opt(args, config, "c", base.C)),
        kernel=kernel,
        gamma=float(_opt(args, config, "gamma", base.gamma)),
    )


def _pls_settings(args, config, task: str):
    """(pretreatment, latent variables) of the median-spectrum route."""
    default_pre, default_lv = PLS_DEFAULTS[task]
    pre = spectral.parse_pretreatment(str(_opt(args, config, "pretreatment", default_pre)))
    return pre, int(_opt(args, config, "n_lv", default_lv))


def _load_task_manifest(args, config):
    path = _opt(args, config, "manifest")
    if path is None:
        raise _UsageError("a --manifest file is required")
    return dataio.load_manifest(path)


def _out_path(args, config, what: str) -> str:
    """The required --out value; checked before a command does any work."""
    out = _opt(args, config, "out")
    if out is None:
        raise _UsageError(f"an --out {what} is required")
    return out


def _out_dir(args, config) -> Path:
    out = Path(_out_path(args, config, "location"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path, header: list, rows: list) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# --- subcommands -------------------------------------------------------------------


def _cmd_synth(args, config) -> int:
    out = _out_dir(args, config)
    spec = synth.SynthSpec(
        n_patients=int(_opt(args, config, "n_patients", 32)),
        n_samples=int(_opt(args, config, "n_samples", 178)),
        dp_signal=float(_opt(args, config, "dp_signal", 0.6)),
        rci_signal=float(_opt(args, config, "rci_signal", 0.6)),
        dp_size=int(_opt(args, config, "image_size", 160)),
        rci_size=int(_opt(args, config, "cube_size", 32)),
        n_bands=int(_opt(args, config, "n_bands", 64)),
        seed=int(_opt(args, config, "seed", 0)),
    )
    manifest = synth.generate(spec, out)
    counts = {}
    for record in manifest.samples:
        counts[record.label.value] = counts.get(record.label.value, 0) + 1
    print(f"wrote {len(manifest.samples)} samples to {out / synth.MANIFEST_NAME}")
    print("class counts: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    return 0


def _cmd_preprocess(args, config) -> int:
    manifest = _load_task_manifest(args, config)
    out = _out_dir(args, config)
    cfg = _pipeline_config(args, config)
    for record in manifest.samples:
        sample = experiments.prepare_sample(record, cfg)
        dataio.save_image(sample.dp, out / f"{record.sample_id}_dp.pgm")
        dataio.save_image(sample.rci, out / f"{record.sample_id}_rci.pgm")
        dataio.save_mask(sample.mask, out / f"{record.sample_id}_mask.pgm")
    print(f"preprocessed {len(manifest.samples)} samples into {out}")
    return 0


def _cmd_median_spectrum(args, config) -> int:
    manifest = _load_task_manifest(args, config)
    out = _out_dir(args, config)
    updated = []
    for record in manifest.samples:
        sample = experiments.prepare_sample(record, routes=())
        path = out / f"{record.sample_id}_median.csv"
        spectral.save_spectrum(sample.median, path)
        updated.append(replace(record, median_spectrum_path=path))
    new_manifest = dataio.CohortManifest(tuple(updated), manifest.seed, out)
    dataio.save_manifest(new_manifest, out / synth.MANIFEST_NAME)
    print(f"wrote {len(updated)} median spectra and {out / synth.MANIFEST_NAME}")
    return 0


def _cmd_build_dict(args, config) -> int:
    manifest = _load_task_manifest(args, config)
    out = _out_path(args, config, "model file")
    task = _opt(args, config, "task", "nc-c")
    modality = _opt(args, config, "modality")
    if modality not in ("dp", "rci"):
        raise _UsageError("build-dict needs --modality dp or rci")
    cfg = _pipeline_config(args, config)
    seed = int(_opt(args, config, "seed", 0))
    k = int(_opt(args, config, "k", cfg.k_dp if modality == "dp" else cfg.k_rci))

    records, _ = experiments.task_records(manifest, task)
    sub = dataio.CohortManifest(tuple(records), manifest.seed, manifest.root)
    plan = evaluation.plan_folds(
        sub, k=cfg.folds, reference_fraction=cfg.reference_fraction, seed=seed
    )
    reference = set(plan.reference_patients)
    ref_manifest = dataio.CohortManifest(
        tuple(r for r in records if r.patient_id in reference), manifest.seed, manifest.root
    )
    desc = experiments.extract_cohort(ref_manifest, task, cfg, routes=(modality,))
    pooled = desc.pool(modality, range(len(desc.y)))
    dictionary = bovw.kmeans(pooled, k, seed, modality=modality)
    dataio.save_model(dictionary, out)
    print(
        f"built {modality} dictionary (k={k}) from {len(pooled)} descriptors "
        f"of {len(reference)} reference patients -> {out}"
    )
    return 0


def _cmd_encode(args, config) -> int:
    manifest = _load_task_manifest(args, config)
    out = _out_path(args, config, "CSV file")
    task = _opt(args, config, "task", "nc-c")
    modality = _opt(args, config, "modality", "fused")
    cfg = _pipeline_config(args, config)

    dicts = {}
    for name, flag in (("dp", "dp_dict"), ("rci", "rci_dict")):
        path = _opt(args, config, flag)
        if path is not None:
            dicts[name] = dataio.load_model(path)
    routes = experiments.ROUTES[modality]
    for name in routes:
        if name not in dicts:
            raise _UsageError(f"encode --modality {modality} needs --{name}-dict")
        if getattr(dicts[name], "modality", None) != name:
            raise ModalityMismatch(f"--{name}-dict does not hold a {name} dictionary")

    desc = experiments.extract_cohort(manifest, task, cfg, routes=routes)
    rows = []
    width = None
    for i, record in enumerate(desc.manifest.samples):
        vec = experiments.feature_row(
            [bovw.encode_descriptors(desc.routes[r][i], dicts[r]) for r in routes],
            cfg.normalize,
        )
        width = len(vec)
        rows.append(
            [record.sample_id, record.patient_id, record.label.value, int(desc.y[i])]
            + [repr(float(v)) for v in vec]
        )

    header = ["sample_id", "patient_id", "label", "y"] + [
        f"f{i}" for i in range(width or 0)
    ]
    _write_csv(out, header, rows)
    print(f"encoded {len(rows)} samples x {width} features -> {out}")
    return 0


def _check_leakage(plan: evaluation.FoldPlan) -> None:
    reference = set(plan.reference_patients)
    for fold in plan.folds:
        leaked = reference.intersection(fold)
        if leaked:
            raise DataError(
                f"patients {sorted(leaked)} appear in both the reference set and a fold"
            )


def _cmd_train(args, config) -> int:
    manifest = _load_task_manifest(args, config)
    out = _out_path(args, config, "model file")
    task = _opt(args, config, "task", "nc-c")
    modality = _opt(args, config, "modality", "fused")
    cfg = _pipeline_config(args, config)
    seed = int(_opt(args, config, "seed", 0))
    if modality == "median-spectrum":
        pre, n_lv = _pls_settings(args, config, task)
        fit, _ = experiments.pls_fold_functions(pre, n_lv)
    else:
        svm_cfg = _svm_config(args, config)
        fit, _ = experiments.svm_fold_functions(svm_cfg)

    desc = experiments.extract_cohort(manifest, task, cfg, routes=experiments.ROUTES[modality])
    features = experiments.partition_features(desc, seed)
    _check_leakage(features.plan)
    if modality == "median-spectrum":
        _, model = fit(features.medians, features.y)
        dataio.save_model(model, out)
        print(
            f"trained PLS-DA ({pre}, {model.n_lv} LVs) on "
            f"{len(features.y)} classification samples -> {out}"
        )
        return 0

    X = features.matrix(modality)
    model = fit(X, features.y)
    dataio.save_model(model, out)
    print(
        f"trained {svm_cfg.kernel} SVM (C={svm_cfg.C:g}, gamma={svm_cfg.gamma:g}) "
        f"on {len(features.y)} samples x {X.shape[1]} features -> {out}"
    )
    return 0


def _cv_once(desc, modality, seed, svm_cfg, pre, n_lv):
    features = experiments.partition_features(desc, seed)
    _check_leakage(features.plan)
    if modality == "median-spectrum":
        return experiments.run_pls_cv(features, pre, n_lv)
    return experiments.run_bovw_cv(features, modality, svm_cfg)


def _cmd_cv(args, config) -> int:
    manifest = _load_task_manifest(args, config)
    task = _opt(args, config, "task", "nc-c")
    modality = _opt(args, config, "modality", "fused")
    n_sets = int(_opt(args, config, "n_reference_sets", 1))
    cfg = _pipeline_config(args, config)
    seed = int(_opt(args, config, "seed", 0))
    out = _out_dir(args, config)
    svm_cfg = _svm_config(args, config)
    pre, n_lv = _pls_settings(args, config, task)

    desc = experiments.extract_cohort(manifest, task, cfg, routes=experiments.ROUTES[modality])
    sens, spec_, aucs = [], [], []
    for r in range(n_sets):
        set_seed = seed if n_sets == 1 else derive_seed(seed, "reference-set", r)
        report = _cv_once(desc, modality, set_seed, svm_cfg, pre, n_lv)
        evaluation.write_metrics_csv(report, out / f"metrics_set{r}.csv")
        if r == 0:
            evaluation.write_roc_csv(report.pooled_roc, out / "roc_set0.csv")
            evaluation.write_roc_svg(
                report.pooled_roc, report.pooled_auc, out / "roc_set0.svg"
            )
        sens.append(np.mean(report.fold_sensitivities))
        spec_.append(np.mean(report.fold_specificities))
        aucs.append(np.mean(report.fold_aucs))

    row = [
        task,
        modality,
        n_sets,
        "%.6f" % np.mean(sens),
        "%.6f" % np.mean(spec_),
        "%.6f" % np.mean(aucs),
    ]
    _write_csv(
        out / "summary.csv",
        ["task", "modality", "n_reference_sets", "sensitivity", "specificity", "auc"],
        [row],
    )
    print(
        f"{task} {modality} over {n_sets} reference set(s): "
        f"sensitivity {row[3]}, specificity {row[4]}, AUC {row[5]}"
    )
    print(f"reports in {out}")
    return 0


def _cmd_grid(args, config) -> int:
    manifest = _load_task_manifest(args, config)
    out = _out_path(args, config, "CSV file")
    task = _opt(args, config, "task", "nc-c")
    cfg = _pipeline_config(args, config)
    seed = int(_opt(args, config, "seed", 0))
    jobs = int(_opt(args, config, "jobs", 1))
    dp_sizes = _list(_opt(args, config, "dp_sizes", bovw.DP_DICTIONARY_SIZES), int)
    rci_sizes = _list(_opt(args, config, "rci_sizes", bovw.RCI_DICTIONARY_SIZES), int)
    c_grid = _list(_opt(args, config, "c_grid", svm.C_GRID), float)
    gamma_grid = _list(_opt(args, config, "gamma_grid", svm.GAMMA_GRID), float)
    kernels = _list(_opt(args, config, "kernels", svm.KERNELS), str)
    # Rejects an empty or invalid grid before any cube is loaded.
    if min(dp_sizes + rci_sizes, default=1) < 1:
        raise ValueError(f"dictionary sizes must be positive, got {dp_sizes + rci_sizes}")
    svm.enumerate_grid(
        [(k_dp, k_rci) for k_dp in dp_sizes for k_rci in rci_sizes], c_grid, gamma_grid, kernels
    )

    desc = experiments.extract_cohort(manifest, task, cfg)
    features = experiments.partition_features(desc, seed, build_dictionaries=False)
    _check_leakage(features.plan)
    matrices = experiments.grid_feature_sets(features, dp_sizes, rci_sizes, seed)
    folds = experiments.plan_fold_indices(features)
    result = svm.grid_search(
        matrices, 2.0 * features.y.astype(np.float64) - 1.0, folds,
        c_grid=c_grid, gamma_grid=gamma_grid, kernels=kernels, jobs=jobs,
    )
    svm.write_grid_report(result, out)
    best = result.best
    k_dp, k_rci = best.feature_key
    best_path = Path(out).with_name(Path(out).stem + "_best.csv")
    _write_csv(
        best_path,
        ["dict_size_dp", "dict_size_rci", "kernel", "C", "gamma", "mean_accuracy"],
        [[k_dp, k_rci, best.config.kernel, repr(best.config.C),
          repr(best.config.gamma), "%.6f" % result.mean_accuracy]],
    )
    print(
        f"searched {len(result.rows)} configurations; best: dictionaries "
        f"({k_dp}, {k_rci}), {best.config.kernel}, C={best.config.C:g}, "
        f"gamma={best.config.gamma:g}, mean accuracy {result.mean_accuracy:.4f}"
    )
    print(f"full table -> {out}; best row -> {best_path}")
    return 0


def _cmd_pls_select(args, config) -> int:
    manifest = _load_task_manifest(args, config)
    out = _out_path(args, config, "CSV file")
    task = _opt(args, config, "task", "nc-c")
    cfg = _pipeline_config(args, config)
    seed = int(_opt(args, config, "seed", 0))
    jobs = int(_opt(args, config, "jobs", 1))
    n_repeats = int(_opt(args, config, "n_repeats", 200))
    lv_max = int(_opt(args, config, "lv_max", max(plsda.DEFAULT_LV_RANGE)))

    desc = experiments.extract_cohort(manifest, task, cfg, routes=())
    menu_value = _opt(args, config, "pretreatments")
    if menu_value is not None:
        if isinstance(menu_value, str):
            menu_value = menu_value.split(",")
        menu = [spectral.parse_pretreatment(str(m)) for m in menu_value]
    else:
        n_bands = desc.medians.shape[1]
        full = spectral.standard_menu()
        menu = [m for m in full if m.min_length <= n_bands]
        if len(menu) < len(full):
            print(
                f"note: {len(full) - len(menu)} pretreatments need more than "
                f"{n_bands} bands and were skipped"
            )
    result = plsda.select_pls_model(
        desc.medians, desc.y, menu=menu,
        lv_values=tuple(range(1, lv_max + 1)),
        n_repeats=n_repeats, seed=seed, jobs=jobs,
    )
    plsda.write_selection_report(result, out)
    print(
        f"selected {result.pretreatment} with {result.n_lv} LVs "
        f"(mean sens*spec {result.mean_product:.4f}, "
        f"accuracy {result.mean_accuracy:.4f}) -> {out}"
    )
    return 0


def _read_value_column(path) -> list[float]:
    """Last-column values of a CSV; multi-column rows whose leading cell is
    non-numeric (headers, pooled/aggregate rows) are annotations."""
    path = Path(path)
    if not path.is_file():
        raise MissingFile(f"value file not found: {path}")
    values = []
    for line in path.read_text().strip().splitlines():
        cells = [c.strip() for c in line.split(",")]
        try:
            if len(cells) > 1:
                float(cells[0])
            values.append(float(cells[-1]))
        except ValueError:
            continue
    if not values:
        raise MalformedFile(f"no numeric values found in {path}")
    return values


def _cmd_ttest(args, config) -> int:
    a_path = _opt(args, config, "a")
    b_path = _opt(args, config, "b")
    if a_path is None or b_path is None:
        raise _UsageError("ttest needs both --a and --b value files")
    a = _read_value_column(a_path)
    b = _read_value_column(b_path)
    result = evaluation.paired_ttest(a, b)
    header = [
        "mean_diff", "std_diff", "n", "t", "df", "p", "ci_low", "ci_high", "t_crit",
    ]
    row = [
        repr(result.mean_diff), repr(result.std_diff), result.n, repr(result.t),
        result.df, repr(result.p), repr(result.ci_low), repr(result.ci_high),
        repr(result.t_crit),
    ]
    out = _opt(args, config, "out")
    if out is not None:
        _write_csv(out, header, [row])
        print(f"t-test table -> {out}")
    print(
        f"mean diff {result.mean_diff:.6g} (n={result.n}), t={result.t:.4f}, "
        f"p={result.p:.6g}, 95% CI ({result.ci_low:.6g}, {result.ci_high:.6g})"
    )
    return 0


def _cmd_report(args, config) -> int:
    inputs = _opt(args, config, "inputs") or []
    if isinstance(inputs, str):
        inputs = [p for p in inputs.split(",") if p]
    if not inputs:
        raise _UsageError("report needs at least one cv summary.csv via --inputs")
    rows = []
    for path in inputs:
        path = Path(path)
        if not path.is_file():
            raise MissingFile(f"summary file not found: {path}")
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or header[:3] != ["task", "modality", "n_reference_sets"]:
                raise MalformedFile(f"{path} is not a cv summary file")
            rows.extend(reader)
    rows.sort(key=lambda r: (r[0], r[1], r[2]))

    out = _opt(args, config, "out")
    header = ["task", "modality", "n_reference_sets", "sensitivity", "specificity", "auc"]
    if out is not None:
        _write_csv(out, header, rows)
        print(f"combined table -> {out}")
    widths = [max(len(h), 14) for h in header]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(row, widths)))
    return 0


# --- parser ------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="ramanfuse", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="SUBCOMMAND")

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.set_defaults(func=func, parser=p)
        p.add_argument("--config", help="JSON file of default flag values")
        p.add_argument("--seed", type=int, help="root random seed (default 0)")
        return p

    p = add("synth", _cmd_synth, "generate a synthetic cohort with known ground truth")
    p.add_argument("--out", help="output directory")
    p.add_argument("--n-patients", type=int)
    p.add_argument("--n-samples", type=int)
    p.add_argument("--dp-signal", type=float)
    p.add_argument("--rci-signal", type=float)
    p.add_argument("--image-size", type=int, help="pathology image edge length")
    p.add_argument("--cube-size", type=int, help="hyperspectral cube edge length")
    p.add_argument("--n-bands", type=int)

    common_pipeline = [
        ("--dp-size", _positive_int), ("--rci-size", _positive_int),
        ("--k-dp", _positive_int), ("--k-rci", _positive_int),
        ("--folds", _positive_int), ("--reference-fraction", _open_fraction),
    ]

    def add_pipeline_flags(p):
        for flag, typ in common_pipeline:
            p.add_argument(flag, type=typ)

    p = add("preprocess", _cmd_preprocess,
            "write prepared grey images and tissue masks for every sample")
    p.add_argument("--manifest")
    p.add_argument("--out")
    add_pipeline_flags(p)

    p = add("median-spectrum", _cmd_median_spectrum,
            "write per-sample median spectra and a manifest referencing them")
    p.add_argument("--manifest")
    p.add_argument("--out")

    p = add("build-dict", _cmd_build_dict,
            "cluster reference-patient descriptors into a visual dictionary")
    p.add_argument("--manifest")
    p.add_argument("--out")
    p.add_argument("--task", choices=TASKS)
    p.add_argument("--modality", choices=("dp", "rci"))
    p.add_argument("--k", type=_positive_int)
    add_pipeline_flags(p)

    p = add("encode", _cmd_encode, "encode samples against saved dictionaries")
    p.add_argument("--manifest")
    p.add_argument("--out")
    p.add_argument("--task", choices=TASKS)
    p.add_argument("--modality", choices=("dp", "rci", "fused"))
    p.add_argument("--dp-dict")
    p.add_argument("--rci-dict")
    add_pipeline_flags(p)

    p = add("train", _cmd_train, "train one calibrated model on the classification set")
    p.add_argument("--manifest")
    p.add_argument("--out")
    p.add_argument("--task", choices=TASKS)
    p.add_argument("--modality", choices=MODALITIES)
    p.add_argument("--kernel", choices=svm.KERNELS)
    p.add_argument("--c", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--pretreatment")
    p.add_argument("--n-lv", type=_positive_int)
    add_pipeline_flags(p)

    p = add("cv", _cmd_cv, "patient-grouped cross-validation with report files")
    p.add_argument("--manifest")
    p.add_argument("--out")
    p.add_argument("--task", choices=TASKS)
    p.add_argument("--modality", choices=MODALITIES)
    p.add_argument("--n-reference-sets", type=int, choices=REFERENCE_SET_COUNTS)
    p.add_argument("--kernel", choices=svm.KERNELS)
    p.add_argument("--c", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--pretreatment")
    p.add_argument("--n-lv", type=_positive_int)
    add_pipeline_flags(p)

    p = add("grid", _cmd_grid, "exhaustive dictionary/kernel/C/gamma accuracy search")
    p.add_argument("--manifest")
    p.add_argument("--out")
    p.add_argument("--task", choices=TASKS)
    p.add_argument("--jobs", type=_positive_int)
    p.add_argument("--dp-sizes", help="comma list of DP dictionary sizes")
    p.add_argument("--rci-sizes", help="comma list of RCI dictionary sizes")
    p.add_argument("--c-grid", help="comma list of C values")
    p.add_argument("--gamma-grid", help="comma list of gamma values")
    p.add_argument("--kernels", help="comma list from {linear,rbf}")
    add_pipeline_flags(p)

    p = add("pls-select", _cmd_pls_select,
            "repeated-split selection of pretreatment and LV count")
    p.add_argument("--manifest")
    p.add_argument("--out")
    p.add_argument("--task", choices=TASKS)
    p.add_argument("--n-repeats", type=_positive_int)
    p.add_argument("--lv-max", type=_positive_int)
    p.add_argument("--pretreatments", help="comma list overriding the standard menu")
    p.add_argument("--jobs", type=_positive_int)
    add_pipeline_flags(p)

    p = add("ttest", _cmd_ttest, "paired two-tail t-test between two value columns")
    p.add_argument("--a", help="CSV whose last column holds the first sample")
    p.add_argument("--b", help="CSV whose last column holds the second sample")
    p.add_argument("--out")

    p = add("report", _cmd_report, "stack cv summaries into one comparison table")
    p.add_argument("--inputs", help="comma list of summary.csv files")
    p.add_argument("--out")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            raise _UsageError(parser.format_usage())
        config = _load_config(args.config) if getattr(args, "config", None) else {}
        _check_config(args.parser, config)
        return int(args.func(args, config) or 0)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except (DataError, ValueError) as exc:
        if isinstance(exc, ValueError):
            print(f"ramanfuse: invalid value: {exc}", file=sys.stderr)
            return 1
        print(f"ramanfuse: data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"ramanfuse: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
