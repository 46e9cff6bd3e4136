"""Command-line front end: one subcommand per pipeline stage, wired for
reproducibility (every run is a pure function of its inputs and, for the
subcommands that draw random numbers, --seed).

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
A JSON config file (--config) supplies defaults for any long flag, with
command-line flags taking precedence.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import astuple, fields, replace
from pathlib import Path

import numpy as np

from . import bovw, dataio, evaluation, experiments, plsda, spectral, svm, synth
from .errors import (
    DataError, DimMismatch, MalformedFile, ModalityMismatch, NumericalError, SpectrumTooShort,
)
from .seeds import derive_seed
from .sift import DESCRIPTOR_LENGTH

TASKS = experiments.TASKS
MODALITIES = experiments.MODALITIES
REFERENCE_SET_COUNTS = (1, 10)
SUMMARY_HEADER = ["task", "modality", "n_reference_sets", "sensitivity", "specificity", "auc"]

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


def _fold_count(text: str) -> int:
    if _positive_int(text) < 2:
        raise argparse.ArgumentTypeError(f"cross-validation needs two or more folds, got {text!r}")
    return int(text)


def _open_fraction(text: str) -> float:
    if not 0.0 < float(text) < 1.0:
        raise argparse.ArgumentTypeError(f"must lie strictly between 0 and 1, got {text!r}")
    return float(text)


def _list(typ):
    """argparse type of a comma-list flag whose items have type typ."""

    def parse(text: str) -> list:
        return [typ(v) for v in text.split(",") if v.strip()]

    parse.__name__ = f"{typ.__name__} list"
    return parse


_PIPELINE = experiments.PipelineConfig()
_SYNTH = synth.SynthSpec()

# Every long flag, declared once as its add_argument keywords. A flag without
# a default is either checked for by its handler or, for --k, --pretreatment,
# --n-lv and --pretreatments, derived there from other values.
FLAGS = {
    "config": dict(help="JSON file of default flag values"),
    "seed": dict(type=int, default=0, help="root random seed (default 0)"),
    "manifest": dict(help="cohort manifest file"),
    "out": dict(help="output file or directory"),
    "task": dict(choices=TASKS, default="nc-c"),
    "modality": dict(choices=MODALITIES, default="fused"),
    "n-patients": dict(type=_positive_int, default=_SYNTH.n_patients),
    "n-samples": dict(type=_positive_int, default=_SYNTH.n_samples),
    "dp-signal": dict(type=float, default=_SYNTH.dp_signal),
    "rci-signal": dict(type=float, default=_SYNTH.rci_signal),
    "image-size": dict(type=_positive_int, default=_SYNTH.dp_size,
                       help="pathology image edge length"),
    "cube-size": dict(type=_positive_int, default=_SYNTH.rci_size,
                      help="hyperspectral cube edge length"),
    "n-bands": dict(type=_positive_int, default=_SYNTH.n_bands),
    "dp-size": dict(type=_positive_int, default=_PIPELINE.dp_size),
    "rci-size": dict(type=_positive_int, default=_PIPELINE.rci_size),
    "k-dp": dict(type=_positive_int, default=_PIPELINE.k_dp),
    "k-rci": dict(type=_positive_int, default=_PIPELINE.k_rci),
    "folds": dict(type=_fold_count, default=_PIPELINE.folds),
    "reference-fraction": dict(type=_open_fraction, default=_PIPELINE.reference_fraction),
    "k": dict(type=_positive_int, help="dictionary size (default: --k-dp or --k-rci)"),
    "dp-dict": dict(help="DP dictionary file"),
    "rci-dict": dict(help="RCI dictionary file"),
    "kernel": dict(choices=svm.KERNELS, default=experiments.SVM_CONFIG.kernel),
    "c": dict(type=float, default=experiments.SVM_CONFIG.C),
    "gamma": dict(type=float, default=experiments.SVM_CONFIG.gamma),
    "pretreatment": dict(help="pretreatment chain (default: the task's)"),
    "n-lv": dict(type=_positive_int, help="latent variables (default: the task's)"),
    "n-reference-sets": dict(type=int, choices=REFERENCE_SET_COUNTS, default=1),
    "jobs": dict(type=_positive_int, default=1),
    "dp-sizes": dict(type=_list(_positive_int), default=list(bovw.DP_DICTIONARY_SIZES),
                     help="comma list of DP dictionary sizes"),
    "rci-sizes": dict(type=_list(_positive_int), default=list(bovw.RCI_DICTIONARY_SIZES),
                      help="comma list of RCI dictionary sizes"),
    "c-grid": dict(type=_list(float), default=list(svm.C_GRID), help="comma list of C values"),
    "gamma-grid": dict(type=_list(float), default=list(svm.GAMMA_GRID),
                       help="comma list of gamma values"),
    "kernels": dict(type=_list(str), default=list(svm.KERNELS),
                    help="comma list from {linear,rbf}"),
    "n-repeats": dict(type=_positive_int, default=200),
    "lv-max": dict(type=_positive_int, default=max(plsda.DEFAULT_LV_RANGE)),
    "pretreatments": dict(type=_list(str), help="comma list overriding the standard menu"),
    "a": dict(help="CSV whose last column holds the first sample"),
    "b": dict(help="CSV whose last column holds the second sample"),
    "inputs": dict(type=_list(str), help="comma list of summary.csv files"),
}
# The PipelineConfig fields but --folds, which only cross-validation reads:
# image sizes (every SIFT extraction), dictionary sizes and the reference pool.
SIZE_FLAGS = ("dp-size", "rci-size")
REFERENCE_FLAGS = (*SIZE_FLAGS, "k-dp", "k-rci", "reference-fraction")
SVM_FLAGS = ("kernel", "c", "gamma")
PLS_FLAGS = ("pretreatment", "n-lv")


# --- config handling ---------------------------------------------------------------


def _load_config(path) -> dict:
    doc = dataio.load_json_object(path, "config file")
    return {str(k).replace("-", "_"): v for k, v in doc.items()}


def _check_config(parser: argparse.ArgumentParser, config: dict) -> dict:
    """The config-file values of parser's flags, each converted and checked
    by its flag's type and choices as on the command line (a JSON list as
    its comma-joined items), so a bad value stops the run before any work."""
    values = {}
    for action in parser._actions:
        if action.dest not in config:
            continue
        value = config[action.dest]
        text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        try:
            checked = text if action.type is None else action.type(text)
            ok = action.choices is None or checked in action.choices
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            ok = False
        if not ok:
            raise _UsageError(
                f"{parser.prog}: error: config value {action.dest}={value!r} is not "
                f"valid for {action.option_strings[-1]}"
            )
        values[action.dest] = checked
    return values


def _pipeline_config(args) -> experiments.PipelineConfig:
    """The defaults, with the fields of the pipeline flags this command has."""
    names = {field.name for field in fields(experiments.PipelineConfig)}
    return replace(_PIPELINE, **{k: v for k, v in vars(args).items() if k in names})


def _svm_config(args) -> svm.SvmConfig:
    return svm.SvmConfig(C=args.c, kernel=args.kernel, gamma=args.gamma)


def _svm_settings(cfg: svm.SvmConfig) -> str:
    """C, and gamma for the rbf kernel: a linear model has no gamma."""
    return f"C={cfg.C:g}" + (f", gamma={cfg.gamma:g}" if cfg.kernel == "rbf" else "")


def _pls_settings(args):
    """(pretreatment, latent variables) of the median-spectrum route."""
    default_pre, default_lv = PLS_DEFAULTS[args.task]
    pre = default_pre if args.pretreatment is None else args.pretreatment
    n_lv = default_lv if args.n_lv is None else args.n_lv
    return spectral.parse_pretreatment(pre), n_lv


def _route_settings(args):
    """The modality's RouteModel settings: its SvmConfig, or (pretreatment,
    latent variables) for median-spectrum. Both are built, so a bad value of
    either flag group fails before any work."""
    svm_cfg, pls = _svm_config(args), _pls_settings(args)
    return pls if args.modality == "median-spectrum" else svm_cfg


def _load_task_manifest(args):
    if args.manifest is None:
        raise _UsageError("a --manifest file is required")
    return dataio.load_manifest(args.manifest)


def _make_dir(path: Path) -> Path:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create the --out directory {path}: {exc.strerror}") from None
    return path


def _out_arg(args, what: str) -> Path:
    """The required --out path, checked for before a command does any work."""
    if not args.out:
        raise _UsageError(f"an --out {what} is required")
    return Path(args.out)


def _out_path(args, what: str) -> str:
    """The required --out file, with its parent directory made."""
    if _out_arg(args, what).is_dir():
        raise DataError(f"the --out {what} {args.out} is a directory")
    _make_dir(Path(args.out).parent)
    return args.out


# --- subcommands -------------------------------------------------------------------


def _cmd_synth(args) -> int:
    out = _make_dir(_out_arg(args, "location"))
    spec = synth.SynthSpec(
        n_patients=args.n_patients,
        n_samples=args.n_samples,
        dp_signal=args.dp_signal,
        rci_signal=args.rci_signal,
        dp_size=args.image_size,
        rci_size=args.cube_size,
        n_bands=args.n_bands,
        seed=args.seed,
    )
    manifest = synth.generate(spec, out)
    counts = {}
    for record in manifest.samples:
        counts[record.label.value] = counts.get(record.label.value, 0) + 1
    print(f"wrote {len(manifest.samples)} samples to {out / synth.MANIFEST_NAME}")
    print("class counts: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    return 0


def _cmd_preprocess(args) -> int:
    manifest = _load_task_manifest(args)
    out = _make_dir(_out_arg(args, "location"))
    cfg = _pipeline_config(args)
    for record in manifest.samples:
        with experiments.naming_sample(record):
            sample = experiments.prepare_sample(record, cfg)
        dataio.save_image(sample.dp, out / f"{record.sample_id}_dp.pgm")
        dataio.save_image(sample.rci, out / f"{record.sample_id}_rci.pgm")
        dataio.save_mask(sample.mask, out / f"{record.sample_id}_mask.pgm")
    print(f"preprocessed {len(manifest.samples)} samples into {out}")
    return 0


def _cmd_median_spectrum(args) -> int:
    manifest = _load_task_manifest(args)
    out = _make_dir(_out_arg(args, "location"))
    for record in manifest.samples:
        with experiments.naming_sample(record):
            sample = experiments.prepare_sample(record, routes=())
        spectral.save_spectrum(sample.median, out / f"{record.sample_id}_median.csv")
    print(f"wrote {len(manifest.samples)} median spectra into {out}")
    return 0


def _cmd_build_dict(args) -> int:
    manifest = _load_task_manifest(args)
    out = _out_path(args, "model file")
    modality = args.modality
    if modality is None:
        raise _UsageError("build-dict needs --modality dp or rci")
    cfg = _pipeline_config(args)
    k = args.k if args.k is not None else (cfg.k_dp if modality == "dp" else cfg.k_rci)

    plan = experiments.RunPlan.draw(manifest, args.task, cfg, args.seed, routes=(modality,))
    reference = replace(manifest, samples=tuple(
        record for record, in_pool in zip(plan.records, plan.reference) if in_pool))
    desc = experiments.extract_cohort(reference, args.task, cfg, routes=(modality,))
    pooled = desc.pool(modality, range(len(desc.y)))
    dictionary = bovw.kmeans(pooled, k, args.seed, modality=modality)
    dataio.save_model(dictionary, out)
    print(
        f"built {modality} dictionary (k={k}) from {len(pooled)} descriptors "
        f"of {len(reference.patients())} reference patients -> {out}"
    )
    return 0


def _cmd_encode(args) -> int:
    manifest = _load_task_manifest(args)
    out = _out_path(args, "CSV file")
    modality = args.modality
    cfg = _pipeline_config(args)

    dicts = {}
    for name, path in (("dp", args.dp_dict), ("rci", args.rci_dict)):
        if path is not None:
            dicts[name] = dataio.load_model(path)
    routes = experiments.ROUTES[modality]
    for name in routes:
        if name not in dicts:
            raise _UsageError(f"encode --modality {modality} needs --{name}-dict")
        if getattr(dicts[name], "modality", None) != name:
            raise ModalityMismatch(f"--{name}-dict does not hold a {name} dictionary")
        width = dicts[name].centroids.shape[1]
        if width != DESCRIPTOR_LENGTH:
            raise DimMismatch(f"--{name}-dict centroids are {width} wide, "
                              f"but SIFT descriptors are {DESCRIPTOR_LENGTH} wide")

    desc = experiments.extract_cohort(manifest, args.task, cfg, routes=routes)
    X = np.hstack([bovw.word_frequencies(desc.routes[r], dicts[r]) for r in routes])
    rows = [
        [record.sample_id, record.patient_id, record.label.value, int(y)]
        + [repr(float(v)) for v in vec]
        for record, y, vec in zip(desc.manifest.samples, desc.y, X)
    ]
    width = X.shape[1] if rows else None
    header = ["sample_id", "patient_id", "label", "y"] + [f"f{i}" for i in range(width or 0)]
    dataio.write_table(out, header, rows)
    print(f"encoded {len(rows)} samples x {width} features -> {out}")
    return 0


def _cmd_train(args) -> int:
    manifest = _load_task_manifest(args)
    out = _out_path(args, "model file")
    modality, settings = args.modality, _route_settings(args)
    cfg = _pipeline_config(args)
    routes = experiments.ROUTES[modality]
    experiments.RunPlan.draw(manifest, args.task, cfg, args.seed, routes, fit="once")
    desc = experiments.extract_cohort(manifest, args.task, cfg, routes=routes)
    features = experiments.partition_features(desc, args.seed)
    n = len(features.y)
    model = experiments.RouteModel.fit(features, modality, np.arange(n), settings).classifier
    dataio.save_model(model, out)
    print("trained " + (
        f"PLS-DA ({settings[0]}, {model.n_lv} LVs) on {n} classification and "
        f"{len(features.reference_rows)} reference samples" if modality == "median-spectrum"
        else f"{settings.kernel} SVM ({_svm_settings(settings)}) on {n} samples x "
        f"{model.support_vectors.shape[1]} features") + f" -> {out}")
    return 0


def _cmd_cv(args) -> int:
    manifest = _load_task_manifest(args)
    out = _out_arg(args, "location")  # made once the plans pass
    task, modality, n_sets = args.task, args.modality, args.n_reference_sets
    cfg = _pipeline_config(args)
    seeds = ([args.seed] if n_sets == 1
             else [derive_seed(args.seed, "reference-set", r) for r in range(n_sets)])
    routes = experiments.ROUTES[modality]
    for r, seed in enumerate(seeds):
        experiments.RunPlan.draw(manifest, task, cfg, seed, routes, fit="roc", reference_set=r)
    _make_dir(out)
    settings = _route_settings(args)

    desc = experiments.extract_cohort(manifest, task, cfg, routes=routes)
    sens, spec_, aucs = [], [], []
    for r, set_seed in enumerate(seeds):
        features = experiments.partition_features(desc, set_seed)
        report = experiments.run_cv(features, modality, settings)
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
    dataio.write_table(out / "summary.csv", SUMMARY_HEADER, [row])
    print(
        f"{task} {modality} over {n_sets} reference set(s): "
        f"sensitivity {row[3]}, specificity {row[4]}, AUC {row[5]}"
    )
    print(f"reports in {out}")
    return 0


def _cmd_grid(args) -> int:
    manifest = _load_task_manifest(args)
    out = _out_path(args, "CSV file")
    cfg = _pipeline_config(args)
    # Rejects an empty or invalid grid before any cube is loaded.
    svm.enumerate_grid(
        [(k_dp, k_rci) for k_dp in args.dp_sizes for k_rci in args.rci_sizes],
        args.c_grid, args.gamma_grid, args.kernels,
    )
    experiments.RunPlan.draw(manifest, args.task, cfg, args.seed, experiments.IMAGE_ROUTES,
                             fit="folds")

    desc = experiments.extract_cohort(manifest, args.task, cfg)
    features = experiments.partition_features(desc, args.seed, build_dictionaries=False)
    matrices = experiments.grid_feature_sets(features, args.dp_sizes, args.rci_sizes, args.seed)
    folds = experiments.plan_fold_indices(features)
    result = svm.grid_search(
        matrices, 2.0 * features.y.astype(np.float64) - 1.0, folds,
        c_grid=args.c_grid, gamma_grid=args.gamma_grid, kernels=args.kernels, jobs=args.jobs,
    )
    svm.write_grid_report(result, out)
    best = result.best
    k_dp, k_rci = best.feature_key
    best_path = Path(out).with_name(Path(out).stem + "_best.csv")
    dataio.write_table(
        best_path,
        ["dict_size_dp", "dict_size_rci", "kernel", "C", "gamma", "mean_accuracy"],
        [[k_dp, k_rci, best.config.kernel, repr(best.config.C),
          repr(best.config.gamma) if best.config.kernel == "rbf" else "",
          "%.6f" % result.mean_accuracy]],
    )
    print(
        f"searched {len(result.rows)} configurations; best: dictionaries "
        f"({k_dp}, {k_rci}), {best.config.kernel}, {_svm_settings(best.config)}, "
        f"mean accuracy {result.mean_accuracy:.4f}"
    )
    print(f"full table -> {out}; best row -> {best_path}")
    return 0


def _cmd_pls_select(args) -> int:
    manifest = _load_task_manifest(args)
    out = _out_path(args, "CSV file")
    if args.pretreatments == []:
        raise _UsageError("an empty menu is not valid for --pretreatments")
    menu = [spectral.parse_pretreatment(m) for m in args.pretreatments or ()]
    first = experiments.RunPlan.draw(manifest, args.task, fit="once").records[0]
    if menu:
        # Every cube shares the first one's wavenumber axis, so the first
        # cube's band count is the cohort's.
        with experiments.naming_sample(first):
            n_bands = dataio.load_cube(first.rci_path).n_bands
        for chain in menu:
            if chain.min_length > n_bands:
                raise SpectrumTooShort(f"pretreatment {chain} needs spectra of at least "
                                       f"{chain.min_length} bands, but the cohort's have "
                                       f"{n_bands}")
    desc = experiments.extract_cohort(manifest, args.task, routes=())
    if args.pretreatments is None:
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
        lv_values=tuple(range(1, args.lv_max + 1)),
        n_repeats=args.n_repeats, seed=args.seed, jobs=args.jobs,
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
    values = []
    for line, row in dataio.read_table(path, "value file"):
        try:
            if len(row) > 1:
                float(row[0])
            value = float(row[-1])
        except ValueError:
            continue
        if not math.isfinite(value):
            raise MalformedFile(f"{path} line {line} holds the non-finite value {row[-1]!r}")
        values.append(value)
    if not values:
        raise MalformedFile(f"no numeric values found in {path}")
    return values


def _cmd_ttest(args) -> int:
    if args.a is None or args.b is None:
        raise _UsageError("ttest needs both --a and --b value files")
    out = None if args.out is None else _out_path(args, "CSV file")
    a = _read_value_column(args.a)
    b = _read_value_column(args.b)
    if len(a) != len(b) or len(a) < 2:
        raise DimMismatch(f"a paired t-test needs two or more pairs, but --a holds {len(a)} "
                          f"values and --b holds {len(b)}")
    result = evaluation.paired_ttest(a, b)
    if out is not None:
        dataio.write_table(out, [f.name for f in fields(result)],
                           [[repr(v) for v in astuple(result)]])
        print(f"t-test table -> {out}")
    print(
        f"mean diff {result.mean_diff:.6g} (n={result.n}), t={result.t:.4f}, "
        f"p={result.p:.6g}, 95% CI ({result.ci_low:.6g}, {result.ci_high:.6g})"
    )
    return 0


def _cmd_report(args) -> int:
    if not args.inputs:
        raise _UsageError("report needs at least one cv summary.csv via --inputs")
    out = None if args.out is None else _out_path(args, "CSV file")
    rows = []
    for path in args.inputs:
        table = dataio.read_table(path, "summary file")
        if not table or table[0] != (1, SUMMARY_HEADER):
            raise MalformedFile(f"{path} is not a cv summary file: its header is not "
                                f"{','.join(SUMMARY_HEADER)}")
        for line, row in table[1:]:
            if len(row) != len(SUMMARY_HEADER):
                raise MalformedFile(f"{path} line {line} has {len(row)} cells "
                                    f"where its header has {len(SUMMARY_HEADER)}")
            rows.append(row)
    rows.sort(key=lambda r: (r[0], r[1], r[2]))

    if out is not None:
        dataio.write_table(out, SUMMARY_HEADER, rows)
        print(f"combined table -> {out}")
    widths = [max(len(h), 14) for h in SUMMARY_HEADER]
    print("  ".join(h.ljust(w) for h, w in zip(SUMMARY_HEADER, widths)))
    for row in rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(row, widths)))
    return 0


# --- parser ------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="ramanfuse", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="SUBCOMMAND")

    def add(name, func, help_text, flags, **overrides):
        """A subcommand taking --config and flags; overrides maps a flag to
        the add_argument keywords it changes for this command."""
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.set_defaults(func=func, parser=p)
        for flag in ("config", *flags):
            p.add_argument(f"--{flag}", **{**FLAGS[flag], **overrides.get(flag, {})})

    add("synth", _cmd_synth, "generate a synthetic cohort with known ground truth",
        ("seed", "out", "n-patients", "n-samples", "dp-signal", "rci-signal", "image-size",
         "cube-size", "n-bands"))
    add("preprocess", _cmd_preprocess,
        "write prepared grey images and tissue masks for every sample",
        ("manifest", "out", *SIZE_FLAGS))
    add("median-spectrum", _cmd_median_spectrum, "write per-sample median spectra",
        ("manifest", "out"))
    add("build-dict", _cmd_build_dict,
        "cluster reference-patient descriptors into a visual dictionary",
        ("seed", "manifest", "out", "task", "modality", "k", *REFERENCE_FLAGS),
        modality=dict(choices=experiments.IMAGE_ROUTES, default=None))
    add("encode", _cmd_encode, "encode samples against saved dictionaries",
        ("manifest", "out", "task", "modality", "dp-dict", "rci-dict", *SIZE_FLAGS),
        modality=dict(choices=("dp", "rci", "fused")))
    add("train", _cmd_train, "train one calibrated model on the classification set",
        ("seed", "manifest", "out", "task", "modality", *SVM_FLAGS, *PLS_FLAGS,
         *REFERENCE_FLAGS))
    add("cv", _cmd_cv, "patient-grouped cross-validation with report files",
        ("seed", "manifest", "out", "task", "modality", "n-reference-sets", *SVM_FLAGS,
         *PLS_FLAGS, *REFERENCE_FLAGS, "folds"))
    # grid searches the dictionary sizes of --dp-sizes/--rci-sizes, not --k-dp/--k-rci.
    add("grid", _cmd_grid, "exhaustive dictionary/kernel/C/gamma accuracy search",
        ("seed", "manifest", "out", "task", "jobs", "dp-sizes", "rci-sizes", "c-grid",
         "gamma-grid", "kernels", *SIZE_FLAGS, "reference-fraction", "folds"))
    add("pls-select", _cmd_pls_select, "repeated-split selection of pretreatment and LV count",
        ("seed", "manifest", "out", "task", "n-repeats", "lv-max", "pretreatments", "jobs"))
    add("ttest", _cmd_ttest, "paired two-tail t-test between two value columns",
        ("a", "b", "out"))
    add("report", _cmd_report, "stack cv summaries into one comparison table",
        ("inputs", "out"))
    return parser


def _parse_args(argv) -> argparse.Namespace:
    """The subcommand's arguments: flags, else --config values, else defaults."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        raise _UsageError(parser.format_usage())
    if args.config:
        args.parser.set_defaults(**_check_config(args.parser, _load_config(args.config)))
        args = parser.parse_args(argv)
    return args


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        return int(args.func(args) or 0)
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
