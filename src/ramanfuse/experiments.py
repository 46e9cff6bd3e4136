"""End-to-end experiment wiring: per-sample preprocessing, dictionary and
feature construction over a cohort, and cross-validated classification for
each modality route."""
from __future__ import annotations

import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import bovw, dataio, evaluation, imaging, plsda, spectral, svm, synth
from .dataio import CohortManifest, GreyImage, Label
from .errors import (
    DimMismatch, InsufficientClassCoverage, RamanFuseError, SingleClass, TooFewPatients,
)
from .sift import SiftParams, descriptor_matrix, extract

TASKS = ("nc-c", "g3-g4")
IMAGE_ROUTES = ("dp", "rci")
# The image routes each modality reads; a command extracts and clusters
# exactly these.
ROUTES = {"dp": ("dp",), "rci": ("rci",), "fused": IMAGE_ROUTES, "median-spectrum": ()}
MODALITIES = tuple(ROUTES)
# The paper's SIFT setting and SVM operating point.
SIFT_PARAMS = SiftParams(contrast_threshold=0.02, upsample_first=True)
SVM_CONFIG = svm.SvmConfig(C=10.0, kernel="rbf", gamma=4.0)


@dataclass(frozen=True)
class PipelineConfig:
    dp_size: int = 128
    rci_size: int = 96
    k_dp: int = 100
    k_rci: int = 20
    folds: int = 5
    reference_fraction: float = 52.0 / 179.0


# --- per-sample preprocessing ----------------------------------------------------


def tissue_mask(cube) -> np.ndarray:
    """Background removal, spike/saturation flagging, then small-region
    cleanup of the pixels both keep."""
    background = imaging.background_mask(cube)
    keep = spectral.detect_bad_pixels(replace(cube, mask=background.mask))
    return imaging.remove_small_regions(background.mask & keep)


def prepare_dp(img, size: int) -> GreyImage:
    """Pathology route: grey conversion and bicubic resize (no equalization —
    stain contrast is already calibrated)."""
    return imaging.resize_cubic(imaging.rgb_to_grey(img), size, size)


def prepare_rci(cube, size: int):
    """Chemical-image route: masked mean image, bicubic upsampling to the
    working size, then histogram equalization. Returns (image, mask)."""
    mask = tissue_mask(cube)
    mean = imaging.mean_image(replace(cube, mask=mask))
    equalized = imaging.histogram_equalize(imaging.resize_cubic(mean, size, size))
    return equalized, mask


@dataclass(frozen=True)
class PreparedSample:
    """One sample after preprocessing; the images are None when the image
    routes were skipped."""

    dp: GreyImage | None
    rci: GreyImage | None
    mask: np.ndarray            # tissue keep-mask over the cube's pixels
    median: spectral.Spectrum   # median spectrum over the mask


def prepare_sample(
    record, config: PipelineConfig = PipelineConfig(), routes=IMAGE_ROUTES
) -> PreparedSample:
    """The one per-sample preparation path: the image routes named in
    `routes` plus the masked median spectrum. Without "dp" no pathology
    image is loaded; without "rci" the mean image is not resized or
    equalized."""
    if not set(routes) <= set(IMAGE_ROUTES):
        raise ValueError(f"image routes must be among {IMAGE_ROUTES}, got {tuple(routes)}")
    cube = dataio.load_cube(record.rci_path)
    dp = None
    if "dp" in routes:
        dp = prepare_dp(dataio.load_image(record.dp_path), config.dp_size)
    if "rci" in routes:
        rci, mask = prepare_rci(cube, config.rci_size)
    else:
        rci, mask = None, tissue_mask(cube)
    median = spectral.median_spectrum(replace(cube, mask=mask))
    return PreparedSample(dp, rci, mask, median)


@contextmanager
def naming_sample(record):
    """Put `sample <id>: ` before the message of any package error raised
    inside, keeping its class and so its exit code."""
    try:
        yield
    except RamanFuseError as exc:
        raise type(exc)(f"sample {record.sample_id}: {exc}") from exc


# --- task handling and run plans ---------------------------------------------------


def task_records(manifest: CohortManifest, task: str):
    """(records, labels) for one clinical question; labels are 0/1 with the
    positive class being cancer (nc-c) or grade 4 (g3-g4)."""
    if task == "nc-c":
        records = tuple(manifest.samples)
        y = np.array([1 if r.label.is_cancer else 0 for r in records])
    elif task == "g3-g4":
        records = tuple(r for r in manifest.samples if r.label.is_cancer)
        y = np.array([1 if r.label is Label.G4 else 0 for r in records])
    else:
        raise ValueError(f"unknown task {task!r}; expected one of {TASKS}")
    if not records:
        raise InsufficientClassCoverage(f"task {task} selects no sample of the manifest")
    return records, y


@dataclass(frozen=True, eq=False)
class RunPlan:
    """One reference set's split of a task's rows, drawn from the manifest
    alone: the seeded patient-level reference pool that dictionaries are
    built from, and the patient-grouped folds dealt from the other patients."""

    records: tuple
    y: np.ndarray
    config: PipelineConfig
    seed: int

    @classmethod
    def draw(cls, manifest: CohortManifest, task: str, config: PipelineConfig = PipelineConfig(),
             seed: int = 0, routes=(), fit=None, reference_set: int = 0) -> "RunPlan":
        """The seed's plan, checked for a run that builds the dictionaries of
        `routes` from the reference pool and fits `fit`: None; "once", on the
        classification rows, or with no route on every task row; "folds", on
        each fold's training rows; "roc", also scoring its test rows by ROC.
        reference_set numbers the plan in a fold's error."""
        plan = cls(*task_records(manifest, task), config, seed)
        dealt = plan.y[~plan.reference]
        if routes and not plan.reference.any():
            raise TooFewPatients(f"--reference-fraction {config.reference_fraction:g} puts no "
                                 f"patient of task {task} in the reference pool, which the "
                                 f"dictionaries are built from")
        if fit == "once" and len(np.unique(dealt if routes else plan.y)) < 2:
            raise SingleClass(f"task {task}: the {'classification' if routes else 'task'} rows "
                              f"do not hold both classes, which a fit needs")
        for f, (train, test) in enumerate(plan.folds if fit in ("folds", "roc") else (), start=1):
            if len(np.unique(dealt[test if fit == "roc" else train])) < 2:
                side, need = ("test", "ROC") if fit == "roc" else ("training", "a fit")
                raise SingleClass(f"reference set {reference_set}, fold {f}: the {side} rows "
                                  f"hold one class only, and {need} needs both")
        return plan

    @cached_property
    def reference(self) -> np.ndarray:
        """Per task row, whether its patient is in the reference pool."""
        return evaluation.reference_pool(self.records, self.config.reference_fraction, self.seed)

    @cached_property
    def folds(self) -> list:
        """(train, test) index pairs over the classification rows, one per
        fold: test is the fold's patients' rows, train all the others."""
        return evaluation.fold_pairs(evaluation.plan_folds(
            self.records, self.config.folds, self.config.reference_fraction, self.seed))


# --- cohort feature construction ---------------------------------------------------


@dataclass(frozen=True)
class CohortDescriptors:
    """Partition-independent per-sample measurements for one task: SIFT
    descriptors of the extracted image routes plus median spectra."""

    manifest: CohortManifest     # task records only
    y: np.ndarray
    routes: dict                 # {route: descriptor matrix per sample}, extracted routes only
    medians: np.ndarray
    config: PipelineConfig
    task: str

    def pool(self, route: str, rows) -> np.ndarray:
        """Descriptors of the given rows stacked into one matrix."""
        table = self.routes[route]
        return np.concatenate([table[i] for i in rows] or [np.zeros((0, 128))])


@dataclass(frozen=True)
class CohortFeatures:
    """One RunPlan's split of a CohortDescriptors. Dictionaries come from the
    reference rows; the classification rows are encoded."""

    descriptors: CohortDescriptors
    plan: RunPlan
    histograms: dict    # {route: word-frequency matrix over the classification rows}

    @property
    def reference_rows(self) -> np.ndarray:
        return np.flatnonzero(self.plan.reference)

    @property
    def classification_rows(self) -> np.ndarray:
        return np.flatnonzero(~self.plan.reference)

    @property
    def config(self) -> PipelineConfig:
        return self.descriptors.config

    @property
    def y(self) -> np.ndarray:
        return self.descriptors.y[self.classification_rows]

    @property
    def medians(self) -> np.ndarray:
        return self.descriptors.medians[self.classification_rows]

    def matrix(self, modality: str) -> np.ndarray:
        """The modality's route blocks side by side in ROUTES order (dp
        before rci); each block is normalized on its own so neither
        modality drowns the other."""
        routes = ROUTES.get(modality, ())
        missing = [route for route in routes if route not in self.histograms]
        if not routes or missing:
            lacking = f": no {'/'.join(missing)} histograms" if missing else ""
            raise ValueError(f"no {modality!r} feature matrix in these features{lacking}")
        return np.hstack([self.histograms[route] for route in routes])


def extract_cohort(
    manifest: CohortManifest,
    task: str,
    config: PipelineConfig = PipelineConfig(),
    routes=IMAGE_ROUTES,
) -> CohortDescriptors:
    """The heavy, partition-free stage: preprocess every task sample once
    and keep the descriptors of each route in `routes` and its median
    spectrum; routes=() is median-spectrum work only. Every cube must share
    the first sample's wavenumber axis. An error raised for one sample names
    that sample."""
    records, y = task_records(manifest, task)
    table = {route: [] for route in routes}
    medians = []
    for record in records:
        with naming_sample(record):
            sample = prepare_sample(record, config, routes)
            for route, descriptors in table.items():
                descriptors.append(descriptor_matrix(extract(getattr(sample, route), SIFT_PARAMS)))
        if medians and not np.array_equal(sample.median.wavenumbers, medians[0].wavenumbers):
            raise DimMismatch(f"sample {record.sample_id} has another wavenumber axis "
                              f"than sample {records[0].sample_id}")
        medians.append(sample.median)
    return CohortDescriptors(
        manifest=CohortManifest(records, manifest.seed),
        y=y,
        routes={route: tuple(descriptors) for route, descriptors in table.items()},
        medians=np.array([median.intensities for median in medians]),
        config=config,
        task=task,
    )


def partition_features(
    desc: CohortDescriptors, seed: int = 0, build_dictionaries: bool = True
) -> CohortFeatures:
    """The light, partition-dependent stage: draw the seed's RunPlan, build
    a dictionary per extracted route from reference patients, encode the
    rest."""
    routes = desc.routes if build_dictionaries else ()
    features = CohortFeatures(desc, RunPlan.draw(desc.manifest, desc.task, desc.config, seed,
                                                 routes), histograms={})
    if build_dictionaries:
        k = {"dp": desc.config.k_dp, "rci": desc.config.k_rci}
        features = replace(features, histograms={
            route: route_histograms(features, route, k[route], seed) for route in desc.routes
        })
    return features


def route_histograms(features: CohortFeatures, modality: str, k: int, seed: int) -> np.ndarray:
    """Build a size-k dictionary from the reference rows' descriptors and
    return the classification rows' (rows x k) word frequencies."""
    desc = features.descriptors
    pool = desc.pool(modality, features.reference_rows)
    dictionary = bovw.kmeans(pool, k, seed, modality=modality)
    table = desc.routes[modality]
    return bovw.word_frequencies([table[i] for i in features.classification_rows], dictionary)


# --- classification routes ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RouteModel:
    """One modality's classifier fitted on classification rows of a
    CohortFeatures: the calibrated SVM of a BoVW modality, or the PLS-DA
    model of the median spectrum with its fitted pretreatment."""

    modality: str
    classifier: object   # svm.SvmModel, or plsda.PlsModel for median-spectrum
    pretreatment: spectral.FittedPretreatment | None = None

    @classmethod
    def fit(cls, features: CohortFeatures, modality: str, rows, settings) -> "RouteModel":
        """Fit on the classification rows `rows`. settings is the modality's
        svm.SvmConfig, or (PretreatmentSpec, n_lv) for median-spectrum, which
        trains on these rows' medians followed by every reference median."""
        if modality == "median-spectrum":
            pretreatment, n_lv = settings
            train = np.concatenate([features.classification_rows[rows], features.reference_rows])
            fitted, treated = spectral.fit_pretreatment(
                pretreatment, features.descriptors.medians[train])
            cap = min(n_lv, len(treated) - 1, treated.shape[1])
            pls = plsda.fit_pls(treated, features.descriptors.y[train], cap, pretreatment)
            return cls(modality, pls, fitted)
        X = features.matrix(modality)[rows]
        y = 2.0 * features.y[rows] - 1.0
        return cls(modality, svm.calibrate(svm.train(X, y, settings), X, y))

    def scores(self, features: CohortFeatures, rows):
        """(0/1 labels, scores) of the classification rows `rows`: hard
        labels feed the confusion matrix, scores the ROC ranking (the SVM's
        calibrated probabilities)."""
        if self.pretreatment is not None:
            medians = self.pretreatment.apply(features.medians[rows])
            return plsda.predict_class(self.classifier, medians)
        X = features.matrix(self.modality)[rows]
        return (svm.predict(self.classifier, X) + 1) // 2, svm.predict_proba(self.classifier, X)


def run_cv(features: CohortFeatures, modality: str, settings) -> evaluation.EvalReport:
    """Cross-validate the modality over plan_fold_indices: each fold fits a
    RouteModel on its train rows and scores its test rows."""
    return evaluation.cross_validate(
        features.y, plan_fold_indices(features),
        lambda train: RouteModel.fit(features, modality, train, settings),
        lambda model, test: model.scores(features, test),
    )


# run_cv under the two names the benchmark's workloads call.
def run_bovw_cv(features: CohortFeatures, modality: str, cfg=SVM_CONFIG) -> evaluation.EvalReport:
    return run_cv(features, modality, cfg)


def run_pls_cv(features: CohortFeatures, pretreatment, n_lv: int) -> evaluation.EvalReport:
    return run_cv(features, "median-spectrum", (pretreatment, n_lv))


def grid_feature_sets(features: CohortFeatures, dp_sizes, rci_sizes, seed: int) -> dict:
    """Fused feature matrix per dictionary-size pair, keyed (k_dp, k_rci) in
    ascending enumeration order, reusing the cached descriptors."""
    dp_hists = {k: route_histograms(features, "dp", k, seed) for k in sorted(set(dp_sizes))}
    rci_hists = {k: route_histograms(features, "rci", k, seed) for k in sorted(set(rci_sizes))}
    return {
        (k_dp, k_rci): np.hstack([dp_hists[k_dp], rci_hists[k_rci]])
        for k_dp in dp_hists
        for k_rci in rci_hists
    }


def plan_fold_indices(features: CohortFeatures):
    """The fold pairs of the features' plan, dealt once per plan."""
    return features.plan.folds


# --- multi-seed benchmark ----------------------------------------------------------


def fusion_benchmark(
    dp_signal: float,
    rci_signal: float,
    seeds,
    task: str = "nc-c",
    synth_overrides: dict | None = None,
    config: PipelineConfig = PipelineConfig(),
) -> dict:
    """Mean-over-folds CV AUC per modality for freshly generated cohorts,
    one entry per seed. Fold means rather than pooled ROC: pooling mixes
    fold-specific calibration offsets into one ranking, which widens the
    no-signal distribution without adding information. Everything happens
    in a throwaway directory."""
    out = {"dp": [], "rci": [], "fused": []}
    overrides = synth_overrides or {}
    for seed in seeds:
        spec = synth.SynthSpec(
            dp_signal=dp_signal, rci_signal=rci_signal, seed=seed, **overrides
        )
        with tempfile.TemporaryDirectory() as tmp:
            manifest = synth.generate(spec, tmp)
            features = partition_features(extract_cohort(manifest, task, config), seed)
            for modality in out:
                report = run_cv(features, modality, SVM_CONFIG)
                out[modality].append(float(np.mean(report.fold_aucs)))
    return out
