"""End-to-end experiment wiring: per-sample preprocessing, dictionary and
feature construction over a cohort, and cross-validated classification for
each modality route."""
from __future__ import annotations

import tempfile
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import bovw, dataio, evaluation, imaging, plsda, spectral, svm, synth
from .dataio import CohortManifest, GreyImage, Label
from .sift import SiftParams, descriptor_matrix, extract

TASKS = ("nc-c", "g3-g4")
MODALITIES = ("dp", "rci", "fused", "median-spectrum")


@dataclass(frozen=True)
class PipelineConfig:
    dp_size: int = 128
    rci_size: int = 96
    k_dp: int = 100
    k_rci: int = 20
    folds: int = 5
    reference_fraction: float = 52.0 / 179.0
    normalize: bool = True
    sift: SiftParams = SiftParams(contrast_threshold=0.02, upsample_first=True)
    svm_config: svm.SvmConfig = svm.SvmConfig(C=10.0, kernel="rbf", gamma=4.0)


# --- per-sample preprocessing ----------------------------------------------------


def tissue_mask(cube) -> np.ndarray:
    """Background removal, spike/saturation flagging, then small-region
    cleanup, combined into one keep-mask."""
    background = imaging.background_mask(cube)
    keep = spectral.detect_bad_pixels(replace(cube, mask=background.mask))
    cleaned = imaging.remove_small_regions(background.mask & keep)
    return imaging.composite_mask(background.mask, keep, cleaned)


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
    record, config: PipelineConfig = PipelineConfig(), include_images: bool = True
) -> PreparedSample:
    """The one per-sample preparation path: both image routes plus the
    masked median spectrum. include_images=False loads no pathology image and
    skips resize and equalization."""
    cube = dataio.load_cube(record.rci_path)
    if include_images:
        dp = prepare_dp(dataio.load_image(record.dp_path), config.dp_size)
        rci, mask = prepare_rci(cube, config.rci_size)
    else:
        dp = rci = None
        mask = tissue_mask(cube)
    median = spectral.median_spectrum(replace(cube, mask=mask))
    return PreparedSample(dp, rci, mask, median)


# --- task handling ----------------------------------------------------------------


def task_records(manifest: CohortManifest, task: str):
    """(records, labels) for one clinical question; labels are 0/1 with the
    positive class being cancer (nc-c) or grade 4 (g3-g4)."""
    if task == "nc-c":
        records = list(manifest.samples)
        y = np.array([1 if r.label.is_cancer else 0 for r in records])
    elif task == "g3-g4":
        records = [r for r in manifest.samples if r.label.is_cancer]
        y = np.array([1 if r.label is Label.G4 else 0 for r in records])
    else:
        raise ValueError(f"unknown task {task!r}; expected one of {TASKS}")
    return records, y


# --- cohort feature construction ---------------------------------------------------


ROUTES = {"dp": ("dp",), "rci": ("rci",), "fused": ("dp", "rci")}


def feature_row(histograms, normalize: bool) -> np.ndarray:
    """One sample's feature vector: its route histograms side by side in
    ROUTES order, each block normalized on its own; for (dp, rci) this is
    bovw.fuse."""
    return np.concatenate([bovw.feature_vector(h, normalize) for h in histograms])


@dataclass(frozen=True)
class CohortDescriptors:
    """Partition-independent per-sample measurements for one task: SIFT
    descriptors for both image routes plus median spectra."""

    task: str
    manifest: CohortManifest     # task records only
    y: np.ndarray
    dp_descriptors: tuple
    rci_descriptors: tuple
    medians: np.ndarray
    config: PipelineConfig

    def route(self, modality: str) -> tuple:
        """Descriptor matrix per sample for one image route."""
        return {"dp": self.dp_descriptors, "rci": self.rci_descriptors}[modality]

    def pool(self, modality: str, rows) -> np.ndarray:
        """Descriptors of the given rows stacked into one matrix."""
        table = self.route(modality)
        return np.concatenate([table[i] for i in rows] or [np.zeros((0, 128))])


@dataclass(frozen=True)
class CohortFeatures:
    """One reference/fold split of a CohortDescriptors. Dictionaries come
    from the reference rows; the classification rows are encoded."""

    descriptors: CohortDescriptors
    plan: evaluation.FoldPlan
    histograms: dict    # {"dp": WordHistogram per classification row, "rci": ...}

    @cached_property
    def _is_reference(self) -> np.ndarray:
        reference = set(self.plan.reference_patients)
        samples = self.descriptors.manifest.samples
        return np.array([r.patient_id in reference for r in samples], dtype=bool)

    @property
    def reference_rows(self) -> np.ndarray:
        return np.flatnonzero(self._is_reference)

    @property
    def classification_rows(self) -> np.ndarray:
        return np.flatnonzero(~self._is_reference)

    @property
    def config(self) -> PipelineConfig:
        return self.descriptors.config

    @property
    def y(self) -> np.ndarray:
        return self.descriptors.y[self.classification_rows]

    @property
    def patient_ids(self) -> tuple:
        samples = self.descriptors.manifest.samples
        return tuple(samples[i].patient_id for i in self.classification_rows)

    @property
    def medians(self) -> np.ndarray:
        return self.descriptors.medians[self.classification_rows]

    def matrix(self, modality: str) -> np.ndarray:
        if modality not in ROUTES or not self.histograms:
            raise ValueError(f"no {modality!r} feature matrix in these features")
        blocks = [self.histograms[route] for route in ROUTES[modality]]
        return np.array([feature_row(row, self.config.normalize) for row in zip(*blocks)])


def extract_cohort(
    manifest: CohortManifest,
    task: str,
    config: PipelineConfig = PipelineConfig(),
    include_images: bool = True,
) -> CohortDescriptors:
    """The heavy, partition-free stage: preprocess every task sample once
    and keep its descriptors and median spectrum. include_images=False skips
    the two image routes (median-spectrum work only)."""
    records, y = task_records(manifest, task)
    dp_desc, rci_desc, medians = [], [], []
    for record in records:
        sample = prepare_sample(record, config, include_images)
        dp_desc.append(_descriptors(sample.dp, config.sift))
        rci_desc.append(_descriptors(sample.rci, config.sift))
        medians.append(sample.median.intensities)
    return CohortDescriptors(
        task=task,
        manifest=CohortManifest(tuple(records), manifest.seed, manifest.root),
        y=y,
        dp_descriptors=tuple(dp_desc),
        rci_descriptors=tuple(rci_desc),
        medians=np.array(medians),
        config=config,
    )


def _descriptors(img, params: SiftParams) -> np.ndarray:
    if img is None:
        return np.zeros((0, 128))
    return descriptor_matrix(extract(img, params))


def partition_features(
    desc: CohortDescriptors, seed: int = 0, build_dictionaries: bool = True
) -> CohortFeatures:
    """The light, partition-dependent stage: draw the reference/fold split,
    build dictionaries from reference patients, encode the rest."""
    config = desc.config
    plan = evaluation.plan_folds(
        desc.manifest, k=config.folds,
        reference_fraction=config.reference_fraction, seed=seed,
    )
    features = CohortFeatures(desc, plan, histograms={})
    if build_dictionaries:
        features = replace(features, histograms={
            "dp": route_histograms(features, "dp", config.k_dp, seed),
            "rci": route_histograms(features, "rci", config.k_rci, seed),
        })
    return features


def route_histograms(features: CohortFeatures, modality: str, k: int, seed: int) -> tuple:
    """Build a size-k dictionary from the reference rows' descriptors and
    encode each classification row against it."""
    desc = features.descriptors
    pool = desc.pool(modality, features.reference_rows)
    dictionary = bovw.kmeans(pool, k, seed, modality=modality)
    table = desc.route(modality)
    return tuple(
        bovw.encode_descriptors(table[i], dictionary) for i in features.classification_rows
    )


def build_cohort_features(
    manifest: CohortManifest,
    task: str,
    config: PipelineConfig = PipelineConfig(),
    seed: int = 0,
) -> CohortFeatures:
    """extract_cohort + partition_features in one step."""
    return partition_features(extract_cohort(manifest, task, config), seed)


# --- classification routes ---------------------------------------------------------


def svm_fold_functions(cfg: svm.SvmConfig):
    """fit/score pair for cross_validate: calibrated probabilities feed the
    ROC ranking, hard signs feed the confusion matrix."""

    def fit(X, y01):
        y = 2.0 * np.asarray(y01, dtype=np.float64) - 1.0
        model = svm.train(np.asarray(X, dtype=np.float64), y, cfg)
        return svm.calibrate(model, X, y)

    def score(model, X):
        labels = (svm.predict(model, np.asarray(X, dtype=np.float64)) + 1) // 2
        return labels, svm.predict_proba(model, X)

    return fit, score


def run_bovw_cv(
    features: CohortFeatures, modality: str, cfg: svm.SvmConfig | None = None
) -> evaluation.EvalReport:
    cfg = features.config.svm_config if cfg is None else cfg
    fit, score = svm_fold_functions(cfg)
    return evaluation.cross_validate(
        features.matrix(modality),
        features.y,
        features.patient_ids,
        features.plan,
        fit,
        score,
        positive_label=1,
    )


def pls_fold_functions(pretreatment: spectral.PretreatmentSpec, n_lv: int):
    def fit(X, y01):
        fitted = spectral.fit_pretreatment(pretreatment, X)
        treated = fitted.apply(X)
        cap = min(n_lv, len(X) - 1, treated.shape[1])
        return fitted, plsda.fit_pls(treated, y01, cap, pretreatment)

    def score(model, X):
        fitted, pls = model
        labels, scores = plsda.predict_class(pls, fitted.apply(X))
        return labels, scores

    return fit, score


def run_pls_cv(
    features: CohortFeatures,
    pretreatment: spectral.PretreatmentSpec,
    n_lv: int,
    include_reference: bool = True,
) -> evaluation.EvalReport:
    """Median-spectrum route; reference medians join every training side."""
    cls = features.classification_rows
    ref = features.reference_rows if include_reference else features.reference_rows[:0]
    rows = np.concatenate([cls, ref])
    pids = list(features.patient_ids) + [f"__reference_{i}" for i in range(len(ref))]
    extra = np.arange(len(cls), len(rows)) if len(ref) else None
    fit, score = pls_fold_functions(pretreatment, n_lv)
    desc = features.descriptors
    return evaluation.cross_validate(
        desc.medians[rows], desc.y[rows], pids, features.plan, fit, score,
        positive_label=1, extra_train_indices=extra,
    )


def grid_feature_sets(features: CohortFeatures, dp_sizes, rci_sizes, seed: int) -> dict:
    """Fused feature matrix per dictionary-size pair, keyed (k_dp, k_rci) in
    ascending enumeration order, reusing the cached descriptors."""
    normalize = features.config.normalize
    dp_hists = {k: route_histograms(features, "dp", k, seed) for k in sorted(set(dp_sizes))}
    rci_hists = {k: route_histograms(features, "rci", k, seed) for k in sorted(set(rci_sizes))}
    return {
        (k_dp, k_rci): np.array(
            [feature_row(pair, normalize) for pair in zip(dp_hists[k_dp], rci_hists[k_rci])]
        )
        for k_dp in dp_hists
        for k_rci in rci_hists
    }


def plan_fold_indices(features: CohortFeatures):
    """(train, test) index pairs over the classification samples."""
    pids = np.asarray(features.patient_ids)
    folds = []
    for fold in features.plan.folds:
        test = np.flatnonzero(np.isin(pids, fold))
        train = np.flatnonzero(~np.isin(pids, fold))
        folds.append((train, test))
    return folds


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
            features = build_cohort_features(manifest, task, config, seed)
            for modality in out:
                report = run_bovw_cv(features, modality)
                out[modality].append(float(np.mean(report.fold_aucs)))
    return out
