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
from .errors import DimMismatch
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


@dataclass(frozen=True)
class CohortDescriptors:
    """Partition-independent per-sample measurements for one task: SIFT
    descriptors of the extracted image routes plus median spectra."""

    manifest: CohortManifest     # task records only
    y: np.ndarray
    routes: dict                 # {route: descriptor matrix per sample}, extracted routes only
    medians: np.ndarray
    config: PipelineConfig

    def pool(self, route: str, rows) -> np.ndarray:
        """Descriptors of the given rows stacked into one matrix."""
        table = self.routes[route]
        return np.concatenate([table[i] for i in rows] or [np.zeros((0, 128))])


def is_reference(records, reference_fraction: float, seed: int) -> np.ndarray:
    """Per record, whether its patient is in the seed's reference pool."""
    reference = set(evaluation.reference_pool(records, reference_fraction, seed)[0])
    return np.array([r.patient_id in reference for r in records], dtype=bool)


@dataclass(frozen=True)
class CohortFeatures:
    """One seeded reference split of a CohortDescriptors. Dictionaries come
    from the reference rows; the classification rows are encoded."""

    descriptors: CohortDescriptors
    seed: int
    histograms: dict    # {route: word-frequency matrix over the classification rows}

    @cached_property
    def _is_reference(self) -> np.ndarray:
        return is_reference(
            self.descriptors.manifest.samples, self.config.reference_fraction, self.seed
        )

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
    the first sample's wavenumber axis."""
    records, y = task_records(manifest, task)
    table = {route: [] for route in routes}
    medians = []
    for record in records:
        sample = prepare_sample(record, config, routes)
        for route, descriptors in table.items():
            descriptors.append(descriptor_matrix(extract(getattr(sample, route), SIFT_PARAMS)))
        if medians and not np.array_equal(sample.median.wavenumbers, medians[0].wavenumbers):
            raise DimMismatch(f"sample {record.sample_id} has another wavenumber axis "
                              f"than sample {records[0].sample_id}")
        medians.append(sample.median)
    return CohortDescriptors(
        manifest=CohortManifest(tuple(records), manifest.seed),
        y=y,
        routes={route: tuple(descriptors) for route, descriptors in table.items()},
        medians=np.array([median.intensities for median in medians]),
        config=config,
    )


def partition_features(
    desc: CohortDescriptors, seed: int = 0, build_dictionaries: bool = True
) -> CohortFeatures:
    """The light, partition-dependent stage: draw the reference pool, build
    a dictionary per extracted route from reference patients, encode the
    rest."""
    features = CohortFeatures(desc, seed, histograms={})
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
    features: CohortFeatures, modality: str, cfg: svm.SvmConfig = SVM_CONFIG
) -> evaluation.EvalReport:
    fit, score = svm_fold_functions(cfg)
    return evaluation.cross_validate(
        features.matrix(modality), features.y, plan_fold_indices(features), fit, score
    )


def pls_fold_functions(pretreatment: spectral.PretreatmentSpec, n_lv: int):
    def fit(X, y01):
        fitted, treated = spectral.fit_pretreatment(pretreatment, X)
        cap = min(n_lv, len(X) - 1, treated.shape[1])
        return fitted, plsda.fit_pls(treated, y01, cap, pretreatment)

    def score(model, X):
        fitted, pls = model
        labels, scores = plsda.predict_class(pls, fitted.apply(X))
        return labels, scores

    return fit, score


def run_pls_cv(
    features: CohortFeatures, pretreatment: spectral.PretreatmentSpec, n_lv: int
) -> evaluation.EvalReport:
    """Median-spectrum route: the classification rows, then the reference
    medians, which join every fold's training side and are never tested."""
    cls, ref = features.classification_rows, features.reference_rows
    rows = np.concatenate([cls, ref])
    extra = np.arange(len(cls), len(rows))
    folds = [(np.concatenate([train, extra]), test) for train, test in plan_fold_indices(features)]
    fit, score = pls_fold_functions(pretreatment, n_lv)
    desc = features.descriptors
    return evaluation.cross_validate(desc.medians[rows], desc.y[rows], folds, fit, score)


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
    """(train, test) index pairs over the classification rows, one per fold
    of config.folds dealt from the patients outside the reference pool:
    test is the fold's patients' rows, train all other classification rows."""
    config = features.config
    plan = evaluation.plan_folds(features.descriptors.manifest, config.folds,
                                 config.reference_fraction, features.seed)
    pids = np.asarray(features.patient_ids)
    return [(np.flatnonzero(~test), np.flatnonzero(test))
            for test in (np.isin(pids, fold) for fold in plan.folds)]


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
                report = run_bovw_cv(features, modality)
                out[modality].append(float(np.mean(report.fold_aucs)))
    return out
