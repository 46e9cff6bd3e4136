"""Pipeline wiring checks: per-sample preparation, task framing, the
two-stage feature construction, and the cross-validated classification
routes, all on one small synthetic cohort."""
from dataclasses import replace

import numpy as np
import pytest

from ramanfuse import bovw, dataio, evaluation, experiments, spectral, svm, synth

COHORT = dict(n_patients=12, n_samples=70, dp_size=96, rci_size=24, n_bands=32)
CONFIG = experiments.PipelineConfig(dp_size=96, rci_size=64, k_dp=12, k_rci=6)


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    root = tmp_path_factory.mktemp("cohort")
    return synth.generate(synth.SynthSpec(seed=7, **COHORT), root)


@pytest.fixture(scope="module")
def first_cube(cohort):
    return dataio.load_cube(cohort.samples[0].rci_path)


@pytest.fixture(scope="module")
def descriptors(cohort):
    return experiments.extract_cohort(cohort, "nc-c", CONFIG)


@pytest.fixture(scope="module")
def features(descriptors):
    return experiments.partition_features(descriptors, seed=0)


def fold_plan(features):
    """plan_folds' label per task row: -1 reference pool, else the fold."""
    config = features.config
    return evaluation.plan_folds(features.descriptors.manifest.samples, config.folds,
                                 config.reference_fraction, features.plan.seed)


def patients(features, rows):
    samples = features.descriptors.manifest.samples
    return {samples[i].patient_id for i in rows}


def spectra_features(medians, y):
    """CohortFeatures over the given median spectra alone: one patient per
    row, no image route and no reference row."""
    labels = (dataio.Label.NORMAL, dataio.Label.G3)
    records = tuple(dataio.SampleRecord(f"p{i}", f"s{i}", labels[label], "", "")
                    for i, label in enumerate(y))
    desc = experiments.CohortDescriptors(
        dataio.CohortManifest(records, 0), np.asarray(y), {}, np.asarray(medians),
        replace(CONFIG, reference_fraction=0.0), "nc-c",
    )
    features = experiments.partition_features(desc, seed=0)
    assert len(features.reference_rows) == 0
    return features


def reference_patients(features):
    samples = features.descriptors.manifest.samples
    pool = evaluation.reference_pool(samples, features.config.reference_fraction,
                                     features.plan.seed)
    return patients(features, np.flatnonzero(pool))


class TestPreparation:
    def test_tissue_mask_is_a_proper_subset(self, first_cube):
        mask = experiments.tissue_mask(first_cube)
        assert mask.dtype == bool
        assert mask.shape == (first_cube.height, first_cube.width)
        assert 0 < mask.sum() < mask.size

    def test_prepare_dp_resizes_to_square_grey(self, cohort):
        img = dataio.load_image(cohort.samples[0].dp_path)
        out = experiments.prepare_dp(img, 64)
        assert out.pixels.shape == (64, 64)
        assert out.pixels.dtype == np.uint8

    def test_prepare_rci_returns_image_and_source_mask(self, first_cube):
        img, mask = experiments.prepare_rci(first_cube, 48)
        assert img.pixels.shape == (48, 48)
        assert mask.shape == (first_cube.height, first_cube.width)
        assert np.array_equal(mask, experiments.tissue_mask(first_cube))

    def test_median_uses_the_tissue_mask(self, cohort, first_cube):
        got = experiments.prepare_sample(cohort.samples[0], CONFIG).median
        masked = replace(first_cube, mask=experiments.tissue_mask(first_cube))
        expected = spectral.median_spectrum(masked)
        assert np.array_equal(got.intensities, expected.intensities)

    def test_sample_descriptors_shapes(self, descriptors):
        dp, rci = descriptors.routes["dp"][0], descriptors.routes["rci"][0]
        assert dp.ndim == 2 and dp.shape[1] == 128 and len(dp) >= 1
        assert rci.ndim == 2 and rci.shape[1] == 128 and len(rci) >= 1

    def test_prepared_sample_matches_the_route_functions(self, cohort, first_cube):
        record = cohort.samples[0]
        sample = experiments.prepare_sample(record, CONFIG)
        dp = experiments.prepare_dp(dataio.load_image(record.dp_path), CONFIG.dp_size)
        rci, mask = experiments.prepare_rci(first_cube, CONFIG.rci_size)
        assert np.array_equal(sample.dp.pixels, dp.pixels)
        assert np.array_equal(sample.rci.pixels, rci.pixels)
        assert np.array_equal(sample.mask, mask)

    def test_without_images_nothing_is_resized_or_equalized(
        self, cohort, monkeypatch
    ):
        full = experiments.prepare_sample(cohort.samples[0], CONFIG)

        def forbidden(*args, **kwargs):
            raise AssertionError("image work with routes=()")

        for module, name in ((dataio, "load_image"), (experiments.imaging, "resize_cubic"),
                             (experiments.imaging, "histogram_equalize")):
            monkeypatch.setattr(module, name, forbidden)
        light = experiments.prepare_sample(cohort.samples[0], CONFIG, routes=())
        assert light.dp is None and light.rci is None
        assert np.array_equal(light.mask, full.mask)
        assert np.array_equal(light.median.intensities, full.median.intensities)

    @pytest.mark.parametrize("route, forbidden_name", [
        ("dp", "histogram_equalize"),   # equalization is RCI-only
        ("rci", "load_image"),          # the pathology image is DP-only
    ])
    def test_one_route_prepares_only_that_image(
        self, cohort, monkeypatch, route, forbidden_name
    ):
        full = experiments.prepare_sample(cohort.samples[0], CONFIG)

        def forbidden(*args, **kwargs):
            raise AssertionError(f"{forbidden_name} called with routes=({route!r},)")

        owner = dataio if forbidden_name == "load_image" else experiments.imaging
        monkeypatch.setattr(owner, forbidden_name, forbidden)
        one = experiments.prepare_sample(cohort.samples[0], CONFIG, routes=(route,))
        other = "rci" if route == "dp" else "dp"
        assert np.array_equal(getattr(one, route).pixels, getattr(full, route).pixels)
        assert getattr(one, other) is None
        assert np.array_equal(one.mask, full.mask)
        assert np.array_equal(one.median.intensities, full.median.intensities)

    def test_unknown_route_rejected(self, cohort):
        with pytest.raises(ValueError):
            experiments.prepare_sample(cohort.samples[0], CONFIG, routes=("fused",))


class TestTaskRecords:
    def test_cancer_vs_normal_uses_all_samples(self, cohort):
        records, y = experiments.task_records(cohort, "nc-c")
        assert len(records) == len(cohort.samples)
        assert all(
            bool(label) == record.label.is_cancer
            for record, label in zip(records, y)
        )
        assert 0 < y.sum() < len(y)

    def test_grade_task_keeps_only_cancer_samples(self, cohort):
        records, y = experiments.task_records(cohort, "g3-g4")
        assert all(r.label.is_cancer for r in records)
        assert all(
            bool(label) == (record.label is dataio.Label.G4)
            for record, label in zip(records, y)
        )
        assert 0 < y.sum() < len(y)

    def test_unknown_task_rejected(self, cohort):
        with pytest.raises(ValueError):
            experiments.task_records(cohort, "nc-vs-g4")


class TestTwoStageFeatures:
    def test_extract_covers_every_sample(self, descriptors, cohort):
        n = len(cohort.samples)
        assert set(descriptors.routes) == {"dp", "rci"}
        assert all(len(table) == n for table in descriptors.routes.values())
        assert descriptors.medians.shape == (n, COHORT["n_bands"])

    def test_medians_identical_without_image_routes(self, descriptors, cohort):
        light = experiments.extract_cohort(
            cohort, "nc-c", CONFIG, routes=()
        )
        assert np.array_equal(light.medians, descriptors.medians)
        assert light.routes == {}
        assert experiments.partition_features(light, seed=0).histograms == {}

    @pytest.mark.parametrize("route", ["dp", "rci"])
    def test_one_route_features_equal_that_route_of_both(
        self, cohort, descriptors, features, route
    ):
        one = experiments.extract_cohort(cohort, "nc-c", CONFIG, routes=(route,))
        assert set(one.routes) == {route}
        pairs = zip(one.routes[route], descriptors.routes[route])
        assert all(np.array_equal(a, b) for a, b in pairs)
        one_features = experiments.partition_features(one, seed=0)
        assert set(one_features.histograms) == {route}
        assert one_features.matrix(route).tobytes() == features.matrix(route).tobytes()
        other = "rci" if route == "dp" else "dp"
        with pytest.raises(ValueError, match=f"no {other} histograms"):
            one_features.matrix("fused")
        with pytest.raises(ValueError, match=f"no {other} histograms"):
            one_features.matrix(other)

    def test_partition_is_complete_and_leak_free(self, features, descriptors):
        n_cls = len(features.y)
        n_ref = len(features.reference_rows)
        assert n_cls + n_ref == len(descriptors.y)
        reference = set(reference_patients(features))
        assert reference
        assert not reference.intersection(patients(features, features.classification_rows))
        fold = fold_plan(features)
        for f in range(features.config.folds):
            assert not reference.intersection(patients(features, np.flatnonzero(fold == f)))

    def test_reference_pools_match_reference_rows(self, features, descriptors):
        reference = set(reference_patients(features))
        ref_rows = [
            i
            for i, r in enumerate(descriptors.manifest.samples)
            if r.patient_id in reference
        ]
        assert list(features.reference_rows) == ref_rows
        want_dp = sum(len(descriptors.routes["dp"][i]) for i in ref_rows)
        assert len(descriptors.pool("dp", features.reference_rows)) == want_dp

    def test_classification_views_are_row_selections(self, features, descriptors):
        rows = features.classification_rows
        samples = descriptors.manifest.samples
        assert np.array_equal(features.y, descriptors.y[rows])
        assert np.array_equal(features.medians, descriptors.medians[rows])
        assert np.array_equal(rows, np.flatnonzero(fold_plan(features) >= 0))
        assert sorted(rows.tolist() + features.reference_rows.tolist()) == list(
            range(len(samples))
        )

    def test_matrix_shapes_per_modality(self, features):
        n = len(features.y)
        assert features.matrix("dp").shape == (n, CONFIG.k_dp)
        assert features.matrix("rci").shape == (n, CONFIG.k_rci)
        assert features.matrix("fused").shape == (n, CONFIG.k_dp + CONFIG.k_rci)

    def test_fused_matrix_stacks_the_single_modalities(self, features):
        stacked = np.hstack([features.matrix("dp"), features.matrix("rci")])
        assert np.allclose(features.matrix("fused"), stacked)

    def test_fused_rows_are_bovw_fusion(self, features, descriptors):
        blocks = []
        for route, k in (("dp", CONFIG.k_dp), ("rci", CONFIG.k_rci)):
            pool = descriptors.pool(route, features.reference_rows)
            dictionary = bovw.kmeans(pool, k, 0, modality=route)
            table = descriptors.routes[route]
            counts = np.array([
                bovw.encode_descriptors(table[i], dictionary)
                for i in features.classification_rows
            ])
            blocks.append(counts / np.maximum(counts.sum(axis=1, keepdims=True), 1))
            assert np.array_equal(features.histograms[route], blocks[-1])
        assert np.array_equal(features.matrix("fused"), np.hstack(blocks))

    def test_unknown_modality_rejected(self, features):
        with pytest.raises(ValueError):
            features.matrix("stereo")

    def test_no_matrix_without_dictionaries(self, descriptors):
        bare = experiments.partition_features(descriptors, seed=0, build_dictionaries=False)
        with pytest.raises(ValueError):
            bare.matrix("fused")

    def test_partition_seed_changes_the_split(self, descriptors, features):
        other = experiments.partition_features(descriptors, seed=1)
        assert not np.array_equal(other.reference_rows, features.reference_rows)


class TestFoldIndices:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_a_plan_drawn_before_any_cube_is_the_split_the_run_reads(
        self, cohort, descriptors, monkeypatch, seed
    ):
        with monkeypatch.context() as m:
            for name in ("load_cube", "load_image"):
                m.setattr(dataio, name, lambda *args: pytest.fail("a data file was read"))
            plan = experiments.RunPlan.draw(cohort, "nc-c", CONFIG, seed, experiments.IMAGE_ROUTES)
            folds = plan.folds
        features = experiments.partition_features(descriptors, seed)
        assert np.array_equal(np.flatnonzero(plan.reference), features.reference_rows)
        run_folds = experiments.plan_fold_indices(features)
        assert len(folds) == len(run_folds) == CONFIG.folds
        for pair, run_pair in zip(folds, run_folds):
            assert all(np.array_equal(a, b) for a, b in zip(pair, run_pair))

    def test_fold_indices_partition_the_rows(self, features):
        folds = experiments.plan_fold_indices(features)
        assert len(folds) == CONFIG.folds
        n = len(features.y)
        seen = np.zeros(n, dtype=int)
        for train, test in folds:
            assert len(np.intersect1d(train, test)) == 0
            assert len(train) + len(test) == n
            seen[test] += 1
        assert np.all(seen == 1)

    def test_test_rows_are_the_rows_of_the_planned_folds(self, features):
        rows = features.classification_rows
        folds = experiments.plan_fold_indices(features)
        fold = fold_plan(features)
        assert len(folds) == fold.max() + 1
        for f, (_, test) in enumerate(folds):
            assert patients(features, rows[test]) == patients(features, np.flatnonzero(fold == f))

    def test_fold_count_is_read_only_where_folds_are_dealt(self, descriptors, features):
        three = replace(descriptors, config=replace(CONFIG, folds=3))
        features3 = experiments.partition_features(three, seed=0)
        assert np.array_equal(features3.reference_rows, features.reference_rows)
        assert np.array_equal(features3.matrix("fused"), features.matrix("fused"))
        assert len(experiments.plan_fold_indices(features3)) == 3


class TestRoutes:
    def test_bovw_cv_report_shape(self, descriptors, monkeypatch):
        # The four cross-validations of one CohortFeatures, as the bench's
        # cv_all job runs them, deal its folds once.
        calls = []
        real_plan_folds = evaluation.plan_folds

        def plan_folds(*args, **kwargs):
            calls.append(args)
            return real_plan_folds(*args, **kwargs)

        monkeypatch.setattr(evaluation, "plan_folds", plan_folds)
        features = experiments.partition_features(descriptors, seed=0)
        reports = [experiments.run_bovw_cv(features, route) for route in ("dp", "rci", "fused")]
        reports.append(experiments.run_pls_cv(features, spectral.parse_pretreatment("snv"), 3))
        for report in reports:
            assert len(report.fold_aucs) == CONFIG.folds
            assert all(0.0 <= a <= 1.0 for a in report.fold_aucs)
            assert 0.0 <= report.pooled_auc <= 1.0
        assert len(calls) == 1

    def test_svm_route_model_emits_labels_and_probabilities(self, features):
        rows = np.arange(len(features.y))
        model = experiments.RouteModel.fit(
            features, "dp", rows, svm.SvmConfig(C=1.0, kernel="linear")
        )
        labels, probs = model.scores(features, rows)
        assert set(np.unique(labels)) <= {0, 1}
        assert len(labels) == len(probs) == len(features.y)
        assert np.all((probs >= 0.0) & (probs <= 1.0))

    def test_pls_route_model_caps_the_component_count(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(6, 9))
        y = np.array([0, 1, 0, 1, 0, 1])
        features = spectra_features(X, y)
        rows = np.arange(6)
        model = experiments.RouteModel.fit(
            features, "median-spectrum", rows, (spectral.parse_pretreatment("snv"), 50)
        )
        assert model.classifier.n_lv <= 5
        labels, scores = model.scores(features, rows)
        assert set(np.unique(labels)) <= {0, 1}

    def test_pls_cv_runs_with_reference_rows(self, features):
        report = experiments.run_pls_cv(
            features, spectral.parse_pretreatment("snv"), 3
        )
        assert len(report.fold_aucs) == CONFIG.folds

    def test_pls_cv_trains_on_every_reference_median_and_tests_none(
        self, features, monkeypatch
    ):
        seen = {"fit": [], "score": []}
        real_fit, real_apply = spectral.fit_pretreatment, spectral.FittedPretreatment.apply

        def fit(spec, X):
            seen["fit"].append(X)
            return real_fit(spec, X)

        def apply(self, X):
            seen["score"].append(X)
            return real_apply(self, X)

        monkeypatch.setattr(spectral, "fit_pretreatment", fit)
        monkeypatch.setattr(spectral.FittedPretreatment, "apply", apply)
        experiments.run_pls_cv(features, spectral.parse_pretreatment("snv"), 3)
        reference = features.descriptors.medians[features.reference_rows]
        assert len(reference)
        folds = experiments.plan_fold_indices(features)
        assert len(seen["fit"]) == len(seen["score"]) == len(folds)
        for X_train, X_test, (train, test) in zip(seen["fit"], seen["score"], folds):
            assert np.array_equal(X_train[-len(reference):], reference)
            assert np.array_equal(X_train[:-len(reference)], features.medians[train])
            assert np.array_equal(X_test, features.medians[test])
            assert not any((reference == row).all(axis=1).any() for row in X_test)


class TestGridFeatureSets:
    def test_keys_shapes_and_determinism(self, features):
        sets = experiments.grid_feature_sets(features, [4, 8], [2, 3], seed=0)
        assert set(sets) == {(4, 2), (4, 3), (8, 2), (8, 3)}
        n = len(features.y)
        for (k_dp, k_rci), matrix in sets.items():
            assert matrix.shape == (n, k_dp + k_rci)
        again = experiments.grid_feature_sets(features, [4, 8], [2, 3], seed=0)
        for key in sets:
            assert np.array_equal(sets[key], again[key])

    def test_configured_sizes_reproduce_the_fused_matrix(self, features):
        sets = experiments.grid_feature_sets(
            features, [CONFIG.k_dp, 4], [CONFIG.k_rci], seed=0
        )
        assert list(sets) == [(4, CONFIG.k_rci), (CONFIG.k_dp, CONFIG.k_rci)]
        assert np.array_equal(sets[(CONFIG.k_dp, CONFIG.k_rci)], features.matrix("fused"))


class TestFusionBenchmark:
    def test_single_seed_benchmark_shape(self):
        out = experiments.fusion_benchmark(
            0.8, 0.8, [7], synth_overrides=COHORT, config=CONFIG
        )
        assert set(out) == {"dp", "rci", "fused"}
        for values in out.values():
            assert len(values) == 1
            assert 0.0 <= values[0] <= 1.0
