"""Pipeline wiring checks: per-sample preparation, task framing, the
two-stage feature construction, and the cross-validated classification
routes, all on one small synthetic cohort."""
from dataclasses import replace

import numpy as np
import pytest

from ramanfuse import bovw, dataio, experiments, spectral, svm, synth

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
        dp, rci = descriptors.dp_descriptors[0], descriptors.rci_descriptors[0]
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
            raise AssertionError("image work with include_images=False")

        for module, name in ((dataio, "load_image"), (experiments.imaging, "resize_cubic"),
                             (experiments.imaging, "histogram_equalize")):
            monkeypatch.setattr(module, name, forbidden)
        light = experiments.prepare_sample(cohort.samples[0], CONFIG, include_images=False)
        assert light.dp is None and light.rci is None
        assert np.array_equal(light.mask, full.mask)
        assert np.array_equal(light.median.intensities, full.median.intensities)


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
        assert len(descriptors.dp_descriptors) == n
        assert len(descriptors.rci_descriptors) == n
        assert descriptors.medians.shape == (n, COHORT["n_bands"])

    def test_medians_identical_without_image_routes(self, descriptors, cohort):
        light = experiments.extract_cohort(
            cohort, "nc-c", CONFIG, include_images=False
        )
        assert np.array_equal(light.medians, descriptors.medians)
        assert all(d.shape == (0, 128) for d in light.dp_descriptors)
        assert all(d.shape == (0, 128) for d in light.rci_descriptors)

    def test_partition_is_complete_and_leak_free(self, features, descriptors):
        n_cls = len(features.y)
        n_ref = len(features.reference_rows)
        assert n_cls + n_ref == len(descriptors.y)
        reference = set(features.plan.reference_patients)
        assert reference
        assert not reference.intersection(features.patient_ids)
        for fold in features.plan.folds:
            assert not reference.intersection(fold)

    def test_reference_pools_match_reference_rows(self, features, descriptors):
        reference = set(features.plan.reference_patients)
        ref_rows = [
            i
            for i, r in enumerate(descriptors.manifest.samples)
            if r.patient_id in reference
        ]
        assert list(features.reference_rows) == ref_rows
        want_dp = sum(len(descriptors.dp_descriptors[i]) for i in ref_rows)
        assert len(descriptors.pool("dp", features.reference_rows)) == want_dp

    def test_classification_views_are_row_selections(self, features, descriptors):
        rows = features.classification_rows
        samples = descriptors.manifest.samples
        assert np.array_equal(features.y, descriptors.y[rows])
        assert np.array_equal(features.medians, descriptors.medians[rows])
        assert features.patient_ids == tuple(samples[i].patient_id for i in rows)
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

    def test_fused_rows_are_bovw_fusion(self, features):
        dp, rci = features.histograms["dp"], features.histograms["rci"]
        want = [bovw.fuse(a, b, CONFIG.normalize) for a, b in zip(dp, rci)]
        assert np.array_equal(features.matrix("fused"), np.array(want))

    def test_unknown_modality_rejected(self, features):
        with pytest.raises(ValueError):
            features.matrix("stereo")

    def test_no_matrix_without_dictionaries(self, descriptors):
        bare = experiments.partition_features(descriptors, seed=0, build_dictionaries=False)
        with pytest.raises(ValueError):
            bare.matrix("fused")

    def test_one_step_builder_equals_two_stages(self, cohort, features):
        combined = experiments.build_cohort_features(cohort, "nc-c", CONFIG, seed=0)
        assert combined.plan == features.plan
        assert np.array_equal(combined.matrix("fused"), features.matrix("fused"))

    def test_partition_seed_changes_the_split(self, descriptors, features):
        other = experiments.partition_features(descriptors, seed=1)
        assert other.plan != features.plan


class TestFoldIndices:
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


class TestRoutes:
    def test_bovw_cv_report_shape(self, features):
        report = experiments.run_bovw_cv(features, "fused")
        assert len(report.fold_aucs) == CONFIG.folds
        assert all(0.0 <= a <= 1.0 for a in report.fold_aucs)
        assert 0.0 <= report.pooled_auc <= 1.0

    def test_svm_fold_functions_emit_labels_and_probabilities(self, features):
        fit, score = experiments.svm_fold_functions(
            svm.SvmConfig(C=1.0, kernel="linear")
        )
        X = features.matrix("dp")
        model = fit(X, features.y)
        labels, probs = score(model, X)
        assert set(np.unique(labels)) <= {0, 1}
        assert len(labels) == len(probs) == len(features.y)
        assert np.all((probs >= 0.0) & (probs <= 1.0))

    def test_pls_fold_functions_cap_the_component_count(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(6, 9))
        y = np.array([0, 1, 0, 1, 0, 1])
        fit, score = experiments.pls_fold_functions(
            spectral.parse_pretreatment("snv"), 50
        )
        fitted, model = fit(X, y)
        assert model.n_lv <= 5
        labels, scores = score((fitted, model), X)
        assert set(np.unique(labels)) <= {0, 1}

    def test_pls_cv_runs_with_reference_rows(self, features):
        report = experiments.run_pls_cv(
            features, spectral.parse_pretreatment("snv"), 3
        )
        assert len(report.fold_aucs) == CONFIG.folds

    def test_pls_cv_reference_toggle_is_a_noop_without_reference(self, features):
        assert len(features.reference_rows)
        bare = replace(features, plan=replace(features.plan, reference_patients=()))
        assert not len(bare.reference_rows)
        pre = spectral.parse_pretreatment("snv")
        with_flag = experiments.run_pls_cv(bare, pre, 3, include_reference=True)
        without = experiments.run_pls_cv(bare, pre, 3, include_reference=False)
        assert with_flag.fold_aucs == without.fold_aucs


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
