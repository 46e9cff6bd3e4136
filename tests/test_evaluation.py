"""Fold planning, metric, ROC, and t-test checks, including scipy-backed
oracles for the incomplete-beta machinery."""
import math
import warnings

import numpy as np
import pytest
import scipy.special
import scipy.stats

from ramanfuse import evaluation as ev
from ramanfuse.dataio import CohortManifest, Label, SampleRecord
from ramanfuse.errors import NumericalError, SingleClass, TooFewPatients, ZeroVariance


def make_manifest(counts: dict) -> CohortManifest:
    records = []
    for pid, n in counts.items():
        for i in range(n):
            sid = f"{pid}-s{i}"
            records.append(
                SampleRecord(
                    patient_id=pid,
                    sample_id=sid,
                    label=Label.NORMAL if i % 2 == 0 else Label.G4,
                    dp_path=f"{sid}.pgm",
                    rci_path=f"{sid}.cube",
                )
            )
    return CohortManifest(samples=tuple(records), seed=0)


def patient_folds(samples, fold) -> dict:
    """Patient id -> the one fold label plan_folds gave all of its rows."""
    labels = {}
    for record, f in zip(samples, fold.tolist(), strict=True):
        assert labels.setdefault(record.patient_id, f) == f, "a patient is split"
    return labels


class TestFoldPlan:
    def test_five_patients_one_per_fold(self):
        fold = ev.plan_folds(make_manifest({f"p{i}": 1 for i in range(5)}).samples, k=5, seed=0)
        assert sorted(np.bincount(fold, minlength=5)) == [1, 1, 1, 1, 1]
        assert not (fold == -1).any()

    @pytest.mark.parametrize("reference_fraction", [0.0, 0.3, 0.6])
    @pytest.mark.parametrize("k", [2, 5])
    def test_partition_invariants(self, k, reference_fraction):
        """Every row is labelled with the reference pool (-1) or one of the
        k folds, each fold is used, and no patient is split between labels
        (no command checks this at run time)."""
        rng = np.random.default_rng(0)
        for seed in range(10):
            counts = {f"p{i}": int(rng.integers(1, 9)) for i in range(30)}
            manifest = make_manifest(counts)
            fold = ev.plan_folds(manifest.samples, k=k, reference_fraction=reference_fraction,
                                 seed=seed)
            assert fold.shape == (len(manifest.samples),)
            assert set(fold.tolist()) <= set(range(-1, k))
            assert all((fold == f).any() for f in range(k))
            assert set(patient_folds(manifest.samples, fold)) == set(counts)

    def test_too_few_patients(self):
        with pytest.raises(TooFewPatients):
            ev.plan_folds(make_manifest({f"p{i}": 2 for i in range(4)}).samples, k=5, seed=0)
        with pytest.raises(TooFewPatients):
            ev.plan_folds(
                make_manifest({f"p{i}": 2 for i in range(6)}).samples,
                k=5, reference_fraction=0.5, seed=0,
            )

    def test_reference_pool_hits_target_sizes(self):
        counts = {f"p{i}": 4 for i in range(44)}
        counts["p44"] = 3  # 179 samples in total
        manifest = make_manifest(counts)
        found = False
        for seed in range(300):
            fold = ev.plan_folds(manifest.samples, k=5, reference_fraction=52 / 179, seed=seed)
            if (fold == -1).sum() == 52:
                found = True
                assert (fold >= 0).sum() == 127
                break
        assert found

    def test_fold_balance(self):
        rng = np.random.default_rng(1)
        counts = {f"p{i}": int(rng.integers(1, 9)) for i in range(24)}
        fold = ev.plan_folds(make_manifest(counts).samples, k=5, seed=3)
        loads = np.bincount(fold, minlength=5)
        assert max(loads) - min(loads) <= max(counts.values())

    @pytest.mark.parametrize("seed", range(5))
    def test_plan_deals_its_folds_from_what_the_reference_pool_leaves(self, seed):
        rng = np.random.default_rng(seed)
        manifest = make_manifest({f"p{i}": int(rng.integers(1, 9)) for i in range(20)})
        reference = ev.reference_pool(manifest.samples, 0.3, seed)
        fold = ev.plan_folds(manifest.samples, k=4, reference_fraction=0.3, seed=seed)
        assert reference.dtype == bool and reference.any()
        assert np.array_equal(fold == -1, reference)

    def test_reference_pool_needs_no_fold_count(self):
        manifest = make_manifest({f"p{i}": 2 for i in range(6)})
        reference = ev.reference_pool(manifest.samples, 0.5, 0)
        pool = {r.patient_id for r, ref in zip(manifest.samples, reference) if ref}
        assert len(pool) == 3 and reference.sum() == 6
        with pytest.raises(TooFewPatients, match="3 patients left for 5 folds"):
            ev.plan_folds(manifest.samples, k=5, reference_fraction=0.5, seed=0)

    def test_deterministic(self):
        manifest = make_manifest({f"p{i}": 3 for i in range(15)})
        a = ev.plan_folds(manifest.samples, k=5, reference_fraction=0.2, seed=9)
        b = ev.plan_folds(manifest.samples, k=5, reference_fraction=0.2, seed=9)
        assert np.array_equal(a, b)

    def test_fold_pairs_index_the_dealt_rows(self):
        pairs = ev.fold_pairs(np.array([1, -1, 0, 1, -1, 0, 2]))
        assert [(train.tolist(), test.tolist()) for train, test in pairs] == [
            ([0, 2, 4], [1, 3]), ([1, 3, 4], [0, 2]), ([0, 1, 2, 3], [4]),
        ]


class TestConfusion:
    def test_first_task_table(self):
        labels = ["nc"] * 58 + ["c"] * 69
        preds = ["nc"] * 32 + ["c"] * 26 + ["nc"] * 27 + ["c"] * 42
        c = ev.confusion(labels, preds, positive_class="c")
        assert (c.tp, c.fp, c.tn, c.fn) == (42, 26, 32, 27)
        assert c.accuracy == 74 / 127
        assert round(c.accuracy * 10000) / 100 == 58.27

    def test_grade_task_table(self):
        labels = ["g3"] * 39 + ["g4"] * 30
        preds = ["g3"] * 19 + ["g4"] * 20 + ["g3"] * 20 + ["g4"] * 10
        c = ev.confusion(labels, preds, positive_class="g4")
        assert (c.tp, c.fp, c.tn, c.fn) == (10, 20, 19, 20)
        assert c.accuracy == 29 / 69
        assert c.sensitivity == pytest.approx(10 / 30, abs=1e-12)
        assert c.specificity == pytest.approx(19 / 39, abs=1e-12)
        assert round(c.accuracy * 10000) / 100 == 42.03
        assert round(c.sensitivity * 10000) / 10000 == 0.3333
        assert round(c.specificity * 10000) / 10000 == 0.4872

    def test_all_correct(self):
        labels = [0, 1, 1, 0, 1]
        c = ev.confusion(labels, labels, positive_class=1)
        assert c.fp == 0 and c.fn == 0
        assert c.accuracy == 1.0

    def test_sensitivity_specificity_swap(self):
        rng = np.random.default_rng(2)
        labels = rng.choice(["a", "b"], 50)
        preds = rng.choice(["a", "b"], 50)
        labels[:2] = ["a", "b"]  # both classes guaranteed
        as_a = ev.confusion(labels, preds, positive_class="a")
        as_b = ev.confusion(labels, preds, positive_class="b")
        assert as_a.sensitivity == as_b.specificity
        assert as_a.specificity == as_b.sensitivity


def auc_pair_oracle(scores, labels, positive=1):
    scores = np.asarray(scores, dtype=float)
    pos = scores[np.asarray(labels) == positive]
    neg = scores[np.asarray(labels) != positive]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


class TestRocAuc:
    def test_perfect_ranking(self):
        _, auc = ev.roc_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1])
        assert auc == 1.0

    def test_all_tied_scores(self):
        _, auc = ev.roc_auc([0.5] * 10, [0, 1] * 5)
        assert auc == 0.5

    def test_matches_pair_count_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(5, 40))
            labels = rng.integers(0, 2, n)
            if len(np.unique(labels)) < 2:
                labels[0] = 1 - labels[0]
            scores = np.round(rng.normal(size=n), 1)  # coarse grid forces ties
            _, auc = ev.roc_auc(scores, labels)
            assert auc == pytest.approx(auc_pair_oracle(scores, labels), abs=1e-12)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(4)
        scores = rng.normal(size=30)
        labels = rng.integers(0, 2, 30)
        labels[:2] = [0, 1]
        _, auc = ev.roc_auc(scores, labels)
        _, auc2 = ev.roc_auc(np.exp(scores), labels)
        assert auc2 == pytest.approx(auc, abs=1e-15)

    def test_curve_shape(self):
        rng = np.random.default_rng(5)
        scores = rng.normal(size=25)
        labels = rng.integers(0, 2, 25)
        labels[:2] = [0, 1]
        points, _ = ev.roc_auc(scores, labels)
        assert points[0] == (0.0, 0.0)
        assert points[-1] == (1.0, 1.0)
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        assert all(b >= a for a, b in zip(xs, xs[1:]))
        assert all(b >= a for a, b in zip(ys, ys[1:]))

    def test_single_class_rejected(self):
        with pytest.raises(SingleClass):
            ev.roc_auc([0.1, 0.2], [1, 1])


def grouped_dataset(n_patients=10, per_patient=2):
    ids = []
    y = []
    for i in range(n_patients):
        for j in range(per_patient):
            ids.append(f"p{i}")
            y.append(j % 2)
    X = np.arange(len(y), dtype=float)[:, None]
    return X, np.array(y), np.array(ids)


def folds_for(ids):
    """(train, test) index pairs of a seeded 5-fold patient plan over ids."""
    manifest = make_manifest(
        {pid: int((np.asarray(ids) == pid).sum()) for pid in dict.fromkeys(ids)}
    )
    assert [r.patient_id for r in manifest.samples] == list(ids)
    return ev.fold_pairs(ev.plan_folds(manifest.samples, k=5, seed=0))


class TestCrossValidate:
    def test_leaked_memorizer_scores_perfectly(self):
        X, y, ids = grouped_dataset()
        lookup = {float(row[0]): label for row, label in zip(X, y)}
        report = ev.cross_validate(
            y, folds_for(ids),
            fit_fn=lambda train: None,
            score_fn=lambda _, test: (
                np.array([lookup[float(r[0])] for r in X[test]]),
                np.array([float(lookup[float(r[0])]) for r in X[test]]),
            ),
        )
        assert report.fold_accuracies == (1.0,) * 5
        assert report.pooled_confusion.accuracy == 1.0

    def test_constant_classifier_matches_majority_share(self):
        _, y, ids = grouped_dataset()
        report = ev.cross_validate(
            y, folds_for(ids),
            fit_fn=lambda train: None,
            score_fn=lambda _, test: (np.ones(len(test), dtype=int), np.full(len(test), 0.5)),
        )
        assert report.pooled_confusion.accuracy == float(np.mean(y == 1))
        assert report.pooled_auc == 0.5

    def test_pooled_equals_fold_sum(self):
        rng = np.random.default_rng(6)
        _, y, ids = grouped_dataset()
        report = ev.cross_validate(
            y, folds_for(ids),
            fit_fn=lambda train: None,
            score_fn=lambda _, test: (
                rng.integers(0, 2, len(test)),
                rng.normal(size=len(test)),
            ),
        )
        total = sum(
            (c.tp, c.fp, c.tn, c.fn) == (0, 0, 0, 0) for c in report.fold_confusions
        )
        assert total == 0
        pooled = report.pooled_confusion
        assert pooled.tp == sum(c.tp for c in report.fold_confusions)
        assert pooled.fp == sum(c.fp for c in report.fold_confusions)
        assert pooled.tn == sum(c.tn for c in report.fold_confusions)
        assert pooled.fn == sum(c.fn for c in report.fold_confusions)
        assert pooled.total == len(y)


class TestStudentT:
    def test_incomplete_beta_against_scipy(self):
        for a in (0.5, 1.0, 2.5, 7.0):
            for b in (0.5, 1.5, 4.0):
                for x in np.linspace(0.001, 0.999, 23):
                    mine = ev.regularized_incomplete_beta(a, b, float(x))
                    ref = scipy.special.betainc(a, b, float(x))
                    assert mine == pytest.approx(ref, abs=1e-10)

    def test_cdf_against_scipy(self):
        for df in (1, 2, 4, 10, 30):
            for t in np.linspace(-6, 6, 25):
                assert ev.student_t_cdf(float(t), df) == pytest.approx(
                    scipy.stats.t.cdf(t, df), abs=1e-10
                )

    def test_quantile_against_scipy(self):
        assert ev.student_t_ppf(0.975, 4) == pytest.approx(
            scipy.stats.t.ppf(0.975, 4), abs=1e-8
        )
        assert ev.student_t_ppf(0.975, 4) == pytest.approx(2.776445, abs=1e-6)

    def test_published_significant_case(self):
        result = ev.ttest_from_summary(0.127, 0.059, 5)
        assert result.t == pytest.approx(0.127 / (0.059 / math.sqrt(5)), abs=1e-12)
        assert result.t == pytest.approx(4.813, abs=0.01)
        assert result.p == pytest.approx(0.009, abs=0.002)
        assert result.ci_low == pytest.approx(0.054, abs=0.001)
        assert result.ci_high == pytest.approx(0.201, abs=0.001)
        assert result.df == 4

    def test_published_insignificant_case(self):
        result = ev.ttest_from_summary(0.033, 0.064, 5)
        assert 0.29 <= result.p <= 0.33

    def test_identical_vectors_rejected(self):
        with pytest.raises(ZeroVariance):
            ev.paired_ttest([0.7, 0.8, 0.6], [0.7, 0.8, 0.6])

    def test_overflowing_differences_rejected_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError):
                ev.paired_ttest([1e308, 1e308, 5.0], [-1e308, -1e308, 4.0])

    def test_zero_mean_nonconstant_differences(self):
        result = ev.paired_ttest([0.5, 0.7, 0.5, 0.7], [0.7, 0.5, 0.7, 0.5])
        assert result.t == 0.0
        assert result.p == pytest.approx(1.0, abs=1e-12)

    def test_shift_invariance(self):
        a = np.array([0.81, 0.74, 0.69, 0.88, 0.77])
        b = np.array([0.72, 0.70, 0.66, 0.79, 0.71])
        base = ev.paired_ttest(a, b)
        shifted = ev.paired_ttest(a + 0.05, b + 0.05)
        assert shifted.t == pytest.approx(base.t, abs=1e-12)
        assert shifted.p == pytest.approx(base.p, abs=1e-12)


class TestReportOutput:
    def make_report(self):
        _, y, ids = grouped_dataset()
        rng = np.random.default_rng(7)
        return ev.cross_validate(
            y, folds_for(ids),
            fit_fn=lambda train: None,
            score_fn=lambda _, test: (
                rng.integers(0, 2, len(test)),
                rng.normal(size=len(test)),
            ),
        )

    def test_metrics_csv(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "metrics.csv"
        ev.write_metrics_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("fold,tp,fp,tn,fn,accuracy")
        assert len(lines) == 1 + len(report.fold_confusions) + 2
        assert lines[-2].startswith("pooled,")

    def test_roc_outputs(self, tmp_path):
        report = self.make_report()
        csv_path = tmp_path / "roc.csv"
        svg_path = tmp_path / "roc.svg"
        ev.write_roc_csv(report.pooled_roc, csv_path)
        ev.write_roc_svg(report.pooled_roc, report.pooled_auc, svg_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "fpr,tpr"
        assert len(lines) == len(report.pooled_roc) + 1
        svg = svg_path.read_text()
        assert svg.startswith("<svg") and "polyline" in svg
        assert f"AUC = {report.pooled_auc:.3f}" in svg
