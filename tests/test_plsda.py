"""PLS regression tests against least-squares oracles, plus the repeated
random-split selection protocol."""
import numpy as np
import pytest

from ramanfuse import dataio, plsda, spectral
from ramanfuse.seeds import rng_for
from ramanfuse.errors import (
    DimMismatch,
    InsufficientClassCoverage,
    RankDeficient,
    SingleClass,
)


def random_problem(seed, n=24, p=6):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    y = (X[:, 0] - 0.5 * X[:, 1] + 0.3 * rng.normal(size=n) > 0).astype(float)
    if len(np.unique(y)) < 2:
        y[0] = 1.0 - y[0]
    return X, y


class TestFit:
    def test_full_rank_matches_least_squares(self):
        X, y = random_problem(0)
        model = plsda.fit_pls(X, y, n_lv=X.shape[1])
        xc = X - X.mean(axis=0)
        beta_ls, *_ = np.linalg.lstsq(xc, y - y.mean(), rcond=None)
        assert np.allclose(model.beta, beta_ls, atol=1e-8)
        assert np.allclose(
            plsda.predict_score(model, X), xc @ beta_ls + y.mean(), atol=1e-8
        )

    def test_rank_deficient_matches_minimum_norm_solution(self):
        rng = np.random.default_rng(1)
        factors = rng.normal(size=(30, 2))
        mixing = rng.normal(size=(2, 5))
        X = factors @ mixing
        y = (factors[:, 0] > 0).astype(float)
        model = plsda.fit_pls(X, y, n_lv=2)
        xc = X - X.mean(axis=0)
        beta_ls, *_ = np.linalg.lstsq(xc, y - y.mean(), rcond=None)
        assert np.allclose(model.beta, beta_ls, atol=1e-8)

    def test_univariate_equals_simple_regression(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=20)
        y = (x + 0.2 * rng.normal(size=20) > 0).astype(float)
        if len(np.unique(y)) < 2:
            y[0] = 1.0 - y[0]
        model = plsda.fit_pls(x[:, None], y, n_lv=1)
        xc = x - x.mean()
        slope = (xc @ (y - y.mean())) / (xc @ xc)
        assert np.allclose(
            plsda.predict_score(model, x[:, None]),
            y.mean() + slope * xc,
            atol=1e-10,
        )

    def test_score_vectors_orthogonal(self):
        X, y = random_problem(3)
        model = plsda.fit_pls(X, y, n_lv=4)
        residual = X - model.x_mean
        scores = []
        for a in range(model.n_lv):
            t = residual @ model.weights[:, a]
            residual = residual - np.outer(t, model.loadings[:, a])
            scores.append(t)
        for i in range(len(scores)):
            for j in range(i + 1, len(scores)):
                assert abs(scores[i] @ scores[j]) <= 1e-8

    def test_beta_matches_recursion(self):
        X, y = random_problem(4)
        model = plsda.fit_pls(X, y, n_lv=3)
        residual = X - model.x_mean
        score = np.full(len(X), model.y_mean)
        for a in range(model.n_lv):
            t = residual @ model.weights[:, a]
            residual = residual - np.outer(t, model.loadings[:, a])
            score = score + model.q[a] * t
        assert np.allclose(plsda.predict_score(model, X), score, atol=1e-10)

    def test_sample_order_invariance(self):
        X, y = random_problem(5)
        order = np.random.default_rng(6).permutation(len(y))
        a = plsda.fit_pls(X, y, n_lv=3)
        b = plsda.fit_pls(X[order], y[order], n_lv=3)
        assert np.allclose(a.beta, b.beta, rtol=1e-10, atol=1e-12)
        assert a.y_mean == pytest.approx(b.y_mean, abs=1e-12)

    def test_training_residual_non_increasing_in_lv(self):
        X, y = random_problem(7, n=20, p=8)
        xc = X - X.mean(axis=0)
        yc = y - y.mean()
        rss = []
        for n_lv in range(1, 7):
            model = plsda.fit_pls(X, y, n_lv=n_lv)
            resid = yc - xc @ model.beta
            rss.append(float(resid @ resid))
        assert all(b <= a + 1e-10 for a, b in zip(rss, rss[1:]))

    def test_rank_deficiency_raises(self):
        rng = np.random.default_rng(8)
        column = rng.normal(size=12)
        X = np.column_stack([column, column])
        y = (column > 0).astype(float)
        with pytest.raises(RankDeficient):
            plsda.fit_pls(X, y, n_lv=2)

    def test_input_validation(self):
        X, y = random_problem(9)
        with pytest.raises(ValueError):
            plsda.fit_pls(X, y, n_lv=0)
        with pytest.raises(ValueError):
            plsda.fit_pls(X, y, n_lv=X.shape[1] + 1)
        with pytest.raises(SingleClass):
            plsda.fit_pls(X, np.zeros(len(X)), n_lv=1)


class TestPredict:
    def test_mean_input_returns_mean_response(self):
        X, y = random_problem(10)
        model = plsda.fit_pls(X, y, n_lv=2)
        assert plsda.predict_score(model, model.x_mean) == pytest.approx(
            model.y_mean, abs=1e-12
        )

    def test_midpoint_score_is_positive(self):
        model = plsda.PlsModel(
            n_lv=1,
            x_mean=np.zeros(2),
            y_mean=0.5,
            weights=np.zeros((2, 1)),
            loadings=np.zeros((2, 1)),
            q=np.zeros(1),
            beta=np.zeros(2),
        )
        label, score = plsda.predict_class(model, np.zeros(2))
        assert score == 0.5
        assert label == 1

    def test_perfect_fit_recovers_training_labels(self):
        rng = np.random.default_rng(11)
        y = rng.integers(0, 2, 30).astype(float)
        if len(np.unique(y)) < 2:
            y[0] = 1.0 - y[0]
        X = np.column_stack([2.0 * y - 1.0, rng.normal(size=(30, 3))])
        model = plsda.fit_pls(X, y, n_lv=4)
        labels, _ = plsda.predict_class(model, X)
        assert np.array_equal(labels, y.astype(int))

    def test_dim_mismatch(self):
        X, y = random_problem(12)
        model = plsda.fit_pls(X, y, n_lv=2)
        with pytest.raises(DimMismatch):
            plsda.predict_score(model, np.zeros(X.shape[1] + 1))

    def test_save_load_round_trip(self, tmp_path):
        X, y = random_problem(13)
        model = plsda.fit_pls(
            X, y, n_lv=3, pretreatment=spectral.parse_pretreatment("snv+sg:15:3:1")
        )
        path = tmp_path / "pls.json"
        dataio.save_model(model, path)
        loaded = dataio.load_model(path)
        assert loaded.n_lv == model.n_lv
        assert np.array_equal(loaded.beta, model.beta)
        assert np.array_equal(loaded.weights, model.weights)
        assert loaded.pretreatment == model.pretreatment
        assert np.array_equal(
            plsda.predict_score(loaded, X), plsda.predict_score(model, X)
        )


def baseline_peak_spectra(seed, n=40, p=401):
    """Classes differ by a narrow peak; a steep random baseline hides it
    unless a derivative pretreatment strips the baseline away."""
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 1.0, p)
    y = np.array([0.0, 1.0] * (n // 2))
    X = np.empty((n, p))
    for i in range(n):
        slope, offset = rng.normal(0, 40.0), rng.normal(100.0, 15.0)
        peak = (3.0 if y[i] == 1 else 1.0) * np.exp(-0.5 * ((grid - 0.5) / 0.01) ** 2)
        X[i] = offset + slope * grid + peak + rng.normal(0, 0.05, p)
    return X, y


def per_split_cells(shared, repeat):
    """Selection cells with every chain fitted and applied on each split
    from scratch: the chain runs on the training rows twice and on the test
    rows once, per split."""
    X, y, menu, lv_values, seed, train_count = shared
    rng = rng_for(seed, "pls-select", repeat)
    train, test = plsda._split_indices(rng, y, train_count)
    lv_max = max(lv_values)
    cells = np.empty((len(menu), len(lv_values), 4))
    for m_idx, spec in enumerate(menu):
        fitted, _ = spectral.fit_pretreatment(spec, X[train])
        tr = fitted.apply(X[train])
        te = fitted.apply(X[test])
        x_mean = tr.mean(axis=0)
        y_mean = float(y[train].mean())
        cap = min(lv_max, len(train) - 1, tr.shape[1])
        weights, loadings, q = plsda._nipals_path(
            tr - x_mean, y[train] - y_mean, cap, strict=False
        )
        residual = te - x_mean
        score = np.full(len(test), y_mean)
        by_depth = {0: score.copy()}
        for a in range(weights.shape[1]):
            t = residual @ weights[:, a]
            residual = residual - np.outer(t, loadings[:, a])
            score = score + q[a] * t
            by_depth[a + 1] = score.copy()
        truth = y[test]
        pos = truth == 1
        neg = ~pos
        for l_idx, n_lv in enumerate(lv_values):
            depth = min(n_lv, weights.shape[1])
            s = by_depth[depth]
            pred = s >= 0.5
            sens = float((pred & pos).sum() / pos.sum())
            spec_ = float((~pred & neg).sum() / neg.sum())
            acc = float((pred == pos).mean())
            cells[m_idx, l_idx] = (sens * spec_, acc, sens, spec_)
    return cells


def per_split_rows(X, y, menu, lv_values, n_repeats, seed, split=0.7):
    train_count = int(np.floor(split * len(y) + 0.5))
    shared = (X, y, menu, lv_values, seed, train_count)
    means = np.mean([per_split_cells(shared, r) for r in range(n_repeats)], axis=0)
    return tuple(
        (str(spec), n_lv, *(float(v) for v in means[m_idx, l_idx]))
        for m_idx, spec in enumerate(menu)
        for l_idx, n_lv in enumerate(lv_values)
    )


class TestSelection:
    def test_rows_equal_per_split_pretreatment(self):
        X, y = baseline_peak_spectra(21, n=40, p=512)
        menu = spectral.standard_menu()
        assert {"msc", "fluor+msc"} <= {str(m) for m in menu}
        result = plsda.select_pls_model(X, y, menu=menu, n_repeats=5, seed=4)
        expect = per_split_rows(X, y, menu, plsda.DEFAULT_LV_RANGE, 5, 4)
        assert len(result.rows) == 14 * len(plsda.DEFAULT_LV_RANGE)
        assert result.rows == expect

    def test_single_cell_menu_returns_it(self):
        X, y = random_problem(14, n=30)
        menu = [spectral.parse_pretreatment("none")]
        result = plsda.select_pls_model(
            X, y, menu=menu, lv_values=(1,), n_repeats=10, seed=1
        )
        assert result.pretreatment == menu[0]
        assert result.n_lv == 1
        assert len(result.rows) == 1
        assert 0.0 <= result.mean_product <= 1.0

    def test_derivative_pretreatment_wins_when_baseline_dominates(self):
        X, y = baseline_peak_spectra(15)
        menu = [
            spectral.parse_pretreatment("none"),
            spectral.parse_pretreatment("sg:15:3:2"),
        ]
        result = plsda.select_pls_model(
            X, y, menu=menu, lv_values=(1, 2, 3), n_repeats=20, seed=3
        )
        assert result.pretreatment == menu[1]
        assert result.mean_product > 0.8
        assert len(result.rows) == 6

    def test_deterministic_given_seed(self):
        X, y = random_problem(16, n=30)
        menu = [spectral.parse_pretreatment("snv")]
        kwargs = dict(menu=menu, lv_values=(1, 2), n_repeats=8, seed=7)
        assert (
            plsda.select_pls_model(X, y, **kwargs).rows
            == plsda.select_pls_model(X, y, **kwargs).rows
        )

    def test_parallel_matches_serial(self):
        X, y = random_problem(17, n=30)
        menu = [spectral.parse_pretreatment("none")]
        kwargs = dict(menu=menu, lv_values=(1, 2), n_repeats=8, seed=5)
        serial = plsda.select_pls_model(X, y, **kwargs)
        parallel = plsda.select_pls_model(X, y, jobs=2, **kwargs)
        assert serial.rows == parallel.rows

    def test_lonely_class_rejected(self):
        rng = np.random.default_rng(18)
        X = rng.normal(size=(10, 3))
        y = np.array([1.0] + [0.0] * 9)
        with pytest.raises(InsufficientClassCoverage):
            plsda.select_pls_model(
                X, y, menu=[spectral.parse_pretreatment("none")],
                lv_values=(1,), n_repeats=3, seed=0,
            )

    def test_empty_menu_rejected(self):
        X, y = random_problem(20, n=30)
        with pytest.raises(ValueError, match="menu is empty"):
            plsda.select_pls_model(X, y, menu=[], lv_values=(1,), n_repeats=3, seed=0)

    def test_report_csv(self, tmp_path):
        X, y = random_problem(19, n=30)
        menu = [spectral.parse_pretreatment("none"), spectral.parse_pretreatment("snv")]
        result = plsda.select_pls_model(
            X, y, menu=menu, lv_values=(1, 2), n_repeats=5, seed=2
        )
        path = tmp_path / "selection.csv"
        plsda.write_selection_report(result, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == (
            "pretreatment,n_lv,mean_product,mean_accuracy,"
            "mean_sensitivity,mean_specificity"
        )
        assert len(lines) == len(result.rows) + 1

    def test_task_operating_points_come_from_menu(self):
        menu = spectral.standard_menu()
        assert spectral.parse_pretreatment(plsda.NCC_PRETREATMENT) in menu
        assert spectral.parse_pretreatment(plsda.G3G4_PRETREATMENT) in menu
        assert plsda.NCC_N_LV in plsda.DEFAULT_LV_RANGE
        assert plsda.G3G4_N_LV in plsda.DEFAULT_LV_RANGE
