"""Release acceptance suite: one test per shipping criterion.

Each test prints its PASS/FAIL verdict with capture suspended so a plain
``pytest -v`` run leaves one visible line per criterion, then asserts so
the suite fails loudly when a criterion does.
"""
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from ramanfuse import bovw, cli, dataio, evaluation, experiments, imaging
from ramanfuse import plsda, sift, spectral, svm, synth
from ramanfuse.dataio import GreyImage

from test_svm import dual_objective

_CAPTURE = None


@pytest.fixture(autouse=True)
def _verdict_channel(capfd):
    """Expose the capture fixture so _verdict can print through it."""
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _verdict(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    line = f"\nacceptance {criterion:2d} {status}: {detail}"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert passed, f"acceptance criterion {criterion} failed: {detail}"


# --- 1: paired t-test pinned values -------------------------------------------------


def test_01_ttest_from_summary_pinned_values():
    t0 = time.perf_counter()
    strong = evaluation.ttest_from_summary(0.127, 0.059, 5)
    weak = evaluation.ttest_from_summary(0.033, 0.064, 5)
    elapsed = time.perf_counter() - t0
    checks = [
        abs(strong.t - 4.81) <= 0.01,
        abs(strong.p - 0.009) <= 0.002,
        abs(strong.ci_low - 0.054) <= 0.001,
        abs(strong.ci_high - 0.201) <= 0.001,
        0.29 <= weak.p <= 0.33,
        elapsed < 1.0,
    ]
    _verdict(
        1,
        all(checks),
        f"t={strong.t:.3f} p={strong.p:.4f} "
        f"ci=({strong.ci_low:.4f}, {strong.ci_high:.4f}); weak p={weak.p:.3f}; "
        f"{elapsed * 1000:.0f}ms",
    )


# --- 2: confusion-matrix metrics on pinned tables -----------------------------------


def _matrix_confusion(rows: dict, order: tuple, positive: str):
    """Expand a {actual: [count per predicted]} table into label arrays and
    run the public confusion counter on them."""
    labels, predictions = [], []
    for actual, counts in rows.items():
        for predicted, count in zip(order, counts):
            labels += [actual] * count
            predictions += [predicted] * count
    return evaluation.confusion(labels, predictions, positive)


def test_02_confusion_matrix_pinned_values():
    t0 = time.perf_counter()
    coarse = _matrix_confusion(
        {"NC": [32, 26], "C": [27, 42]}, ("NC", "C"), positive="C"
    )
    grade = _matrix_confusion(
        {"G3": [19, 20], "G4": [20, 10]}, ("G3", "G4"), positive="G4"
    )
    elapsed = time.perf_counter() - t0
    checks = [
        coarse.total == 127,
        coarse.accuracy == 74 / 127,
        round(coarse.accuracy, 4) == 0.5827,
        grade.total == 69,
        grade.accuracy == 29 / 69,
        grade.sensitivity == 10 / 30,
        grade.specificity == 19 / 39,
        round(grade.accuracy, 4) == 0.4203,
        round(grade.sensitivity, 4) == 0.3333,
        round(grade.specificity, 4) == 0.4872,
        elapsed < 1.0,
    ]
    _verdict(
        2,
        all(checks),
        f"coarse acc {coarse.accuracy:.4f}; grade acc {grade.accuracy:.4f} "
        f"sens {grade.sensitivity:.4f} spec {grade.specificity:.4f}; "
        f"{elapsed * 1000:.0f}ms",
    )


# --- 3: search-grid geometry ---------------------------------------------------------


def test_03_grid_geometry_and_fused_feature_length():
    c_ok = (
        len(svm.C_GRID) == 21
        and svm.C_GRID[0] == 2.0**-5
        and svm.C_GRID[-1] == 2.0**15
    )
    gamma_ok = (
        len(svm.GAMMA_GRID) == 19
        and svm.GAMMA_GRID[0] == 2.0**-15
        and svm.GAMMA_GRID[-1] == 2.0**3
    )
    keys = [(a, b) for a in bovw.DP_DICTIONARY_SIZES for b in bovw.RCI_DICTIONARY_SIZES]
    n_configs = len(svm.enumerate_grid(keys))

    rng = np.random.default_rng(3)
    dict_dp = bovw.VisualDictionary(rng.normal(size=(300, 128)), "dp", 0)
    dict_rci = bovw.VisualDictionary(rng.normal(size=(10, 128)), "rci", 0)
    descriptors = rng.normal(size=(64, 128))
    fused = np.hstack([
        bovw.word_frequencies([descriptors], dict_dp),
        bovw.word_frequencies([descriptors], dict_rci),
    ])
    checks = [
        c_ok,
        gamma_ok,
        len(keys) == 49,
        n_configs == 20_580,
        300 in bovw.DP_DICTIONARY_SIZES,
        10 in bovw.RCI_DICTIONARY_SIZES,
        fused.shape == (1, 310),
    ]
    _verdict(
        3,
        all(checks),
        f"|C|={len(svm.C_GRID)} |gamma|={len(svm.GAMMA_GRID)} "
        f"configs={n_configs} fused_len={fused.shape[1]}",
    )


# --- 4: SMO against a projected-gradient QP oracle ----------------------------------


def _project_box_hyperplane(v: np.ndarray, y: np.ndarray, C: float) -> np.ndarray:
    """Exact Euclidean projection of v onto {a : 0 <= a <= C, y @ a = 0}.

    With labels y in {-1, +1}, the projection is clip(v - nu*y, 0, C) where
    the multiplier nu solves the monotone piecewise-linear equation
    y @ clip(v - nu*y, 0, C) = 0; scanning the breakpoints gives the root
    in closed form.
    """

    def clipped(nu):
        return np.clip(v - nu * y, 0.0, C)

    def g(nu):
        return float(y @ clipped(nu))

    breakpoints = np.unique(np.concatenate([(v - C) * y, v * y]))
    if g(breakpoints[0]) <= 0.0:
        return clipped(breakpoints[0])
    if g(breakpoints[-1]) >= 0.0:
        return clipped(breakpoints[-1])
    for b0, b1 in zip(breakpoints, breakpoints[1:]):
        g0, g1 = g(b0), g(b1)
        if g0 >= 0.0 >= g1:
            nu = b0 if g0 == g1 else b0 + (b1 - b0) * g0 / (g0 - g1)
            return clipped(nu)
    raise AssertionError("projection multiplier not bracketed")


def _projected_gradient_dual(K, y, C, max_iter=300_000):
    """Projected-gradient ascent on the box/equality-constrained SVM dual,
    run to a plateau so the value is an independent optimum estimate."""
    Q = (y[:, None] * y[None, :]) * K
    step = 1.0 / max(float(np.linalg.eigvalsh(Q).max()), 1e-12)
    alpha = _project_box_hyperplane(np.zeros(len(y)), y, C)
    best = -np.inf
    stalls = 0
    for iteration in range(max_iter):
        alpha = _project_box_hyperplane(alpha + step * (1.0 - Q @ alpha), y, C)
        if iteration % 200 == 0:
            value = float(alpha.sum() - 0.5 * alpha @ Q @ alpha)
            if value - best <= 1e-13 * max(1.0, abs(value)):
                stalls += 1
                if stalls >= 3:
                    break
            else:
                stalls = 0
            best = max(best, value)
    return max(best, float(alpha.sum() - 0.5 * alpha @ Q @ alpha))


def _dense_kernel(X, kind, gamma):
    if kind == "linear":
        return X @ X.T
    d2 = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=-1)
    return np.exp(-gamma * d2)


def test_04_smo_matches_projected_gradient_and_analytic_boundary():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst_gap = 0.0
    for trial in range(100):
        n = int(rng.integers(3, 9))
        d = int(rng.integers(1, 5))
        X = rng.normal(size=(n, d))
        y = np.ones(n)
        y[: n // 2] = -1.0
        rng.shuffle(y)
        if len(np.unique(y)) < 2:
            y[0] = -y[0]
        C = float(rng.choice([0.1, 1.0, 10.0]))
        kind = "linear" if trial % 2 == 0 else "rbf"
        gamma = float(rng.choice([0.5, 1.0])) if kind == "rbf" else 1.0
        model = svm.train(X, y, svm.SvmConfig(C=C, kernel=kind, gamma=gamma, tol=1e-8))
        d_smo = dual_objective(model)
        d_pg = _projected_gradient_dual(_dense_kernel(X, kind, gamma), y, C)
        worst_gap = max(worst_gap, abs(d_smo - d_pg) / max(1.0, abs(d_pg)))

    worst_boundary = 0.0
    for _ in range(5):
        x_pos, x_neg = rng.normal(size=2), rng.normal(size=2)
        while np.linalg.norm(x_pos - x_neg) < 0.5:
            x_neg = rng.normal(size=2)
        model = svm.train(
            np.vstack([x_pos, x_neg]),
            np.array([1.0, -1.0]),
            svm.SvmConfig(C=1e6, kernel="linear", tol=1e-12),
        )
        diff = x_pos - x_neg
        w = 2.0 * diff / float(diff @ diff)
        b = -float(w @ (x_pos + x_neg)) / 2.0
        w_model = model.dual_coef @ model.support_vectors
        worst_boundary = max(
            worst_boundary,
            abs(svm.decision(model, x_pos) - 1.0),
            abs(svm.decision(model, x_neg) + 1.0),
            float(np.abs(w_model - w).max()),
            abs(model.bias - b),
        )
    elapsed = time.perf_counter() - t0
    passed = worst_gap <= 1e-6 and worst_boundary <= 1e-6 and elapsed < 30.0
    _verdict(
        4,
        passed,
        f"dual gap {worst_gap:.2e} over 100 instances; "
        f"2-point boundary error {worst_boundary:.2e}; {elapsed:.1f}s",
    )


# --- 5: Savitzky-Golay polynomial exactness -----------------------------------------


def test_05_savitzky_golay_exact_on_cubic_polynomials():
    rng = np.random.default_rng(5)
    n, window, order = 64, 15, 3
    half = window // 2
    t = np.arange(n, dtype=float) - n / 2
    worst = 0.0
    for _ in range(20):
        c = rng.uniform(-1.0, 1.0, size=4)
        y = c[0] + c[1] * t + c[2] * t**2 + c[3] * t**3
        exact = (
            y,
            c[1] + 2.0 * c[2] * t + 3.0 * c[3] * t**2,
            2.0 * c[2] + 6.0 * c[3] * t,
        )
        for deriv in range(3):
            got = spectral.savitzky_golay(y, window, order, deriv)
            err = np.abs(got[half : n - half] - exact[deriv][half : n - half]).max()
            worst = max(worst, float(err))
    _verdict(5, worst <= 1e-9, f"max interior error {worst:.2e} over derivatives 0-2")


# --- 6: trapezoid AUC equals pairwise counting --------------------------------------


def test_06_trapezoid_auc_equals_pair_counting():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(4, 40))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = np.round(rng.normal(size=n), 1)  # coarse grid forces ties
        _, auc = evaluation.roc_auc(scores, labels, positive_label=1)
        pos, neg = scores[labels == 1], scores[labels == 0]
        wins = (
            (pos[:, None] > neg[None, :]).sum()
            + 0.5 * (pos[:, None] == neg[None, :]).sum()
        )
        worst = max(worst, abs(auc - wins / (len(pos) * len(neg))))
    _verdict(6, worst <= 1e-12, f"max |trapezoid - pair count| {worst:.2e} on 200 runs")


# --- 7: SIFT stability properties ----------------------------------------------------


def _smooth_bump_texture(rng, size=128, cell=24, margin=16) -> GreyImage:
    """Signed anisotropic Gaussian bumps on a jittered grid: smooth texture
    with distinctive, well-separated local structure."""
    y, x = np.mgrid[0:size, 0:size].astype(float)
    img = np.zeros((size, size))
    for gy in range(margin, size - margin, cell):
        for gx in range(margin, size - margin, cell):
            cx = gx + rng.uniform(-5, 5)
            cy = gy + rng.uniform(-5, 5)
            s1 = rng.uniform(2.0, 4.0)
            s2 = s1 * rng.uniform(1.0, 1.5)
            theta = rng.uniform(0, np.pi)
            a = rng.uniform(0.7, 1.0) * (1 if rng.random() < 0.5 else -1)
            u = np.cos(theta) * (x - cx) + np.sin(theta) * (y - cy)
            v = -np.sin(theta) * (x - cx) + np.cos(theta) * (y - cy)
            img += a * np.exp(-0.5 * ((u / s1) ** 2 + (v / s2) ** 2))
    img -= img.min()
    if img.max() > 0:
        img = 255.0 * img / img.max()
    return GreyImage(np.floor(img + 0.5).astype(np.uint8))


def test_07_sift_repeatability_matching_and_silence():
    texture = _smooth_bump_texture(np.random.default_rng(6), size=96).pixels
    fill = int(texture.mean())
    a = np.full((128, 128), fill, dtype=np.uint8)
    b = np.full((128, 128), fill, dtype=np.uint8)
    a[16:112, 16:112] = texture
    b[16:112, 24:120] = texture  # same texture shifted 8 px right
    kps_a = [k for k, _ in sift.extract(GreyImage(a))]
    kps_b = [(k.x, k.y) for k, _ in sift.extract(GreyImage(b))]
    inner = [k for k in kps_a if 24 <= k.x <= 104 and 24 <= k.y <= 104]
    repeated = sum(
        1
        for k in inner
        if any(math.hypot(bx - (k.x + 8), by - k.y) <= 1.5 for bx, by in kps_b)
    )
    repeat_rate = repeated / len(inner) if inner else 0.0

    img = _smooth_bump_texture(np.random.default_rng(7), size=160)
    doubled = imaging.resize_cubic(img, img.width * 2, img.height * 2)
    mat_a = sift.descriptor_matrix(sift.extract(img))
    mat_b = sift.descriptor_matrix(sift.extract(doubled))
    matches = 0
    for row in mat_a:
        dist = np.linalg.norm(mat_b - row, axis=1)
        order = np.argsort(dist)
        if dist[order[0]] < 0.8 * dist[order[1]]:
            matches += 1
    match_rate = matches / len(mat_a) if len(mat_a) else 0.0

    constant = sift.extract(GreyImage(np.full((64, 64), 37, dtype=np.uint8)))

    checks = [
        len(inner) >= 5,
        repeat_rate >= 0.7,
        len(mat_a) >= 8 and len(mat_b) >= 8,
        match_rate >= 0.5,
        len(constant) == 0,
    ]
    _verdict(
        7,
        all(checks),
        f"translation repeatability {repeat_rate:.2f} ({len(inner)} keypoints); "
        f"2x-scale match rate {match_rate:.2f} ({len(mat_a)} descriptors); "
        f"constant image {len(constant)} keypoints",
    )


# --- 8: PLS against least-squares oracles -------------------------------------------


def test_08_pls_matches_least_squares_oracles():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(40, 6))
    y = X @ rng.normal(size=6) + 0.3 + 0.05 * rng.normal(size=40)
    model = plsda.fit_pls(X, y, n_lv=6)
    design = np.hstack([np.ones((40, 1)), X])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    full_rank_err = float(np.abs(plsda.predict_score(model, X) - design @ coef).max())

    x1 = rng.normal(size=(30, 1))
    y1 = 1.7 * x1[:, 0] - 0.4 + 0.1 * rng.normal(size=30)
    univariate = plsda.fit_pls(x1, y1, n_lv=1)
    xc = x1[:, 0] - x1[:, 0].mean()
    slope = float(xc @ (y1 - y1.mean())) / float(xc @ xc)
    simple = y1.mean() + slope * xc
    univariate_err = float(np.abs(plsda.predict_score(univariate, x1) - simple).max())

    passed = full_rank_err <= 1e-8 and univariate_err <= 1e-10
    _verdict(
        8,
        passed,
        f"full-rank vs least squares {full_rank_err:.2e}; "
        f"1-LV vs simple regression {univariate_err:.2e}",
    )


# --- 9: fusion beats single modalities at cohort scale ------------------------------


def test_09_fusion_beats_single_modalities_on_synthetic_cohorts():
    t0 = time.perf_counter()
    mid = experiments.fusion_benchmark(0.6, 0.6, range(10))
    strong = experiments.fusion_benchmark(1.0, 1.0, range(2))
    null = experiments.fusion_benchmark(0.0, 0.0, range(5))
    elapsed = time.perf_counter() - t0

    fused_mean = float(np.mean(mid["fused"]))
    dp_mean = float(np.mean(mid["dp"]))
    rci_mean = float(np.mean(mid["rci"]))
    null_values = [value for values in null.values() for value in values]
    checks = [
        fused_mean > dp_mean,
        fused_mean > rci_mean,
        all(value >= 0.95 for value in strong["fused"]),
        all(0.35 <= value <= 0.65 for value in null_values),
        elapsed <= 600.0,
    ]
    _verdict(
        9,
        all(checks),
        f"complementary 0.6/0.6: fused {fused_mean:.3f} vs dp {dp_mean:.3f} / "
        f"rci {rci_mean:.3f}; strong fused min {min(strong['fused']):.3f}; "
        f"no-signal span [{min(null_values):.3f}, {max(null_values):.3f}]; "
        f"{elapsed:.0f}s",
    )


# --- 10: byte-identical CLI reruns ---------------------------------------------------


def _dir_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


def test_10_cli_runs_are_byte_identical_for_a_fixed_seed(tmp_path):
    cohort = tmp_path / "cohort"
    assert cli.main([
        "synth", "--out", str(cohort), "--n-patients", "12", "--n-samples", "70",
        "--image-size", "96", "--cube-size", "24", "--n-bands", "32", "--seed", "7",
    ]) == 0
    manifest = str(cohort / "manifest.txt")
    sizes = ["--dp-size", "96", "--rci-size", "64"]

    cv_dirs = []
    for name in ("cv_a", "cv_b"):
        out = tmp_path / name
        assert cli.main([
            "cv", "--manifest", manifest, "--task", "nc-c", "--modality", "dp",
            "--out", str(out), "--seed", "3", *sizes, "--k-dp", "12", "--k-rci", "6",
        ]) == 0
        cv_dirs.append(out)
    cv_identical = _dir_bytes(cv_dirs[0]) == _dir_bytes(cv_dirs[1])

    grid_files = []
    for jobs in ("1", "2"):
        out = tmp_path / f"grid{jobs}.csv"
        assert cli.main([
            "grid", "--manifest", manifest, "--task", "nc-c", "--out", str(out),
            "--seed", "0", "--jobs", jobs, "--dp-sizes", "8", "--rci-sizes", "4",
            "--c-grid", "1.0", "--gamma-grid", "0.5", "--kernels", "linear,rbf",
            *sizes,
        ]) == 0
        grid_files.append(out.read_bytes())
    grid_identical = grid_files[0] == grid_files[1]

    select_files = []
    for jobs in ("1", "2"):
        out = tmp_path / f"select{jobs}.csv"
        assert cli.main([
            "pls-select", "--manifest", manifest, "--task", "nc-c",
            "--out", str(out), "--n-repeats", "8", "--lv-max", "3",
            "--jobs", jobs, "--seed", "1",
        ]) == 0
        select_files.append(out.read_bytes())
    select_identical = select_files[0] == select_files[1]

    passed = cv_identical and grid_identical and select_identical
    _verdict(
        10,
        passed,
        f"cv rerun identical: {cv_identical}; grid jobs 1==2: {grid_identical}; "
        f"pls-select jobs 1==2: {select_identical}",
    )


# --- 11: cosmic-ray recovery against generator ground truth -------------------------


def test_11_cosmic_ray_spikes_recovered_from_ground_truth(tmp_path):
    manifest = synth.generate(synth.SynthSpec(dp_signal=0.6, rci_signal=0.6, seed=11), tmp_path)
    truth = synth.load_ground_truth(tmp_path)
    n_spikes = n_hit = n_clean = n_false = 0
    for record in manifest.samples:
        cube = dataio.load_cube(record.rci_path)
        mask = imaging.background_mask(cube).mask
        keep = spectral.detect_bad_pixels(replace(cube, mask=mask))
        spiked = {
            (row, col)
            for row, col, _ in map(tuple, truth["samples"][record.sample_id]["spikes"])
        }
        for row, col in spiked:
            n_spikes += 1
            if mask[row, col] and not keep[row, col]:
                n_hit += 1
        clean = mask.copy()
        for row, col in spiked:
            clean[row, col] = False
        n_clean += int(clean.sum())
        n_false += int((clean & ~keep).sum())

    recall = n_hit / n_spikes if n_spikes else 0.0
    false_rate = n_false / n_clean if n_clean else 1.0
    passed = n_spikes >= 100 and recall >= 0.95 and false_rate <= 0.02
    _verdict(
        11,
        passed,
        f"{n_hit}/{n_spikes} spikes flagged (recall {recall:.3f}); "
        f"false-flag rate {false_rate:.4f} over {n_clean} clean pixels",
    )
