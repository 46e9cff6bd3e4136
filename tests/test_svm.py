"""Classifier tests: analytic margin geometry, an exhaustive dual-QP oracle,
a one-fit-at-a-time SMO oracle for the batched solver, probability
calibration behaviour, and grid-search bookkeeping."""
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramanfuse import bovw, dataio, svm
from ramanfuse.errors import (
    CalibrationFailed,
    DegenerateKernel,
    DimMismatch,
    MalformedFile,
    SingleClass,
)

GOLDEN = Path(__file__).parent / "data" / "svm_golden.npz"


def dual_objective(model: svm.SvmModel) -> float:
    """Dual value achieved by the stored coefficients (zeros omitted)."""
    coef = model.dual_coef
    alpha = np.abs(coef)
    k = svm._kernel_matrix(
        model.support_vectors, model.support_vectors, model.kernel, model.gamma
    )
    return float(alpha.sum() - 0.5 * coef @ k @ coef)


def dual_value(alpha, Q):
    return float(alpha.sum() - 0.5 * alpha @ Q @ alpha)


def qp_oracle(K, y, C):
    """Global maximum of the dual by enumerating active-set assignments.

    Every variable is pinned at 0, pinned at C, or left free; the free block
    plus the equality multiplier solve a small linear system.  Any assignment
    whose solution is feasible gives a lower bound on the optimum, and the
    true optimum's own assignment is among them, so the best feasible value
    is exact.
    """
    n = len(y)
    Q = (y[:, None] * y[None, :]) * K
    best = -np.inf
    for assignment in itertools.product((0, 1, 2), repeat=n):
        state = np.array(assignment)
        free = np.flatnonzero(state == 2)
        at_c = np.flatnonzero(state == 1)
        alpha = np.zeros(n)
        alpha[at_c] = C
        if free.size:
            nf = free.size
            system = np.zeros((nf + 1, nf + 1))
            system[:nf, :nf] = Q[np.ix_(free, free)]
            system[:nf, nf] = y[free]
            system[nf, :nf] = y[free]
            rhs = np.zeros(nf + 1)
            rhs[:nf] = 1.0 - Q[np.ix_(free, at_c)] @ alpha[at_c]
            rhs[nf] = -y[at_c] @ alpha[at_c]
            solution, *_ = np.linalg.lstsq(system, rhs, rcond=None)
            if np.linalg.norm(system @ solution - rhs) > 1e-7 * (1 + np.linalg.norm(rhs)):
                continue
            alpha[free] = solution[:nf]
        if alpha.min() < -1e-9 or alpha.max() > C + 1e-9:
            continue
        if abs(y @ alpha) > 1e-9:
            continue
        best = max(best, dual_value(alpha, Q))
    return best


def scalar_smo(K, y, C, tol, max_iter, alpha0=None):
    """One SMO fit, one step at a time in Python floats: the reference
    that svm._smo, which advances many fits at once, must match bit for
    bit. Returns (alpha, n_iter, kkt_gap, bias)."""
    n = len(y)
    alpha0 = np.zeros(n) if alpha0 is None else alpha0
    Q = (y[:, None] * y[None, :]) * K
    qd = np.diag(Q).tolist()
    Q_g = Q * (-y)[None, :]
    g = y - y * (Q @ alpha0) if alpha0.any() else y.copy()
    labels = y.tolist()
    alpha = alpha0.tolist()
    pos = y > 0
    pen_up = np.where(np.where(pos, alpha0 < C, alpha0 > 0), 0.0, -math.inf)
    pen_low = np.where(np.where(pos, alpha0 > 0, alpha0 < C), 0.0, math.inf)
    n_iter = 0
    while True:
        i = int((g + pen_up).argmax())
        j = int((g + pen_low).argmin())
        gap = float(g[i] - g[j])
        if gap <= tol or n_iter == max_iter:
            break
        n_iter += 1
        y_i, y_j = labels[i], labels[j]
        grad_i, grad_j = -y_i * float(g[i]), -y_j * float(g[j])
        old_i, old_j = a_i, a_j = alpha[i], alpha[j]
        if y_i != y_j:
            quad = max(qd[i] + qd[j] + 2.0 * float(Q[i, j]), svm._TAU)
            delta = (-grad_i - grad_j) / quad
            diff = a_i - a_j
            a_i += delta
            a_j += delta
            if diff > 0:
                if a_j < 0:
                    a_j, a_i = 0.0, diff
            elif a_i < 0:
                a_i, a_j = 0.0, -diff
            if diff > 0:
                if a_i > C:
                    a_i, a_j = C, C - diff
            elif a_j > C:
                a_j, a_i = C, C + diff
        else:
            quad = max(qd[i] + qd[j] - 2.0 * float(Q[i, j]), svm._TAU)
            delta = (grad_i - grad_j) / quad
            total = a_i + a_j
            a_i -= delta
            a_j += delta
            if total > C:
                if a_i > C:
                    a_i, a_j = C, total - C
            elif a_j < 0:
                a_j, a_i = 0.0, total
            if total > C:
                if a_j > C:
                    a_j, a_i = C, total - C
            elif a_i < 0:
                a_i, a_j = 0.0, total
        alpha[i], alpha[j] = a_i, a_j
        g += Q_g[i] * (a_i - old_i) + Q_g[j] * (a_j - old_j)
        for k, a in ((i, a_i), (j, a_j)):
            in_up, in_low = (a < C, a > 0) if labels[k] > 0 else (a > 0, a < C)
            pen_up[k] = 0.0 if in_up else -math.inf
            pen_low[k] = 0.0 if in_low else math.inf
    alpha = np.array(alpha)
    free = (alpha > 0) & (alpha < C)
    bias = float(g[free].mean()) if free.any() else float((g[i] + g[j]) / 2.0)
    return alpha, n_iter, gap, bias


def scalar_chain(K, y, Cs, tol, max_iter):
    """scalar_smo at each C in turn, each fit started from the previous
    one's alpha when C does not decrease and from zeros otherwise."""
    fits, alpha = [], None
    for p, c in enumerate(Cs):
        fit = scalar_smo(K, y, c, tol, max_iter, alpha if p and c >= Cs[p - 1] else None)
        fits.append(fit)
        alpha = fit[0]
    return fits


def assert_same_fit(fit, expected):
    alpha, n_iter, gap, bias = expected
    assert fit.alpha.tobytes() == alpha.tobytes()
    assert (fit.n_iter, fit.kkt_gap, fit.bias) == (n_iter, gap, bias)


def assert_same_model(model, X, y, expected):
    """model is the one the fit expected = (alpha, n_iter, kkt_gap, bias)
    makes from rows X labelled y."""
    alpha, n_iter, gap, bias = expected
    kept = alpha > 1e-12
    assert model.dual_coef.tobytes() == (alpha * y)[kept].tobytes()
    assert np.array_equal(model.support_vectors, X[kept])
    assert (model.n_iter, model.kkt_gap, model.bias) == (n_iter, gap, bias)


def record_fits(monkeypatch) -> dict:
    """Patch svm._smo to also keep every fit it yields, by (batch, chain, C
    index)."""
    fits, real_smo = {}, svm._smo

    def smo(chains, tol, max_iter):
        batch = len({key[0] for key in fits})
        for k, p, fit in real_smo(chains, tol, max_iter):
            fits[batch, k, p] = fit
            yield k, p, fit

    monkeypatch.setattr(svm, "_smo", smo)
    return fits


def random_instance(rng, n):
    X = rng.normal(size=(n, 3))
    while True:
        y = rng.choice([-1.0, 1.0], size=n)
        if len(np.unique(y)) == 2:
            return X, y


class TestConfig:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["C", "gamma"])
    @pytest.mark.parametrize("kernel", svm.KERNELS)
    def test_non_finite_c_or_gamma_is_rejected(self, kernel, field, value):
        with pytest.raises(ValueError, match="finite"):
            svm.SvmConfig(kernel=kernel, **{field: value})


class TestTrainGeometry:
    def test_two_point_boundary_and_margin(self):
        X = np.array([[0.0], [2.0]])
        y = np.array([-1.0, 1.0])
        model = svm.train(X, y, svm.SvmConfig(C=2.0**15, kernel="linear"))
        assert abs(svm.decision(model, np.array([1.0]))) <= 1e-6
        assert svm.decision(model, np.array([0.0])) == pytest.approx(-1.0, rel=1e-3)
        assert svm.decision(model, np.array([2.0])) == pytest.approx(1.0, rel=1e-3)
        w = model.dual_coef @ model.support_vectors
        assert w[0] == pytest.approx(1.0, rel=1e-3)

    def test_four_point_max_margin_weight(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [2.0, 0.0], [2.0, 1.0]])
        y = np.array([-1.0, -1.0, 1.0, 1.0])
        model = svm.train(X, y, svm.SvmConfig(C=2.0**15, kernel="linear"))
        w = model.dual_coef @ model.support_vectors
        assert w[0] == pytest.approx(1.0, rel=1e-3)
        assert abs(w[1]) <= 1e-3
        assert model.bias == pytest.approx(-1.0, abs=1e-3)

    def test_xor_rbf_fits_training_set(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        y = np.array([-1.0, -1.0, 1.0, 1.0])
        model = svm.train(X, y, svm.SvmConfig(C=1e6, kernel="rbf", gamma=1.0))
        assert np.array_equal(svm.predict(model, X), y)

    def test_dual_feasibility(self):
        rng = np.random.default_rng(7)
        X = np.vstack([rng.normal(0, 1, (20, 4)), rng.normal(1.5, 1, (20, 4))])
        y = np.array([-1.0] * 20 + [1.0] * 20)
        for cfg in (
            svm.SvmConfig(C=1.0, kernel="linear"),
            svm.SvmConfig(C=4.0, kernel="rbf", gamma=0.5),
        ):
            model = svm.train(X, y, cfg)
            alpha = np.abs(model.dual_coef)
            assert alpha.min() > 0
            assert alpha.max() <= cfg.C + 1e-12
            assert abs(model.dual_coef.sum()) <= 1e-8

    def test_determinism(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 5))
        y = np.where(X[:, 0] + 0.2 * rng.normal(size=30) > 0, 1.0, -1.0)
        if len(np.unique(y)) < 2:
            y[0] = -y[0]
        a = svm.train(X, y, svm.SvmConfig(C=2.0, kernel="rbf", gamma=0.25))
        b = svm.train(X, y, svm.SvmConfig(C=2.0, kernel="rbf", gamma=0.25))
        assert np.array_equal(a.support_vectors, b.support_vectors)
        assert np.array_equal(a.dual_coef, b.dual_coef)
        assert a.bias == b.bias

    def test_single_class_rejected(self):
        X = np.zeros((3, 2))
        with pytest.raises(SingleClass):
            svm.train(X, np.array([1.0, 1.0, 1.0]))

    def test_non_finite_kernel_rejected(self):
        X = np.array([[np.nan, 0.0], [1.0, 1.0]])
        y = np.array([-1.0, 1.0])
        with pytest.raises(DegenerateKernel):
            svm.train(X, y, svm.SvmConfig(C=1.0, kernel="rbf", gamma=1.0))


class TestSolverReport:
    def test_fit_capped_by_max_iter_reports_a_gap_above_tol(self):
        X, y = tiny_dataset()
        cfg = svm.SvmConfig(C=10.0, kernel="rbf", gamma=1.0, max_iter=1)
        model = svm.train(X, y, cfg)
        assert model.n_iter == 1
        assert model.kkt_gap > cfg.tol

    def test_converged_fit_reports_a_gap_within_tol(self):
        X, y = tiny_dataset()
        cfg = svm.SvmConfig(C=10.0, kernel="rbf", gamma=1.0)
        model = svm.train(X, y, cfg)
        assert 1 < model.n_iter < cfg.max_iter
        assert model.kkt_gap <= cfg.tol

    def test_report_stays_out_of_the_saved_model(self, tmp_path):
        X, y = tiny_dataset()
        model = svm.calibrate(svm.train(X, y, svm.SvmConfig(C=10.0)), X, y)
        assert model.n_iter is not None and model.kkt_gap is not None
        assert not {"n_iter", "kkt_gap"} & set(model.to_payload())
        path = tmp_path / "clf.json"
        dataio.save_model(model, path)
        loaded = dataio.load_model(path)
        assert loaded.n_iter is None and loaded.kkt_gap is None

    def test_model_keeps_the_rows_of_the_full_dual_solution_above_zero(self):
        X, y = tiny_dataset()
        cfg = svm.SvmConfig(C=10.0, kernel="rbf", gamma=1.0)
        K = svm._kernel_matrix(X, X, cfg.kernel, cfg.gamma)
        (_, _, fit), = svm._smo([svm._Chain(K, y, (cfg.C,))], cfg.tol, cfg.max_iter)
        model = svm.train(X, y, cfg)
        kept = fit.alpha > 1e-12
        assert fit.alpha.shape == y.shape
        assert np.array_equal(model.dual_coef, (fit.alpha * y)[kept])
        assert np.array_equal(model.support_vectors, X[kept])
        assert (model.bias, model.n_iter, model.kkt_gap) == (fit.bias, fit.n_iter, fit.kkt_gap)


class TestAlphaSeed:
    """The start of each fit along a chain's C axis."""

    def test_zero_start_gives_the_cold_fit(self):
        # A fit capped at zero steps leaves alpha at zeros, so the next C
        # starts from a zero alpha.
        X, y = tiny_dataset()
        K = svm._kernel_matrix(X, X, "rbf", 1.0)
        fits = [fit for _, _, fit in svm._smo([svm._Chain(K, y, (1.0, 10.0))], 1e-3, 0)]
        assert not fits[0].alpha.any()
        assert_same_fit(fits[1], scalar_smo(K, y, 10.0, 1e-3, 0))

    @pytest.mark.parametrize("kernel, gamma", [("linear", 1.0), ("rbf", 2.0**-3)])
    def test_seeded_chain_along_c_converges_in_fewer_steps(self, kernel, gamma):
        gold = np.load(GOLDEN)
        X, y = gold["X"], gold["y"]
        cfg = svm.SvmConfig(kernel=kernel, gamma=gamma)
        K = svm._kernel_matrix(X, X, kernel, gamma)
        seeded = [fit for _, _, fit in svm._smo([svm._Chain(K, y, svm.C_GRID)],
                                                 cfg.tol, cfg.max_iter)]
        cold = svm._smo([svm._Chain(K, y, (c,)) for c in svm.C_GRID], cfg.tol, cfg.max_iter)
        assert all(fit.kkt_gap <= cfg.tol for fit in seeded)
        assert sum(fit.n_iter for fit in seeded) < sum(fit.n_iter for _, _, fit in cold)


class TestOracle:
    def test_smo_matches_exhaustive_qp(self):
        rng = np.random.default_rng(99)
        sizes = [4, 5, 6, 7, 8, 4, 5, 6, 4, 5]
        c_values = [0.1, 1.0, 10.0]
        for trial in range(100):
            n = sizes[trial % len(sizes)]
            C = c_values[trial % len(c_values)]
            X, y = random_instance(rng, n)
            if trial % 2 == 0:
                cfg = svm.SvmConfig(C=C, kernel="linear", tol=1e-10)
                K = X @ X.T
            else:
                cfg = svm.SvmConfig(C=C, kernel="rbf", gamma=0.5, tol=1e-10)
                d2 = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
                K = np.exp(-0.5 * d2)
            model = svm.train(X, y, cfg)
            achieved = dual_objective(model)
            target = qp_oracle(K, y, C)
            assert achieved == pytest.approx(target, abs=1e-6 * (1 + abs(target)))


@st.composite
def smo_batches(draw):
    """A batch of chains: small problems (2-12 rows, both labels, linear or
    rbf, integer features for exact ties), each with a C axis that may
    rise, repeat and drop; one tol and max_iter for the batch."""
    kernel = draw(st.sampled_from(svm.KERNELS))
    gamma = draw(st.sampled_from([0.125, 1.0, 4.0]))
    problems = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(2, 12))
        y = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)
                 .filter(lambda labels: len(set(labels)) == 2))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        X = rng.integers(-2, 3, size=(n, 2)) if draw(st.booleans()) else rng.normal(size=(n, 3))
        Cs = draw(st.lists(st.sampled_from([0.125, 1.0, 1.5, 16.0, 1024.0]), min_size=1, max_size=5))
        problems.append((X.astype(np.float64), np.array(y), tuple(Cs)))
    tol = draw(st.sampled_from([1e-3, 1e-8]))
    max_iter = draw(st.sampled_from([0, 2, 7, 30, 200_000]))
    return kernel, gamma, problems, tol, max_iter


class TestBatchedSolver:
    """svm._smo against scalar_smo, the one-fit-at-a-time loop."""

    @settings(max_examples=150, deadline=None)
    @given(smo_batches())
    def test_batch_matches_fits_made_one_at_a_time(self, batch):
        kernel, gamma, problems, tol, max_iter = batch
        chains, expected = [], []
        for X, y, Cs in problems:
            K = svm._kernel_matrix(X, X, kernel, gamma)
            chains.append(svm._Chain(K, y, Cs))
            expected.append(scalar_chain(K, y, Cs, tol, max_iter))
        fits = {(k, p): fit for k, p, fit in svm._smo(chains, tol, max_iter)}
        assert sorted(fits) == [(k, p) for k, (_, _, Cs) in enumerate(problems)
                                for p in range(len(Cs))]
        for (k, p), fit in fits.items():
            assert_same_fit(fit, expected[k][p])

    @settings(max_examples=50, deadline=None)
    @given(smo_batches())
    def test_train_is_a_batch_of_one(self, batch):
        kernel, gamma, problems, tol, max_iter = batch
        X, y, Cs = problems[0]
        K = svm._kernel_matrix(X, X, kernel, gamma)
        cfg = svm.SvmConfig(C=max(Cs), kernel=kernel, gamma=gamma, tol=tol, max_iter=max_iter)
        assert_same_model(svm.train(X, y, cfg), X, y, scalar_smo(K, y, cfg.C, tol, max_iter))
        # A seeded start: the fit at max(Cs) from the one at min(Cs).
        axis = (min(Cs), cfg.C)
        fits = [fit for _, _, fit in svm._smo([svm._Chain(K, y, axis)], tol, max_iter)]
        for fit, expected in zip(fits, scalar_chain(K, y, axis, tol, max_iter), strict=True):
            assert_same_fit(fit, expected)


class TestDecisionPredict:
    def test_tie_goes_positive(self):
        model = svm.SvmModel(
            support_vectors=np.array([[1.0], [-1.0]]),
            dual_coef=np.array([1.0, -1.0]),
            bias=0.0,
            kernel="linear",
            gamma=1.0,
            C=1.0,
        )
        assert svm.decision(model, np.array([0.0])) == 0.0
        assert svm.predict(model, np.array([0.0])) == 1

    def test_dim_mismatch(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        model = svm.train(X, np.array([-1.0, 1.0]))
        with pytest.raises(DimMismatch):
            svm.decision(model, np.array([1.0, 2.0, 3.0]))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(12, 3))
        y = np.where(X[:, 1] > 0, 1.0, -1.0)
        if len(np.unique(y)) < 2:
            y[0] = -y[0]
        model = svm.train(X, y, svm.SvmConfig(C=1.0, kernel="rbf", gamma=0.3))
        batch = svm.decision(model, X)
        singles = [svm.decision(model, row) for row in X]
        assert np.allclose(batch, singles, rtol=1e-12, atol=1e-12)

    def test_save_load_preserves_decisions(self, tmp_path):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(20, 4))
        y = np.where(X[:, 0] - X[:, 2] > 0, 1.0, -1.0)
        if len(np.unique(y)) < 2:
            y[0] = -y[0]
        model = svm.train(X, y, svm.SvmConfig(C=3.0, kernel="rbf", gamma=0.7))
        model = svm.calibrate(model, X, y)
        path = tmp_path / "clf.json"
        dataio.save_model(model, path)
        loaded = dataio.load_model(path)
        probe = rng.normal(size=(10, 4))
        assert np.array_equal(svm.decision(model, probe), svm.decision(loaded, probe))
        assert np.array_equal(svm.predict_proba(model, probe), svm.predict_proba(loaded, probe))

    @pytest.mark.parametrize("corrupt", [
        lambda p: p["dual_coef"].pop(),
        lambda p: p["dual_coef"].__setitem__(0, float("nan")),
        lambda p: p.__setitem__("kernel", "poly"),
        lambda p: p.__setitem__("support_vectors", p["support_vectors"][0]),
        lambda p: p.__setitem__("platt_a", float("inf")),
    ], ids=["dropped-coef", "nan-coef", "poly-kernel", "flat-vectors", "inf-platt"])
    def test_malformed_payload_is_rejected_on_load(self, tmp_path, corrupt):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.2]])
        model = svm.calibrate(svm.train(X, np.array([-1.0, 1.0, 1.0, -1.0])), X,
                              np.array([-1.0, 1.0, 1.0, -1.0]))
        path = tmp_path / "clf.json"
        dataio.save_model(model, path)
        doc = json.loads(path.read_text())
        corrupt(doc["payload"])
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedFile):
            dataio.load_model(path)


def line_model():
    return svm.SvmModel(
        support_vectors=np.array([[1.0]]),
        dual_coef=np.array([1.0]),
        bias=0.0,
        kernel="linear",
        gamma=1.0,
        C=1.0,
    )


class TestCalibration:
    def test_negative_slope_on_separated_data(self):
        X = np.array([[-3.0], [-2.0], [-1.0], [1.0], [2.0], [3.0]])
        y = np.array([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0])
        calibrated = svm.calibrate(line_model(), X, y)
        assert calibrated.platt_a < 0

    def test_symmetric_balanced_midpoint(self):
        X = np.array([[-3.0], [-2.0], [-1.0], [1.0], [2.0], [3.0]])
        y = np.array([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0])
        calibrated = svm.calibrate(line_model(), X, y)
        assert svm.predict_proba(calibrated, np.array([0.0])) == pytest.approx(0.5, abs=1e-6)

    def test_probabilities_monotone_in_decision(self):
        rng = np.random.default_rng(2)
        X = np.sort(rng.normal(size=40))[:, None]
        y = np.where(X[:, 0] + 0.3 * rng.normal(size=40) > 0, 1.0, -1.0)
        if len(np.unique(y)) < 2:
            y[0] = -y[0]
        calibrated = svm.calibrate(line_model(), X, y)
        probs = svm.predict_proba(calibrated, X)
        assert np.all(np.diff(probs) >= 0)
        assert probs.min() > 0 and probs.max() < 1

    def test_iteration_budget_enforced(self):
        X = np.array([[-1.0], [1.0]])
        y = np.array([-1.0, 1.0])
        with pytest.raises(CalibrationFailed):
            svm.calibrate(line_model(), X, y, max_iter=0)


def tiny_dataset(seed=0):
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0, 2 * math.pi, 30)
    ring = np.column_stack([np.cos(angles), np.sin(angles)]) * rng.uniform(0.9, 1.1, (30, 1))
    core = rng.normal(0, 0.15, (30, 2))
    X = np.vstack([ring, core])
    y = np.array([-1.0] * 30 + [1.0] * 30)
    order = rng.permutation(60)
    return X[order], y[order]


def two_folds(n):
    idx = np.arange(n)
    return [(idx[idx % 2 == 0], idx[idx % 2 == 1]), (idx[idx % 2 == 1], idx[idx % 2 == 0])]


class TestGridSearch:
    def test_enumeration_count_multimodal(self):
        keys = [
            (kd, kr)
            for kd in bovw.DP_DICTIONARY_SIZES
            for kr in bovw.RCI_DICTIONARY_SIZES
        ]
        entries = svm.enumerate_grid(keys)
        assert len(entries) == 20580
        assert len(svm.C_GRID) == 21
        assert len(svm.GAMMA_GRID) == 19
        assert svm.C_GRID[0] == 2.0**-5 and svm.C_GRID[-1] == 2.0**15
        assert svm.GAMMA_GRID[0] == 2.0**-15 and svm.GAMMA_GRID[-1] == 2.0**3

    def test_enumeration_order(self):
        entries = svm.enumerate_grid(["a", "b"], c_grid=(1.0, 2.0), gamma_grid=(4.0,))
        flat = [
            (e.feature_key, e.config.kernel, e.config.C, e.config.gamma if e.config.kernel == "rbf" else None)
            for e in entries
        ]
        assert flat == [
            (("a",), "linear", 1.0, None),
            (("a",), "linear", 2.0, None),
            (("a",), "rbf", 1.0, 4.0),
            (("a",), "rbf", 2.0, 4.0),
            (("b",), "linear", 1.0, None),
            (("b",), "linear", 2.0, None),
            (("b",), "rbf", 1.0, 4.0),
            (("b",), "rbf", 2.0, 4.0),
        ]

    def test_single_point_grid_returns_it(self):
        X, y = tiny_dataset()
        result = svm.grid_search(
            {("only",): X}, y, two_folds(60),
            c_grid=(2.0,), kernels=("linear",),
        )
        assert result.best.feature_key == ("only",)
        assert result.best.config.kernel == "linear"
        assert result.best.config.C == 2.0
        assert len(result.rows) == 1

    def test_selects_rbf_when_linear_cannot_separate(self):
        X, y = tiny_dataset()
        result = svm.grid_search(
            {("f",): X}, y, two_folds(60),
            c_grid=(1.0, 100.0), gamma_grid=(1.0,),
        )
        assert result.best.config.kernel == "rbf"
        assert result.mean_accuracy > 0.9

    def test_first_max_tie_break(self):
        X, y = tiny_dataset(3)
        result = svm.grid_search(
            {("first",): X, ("second",): X.copy()}, y, two_folds(60),
            c_grid=(1.0,), gamma_grid=(1.0,),
        )
        assert result.best.feature_key == ("first",)

    @pytest.mark.parametrize("grid", [
        dict(c_grid=[]),
        dict(kernels=[]),
        dict(kernels=["rbf"], gamma_grid=[]),
        dict(gamma_grid=[]),
        dict(kernels=["poly"]),
        dict(c_grid=[1.0, math.nan]),
        dict(gamma_grid=[math.inf]),
    ])
    def test_empty_or_invalid_grid_rejected(self, grid):
        X, y = tiny_dataset()
        with pytest.raises(ValueError):
            svm.grid_search({("f",): X}, y, two_folds(60), **grid)

    def test_no_feature_sets_rejected(self):
        _, y = tiny_dataset()
        with pytest.raises(ValueError):
            svm.grid_search({}, y, two_folds(60))

    def test_parallel_matches_serial(self):
        # Two feature sets and uneven folds: each batch pads its chains to
        # the largest training fold, and jobs=2 solves the sets in two
        # processes. Every row must equal the fits of scalar_chain, the
        # one-fit-at-a-time oracle, along the C axis with its drop.
        X, y = tiny_dataset(4)
        sets = {("f",): X, ("g",): np.hstack([X, X[:, :1] ** 2])}
        idx = np.arange(len(y))
        folds = [(np.setdiff1d(idx, test), test) for test in np.split(idx, [12, 32])]
        c_grid = (0.5, 8.0, 2.0)
        kwargs = dict(c_grid=c_grid, gamma_grid=(0.5, 2.0))
        serial = svm.grid_search(sets, y, folds, **kwargs)
        parallel = svm.grid_search(sets, y, folds, jobs=2, **kwargs)
        assert serial.rows == parallel.rows
        assert serial.best == parallel.best
        chains = {}
        for key, kernel, c, gamma, accs, _ in serial.rows:
            cfg = svm.SvmConfig(C=c, kernel=kernel, gamma=1.0 if gamma is None else gamma)
            expected = []
            for n, (tr, te) in enumerate(folds):
                block = sets[key][tr]
                if (key, kernel, gamma, n) not in chains:
                    K = svm._kernel_matrix(block, block, kernel, cfg.gamma)
                    chains[key, kernel, gamma, n] = scalar_chain(
                        K, y[tr], c_grid, cfg.tol, cfg.max_iter)
                fit = svm._Fit(*chains[key, kernel, gamma, n][c_grid.index(c)])
                model = svm._model(block, y[tr], cfg, fit)
                expected.append(float((svm.predict(model, sets[key][te]) == y[te]).mean()))
            assert accs == tuple(expected), (key, kernel, c, gamma)

    @pytest.mark.parametrize("kernel, gamma", [("linear", 1.0), ("rbf", 0.01)])
    def test_each_fit_is_scored_as_its_model_decides(self, kernel, gamma):
        # The grid scores a fit without building its model. Its decision
        # values must be decision()'s on that model bit for bit, since an
        # accuracy would hide a drift in the last bits. Most of these fits
        # keep some but not all training rows, and a matrix product over
        # the kept rows only need not match the same columns of a product
        # over all rows (BLAS blocks the two differently). The C axis runs
        # up and back down, so kept-row sets recur and their test kernels
        # are reused.
        rng = np.random.default_rng(5)
        X = rng.normal(size=(43, 17))
        y = np.where(X[:, 0] + 0.5 * rng.normal(size=43) > 0, 1.0, -1.0)
        fold = svm._Fold(X[:34], y[:34], X[34:], svm._sq_norms(X[:34]), svm._sq_norms(X[34:]))
        scorer = svm._ChainScorer(fold, kernel, gamma)
        K = svm._kernel_matrix(fold.X_train, fold.X_train, kernel, gamma)
        Cs = (0.01, 0.1, 1.0, 10.0, 100.0, 0.1, 0.01)
        kept = []
        for _, p, fit in svm._smo([svm._Chain(K, fold.y_train, Cs)], 1e-3, 200_000):
            model = svm._model(fold.X_train, fold.y_train,
                               svm.SvmConfig(C=Cs[p], kernel=kernel, gamma=gamma), fit)
            assert np.array_equal(scorer.decision_values(fit), svm.decision(model, fold.X_test))
            kept.append(len(model.dual_coef))
        assert len(kept) == len(Cs) and any(0 < k < 34 for k in kept)
        assert len(scorer.test_kernels) < len(Cs)

    def test_each_fit_starts_from_the_previous_c(self, monkeypatch):
        X, y = tiny_dataset()
        folds = two_folds(len(y))
        c_grid = (0.5, 2.0, 8.0, 2.0)
        fits = record_fits(monkeypatch)
        svm.grid_search({("a",): X}, y, folds, c_grid=c_grid, kernels=("linear",))
        assert sorted(fits) == [(0, k, p) for k in range(2) for p in range(4)]
        cfg = svm.SvmConfig()
        for k, (tr, _) in enumerate(folds):
            block = X[tr]
            K = block @ block.T  # one operand, as the grid builds it (numpy may use syrk)
            expected = scalar_chain(K, y[tr], c_grid, cfg.tol, cfg.max_iter)
            for p in range(4):
                assert_same_fit(fits[0, k, p], expected[p])
            # The seeded fits are not the cold ones; the one after the drop is.
            cold = [scalar_smo(K, y[tr], c, cfg.tol, cfg.max_iter)[1] for c in c_grid]
            assert [fits[0, k, p].n_iter == cold[p] for p in range(4)] == [True, False, False, True]

    def test_single_class_training_fold_rejected(self):
        X, y = tiny_dataset()
        idx = np.arange(len(y))
        folds = [(idx[y > 0], idx[y < 0]), (idx[y < 0], idx[y > 0])]
        with pytest.raises(SingleClass):
            svm.grid_search({("f",): X}, y, folds, c_grid=(1.0,), kernels=("linear",))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_features_rejected(self, value):
        X, y = tiny_dataset()
        X[4, 1] = value
        with pytest.raises(DegenerateKernel):
            svm.grid_search({("f",): X}, y, two_folds(len(y)), c_grid=(1.0,), gamma_grid=(1.0,))

    def test_unsorted_c_axis_matches_cold_fits(self):
        X, y = tiny_dataset()
        folds = two_folds(len(y))
        c_grid = (4.0, 0.5, 2.0, 2.0)
        result = svm.grid_search({("a",): X}, y, folds, c_grid=c_grid,
                                 gamma_grid=(1.0,), kernels=("rbf",), tol=1e-8)
        for row, c in zip(result.rows, c_grid):
            cfg = svm.SvmConfig(C=c, kernel="rbf", gamma=1.0, tol=1e-8)
            cold = tuple(
                float((svm.predict(svm.train(X[tr], y[tr], cfg), X[te]) == y[te]).mean())
                for tr, te in folds
            )
            assert row[4] == cold, c

    def test_decreasing_c_starts_cold(self):
        # At C = 29 the ring/core folds have alphas clamped to exactly 29, and
        # 29 * fl(15 / 29) rounds to one step above 15: a scaled seed would
        # leave [0, C], so the fit at 15 must not be seeded from the one at 29.
        X, y = tiny_dataset()
        folds = two_folds(len(y))
        for tr, _ in folds:
            K = svm._kernel_matrix(X[tr], X[tr], "linear", 1.0)
            (_, _, fit), = svm._smo([svm._Chain(K, y[tr], (29.0,))], 1e-3, 200_000)
            assert (fit.alpha == 29.0).any()
        result = svm.grid_search({("a",): X}, y, folds, c_grid=(29.0, 15.0), kernels=("linear",))
        cfg = svm.SvmConfig(C=15.0, kernel="linear")
        cold = tuple(
            float((svm.predict(svm.train(X[tr], y[tr], cfg), X[te]) == y[te]).mean())
            for tr, te in folds
        )
        assert (result.rows[1][2], result.rows[1][4]) == (15.0, cold)

    def test_report_round_trip(self, tmp_path):
        X, y = tiny_dataset(5)
        result = svm.grid_search(
            {("f", 10): X}, y, two_folds(60),
            c_grid=(1.0, 4.0), gamma_grid=(0.25,),
        )
        path = tmp_path / "grid.csv"
        svm.write_grid_report(result, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == len(result.rows) + 1
        assert lines[0].startswith("feature_key,kernel,C,gamma,fold_1_accuracy")
        recorded_means = [float(line.rsplit(",", 1)[1]) for line in lines[1:]]
        assert recorded_means == [
            pytest.approx(row[5], abs=5e-7) for row in result.rows
        ]


class TestGolden:
    """train() and grid_search() output frozen before the SMO loop was
    rewritten to keep -y*grad and the working-set masks incrementally.

    tests/data/svm_golden.npz was written by the solver that recomputed
    both masks and -y*grad every iteration. Its inputs, drawn in this
    order from ``np.random.default_rng(20261018)``:

    * X: 38x105 ``rng.gamma(0.3, size=(38, 105))``, each row divided by
      its sum (L1-normalised, sparse like BoVW histograms);
    * y: ``where(rng.permutation(38) < 19, 1.0, -1.0)``;
    * X2: a second matrix drawn like X.

    train(X, y) ran for tol 1e-3 then 1e-8; within each, for C in
    ``C_GRID[::5]``, linear, then rbf for gamma in ``GAMMA_GRID[::6]``
    (50 fits). Each fit stores its support-vector row indices into X, its
    dual_coef and its bias. grid_search ran on {("a",): X, ("b",): X2}
    with the two parity folds of range(38), ``C_GRID[4::6]`` and
    ``GAMMA_GRID[6::6]`` (24 rows); it stores every row's fold accuracies
    and mean and the best row's index.
    """

    def test_train_matches_frozen_output(self):
        gold = np.load(GOLDEN)
        X, y, offsets = gold["X"], gold["y"], gold["offsets"]
        table = zip(gold["kernel"], gold["C"], gold["gamma"], gold["tol"])
        for n, (kernel, c, gamma, tol) in enumerate(table):
            cfg = svm.SvmConfig(C=float(c), kernel=svm.KERNELS[kernel],
                                gamma=float(gamma), tol=float(tol))
            model = svm.train(X, y, cfg)
            rows = gold["sv_index"][offsets[n]:offsets[n + 1]]
            assert np.array_equal(model.support_vectors, X[rows]), cfg
            assert np.array_equal(
                model.dual_coef, gold["dual_coef"][offsets[n]:offsets[n + 1]]
            ), cfg
            assert model.bias == gold["bias"][n], cfg

    def test_grid_search_matches_frozen_rows(self):
        gold = np.load(GOLDEN)
        idx = np.arange(38)
        folds = [(idx[idx % 2 == 0], idx[idx % 2 == 1]),
                 (idx[idx % 2 == 1], idx[idx % 2 == 0])]
        result = svm.grid_search(
            {("a",): gold["X"], ("b",): gold["X2"]}, gold["y"], folds,
            c_grid=tuple(gold["grid_c"]), gamma_grid=tuple(gold["grid_gamma"]),
        )
        assert np.array_equal([row[4] for row in result.rows], gold["grid_accuracies"])
        assert np.array_equal([row[5] for row in result.rows], gold["grid_means"])
        best_row = int(gold["grid_best"])
        key, kernel, c, _, accs, mean = result.rows[best_row]
        best = result.best
        assert (best.feature_key, best.config.kernel, best.config.C) == (key, kernel, c)
        assert np.array_equal(accs, gold["grid_accuracies"][best_row])
        assert result.mean_accuracy == mean
