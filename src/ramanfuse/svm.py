"""Two-class support vector classifier: SMO solver, linear/RBF kernels,
Platt probability calibration, exhaustive parameter grid search.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dataio import write_table
from .errors import CalibrationFailed, DegenerateKernel, DimMismatch, SingleClass
from .parallel import parallel_map

C_GRID = tuple(2.0**p for p in range(-5, 16))        # 21 values
GAMMA_GRID = tuple(2.0**p for p in range(-15, 4))    # 19 values
KERNELS = ("linear", "rbf")

_TAU = 1e-12


@dataclass(frozen=True)
class SvmConfig:
    C: float = 1.0
    kernel: str = "linear"
    gamma: float = 1.0
    tol: float = 1e-3
    max_iter: int = 200_000

    def __post_init__(self):
        if not (math.isfinite(self.C) and math.isfinite(self.gamma)):
            raise ValueError(f"C and gamma must be finite, got C={self.C}, gamma={self.gamma}")
        if self.C <= 0:
            raise ValueError("C must be positive")
        if self.kernel not in KERNELS:
            raise ValueError(f"kernel must be one of {KERNELS}")
        if self.kernel == "rbf" and self.gamma <= 0:
            raise ValueError("gamma must be positive for rbf")


def _sq_distances(a: np.ndarray, b: np.ndarray, ab: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of a and b, given
    ab = a @ b.T."""
    return (a**2).sum(axis=1)[:, None] - 2.0 * ab + (b**2).sum(axis=1)[None, :]


def _rbf(d2: np.ndarray, gamma: float) -> np.ndarray:
    return np.exp(-gamma * np.maximum(d2, 0.0))


def _check_finite(k: np.ndarray) -> np.ndarray:
    if not np.isfinite(k).all():
        raise DegenerateKernel("kernel matrix contains non-finite values")
    return k


def _kernel_matrix(a: np.ndarray, b: np.ndarray, kernel: str, gamma: float) -> np.ndarray:
    ab = a @ b.T
    return _check_finite(ab if kernel == "linear" else _rbf(_sq_distances(a, b, ab), gamma))


@dataclass(frozen=True, eq=False)
class SvmModel:
    support_vectors: np.ndarray  # (m, d)
    dual_coef: np.ndarray        # (m,) alpha_i * y_i
    bias: float
    kernel: str
    gamma: float
    C: float
    platt_a: float | None = None
    platt_b: float | None = None
    # Solver report of the fit that made the model: SMO steps taken, the
    # final KKT gap (above the fit's tol when max_iter ran out) and the full
    # dual solution, one alpha per training row (a start for the next fit).
    # Not saved.
    n_iter: int | None = None
    kkt_gap: float | None = None
    alpha: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        sv, coef = np.asarray(self.support_vectors), np.asarray(self.dual_coef)
        if sv.ndim != 2 or coef.shape != (len(sv),) or self.kernel not in KERNELS:
            raise ValueError(f"malformed SVM model: support vectors {sv.shape}, "
                             f"dual coefficients {coef.shape}, kernel {self.kernel!r}")
        scalars = (self.bias, self.gamma, self.C, self.platt_a, self.platt_b)
        if not (np.isfinite(sv).all() and np.isfinite(coef).all()
                and all(math.isfinite(v) for v in scalars if v is not None)):
            raise ValueError("SVM model holds non-finite values")

    def to_payload(self) -> dict:
        return {
            "support_vectors": self.support_vectors.tolist(),
            "dual_coef": self.dual_coef.tolist(),
            "bias": self.bias,
            "kernel": self.kernel,
            "gamma": self.gamma,
            "C": self.C,
            "platt_a": self.platt_a,
            "platt_b": self.platt_b,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "SvmModel":
        return cls(
            support_vectors=np.asarray(payload["support_vectors"], dtype=np.float64),
            dual_coef=np.asarray(payload["dual_coef"], dtype=np.float64),
            bias=float(payload["bias"]),
            kernel=payload["kernel"],
            gamma=float(payload["gamma"]),
            C=float(payload["C"]),
            platt_a=payload.get("platt_a"),
            platt_b=payload.get("platt_b"),
        )


def train(
    X: np.ndarray,
    y: np.ndarray,
    cfg: SvmConfig = SvmConfig(),
    *,
    gram: np.ndarray | None = None,
    alpha0: np.ndarray | None = None,
) -> SvmModel:
    """SMO on the dual problem, maximal-violating-pair working set.

    The dual gradient is kept incrementally as g = -y * grad; iteration
    stops when the KKT violation gap m(alpha) - M(alpha), the largest g over
    I_up minus the smallest over I_low, drops to cfg.tol, or after
    cfg.max_iter steps. The model reports the steps taken, the final gap
    and the dual solution. gram, when given, is the kernel matrix of X with
    itself under cfg, computed by the caller (the grid search shares one
    across C). alpha0, when given, is a feasible start (0 <= alpha0 <= C,
    y @ alpha0 = 0), e.g. the solution at a smaller C (alpha seeding, as in
    DeCoste & Wagstaff, KDD 2000); the default starts from zeros.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise ValueError("X must be n x d and y a matching label vector")
    if not np.all(np.abs(y) == 1.0):
        raise ValueError("labels must be +/-1")
    n = X.shape[0]
    if n < 2 or len(np.unique(y)) < 2:
        raise SingleClass("training needs both classes present")
    if gram is None:
        K = _kernel_matrix(X, X, cfg.kernel, cfg.gamma)
    else:
        K = np.asarray(gram, dtype=np.float64)
        if K.shape != (n, n):
            raise ValueError("gram must be the n x n kernel matrix of X")
        _check_finite(K)

    C = float(cfg.C)
    if alpha0 is None:
        alpha0 = np.zeros(n)
    else:
        alpha0 = np.asarray(alpha0, dtype=np.float64)
        if alpha0.shape != (n,):
            raise ValueError(f"alpha0 must hold one value per row of X, got shape {alpha0.shape}")
        if not ((alpha0 >= 0.0) & (alpha0 <= C)).all():
            raise ValueError(f"alpha0 must lie in [0, C] = [0, {C!r}]")
        if abs(float(y @ alpha0)) > 1e-9 * C * n:
            raise ValueError("alpha0 must satisfy y @ alpha0 = 0")

    Q = (y[:, None] * y[None, :]) * K
    qd = np.diag(Q).tolist()
    # Rows of Q times -y: since y is +/-1, adding them to g is exactly the
    # sign-flipped update of grad, so g holds the values of -y * grad.
    Q_g = Q * (-y)[None, :]
    # -y * grad, where grad = Q alpha - 1 (at alpha = 0, y itself)
    g = y - y * (Q @ alpha0) if alpha0.any() else y.copy()
    labels = y.tolist()
    alpha = alpha0.tolist()
    # Working-set masks as additive penalties: 0 inside, -inf/+inf outside
    # I_up (alpha < C for y = +1, alpha > 0 for y = -1) and I_low (alpha > 0
    # for y = +1, alpha < C for y = -1). argmax/argmin of g + penalty pick
    # the first extreme index inside the mask; the gap and the bias read g
    # itself.
    pos = y > 0
    pen_up = np.where(np.where(pos, alpha0 < C, alpha0 > 0), 0.0, -math.inf)
    pen_low = np.where(np.where(pos, alpha0 > 0, alpha0 < C), 0.0, math.inf)
    g_up, g_low = np.empty(n), np.empty(n)

    n_iter = 0
    while True:
        i = int(np.add(g, pen_up, out=g_up).argmax())
        j = int(np.add(g, pen_low, out=g_low).argmin())
        gap = float(g[i] - g[j])
        if gap <= cfg.tol or n_iter == cfg.max_iter:
            break
        n_iter += 1

        y_i, y_j = labels[i], labels[j]
        grad_i, grad_j = -y_i * float(g[i]), -y_j * float(g[j])
        old_i, old_j = a_i, a_j = alpha[i], alpha[j]
        if y_i != y_j:
            quad = max(qd[i] + qd[j] + 2.0 * float(Q[i, j]), _TAU)
            delta = (-grad_i - grad_j) / quad
            diff = a_i - a_j
            a_i += delta
            a_j += delta
            if diff > 0:
                if a_j < 0:
                    a_j = 0.0
                    a_i = diff
            else:
                if a_i < 0:
                    a_i = 0.0
                    a_j = -diff
            if diff > 0:
                if a_i > C:
                    a_i = C
                    a_j = C - diff
            else:
                if a_j > C:
                    a_j = C
                    a_i = C + diff
        else:
            quad = max(qd[i] + qd[j] - 2.0 * float(Q[i, j]), _TAU)
            delta = (grad_i - grad_j) / quad
            total = a_i + a_j
            a_i -= delta
            a_j += delta
            if total > C:
                if a_i > C:
                    a_i = C
                    a_j = total - C
            else:
                if a_j < 0:
                    a_j = 0.0
                    a_i = total
            if total > C:
                if a_j > C:
                    a_j = C
                    a_i = total - C
            else:
                if a_i < 0:
                    a_i = 0.0
                    a_j = total

        alpha[i], alpha[j] = a_i, a_j
        g += Q_g[i] * (a_i - old_i) + Q_g[j] * (a_j - old_j)
        for k, a in ((i, a_i), (j, a_j)):
            in_up, in_low = (a < C, a > 0) if labels[k] > 0 else (a > 0, a < C)
            pen_up[k] = 0.0 if in_up else -math.inf
            pen_low[k] = 0.0 if in_low else math.inf

    alpha = np.array(alpha)
    free = (alpha > 0) & (alpha < C)
    if free.any():
        bias = float(g[free].mean())
    else:
        bias = float((g[i] + g[j]) / 2.0)

    kept = alpha > 1e-12
    return SvmModel(
        support_vectors=X[kept].copy(),
        dual_coef=(alpha * y)[kept],
        bias=bias,
        kernel=cfg.kernel,
        gamma=cfg.gamma,
        C=cfg.C,
        n_iter=n_iter,
        kkt_gap=gap,
        alpha=alpha,
    )


def decision(model: SvmModel, x: np.ndarray) -> np.ndarray:
    """Signed distance-like score; accepts a single vector or an n x d
    batch, returning a scalar or a vector accordingly."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    batch = x[None, :] if single else x
    if batch.shape[1] != model.support_vectors.shape[1]:
        raise DimMismatch(
            f"expected {model.support_vectors.shape[1]} features, got {batch.shape[1]}"
        )
    k = _kernel_matrix(batch, model.support_vectors, model.kernel, model.gamma)
    values = k @ model.dual_coef + model.bias
    return float(values[0]) if single else values


def predict(model: SvmModel, x: np.ndarray):
    """Class label: sign of the decision value; an exact 0 goes positive."""
    d = decision(model, x)
    if np.isscalar(d):
        return 1 if d >= 0 else -1
    return np.where(d >= 0, 1, -1)


def predict_proba(model: SvmModel, x: np.ndarray):
    """Calibrated P(positive); requires a calibrated model."""
    if model.platt_a is None:
        raise ValueError("model is not calibrated")
    f = decision(model, x)
    z = model.platt_a * np.asarray(f) + model.platt_b
    p = np.where(z >= 0, np.exp(-z) / (1.0 + np.exp(-z)), 1.0 / (1.0 + np.exp(z)))
    return float(p) if np.isscalar(f) else p


def calibrate(
    model: SvmModel, X: np.ndarray, y: np.ndarray, max_iter: int = 100
) -> SvmModel:
    """Platt scaling on training decision values.

    Newton iteration on the regularized targets t+ = (N+ + 1)/(N+ + 2),
    t- = 1/(N- + 2); no internal cross-validation (the scores feed ROC
    ranking, which only needs monotone calibration).
    """
    f = decision(model, np.asarray(X, dtype=np.float64))
    y = np.asarray(y)
    n_pos = int((y > 0).sum())
    n_neg = int((y < 0).sum())
    t = np.where(y > 0, (n_pos + 1.0) / (n_pos + 2.0), 1.0 / (n_neg + 2.0))

    a, b = 0.0, math.log((n_neg + 1.0) / (n_pos + 1.0))
    sigma = 1e-12
    min_step = 1e-10

    def objective(a_, b_):
        z = a_ * f + b_
        return float(
            np.sum(np.where(z >= 0, t * z + np.log1p(np.exp(-z)), (t - 1) * z + np.log1p(np.exp(z))))
        )

    fval = objective(a, b)
    for _ in range(max_iter):
        z = a * f + b
        p = np.where(z >= 0, np.exp(-z) / (1 + np.exp(-z)), 1 / (1 + np.exp(z)))
        q = 1.0 - p
        d1 = t - p
        d2 = p * q
        g1 = float((f * d1).sum())
        g2 = float(d1.sum())
        if abs(g1) < 1e-5 and abs(g2) < 1e-5:
            return replace(model, platt_a=a, platt_b=b)
        h11 = float((f * f * d2).sum()) + sigma
        h22 = float(d2.sum()) + sigma
        h21 = float((f * d2).sum())
        det = h11 * h22 - h21 * h21
        da = -(h22 * g1 - h21 * g2) / det
        db = -(-h21 * g1 + h11 * g2) / det
        gd = g1 * da + g2 * db

        step = 1.0
        while step >= min_step:
            new_a, new_b = a + step * da, b + step * db
            new_f = objective(new_a, new_b)
            if new_f < fval + 1e-4 * step * gd:
                a, b, fval = new_a, new_b, new_f
                break
            step /= 2.0
        else:
            raise CalibrationFailed("line search stalled")
    raise CalibrationFailed(f"no convergence after {max_iter} iterations")


# --- grid search ---------------------------------------------------------------


@dataclass(frozen=True)
class GridEntry:
    feature_key: tuple
    config: SvmConfig


@dataclass(frozen=True)
class GridResult:
    best: GridEntry
    mean_accuracy: float
    fold_accuracies: tuple
    rows: tuple  # one report row per configuration, enumeration order


def enumerate_grid(
    feature_keys,
    c_grid=C_GRID,
    gamma_grid=GAMMA_GRID,
    kernels=KERNELS,
    tol: float = 1e-3,
) -> list[GridEntry]:
    """Deterministic enumeration: feature sets in given order, linear before
    rbf, C ascending, gamma ascending (linear has no gamma axis). An unknown
    kernel, an empty enumeration or the rbf kernel without a gamma value is a
    ValueError."""
    if "rbf" in kernels and not len(gamma_grid):
        raise ValueError("the rbf kernel needs at least one gamma value")
    entries = []
    for key in feature_keys:
        key = key if isinstance(key, tuple) else (key,)
        for kernel in kernels:
            for c in c_grid:
                for g in gamma_grid if kernel == "rbf" else (SvmConfig.gamma,):
                    cfg = SvmConfig(C=c, kernel=kernel, gamma=g, tol=tol)
                    entries.append(GridEntry(key, cfg))
    if not entries:
        raise ValueError("the grid is empty: it needs a feature set, a kernel and a C value")
    return entries


def _fold_grams(X: np.ndarray, folds) -> list:
    """Per fold, the training block's linear Gram and squared distances,
    by the arithmetic of _kernel_matrix on that block with itself."""
    grams = []
    for train_idx, _ in folds:
        a = X[train_idx]
        ab = a @ a.T
        grams.append((ab, _sq_distances(a, a, ab)))
    return grams


def _evaluate_group(shared, group):
    """Fold accuracies of every configuration of one (feature set, kernel,
    gamma) group; each fold's kernel matrix is built once for all its C.
    Each fit starts from the previous fit's dual solution, which is feasible
    when C does not decrease; a fit at a smaller C starts from zeros."""
    matrices, grams, y, folds = shared
    key, configs = group
    X = matrices[key]
    kernel, gamma = configs[0].kernel, configs[0].gamma
    accs = [[] for _ in configs]
    for (train_idx, test_idx), (ab, d2) in zip(folds, grams[key]):
        X_train, y_train = X[train_idx], y[train_idx]
        X_test, y_test = X[test_idx], y[test_idx]
        gram = ab if kernel == "linear" else _rbf(d2, gamma)
        model = None
        for cfg, fold_accs in zip(configs, accs):
            alpha0 = model.alpha if model is not None and cfg.C >= model.C else None
            model = train(X_train, y_train, cfg, gram=gram, alpha0=alpha0)
            fold_accs.append(float((predict(model, X_test) == y_test).mean()))
    return [tuple(a) for a in accs]


def grid_search(
    feature_sets: dict,
    y: np.ndarray,
    folds,
    c_grid=C_GRID,
    gamma_grid=GAMMA_GRID,
    kernels=KERNELS,
    tol: float = 1e-3,
    jobs: int = 1,
) -> GridResult:
    """Exhaustive CV accuracy search.

    feature_sets maps a feature key (e.g. (k_dp, k_rci)) to its n x d matrix,
    iterated in the given order. One unit of (parallel) work is one
    (feature set, kernel, gamma) group over the whole C axis. Selection is
    the first configuration attaining the maximum unweighted mean of
    per-fold accuracies, so results do not depend on worker scheduling.
    """
    y = np.asarray(y, dtype=np.float64)
    folds = [(np.asarray(tr), np.asarray(te)) for tr, te in folds]
    matrices = {
        (key if isinstance(key, tuple) else (key,)): np.asarray(mat, dtype=np.float64)
        for key, mat in feature_sets.items()
    }
    entries = enumerate_grid(matrices, c_grid, gamma_grid, kernels, tol)
    groups = {}
    for idx, entry in enumerate(entries):
        cfg = entry.config
        groups.setdefault((entry.feature_key, cfg.kernel, cfg.gamma), []).append(idx)
    grams = {key: _fold_grams(X, folds) for key, X in matrices.items()}
    tasks = [(key, [entries[i].config for i in idxs]) for (key, _, _), idxs in groups.items()]
    results = parallel_map(_evaluate_group, (matrices, grams, y, folds), tasks, jobs)
    fold_accs = [None] * len(entries)
    for idxs, group_accs in zip(groups.values(), results):
        for idx, accs in zip(idxs, group_accs):
            fold_accs[idx] = accs

    rows = []
    best_idx, best_mean = None, -1.0
    for idx, (entry, accs) in enumerate(zip(entries, fold_accs)):
        mean = float(np.mean(accs))
        rows.append(
            (entry.feature_key, entry.config.kernel, entry.config.C,
             entry.config.gamma if entry.config.kernel == "rbf" else None,
             accs, mean)
        )
        if mean > best_mean:
            best_idx, best_mean = idx, mean
    return GridResult(
        best=entries[best_idx],
        mean_accuracy=best_mean,
        fold_accuracies=rows[best_idx][4],
        rows=tuple(rows),
    )


def write_grid_report(result: GridResult, path) -> None:
    """CSV: one row per configuration in enumeration order."""
    n_folds = len(result.rows[0][4]) if result.rows else 0
    write_table(
        path,
        ["feature_key", "kernel", "C", "gamma"]
        + [f"fold_{i + 1}_accuracy" for i in range(n_folds)]
        + ["mean_accuracy"],
        [
            ["+".join(str(k) for k in key), kernel, repr(c), "" if gamma is None else repr(gamma)]
            + [f"{a:.6f}" for a in accs]
            + [f"{mean:.6f}"]
            for key, kernel, c, gamma, accs, mean in result.rows
        ],
    )
