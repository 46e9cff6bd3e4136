"""Two-class support vector classifier: SMO solver, linear/RBF kernels,
Platt probability calibration, exhaustive parameter grid search.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

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


def _sq_norms(a: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of each row of a; an overflow gives inf, unwarned."""
    with np.errstate(over="ignore"):
        return (a**2).sum(axis=1)


def _sq_distances(a_sq: np.ndarray, b_sq: np.ndarray, ab: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of a and b, given their
    squared norms a_sq and b_sq and ab = a @ b.T; non-finite inputs give
    non-finite distances, unwarned."""
    with np.errstate(over="ignore", invalid="ignore"):
        return a_sq[:, None] - 2.0 * ab + b_sq[None, :]


def _rbf(d2: np.ndarray, gamma: float) -> np.ndarray:
    return np.exp(-gamma * np.maximum(d2, 0.0))


def _check_finite(k: np.ndarray) -> np.ndarray:
    if not np.isfinite(k).all():
        raise DegenerateKernel("kernel matrix contains non-finite values")
    return k


def _kernel_matrix(a: np.ndarray, b: np.ndarray, kernel: str, gamma: float) -> np.ndarray:
    ab = a @ b.T
    if kernel == "linear":
        return _check_finite(ab)
    return _check_finite(_rbf(_sq_distances(_sq_norms(a), _sq_norms(b), ab), gamma))


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
    # Solver report of the fit that made the model: SMO steps taken and the
    # final KKT gap (above the fit's tol when max_iter ran out). Not saved.
    n_iter: int | None = None
    kkt_gap: float | None = None

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


def _check_labels(y: np.ndarray) -> None:
    if not np.all(np.abs(y) == 1.0):
        raise ValueError("labels must be +/-1")
    if len(y) < 2 or len(np.unique(y)) < 2:
        raise SingleClass("training needs both classes present")


@dataclass(frozen=True, eq=False)
class _Chain:
    """One dual problem solved at each C of an axis in turn: K is the n x n
    kernel matrix of the rows labelled y."""

    K: np.ndarray
    y: np.ndarray
    Cs: tuple


@dataclass(frozen=True)
class _Fit:
    alpha: np.ndarray  # the full dual solution, one value per training row
    n_iter: int
    kkt_gap: float
    bias: float


def _clip(same, old_i, old_j, a_i, a_j, C):
    """A stepped pair back into [0, C], by LIBSVM's branches in their
    order: along a_i - a_j = diff when y_i != y_j, else along
    a_i + a_j = total."""
    diff, total = old_i - old_j, old_i + old_j
    d_hi, d_lo = ~same & (diff > 0), ~same & ~(diff > 0)
    t_hi, t_lo = same & (total > C), same & ~(total > C)

    def put(hit, new_i, new_j):
        nonlocal a_i, a_j
        if hit.any():
            a_i, a_j = np.where(hit, new_i, a_i), np.where(hit, new_j, a_j)

    put(d_hi & (a_j < 0), diff, 0.0)
    put(d_lo & (a_i < 0), 0.0, -diff)
    put(t_hi & (a_i > C), C, total - C)
    put(t_lo & (a_j < 0), total, 0.0)
    put(d_hi & (a_i > C), C, C - diff)
    put(d_lo & (a_j > C), C + diff, C)
    put(t_hi & (a_j > C), total - C, C)
    put(t_lo & (a_i < 0), 0.0, total)
    return a_i, a_j


def _working_pair(g, y_alpha, up_bound, low_bound):
    """i, the first argmax of g over I_up, and j, the first argmin of g
    over I_low, along the last axis. I_up is y alpha < up_bound (C for
    y = +1: alpha < C; 0 for y = -1: alpha > 0) and I_low is
    y alpha > low_bound (0 for y = +1: alpha > 0; -C for y = -1:
    alpha < C). Padding, with y = alpha = 0 and both bounds 0, is in
    neither."""
    i = np.where(y_alpha < up_bound, g, -math.inf).argmax(axis=-1)
    j = np.where(y_alpha > low_bound, g, math.inf).argmin(axis=-1)
    return i, j


def _smo(chains, tol: float, max_iter: int):
    """SMO on the dual problem with the maximal-violating-pair working set
    (Fan, Chen & Lin, JMLR 2005), for many chains at once: one slot per
    chain, and each step advances every slot with one numpy operation per
    piece of arithmetic.

    A slot keeps g = -y * grad, where grad = Q alpha - 1, and per-entry
    bounds that give its working sets I_up (alpha < C for y = +1,
    alpha > 0 for y = -1) and I_low (alpha > 0 for y = +1, alpha < C for
    y = -1). i and j are the first argmax of g over I_up and argmin over
    I_low. A fit ends when the KKT violation gap g_i - g_j drops to tol,
    or after max_iter steps. The generator then yields (chain index,
    C index, _Fit) for every slot whose fit ended in that step, and those
    slots restart together at their chains' next C: from the solution just
    found when C does not decrease (alpha seeding, as in DeCoste &
    Wagstaff, KDD 2000), from zeros otherwise. A slot whose restart already
    meets the stopping rule yields again at once. Fits of one step come in
    slot order; consumers key them by (chain, C index).

    Slots are padded to the largest problem with zero Q rows and columns
    outside both working sets, so padded entries are never picked, and
    each fit takes the steps it would take alone, with the same
    floating-point results. A step moves alpha_i by y_i * gap / quad and alpha_j by
    -y_j * gap / quad before clipping: since y is +/-1, these are exactly
    LIBSVM's updates for equal and for opposite labels.
    """
    n_slots, width = len(chains), max(len(chain.y) for chain in chains)
    s = SimpleNamespace(
        chain=np.arange(n_slots), c_idx=np.zeros(n_slots, dtype=np.intp),
        C=np.zeros(n_slots), n_iter=np.zeros(n_slots, dtype=np.int64),
        i=np.zeros(n_slots, dtype=np.intp), j=np.zeros(n_slots, dtype=np.intp),
        gap=np.zeros(n_slots), y=np.zeros((n_slots, width)),
        Q_g=np.zeros((n_slots, width, width)), qd=np.zeros((n_slots, width)),
        alpha=np.zeros((n_slots, width)), g=np.zeros((n_slots, width)),
        up_bound=np.zeros((n_slots, width)), low_bound=np.zeros((n_slots, width)),
    )
    Qs = [(chain.y[:, None] * chain.y[None, :]) * chain.K for chain in chains]
    n_Cs = np.array([len(chain.Cs) for chain in chains])
    C_table = np.zeros((n_slots, n_Cs.max()))  # row k: chain k's Cs, zero-padded
    for b, (chain, Q) in enumerate(zip(chains, Qs)):
        n = len(chain.y)
        s.y[b, :n] = chain.y
        # Rows of Q times -y: since y is +/-1, adding them to g is exactly
        # the sign-flipped update of grad, so g holds the values of -y * grad.
        s.Q_g[b, :n, :n] = Q * (-chain.y)[None, :]
        s.qd[b, :n] = np.diag(Q)
        C_table[b, :len(chain.Cs)] = chain.Cs

    def start(rows, warm):
        """Start the slots in rows at their chains' current C: from their
        alpha, the previous C's solution, where warm, else from zeros."""
        chain, y = s.chain[rows], s.y[rows]
        C = C_table[chain, s.c_idx[rows]]
        up, low = np.where(y > 0, C[:, None], 0.0), np.where(y < 0, -C[:, None], 0.0)
        s.C[rows], s.n_iter[rows], s.up_bound[rows], s.low_bound[rows] = C, 0, up, low
        s.alpha[rows[~warm]] = 0.0
        alpha = s.alpha[rows]
        # -y * grad = y - y * (Q alpha): one Q alpha per warm slot, on its
        # unpadded entries; at alpha = 0 this is y itself.
        Q_alpha = np.zeros((len(rows), width))
        for r in np.flatnonzero(warm):
            n = len(Qs[chain[r]])
            Q_alpha[r, :n] = Qs[chain[r]] @ alpha[r, :n]
        g = y - y * Q_alpha
        i, j = _working_pair(g, y * alpha, up, low)
        r = np.arange(len(rows))
        s.g[rows], s.i[rows], s.j[rows], s.gap[rows] = g, i, j, g[r, i] - g[r, j]

    def result(b, alpha):
        g = s.g[b, :len(alpha)]
        free = g[(alpha > 0) & (alpha < s.C[b])]
        # the sum over the count, as np.mean computes it
        bias = free.sum() / len(free) if len(free) else (g[s.i[b]] + g[s.j[b]]) / 2.0
        return _Fit(alpha, int(s.n_iter[b]), float(s.gap[b]), float(bias))

    start(np.arange(n_slots), np.zeros(n_slots, dtype=bool))
    base = np.arange(n_slots) * width  # flat index of each slot's first entry
    Q_g_rows = s.Q_g.reshape(-1, width)
    while True:
        retired = []
        done = np.flatnonzero((s.gap <= tol) | (s.n_iter == max_iter))
        while done.size:
            chain, c_idx = s.chain[done], s.c_idx[done]
            for b, k, p, alpha in zip(done, chain, c_idx, s.alpha[done]):
                yield int(k), int(p), result(b, alpha[:len(chains[k].y)])
            more = c_idx + 1 < n_Cs[chain]
            retired.extend(done[~more])
            rows, chain, c_idx = done[more], chain[more], c_idx[more]
            s.c_idx[rows] = c_idx + 1
            start(rows, C_table[chain, c_idx + 1] >= C_table[chain, c_idx])
            done = rows[(s.gap[rows] <= tol) | (s.n_iter[rows] == max_iter)]
        if retired:
            if len(retired) == len(s.chain):
                return
            keep = np.ones(len(s.chain), dtype=bool)
            keep[retired] = False
            for name, value in vars(s).items():
                setattr(s, name, value[keep])
            base = np.arange(len(s.chain)) * width
            Q_g_rows = s.Q_g.reshape(-1, width)

        C, at_i, at_j = s.C, base + s.i, base + s.j
        y_i, y_j = s.y.take(at_i), s.y.take(at_j)
        old_i, old_j = s.alpha.take(at_i), s.alpha.take(at_j)
        Q_g_i, Q_g_j = Q_g_rows.take(at_i, axis=0), Q_g_rows.take(at_j, axis=0)
        # quad = Q_ii + Q_jj - 2 y_i y_j Q_ij, where -2 y_i y_j Q_ij = 2 y_i Q_g_ij
        two_q = (2.0 * y_i) * Q_g_i.take(at_j)
        quad = np.maximum(s.qd.take(at_i) + s.qd.take(at_j) + two_q, _TAU)
        step = s.gap / quad
        a_i, a_j = old_i + y_i * step, old_j - y_j * step
        out = np.flatnonzero((np.minimum(a_i, a_j) < 0) | (np.maximum(a_i, a_j) > C))
        if out.size:
            a_i[out], a_j[out] = _clip(y_i[out] == y_j[out], old_i[out], old_j[out],
                                      a_i[out], a_j[out], C[out])

        s.alpha.put(at_i, a_i)
        s.alpha.put(at_j, a_j)
        # g += Q_g_i * (a_i - old_i) + Q_g_j * (a_j - old_j), in place
        Q_g_i *= (a_i - old_i)[:, None]
        Q_g_j *= (a_j - old_j)[:, None]
        Q_g_i += Q_g_j
        s.g += Q_g_i
        s.n_iter += 1
        s.i, s.j = _working_pair(s.g, s.y * s.alpha, s.up_bound, s.low_bound)
        s.gap = s.g.take(base + s.i) - s.g.take(base + s.j)


def _model(X: np.ndarray, y: np.ndarray, cfg: SvmConfig, fit: _Fit) -> SvmModel:
    kept = fit.alpha > 1e-12
    return SvmModel(
        support_vectors=X[kept],
        dual_coef=(fit.alpha * y)[kept],
        bias=fit.bias,
        kernel=cfg.kernel,
        gamma=cfg.gamma,
        C=cfg.C,
        n_iter=fit.n_iter,
        kkt_gap=fit.kkt_gap,
    )


def train(X: np.ndarray, y: np.ndarray, cfg: SvmConfig = SvmConfig()) -> SvmModel:
    """One fit of the solver in _smo from zeros, a batch of one chain with
    one C. The model reports the steps taken and the final KKT gap (above
    cfg.tol when cfg.max_iter ran out)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise ValueError("X must be n x d and y a matching label vector")
    _check_labels(y)
    K = _kernel_matrix(X, X, cfg.kernel, cfg.gamma)
    (_, _, fit), = _smo([_Chain(K, y, (float(cfg.C),))], cfg.tol, cfg.max_iter)
    return _model(X, y, cfg, fit)


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


@dataclass(frozen=True, eq=False)
class _Fold:
    """One cross-validation fold as the grid search reads it: the training
    rows with their labels, the test rows, and the squared norms of both."""

    X_train: np.ndarray
    y_train: np.ndarray
    X_test: np.ndarray
    sq_train: np.ndarray
    sq_test: np.ndarray


@dataclass(frozen=True, eq=False)
class _ChainScorer:
    """Decision values on a fold's test rows for the fits of one
    (kernel, gamma) chain, without building their models."""

    fold: _Fold
    kernel: str
    gamma: float
    test_kernels: dict = field(default_factory=dict)  # kept rows -> their test kernel

    def decision_values(self, fit: _Fit) -> np.ndarray:
        """decision(_model(fold.X_train, fold.y_train, cfg, fit), fold.X_test)
        bit for bit: the same products over the training rows the fit
        keeps, with the fold's squared norms made once, and one test kernel
        per set of kept rows, which fits along C often share."""
        fold, kept = self.fold, fit.alpha > 1e-12
        key = kept.tobytes()
        k = self.test_kernels.get(key)
        if k is None:
            k = fold.X_test @ fold.X_train[kept].T
            if self.kernel == "rbf":
                k = _rbf(_sq_distances(fold.sq_test, fold.sq_train[kept], k), self.gamma)
            k = self.test_kernels[key] = _check_finite(k)
        return k @ (fit.alpha * fold.y_train)[kept] + fit.bias


def _search_feature_set(shared, task):
    """Fold accuracies of every configuration of one feature set, per
    (kernel, gamma) group and C. One _smo batch solves them all, with one
    chain per group and fold; each fold's linear Gram, squared norms and
    squared distances are built once, by the arithmetic of _kernel_matrix.
    Each fit is scored by its chain's _ChainScorer, so its predictions are
    those of the model it makes."""
    matrices, y, folds = shared
    key, groups = task
    X = matrices[key]
    blocks = []
    for train_idx, test_idx in folds:
        X_train, X_test = X[train_idx], X[test_idx]
        fold = _Fold(X_train, y[train_idx], X_test, _sq_norms(X_train), _sq_norms(X_test))
        _check_labels(fold.y_train)
        ab = X_train @ X_train.T
        blocks.append((fold, y[test_idx] > 0, ab, _sq_distances(fold.sq_train, fold.sq_train, ab)))
    chains, scorers = [], []
    for configs in groups:
        kernel, gamma = configs[0].kernel, configs[0].gamma
        Cs = tuple(float(cfg.C) for cfg in configs)
        for fold, _, ab, d2 in blocks:
            K = _check_finite(ab if kernel == "linear" else _rbf(d2, gamma))
            chains.append(_Chain(K, fold.y_train, Cs))
            scorers.append(_ChainScorer(fold, kernel, gamma))
    accs = [[[None] * len(folds) for _ in configs] for configs in groups]
    cfg = groups[0][0]
    for k, p, fit in _smo(chains, cfg.tol, cfg.max_iter):
        group, fold_idx = divmod(k, len(folds))
        positive = blocks[fold_idx][1]
        # predict's sign rule (an exact 0 goes positive); the count over the
        # length is the mean of the hits, bit for bit
        hits = (scorers[k].decision_values(fit) >= 0) == positive
        accs[group][p][fold_idx] = int(np.count_nonzero(hits)) / len(positive)
    return [[tuple(a) for a in group_accs] for group_accs in accs]


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
    iterated in the given order. One unit of (parallel) work is one feature
    set: every fit along the C axis of each (kernel, gamma, fold) starts
    from the previous C's dual solution when C does not decrease. Selection
    is the first configuration attaining the maximum unweighted mean of
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
        groups.setdefault(entry.feature_key, {}).setdefault((cfg.kernel, cfg.gamma), []).append(idx)
    tasks = [(key, [[entries[i].config for i in idxs] for idxs in by_group.values()])
             for key, by_group in groups.items()]
    results = parallel_map(_search_feature_set, (matrices, y, folds), tasks, jobs)
    fold_accs = [None] * len(entries)
    for by_group, set_accs in zip(groups.values(), results):
        for idxs, group_accs in zip(by_group.values(), set_accs):
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
