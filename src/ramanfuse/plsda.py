"""Partial least squares discriminant analysis on median spectra: NIPALS
fitting, 0/1-coded class scoring, and repeated-split model selection over a
pretreatment menu."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectral
from .dataio import write_table
from .errors import (
    DimMismatch,
    InsufficientClassCoverage,
    RankDeficient,
    SingleClass,
)
from .parallel import parallel_map
from .seeds import rng_for

# Operating points used for the two clinical tasks (kept as configuration,
# chosen upstream by the repeated-split selection protocol below).
NCC_PRETREATMENT = "sg:15:3:2"
NCC_N_LV = 9
G3G4_PRETREATMENT = "fluor+sg:15:3:1"
G3G4_N_LV = 4

DEFAULT_LV_RANGE = tuple(range(1, 16))
_WEIGHT_EPS = 1e-12


@dataclass(frozen=True, eq=False)
class PlsModel:
    n_lv: int
    x_mean: np.ndarray   # (p,)
    y_mean: float
    weights: np.ndarray  # (p, n_lv)
    loadings: np.ndarray  # (p, n_lv)
    q: np.ndarray        # (n_lv,)
    beta: np.ndarray     # (p,)
    pretreatment: spectral.PretreatmentSpec | None = None

    def to_payload(self) -> dict:
        return {
            "n_lv": self.n_lv,
            "x_mean": self.x_mean.tolist(),
            "y_mean": self.y_mean,
            "weights": self.weights.tolist(),
            "loadings": self.loadings.tolist(),
            "q": self.q.tolist(),
            "beta": self.beta.tolist(),
            "pretreatment": None if self.pretreatment is None else str(self.pretreatment),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "PlsModel":
        pretreatment = payload.get("pretreatment")
        return cls(
            n_lv=int(payload["n_lv"]),
            x_mean=np.asarray(payload["x_mean"], dtype=np.float64),
            y_mean=float(payload["y_mean"]),
            weights=np.asarray(payload["weights"], dtype=np.float64),
            loadings=np.asarray(payload["loadings"], dtype=np.float64),
            q=np.asarray(payload["q"], dtype=np.float64),
            beta=np.asarray(payload["beta"], dtype=np.float64),
            pretreatment=None if pretreatment is None else spectral.parse_pretreatment(pretreatment),
        )


def _nipals_path(xc: np.ndarray, yc: np.ndarray, lv_max: int, strict: bool):
    """Run the deflation recursion up to lv_max components.

    Returns (W, P, q) possibly shorter than lv_max when strict is False and
    the residual collapses early; raises RankDeficient when strict."""
    e = xc.copy()
    f = yc.copy()
    ws, ps, qs = [], [], []
    for _ in range(lv_max):
        w = e.T @ f
        norm = np.linalg.norm(w)
        if norm < _WEIGHT_EPS:
            if strict:
                raise RankDeficient("weight vector norm underflow; reduce n_lv")
            break
        w = w / norm
        t = e @ w
        tt = float(t @ t)
        if tt < _WEIGHT_EPS:
            if strict:
                raise RankDeficient("score vector collapsed; reduce n_lv")
            break
        p = e.T @ t / tt
        q = float(f @ t) / tt
        e = e - np.outer(t, p)
        f = f - q * t
        ws.append(w)
        ps.append(p)
        qs.append(q)
    if not ws:
        empty = np.zeros((xc.shape[1], 0))
        return empty, empty.copy(), np.array([])
    return np.column_stack(ws), np.column_stack(ps), np.array(qs)


def _beta_from_path(weights, loadings, q):
    # W (P'W)^-1 q collapses the recursion into one regression vector.
    return weights @ np.linalg.solve(loadings.T @ weights, q)


def fit_pls(
    X: np.ndarray,
    y: np.ndarray,
    n_lv: int,
    pretreatment: spectral.PretreatmentSpec | None = None,
) -> PlsModel:
    """NIPALS PLS1 against a 0/1 class code, on mean-centered data."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise ValueError("X must be n x p with a matching response vector")
    n, p = X.shape
    if n < 2 or len(np.unique(y)) < 2:
        raise SingleClass("fitting needs both classes present")
    if not 1 <= n_lv <= min(n - 1, p):
        raise ValueError(f"n_lv must be in [1, {min(n - 1, p)}]")

    x_mean = X.mean(axis=0)
    y_mean = float(y.mean())
    weights, loadings, q = _nipals_path(X - x_mean, y - y_mean, n_lv, strict=True)
    return PlsModel(
        n_lv=n_lv,
        x_mean=x_mean,
        y_mean=y_mean,
        weights=weights,
        loadings=loadings,
        q=q,
        beta=_beta_from_path(weights, loadings, q),
        pretreatment=pretreatment,
    )


def predict_score(model: PlsModel, x: np.ndarray):
    """Continuous response estimate; accepts one spectrum or an n x p batch."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    batch = x[None, :] if single else x
    if batch.shape[1] != model.x_mean.shape[0]:
        raise DimMismatch(
            f"expected {model.x_mean.shape[0]} points, got {batch.shape[1]}"
        )
    scores = (batch - model.x_mean) @ model.beta + model.y_mean
    return float(scores[0]) if single else scores


def predict_class(model: PlsModel, x: np.ndarray):
    """(label, score): label 1 when the score reaches the 0.5 midpoint."""
    score = predict_score(model, x)
    if np.isscalar(score):
        return (1 if score >= 0.5 else 0), score
    return np.where(score >= 0.5, 1, 0), score


@dataclass(frozen=True)
class SelectionResult:
    pretreatment: spectral.PretreatmentSpec
    n_lv: int
    mean_product: float
    mean_accuracy: float
    mean_sensitivity: float
    mean_specificity: float
    rows: tuple  # (pretreatment_str, n_lv, product, accuracy, sensitivity, specificity)


def _split_indices(rng, y, train_count, max_tries=1000):
    n = len(y)
    for _ in range(max_tries):
        order = rng.permutation(n)
        train, test = order[:train_count], order[train_count:]
        if len(np.unique(y[train])) == 2 and len(np.unique(y[test])) == 2:
            return train, test
    raise InsufficientClassCoverage(
        "could not draw a split with both classes on each side"
    )


def _repeat_metrics(shared, repeat):
    """One split evaluated for every (pretreatment, LV count) cell.

    heads[m] is every sample through the stateless head of chain m; only the
    chain's tail from its first MSC step on is fitted, on the training rows.
    """
    heads, tails, y, lv_values, seed, train_count = shared
    rng = rng_for(seed, "pls-select", repeat)
    train, test = _split_indices(rng, y, train_count)
    lv_max = max(lv_values)
    cells = np.empty((len(tails), len(lv_values), 4))
    for m_idx, (head, tail) in enumerate(zip(heads, tails)):
        fitted, tr = spectral.fit_pretreatment(tail, head[train])
        te = fitted.apply(head[test])
        x_mean = tr.mean(axis=0)
        y_mean = float(y[train].mean())
        cap = min(lv_max, len(train) - 1, tr.shape[1])
        weights, loadings, q = _nipals_path(tr - x_mean, y[train] - y_mean, cap, strict=False)
        # Scores for every LV depth in one deflation pass over the test rows.
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


def select_pls_model(
    X: np.ndarray,
    y: np.ndarray,
    menu=None,
    lv_values=DEFAULT_LV_RANGE,
    n_repeats: int = 200,
    split: float = 0.7,
    seed: int = 0,
    jobs: int = 1,
) -> SelectionResult:
    """Repeated random-split scoring of every pretreatment x LV-count cell.

    Each repeat draws one 70/30 split (both classes required on both sides)
    shared by all cells; the winner maximizes the mean per-repeat
    sensitivity-specificity product, ties broken by higher mean accuracy and
    then by fewer latent variables.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(np.unique(y)) < 2:
        raise SingleClass("selection needs both classes present")
    menu = list(spectral.standard_menu() if menu is None else menu)
    if not menu:
        raise ValueError("the pretreatment menu is empty")
    lv_values = tuple(lv_values)
    train_count = int(np.floor(split * len(y) + 0.5))
    if train_count < 2 or len(y) - train_count < 2:
        raise InsufficientClassCoverage("too few samples for the requested split")

    # A stateless head transforms each row alone, so it runs once on all
    # samples and each split indexes its rows: the same bits as per split.
    heads, tails = zip(*(spec.split_at_msc() for spec in menu))
    heads = [spectral.fit_pretreatment(head, X)[1] for head in heads]
    shared = (heads, tails, y, lv_values, seed, train_count)
    means = np.mean(parallel_map(_repeat_metrics, shared, range(n_repeats), jobs), axis=0)

    rows = []
    best = None
    best_key = None
    for m_idx, spec in enumerate(menu):
        for l_idx, n_lv in enumerate(lv_values):
            product, acc, sens, spec_ = (float(v) for v in means[m_idx, l_idx])
            rows.append((str(spec), n_lv, product, acc, sens, spec_))
            key = (product, acc, -n_lv)
            if best_key is None or key > best_key:
                best_key = key
                best = (spec, n_lv, product, acc, sens, spec_)
    return SelectionResult(
        pretreatment=best[0],
        n_lv=best[1],
        mean_product=best[2],
        mean_accuracy=best[3],
        mean_sensitivity=best[4],
        mean_specificity=best[5],
        rows=tuple(rows),
    )


def write_selection_report(result: SelectionResult, path) -> None:
    """CSV: one row per (pretreatment, LV count) cell with its mean scores."""
    write_table(
        path,
        ["pretreatment", "n_lv", "mean_product", "mean_accuracy",
         "mean_sensitivity", "mean_specificity"],
        [[row[0], row[1]] + [f"{v:.6f}" for v in row[2:]] for row in result.rows],
    )
