"""Patient-grouped cross-validation, classification metrics, pooled ROC/AUC,
and paired t-tests with a self-contained Student-t distribution."""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .dataio import write_table
from .errors import NumericalError, SingleClass, TooFewPatients, ZeroVariance
from .seeds import rng_for


# --- fold planning ---------------------------------------------------------------


@dataclass(frozen=True)
class FoldPlan:
    folds: tuple          # k tuples of patient ids
    reference_patients: tuple


def reference_pool(samples, reference_fraction: float, seed: int = 0) -> tuple:
    """Seeded patient-level draw: (reference patients, the other patients),
    each in draw order. Shuffled patients join the reference pool until its
    sample count reaches round(reference_fraction * len(samples))."""
    counts = Counter(record.patient_id for record in samples)
    patients = list(counts)
    order = [patients[i] for i in rng_for(seed, "fold-plan").permutation(len(patients))]
    target = int(math.floor(reference_fraction * len(samples) + 0.5))
    taken = idx = 0
    while taken < target and idx < len(order):
        taken += counts[order[idx]]
        idx += 1
    return tuple(order[:idx]), tuple(order[idx:])


def plan_folds(manifest, k: int = 5, reference_fraction: float = 0.0, seed: int = 0) -> FoldPlan:
    """The reference pool of reference_pool, plus k folds of the patients
    left over: these are dealt largest-first onto the currently smallest
    fold, so fold sample counts stay approximately balanced without
    splitting any patient."""
    reference, remaining = reference_pool(manifest.samples, reference_fraction, seed)
    if len(remaining) < k:
        raise TooFewPatients(
            f"{len(remaining)} patients left for {k} folds after the reference pool"
        )
    counts = Counter(record.patient_id for record in manifest.samples)
    by_size = sorted(range(len(remaining)), key=lambda i: (-counts[remaining[i]], i))
    folds = [[] for _ in range(k)]
    loads = [0] * k
    for i in by_size:
        dest = loads.index(min(loads))
        folds[dest].append(remaining[i])
        loads[dest] += counts[remaining[i]]
    return FoldPlan(folds=tuple(tuple(f) for f in folds), reference_patients=reference)


# --- metrics ---------------------------------------------------------------------


@dataclass(frozen=True)
class Confusion:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def accuracy(self) -> float:
        return (self.tp + self.tn) / self.total

    @property
    def sensitivity(self) -> float:
        return self.tp / (self.tp + self.fn)

    @property
    def specificity(self) -> float:
        return self.tn / (self.tn + self.fp)

    def __add__(self, other: "Confusion") -> "Confusion":
        return Confusion(
            self.tp + other.tp, self.fp + other.fp,
            self.tn + other.tn, self.fn + other.fn,
        )


def confusion(labels, predictions, positive_class) -> Confusion:
    labels = np.asarray(labels)
    predictions = np.asarray(predictions)
    if labels.shape != predictions.shape:
        raise ValueError("labels and predictions must have equal length")
    pos = labels == positive_class
    hit = predictions == positive_class
    return Confusion(
        tp=int((pos & hit).sum()),
        fp=int((~pos & hit).sum()),
        tn=int((~pos & ~hit).sum()),
        fn=int((pos & ~hit).sum()),
    )


def roc_auc(scores, labels, positive_label=1):
    """ROC by sweeping distinct score thresholds (descending) and trapezoid
    AUC, which equals the tie-adjusted pairwise ranking probability."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = labels == positive_label
    n_pos = int(pos.sum())
    n_neg = int((~pos).sum())
    if n_pos == 0 or n_neg == 0:
        raise SingleClass("ROC needs both classes present")

    order = np.argsort(-scores, kind="stable")
    sorted_pos = pos[order]
    sorted_scores = scores[order]
    points = [(0.0, 0.0)]
    tp = fp = 0
    for i in range(len(scores)):
        tp += int(sorted_pos[i])
        fp += int(~sorted_pos[i])
        if i + 1 == len(scores) or sorted_scores[i + 1] != sorted_scores[i]:
            points.append((fp / n_neg, tp / n_pos))
    auc = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        auc += (x1 - x0) * (y0 + y1) / 2.0
    return tuple(points), auc


# --- cross-validation ------------------------------------------------------------


@dataclass(frozen=True)
class EvalReport:
    fold_confusions: tuple
    fold_aucs: tuple
    pooled_confusion: Confusion
    pooled_roc: tuple
    pooled_auc: float

    @property
    def fold_accuracies(self):
        return tuple(c.accuracy for c in self.fold_confusions)

    @property
    def fold_sensitivities(self):
        return tuple(c.sensitivity for c in self.fold_confusions)

    @property
    def fold_specificities(self):
        return tuple(c.specificity for c in self.fold_confusions)

    def summary(self) -> dict:
        out = {}
        for name, values in (
            ("accuracy", self.fold_accuracies),
            ("sensitivity", self.fold_sensitivities),
            ("specificity", self.fold_specificities),
            ("auc", self.fold_aucs),
        ):
            arr = np.asarray(values)
            out[f"mean_{name}"] = float(arr.mean())
            out[f"std_{name}"] = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
        out["pooled_accuracy"] = self.pooled_confusion.accuracy
        out["pooled_auc"] = self.pooled_auc
        return out


def cross_validate(
    X: np.ndarray, y: np.ndarray, folds, fit_fn, score_fn, positive_label=1
) -> EvalReport:
    """Fit on each fold's train rows and score its test rows.

    folds are (train indices, test indices) pairs, as from
    experiments.plan_fold_indices; fit_fn(X_train, y_train) -> model;
    score_fn(model, X_test) -> (predicted labels, continuous scores).
    """
    X = np.asarray(X)
    y = np.asarray(y)
    confusions = []
    aucs = []
    all_scores = []
    all_labels = []
    for train, test in folds:
        model = fit_fn(X[train], y[train])
        predictions, scores = score_fn(model, X[test])
        confusions.append(confusion(y[test], predictions, positive_label))
        _, fold_auc = roc_auc(scores, y[test], positive_label)
        aucs.append(fold_auc)
        all_scores.append(np.asarray(scores, dtype=np.float64))
        all_labels.append(y[test])

    pooled = confusions[0]
    for c in confusions[1:]:
        pooled = pooled + c
    roc_points, pooled_auc = roc_auc(
        np.concatenate(all_scores), np.concatenate(all_labels), positive_label
    )
    return EvalReport(
        fold_confusions=tuple(confusions),
        fold_aucs=tuple(aucs),
        pooled_confusion=pooled,
        pooled_roc=roc_points,
        pooled_auc=pooled_auc,
    )


# --- Student-t machinery ---------------------------------------------------------


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    # Modified Lentz evaluation of the incomplete-beta continued fraction.
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    return h


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def student_t_cdf(t: float, df: float) -> float:
    if df <= 0:
        raise ValueError("df must be positive")
    if t == 0.0:
        return 0.5
    x = df / (df + t * t)
    tail = 0.5 * regularized_incomplete_beta(df / 2.0, 0.5, x)
    return tail if t < 0 else 1.0 - tail


def student_t_ppf(q: float, df: float) -> float:
    """Quantile by bisection on the CDF (q in (0, 1))."""
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    if q == 0.5:
        return 0.0
    lo, hi = -1.0, 1.0
    while student_t_cdf(lo, df) > q:
        lo *= 2.0
    while student_t_cdf(hi, df) < q:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if student_t_cdf(mid, df) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class TTestResult:
    mean_diff: float
    std_diff: float
    n: int
    t: float
    df: int
    p: float
    ci_low: float
    ci_high: float
    t_crit: float


def ttest_from_summary(mean_diff: float, std_diff: float, n: int) -> TTestResult:
    if n < 2:
        raise ValueError("need at least two pairs")
    if std_diff <= 0:
        raise ZeroVariance("paired differences have no spread")
    df = n - 1
    se = std_diff / math.sqrt(n)
    t = mean_diff / se
    p = 2.0 * (1.0 - student_t_cdf(abs(t), df))
    t_crit = student_t_ppf(0.975, df)
    return TTestResult(
        mean_diff=mean_diff,
        std_diff=std_diff,
        n=n,
        t=t,
        df=df,
        p=p,
        ci_low=mean_diff - t_crit * se,
        ci_high=mean_diff + t_crit * se,
        t_crit=t_crit,
    )


def paired_ttest(a, b) -> TTestResult:
    """Two-tailed paired t-test on per-fold metric vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or len(a) < 2:
        raise ValueError("inputs must be equal-length vectors of length >= 2")
    with np.errstate(over="ignore", invalid="ignore"):
        diff = a - b
        mean, sd = float(diff.mean()), float(diff.std(ddof=1))
    if not (math.isfinite(mean) and math.isfinite(sd)):
        raise NumericalError("paired differences have no finite mean and spread in float64")
    if sd <= 0:
        raise ZeroVariance("paired differences are constant")
    return ttest_from_summary(mean, sd, len(diff))


# --- report output ---------------------------------------------------------------


def write_metrics_csv(report: EvalReport, path) -> None:
    summary = report.summary()
    metrics = ("accuracy", "sensitivity", "specificity", "auc")
    folds = zip(range(1, len(report.fold_aucs) + 1), report.fold_confusions, report.fold_aucs)
    labelled = [*folds, ("pooled", report.pooled_confusion, report.pooled_auc)]
    rows = [
        [label, c.tp, c.fp, c.tn, c.fn]
        + [f"{v:.6f}" for v in (c.accuracy, c.sensitivity, c.specificity, auc)]
        for label, c, auc in labelled
    ]
    rows.append(["mean±std", "", "", "", ""]
                + [f"{summary['mean_' + m]:.6f}±{summary['std_' + m]:.6f}" for m in metrics])
    write_table(path, ["fold", "tp", "fp", "tn", "fn", *metrics], rows)


def write_roc_csv(points, path) -> None:
    write_table(path, ["fpr", "tpr"], [[f"{fpr:.6f}", f"{tpr:.6f}"] for fpr, tpr in points])


def write_roc_svg(points, auc: float, path, size: int = 400) -> None:
    """Minimal standalone ROC figure: axes, diagonal, curve, AUC label."""
    pad = 40
    span = size - 2 * pad

    def sx(v):
        return pad + v * span

    def sy(v):
        return size - pad - v * span

    poly = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in points)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<line x1="{sx(0)}" y1="{sy(0)}" x2="{sx(1)}" y2="{sy(0)}" stroke="black"/>',
        f'<line x1="{sx(0)}" y1="{sy(0)}" x2="{sx(0)}" y2="{sy(1)}" stroke="black"/>',
        f'<line x1="{sx(0)}" y1="{sy(0)}" x2="{sx(1)}" y2="{sy(1)}" stroke="#999" stroke-dasharray="4"/>',
        f'<polyline points="{poly}" fill="none" stroke="#c22" stroke-width="2"/>',
        f'<text x="{sx(0.55)}" y="{sy(0.08)}" font-size="14">AUC = {auc:.3f}</text>',
        f'<text x="{sx(0.35)}" y="{size - 8}" font-size="12">false positive rate</text>',
        f'<text x="12" y="{sy(0.35)}" font-size="12" transform="rotate(-90 12 {sy(0.35)})">true positive rate</text>',
        "</svg>",
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
