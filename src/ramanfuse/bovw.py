"""Visual-word dictionaries: k-means clustering of 128-d descriptors,
nearest-word quantization, count histograms and modality fusion.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModalityMismatch, TooFewDescriptors
from .seeds import rng_for

DP_DICTIONARY_SIZES = (50, 75, 100, 200, 300, 500, 1000)
RCI_DICTIONARY_SIZES = (5, 10, 25, 50, 100, 200, 300)

_ASSIGN_CHUNK = 4096  # keeps the n*k distance matrix off the heap


@dataclass(frozen=True)
class VisualDictionary:
    centroids: np.ndarray  # (k, 128)
    modality: str          # "dp" | "rci"
    train_seed: int

    def __post_init__(self):
        c = np.asarray(self.centroids, dtype=np.float64)
        if c.ndim != 2 or c.shape[0] < 1:
            raise ValueError("centroids must be a non-empty 2-D matrix")
        if not np.isfinite(c).all():
            raise ValueError("centroids must be finite")
        if self.modality not in ("dp", "rci"):
            raise ValueError(f"modality must be 'dp' or 'rci', got {self.modality!r}")
        object.__setattr__(self, "centroids", c)

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    def to_payload(self) -> dict:
        return {
            "modality": self.modality,
            "train_seed": self.train_seed,
            "centroids": self.centroids.tolist(),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "VisualDictionary":
        cents = np.asarray(payload["centroids"], dtype=np.float64)
        return cls(cents, payload["modality"], int(payload["train_seed"]))


@dataclass(frozen=True)
class WordHistogram:
    counts: np.ndarray  # (k,) integers
    modality: str

    def __post_init__(self):
        c = np.asarray(self.counts)
        if c.ndim != 1 or (c < 0).any():
            raise ValueError("counts must be a non-negative vector")
        object.__setattr__(self, "counts", c.astype(np.int64))

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def _assign(points: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-centroid labels and squared distances, chunked so memory stays
    linear in n. Ties go to the lowest centroid index (argmin semantics).

    A repeated centroid is scored once, at its first index: the matrix product
    may round one dot product differently per column, which would otherwise
    let a later copy beat its first instance."""
    c_sq = (centroids**2).sum(axis=1)
    if len(np.unique(c_sq)) < len(c_sq):  # repeated rows have equal norms
        first = np.sort(np.unique(centroids, axis=0, return_index=True)[1])
        if len(first) < len(centroids):
            labels, dist2 = _assign(points, centroids[first])
            return first[labels], dist2
    n = points.shape[0]
    labels = np.empty(n, dtype=np.int64)
    dist2 = np.empty(n, dtype=np.float64)
    for lo in range(0, n, _ASSIGN_CHUNK):
        chunk = points[lo:lo + _ASSIGN_CHUNK]
        d2 = (
            (chunk**2).sum(axis=1)[:, None]
            - 2.0 * chunk @ centroids.T
            + c_sq[None, :]
        )
        labels[lo:lo + _ASSIGN_CHUNK] = np.argmin(d2, axis=1)
        np.maximum(d2.min(axis=1), 0.0, out=dist2[lo:lo + _ASSIGN_CHUNK])
    return labels, dist2


def _plus_plus_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: each next centre drawn with probability proportional
    to squared distance from the chosen set."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    first = int(rng.integers(n))
    centroids[0] = points[first]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            centroids[i:] = points[int(rng.integers(n))]
            break
        probs = d2 / total
        pick = int(rng.choice(n, p=probs))
        centroids[i] = points[pick]
        d2 = np.minimum(d2, ((points - centroids[i]) ** 2).sum(axis=1))
    return centroids


def kmeans(
    descriptors: np.ndarray,
    k: int,
    seed: int,
    max_iter: int = 300,
    tol: float = 1e-6,
    modality: str = "dp",
) -> VisualDictionary:
    """Lloyd's algorithm with k-means++ seeding.

    Empty clusters are re-seeded to the point farthest from its current
    centroid. Stops when the largest centroid shift drops below tol.
    """
    points = np.asarray(descriptors, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("descriptors must be an n x d matrix")
    n = points.shape[0]
    if n < k:
        raise TooFewDescriptors(f"k-means needs at least k={k} descriptors, got {n}")

    rng = rng_for(seed, "kmeans", modality, k)
    centroids = _plus_plus_init(points, k, rng)
    for _ in range(max_iter):
        labels, dist2 = _assign(points, centroids)
        new = np.zeros_like(centroids)
        counts = np.bincount(labels, minlength=k).astype(np.float64)
        np.add.at(new, labels, points)
        occupied = counts > 0
        new[occupied] /= counts[occupied, None]
        for empty in np.flatnonzero(~occupied):
            far = int(np.argmax(dist2))
            new[empty] = points[far]
            dist2[far] = 0.0
        shift = np.sqrt(((new - centroids) ** 2).sum(axis=1)).max()
        centroids = new
        if shift < tol:
            break
    return VisualDictionary(centroids, modality, seed)


def inertia(descriptors: np.ndarray, dictionary: VisualDictionary) -> float:
    """Sum of squared distances to the nearest centroid.

    Distances come from explicit differences, not the expanded quadratic form
    used for assignment speed, so coincident points give exactly 0.
    """
    points = np.asarray(descriptors, dtype=np.float64)
    labels, _ = _assign(points, dictionary.centroids)
    return float(((points - dictionary.centroids[labels]) ** 2).sum())


def encode_descriptors(descriptors: np.ndarray, dictionary: VisualDictionary) -> WordHistogram:
    """Histogram of raw visual-word counts for precomputed descriptors."""
    mat = np.asarray(descriptors, dtype=np.float64).reshape(-1, 128)
    counts = np.zeros(dictionary.k, dtype=np.int64)
    if mat.shape[0]:
        labels, _ = _assign(mat, dictionary.centroids)
        counts = np.bincount(labels, minlength=dictionary.k)
    return WordHistogram(counts, dictionary.modality)


def feature_vector(hist: WordHistogram, normalize: bool = False) -> np.ndarray:
    """Histogram as a float feature vector; optional L1 normalization
    (counts carry tissue-area information, so raw is the default)."""
    v = hist.counts.astype(np.float64)
    if normalize and hist.total:
        v = v / hist.total
    return v


def fuse(h_dp: WordHistogram, h_rci: WordHistogram, normalize: bool = False) -> np.ndarray:
    """Concatenate per-modality histograms, DP block first. Normalization,
    when requested, applies per block so neither modality drowns the other."""
    if h_dp.modality != "dp" or h_rci.modality != "rci":
        raise ModalityMismatch(
            f"fusion expects (dp, rci) histograms, got ({h_dp.modality}, {h_rci.modality})"
        )
    return np.concatenate(
        [feature_vector(h_dp, normalize), feature_vector(h_rci, normalize)]
    )
