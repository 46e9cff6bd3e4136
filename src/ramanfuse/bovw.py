"""Visual-word dictionaries: k-means clustering of 128-d descriptors,
nearest-word quantization, word counts and word-frequency matrices.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TooFewDescriptors
from .seeds import rng_for

DP_DICTIONARY_SIZES = (50, 75, 100, 200, 300, 500, 1000)
RCI_DICTIONARY_SIZES = (5, 10, 25, 50, 100, 200, 300)

_ASSIGN_CHUNK = 4096  # keeps the n*k distance matrix off the heap


@dataclass(frozen=True, eq=False)
class VisualDictionary:
    centroids: np.ndarray  # (k, 128)
    modality: str          # "dp" | "rci"
    train_seed: int
    # Report of the k-means run that made the dictionary: Lloyd iterations
    # taken and the largest centroid shift of the last one (below tol when
    # it converged, tol or above when max_iter ran out). Not saved.
    n_iter: int | None = None
    shift: float | None = None

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
    centroid. Stops when the largest centroid shift drops below tol, or
    after max_iter iterations; the dictionary reports the iterations taken
    and the last shift.
    """
    points = np.asarray(descriptors, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("descriptors must be an n x d matrix")
    if k < 1:
        raise ValueError(f"k-means needs k >= 1, got {k}")
    n = points.shape[0]
    if n < k:
        raise TooFewDescriptors(f"k-means needs at least k={k} descriptors, got {n}")

    rng = rng_for(seed, "kmeans", modality, k)
    centroids = _plus_plus_init(points, k, rng)
    n_iter, shift = 0, math.inf
    for n_iter in range(1, max_iter + 1):
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
        shift = float(np.sqrt(((new - centroids) ** 2).sum(axis=1)).max())
        centroids = new
        if shift < tol:
            break
    return VisualDictionary(centroids, modality, seed, n_iter=n_iter, shift=shift)


def encode_descriptors(descriptors: np.ndarray, dictionary: VisualDictionary) -> np.ndarray:
    """(k,) int64 visual-word counts of one set of precomputed descriptors."""
    mat = np.asarray(descriptors, dtype=np.float64).reshape(-1, 128)
    if not mat.shape[0]:
        return np.zeros(dictionary.k, dtype=np.int64)
    labels, _ = _assign(mat, dictionary.centroids)
    return np.bincount(labels, minlength=dictionary.k).astype(np.int64)


def word_frequencies(descriptor_sets, dictionary: VisualDictionary) -> np.ndarray:
    """(n, k) word frequencies, one row per descriptor set: its counts over
    its descriptor total. An empty set gives a zero row, no sets (0, k)."""
    counts = np.array(
        [encode_descriptors(d, dictionary) for d in descriptor_sets], dtype=np.int64
    ).reshape(-1, dictionary.k)
    return counts / np.maximum(counts.sum(axis=1, keepdims=True), 1)
