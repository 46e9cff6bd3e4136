"""Image-side preprocessing: PCA score images, mask construction,
greyscale formation, bicubic resizing and histogram equalization.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import GreyImage, HyperspectralCube, RgbImage
from .errors import (
    ConstantCube,
    ConstantImage,
    DimMismatch,
    EmptyMask,
    InputTooSmall,
    NumericalError,
    TooFewPixels,
)

GREY_COEFFS = (0.299, 0.587, 0.114)
MIN_REGION_PIXELS = 10
BACKGROUND_CANDIDATES = 3  # leading PCs tried for the background split


def _round_u8(x: np.ndarray) -> np.ndarray:
    """Half-away-from-zero rounding of non-negative values into uint8."""
    return np.floor(np.clip(x, 0.0, 255.0) + 0.5).astype(np.uint8)


# --- PCA ------------------------------------------------------------------


@dataclass(frozen=True)
class PcaResult:
    loadings: np.ndarray            # (n_components, n_bands), rows orthonormal
    score_images: np.ndarray        # (n_components, H, W); masked-out pixels 0
    explained_variance: np.ndarray  # fraction of total variance, non-increasing

    @property
    def n_components(self) -> int:
        return self.loadings.shape[0]


def pca_scores(cube: HyperspectralCube, n_components: int) -> PcaResult:
    """PCA over the masked-in pixel spectra of one cube.

    Spectra are mean-centred over the masked-in pixels only. Loadings are the
    eigenvectors of the band scatter matrix c.T @ c of the centred pixels c,
    in descending eigenvalue order; exactly equal eigenvalues put the loading
    whose largest-magnitude entry sits at the lower band first. Loadings carry
    a deterministic sign (largest-magnitude entry positive).
    """
    n_bands = cube.data.shape[2]
    if not 1 <= n_components <= n_bands:
        raise ValueError(f"n_components must be in 1..{n_bands}")
    flat = cube.data[cube.mask]
    if flat.shape[0] < n_components:
        raise TooFewPixels(
            f"need at least {n_components} masked-in pixels, got {flat.shape[0]}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        centred = flat - flat.mean(axis=0)
        scatter = centred.T @ centred
    if not np.isfinite(scatter).all():
        raise NumericalError("the band scatter of the masked-in pixels is not finite in float64")
    eigenvalues, vectors = np.linalg.eigh(scatter)
    pivot = np.argmax(np.abs(vectors), axis=0)
    keep = np.lexsort((pivot, -eigenvalues))[:n_components]
    loadings = vectors.T[keep]
    signs = np.sign(loadings[np.arange(n_components), pivot[keep]])
    signs[signs == 0] = 1.0
    loadings *= signs[:, None]

    images = np.zeros((n_components,) + cube.mask.shape, dtype=np.float64)
    images[:, cube.mask] = loadings @ centred.T
    total = float(np.trace(scatter))  # = ||c||_F^2, the summed pixel variance
    explained = (
        np.maximum(eigenvalues[keep], 0.0) / total if total > 0 else np.zeros(n_components)
    )
    return PcaResult(loadings, images, explained)


# --- thresholding ----------------------------------------------------------


def otsu_threshold(values: np.ndarray) -> float:
    """Threshold maximizing between-class variance over a 256-bin histogram
    spanning the value range.

    Empty bins between the classes leave the objective exactly flat, so a
    maximal plateau is resolved to its middle bin (the balanced split of the
    empty valley) rather than its edge.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    lo, hi = float(v.min()), float(v.max())
    if not hi > lo:
        raise ConstantImage("cannot threshold a constant image")
    hist, edges = np.histogram(v, bins=256, range=(lo, hi))
    p = hist / hist.sum()
    centres = 0.5 * (edges[:-1] + edges[1:])
    omega = np.cumsum(p)
    mu = np.cumsum(p * centres)
    mu_total = mu[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        sigma_b = (mu_total * omega - mu) ** 2 / (omega * (1.0 - omega))
    sigma_b[~np.isfinite(sigma_b)] = -1.0
    sigma_b = sigma_b[:-1]
    ties = np.flatnonzero(sigma_b == sigma_b.max())
    k = int(ties[(len(ties) - 1) // 2])
    return float(edges[k + 1])


# --- connected regions ------------------------------------------------------


def remove_small_regions(mask: np.ndarray, min_pixels: int = MIN_REGION_PIXELS) -> np.ndarray:
    """Drop 4-connected components of fewer than min_pixels true pixels.

    Run-based labelling: horizontal runs per row are unioned across adjacent
    rows wherever their column spans overlap.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ValueError("mask must be 2-D")

    parent: list[int] = []
    size: list[int] = []

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
            size[ra] += size[rb]

    rows = []
    prev: list[tuple[int, int, int]] = []
    for r in range(mask.shape[0]):
        d = np.diff(np.concatenate(([0], mask[r].astype(np.int8), [0])))
        starts = np.flatnonzero(d == 1)
        ends = np.flatnonzero(d == -1)
        runs = []
        for s, e in zip(starts, ends):
            rid = len(parent)
            parent.append(rid)
            size.append(int(e - s))
            runs.append((int(s), int(e), rid))
        i = j = 0
        while i < len(prev) and j < len(runs):
            ps, pe, pid = prev[i]
            s, e, rid = runs[j]
            if max(ps, s) < min(pe, e):
                union(pid, rid)
            if pe <= e:
                i += 1
            else:
                j += 1
        rows.append(runs)
        prev = runs

    out = np.zeros_like(mask)
    for r, runs in enumerate(rows):
        for s, e, rid in runs:
            if size[find(rid)] >= min_pixels:
                out[r, s:e] = True
    return out


def composite_mask(
    background: np.ndarray, bad_pixels: np.ndarray, small_regions: np.ndarray
) -> np.ndarray:
    """Logical AND of the background, bad-pixel and small-region masks."""
    background = np.asarray(background, dtype=bool)
    bad_pixels = np.asarray(bad_pixels, dtype=bool)
    small_regions = np.asarray(small_regions, dtype=bool)
    if not (background.shape == bad_pixels.shape == small_regions.shape):
        raise DimMismatch(
            f"mask shapes differ: {background.shape}, {bad_pixels.shape}, {small_regions.shape}"
        )
    return background & bad_pixels & small_regions


# --- greyscale images -------------------------------------------------------


def mean_image(cube: HyperspectralCube) -> GreyImage:
    """Per-pixel spectral mean, min-max scaled over masked-in pixels to
    [0, 255]. Masked-out pixels are 0; a flat cube maps to 128 everywhere."""
    means = cube.data.mean(axis=2)
    mask = cube.mask
    vals = means[mask]
    if vals.size == 0:
        raise EmptyMask("no masked-in pixels to scale over")
    lo, hi = float(vals.min()), float(vals.max())
    out = np.zeros(means.shape, dtype=np.uint8)
    if hi > lo:
        out[mask] = _round_u8((means[mask] - lo) / (hi - lo) * 255.0)
    else:
        out[mask] = 128
    return GreyImage(out)


def rgb_to_grey(img: RgbImage) -> GreyImage:
    r, g, b = (img.pixels[..., i].astype(np.float64) for i in range(3))
    y = GREY_COEFFS[0] * r + GREY_COEFFS[1] * g + GREY_COEFFS[2] * b
    return GreyImage(_round_u8(y))


# --- resizing ----------------------------------------------------------------


def _cubic_kernel(t: np.ndarray) -> np.ndarray:
    # Catmull-Rom (a = -0.5) convolution kernel
    at = np.abs(t)
    near = (1.5 * at - 2.5) * at * at + 1.0
    far = ((-0.5 * at + 2.5) * at - 4.0) * at + 2.0
    return np.where(at <= 1.0, near, np.where(at < 2.0, far, 0.0))


def _resize_axis(arr: np.ndarray, out_len: int, axis: int) -> np.ndarray:
    arr = np.moveaxis(arr, axis, -1)
    in_len = arr.shape[-1]
    x = (np.arange(out_len) + 0.5) * in_len / out_len - 0.5
    base = np.floor(x).astype(int)
    t = x - base
    taps = base[:, None] + np.arange(-1, 3)[None, :]
    taps = np.clip(taps, 0, in_len - 1)
    weights = _cubic_kernel(t[:, None] - np.arange(-1, 3)[None, :])
    out = np.einsum("...ok,ok->...o", arr[..., taps], weights)
    return np.moveaxis(out, -1, axis)


def resize_cubic(img: GreyImage, out_w: int, out_h: int) -> GreyImage:
    """Separable bicubic resize with pixel-centre alignment and clamp-to-edge
    sampling. Same-size calls return the image unchanged."""
    if img.height < 2 or img.width < 2:
        raise InputTooSmall("bicubic resize needs at least a 2x2 image")
    if out_w < 1 or out_h < 1:
        raise ValueError("output dimensions must be positive")
    work = img.pixels.astype(np.float64)
    work = _resize_axis(work, out_w, axis=1)
    work = _resize_axis(work, out_h, axis=0)
    return GreyImage(_round_u8(work))


# --- histogram equalization ---------------------------------------------------


def histogram_equalize(img: GreyImage) -> GreyImage:
    """Classic CDF remap; constant images map to all-0."""
    px = img.pixels
    counts = np.bincount(px.ravel(), minlength=256)
    n = px.size
    cdf = np.cumsum(counts)
    cdf_min = int(counts[np.flatnonzero(counts)[0]])
    if n == cdf_min:
        return GreyImage(np.zeros_like(px))
    lut = _round_u8(255.0 * (cdf - cdf_min) / (n - cdf_min))
    return GreyImage(lut[px])


# --- background mask automation ----------------------------------------------


@dataclass(frozen=True)
class BackgroundResult:
    mask: np.ndarray
    component: int     # 0-based index of the PC used
    threshold: float


def background_mask(cube: HyperspectralCube) -> BackgroundResult:
    """Background/tissue split from a PC score image.

    Component choice is automated: among the first BACKGROUND_CANDIDATES
    PCs, pick the one whose Otsu split best separates the per-pixel mean
    intensity (between-class variance), then keep the brighter side.
    """
    n_pix = int(cube.mask.sum())
    k = min(BACKGROUND_CANDIDATES, cube.data.shape[2], max(n_pix - 1, 1))
    pca = pca_scores(cube, max(k, 1))
    intensity = cube.data.mean(axis=2)

    best = None
    for c in range(pca.n_components):
        scores = pca.score_images[c][cube.mask]
        try:
            t = otsu_threshold(scores)
        except ConstantImage:
            continue
        inside = cube.mask & (pca.score_images[c] > t)
        outside = cube.mask & ~inside
        n_in, n_out = int(inside.sum()), int(outside.sum())
        if n_in == 0 or n_out == 0:
            continue
        w0 = n_in / n_pix
        w1 = n_out / n_pix
        gap = w0 * w1 * (intensity[inside].mean() - intensity[outside].mean()) ** 2
        if best is None or gap > best[0]:
            best = (gap, c, t)
    if best is None:
        raise ConstantCube("no principal component yields a usable split")

    _, c, t = best
    mask = cube.mask & (pca.score_images[c] > t)
    other = cube.mask & ~mask
    if mask.any() and other.any() and intensity[other].mean() > intensity[mask].mean():
        mask = other
    return BackgroundResult(mask, c, t)
