"""Spectrum-level pretreatments, bad-pixel detection, median spectra.

All pretreatment functions accept a 1-D spectrum or a 2-D stack of spectra
(one per row) and transform along the last axis. They are pure and never
modify their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .dataio import HyperspectralCube
from .errors import (
    DegenerateFit,
    EmptyMask,
    MalformedFile,
    SpectrumTooShort,
    ZeroVariance,
)

FLUOR_WINDOW = 301  # 0-order smoothing window for fluorescence background


@dataclass(frozen=True)
class Spectrum:
    wavenumbers: np.ndarray
    intensities: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "wavenumbers", np.asarray(self.wavenumbers, dtype=np.float64))
        object.__setattr__(self, "intensities", np.asarray(self.intensities, dtype=np.float64))
        if self.wavenumbers.shape != self.intensities.shape or self.wavenumbers.ndim != 1:
            raise MalformedFile("spectrum axes must be 1-D and equal length")
        if not np.all(np.isfinite(self.intensities)):
            raise MalformedFile("spectrum contains non-finite intensities")


# --- basic pretreatments -----------------------------------------------------


def snv(x: np.ndarray) -> np.ndarray:
    """Standard normal variate: per-spectrum zero mean, unit (n-1) std."""
    x = np.asarray(x, dtype=np.float64)
    mean = x.mean(axis=-1, keepdims=True)
    std = x.std(axis=-1, ddof=1, keepdims=True)
    if np.any(std <= 1e-12 * np.maximum(1.0, np.abs(mean))):
        raise ZeroVariance("constant spectrum has no SNV transform")
    return (x - mean) / std


@lru_cache(maxsize=4096)
def _savgol_weights(left: int, right: int, poly_order: int, deriv_order: int) -> np.ndarray:
    """Least-squares filter weights for offsets -left..right evaluated at 0.

    The fitted polynomial's deriv_order-th derivative at the centre equals
    weights @ values (unit sample spacing). Cached, so read-only: a filter of
    window w needs w weight vectors (centre plus edge fits) on every call.
    """
    offsets = np.arange(-left, right + 1, dtype=np.float64)
    A = np.vander(offsets, poly_order + 1, increasing=True)
    pinv = np.linalg.pinv(A)
    weights = math.factorial(deriv_order) * pinv[deriv_order]
    weights.flags.writeable = False
    return weights


def savitzky_golay(x: np.ndarray, window: int, poly_order: int, deriv_order: int = 0) -> np.ndarray:
    """Savitzky-Golay smoothing / differentiation.

    Interior points use the symmetric window; points within half a window of
    either end are fit over the offsets that remain in range (no padding).
    Derivatives are per sample index, not per wavenumber unit.
    """
    if window % 2 == 0 or window <= poly_order or deriv_order > poly_order or poly_order < 0:
        raise ValueError("require odd window > poly_order >= deriv_order >= 0")
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1]
    if n < window:
        raise SpectrumTooShort(f"need at least {window} points, got {n}")
    half = window // 2
    out = np.empty_like(x)
    centre = _savgol_weights(half, half, poly_order, deriv_order)
    windows = np.lib.stride_tricks.sliding_window_view(x, window, axis=-1)
    out[..., half:n - half] = windows @ centre
    for i in range(half):
        w_lo = _savgol_weights(i, half, poly_order, deriv_order)
        out[..., i] = x[..., : i + half + 1] @ w_lo
        w_hi = _savgol_weights(half, i, poly_order, deriv_order)
        out[..., n - 1 - i] = x[..., n - 1 - i - half:] @ w_hi
    return out


def msc(x: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Multiplicative scatter correction against a reference spectrum.

    Fits x ~ a + b * reference by least squares and returns (x - a) / b.
    """
    x = np.asarray(x, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    ref_c = reference - reference.mean()
    denom = float(ref_c @ ref_c)
    if denom == 0.0:
        raise ZeroVariance("MSC reference spectrum is constant")
    b = (x - x.mean(axis=-1, keepdims=True)) @ ref_c / denom
    if np.any(np.abs(b) < 1e-12):
        raise DegenerateFit("MSC slope vanished")
    b = b[..., np.newaxis] if x.ndim > 1 else b
    a = x.mean(axis=-1, keepdims=True) - b * reference.mean()
    return (x - a) / b


def remove_fluorescence(x: np.ndarray) -> np.ndarray:
    """Subtract an exaggerated 0-order smooth (window 301) from the spectrum."""
    return np.asarray(x, dtype=np.float64) - savitzky_golay(x, FLUOR_WINDOW, 0, 0)


# --- pretreatment specifications ----------------------------------------------


@dataclass(frozen=True)
class SavGolStep:
    window: int
    poly_order: int
    deriv_order: int

    def __post_init__(self):
        if self.window % 2 == 0 or self.window <= self.poly_order or self.deriv_order > self.poly_order:
            raise ValueError(f"invalid Savitzky-Golay step {self}")

    def __str__(self):
        return f"sg:{self.window}:{self.poly_order}:{self.deriv_order}"


@dataclass(frozen=True)
class SnvStep:
    def __str__(self):
        return "snv"


@dataclass(frozen=True)
class MscStep:
    def __str__(self):
        return "msc"


@dataclass(frozen=True)
class FluorStep:
    def __str__(self):
        return "fluor"


@dataclass(frozen=True)
class PretreatmentSpec:
    """An ordered chain of pretreatment steps; empty chain is 'none'."""

    steps: tuple = ()

    def __str__(self):
        return "+".join(str(s) for s in self.steps) if self.steps else "none"

    def split_at_msc(self) -> tuple["PretreatmentSpec", "PretreatmentSpec"]:
        """(head, tail): the chain cut before its first MSC step. The head is
        stateless, so it transforms a spectrum the same way whatever the
        training set; only the tail has state to fit."""
        cut = next(
            (i for i, step in enumerate(self.steps) if isinstance(step, MscStep)),
            len(self.steps),
        )
        return PretreatmentSpec(self.steps[:cut]), PretreatmentSpec(self.steps[cut:])

    @property
    def min_length(self) -> int:
        """Shortest spectrum the chain can process (widest filter window)."""
        length = 1
        for step in self.steps:
            if isinstance(step, SavGolStep):
                length = max(length, step.window)
            elif isinstance(step, FluorStep):
                length = max(length, FLUOR_WINDOW)
        return length


def parse_pretreatment(text: str) -> PretreatmentSpec:
    """Parse a chain string such as ``fluor+sg:15:3:1`` or ``none``."""
    cleaned = text.strip().lower()
    if cleaned == "none":
        return PretreatmentSpec()
    steps = []
    for token in cleaned.split("+"):
        token = token.strip()
        if token == "snv":
            steps.append(SnvStep())
        elif token == "msc":
            steps.append(MscStep())
        elif token == "fluor":
            steps.append(FluorStep())
        elif token.startswith("sg:"):
            parts = token.split(":")
            if len(parts) != 4:
                raise ValueError(f"savitzky-golay step needs sg:window:poly:deriv, got {token!r}")
            steps.append(SavGolStep(int(parts[1]), int(parts[2]), int(parts[3])))
        else:
            raise ValueError(f"unknown pretreatment token {token!r}")
    return PretreatmentSpec(tuple(steps))


def standard_menu() -> list[PretreatmentSpec]:
    """The seven single pretreatments, each with and without a fluorescence
    removal prefix: 14 chains in total."""
    singles = ["none", "snv", "sg:15:3:1", "sg:15:3:2", "snv+sg:15:3:1", "snv+sg:15:3:2", "msc"]
    menu = [parse_pretreatment(s) for s in singles]
    menu += [PretreatmentSpec((FluorStep(),) + spec.steps) for spec in menu[:7]]
    return menu


@dataclass(frozen=True)
class FittedPretreatment:
    """A pretreatment chain with learned state (MSC reference spectra)."""

    spec: PretreatmentSpec
    references: tuple  # per step, None except for MSC steps

    def apply(self, x: np.ndarray) -> np.ndarray:
        out = np.asarray(x, dtype=np.float64)
        for step, ref in zip(self.spec.steps, self.references):
            out = _apply_step(step, out, ref)
        return out


def _apply_step(step, x, reference):
    if isinstance(step, SnvStep):
        return snv(x)
    if isinstance(step, MscStep):
        return msc(x, reference)
    if isinstance(step, FluorStep):
        return remove_fluorescence(x)
    if isinstance(step, SavGolStep):
        return savitzky_golay(x, step.window, step.poly_order, step.deriv_order)
    raise TypeError(f"unknown step {step!r}")


def fit_pretreatment(
    spec: PretreatmentSpec, X: np.ndarray
) -> tuple[FittedPretreatment, np.ndarray]:
    """Learn chain state on training spectra (rows of X); returns the fitted
    chain and X transformed by it (equal to its apply(X), computed once).

    MSC references are the mean training spectrum in the space reached by the
    preceding steps; stateless steps record None.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    references = []
    for step in spec.steps:
        ref = X.mean(axis=0) if isinstance(step, MscStep) else None
        references.append(ref)
        X = _apply_step(step, X, ref)
    return FittedPretreatment(spec, tuple(references)), X


# --- cube-level operations -----------------------------------------------------


def detect_bad_pixels(cube: HyperspectralCube, saturation_level: float = 65535.0) -> np.ndarray:
    """Flag cosmic-ray and saturated pixels.

    Per pixel: SNV-normalize the spectrum, take the first-difference
    spectrum, and compute its standard deviation d. Pixels with
    d > mean(d) + 3 std(d) are flagged, as is any pixel whose raw intensity
    reaches saturation_level. Returns a mask that is False at flagged pixels.
    """
    if cube.n_bands < 3:
        raise SpectrumTooShort("need at least 3 bands for difference statistics")
    selected = cube.mask.reshape(-1)
    X = cube.data.reshape(-1, cube.n_bands)[selected]
    std = X.std(axis=1, ddof=1, keepdims=True)
    with np.errstate(invalid="ignore"):
        Xn = np.where(std > 0, (X - X.mean(axis=1, keepdims=True)) / np.where(std > 0, std, 1.0), 0.0)
    d = np.diff(Xn, axis=1).std(axis=1, ddof=1)
    flagged = np.zeros(d.shape, dtype=bool)
    if d.size >= 2:
        flagged = d > d.mean() + 3.0 * d.std(ddof=1)
    flagged |= (X >= saturation_level).any(axis=1)
    keep = np.ones(selected.shape, dtype=bool)
    keep[selected] = ~flagged
    return keep.reshape(cube.height, cube.width)


def median_spectrum(cube: HyperspectralCube) -> Spectrum:
    """Per-band median over masked-in pixels (even counts: mean of the two
    central order statistics)."""
    if not cube.mask.any():
        raise EmptyMask("no masked-in pixels")
    values = cube.data[cube.mask]
    return Spectrum(cube.wavenumbers, np.median(values, axis=0))


def save_spectrum(spectrum: Spectrum, path) -> None:
    """Two-column CSV: wavenumber,intensity."""
    lines = ["wavenumber,intensity"]
    lines += [
        f"{float(w)!r},{float(v)!r}"
        for w, v in zip(spectrum.wavenumbers, spectrum.intensities)
    ]
    Path(path).write_text("\n".join(lines) + "\n")

