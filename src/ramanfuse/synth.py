"""Seeded synthetic cohort generator: paired textured pathology images and
hyperspectral cubes with tunable per-modality class signal, plus a ground
truth sidecar for spike-detection and leakage checks.

The two signal knobs are complementary by construction — dp_signal only
changes image morphology, rci_signal only changes cube content — so fusion
experiments can attribute gains to specific modalities.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dataio
from .dataio import CohortManifest, HyperspectralCube, Label, RgbImage, SampleRecord
from .seeds import rng_for

NON_CANCER_SHARE = 0.458
G3_SHARE_OF_CANCER = 0.53
CLASS_FACTOR = {Label.NORMAL: 0.0, Label.G3: 0.5, Label.G4: 1.0}

# Within-class texture variability, drawn independently per modality so the
# two routes make independent mistakes and fusion has something to gain.
TEXTURE_JITTER = 0.12

SIDECAR_NAME = "ground_truth.json"
MANIFEST_NAME = "manifest.txt"


@dataclass(frozen=True)
class SynthSpec:
    n_patients: int = 32
    n_samples: int = 178
    samples_per_patient: tuple = (4, 8)
    dp_signal: float = 0.6
    rci_signal: float = 0.6
    dp_size: int = 160
    rci_size: int = 32
    n_bands: int = 64
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.dp_signal <= 1.0 and 0.0 <= self.rci_signal <= 1.0):
            raise ValueError("signal strengths must lie in [0, 1]")
        if self.n_patients < 1 or self.n_samples < self.n_patients:
            raise ValueError("need at least one sample per patient")


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def class_counts(n_samples: int) -> dict:
    """Exact per-class totals from the published cohort proportions."""
    normal = _round_half_up(NON_CANCER_SHARE * n_samples)
    cancer = n_samples - normal
    g3 = _round_half_up(G3_SHARE_OF_CANCER * cancer)
    return {Label.NORMAL: normal, Label.G3: g3, Label.G4: cancer - g3}


def _patient_counts(rng, spec: SynthSpec) -> list[int]:
    lo, hi = spec.samples_per_patient
    counts = [int(rng.integers(lo, hi + 1)) for _ in range(spec.n_patients)]
    while sum(counts) != spec.n_samples:
        over = sum(counts) > spec.n_samples
        # Stay inside the configured range while any patient has slack.
        eligible = [
            i for i, c in enumerate(counts)
            if (c > lo if over else c < hi)
        ] or [i for i, c in enumerate(counts) if (c > 1 if over else True)]
        idx = eligible[int(rng.integers(len(eligible)))]
        counts[idx] += -1 if over else 1
    return counts


def value_noise(rng, size: int, cell: float, octaves: int = 3) -> np.ndarray:
    """Smooth random field in [0, 1]: bilinearly interpolated lattice noise
    summed over halving cell sizes."""
    out = np.zeros((size, size))
    amplitude, total = 1.0, 0.0
    for octave in range(octaves):
        step = max(cell / (2**octave), 2.0)
        nodes = int(np.ceil(size / step)) + 2
        lattice = rng.random((nodes, nodes))
        coords = np.arange(size) / step
        i = coords.astype(int)
        f = coords - i
        f = f * f * (3.0 - 2.0 * f)
        top = (
            lattice[np.ix_(i, i)] * np.outer(1 - f, 1 - f)
            + lattice[np.ix_(i, i + 1)] * np.outer(1 - f, f)
            + lattice[np.ix_(i + 1, i)] * np.outer(f, 1 - f)
            + lattice[np.ix_(i + 1, i + 1)] * np.outer(f, f)
        )
        out += amplitude * top
        total += amplitude
        amplitude *= 0.5
    return out / total


def _texture_contrast(rng, signal: float, factor: float, gain: float) -> float:
    contrast = gain * signal * (factor - 0.5) + TEXTURE_JITTER * rng.normal()
    return float(np.clip(contrast, -0.75, 0.75))


def _dp_image(rng, spec: SynthSpec, factor: float) -> RgbImage:
    cell = 14.0 * (1.0 + _texture_contrast(rng, spec.dp_signal, factor, 0.8))
    field_ = value_noise(rng, spec.dp_size, cell)
    blobs = field_ > np.quantile(field_, 0.55)
    stain_a = np.array([187.0, 96.0, 160.0])
    stain_b = np.array([232.0, 205.0, 222.0])
    pixels = np.where(blobs[..., None], stain_a, stain_b)
    pixels += 18.0 * (field_[..., None] - 0.5)
    pixels += rng.normal(0.0, 3.0, pixels.shape)
    return RgbImage(np.clip(np.floor(pixels + 0.5), 0, 255).astype(np.uint8))


def _tissue_mask(rng, size: int) -> np.ndarray:
    """Wobbly disk: inside is tissue, outside is substrate border."""
    angles = np.linspace(0.0, 2.0 * np.pi, 17)[:-1]
    wobble = rng.uniform(0.85, 1.0, len(angles))
    centre = (size - 1) / 2.0
    rows, cols = np.mgrid[:size, :size]
    dr, dc = rows - centre, cols - centre
    radius = np.hypot(dr, dc)
    theta = np.arctan2(dr, dc) % (2.0 * np.pi)
    limit = np.interp(theta, angles, wobble, period=2.0 * np.pi) * 0.80 * centre
    return radius <= limit


def _rci_cube(rng, spec: SynthSpec, factor: float):
    """Cube plus injected spike coordinates [(row, col, band), ...]."""
    size, bands = spec.rci_size, spec.n_bands
    wavenumbers = np.linspace(400.0, 1800.0, bands)
    axis = np.arange(bands)

    def peak(centre_frac, width):
        return np.exp(-0.5 * ((axis - centre_frac * bands) / width) ** 2)

    shift = 0.8 * spec.rci_signal * (factor - 0.5)
    signature = (
        (1.0 + shift) * peak(0.25, 2.5)
        + (1.0 - shift) * peak(0.55, 3.0)
        + 0.5 * peak(0.8, 4.0)
    )

    tissue = _tissue_mask(rng, size)
    cell = 6.0 * (1.0 + _texture_contrast(rng, spec.rci_signal, factor, 1.1))
    amplitude = 0.6 + 0.9 * value_noise(rng, size, cell)

    data = np.empty((size, size, bands))
    data[:] = 60.0  # substrate floor
    data[tissue] = 200.0 + 600.0 * amplitude[tissue, None] * signature[None, :]
    data += rng.normal(0.0, 2.0, data.shape)

    spikes = []
    tissue_rows, tissue_cols = np.nonzero(tissue)
    for _ in range(int(rng.integers(0, 4))):
        pick = int(rng.integers(len(tissue_rows)))
        r, c = int(tissue_rows[pick]), int(tissue_cols[pick])
        band = int(rng.integers(bands))
        data[r, c, band] += rng.uniform(3000.0, 5000.0)
        spikes.append((r, c, band))
    return HyperspectralCube(wavenumbers=wavenumbers, data=data), spikes


def generate(spec: SynthSpec, out_dir) -> CohortManifest:
    """Write one cohort (images, cubes, manifest, ground-truth sidecar) and
    return its manifest. Fully deterministic per spec.seed."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    rng = rng_for(spec.seed, "synth", "layout")
    counts = _patient_counts(rng, spec)
    labels = []
    for label, total in class_counts(spec.n_samples).items():
        labels.extend([label] * total)
    labels = [labels[i] for i in rng.permutation(len(labels))]

    records = []
    truth = {
        "dp_signal": spec.dp_signal,
        "rci_signal": spec.rci_signal,
        "seed": spec.seed,
        "samples": {},
    }
    cursor = 0
    for p_idx, per_patient in enumerate(counts):
        patient_id = f"patient{p_idx:03d}"
        for s_idx in range(per_patient):
            label = labels[cursor]
            sample_id = f"{patient_id}-core{s_idx}"
            factor = CLASS_FACTOR[label]
            dp_rng = rng_for(spec.seed, "synth", "dp", sample_id)
            rci_rng = rng_for(spec.seed, "synth", "rci", sample_id)

            dp_path = out_dir / f"{sample_id}_dp.ppm"
            rci_path = out_dir / f"{sample_id}_rci.cube"
            dataio.save_image(_dp_image(dp_rng, spec, factor), dp_path)
            cube, spikes = _rci_cube(rci_rng, spec, factor)
            dataio.save_cube(cube, rci_path, binary=True)

            records.append(
                SampleRecord(
                    patient_id=patient_id,
                    sample_id=sample_id,
                    label=label,
                    dp_path=dp_path,
                    rci_path=rci_path,
                )
            )
            truth["samples"][sample_id] = {
                "label": label.value,
                "spikes": [list(s) for s in spikes],
            }
            cursor += 1

    manifest = CohortManifest(samples=tuple(records), seed=spec.seed)
    dataio.save_manifest(manifest, out_dir / MANIFEST_NAME)
    with open(out_dir / SIDECAR_NAME, "w") as fh:
        json.dump(truth, fh, indent=1, sort_keys=True)
    return manifest


def load_ground_truth(cohort_dir) -> dict:
    with open(Path(cohort_dir) / SIDECAR_NAME) as fh:
        return json.load(fh)
