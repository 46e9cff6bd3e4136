"""Cohort data model, portable file formats, and model persistence.

Formats (all locale-independent, '.' decimal separator):

* manifest: UTF-8 JSON document listing patients/samples, paths relative
  to the manifest file.
* hyperspectral cube: text header ``ramancube <text|binary> 1`` +
  ``width height n_bands`` + wavenumber axis line, followed by row-major
  per-pixel CSV spectra (text) or little-endian float64 (binary).
* images: binary PGM (P5) for greyscale, PPM (P6) for colour, 8-bit.
* models: versioned JSON envelope; floats serialized with Python's
  shortest round-trip repr, so reload is bit-exact.
* report tables: CSV with a header row, CRLF line ends, minimal quoting;
  ``write_table`` and ``read_table`` are the package's only CSV code.
"""

from __future__ import annotations

import csv
import importlib
import io
import json
import os
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import (
    DuplicateSample,
    MalformedFile,
    MalformedManifest,
    MissingFile,
    TruncatedData,
    UnsupportedVersion,
)

MODEL_FORMAT = "ramanfuse-model"
MODEL_VERSION = 1


class Label(Enum):
    NORMAL = "normal"
    G3 = "g3"
    G4 = "g4"
    G5 = "g5"

    @classmethod
    def parse(cls, text: str) -> "Label":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise MalformedManifest(f"unknown label {text!r}") from None

    @property
    def is_cancer(self) -> bool:
        return self is not Label.NORMAL


@dataclass(frozen=True)
class SampleRecord:
    patient_id: str
    sample_id: str
    label: Label
    dp_path: Path
    rci_path: Path


@dataclass(frozen=True)
class CohortManifest:
    samples: tuple[SampleRecord, ...]
    seed: int

    def patients(self) -> list[str]:
        """Unique patient ids in first-appearance order."""
        seen = {}
        for s in self.samples:
            seen.setdefault(s.patient_id, None)
        return list(seen)


@dataclass
class GreyImage:
    pixels: np.ndarray  # (H, W) uint8

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.uint8)
        if self.pixels.ndim != 2:
            raise MalformedFile("grey image must be 2-D")

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


@dataclass
class RgbImage:
    pixels: np.ndarray  # (H, W, 3) uint8

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.uint8)
        if self.pixels.ndim != 3 or self.pixels.shape[2] != 3:
            raise MalformedFile("colour image must be (H, W, 3)")

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


@dataclass
class HyperspectralCube:
    """Per-pixel Raman spectra on a rectangular grid.

    data is (H, W, B) float64; mask is (H, W) bool, True = valid tissue.
    """

    wavenumbers: np.ndarray
    data: np.ndarray
    mask: np.ndarray = None

    def __post_init__(self):
        self.wavenumbers = np.asarray(self.wavenumbers, dtype=np.float64)
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 3:
            raise MalformedFile("cube data must be (H, W, B)")
        if self.data.shape[2] != self.wavenumbers.shape[0]:
            raise MalformedFile("pixel spectrum length != wavenumber axis length")
        if self.wavenumbers.size >= 2 and not np.all(np.diff(self.wavenumbers) > 0):
            raise MalformedFile("wavenumber axis must be strictly increasing")
        if self.mask is None:
            self.mask = np.ones(self.data.shape[:2], dtype=bool)
        else:
            self.mask = np.asarray(self.mask, dtype=bool)
            if self.mask.shape != self.data.shape[:2]:
                raise MalformedFile("mask shape mismatch")

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def n_bands(self) -> int:
        return self.data.shape[2]


# --- text and JSON files -----------------------------------------------------


def read_text(path, what: str) -> str:
    """The text of a UTF-8 file; what names the file in messages.

    Raises MissingFile for a missing file and MalformedFile for bytes that
    are not UTF-8."""
    path = Path(path)
    if not path.is_file():
        raise MissingFile(f"{what} not found: {path}")
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedFile(f"{what} {path} is not UTF-8 text: {exc}") from None


def load_json_object(path, what: str) -> dict:
    """The JSON object a UTF-8 file holds, read as read_text does.

    Raises MalformedFile for text that is not JSON or nests too deeply to
    parse, and for a document that is not an object."""
    try:
        doc = json.loads(read_text(path, what))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise MalformedFile(f"{what} {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise MalformedFile(f"{what} {path} must hold a JSON object")
    return doc


def write_table(path, header: list, rows) -> None:
    """Write a report table: the header row, then rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_table(path, what: str) -> list[tuple[int, list[str]]]:
    """(line the row ends on, cells) of each non-blank row of a CSV file
    read as read_text does; MalformedFile for text that csv rejects (a cell
    over its field limit)."""
    reader = csv.reader(io.StringIO(read_text(path, what), newline=""))
    try:
        return [(reader.line_num, row) for row in reader if "".join(row).strip()]
    except csv.Error as exc:
        raise MalformedFile(f"{what} {path} line {reader.line_num} is not CSV: {exc}") from None


# --- manifest ---------------------------------------------------------------


def load_manifest(path) -> CohortManifest:
    """Load and validate a cohort manifest.

    Raises MissingFile / MalformedFile (MalformedManifest for a document
    that is not a manifest) / DuplicateSample on the corresponding defects.
    Every referenced file must exist.
    """
    path = Path(path)
    doc = load_json_object(path, "manifest")
    if "samples" not in doc:
        raise MalformedManifest("manifest must be an object with a 'samples' list")
    entries = doc["samples"]
    if not isinstance(entries, list) or not entries:
        raise MalformedManifest("manifest lists no samples")
    seed = doc.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise MalformedManifest(f"manifest seed must be an integer, got {seed!r}")
    root = path.parent
    samples = []
    seen_pairs = set()
    seen_ids = set()
    for entry in entries:
        try:
            patient_id = str(entry["patient_id"])
            sample_id = str(entry["sample_id"])
            label = Label.parse(str(entry["label"]))
            dp_path = root / entry["dp_path"]
            rci_path = root / entry["rci_path"]
        except (KeyError, TypeError) as exc:
            raise MalformedManifest(f"sample entry missing field: {exc}") from None
        key = (patient_id, sample_id)
        if key in seen_pairs or sample_id in seen_ids:
            raise DuplicateSample(f"duplicate sample {key}")
        seen_pairs.add(key)
        seen_ids.add(sample_id)
        for p in (dp_path, rci_path):
            if not p.is_file():
                raise MissingFile(f"referenced file not found: {p}")
        samples.append(SampleRecord(patient_id, sample_id, label, dp_path, rci_path))
    return CohortManifest(tuple(samples), seed)


def save_manifest(manifest: CohortManifest, path) -> None:
    """Write a manifest document; paths are stored relative to it."""
    path = Path(path)
    root = path.parent
    entries = [
        {
            "patient_id": s.patient_id,
            "sample_id": s.sample_id,
            "label": s.label.value,
            "dp_path": os.path.relpath(s.dp_path, root),
            "rci_path": os.path.relpath(s.rci_path, root),
        }
        for s in manifest.samples
    ]
    doc = {"seed": manifest.seed, "samples": entries}
    path.write_text(json.dumps(doc, indent=1) + "\n")


# --- hyperspectral cubes ----------------------------------------------------

_CUBE_MAGIC = "ramancube"
_CUBE_VERSION = "1"


def save_cube(cube: HyperspectralCube, path, binary: bool = False) -> None:
    """Write a cube; masks are not persisted (loaders start all-true)."""
    h, w, b = cube.data.shape
    header = f"{_CUBE_MAGIC} {'binary' if binary else 'text'} {_CUBE_VERSION}\n"
    header += f"{w} {h} {b}\n"
    header += " ".join(repr(float(v)) for v in cube.wavenumbers) + "\n"
    if binary:
        with open(path, "wb") as fh:
            fh.write(header.encode("ascii"))
            fh.write(np.ascontiguousarray(cube.data, dtype="<f8").tobytes())
    else:
        with open(path, "w") as fh:
            fh.write(header)
            flat = cube.data.reshape(h * w, b)
            for row in flat:
                fh.write(",".join(repr(float(v)) for v in row))
                fh.write("\n")


def load_cube(path) -> HyperspectralCube:
    """Read a cube file (text or binary variant), mask all-true.

    Every defect of the file raises a DataError: MalformedFile for bad
    tokens, non-ASCII text and non-finite values, TruncatedData for missing
    pixels or bands."""
    path = Path(path)
    if not path.is_file():
        raise MissingFile(f"cube not found: {path}")
    with open(path, "rb") as fh:
        magic_line = fh.readline().decode("ascii", errors="replace").split()
        if len(magic_line) != 3 or magic_line[0] != _CUBE_MAGIC:
            raise MalformedFile(f"not a cube file: {path}")
        _, variant, version = magic_line
        if version != _CUBE_VERSION or variant not in ("text", "binary"):
            raise UnsupportedVersion(f"unsupported cube header {magic_line!r}")
        dims = fh.readline().split()
        if len(dims) != 3:
            raise MalformedFile("cube dimension line malformed")
        try:
            w, h, b = (int(v) for v in dims)
        except ValueError:
            raise MalformedFile(f"cube dimensions must be integers, got {dims!r}") from None
        if w <= 0 or h <= 0 or b <= 0:
            raise MalformedFile("cube dimensions must be positive")
        axis = np.array(_parse_floats(fh.readline(), None, "wavenumber axis"))
        if axis.shape[0] != b:
            raise TruncatedData("wavenumber axis length != n_bands")
        if variant == "binary":
            count = 8 * w * h * b
            if count > os.fstat(fh.fileno()).st_size - fh.tell():
                raise TruncatedData(f"cube declares {w}x{h} pixels of {b} bands, "
                                    "more than the file holds")
            raw = fh.read(count)
            if len(raw) != count:
                raise TruncatedData("binary cube payload short")
            data = np.frombuffer(raw, dtype="<f8").reshape(h, w, b)
        else:
            rows = []
            for _ in range(h * w):
                line = fh.readline()
                if not line:
                    raise TruncatedData("cube declares more pixels than present")
                vals = _parse_floats(line, ",", "pixel spectrum")
                if len(vals) != b:
                    raise TruncatedData("pixel spectrum length mismatch")
                rows.append(vals)
            data = np.array(rows, dtype=np.float64).reshape(h, w, b)
    if not (np.isfinite(axis).all() and np.isfinite(data).all()):
        raise MalformedFile("cube holds non-finite values")
    return HyperspectralCube(wavenumbers=axis, data=data.astype(np.float64))


def _parse_floats(line: bytes, sep, what: str) -> list[float]:
    """Floats from one ASCII line split at sep (None: whitespace)."""
    try:
        return [float(v) for v in line.decode("ascii").split(sep)]
    except (UnicodeDecodeError, ValueError):
        raise MalformedFile(f"{what} holds a token that is not an ASCII number") from None


# --- PGM / PPM images --------------------------------------------------------


def _read_pnm_header(fh):
    """Read magic, width, height, maxval. Supports '#' comments."""
    def tokens():
        while True:
            line = fh.readline()
            if not line:
                raise TruncatedData("image header truncated")
            line = line.split(b"#", 1)[0]
            for tok in line.split():
                yield tok

    it = tokens()
    magic = next(it).decode("ascii", errors="replace")
    try:
        width = int(next(it))
        height = int(next(it))
        maxval = int(next(it))
    except (StopIteration, ValueError):
        raise MalformedFile("malformed PNM header") from None
    return magic, width, height, maxval


def load_image(path) -> GreyImage | RgbImage:
    """Load a P5 (grey) or P6 (colour) binary image, 8-bit only."""
    path = Path(path)
    if not path.is_file():
        raise MissingFile(f"image not found: {path}")
    with open(path, "rb") as fh:
        magic, width, height, maxval = _read_pnm_header(fh)
        if magic not in ("P5", "P6"):
            raise MalformedFile(f"unsupported image magic {magic!r}")
        if maxval != 255:
            raise MalformedFile("only 8-bit images supported")
        if width <= 0 or height <= 0:
            raise MalformedFile(f"image size must be positive, got {width}x{height}")
        channels = 1 if magic == "P5" else 3
        count = width * height * channels
        if count > os.fstat(fh.fileno()).st_size - fh.tell():
            raise TruncatedData(f"image declares {width}x{height} pixels, "
                                "more than the file holds")
        raw = fh.read(count)
        if len(raw) != count:
            raise TruncatedData("image payload short")
    data = np.frombuffer(raw, dtype=np.uint8)
    if magic == "P5":
        return GreyImage(data.reshape(height, width))
    return RgbImage(data.reshape(height, width, 3))


def save_image(img: GreyImage | RgbImage, path) -> None:
    if isinstance(img, GreyImage):
        header = f"P5\n{img.width} {img.height}\n255\n"
    else:
        header = f"P6\n{img.width} {img.height}\n255\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(img.pixels.tobytes())


def save_mask(mask: np.ndarray, path) -> None:
    """Persist a boolean mask as a 0/255 PGM."""
    save_image(GreyImage(np.where(mask, 255, 0).astype(np.uint8)), path)


# --- model persistence --------------------------------------------------------


# model classes live downstream of this module; resolve them lazily per kind
_MODEL_KINDS = {
    "svm": ("ramanfuse.svm", "SvmModel"),
    "pls": ("ramanfuse.plsda", "PlsModel"),
    "dictionary": ("ramanfuse.bovw", "VisualDictionary"),
}


def _model_class(kind):
    module, name = _MODEL_KINDS[kind]
    return getattr(importlib.import_module(module), name)


def save_model(model, path) -> None:
    """Persist a trained model (SvmModel, PlsModel or VisualDictionary).

    load_model(save_model(m)) reproduces predictions bit-exactly: floats go
    through json's repr round-trip, arrays are stored as nested lists.
    """
    kind = next(
        (
            k
            for k, (module, name) in _MODEL_KINDS.items()
            if type(model).__name__ == name and type(model).__module__ == module
        ),
        None,
    )
    if kind is None:
        raise MalformedFile(f"cannot persist object of type {type(model).__name__}")
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "kind": kind,
        "payload": model.to_payload(),
    }
    Path(path).write_text(json.dumps(doc) + "\n")


def load_model(path):
    doc = load_json_object(path, "model")
    if doc.get("format") != MODEL_FORMAT:
        raise MalformedFile("not a model file")
    if doc.get("version") != MODEL_VERSION:
        raise UnsupportedVersion(f"model version {doc.get('version')!r} unsupported")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _MODEL_KINDS:
        raise MalformedFile(f"unknown model kind {kind!r}")
    # A payload field that is missing or of the wrong type, shape or size
    # (e.g. an infinite integer) fails in from_payload.
    try:
        return _model_class(kind).from_payload(doc["payload"])
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise MalformedFile(f"corrupted model payload: {exc}") from None
