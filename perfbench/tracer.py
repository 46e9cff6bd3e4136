"""Span tracing of ramanfuse from outside the package.

`Tracer.installed()` replaces each function named in `TRACED` with a wrapper
that records one span (name, start, end, parent, attributes) per call, and
restores the originals on exit. Every module attribute that refers to a
traced function is replaced, so names re-bound by importers (for example
`experiments.extract`, bound from `sift`) are traced too. Wrappers return
the wrapped function's value and let its exceptions propagate unchanged.

Spans stay in memory; `write_jsonl` writes them out and `layer_metrics`
reduces them to per-layer calls, self time and work counts.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import inspect
import json
import os
import pkgutil
import time

import numpy as np

PACKAGE = "ramanfuse"


def _arg(fn, args, kwargs, name):
    """Value bound to parameter `name` in a call of `fn`."""
    return inspect.signature(fn).bind_partial(*args, **kwargs).arguments[name]


def _digest(arr) -> str:
    return hashlib.blake2b(np.ascontiguousarray(arr).tobytes(), digest_size=16).hexdigest()


# Attributes recorded on a span, computed from (original function, args,
# kwargs, result) after the span has ended.
def _bytes_read(fn, a, kw, result):
    return {"bytes": os.path.getsize(_arg(fn, a, kw, "path"))}


def _pca_size(fn, a, kw, result):
    cube = _arg(fn, a, kw, "cube")
    return {"pixels_x_bands": int(cube.mask.sum()) * int(cube.data.shape[2])}


def _flagged(fn, a, kw, result):
    cube = _arg(fn, a, kw, "cube")
    return {"flagged": int((cube.mask & ~result).sum())}


def _kept(fn, a, kw, result):
    return {"kept_fraction": float(result.mean())}


def _count(fn, a, kw, result):
    return {"n": len(result)}


def _described(fn, a, kw, result):
    return {"n": int(result is not None)}


def _image_width(fn, a, kw, result):
    return {"width": _arg(fn, a, kw, "img").width}


def _kmeans_points(fn, a, kw, result):
    return {"n": len(_arg(fn, a, kw, "descriptors"))}


def _encoding(fn, a, kw, result):
    descriptors = _arg(fn, a, kw, "descriptors")
    dictionary = _arg(fn, a, kw, "dictionary")
    return {"key": _digest(descriptors) + _digest(dictionary.centroids)}


def _support_vectors(fn, a, kw, result):
    return {"n": len(result.support_vectors)}


# (module, attribute, annotator or None): the public calls into each layer.
TRACED = (
    ("dataio", "load_cube", _bytes_read),
    ("dataio", "load_image", _bytes_read),
    ("dataio", "save_cube", None),
    ("dataio", "save_image", None),
    ("synth", "generate", None),
    ("imaging", "background_mask", None),
    ("imaging", "pca_scores", _pca_size),
    ("imaging", "remove_small_regions", None),
    ("imaging", "resize_cubic", None),
    ("imaging", "histogram_equalize", None),
    ("spectral", "detect_bad_pixels", _flagged),
    ("spectral", "median_spectrum", None),
    ("spectral", "savitzky_golay", None),
    ("spectral", "fit_pretreatment", None),
    ("spectral", "FittedPretreatment.apply", None),
    ("sift", "extract", _image_width),
    ("sift", "build_scale_space", None),
    ("sift", "detect_keypoints", _count),
    ("sift", "assign_orientations", _count),
    ("sift", "compute_descriptor", _described),
    ("bovw", "kmeans", _kmeans_points),
    ("bovw", "encode_descriptors", _encoding),
    ("svm", "train", _support_vectors),
    ("svm", "calibrate", None),
    ("svm", "decision", None),
    ("svm", "predict_proba", None),
    ("svm", "grid_search", None),
    ("plsda", "select_pls_model", None),
    ("plsda", "fit_pls", None),
    ("plsda", "predict_class", None),
    ("evaluation", "cross_validate", None),
    ("evaluation", "plan_folds", None),
    ("evaluation", "roc_auc", None),
    ("experiments", "extract_cohort", None),
    ("experiments", "partition_features", None),
    ("experiments", "grid_feature_sets", None),
    ("experiments", "tissue_mask", _kept),
    ("cli", "main", None),
)


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index or None, attrs]
        self._open = []   # indices of spans not yet ended, innermost last

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        index = self._begin(name)
        try:
            yield
        finally:
            self._end(index)

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def _wrap(self, name, fn, annotate):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(index)
            if annotate is not None:
                # A span of its own, so the caller's self time excludes it.
                with self.span("bench.annotate"):
                    self.spans[index][4] = annotate(fn, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Trace every function in TRACED for the duration of the block."""
        package = importlib.import_module(PACKAGE)
        modules = [package] + [
            importlib.import_module(f"{PACKAGE}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        wrappers = {}   # id(original) -> wrapper; the wrapper keeps original alive
        classes = []    # (class, attribute, original)
        for module_name, attr, annotate in TRACED:
            owner = importlib.import_module(f"{PACKAGE}.{module_name}")
            name = f"{module_name}.{attr}"
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self._wrap(name, original, annotate)
            if path:
                classes.append((owner, leaf, original))
                setattr(owner, leaf, wrapper)
            else:
                wrappers[id(original)] = wrapper
        patched = []    # (module, attribute, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if id(value) in wrappers:
                    patched.append((module, key, value))
                    setattr(module, key, wrappers[id(value)])
        try:
            yield self
        finally:
            for owner, key, original in patched + classes:
                setattr(owner, key, original)

    # --- reduction --------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the part of it covered by child spans."""
        children = [[] for _ in self.spans]
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = []
        for (name, start, end, parent, _), kids in zip(self.spans, children):
            covered, reach = 0.0, start
            for s, e in sorted(kids):
                s = max(s, reach)
                if e > s:
                    covered += e - s
                    reach = e
            out.append((end - start) - covered)
        return out

    def write_jsonl(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for index, (name, start, end, parent, attrs) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": name, "parent": parent,
                    "start_s": start - t0, "end_s": end - t0, "attrs": attrs or {},
                }) + "\n")

    def layer_metrics(self, dp_width: int) -> dict:
        """Per-layer metrics as {name: (value, unit)}.

        dp_width is the prepared pathology image width, which tells the two
        SIFT routes apart."""
        self_s = self.self_times()
        by_name = {}
        for span, own in zip(self.spans, self_s):
            by_name.setdefault(span[0], []).append((span, own))

        def spans(name):
            return by_name.get(name, [])

        def attr_values(name, key):
            return [s[4][key] for s, _ in spans(name)]

        def pct(values, q):
            return float(np.percentile(values, q)) if values else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for module_name, attr, _ in TRACED:
            name = f"{module_name}.{attr}"
            out[f"{name}.calls"] = (len(spans(name)), "count")
            out[f"{name}.self_s"] = (sum(own for _, own in spans(name)), "s")

        bytes_read = sum(attr_values("dataio.load_cube", "bytes"))
        bytes_read += sum(attr_values("dataio.load_image", "bytes"))
        out["dataio.bytes_read"] = (bytes_read, "bytes")
        out["imaging.pca_pixels_x_bands"] = (
            sum(attr_values("imaging.pca_scores", "pixels_x_bands")), "count")
        kept = attr_values("experiments.tissue_mask", "kept_fraction")
        out["imaging.mask_kept_fraction"] = (float(np.mean(kept)) if kept else 0.0, "ratio")
        out["spectral.pixels_flagged"] = (
            sum(attr_values("spectral.detect_bad_pixels", "flagged")), "count")

        keypoints = sum(attr_values("sift.detect_keypoints", "n"))
        oriented = sum(attr_values("sift.assign_orientations", "n"))
        descriptors = sum(attr_values("sift.compute_descriptor", "n"))
        out["sift.keypoints"] = (keypoints, "count")
        out["sift.oriented_keypoints"] = (oriented, "count")
        out["sift.descriptors"] = (descriptors, "count")
        out["sift.descriptor_yield"] = (ratio(descriptors, oriented), "ratio")
        for route in ("dp", "rci"):
            ms = [
                1e3 * (s[2] - s[1]) for s, _ in spans("sift.extract")
                if (s[4]["width"] == dp_width) == (route == "dp")
            ]
            out[f"sift.extract_ms_p50_{route}"] = (pct(ms, 50), "ms")
            out[f"sift.extract_ms_p90_{route}"] = (pct(ms, 90), "ms")

        out["bovw.kmeans_points"] = (sum(attr_values("bovw.kmeans", "n")), "count")
        keys = attr_values("bovw.encode_descriptors", "key")
        out["bovw.encode_distinct"] = (len(set(keys)), "count")
        out["bovw.encode_useful_ratio"] = (ratio(len(set(keys)), len(keys)), "ratio")

        train_ms = [1e3 * (s[2] - s[1]) for s, _ in spans("svm.train")]
        out["svm.train_ms_p50"] = (pct(train_ms, 50), "ms")
        out["svm.train_ms_p90"] = (pct(train_ms, 90), "ms")
        sv = attr_values("svm.train", "n")
        out["svm.support_vectors_mean"] = (float(np.mean(sv)) if sv else 0.0, "count")
        return out
