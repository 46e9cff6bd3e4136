"""Scale-invariant keypoint detection and 128-d descriptors for greyscale
images.

Classic difference-of-Gaussians detector: a Gaussian pyramid per octave,
26-neighbour extrema with quadratic sub-pixel refinement, contrast and edge
rejection, 36-bin orientation assignment and 4x4x8 trilinearly pooled
gradient descriptors. All parameter defaults are the canonical published
values; nothing here is data-dependent or random.

No work is done whose result ``extract`` always throws away:

* octave floor: a keypoint keeps a descriptor only when its descriptor
  window, plus the one-pixel ring its gradients read, lies inside the
  octave image. A refined keypoint sits above layer 0.5, so that window is
  at least ``MIN_OCTAVE_SIDE`` pixels wide, and the pyramid builds no octave
  below that side (the first octave is always built);
* gradient box: gradient magnitude and angle are computed only over the
  bounding box of one level's descriptor windows, which holds their
  orientation windows too.

The rest is batched per pyramid level rather than per keypoint:

* scale space: each blur pass writes into a preallocated buffer, the
  second pass straight into the octave stack;
* extrema: the four in-plane neighbours are compared over the whole DoG
  stack, the other twenty-two only at the points that beat all four;
* refinement: all extrema of an octave together, one stacked 3x3 solve
  per move;
* orientation histograms and descriptors: all keypoints of a level at
  once, in chunks of about ``CHUNK_PIXELS`` window pixels. Orientation
  bins come from one ``np.bincount`` per chunk, descriptor bins from one
  flat ``np.add.at`` per trilinear pass per chunk, so every bin sums its
  terms in the order a keypoint-at-a-time computation would, and the
  results are bit-identical to it; histogram smoothing and descriptor
  norms are per-level array operations with the per-keypoint arithmetic;
* ``extract`` drops keypoints whose descriptor window leaves the octave
  image before assigning orientations: that test does not depend on
  orientation.

``assign_orientations`` and ``compute_descriptor`` are batches of one over
the same code.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .dataio import GreyImage
from .errors import ImageTooSmall

DESCRIPTOR_LENGTH = 128
ORIENTATION_BINS = 36
PEAK_RATIO = 0.8
DESCRIPTOR_CLAMP = 0.2
DESCRIPTOR_GRID = 4
DESCRIPTOR_BINS = 8
CHUNK_PIXELS = 2**14  # window pixels per batch, bounds temporary memory
SCALES_PER_OCTAVE = 3
BASE_SIGMA = 1.6
EDGE_RATIO_THRESHOLD = 10.0
ASSUMED_BLUR = 0.5  # blur already present in the input image
# per-level sigma within an octave: s+3 levels, geometrically spaced
LEVEL_SIGMAS = BASE_SIGMA * 2.0 ** (np.arange(SCALES_PER_OCTAVE + 3) / SCALES_PER_OCTAVE)


def _orientation_radius(octave_scale):
    """Half side of the orientation window, in octave pixels."""
    return np.rint(3.0 * (1.5 * octave_scale)).astype(np.int64)


def _descriptor_half(octave_scale):
    """Half side of the descriptor window, in octave pixels; never below
    the orientation radius, so the descriptor window holds the orientation
    window."""
    hist_width = 3.0 * octave_scale
    return np.rint(hist_width * math.sqrt(2) * (DESCRIPTOR_GRID + 1) * 0.5).astype(np.int64)


# A refined keypoint lies above layer 0.5 of its octave, and its descriptor
# window plus the one-pixel ring its gradients read must fit in the octave:
# no smaller octave can keep a descriptor.
MIN_OCTAVE_SIDE = 2 * int(_descriptor_half(BASE_SIGMA * 2.0 ** (0.5 / SCALES_PER_OCTAVE))) + 3


@dataclass(frozen=True)
class SiftParams:
    contrast_threshold: float = 0.04
    upsample_first: bool = False      # start one octave below the input

    def __post_init__(self):
        if self.contrast_threshold <= 0:
            raise ValueError("contrast_threshold must be positive")


@dataclass(frozen=True)
class Keypoint:
    x: float
    y: float
    scale: float        # sigma in input-image pixels
    orientation: float  # radians in [0, 2*pi)
    response: float     # |DoG| at the refined extremum
    octave: int = 0
    layer: int = 0
    octave_scale: float = 0.0  # sigma in octave pixels, for window sizing


@dataclass(frozen=True)
class ScaleSpace:
    gaussians: list       # per octave: (s+3, h, w) arrays
    dogs: list            # per octave: (s+2, h, w) arrays
    deltas: list          # per octave: pixel size relative to the input image
    params: SiftParams


@lru_cache(maxsize=32)
def _blur_kernel(sigma: float) -> np.ndarray:
    radius = max(1, int(math.ceil(4.0 * sigma)))
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-0.5 * (t / sigma) ** 2)
    kernel /= kernel.sum()
    kernel.flags.writeable = False
    return kernel


def _window_pass(pad: np.ndarray, kernel: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """Kernel along one axis of a buffer padded by its radius on both ends
    of that axis, into out: a window view with sliding_window_view's shape
    and strides (window last, stepping along axis)."""
    windows = as_strided(pad, out.shape + (kernel.size,), pad.strides + (pad.strides[axis],))
    return np.matmul(windows, kernel, out=out)


def _gaussian_blur(img: np.ndarray, sigma: float, out: np.ndarray) -> np.ndarray:
    """Separable blur with edges replicated, into out: the row pass writes
    into the middle of the column pass's padded buffer."""
    kernel = _blur_kernel(sigma)
    radius = kernel.size // 2
    h, w = img.shape
    rows = np.empty((h, w + 2 * radius))
    rows[:, radius:radius + w] = img
    rows[:, :radius] = img[:, :1]
    rows[:, radius + w:] = img[:, -1:]
    cols = np.empty((h + 2 * radius, w))
    _window_pass(rows, kernel, 1, cols[radius:radius + h])
    cols[:radius] = cols[radius]
    cols[radius + h:] = cols[radius + h - 1]
    return _window_pass(cols, kernel, 0, out)


def build_scale_space(img: GreyImage, params: SiftParams = SiftParams()) -> ScaleSpace:
    """Gaussian and DoG pyramids. Per octave there are s+3 Gaussian levels
    with geometrically spaced sigmas; each next octave halves the resolution
    starting from the level at exactly twice the base sigma. The first
    octave is always built; a later one only when its shorter side is at
    least MIN_OCTAVE_SIDE."""
    if min(img.height, img.width) < 16:
        raise ImageTooSmall(f"need at least 16x16, got {img.width}x{img.height}")
    base = img.pixels.astype(np.float64) / 255.0
    delta = 1.0
    blur = ASSUMED_BLUR
    if params.upsample_first:
        base = np.repeat(np.repeat(base, 2, axis=0), 2, axis=1)
        delta = 0.5
        blur *= 2.0
    seed_sigma = math.sqrt(max(BASE_SIGMA**2 - blur**2, 0.01))
    increments = np.sqrt(np.diff(LEVEL_SIGMAS**2))

    gaussians, dogs, deltas = [], [], []
    stack = np.empty((len(LEVEL_SIGMAS),) + base.shape)
    _gaussian_blur(base, seed_sigma, stack[0])
    while True:
        for i, inc in enumerate(increments):
            _gaussian_blur(stack[i], inc, stack[i + 1])
        gaussians.append(stack)
        dogs.append(stack[1:] - stack[:-1])
        deltas.append(delta)
        start = stack[SCALES_PER_OCTAVE, ::2, ::2]
        if min(start.shape) < MIN_OCTAVE_SIDE:
            break
        stack = np.empty((len(LEVEL_SIGMAS),) + start.shape)
        stack[0] = start
        delta *= 2.0
    return ScaleSpace(gaussians, dogs, deltas, params)


_NEIGHBOURS = [
    (dl, dr, dc)
    for dl in (-1, 0, 1)
    for dr in (-1, 0, 1)
    for dc in (-1, 0, 1)
    if (dl, dr, dc) != (0, 0, 0)
]
_IN_PLANE = [(0, -1, 0), (0, 1, 0), (0, 0, -1), (0, 0, 1)]


def _local_extrema(dog: np.ndarray, floor: float) -> np.ndarray:
    """(layer, row, col) indices of strict 26-neighbour extrema with
    |value| above the prefilter floor. Indices refer to the full arrays.

    The four in-plane neighbours are compared over the whole stack; the
    other twenty-two only at the few points that beat all four."""
    n_l, h, w = dog.shape
    centre = dog[1:-1, 1:-1, 1:-1]
    is_max = np.abs(centre) > floor
    is_min = is_max.copy()
    for dl, dr, dc in _IN_PLANE:
        nb = dog[1 + dl:n_l - 1 + dl, 1 + dr:h - 1 + dr, 1 + dc:w - 1 + dc]
        is_max &= centre > nb
        is_min &= centre < nb
    candidates = np.flatnonzero(is_max | is_min)
    is_max, is_min = is_max.ravel()[candidates], is_min.ravel()[candidates]
    points = np.stack(np.unravel_index(candidates, centre.shape), axis=1) + 1
    flat_dog = dog.ravel()
    flat = np.ravel_multi_index(points.T, dog.shape)
    values = flat_dog[flat]
    for dl, dr, dc in _NEIGHBOURS:
        if (dl, dr, dc) not in _IN_PLANE:
            nb = flat_dog[flat + (dl * h + dr) * w + dc]
            is_max &= values > nb
            is_min &= values < nb
    return points[is_max | is_min]


_CUBE_OFFSETS = np.indices((3, 3, 3)).reshape(3, -1).T - 1  # (27, 3), row-major


def _taylor(d: np.ndarray, layer, row, col):
    """Central-difference gradient (n, 3) and Hessian (n, 3, 3) of the DoG
    stack at integer points, in (layer, row, col) order."""
    _, h, w = d.shape
    flat = (layer * h + row) * w + col
    cube = d.ravel()[flat[:, None] + _CUBE_OFFSETS @ [h * w, w, 1]].reshape(-1, 3, 3, 3)

    def at(dl, dr, dc):
        return cube[:, 1 + dl, 1 + dr, 1 + dc]

    grad = 0.5 * np.stack(
        [at(1, 0, 0) - at(-1, 0, 0), at(0, 1, 0) - at(0, -1, 0), at(0, 0, 1) - at(0, 0, -1)],
        axis=1,
    )
    centre = at(0, 0, 0)
    hll = at(1, 0, 0) + at(-1, 0, 0) - 2 * centre
    hrr = at(0, 1, 0) + at(0, -1, 0) - 2 * centre
    hcc = at(0, 0, 1) + at(0, 0, -1) - 2 * centre
    hlr = 0.25 * (at(1, 1, 0) - at(1, -1, 0) - at(-1, 1, 0) + at(-1, -1, 0))
    hlc = 0.25 * (at(1, 0, 1) - at(1, 0, -1) - at(-1, 0, 1) + at(-1, 0, -1))
    hrc = 0.25 * (at(0, 1, 1) - at(0, 1, -1) - at(0, -1, 1) + at(0, -1, -1))
    hessian = np.stack(
        [hll, hlr, hlc, hlr, hrr, hrc, hlc, hrc, hcc], axis=1
    ).reshape(-1, 3, 3)
    return grad, hessian


def _solve(hessian: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Stacked solve; rows with a singular Hessian come back as NaN."""
    try:
        return np.linalg.solve(hessian, grad[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        out = np.full(grad.shape, np.nan)
        for i, (a, b) in enumerate(zip(hessian, grad)):
            try:
                out[i] = np.linalg.solve(a, b)
            except np.linalg.LinAlgError:
                pass
        return out


def _refine(dog: np.ndarray, points: np.ndarray, contrast_threshold: float):
    """Quadratic (3-D Taylor) refinement of integer extrema, all at once.

    Each point moves to the nearest integer location of its fitted offset
    until the offset is below half a pixel in every axis. A point is dropped
    when its Hessian is singular, the fit walks out of range or fails to
    settle in five moves, or the refined point fails the contrast or edge
    tests. Returns the refined (layer, row, col) of the kept points (m, 3),
    in input order, and |DoG| there (m,).
    """
    n_layers, h, w = dog.shape
    n = len(points)
    pos = points.astype(np.int64)
    offset, grad, hessian = np.zeros((n, 3)), np.zeros((n, 3)), np.zeros((n, 3, 3))
    settled = np.zeros(n, dtype=bool)
    active = np.arange(n)
    for _ in range(5):
        if not active.size:
            break
        g, hs = _taylor(dog, *pos[active].T)
        off = -_solve(hs, g)
        done = np.all(np.abs(off) < 0.5, axis=1)
        idx = active[done]
        settled[idx] = True
        offset[idx], grad[idx], hessian[idx] = off[done], g[done], hs[done]
        moving = active[~done]
        moved = pos[moving] + np.rint(off[~done])  # NaN and inf fail the range test
        in_range = np.all((moved >= 1) & (moved <= [n_layers - 2, h - 2, w - 2]), axis=1)
        active = moving[in_range]
        pos[active] = moved[in_range]

    pos, offset, grad, hessian = pos[settled], offset[settled], grad[settled], hessian[settled]
    layer, row, col = pos.T
    # stacked (1, 3) @ (3, 1) products take the same dot-product path as the
    # per-point grad @ offset
    value = dog[layer, row, col] + 0.5 * np.matmul(grad[:, None, :], offset[:, :, None])[:, 0, 0]
    # 2x2 spatial Hessian edge test at the settled integer location
    hrr, hcc, hrc = hessian[:, 1, 1], hessian[:, 2, 2], hessian[:, 1, 2]
    tr = hrr + hcc
    det = hrr * hcc - hrc**2
    r = EDGE_RATIO_THRESHOLD
    keep = (
        (np.abs(value) >= contrast_threshold)
        & (det > 0)
        & (tr**2 * r < det * (r + 1) ** 2)
    )
    return pos[keep] + offset[keep], np.abs(value[keep])


def detect_keypoints(space: ScaleSpace) -> list[Keypoint]:
    """Unoriented keypoints (orientation 0) from the DoG pyramids."""
    threshold = space.params.contrast_threshold
    s = SCALES_PER_OCTAVE
    floor = 0.5 * threshold / s
    found = []
    for octave, dog in enumerate(space.dogs):
        delta = space.deltas[octave]
        refined, values = _refine(dog, _local_extrema(dog, floor), threshold)
        for (layer_f, row_f, col_f), value in zip(refined, values):
            octave_scale = BASE_SIGMA * 2.0 ** (layer_f / s)
            found.append(
                Keypoint(
                    x=col_f * delta,
                    y=row_f * delta,
                    scale=octave_scale * delta,
                    orientation=0.0,
                    response=value,
                    octave=octave,
                    layer=int(round(layer_f)),
                    octave_scale=octave_scale,
                )
            )
    found.sort(key=lambda k: (k.octave, k.y, k.x, k.scale))
    return found


def normalize_descriptor(raw: np.ndarray) -> np.ndarray | None:
    """L2 normalize, clamp entries at 0.2, renormalize. None when the raw
    histogram carries no energy."""
    descriptors, ok = _normalize(raw[None])
    return descriptors[0] if ok[0] else None


def _row_norms(rows: np.ndarray) -> np.ndarray:
    # stacked (1, 128) @ (128, 1) products take the dot-product path of
    # np.linalg.norm on each row
    return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])


def _normalize(raw: np.ndarray):
    """normalize_descriptor on each row of (n, 128): the normalized rows
    and the mask of rows it keeps (the other rows are zero)."""
    out = np.zeros_like(raw)
    first = _row_norms(raw)
    kept = ~(first < 1e-12)
    clamped = np.minimum(raw[kept] / first[kept, None], DESCRIPTOR_CLAMP)
    second = _row_norms(clamped)
    energy = ~(second < 1e-12)
    kept[kept] = energy
    out[kept] = clamped[energy] / second[energy, None]
    return out, kept


def _smooth_circular(hist: np.ndarray) -> np.ndarray:
    """Circular [1, 4, 6, 4, 1] / 16 smoothing of each row of (n, 36),
    summed term by term in np.convolve's order."""
    pad = np.concatenate([hist[:, -2:], hist, hist[:, :2]], axis=1)
    kernel = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0
    n = hist.shape[1]
    out = pad[:, :n] * kernel[0]
    for j in range(1, kernel.size):
        out += pad[:, j:j + n] * kernel[j]
    return out


# --- per-level batches ------------------------------------------------------


class _Gradients(NamedTuple):
    """Central-difference gradient magnitude and angle of one pyramid level
    over a box of interior pixels; element [r - top, c - left] belongs to
    pixel (r, c)."""

    mag: np.ndarray
    ang: np.ndarray
    top: int
    left: int


def _level_gradients(level: np.ndarray, top: int, bottom: int, left: int, right: int):
    """Gradients of the interior pixels rows top..bottom, cols left..right."""
    block = level[top - 1:bottom + 2, left - 1:right + 2]
    dy = 0.5 * (block[2:, 1:-1] - block[:-2, 1:-1])
    dx = 0.5 * (block[1:-1, 2:] - block[1:-1, :-2])
    return _Gradients(np.hypot(dx, dy), np.arctan2(dy, dx), top, left)


class _Frames(NamedTuple):
    """Keypoints of one level as arrays: centre row and column in octave
    pixels, and sigma in octave pixels."""

    row: np.ndarray
    col: np.ndarray
    scale: np.ndarray

    @classmethod
    def of(cls, kps, delta):
        return cls(np.array([k.y for k in kps]) / delta, np.array([k.x for k in kps]) / delta,
                   np.array([k.octave_scale for k in kps]))

    def take(self, index):
        return _Frames(self.row[index], self.col[index], self.scale[index])

    def descriptor_windows(self):
        """Integer centre row and column and half side of each descriptor
        window."""
        return np.rint(self.row), np.rint(self.col), _descriptor_half(self.scale)


def _descriptor_windows_inside(frames: _Frames, shape) -> np.ndarray:
    """Whether each descriptor sampling window lies inside the level image,
    with the ring its gradients read. Orientation does not enter: the
    window is an axis-aligned square."""
    h, w = shape
    row_i, col_i, half = frames.descriptor_windows()
    return (
        (1 <= row_i - half) & (row_i + half <= h - 2)
        & (1 <= col_i - half) & (col_i + half <= w - 2)
    )


def _window_gradients(level: np.ndarray, frames: _Frames) -> _Gradients:
    """Gradients over the bounding box of the keypoints' descriptor windows,
    which hold their orientation windows too."""
    row_i, col_i, half = frames.descriptor_windows()
    return _level_gradients(level, int((row_i - half).min()), int((row_i + half).max()),
                            int((col_i - half).min()), int((col_i + half).max()))


def _chunks(n: int, half: int):
    """Slices of at most CHUNK_PIXELS padded (2*half+1)^2 windows each."""
    step = max(1, CHUNK_PIXELS // (2 * half + 1) ** 2)
    for start in range(0, n, step):
        yield slice(start, min(n, start + step))


def _windows(centre, lo, hi, half):
    """Pixel indices (n, 2*half+1) along one axis of square windows padded
    to the largest in the chunk, and the mask of those in [lo, hi]."""
    idx = centre[:, None] + np.arange(-half, half + 1)
    return idx, (idx >= lo[:, None]) & (idx <= hi[:, None])


def _select(mask, rows, cols, grad: _Gradients):
    """Keypoint index and flat gradient index of every set position of
    mask (n, W, W), in row-major window order per keypoint."""
    k_sel = np.repeat(np.arange(len(mask)), np.count_nonzero(mask, axis=(1, 2)))
    pixel = ((rows - grad.top) * grad.mag.shape[1])[:, :, None] + (cols - grad.left)[:, None, :]
    return k_sel, pixel[mask]


def _orientation_histograms(frames: _Frames, grad: _Gradients) -> np.ndarray:
    """Gaussian-weighted 36-bin gradient angle histograms (n, 36) of the
    keypoints of one level, before smoothing. Windows are clipped at the
    gradient box."""
    bottom = grad.top + grad.mag.shape[0] - 1
    right = grad.left + grad.mag.shape[1] - 1
    mag_flat, ang_flat = grad.mag.ravel(), grad.ang.ravel()
    radii = _orientation_radius(frames.scale)
    sigma_dens = np.array([2.0 * (1.5 * s) ** 2 for s in frames.scale.tolist()])
    out = np.zeros((len(radii), ORIENTATION_BINS))
    for part in _chunks(len(radii), int(radii.max())):
        row_c, col_c, radius = frames.row[part], frames.col[part], radii[part]
        row_i = np.rint(row_c).astype(np.int64)
        col_i = np.rint(col_c).astype(np.int64)
        half = int(radius.max())
        rows, row_ok = _windows(
            row_i, np.maximum(grad.top, row_i - radius), np.minimum(bottom, row_i + radius), half
        )
        cols, col_ok = _windows(
            col_i, np.maximum(grad.left, col_i - radius), np.minimum(right, col_i + radius), half
        )
        inside = row_ok[:, :, None] & col_ok[:, None, :]
        k_sel, pixel = _select(inside, rows, cols, grad)
        dr2 = (rows - row_c[:, None]) ** 2
        dc2 = (cols - col_c[:, None]) ** 2
        dist2 = dr2[:, :, None] + dc2[:, None, :]
        weight = np.exp(-dist2[inside] / sigma_dens[part][k_sel])
        bins = np.rint(ang_flat[pixel] * (ORIENTATION_BINS / (2.0 * np.pi))).astype(int)
        hist = np.bincount(
            k_sel * ORIENTATION_BINS + bins % ORIENTATION_BINS,
            weights=weight * mag_flat[pixel],
            minlength=len(row_c) * ORIENTATION_BINS,
        )
        out[part] = hist.reshape(len(row_c), ORIENTATION_BINS)
    return out


def _orientations(frames: _Frames, grad: _Gradients):
    """Orientation peaks of the keypoints of one level: histogram peaks
    within 80% of the top peak, with parabolic peak refinement. Returns the
    keypoint index and the angle of each peak, per keypoint in bin order."""
    hist = _smooth_circular(_orientation_histograms(frames, grad))
    left = np.roll(hist, 1, axis=1)
    right = np.roll(hist, -1, axis=1)
    top = hist.max(axis=1, keepdims=True)
    peak = (top > 0) & (hist > left) & (hist > right) & (hist >= PEAK_RATIO * top)
    k_idx, bin_idx = np.nonzero(peak)
    left, centre, right = left[k_idx, bin_idx], hist[k_idx, bin_idx], right[k_idx, bin_idx]
    shift = 0.5 * (left - right) / (left - 2.0 * centre + right)
    return k_idx, (bin_idx + shift) * (2.0 * np.pi / ORIENTATION_BINS) % (2.0 * np.pi)


def _descriptor_histograms(frames: _Frames, theta: np.ndarray, grad: _Gradients) -> np.ndarray:
    """Raw 4x4x8 trilinearly pooled gradient histograms (n, 128) of
    keypoints of one level at orientations theta, whose windows lie inside
    the gradient box."""
    grid, n_bins = DESCRIPTOR_GRID, DESCRIPTOR_BINS
    cells = grid + 2  # one spill-over cell each side, dropped at the end
    mag_flat, ang_flat = grad.mag.ravel(), grad.ang.ravel()
    halves = _descriptor_half(frames.scale)
    cos_all = np.array([math.cos(t) for t in theta.tolist()])
    sin_all = np.array([math.sin(t) for t in theta.tolist()])
    out = np.zeros((len(theta), DESCRIPTOR_LENGTH))
    for part in _chunks(len(theta), int(halves.max())):
        row_c, col_c, half = frames.row[part], frames.col[part], halves[part]
        hist_width = 3.0 * frames.scale[part]
        cos_t, sin_t = cos_all[part], sin_all[part]
        row_i = np.rint(row_c).astype(np.int64)
        col_i = np.rint(col_c).astype(np.int64)
        size = int(half.max())
        rows, row_ok = _windows(row_i, row_i - half, row_i + half, size)
        cols, col_ok = _windows(col_i, col_i - half, col_i + half, size)
        dr = rows - row_c[:, None]
        dc = cols - col_c[:, None]
        # sample offsets rotated into the keypoint frame, in histogram widths
        hw = hist_width[:, None, None]
        u = ((-sin_t[:, None] * dc)[:, None, :] + (cos_t[:, None] * dr)[:, :, None]) / hw
        v = ((cos_t[:, None] * dc)[:, None, :] + (sin_t[:, None] * dr)[:, :, None]) / hw
        row_bin = u + 0.5 * grid - 0.5
        col_bin = v + 0.5 * grid - 0.5
        inside = (
            (row_bin > -1) & (row_bin < grid) & (col_bin > -1) & (col_bin < grid)
            & row_ok[:, :, None] & col_ok[:, None, :]
        )
        k_sel, pixel = _select(inside, rows, cols, grad)
        u, v = u[inside], v[inside]
        rb, cb = row_bin[inside], col_bin[inside]
        weight = np.exp(-(u**2 + v**2) / (2.0 * (0.5 * grid) ** 2))
        cv = weight * mag_flat[pixel]
        # np.remainder's result without its slow fmod: x - n_bins * floor(x /
        # n_bins) is the floor-mod rounded once; the masked add mends the
        # negative left where x / n_bins underflows to -0
        ob = (ang_flat[pixel] - theta[part][k_sel]) * (n_bins / (2.0 * np.pi))
        ob -= n_bins * np.floor(ob / n_bins)
        np.add(ob, n_bins, out=ob, where=ob < 0)

        r_f = np.floor(rb).astype(int)
        c_f = np.floor(cb).astype(int)
        o_f = np.floor(ob).astype(int)
        r_d = rb - r_f
        c_d = cb - c_f
        o_d = ob - o_f
        cell = ((k_sel * cells + r_f + 1) * cells + c_f + 1) * n_bins
        o_index = (cell + o_f % n_bins, cell + (o_f + 1) % n_bins)
        r_weight, c_weight, o_weight = (1 - r_d, r_d), (1 - c_d, c_d), (1 - o_d, o_d)
        # the eight trilinear passes in a fixed order, each one flat scatter
        # over the whole chunk: every bin sums its terms pass by pass and
        # sample by sample, as a keypoint-at-a-time accumulation would
        hist = np.zeros(len(row_c) * cells * cells * n_bins)
        for r_off in (0, 1):
            wr = cv * r_weight[r_off]
            for c_off in (0, 1):
                wc = wr * c_weight[c_off]
                for o_off in (0, 1):
                    shifted = hist[(r_off * cells + c_off) * n_bins:]
                    np.add.at(shifted, o_index[o_off], wc * o_weight[o_off])
        out[part] = hist.reshape(len(row_c), cells, cells, n_bins)[:, 1:-1, 1:-1].reshape(
            len(row_c), DESCRIPTOR_LENGTH
        )
    return out


def _level_key(kp: Keypoint, space: ScaleSpace) -> tuple[int, int]:
    return kp.octave, min(kp.layer, len(space.gaussians[kp.octave]) - 1)


def _oriented(kp: Keypoint, angle: float) -> Keypoint:
    return Keypoint(kp.x, kp.y, kp.scale, angle, kp.response, kp.octave, kp.layer,
                    kp.octave_scale)


def assign_orientations(kp: Keypoint, space: ScaleSpace) -> list[Keypoint]:
    """One or more oriented copies of a keypoint: histogram peaks within 80%
    of the top peak each spawn a keypoint, with parabolic peak refinement.
    The histogram window is clipped at the image border."""
    octave, layer = _level_key(kp, space)
    level = space.gaussians[octave][layer]
    h, w = level.shape
    frames = _Frames.of([kp], space.deltas[octave])
    _, angles = _orientations(frames, _level_gradients(level, 1, h - 2, 1, w - 2))
    return [_oriented(kp, angle) for angle in angles.tolist()]


def compute_descriptor(kp: Keypoint, space: ScaleSpace) -> np.ndarray | None:
    """128-d gradient histogram descriptor, or None when the sampling window
    leaves the octave image (such keypoints are dropped)."""
    octave, layer = _level_key(kp, space)
    level = space.gaussians[octave][layer]
    frames = _Frames.of([kp], space.deltas[octave])
    if not _descriptor_windows_inside(frames, level.shape)[0]:
        return None
    raw = _descriptor_histograms(frames, np.array([kp.orientation]),
                                 _window_gradients(level, frames))
    return normalize_descriptor(raw[0])


def extract(img: GreyImage, params: SiftParams = SiftParams()) -> list[tuple[Keypoint, np.ndarray]]:
    """Full pipeline: pyramid, detection, orientation, descriptors.

    Keypoints whose descriptor window leaves the octave image are dropped
    before orientation; the rest are oriented and described level by level.
    Output order is deterministic: sorted by (octave, y, x, scale,
    orientation)."""
    space = build_scale_space(img, params)
    kps = detect_keypoints(space)
    by_level: dict[tuple[int, int], list[int]] = {}
    for i, kp in enumerate(kps):
        by_level.setdefault(_level_key(kp, space), []).append(i)
    # (keypoint, descriptor) pairs per detected keypoint, so that the
    # stable sort below sees them in detection order whatever the level
    per_kp = [[] for _ in kps]
    for (octave, layer), members in by_level.items():
        level = space.gaussians[octave][layer]
        frames = _Frames.of([kps[i] for i in members], space.deltas[octave])
        inside = np.flatnonzero(_descriptor_windows_inside(frames, level.shape))
        if not inside.size:
            continue
        frames = frames.take(inside)
        grad = _window_gradients(level, frames)
        k_idx, angles = _orientations(frames, grad)
        if not k_idx.size:
            continue
        descriptors, ok = _normalize(_descriptor_histograms(frames.take(k_idx), angles, grad))
        owners = np.asarray(members)[inside[k_idx]]
        for i, angle, descriptor in zip(owners[ok].tolist(), angles[ok].tolist(), descriptors[ok]):
            per_kp[i].append((_oriented(kps[i], angle), descriptor))
    out = [pair for pairs in per_kp for pair in pairs]
    out.sort(key=lambda kd: (kd[0].octave, kd[0].y, kd[0].x, kd[0].scale, kd[0].orientation))
    return out


def descriptor_matrix(pairs: list[tuple[Keypoint, np.ndarray]]) -> np.ndarray:
    """Stack extracted descriptors as an (n, 128) matrix (empty-safe)."""
    if not pairs:
        return np.zeros((0, DESCRIPTOR_LENGTH))
    return np.stack([d for _, d in pairs])
