"""Scale-invariant keypoint detection and 128-d descriptors for greyscale
images.

Classic difference-of-Gaussians detector: a Gaussian pyramid per octave,
26-neighbour extrema with quadratic sub-pixel refinement, contrast and edge
rejection, 36-bin orientation assignment and 4x4x8 trilinearly pooled
gradient descriptors. All parameter defaults are the canonical published
values; nothing here is data-dependent or random.

The work is batched per pyramid level rather than per keypoint:

* extrema: the six face neighbours are compared over the whole DoG stack,
  the other twenty only at the points that beat all six;
* refinement: all extrema of an octave together, one stacked 3x3 solve
  per move;
* gradients: magnitude and angle once per (octave, layer) level;
* orientation histograms and descriptors: all keypoints of a level at
  once, in chunks of about ``CHUNK_PIXELS`` window pixels. Orientation
  bins come from one ``np.bincount`` per chunk, descriptor bins from one
  flat ``np.add.at`` per trilinear pass per chunk, so every bin sums its
  terms in the order a keypoint-at-a-time computation would, and the
  results are bit-identical to it;
* ``extract`` drops keypoints whose descriptor window leaves the octave
  image before assigning orientations: that test does not depend on
  orientation.

``assign_orientations`` and ``compute_descriptor`` are batches of one over
the same code.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dataio import GreyImage
from .errors import ImageTooSmall

DESCRIPTOR_LENGTH = 128
ORIENTATION_BINS = 36
PEAK_RATIO = 0.8
DESCRIPTOR_CLAMP = 0.2
DESCRIPTOR_GRID = 4
DESCRIPTOR_BINS = 8
CHUNK_PIXELS = 2**14  # window pixels per batch, bounds temporary memory


@dataclass(frozen=True)
class SiftParams:
    scales_per_octave: int = 3
    base_sigma: float = 1.6
    contrast_threshold: float = 0.04
    edge_ratio_threshold: float = 10.0
    n_octaves: int | None = None      # None: derived from image size
    upsample_first: bool = False      # start one octave below the input
    assumed_blur: float = 0.5

    def __post_init__(self):
        if self.scales_per_octave < 1:
            raise ValueError("scales_per_octave must be >= 1")
        if min(self.base_sigma, self.contrast_threshold, self.edge_ratio_threshold) <= 0:
            raise ValueError("sigma and thresholds must be positive")


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
    sigmas: np.ndarray = field(default=None)  # per-level sigma within an octave


@lru_cache(maxsize=32)
def _blur_kernel(sigma: float) -> np.ndarray:
    radius = max(1, int(math.ceil(4.0 * sigma)))
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-0.5 * (t / sigma) ** 2)
    kernel /= kernel.sum()
    kernel.flags.writeable = False
    return kernel


def _gaussian_blur(img: np.ndarray, sigma: float) -> np.ndarray:
    if sigma <= 0:
        return img.copy()
    kernel = _blur_kernel(sigma)
    radius = kernel.size // 2
    pad = np.pad(img, ((0, 0), (radius, radius)), mode="edge")
    img = sliding_window_view(pad, 2 * radius + 1, axis=1) @ kernel
    pad = np.pad(img, ((radius, radius), (0, 0)), mode="edge")
    return sliding_window_view(pad, 2 * radius + 1, axis=0) @ kernel


def _level_sigmas(params: SiftParams) -> np.ndarray:
    s = params.scales_per_octave
    return params.base_sigma * 2.0 ** (np.arange(s + 3) / s)


def build_scale_space(img: GreyImage, params: SiftParams = SiftParams()) -> ScaleSpace:
    """Gaussian and DoG pyramids. Per octave there are s+3 Gaussian levels
    with geometrically spaced sigmas; each next octave halves the resolution
    starting from the level at exactly twice the base sigma."""
    if min(img.height, img.width) < 16:
        raise ImageTooSmall(f"need at least 16x16, got {img.width}x{img.height}")
    base = img.pixels.astype(np.float64) / 255.0
    delta = 1.0
    blur = params.assumed_blur
    if params.upsample_first:
        base = np.repeat(np.repeat(base, 2, axis=0), 2, axis=1)
        delta = 0.5
        blur *= 2.0
    seed_sigma = math.sqrt(max(params.base_sigma**2 - blur**2, 0.01))
    base = _gaussian_blur(base, seed_sigma)

    n_octaves = params.n_octaves
    if n_octaves is None:
        n_octaves = max(1, int(math.floor(math.log2(min(base.shape)))) - 2)

    sigmas = _level_sigmas(params)
    increments = np.sqrt(np.diff(sigmas**2))
    s = params.scales_per_octave

    gaussians, dogs, deltas = [], [], []
    current = base
    for _ in range(n_octaves):
        levels = [current]
        for inc in increments:
            levels.append(_gaussian_blur(levels[-1], inc))
        stack = np.stack(levels)
        gaussians.append(stack)
        dogs.append(stack[1:] - stack[:-1])
        deltas.append(delta)
        current = levels[s][::2, ::2]
        delta *= 2.0
        if min(current.shape) < 4:
            break
    return ScaleSpace(gaussians, dogs, deltas, params, sigmas)


_NEIGHBOURS = [
    (dl, dr, dc)
    for dl in (-1, 0, 1)
    for dr in (-1, 0, 1)
    for dc in (-1, 0, 1)
    if (dl, dr, dc) != (0, 0, 0)
]
_FACES = [o for o in _NEIGHBOURS if sum(map(abs, o)) == 1]


def _local_extrema(dog: np.ndarray, floor: float) -> np.ndarray:
    """(layer, row, col) indices of strict 26-neighbour extrema with
    |value| above the prefilter floor. Indices refer to the full arrays.

    The six face neighbours are compared over the whole stack; the other
    twenty only at the few points that beat all six."""
    n_l, h, w = dog.shape
    centre = dog[1:-1, 1:-1, 1:-1]
    is_max = np.abs(centre) > floor
    is_min = is_max.copy()
    for dl, dr, dc in _FACES:
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
        if (dl, dr, dc) not in _FACES:
            nb = flat_dog[flat + (dl * h + dr) * w + dc]
            is_max &= values > nb
            is_min &= values < nb
    return points[is_max | is_min]


def _taylor(d: np.ndarray, layer, row, col):
    """Central-difference gradient (n, 3) and Hessian (n, 3, 3) of the DoG
    stack at integer points, in (layer, row, col) order."""
    grad = 0.5 * np.stack(
        [
            d[layer + 1, row, col] - d[layer - 1, row, col],
            d[layer, row + 1, col] - d[layer, row - 1, col],
            d[layer, row, col + 1] - d[layer, row, col - 1],
        ],
        axis=1,
    )
    centre = d[layer, row, col]
    hll = d[layer + 1, row, col] + d[layer - 1, row, col] - 2 * centre
    hrr = d[layer, row + 1, col] + d[layer, row - 1, col] - 2 * centre
    hcc = d[layer, row, col + 1] + d[layer, row, col - 1] - 2 * centre
    hlr = 0.25 * (
        d[layer + 1, row + 1, col] - d[layer + 1, row - 1, col]
        - d[layer - 1, row + 1, col] + d[layer - 1, row - 1, col]
    )
    hlc = 0.25 * (
        d[layer + 1, row, col + 1] - d[layer + 1, row, col - 1]
        - d[layer - 1, row, col + 1] + d[layer - 1, row, col - 1]
    )
    hrc = 0.25 * (
        d[layer, row + 1, col + 1] - d[layer, row + 1, col - 1]
        - d[layer, row - 1, col + 1] + d[layer, row - 1, col - 1]
    )
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


def _refine(dog: np.ndarray, points: np.ndarray, params: SiftParams):
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
    r = params.edge_ratio_threshold
    keep = (
        (np.abs(value) >= params.contrast_threshold)
        & (det > 0)
        & (tr**2 * r < det * (r + 1) ** 2)
    )
    return pos[keep] + offset[keep], np.abs(value[keep])


def detect_keypoints(space: ScaleSpace, params: SiftParams | None = None) -> list[Keypoint]:
    """Unoriented keypoints (orientation 0) from the DoG pyramids."""
    params = params or space.params
    s = params.scales_per_octave
    floor = 0.5 * params.contrast_threshold / s
    found = []
    for octave, dog in enumerate(space.dogs):
        delta = space.deltas[octave]
        refined, values = _refine(dog, _local_extrema(dog, floor), params)
        for (layer_f, row_f, col_f), value in zip(refined, values):
            octave_scale = params.base_sigma * 2.0 ** (layer_f / s)
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
    norm = np.linalg.norm(raw)
    if norm < 1e-12:
        return None
    clamped = np.minimum(raw / norm, DESCRIPTOR_CLAMP)
    norm = np.linalg.norm(clamped)
    if norm < 1e-12:
        return None
    return clamped / norm


def _smooth_circular(hist: np.ndarray) -> np.ndarray:
    pad = np.concatenate([hist[-2:], hist, hist[:2]])
    kernel = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0
    return np.convolve(pad, kernel, mode="valid")


# --- per-level batches ------------------------------------------------------


def _level_key(kp: Keypoint, space: ScaleSpace) -> tuple[int, int]:
    return kp.octave, min(kp.layer, len(space.gaussians[kp.octave]) - 1)


def _level_gradients(level: np.ndarray):
    """Magnitude and angle of the central-difference gradient of one pyramid
    level; element [r - 1, c - 1] belongs to interior pixel (r, c)."""
    dy = 0.5 * (level[2:, 1:-1] - level[:-2, 1:-1])
    dx = 0.5 * (level[1:-1, 2:] - level[1:-1, :-2])
    return np.hypot(dx, dy), np.arctan2(dy, dx)


def _orientation_radius(kp: Keypoint) -> int:
    return int(round(3.0 * (1.5 * kp.octave_scale)))


def _descriptor_half(kp: Keypoint) -> int:
    hist_width = 3.0 * kp.octave_scale
    return int(round(hist_width * math.sqrt(2) * (DESCRIPTOR_GRID + 1) * 0.5))


def _descriptor_window_inside(kp: Keypoint, space: ScaleSpace) -> bool:
    """Whether the descriptor sampling window lies inside the octave image.
    Orientation does not enter: the window is an axis-aligned square."""
    h, w = space.gaussians[kp.octave].shape[1:]
    delta = space.deltas[kp.octave]
    half = _descriptor_half(kp)
    row_i = int(round(kp.y / delta))
    col_i = int(round(kp.x / delta))
    return (
        1 <= row_i - half and row_i + half <= h - 2
        and 1 <= col_i - half and col_i + half <= w - 2
    )


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


def _select(mask, rows, cols, width):
    """Keypoint index and flat level-gradient index of every set position
    of mask (n, W, W), in row-major window order per keypoint."""
    k_sel = np.repeat(np.arange(len(mask)), np.count_nonzero(mask, axis=(1, 2)))
    pixel = ((rows - 1) * width)[:, :, None] + (cols - 1)[:, None, :]
    return k_sel, pixel[mask]


def _orientation_histograms(kps, mag, ang, delta) -> np.ndarray:
    """Gaussian-weighted 36-bin gradient angle histograms (n, 36) for the
    keypoints of one level, before smoothing. Windows are clipped at the
    image border."""
    h, w = mag.shape[0] + 2, mag.shape[1] + 2
    mag_flat, ang_flat = mag.ravel(), ang.ravel()
    out = np.zeros((len(kps), ORIENTATION_BINS))
    for part in _chunks(len(kps), max(_orientation_radius(k) for k in kps)):
        chunk = kps[part]
        row_c = np.array([k.y / delta for k in chunk])
        col_c = np.array([k.x / delta for k in chunk])
        sigma_den = np.array([2.0 * (1.5 * k.octave_scale) ** 2 for k in chunk])
        radius = np.array([_orientation_radius(k) for k in chunk])
        row_i = np.rint(row_c).astype(np.int64)
        col_i = np.rint(col_c).astype(np.int64)
        half = int(radius.max())
        rows, row_ok = _windows(
            row_i, np.maximum(1, row_i - radius), np.minimum(h - 2, row_i + radius), half
        )
        cols, col_ok = _windows(
            col_i, np.maximum(1, col_i - radius), np.minimum(w - 2, col_i + radius), half
        )
        inside = row_ok[:, :, None] & col_ok[:, None, :]
        k_sel, pixel = _select(inside, rows, cols, w - 2)
        dr2 = (rows - row_c[:, None]) ** 2
        dc2 = (cols - col_c[:, None]) ** 2
        dist2 = dr2[:, :, None] + dc2[:, None, :]
        weight = np.exp(-dist2[inside] / sigma_den[k_sel])
        bins = np.rint(ang_flat[pixel] * (ORIENTATION_BINS / (2.0 * np.pi))).astype(int)
        hist = np.bincount(
            k_sel * ORIENTATION_BINS + bins % ORIENTATION_BINS,
            weights=weight * mag_flat[pixel],
            minlength=len(chunk) * ORIENTATION_BINS,
        )
        out[part] = hist.reshape(len(chunk), ORIENTATION_BINS)
    return out


def _orient_level(kps, mag, ang, delta) -> list[list[Keypoint]]:
    """Oriented copies of each keypoint of one level: histogram peaks within
    80% of the top peak each spawn a keypoint, with parabolic peak
    refinement."""
    if not kps:
        return []
    raw = _orientation_histograms(kps, mag, ang, delta)
    hist = np.array([_smooth_circular(row) for row in raw])
    left = np.roll(hist, 1, axis=1)
    right = np.roll(hist, -1, axis=1)
    top = hist.max(axis=1, keepdims=True)
    peak = (top > 0) & (hist > left) & (hist > right) & (hist >= PEAK_RATIO * top)
    k_idx, bin_idx = np.nonzero(peak)
    left, centre, right = left[k_idx, bin_idx], hist[k_idx, bin_idx], right[k_idx, bin_idx]
    shift = 0.5 * (left - right) / (left - 2.0 * centre + right)
    angles = (bin_idx + shift) * (2.0 * np.pi / ORIENTATION_BINS) % (2.0 * np.pi)
    out = [[] for _ in kps]
    for i, angle in zip(k_idx.tolist(), angles.tolist()):
        out[i].append(replace(kps[i], orientation=angle))
    return out


def _descriptor_histograms(kps, mag, ang, delta) -> np.ndarray:
    """Raw 4x4x8 trilinearly pooled gradient histograms (n, 128) for
    keypoints of one level whose windows lie inside it."""
    grid, n_bins = DESCRIPTOR_GRID, DESCRIPTOR_BINS
    cells = grid + 2  # one spill-over cell each side, dropped at the end
    mag_flat, ang_flat = mag.ravel(), ang.ravel()
    out = np.zeros((len(kps), DESCRIPTOR_LENGTH))
    for part in _chunks(len(kps), max(_descriptor_half(k) for k in kps)):
        chunk = kps[part]
        row_c = np.array([k.y / delta for k in chunk])
        col_c = np.array([k.x / delta for k in chunk])
        hist_width = np.array([3.0 * k.octave_scale for k in chunk])
        theta = np.array([k.orientation for k in chunk])
        cos_t = np.array([math.cos(k.orientation) for k in chunk])
        sin_t = np.array([math.sin(k.orientation) for k in chunk])
        half = np.array([_descriptor_half(k) for k in chunk])
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
        k_sel, pixel = _select(inside, rows, cols, mag.shape[1])
        u, v = u[inside], v[inside]
        rb, cb = row_bin[inside], col_bin[inside]
        weight = np.exp(-(u**2 + v**2) / (2.0 * (0.5 * grid) ** 2))
        cv = weight * mag_flat[pixel]
        # np.remainder's result, from the faster fmod plus its sign rule
        ob = np.fmod((ang_flat[pixel] - theta[k_sel]) * (n_bins / (2.0 * np.pi)), n_bins)
        ob += n_bins * (ob < 0)

        r_f = np.floor(rb).astype(int)
        c_f = np.floor(cb).astype(int)
        o_f = np.floor(ob).astype(int)
        r_d = rb - r_f
        c_d = cb - c_f
        o_d = ob - o_f
        cell = ((k_sel * cells + r_f + 1) * cells + c_f + 1) * n_bins
        o_index = (cell + o_f % n_bins, cell + (o_f + 1) % n_bins)
        o_weight = (1 - o_d, o_d)
        # the eight trilinear passes in a fixed order, each one flat scatter
        # over the whole chunk: every bin sums its terms pass by pass and
        # sample by sample, as a keypoint-at-a-time accumulation would
        hist = np.zeros(len(chunk) * cells * cells * n_bins)
        for r_off in (0, 1):
            wr = cv * (r_d if r_off else 1 - r_d)
            for c_off in (0, 1):
                wc = wr * (c_d if c_off else 1 - c_d)
                for o_off in (0, 1):
                    shift = (r_off * cells + c_off) * n_bins
                    np.add.at(hist, o_index[o_off] + shift, wc * o_weight[o_off])
        out[part] = hist.reshape(len(chunk), cells, cells, n_bins)[:, 1:-1, 1:-1].reshape(
            len(chunk), DESCRIPTOR_LENGTH
        )
    return out


def _describe_level(kps, mag, ang, delta) -> list[np.ndarray | None]:
    if not kps:
        return []
    return [normalize_descriptor(raw) for raw in _descriptor_histograms(kps, mag, ang, delta)]


def _level_inputs(kp: Keypoint, space: ScaleSpace):
    octave, layer = _level_key(kp, space)
    return (*_level_gradients(space.gaussians[octave][layer]), space.deltas[octave])


def assign_orientations(kp: Keypoint, space: ScaleSpace) -> list[Keypoint]:
    """One or more oriented copies of a keypoint: histogram peaks within 80%
    of the top peak each spawn a keypoint, with parabolic peak refinement.
    The histogram window is clipped at the image border."""
    return _orient_level([kp], *_level_inputs(kp, space))[0]


def compute_descriptor(kp: Keypoint, space: ScaleSpace) -> np.ndarray | None:
    """128-d gradient histogram descriptor, or None when the sampling window
    leaves the octave image (such keypoints are dropped)."""
    if not _descriptor_window_inside(kp, space):
        return None
    return _describe_level([kp], *_level_inputs(kp, space))[0]


def extract(img: GreyImage, params: SiftParams = SiftParams()) -> list[tuple[Keypoint, np.ndarray]]:
    """Full pipeline: pyramid, detection, orientation, descriptors.

    Keypoints whose descriptor window leaves the octave image are dropped
    before orientation; the rest are oriented and described level by level.
    Output order is deterministic: sorted by (octave, y, x, scale,
    orientation)."""
    space = build_scale_space(img, params)
    kps = [kp for kp in detect_keypoints(space, params) if _descriptor_window_inside(kp, space)]
    by_level: dict[tuple[int, int], list[int]] = {}
    for i, kp in enumerate(kps):
        by_level.setdefault(_level_key(kp, space), []).append(i)
    # (keypoint, descriptor) pairs per detected keypoint, so that the
    # stable sort below sees them in detection order whatever the level
    per_kp = [[] for _ in kps]
    for (octave, layer), members in by_level.items():
        mag, ang = _level_gradients(space.gaussians[octave][layer])
        delta = space.deltas[octave]
        copies = _orient_level([kps[i] for i in members], mag, ang, delta)
        oriented = [k for group in copies for k in group]
        descriptors = iter(_describe_level(oriented, mag, ang, delta))
        for i, group in zip(members, copies):
            per_kp[i] = [(k, next(descriptors)) for k in group]
    out = [(k, d) for pairs in per_kp for k, d in pairs if d is not None]
    out.sort(key=lambda kd: (kd[0].octave, kd[0].y, kd[0].x, kd[0].scale, kd[0].orientation))
    return out


def descriptor_matrix(pairs: list[tuple[Keypoint, np.ndarray]]) -> np.ndarray:
    """Stack extracted descriptors as an (n, 128) matrix (empty-safe)."""
    if not pairs:
        return np.zeros((0, DESCRIPTOR_LENGTH))
    return np.stack([d for _, d in pairs])
