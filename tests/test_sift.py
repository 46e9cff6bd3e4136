import math
from pathlib import Path

import numpy as np
import pytest

from ramanfuse.dataio import GreyImage
from ramanfuse.errors import ImageTooSmall
from ramanfuse.imaging import resize_cubic
from ramanfuse.sift import (
    Keypoint,
    SiftParams,
    assign_orientations,
    build_scale_space,
    compute_descriptor,
    descriptor_matrix,
    detect_keypoints,
    extract,
    normalize_descriptor,
)

GOLDEN = Path(__file__).parent / "data" / "sift_golden.npz"
PIPELINE_SIFT = SiftParams(contrast_threshold=0.02, upsample_first=True)


def to_grey(arr):
    arr = arr - arr.min()
    peak = arr.max()
    if peak > 0:
        arr = 255.0 * arr / peak
    return GreyImage(np.floor(arr + 0.5).astype(np.uint8))


def blob_field(rng, size=128, cell=24, margin=16):
    """Smooth random texture: signed anisotropic Gaussian bumps on a
    jittered grid.

    Grid placement keeps bumps from overlapping and cancelling (which would
    crush contrast under the global normalization), while jitter, elongation
    and neighbour context keep each feature distinctive enough for
    ratio-test matching.
    """
    y, x = np.mgrid[0:size, 0:size].astype(float)
    img = np.zeros((size, size))
    for gy in range(margin, size - margin, cell):
        for gx in range(margin, size - margin, cell):
            cx = gx + rng.uniform(-5, 5)
            cy = gy + rng.uniform(-5, 5)
            s1 = rng.uniform(2.0, 4.0)
            s2 = s1 * rng.uniform(1.0, 1.5)
            theta = rng.uniform(0, np.pi)
            a = rng.uniform(0.7, 1.0) * (1 if rng.random() < 0.5 else -1)
            dx = x - cx
            dy = y - cy
            u = np.cos(theta) * dx + np.sin(theta) * dy
            v = -np.sin(theta) * dx + np.cos(theta) * dy
            img += a * np.exp(-0.5 * ((u / s1) ** 2 + (v / s2) ** 2))
    return to_grey(img)


def gaussian_blob(size, sigma, centre=None, amplitude=255.0):
    cy = cx = (size - 1) / 2 if centre is None else None
    if centre is not None:
        cy, cx = centre
    y, x = np.mgrid[0:size, 0:size].astype(float)
    return amplitude * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2 * sigma * sigma))


class TestScaleSpace:
    def test_constant_image_all_dog_zero(self):
        space = build_scale_space(GreyImage(np.full((32, 32), 77, dtype=np.uint8)))
        for dog in space.dogs:
            assert np.max(np.abs(dog)) < 1e-12

    def test_level_sigma_progression(self):
        space = build_scale_space(GreyImage(np.zeros((32, 32), dtype=np.uint8)))
        expect = [1.6, 2.016, 2.540, 3.200, 4.032, 5.080]
        assert np.allclose(space.sigmas, expect, atol=5e-4)

    def test_octave_halves_resolution(self):
        space = build_scale_space(GreyImage(np.zeros((64, 48), dtype=np.uint8)))
        assert space.gaussians[0].shape[1:] == (64, 48)
        assert space.gaussians[1].shape[1:] == (32, 24)
        assert space.deltas[:2] == [1.0, 2.0]
        assert space.gaussians[0].shape[0] == 6  # s + 3

    def test_blob_response_peaks_near_blob_scale(self):
        sigma_b = 4.0
        img = to_grey(gaussian_blob(65, sigma_b))
        space = build_scale_space(img)
        best = None
        for octave, dog in enumerate(space.dogs):
            delta = space.deltas[octave]
            r = int(round(32.0 / delta))
            for layer in range(dog.shape[0]):
                value = abs(dog[layer, r, r])
                sigma = space.sigmas[layer] * delta
                if best is None or value > best[0]:
                    best = (value, sigma)
        step = 2 ** (1 / 3)
        assert best[1] / sigma_b < step * 1.05
        assert best[1] / sigma_b > 1 / (step * 1.05)

    def test_small_image_rejected(self):
        with pytest.raises(ImageTooSmall):
            build_scale_space(GreyImage(np.zeros((15, 40), dtype=np.uint8)))


def dense_local_extrema(dog, floor):
    """Reference: every interior point against all 26 neighbours at once."""
    n_l, h, w = dog.shape
    centre = dog[1:-1, 1:-1, 1:-1]
    is_max = np.abs(centre) > floor
    is_min = is_max.copy()
    for dl in (-1, 0, 1):
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                if dl == dr == dc == 0:
                    continue
                nb = dog[1 + dl:n_l - 1 + dl, 1 + dr:h - 1 + dr, 1 + dc:w - 1 + dc]
                is_max &= centre > nb
                is_min &= centre < nb
    return np.argwhere(is_max | is_min) + 1


class TestDetect:
    @pytest.mark.parametrize("levels", [3, 50])
    def test_local_extrema_match_dense_reference(self, levels):
        # few distinct values make ties common, so strictness is exercised
        from ramanfuse.sift import _local_extrema

        rng = np.random.default_rng(levels)
        dog = rng.integers(0, levels, size=(5, 23, 19)) / levels - 0.5
        for floor in (0.0, 0.2):
            got = _local_extrema(dog, floor)
            assert got.tolist() == dense_local_extrema(dog, floor).tolist()
        assert len(_local_extrema(dog, 0.0)) > 0

    def test_constant_image_no_keypoints(self):
        space = build_scale_space(GreyImage(np.full((32, 32), 9, dtype=np.uint8)))
        assert detect_keypoints(space) == []

    def test_blob_detected_near_centre(self):
        # odd size puts the blob centre on a pixel, so the strict
        # neighbour comparison has a unique extremum to find
        img = to_grey(gaussian_blob(65, 3.0))
        kps = detect_keypoints(build_scale_space(img))
        assert kps
        d = min(math.hypot(k.x - 32.0, k.y - 32.0) for k in kps)
        assert d <= 2.0

    def test_straight_edge_rejected(self):
        img = np.zeros((64, 64))
        img[:, 32:] = 200.0
        # soften so the step survives pyramid smoothing as a clean edge
        from ramanfuse.sift import _gaussian_blur

        img = _gaussian_blur(img, 1.0)
        kps = detect_keypoints(build_scale_space(to_grey(img)))
        assert kps == []

    def test_count_monotone_in_contrast_threshold(self):
        img = blob_field(np.random.default_rng(4))
        counts = []
        for ct in (0.01, 0.04, 0.10):
            space = build_scale_space(img, SiftParams(contrast_threshold=ct))
            counts.append(len(detect_keypoints(space)))
        assert counts[0] >= counts[1] >= counts[2]
        assert counts[0] > 0

    def test_coordinates_inside_image(self):
        img = blob_field(np.random.default_rng(1))
        kps = detect_keypoints(build_scale_space(img))
        for k in kps:
            assert 0 <= k.x < img.width and 0 <= k.y < img.height
            assert k.scale > 0 and k.response > 0


def ramp_space_and_keypoint(image):
    space = build_scale_space(GreyImage(image))
    kp = Keypoint(
        x=32.0, y=32.0, scale=2.016, orientation=0.0, response=1.0,
        octave=0, layer=1, octave_scale=2.016,
    )
    return space, kp


class TestOrientations:
    def test_horizontal_ramp_orientation_zero(self):
        img = np.tile(np.arange(64, dtype=np.uint8) * 3, (64, 1))
        space, kp = ramp_space_and_keypoint(img)
        oriented = assign_orientations(kp, space)
        assert len(oriented) >= 1
        angle = oriented[0].orientation
        assert min(angle, 2 * np.pi - angle) < 0.1

    def test_rotated_ramp_shifts_by_quarter_turn(self):
        img = np.tile(np.arange(64, dtype=np.uint8) * 3, (64, 1))
        space_a, kp = ramp_space_and_keypoint(img)
        space_b, _ = ramp_space_and_keypoint(np.rot90(img).copy())
        a = assign_orientations(kp, space_a)[0].orientation
        b = assign_orientations(kp, space_b)[0].orientation
        assert abs(math.cos(a - b)) < 0.1  # quarter-turn apart, either sign

    def test_two_equal_orthogonal_populations(self):
        # L = max(x, y): gradient is +x below the diagonal and +y above it,
        # in equal Gaussian-weighted shares around a keypoint on the diagonal
        y, x = np.mgrid[0:64, 0:64].astype(float)
        img = np.maximum(x, y) * 3.0
        space, kp = ramp_space_and_keypoint(img.astype(np.uint8))
        oriented = assign_orientations(kp, space)
        assert len(oriented) == 2
        angles = sorted(k.orientation for k in oriented)
        assert min(angles[0], 2 * np.pi - angles[0]) < 0.15
        assert abs(angles[1] - np.pi / 2) < 0.15

    def test_orientations_in_range(self):
        img = blob_field(np.random.default_rng(2))
        space = build_scale_space(img)
        for kp in detect_keypoints(space):
            for ok in assign_orientations(kp, space):
                assert 0 <= ok.orientation < 2 * np.pi


class TestDescriptor:
    def test_norm_and_nonnegativity(self):
        img = blob_field(np.random.default_rng(3))
        pairs = extract(img)
        assert pairs
        mat = descriptor_matrix(pairs)
        assert mat.shape[1] == 128
        assert (mat >= 0).all()
        assert np.allclose(np.linalg.norm(mat, axis=1), 1.0, atol=1e-6)

    def test_clamp_rule(self):
        raw = np.zeros(128)
        raw[5] = 50.0
        raw[1:128:7] += 1.0
        out = normalize_descriptor(raw)
        first = raw / np.linalg.norm(raw)
        clamped = np.minimum(first, 0.2)
        assert (clamped <= 0.2 + 1e-6).all()
        assert np.allclose(out, clamped / np.linalg.norm(clamped))

    def test_zero_window_dropped(self):
        assert normalize_descriptor(np.zeros(128)) is None

    def test_rotation_changes_descriptor_little(self):
        img = blob_field(np.random.default_rng(4))
        pairs_a = extract(img)
        rot = GreyImage(np.rot90(img.pixels).copy())
        pairs_b = extract(rot)
        assert pairs_a and pairs_b
        # np.rot90 maps (y, x) -> (height-1-x, y) for the new array
        n = img.width
        dists = []
        for kp, desc in pairs_a:
            tx, ty = kp.y, n - 1 - kp.x
            best = None
            for kq, dq in pairs_b:
                if math.hypot(kq.x - tx, kq.y - ty) < 2.0 and 0.8 < kq.scale / kp.scale < 1.25:
                    d = np.linalg.norm(desc - dq)
                    best = d if best is None else min(best, d)
            if best is not None:
                dists.append(best)
        assert len(dists) >= len(pairs_a) // 3
        assert np.median(dists) < 0.35


class TestExtract:
    def test_constant_image_empty(self):
        assert extract(GreyImage(np.full((32, 32), 50, dtype=np.uint8))) == []

    def test_deterministic(self):
        img = blob_field(np.random.default_rng(5))
        a = extract(img)
        b = extract(img)
        assert len(a) == len(b)
        for (ka, da), (kb, db) in zip(a, b):
            assert ka == kb
            assert np.array_equal(da, db)

    def test_shift_repeatability(self):
        rng = np.random.default_rng(6)
        texture = blob_field(rng, size=96).pixels
        fill = int(texture.mean())
        a = np.full((128, 128), fill, dtype=np.uint8)
        b = np.full((128, 128), fill, dtype=np.uint8)
        a[16:112, 16:112] = texture
        b[16:112, 24:120] = texture
        kps_a = [k for k, _ in extract(GreyImage(a))]
        kps_b = [(k.x, k.y) for k, _ in extract(GreyImage(b))]
        inner = [
            k for k in kps_a if 24 <= k.x <= 104 and 24 <= k.y <= 104
        ]
        assert len(inner) >= 5
        matched = sum(
            1
            for k in inner
            if any(math.hypot(bx - (k.x + 8), by - k.y) <= 1.5 for bx, by in kps_b)
        )
        assert matched / len(inner) >= 0.7

    def test_scale_invariance_with_ratio_test(self):
        # roomy texture: the descriptor window-bounds rule drops keypoints
        # near borders, so small images yield very few descriptors
        img = blob_field(np.random.default_rng(7), size=160)
        up = resize_cubic(img, img.width * 2, img.height * 2)
        mat_a = descriptor_matrix(extract(img))
        mat_b = descriptor_matrix(extract(up))
        assert len(mat_a) >= 8 and len(mat_b) >= 8
        matches = 0
        for row in mat_a:
            d = np.linalg.norm(mat_b - row, axis=1)
            order = np.argsort(d)
            if d[order[0]] < 0.8 * d[order[1]]:
                matches += 1
        assert matches / len(mat_a) >= 0.5

    def test_sorted_output(self):
        img = blob_field(np.random.default_rng(8))
        pairs = extract(img)
        keys = [(k.octave, k.y, k.x, k.scale, k.orientation) for k, _ in pairs]
        assert keys == sorted(keys)


class TestGolden:
    """extract() output frozen for three fixed images.

    tests/data/sift_golden.npz was written by the per-keypoint extractor
    that preceded the per-level batched one, with PipelineConfig().sift
    (contrast 0.02, first octave upsampled). Its images are:

    * dp: ``prepare_dp`` at 128 px of the first sample's pathology image
      of ``synth.generate(SynthSpec(n_patients=2, n_samples=4, seed=3))``;
    * rci: ``prepare_rci`` at 96 px (masked mean image, cubic resize,
      histogram equalization) of that sample's cube;
    * texture: acceptance 7's ``_smooth_bump_texture(default_rng(6),
      size=96)`` pasted at (16, 16) into a 128x128 image filled with its
      integer mean.

    For each it stores the image, per-keypoint (x, y, scale, orientation,
    octave, layer), the responses and the (n, 128) descriptors, in
    extract() order.
    """

    @pytest.mark.parametrize("name", ["dp", "rci", "texture"])
    def test_matches_frozen_output(self, name):
        gold = np.load(GOLDEN)
        pairs = extract(GreyImage(gold[f"{name}_image"]), PIPELINE_SIFT)
        geometry = gold[f"{name}_geometry"]
        assert len(pairs) == len(geometry) > 0
        got = np.array(
            [[k.x, k.y, k.scale, k.orientation, k.octave, k.layer] for k, _ in pairs]
        )
        assert np.array_equal(got, geometry)
        response = np.array([k.response for k, _ in pairs])
        assert np.allclose(response, gold[f"{name}_response"], rtol=0, atol=1e-12)
        assert np.allclose(
            descriptor_matrix(pairs), gold[f"{name}_descriptors"], rtol=0, atol=1e-12
        )


class TestPerKeypointPath:
    def test_composition_equals_extract(self):
        img = GreyImage(np.load(GOLDEN)["dp_image"])
        space = build_scale_space(img, PIPELINE_SIFT)
        composed = []
        for kp in detect_keypoints(space):
            for oriented in assign_orientations(kp, space):
                desc = compute_descriptor(oriented, space)
                if desc is not None:
                    composed.append((oriented, desc))
        composed.sort(
            key=lambda kd: (kd[0].octave, kd[0].y, kd[0].x, kd[0].scale, kd[0].orientation)
        )
        pairs = extract(img, PIPELINE_SIFT)
        assert len(composed) == len(pairs) > 0
        for (ka, da), (kb, db) in zip(composed, pairs):
            assert ka == kb
            assert np.array_equal(da, db)

    def test_border_keypoint_uses_clipped_patch(self):
        # left edge of a horizontal ramp: the orientation window is cut at
        # column 1 but the remaining gradients still point along +x
        img = np.tile(np.arange(64, dtype=np.uint8) * 3, (64, 1))
        space = build_scale_space(GreyImage(img))
        kp = Keypoint(
            x=1.0, y=32.0, scale=2.016, orientation=0.0, response=1.0,
            octave=0, layer=1, octave_scale=2.016,
        )
        oriented = assign_orientations(kp, space)
        assert len(oriented) >= 1
        angle = oriented[0].orientation
        assert min(angle, 2 * np.pi - angle) < 0.1

    def test_window_leaving_image_gives_none(self):
        img = np.tile(np.arange(64, dtype=np.uint8) * 3, (64, 1))
        space = build_scale_space(GreyImage(img))
        inside = Keypoint(32.0, 32.0, 2.016, 0.0, 1.0, 0, 1, 2.016)
        near_edge = Keypoint(6.0, 32.0, 2.016, 0.0, 1.0, 0, 1, 2.016)
        assert compute_descriptor(inside, space) is not None
        assert compute_descriptor(near_edge, space) is None

    def test_singular_hessian_candidate_dropped(self):
        # two strict maxima in one octave: the one at column 4 has layer/row
        # curvatures (-2, -2) and a layer-row mixed term of 2, so its 3x3
        # Hessian is exactly singular; the one at column 12 is regular
        from ramanfuse.sift import ScaleSpace, _local_extrema

        dog = np.zeros((3, 9, 17))
        for col, mixed in ((4, -3.5), (12, 0.0)):
            dog[1, 4, col] = 1.0
            dog[2, 5, col] = dog[0, 3, col] = 0.5
            dog[2, 3, col] = dog[0, 5, col] = mixed
        space = ScaleSpace([np.zeros((4, 9, 17))], [dog], [1.0], SiftParams())
        assert _local_extrema(dog, 0.0).tolist() == [[1, 4, 4], [1, 4, 12]]
        kept = detect_keypoints(space)
        assert [(k.x, k.y, k.layer) for k in kept] == [(12.0, 4.0, 1)]
