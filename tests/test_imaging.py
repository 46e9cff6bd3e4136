import math

import numpy as np
import pytest
import scipy.ndimage

from ramanfuse import imaging, synth
from ramanfuse.dataio import GreyImage, HyperspectralCube, RgbImage, load_cube
from ramanfuse.errors import (
    ConstantImage,
    InputTooSmall,
    NumericalError,
    TooFewPixels,
)
from ramanfuse.imaging import (
    MASK_BANDS,
    BackgroundResult,
    PcaResult,
    background_mask,
    group_bands,
    histogram_equalize,
    mean_image,
    otsu_threshold,
    pca_scores,
    remove_small_regions,
    resize_cubic,
    rgb_to_grey,
)


def random_cube(rng, h=6, w=7, b=10):
    data = rng.normal(size=(h, w, b))
    return HyperspectralCube(wavenumbers=np.arange(b, dtype=float), data=data)


def pca_oracle(cube, n_components):
    """PCA by a thin SVD of the centred pixel matrix, with the same sign rule."""
    flat = cube.data[cube.mask]
    mean = flat.mean(axis=0)
    centred = flat - mean
    u, s, vt = np.linalg.svd(centred, full_matrices=False)
    pivot = np.argmax(np.abs(vt), axis=1)
    signs = np.sign(vt[np.arange(len(s)), pivot])
    signs[signs == 0] = 1.0
    vt *= signs[:, None]
    u *= signs[None, :]

    scores = u[:, :n_components] * s[:n_components]
    images = np.zeros((n_components,) + cube.mask.shape, dtype=np.float64)
    images[:, cube.mask] = scores.T
    return PcaResult(vt[:n_components].copy(), images)


def assert_matches_oracle(cube, n_components, rel=1e-9):
    """Loadings (unit rows) to rel absolute, scores to rel of the cube's
    largest score."""
    got, want = pca_scores(cube, n_components), pca_oracle(cube, n_components)
    assert np.abs(got.loadings - want.loadings).max() <= rel
    scale = np.abs(want.score_images).max()
    assert np.abs(got.score_images - want.score_images).max() <= rel * scale


def synth_cubes(tmp_path, seed, n_bands):
    manifest = synth.generate(
        synth.SynthSpec(n_patients=3, n_samples=8, dp_size=16, n_bands=n_bands, seed=seed),
        tmp_path / f"cohort{seed}_{n_bands}",
    )
    return [load_cube(r.rci_path) for r in manifest.samples]


class TestPca:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_svd_oracle_on_random_cubes(self, seed):
        rng = np.random.default_rng(40 + seed)
        assert_matches_oracle(random_cube(rng, h=9, w=8, b=12), 5)

    @pytest.mark.parametrize("n_bands", [64, 512])
    def test_matches_svd_oracle_on_synth_cubes(self, tmp_path, n_bands):
        for cube in synth_cubes(tmp_path, 0, n_bands):
            assert_matches_oracle(cube, 3)

    def test_fewer_pixels_than_bands(self):
        rng = np.random.default_rng(8)
        mask = np.zeros((3, 4), dtype=bool)
        mask[:2, :3] = True  # 6 pixels, 20 bands
        cube = HyperspectralCube(np.arange(20.0), rng.normal(size=(3, 4, 20)), mask=mask)
        assert_matches_oracle(cube, 4)
        assert pca_scores(cube, 6).loadings.shape == (6, 20)
        with pytest.raises(TooFewPixels):
            pca_scores(cube, 7)

    @pytest.mark.parametrize("tied,weaker", [((2, 0), 1), ((3, 1), 2)])
    def test_equal_variance_components_ordered_by_pivot_band(self, tied, weaker):
        # Two bands carry equal variance and a third less: the tie puts the
        # loading whose largest entry sits at the lower band first. (eigh
        # returns the tied pair in opposite orders for these two layouts.)
        spectra = np.zeros((6, 4))
        spectra[0, tied[0]], spectra[1, tied[0]] = 3.0, -3.0
        spectra[2, tied[1]], spectra[3, tied[1]] = 3.0, -3.0
        spectra[4, weaker], spectra[5, weaker] = 2.0, -2.0
        cube = HyperspectralCube(np.arange(4.0), spectra.reshape(2, 3, 4))
        first = pca_scores(cube, 3)
        assert np.array_equal(first.loadings, np.eye(4)[[min(tied), max(tied), weaker]])
        assert (first.score_images[0] ** 2).sum() == (first.score_images[1] ** 2).sum()
        for _ in range(5):
            again = pca_scores(cube, 3)
            assert np.array_equal(again.loadings, first.loadings)
            assert np.array_equal(again.score_images, first.score_images)

    def test_rank_one_cube(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=12)
        c = rng.normal(size=(5, 4))
        cube = HyperspectralCube(
            wavenumbers=np.arange(12.0), data=c[..., None] * v[None, None, :]
        )
        res = pca_scores(cube, 3)
        flat = cube.data.reshape(-1, 12)
        total = ((flat - flat.mean(axis=0)) ** 2).sum()
        assert (res.score_images[0] ** 2).sum() >= 0.999999 * total
        corr = np.corrcoef(res.score_images[0].ravel(), c.ravel())[0, 1]
        assert abs(abs(corr) - 1.0) < 1e-9

    def test_scores_uncorrelated(self):
        cube = random_cube(np.random.default_rng(1))
        res = pca_scores(cube, 4)
        flat = res.score_images.reshape(4, -1)
        corr = np.corrcoef(flat)
        off = corr - np.diag(np.diag(corr))
        assert np.max(np.abs(off)) < 1e-8

    def test_too_few_pixels(self):
        cube = HyperspectralCube(
            wavenumbers=np.arange(8.0), data=np.random.default_rng(2).normal(size=(1, 2, 8))
        )
        with pytest.raises(TooFewPixels):
            pca_scores(cube, 5)

    def test_loadings_orthonormal_and_variance_ordered(self):
        cube = random_cube(np.random.default_rng(3))
        res = pca_scores(cube, 5)
        gram = res.loadings @ res.loadings.T
        assert np.allclose(gram, np.eye(5), atol=1e-8)
        variances = (res.score_images.reshape(5, -1) ** 2).sum(axis=1)
        assert np.all(np.diff(variances) <= 1e-12 * variances[0])

    def test_full_rank_reconstruction(self):
        cube = random_cube(np.random.default_rng(4), h=5, w=5, b=6)
        res = pca_scores(cube, 6)
        flat = cube.data.reshape(-1, 6)
        mean = flat.mean(axis=0)
        scores = res.score_images.reshape(6, -1).T
        recon = scores @ res.loadings + mean
        assert np.allclose(recon, flat, atol=1e-8)

    def test_masked_out_pixels_ignored(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(4, 4, 6))
        mask = np.ones((4, 4), dtype=bool)
        mask[0, 0] = False
        a = HyperspectralCube(np.arange(6.0), data.copy(), mask=mask)
        wrecked = data.copy()
        wrecked[0, 0] = 1e9
        b = HyperspectralCube(np.arange(6.0), wrecked, mask=mask)
        ra, rb = pca_scores(a, 3), pca_scores(b, 3)
        assert np.allclose(ra.loadings, rb.loadings)
        assert np.allclose(ra.score_images, rb.score_images)
        assert ra.score_images[0, 0, 0] == 0.0

    def test_overflowing_scatter_is_a_numerical_error(self):
        data = (1.0 + np.random.default_rng(7).random((12, 12, 16))) * 1e300
        cube = HyperspectralCube(np.arange(16.0), data)
        with pytest.raises(NumericalError, match="band scatter of the masked-in pixels"):
            pca_scores(cube, 3)

    def test_scatter_whose_eigenvalues_overflow_is_a_numerical_error(self, tmp_path):
        # At 1e150 this synthetic cube's band scatter is still finite, but
        # eigh's eigenvalues are not; at 1e149 the cube passes.
        manifest = synth.generate(synth.SynthSpec(n_patients=8, n_samples=24, seed=1), tmp_path)
        cube = load_cube(manifest.samples[0].rci_path)
        pca_scores(HyperspectralCube(cube.wavenumbers, cube.data * 1e149), 3)
        with pytest.raises(NumericalError, match="eigenvalues of the band scatter"):
            pca_scores(HyperspectralCube(cube.wavenumbers, cube.data * 1e150), 3)

    def test_deterministic_sign(self):
        cube = random_cube(np.random.default_rng(6))
        res = pca_scores(cube, 3)
        for row in res.loadings:
            assert row[np.argmax(np.abs(row))] > 0


def otsu_oracle(values):
    """Exhaustive scan of all 255 candidate split points over 256 bins."""
    v = np.asarray(values, dtype=float).ravel()
    lo, hi = v.min(), v.max()
    width = (hi - lo) / 256
    idx = np.clip(((v - lo) / (hi - lo) * 256).astype(int), 0, 255)
    centres = lo + (idx + 0.5) * width
    n = v.size
    sigmas = np.full(255, -1.0)
    for k in range(255):
        left = idx <= k
        n0 = int(left.sum())
        if n0 == 0 or n0 == n:
            continue
        m0 = centres[left].mean()
        m1 = centres[~left].mean()
        sigmas[k] = (n0 / n) * ((n - n0) / n) * (m0 - m1) ** 2
    ties = np.flatnonzero(sigmas == sigmas.max())
    best_k = int(ties[(len(ties) - 1) // 2])
    return lo + (best_k + 1) * (hi - lo) / 256


class TestThresholding:
    def test_bimodal_threshold_between_modes(self):
        rng = np.random.default_rng(7)
        v = np.concatenate([rng.normal(-1, 0.1, 400), rng.normal(1, 0.1, 600)])
        t = otsu_threshold(v)
        assert -0.5 < t < 0.5

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_exhaustive_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        v = np.concatenate([rng.normal(0, 1, 300), rng.normal(4, 0.5, 200)])
        assert np.isclose(otsu_threshold(v), otsu_oracle(v), atol=1e-9)

    def test_constant_image_rejected(self):
        with pytest.raises(ConstantImage):
            otsu_threshold(np.full((4, 4), 2.0))

    def test_polarity_follows_intensity(self):
        # Row 0 is brighter on average, but its first-PC score is negative:
        # the loading's largest entry (band 0, where row 1 is high) is made
        # positive, so the bright side falls below the Otsu threshold.
        data = np.zeros((2, 2, 20))
        data[0, :, 1:] = 5.0    # mean 4.75
        data[1, :, 0] = 60.0    # mean 3.0
        cube = HyperspectralCube(np.arange(20.0), data)
        res = background_mask(cube)
        scores = pca_scores(cube, 1).score_images[res.component]
        assert np.array_equal(res.mask, scores < res.threshold)
        assert np.array_equal(res.mask, np.array([[True, True], [False, False]]))


class TestRegions:
    def blob(self, coords, shape=(12, 12)):
        m = np.zeros(shape, dtype=bool)
        for r, c in coords:
            m[r, c] = True
        return m

    def test_nine_pixel_blob_removed(self):
        m = np.zeros((8, 8), dtype=bool)
        m[2:5, 2:5] = True  # 9 pixels
        assert not remove_small_regions(m).any()

    def test_ten_pixel_blob_kept(self):
        m = np.zeros((8, 8), dtype=bool)
        m[2:5, 2:5] = True
        m[5, 2] = True  # 10 pixels
        assert np.array_equal(remove_small_regions(m), m)

    def test_diagonal_blobs_are_separate(self):
        m = np.zeros((12, 12), dtype=bool)
        m[1:3, 1:4] = True    # 6 pixels
        m[3:5, 4:7] = True    # 6 pixels, touching only diagonally
        assert not remove_small_regions(m).any()

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_scipy_labeling(self, seed):
        rng = np.random.default_rng(200 + seed)
        m = rng.random((30, 40)) < 0.45
        four_conn = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
        labels, n = scipy.ndimage.label(m, structure=four_conn)
        sizes = np.bincount(labels.ravel())
        keep = np.zeros_like(m)
        for lab in range(1, n + 1):
            if sizes[lab] >= 10:
                keep |= labels == lab
        assert np.array_equal(remove_small_regions(m), keep)

    def test_threshold_parameter(self):
        m = np.zeros((5, 5), dtype=bool)
        m[0, 0:3] = True
        assert remove_small_regions(m, min_pixels=3).sum() == 3
        assert remove_small_regions(m, min_pixels=4).sum() == 0


class TestMeanImage:
    def test_minmax_endpoints(self):
        data = np.zeros((1, 2, 4))
        data[0, 1] = 7.0
        img = mean_image(HyperspectralCube(np.arange(4.0), data))
        assert img.pixels[0, 0] == 0 and img.pixels[0, 1] == 255

    def test_midpoint_rounds_up(self):
        data = np.zeros((1, 3, 2))
        data[0, 0] = 0.0
        data[0, 1] = 5.0
        data[0, 2] = 10.0
        img = mean_image(HyperspectralCube(np.arange(2.0), data))
        assert list(img.pixels[0]) == [0, 128, 255]

    def test_flat_cube_gives_128(self):
        img = mean_image(HyperspectralCube(np.arange(3.0), np.full((2, 2, 3), 9.0)))
        assert (img.pixels == 128).all()

    def test_masked_out_pixels_zero_and_excluded(self):
        data = np.zeros((1, 3, 2))
        data[0, 1] = 4.0
        data[0, 2] = 1000.0  # masked out; must not stretch the range
        mask = np.array([[True, True, False]])
        img = mean_image(HyperspectralCube(np.arange(2.0), data, mask=mask))
        assert list(img.pixels[0]) == [0, 255, 0]

    def test_band_permutation_invariant(self):
        rng = np.random.default_rng(9)
        data = rng.normal(size=(4, 5, 8))
        cube = HyperspectralCube(np.arange(8.0), data)
        perm = HyperspectralCube(np.arange(8.0), data[..., rng.permutation(8)])
        assert np.array_equal(mean_image(cube).pixels, mean_image(perm).pixels)


class TestRgbToGrey:
    def test_reference_values(self):
        px = np.array([[[255, 255, 255], [255, 0, 0], [0, 0, 255]]], dtype=np.uint8)
        grey = rgb_to_grey(RgbImage(px))
        assert list(grey.pixels[0]) == [255, 76, 29]

    def test_grey_valued_rgb_is_identity(self):
        x = np.arange(256, dtype=np.uint8).reshape(16, 16)
        rgb = RgbImage(np.stack([x, x, x], axis=-1))
        assert np.array_equal(rgb_to_grey(rgb).pixels, x)


def cubic_kernel_scalar(t):
    t = abs(t)
    if t <= 1:
        return 1.5 * t**3 - 2.5 * t**2 + 1.0
    if t < 2:
        return -0.5 * t**3 + 2.5 * t**2 - 4.0 * t + 2.0
    return 0.0


def resize_oracle(px, out_h, out_w):
    """Direct per-output-pixel evaluation of the separable Catmull-Rom sum."""
    in_h, in_w = px.shape
    tmp = np.empty((in_h, out_w))
    for j in range(out_w):
        x = (j + 0.5) * in_w / out_w - 0.5
        b = math.floor(x)
        acc = np.zeros(in_h)
        for k in range(-1, 3):
            idx = min(max(b + k, 0), in_w - 1)
            acc += cubic_kernel_scalar(x - (b + k)) * px[:, idx].astype(float)
        tmp[:, j] = acc
    out = np.empty((out_h, out_w))
    for i in range(out_h):
        y = (i + 0.5) * in_h / out_h - 0.5
        b = math.floor(y)
        acc = np.zeros(out_w)
        for k in range(-1, 3):
            idx = min(max(b + k, 0), in_h - 1)
            acc += cubic_kernel_scalar(y - (b + k)) * tmp[idx]
        out[i] = acc
    return np.floor(np.clip(out, 0, 255) + 0.5).astype(np.uint8)


class TestResize:
    def test_constant_preserved(self):
        img = GreyImage(np.full((10, 10), 42, dtype=np.uint8))
        out = resize_cubic(img, 37, 53)
        assert out.width == 37 and out.height == 53
        assert (out.pixels == 42).all()

    def test_ramp_stays_monotone(self):
        ramp = np.tile(np.linspace(0, 255, 16).astype(np.uint8), (4, 1))
        out = resize_cubic(GreyImage(ramp), 64, 8)
        assert (np.diff(out.pixels.astype(int), axis=1) >= 0).all()

    @pytest.mark.parametrize("seed,out_h,out_w", [(0, 8, 8), (1, 11, 5), (2, 3, 9)])
    def test_matches_direct_kernel_sum(self, seed, out_h, out_w):
        rng = np.random.default_rng(300 + seed)
        px = rng.integers(0, 256, size=(4, 4), dtype=np.uint8)
        got = resize_cubic(GreyImage(px), out_w, out_h)
        assert np.array_equal(got.pixels, resize_oracle(px, out_h, out_w))

    def test_same_size_is_identity(self):
        rng = np.random.default_rng(10)
        px = rng.integers(0, 256, size=(9, 13), dtype=np.uint8)
        out = resize_cubic(GreyImage(px), 13, 9)
        assert np.array_equal(out.pixels, px)

    def test_too_small_input(self):
        with pytest.raises(InputTooSmall):
            resize_cubic(GreyImage(np.zeros((1, 5), dtype=np.uint8)), 10, 10)


class TestEqualize:
    def test_flat_histogram_fixed_point(self):
        px = np.tile(np.arange(256, dtype=np.uint8), (4, 1))
        out = histogram_equalize(GreyImage(px))
        assert np.array_equal(out.pixels, px)

    def test_two_level_image(self):
        px = np.full((10, 10), 200, dtype=np.uint8)
        px[:5, :5] = 100  # 25% low, 75% high
        out = histogram_equalize(GreyImage(px))
        assert set(np.unique(out.pixels)) == {0, 255}
        assert (out.pixels[:5, :5] == 0).all()

    def test_constant_maps_to_zero(self):
        out = histogram_equalize(GreyImage(np.full((6, 6), 99, dtype=np.uint8)))
        assert (out.pixels == 0).all()

    def test_formula_against_direct_cdf(self):
        rng = np.random.default_rng(11)
        px = rng.integers(10, 60, size=(20, 20), dtype=np.uint8)
        out = histogram_equalize(GreyImage(px))
        n = px.size
        cdf_min = np.min(np.bincount(px.ravel()).cumsum()[np.unique(px.ravel())])
        for v in np.unique(px):
            cdf_v = int((px <= v).sum())
            expect = math.floor(255.0 * (cdf_v - cdf_min) / (n - cdf_min) + 0.5)
            assert (out.pixels[px == v] == expect).all()

    def test_separated_levels_keep_bucket_sizes(self):
        # when no two levels collide in the output, equalization only
        # relocates buckets, so the count multiset (and max share) is kept
        rng = np.random.default_rng(401)
        levels = np.array([3, 40, 90, 160, 220], dtype=np.uint8)
        px = levels[rng.integers(0, 5, size=(16, 16))]
        out = histogram_equalize(GreyImage(px))
        assert len(np.unique(out.pixels)) == len(np.unique(px))
        before = sorted(np.bincount(px.ravel())[np.unique(px)])
        after = sorted(np.bincount(out.pixels.ravel())[np.unique(out.pixels)])
        assert before == after

    @pytest.mark.parametrize("seed", range(6))
    def test_skewed_image_max_bucket_share_not_increased(self, seed):
        rng = np.random.default_rng(410 + seed)
        px = (255 * rng.random((32, 32)) ** 3).astype(np.uint8)
        out = histogram_equalize(GreyImage(px))
        before = np.bincount(px.ravel(), minlength=256).max()
        after = np.bincount(out.pixels.ravel(), minlength=256).max()
        assert after <= before


def full_band_split(cube):
    """background_mask's split with pca_scores on the ungrouped cube: of the
    leading PCs, the Otsu split that best separates the mean intensity,
    brighter side kept."""
    n_pix = int(cube.mask.sum())
    pca = pca_scores(cube, min(imaging.BACKGROUND_CANDIDATES, cube.n_bands, n_pix - 1))
    intensity = cube.data.mean(axis=2)
    best = None
    for c, image in enumerate(pca.score_images):
        t = otsu_threshold(image[cube.mask])
        inside = cube.mask & (image > t)
        outside = cube.mask & ~inside
        if inside.any() and outside.any():
            gap = (inside.sum() / n_pix * outside.sum() / n_pix
                   * (intensity[inside].mean() - intensity[outside].mean()) ** 2)
            if best is None or gap > best[0]:
                best = (gap, c, t)
    _, c, t = best
    mask = cube.mask & (pca.score_images[c] > t)
    other = cube.mask & ~mask
    if intensity[other].mean() > intensity[mask].mean():
        mask = other
    return BackgroundResult(mask, c, t)


class TestBackgroundMask:
    def make_tissue_cube(self, rng, bright=100.0, dark=10.0):
        h = w = 16
        b = 12
        blob = np.zeros((h, w), dtype=bool)
        blob[4:12, 4:12] = True
        profile = np.linspace(1.0, 2.0, b)
        data = np.where(blob[..., None], bright, dark) * profile
        data = data + rng.normal(scale=0.1, size=(h, w, b))
        return HyperspectralCube(np.arange(b, dtype=float), data), blob

    def test_recovers_bright_blob(self):
        cube, blob = self.make_tissue_cube(np.random.default_rng(12))
        res = background_mask(cube)
        agreement = (res.mask == blob).mean()
        assert agreement > 0.97

    def test_mask_is_the_strict_above_threshold_side(self):
        cube, _ = self.make_tissue_cube(np.random.default_rng(13))
        res = background_mask(cube)
        scores = pca_scores(cube, res.component + 1).score_images[res.component]
        assert np.array_equal(res.mask, scores > res.threshold)

    @pytest.mark.parametrize("n_bands", [12, MASK_BANDS])
    def test_cube_within_the_band_budget_keeps_the_full_band_split(self, tmp_path, n_bands):
        if n_bands == MASK_BANDS:
            cube = synth_cubes(tmp_path, 0, n_bands)[0]
        else:
            cube, _ = self.make_tissue_cube(np.random.default_rng(3))
        assert cube.n_bands == n_bands and group_bands(cube) is cube
        got, want = background_mask(cube), full_band_split(cube)
        assert np.array_equal(got.mask, want.mask)
        assert (got.component, got.threshold) == (want.component, want.threshold)

    @pytest.mark.parametrize("seed", range(4))
    def test_same_mask_as_svd_split_on_synth_cubes(self, tmp_path, monkeypatch, seed):
        cubes = synth_cubes(tmp_path, seed, 512)
        got = [background_mask(cube) for cube in cubes]
        monkeypatch.setattr(imaging, "pca_scores", pca_oracle)
        for cube, res in zip(cubes, got):
            want = background_mask(cube)
            assert np.array_equal(res.mask, want.mask)
            assert res.component == want.component


class TestBandBudget:
    def one_hot_cube(self, n_bands):
        """Pixel i holds 1 in band i and 0 elsewhere; every other row masked in."""
        data = np.eye(n_bands).reshape(n_bands, 1, n_bands)
        mask = (np.arange(n_bands) % 2 == 0)[:, None]
        return HyperspectralCube(400.0 + 3.0 * np.arange(n_bands), data, mask)

    @pytest.mark.parametrize("n_bands", [65, 100, 129, 300])
    def test_group_count_is_the_budget_when_bands_are_not_a_multiple(self, n_bands):
        assert n_bands % MASK_BANDS != 0
        grouped = group_bands(self.one_hot_cube(n_bands))
        assert grouped.data.shape == (n_bands, 1, MASK_BANDS)
        assert grouped.wavenumbers.shape == (MASK_BANDS,)

    @pytest.mark.parametrize("n_bands", [65, 100, 129, 300, 1024])
    def test_every_band_lands_in_exactly_one_contiguous_group(self, n_bands):
        cube = self.one_hot_cube(n_bands)
        grouped = group_bands(cube)
        groups = np.array_split(np.arange(n_bands), MASK_BANDS)
        assert np.array_equal(grouped.data.sum(axis=2), np.ones((n_bands, 1)))
        group_of = grouped.data[:, 0].argmax(axis=1)
        assert np.array_equal(group_of, np.repeat(np.arange(MASK_BANDS), [len(g) for g in groups]))
        assert np.array_equal(grouped.wavenumbers, cube.wavenumbers[[g[0] for g in groups]])
        assert np.array_equal(grouped.mask, cube.mask)

    @pytest.mark.parametrize("n_bands", [512, 1024])
    @pytest.mark.parametrize("seed", range(4))
    def test_grouped_mask_equals_the_full_band_mask_on_synth_cubes(
        self, tmp_path, seed, n_bands
    ):
        for cube in synth_cubes(tmp_path, seed, n_bands):
            got, want = background_mask(cube), full_band_split(cube)
            assert np.array_equal(got.mask, want.mask)
            assert got.component == want.component
