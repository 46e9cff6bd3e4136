import numpy as np
import pytest

from ramanfuse import dataio
from ramanfuse.bovw import (
    DP_DICTIONARY_SIZES,
    RCI_DICTIONARY_SIZES,
    VisualDictionary,
    WordHistogram,
    encode_descriptors,
    feature_vector,
    fuse,
    inertia,
    kmeans,
)
from ramanfuse.dataio import GreyImage
from ramanfuse.errors import ModalityMismatch, TooFewDescriptors
from ramanfuse.sift import descriptor_matrix, extract

from test_sift import blob_field


def quantize(descriptor, dictionary):
    """Visual word of one descriptor: the only bin its histogram fills."""
    counts = encode_descriptors(descriptor, dictionary).counts
    assert counts.sum() == 1
    return int(np.argmax(counts))


def encode(img, dictionary):
    return encode_descriptors(descriptor_matrix(extract(img)), dictionary)


class TestKmeans:
    def test_n_equals_k_zero_inertia(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(6, 128)) * 5
        d = kmeans(pts, 6, seed=1)
        assert inertia(pts, d) < 1e-18
        # every input point appears among the centroids
        for p in pts:
            assert np.min(np.linalg.norm(d.centroids - p, axis=1)) < 1e-12

    def test_k_one_gives_mean(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(40, 128))
        d = kmeans(pts, 1, seed=2)
        assert np.allclose(d.centroids[0], pts.mean(axis=0))

    def test_two_well_separated_gaussians(self):
        rng = np.random.default_rng(2)
        mu_a = np.zeros(128)
        mu_b = np.zeros(128)
        mu_b[0] = 10.0  # 10 sigma apart at unit sigma
        pts = np.concatenate(
            [rng.normal(mu_a, 1.0, size=(1000, 128)), rng.normal(mu_b, 1.0, size=(1000, 128))]
        )
        for seed in range(20):
            d = kmeans(pts, 2, seed=seed)
            err_a = np.min(np.linalg.norm(d.centroids - mu_a, axis=1))
            err_b = np.min(np.linalg.norm(d.centroids - mu_b, axis=1))
            assert err_a < 0.5 and err_b < 0.5

    def test_inertia_non_increasing_with_iterations(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(200, 16))
        values = [
            inertia(pts, kmeans(pts, 5, seed=7, max_iter=m)) for m in (1, 2, 3, 5, 10, 50)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))

    def test_duplicate_heavy_data_terminates(self):
        pts = np.zeros((10, 128))
        pts[5:, 0] = 10.0  # two distinct locations, k=3 forces an empty cluster
        d = kmeans(pts, 3, seed=4)
        assert inertia(pts, d) < 1e-18

    def test_too_few_descriptors(self):
        with pytest.raises(TooFewDescriptors):
            kmeans(np.zeros((3, 128)), 4, seed=0)

    def test_seed_reproducibility(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(100, 32))
        a = kmeans(pts, 4, seed=11)
        b = kmeans(pts, 4, seed=11)
        assert np.array_equal(a.centroids, b.centroids)

    def test_configured_size_tables(self):
        assert DP_DICTIONARY_SIZES == (50, 75, 100, 200, 300, 500, 1000)
        assert RCI_DICTIONARY_SIZES == (5, 10, 25, 50, 100, 200, 300)


class TestQuantize:
    def make_dict(self, rng, k=8):
        return VisualDictionary(rng.normal(size=(k, 128)), "dp", train_seed=0)

    def test_exact_centroid(self):
        d = self.make_dict(np.random.default_rng(6))
        assert quantize(d.centroids[3], d) == 3

    def test_tie_goes_to_lowest_index(self):
        cents = np.zeros((5, 128))
        cents[1, 0] = 1.0
        cents[4, 0] = -1.0
        cents[0, 1] = 50.0
        cents[2, 1] = 60.0
        cents[3, 1] = 70.0
        d = VisualDictionary(cents, "dp", train_seed=0)
        q = np.zeros(128)  # exactly between centroids 1 and 4
        assert quantize(q, d) == 1

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(7)
        d = self.make_dict(rng, k=20)
        queries = rng.normal(size=(1000, 128))
        for q in queries[:: 25]:
            dists = [np.linalg.norm(q - c) for c in d.centroids]
            assert quantize(q, d) == int(np.argmin(dists))
        got = [quantize(q, d) for q in queries]
        expect = [
            int(np.argmin(((d.centroids - q) ** 2).sum(axis=1))) for q in queries
        ]
        assert got == expect

    def test_invariant_under_appended_duplicates(self):
        rng = np.random.default_rng(8)
        d = self.make_dict(rng, k=6)
        extended = VisualDictionary(
            np.concatenate([d.centroids, d.centroids[:3]]), "dp", train_seed=0
        )
        for q in rng.normal(size=(50, 128)):
            assert quantize(q, d) == quantize(q, extended)


class TestEncode:
    def test_count_conservation(self):
        img = blob_field(np.random.default_rng(9))
        n = len(extract(img))
        assert n > 0
        d = kmeans(np.random.default_rng(10).normal(size=(30, 128)), 10, seed=3)
        hist = encode(img, d)
        assert hist.total == n
        assert (hist.counts >= 0).all()

    def test_blank_image_zero_histogram(self):
        d = kmeans(np.random.default_rng(11).normal(size=(30, 128)), 5, seed=3)
        hist = encode(GreyImage(np.full((32, 32), 66, dtype=np.uint8)), d)
        assert hist.total == 0
        assert len(hist.counts) == 5

    def test_side_by_side_duplication_doubles_counts(self):
        # both canvases give each copy identical flat surroundings; bare
        # hstack would instead grant edge keypoints extra window room
        texture = blob_field(np.random.default_rng(12)).pixels
        fill = int(texture.mean())
        single = np.full((128, 192), fill, dtype=np.uint8)
        single[:, 32:160] = texture
        doubled = np.full((128, 352), fill, dtype=np.uint8)
        doubled[:, 32:160] = texture
        doubled[:, 192:320] = texture
        descs = descriptor_matrix(extract(GreyImage(single)))
        d = kmeans(descs, 8, seed=5)
        h1 = encode(GreyImage(single), d)
        h2 = encode(GreyImage(doubled), d)
        assert h1.total >= 10
        assert 1.8 <= h2.total / h1.total <= 2.2
        for c1, c2 in zip(h1.counts, h2.counts):
            if c1 >= 5:
                assert 1.6 * c1 <= c2 <= 2.4 * c1

    def test_deterministic(self):
        img = blob_field(np.random.default_rng(14))
        d = kmeans(np.random.default_rng(15).normal(size=(40, 128)), 8, seed=6)
        assert np.array_equal(encode(img, d).counts, encode(img, d).counts)


class TestBuildDictionary:
    """Dictionaries are k-means over descriptors pooled across reference
    images, as partition_features builds them."""

    @staticmethod
    def pooled(imgs):
        return np.concatenate([descriptor_matrix(extract(img)) for img in imgs])

    def test_pools_reference_images(self):
        rng = np.random.default_rng(16)
        imgs = [blob_field(rng, size=96) for _ in range(3)]
        d = kmeans(self.pooled(imgs), k=10, seed=3, modality="dp")
        assert d.k == 10 and d.modality == "dp"

    def test_blank_reference_rejected(self):
        blank = GreyImage(np.full((32, 32), 10, dtype=np.uint8))
        with pytest.raises(TooFewDescriptors):
            kmeans(self.pooled([blank]), k=5, seed=1)


class TestFusion:
    def hist(self, k, modality, value=0):
        counts = np.full(k, value, dtype=np.int64)
        return WordHistogram(counts, modality)

    def test_fused_lengths(self):
        assert len(fuse(self.hist(300, "dp"), self.hist(10, "rci"))) == 310
        assert len(fuse(self.hist(300, "dp"), self.hist(5, "rci"))) == 305

    def test_dp_block_first(self):
        f = fuse(self.hist(4, "dp", 2), self.hist(3, "rci", 7))
        assert list(f) == [2, 2, 2, 2, 7, 7, 7]

    def test_zero_histograms(self):
        f = fuse(self.hist(6, "dp"), self.hist(2, "rci"))
        assert not f.any() and len(f) == 8

    def test_modality_mismatch(self):
        with pytest.raises(ModalityMismatch):
            fuse(self.hist(4, "rci"), self.hist(3, "rci"))
        with pytest.raises(ModalityMismatch):
            fuse(self.hist(4, "rci"), self.hist(3, "dp"))

    def test_normalized_blocks(self):
        f = fuse(self.hist(4, "dp", 2), self.hist(2, "rci", 3), normalize=True)
        assert np.allclose(f[:4], 0.25) and np.allclose(f[4:], 0.5)

    def test_feature_vector_normalization(self):
        h = self.hist(5, "dp", 4)
        assert np.allclose(feature_vector(h, normalize=True).sum(), 1.0)
        assert np.allclose(feature_vector(h), h.counts)


class TestPersistence:
    def test_dictionary_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(17)
        d = kmeans(rng.normal(size=(50, 128)), 7, seed=9, modality="rci")
        path = tmp_path / "dict.model"
        dataio.save_model(d, path)
        back = dataio.load_model(path)
        assert isinstance(back, VisualDictionary)
        assert back.modality == "rci" and back.train_seed == 9
        assert np.array_equal(back.centroids, d.centroids)
