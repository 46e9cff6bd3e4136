import json

import numpy as np
import pytest

from ramanfuse import dataio
from ramanfuse.dataio import GreyImage, HyperspectralCube, Label, RgbImage
from ramanfuse.errors import (
    DuplicateSample,
    MalformedFile,
    MalformedManifest,
    MissingFile,
    TruncatedData,
    UnsupportedVersion,
)


def write_stub_files(root, names):
    for name in names:
        (root / name).write_bytes(b"P5\n1 1\n255\n\x00")


def manifest_doc(entries, seed=7):
    return {"seed": seed, "samples": entries}


def entry(pid, sid, label="normal"):
    return {
        "patient_id": pid,
        "sample_id": sid,
        "label": label,
        "dp_path": f"{sid}_dp.pgm",
        "rci_path": f"{sid}_rci.pgm",
    }


class TestManifest:
    def test_round_trip_two_patients_three_samples(self, tmp_path):
        entries = [entry("p1", "s1"), entry("p1", "s2", "g3"), entry("p2", "s3", "g4")]
        write_stub_files(tmp_path, [e["dp_path"] for e in entries] + [e["rci_path"] for e in entries])
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest_doc(entries)))
        m = dataio.load_manifest(path)
        assert len(m.samples) == 3
        assert m.patients() == ["p1", "p2"]
        assert m.samples[1].label is Label.G3
        assert m.seed == 7
        # save/load identity
        out = tmp_path / "again.json"
        dataio.save_manifest(m, out)
        m2 = dataio.load_manifest(out)
        assert m2.samples == m.samples

    def test_duplicate_sample_id_rejected(self, tmp_path):
        entries = [entry("p1", "s1"), entry("p1", "s1", "g3")]
        write_stub_files(tmp_path, ["s1_dp.pgm", "s1_rci.pgm"])
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest_doc(entries)))
        with pytest.raises(DuplicateSample):
            dataio.load_manifest(path)

    def test_missing_referenced_file_rejected(self, tmp_path):
        entries = [entry("p1", "s1")]
        write_stub_files(tmp_path, ["s1_dp.pgm"])  # rci file absent
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest_doc(entries)))
        with pytest.raises(MissingFile):
            dataio.load_manifest(path)

    def test_bad_label_rejected(self, tmp_path):
        entries = [entry("p1", "s1", label="g7")]
        write_stub_files(tmp_path, ["s1_dp.pgm", "s1_rci.pgm"])
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest_doc(entries)))
        with pytest.raises(MalformedManifest):
            dataio.load_manifest(path)

    def test_empty_manifest_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest_doc([])))
        with pytest.raises(MalformedManifest):
            dataio.load_manifest(path)

    def test_load_does_not_mutate_file(self, tmp_path):
        entries = [entry("p1", "s1")]
        write_stub_files(tmp_path, ["s1_dp.pgm", "s1_rci.pgm"])
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest_doc(entries)))
        before = path.read_bytes()
        dataio.load_manifest(path)
        assert path.read_bytes() == before


class TestCube:
    def make_cube(self, rng, h=2, w=2, b=5):
        data = rng.normal(size=(h, w, b)) * 1000
        return HyperspectralCube(wavenumbers=np.linspace(400, 1800, b), data=data)

    @pytest.mark.parametrize("binary", [False, True])
    def test_round_trip_bit_exact(self, tmp_path, binary):
        cube = self.make_cube(np.random.default_rng(0))
        path = tmp_path / "c.cube"
        dataio.save_cube(cube, path, binary=binary)
        back = dataio.load_cube(path)
        assert back.data.shape == cube.data.shape
        assert np.array_equal(back.data, cube.data)
        assert np.array_equal(back.wavenumbers, cube.wavenumbers)
        assert back.mask.all()

    def test_truncated_pixel_data(self, tmp_path):
        cube = self.make_cube(np.random.default_rng(1))
        path = tmp_path / "c.cube"
        dataio.save_cube(cube, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop last pixel
        with pytest.raises(TruncatedData):
            dataio.load_cube(path)

    def test_truncated_binary_payload(self, tmp_path):
        cube = self.make_cube(np.random.default_rng(2))
        path = tmp_path / "c.cube"
        dataio.save_cube(cube, path, binary=True)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(TruncatedData):
            dataio.load_cube(path)

    @staticmethod
    def text_cube(tmp_path, dims=b"2 1 3", axis=b"400.0 500.0 600.0", rows=(b"1,2,3", b"4,5,6")):
        path = tmp_path / "c.cube"
        path.write_bytes(b"\n".join([b"ramancube text 1", dims, axis, *rows]) + b"\n")
        return path

    def test_text_cube_literal_loads(self, tmp_path):
        cube = dataio.load_cube(self.text_cube(tmp_path))
        assert cube.data.shape == (1, 2, 3)
        assert cube.data[0, 1].tolist() == [4.0, 5.0, 6.0]

    @pytest.mark.parametrize(
        "part",
        [
            {"dims": b"2.5 2 1"},
            {"dims": b"2 1 x3"},
            {"axis": b"400.0 abc 600.0"},
            {"axis": b"400.0 500.0 inf"},
            {"rows": (b"1,2,3", b"4,\xc3\xa9,6")},
            {"rows": (b"1,2,3", b"4,five,6")},
            {"rows": (b"1,nan,3", b"4,5,6")},
            {"rows": (b"1,2,3", b"4,-inf,6")},
        ],
        ids=[
            "float-dim", "word-dim", "word-axis", "inf-axis",
            "non-ascii", "word-value", "nan", "inf",
        ],
    )
    def test_malformed_text_cube_raises_malformed_file(self, tmp_path, part):
        with pytest.raises(MalformedFile):
            dataio.load_cube(self.text_cube(tmp_path, **part))

    def test_non_finite_binary_cube_rejected(self, tmp_path):
        data = np.ones((2, 2, 3))
        data[1, 0, 2] = np.nan
        path = tmp_path / "c.cube"
        dataio.save_cube(HyperspectralCube(np.array([1.0, 2.0, 3.0]), data), path, binary=True)
        with pytest.raises(MalformedFile):
            dataio.load_cube(path)

    def test_non_monotone_axis_rejected(self):
        with pytest.raises(MalformedFile):
            HyperspectralCube(wavenumbers=[3.0, 2.0, 4.0], data=np.zeros((1, 1, 3)))

    def test_band_count_mismatch_rejected(self):
        with pytest.raises(MalformedFile):
            HyperspectralCube(wavenumbers=[1.0, 2.0], data=np.zeros((1, 1, 3)))


class TestImages:
    def test_pgm_pixel_literal(self, tmp_path):
        path = tmp_path / "i.pgm"
        path.write_bytes(b"P5\n1 1\n255\n\x7f")
        img = dataio.load_image(path)
        assert isinstance(img, GreyImage)
        assert img.pixels[0, 0] == 127

    def test_grey_round_trip(self, tmp_path):
        img = GreyImage(np.arange(12, dtype=np.uint8).reshape(3, 4))
        path = tmp_path / "i.pgm"
        dataio.save_image(img, path)
        back = dataio.load_image(path)
        assert np.array_equal(back.pixels, img.pixels)

    def test_rgb_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        img = RgbImage(rng.integers(0, 256, size=(5, 4, 3), dtype=np.uint8))
        path = tmp_path / "i.ppm"
        dataio.save_image(img, path)
        back = dataio.load_image(path)
        assert isinstance(back, RgbImage)
        assert np.array_equal(back.pixels, img.pixels)

    def test_truncated_image(self, tmp_path):
        path = tmp_path / "i.pgm"
        path.write_bytes(b"P5\n2 2\n255\n\x00\x01")
        with pytest.raises(TruncatedData):
            dataio.load_image(path)

    def test_mask_round_trip(self, tmp_path):
        mask = np.array([[True, False], [False, True]])
        path = tmp_path / "m.pgm"
        dataio.save_mask(mask, path)
        assert np.array_equal(dataio.load_mask(path), mask)


class TestModelEnvelope:
    def test_wrong_version_tag(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_text(json.dumps({"format": dataio.MODEL_FORMAT, "version": 99, "kind": "svm", "payload": {}}))
        with pytest.raises(UnsupportedVersion):
            dataio.load_model(path)

    def test_corrupted_payload(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_text("{not json")
        with pytest.raises(MalformedFile):
            dataio.load_model(path)
