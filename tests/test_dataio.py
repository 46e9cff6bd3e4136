import ast
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ramanfuse import bovw, dataio, plsda, spectral, svm
from ramanfuse.dataio import GreyImage, HyperspectralCube, Label, RgbImage
from ramanfuse.errors import (
    DataError,
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


@st.composite
def corrupted(draw, data: bytes) -> bytes:
    """data with up to four bytes replaced by any byte, then maybe cut short."""
    raw = bytearray(data)
    for _ in range(draw(st.integers(0, 4))):
        raw[draw(st.integers(0, len(raw) - 1))] = draw(st.integers(0, 255))
    if draw(st.booleans()):
        raw = raw[: draw(st.integers(0, len(raw)))]
    return bytes(raw)


# Each example overwrites one file under the test's tmp_path.
corruption_settings = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def small_models() -> dict:
    """One small fitted model of each persisted kind."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(8, 3))
    y = np.array([-1.0, 1.0] * 4)
    return {
        "svm": svm.calibrate(svm.train(X, y), X, y),
        "dictionary": bovw.kmeans(rng.normal(size=(12, 4)), 2, 0, modality="rci"),
        "pls": plsda.fit_pls(X, (y > 0).astype(float), 2, spectral.parse_pretreatment("snv")),
    }


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

    @pytest.mark.parametrize("seed", ["x", "7", 7.0, True, None, [7]])
    def test_seed_that_is_not_an_integer_rejected(self, tmp_path, seed):
        entries = [entry("p1", "s1")]
        write_stub_files(tmp_path, ["s1_dp.pgm", "s1_rci.pgm"])
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest_doc(entries, seed=seed)))
        with pytest.raises(MalformedManifest, match="seed"):
            dataio.load_manifest(path)

    def test_absent_seed_defaults_to_zero(self, tmp_path):
        write_stub_files(tmp_path, ["s1_dp.pgm", "s1_rci.pgm"])
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"samples": [entry("p1", "s1")]}))
        assert dataio.load_manifest(path).seed == 0

    def test_empty_manifest_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest_doc([])))
        with pytest.raises(MalformedManifest):
            dataio.load_manifest(path)

    def test_keys_the_loader_does_not_read_are_ignored(self, tmp_path):
        write_stub_files(tmp_path, ["s1_dp.pgm", "s1_rci.pgm"])
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(
            {**manifest_doc([{**entry("p1", "s1"), "spectrum": "gone.csv"}]), "note": 1}
        ))
        assert [r.sample_id for r in dataio.load_manifest(path).samples] == ["s1"]

    @pytest.mark.parametrize("text, error", [
        (b'{"samples": "\xff"}', MalformedFile),
        (b"[" * 100_000 + b"]" * 100_000, MalformedFile),
        (b"[1, 2]", MalformedFile),
        (b'{"seed": 1}', MalformedManifest),
    ], ids=["bad-byte", "deep-nesting", "list", "no-samples"])
    def test_unreadable_document_rejected(self, tmp_path, text, error):
        path = tmp_path / "manifest.json"
        path.write_bytes(text)
        with pytest.raises(error):
            dataio.load_manifest(path)

    @corruption_settings
    @given(data=st.data())
    def test_corrupted_manifest_loads_or_raises_a_data_error(self, tmp_path, data):
        entries = [entry("p1", "s1"), entry("p2", "s2", "g4")]
        write_stub_files(tmp_path, ["s1_dp.pgm", "s1_rci.pgm", "s2_dp.pgm", "s2_rci.pgm"])
        valid = json.dumps(manifest_doc(entries)).encode()
        path = tmp_path / "manifest.json"
        path.write_bytes(data.draw(corrupted(valid)))
        try:
            dataio.load_manifest(path)
        except DataError:
            pass

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

    def test_binary_payload_larger_than_the_file_rejected_before_it_is_read(self, tmp_path):
        path = tmp_path / "c.cube"
        path.write_bytes(b"ramancube binary 1\n100000 100000 4\n400 500 600 700\n" + bytes(24))
        with pytest.raises(TruncatedData, match="more than the file holds"):
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

    @pytest.mark.parametrize("binary", [False, True], ids=["text", "binary"])
    @corruption_settings
    @given(data=st.data())
    def test_corrupted_cube_loads_or_raises_a_data_error(self, tmp_path, binary, data):
        path = tmp_path / "c.cube"
        dataio.save_cube(self.make_cube(np.random.default_rng(3)), path, binary=binary)
        path.write_bytes(data.draw(corrupted(path.read_bytes())))
        try:
            dataio.load_cube(path)
        except DataError:
            pass

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

    @pytest.mark.parametrize("header, error", [
        (b"P5\n0 2\n255\n", MalformedFile),
        (b"P6\n2 -3\n255\n", MalformedFile),
        (b"P6\n100000 100000\n255\n", TruncatedData),
        (b"\xff\xfe\n1 1\n255\n", MalformedFile),
    ], ids=["zero-width", "negative-height", "oversized", "non-ascii-magic"])
    def test_bad_header_rejected_before_the_payload_is_read(self, tmp_path, header, error):
        path = tmp_path / "i.ppm"
        path.write_bytes(header + b"\x00\x01\x02")
        with pytest.raises(error):
            dataio.load_image(path)

    def test_trailing_bytes_after_the_payload_are_ignored(self, tmp_path):
        path = tmp_path / "i.pgm"
        path.write_bytes(b"P5\n1 1\n255\n\x7f\x00")
        assert dataio.load_image(path).pixels.tolist() == [[127]]

    @pytest.mark.parametrize("img", [
        GreyImage(np.arange(20, dtype=np.uint8).reshape(4, 5)),
        RgbImage(np.arange(60, dtype=np.uint8).reshape(4, 5, 3)),
    ], ids=["P5", "P6"])
    @corruption_settings
    @given(data=st.data())
    def test_corrupted_image_loads_or_raises_a_data_error(self, tmp_path, img, data):
        path = tmp_path / "i.pnm"
        dataio.save_image(img, path)
        path.write_bytes(data.draw(corrupted(path.read_bytes())))
        try:
            dataio.load_image(path)
        except DataError:
            pass

    def test_mask_round_trip(self, tmp_path):
        mask = np.array([[True, False], [False, True]])
        path = tmp_path / "m.pgm"
        dataio.save_mask(mask, path)
        back = dataio.load_image(path)
        assert isinstance(back, GreyImage)
        assert np.array_equal(back.pixels, np.where(mask, 255, 0))


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

    @pytest.mark.parametrize("kind", ["forest", ["svm"]], ids=["unknown", "list"])
    def test_unknown_kind_rejected(self, tmp_path, kind):
        path = tmp_path / "m.model"
        path.write_text(json.dumps(
            {"format": dataio.MODEL_FORMAT, "version": dataio.MODEL_VERSION, "kind": kind}
        ))
        with pytest.raises(MalformedFile, match="kind"):
            dataio.load_model(path)

    @pytest.mark.parametrize("kind", ["svm", "dictionary", "pls"])
    def test_models_compare_by_identity(self, kind):
        model, again = small_models()[kind], small_models()[kind]
        assert (model == model) is True
        assert (model == again) is False

    @pytest.mark.parametrize("kind, field, value", [
        ("dictionary", "train_seed", 1e400),
        ("pls", "n_lv", 1e400),
        ("pls", "pretreatment", 5),
        ("svm", "platt_a", "x"),
    ], ids=["infinite-seed", "infinite-lv-count", "numeric-pretreatment", "text-platt"])
    def test_payload_field_of_the_wrong_type_rejected(self, tmp_path, kind, field, value):
        path = tmp_path / "m.model"
        dataio.save_model(small_models()[kind], path)
        doc = json.loads(path.read_text())
        doc["payload"][field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedFile):
            dataio.load_model(path)

    @pytest.mark.parametrize("kind", ["svm", "dictionary", "pls"])
    @corruption_settings
    @given(data=st.data())
    def test_corrupted_model_loads_or_raises_a_data_error(self, tmp_path, kind, data):
        path = tmp_path / "m.model"
        dataio.save_model(small_models()[kind], path)
        path.write_bytes(data.draw(corrupted(path.read_bytes())))
        try:
            dataio.load_model(path)
        except DataError:
            pass


class TestTables:
    def test_write_then_read_round_trips_every_cell(self, tmp_path):
        path = tmp_path / "t.csv"
        dataio.write_table(path, ["name", "value"], [["a,b", 1], ['q"x\ny', 0.25], ["c\x0cd", ""]])
        assert path.read_bytes() == b'name,value\r\n"a,b",1\r\n"q""x\ny",0.25\r\nc\x0cd,\r\n'
        assert dataio.read_table(path, "table") == [
            (1, ["name", "value"]), (2, ["a,b", "1"]), (4, ['q"x\ny', "0.25"]), (5, ["c\x0cd", ""]),
        ]

    def test_blank_rows_are_skipped_and_lines_counted(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a\n\n , \n1\n")
        assert dataio.read_table(path, "table") == [(1, ["a"]), (4, ["1"])]

    def test_text_that_csv_rejects_is_malformed(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1," + "9" * 200_000 + "\n")
        with pytest.raises(MalformedFile, match="table .* line 2 is not CSV"):
            dataio.read_table(path, "table")


def test_only_dataio_imports_csv():
    """The report-table format is decided in one module."""
    package = Path(__file__).resolve().parents[1] / "src" / "ramanfuse"
    importers = []
    for source in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text())):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            if "csv" in names:
                importers.append(source.stem)
    assert importers == ["dataio"]
