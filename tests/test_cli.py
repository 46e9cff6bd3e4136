"""Command-line behavior: exit-code mapping, subcommand round trips on a
small synthetic cohort, config-file merging, and byte-level determinism of
seeded runs."""
import argparse
import csv
import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ramanfuse import bovw, cli, dataio, evaluation, experiments, spectral, svm, synth
from ramanfuse.errors import DataError, NumericalError
from test_dataio import corrupted, corruption_settings

COHORT_FLAGS = [
    "--n-patients", "12", "--n-samples", "70", "--image-size", "96",
    "--cube-size", "24", "--n-bands", "32", "--seed", "7",
]
# Six samples whose two cv test folds (--folds 2) each hold both classes,
# which cv checks before it loads a cube; at seed 1 one fold does not.
CV_COHORT = synth.SynthSpec(n_patients=3, n_samples=6, dp_size=32, rci_size=8, n_bands=32,
                            seed=8)
SIZE_FLAGS = ["--dp-size", "96", "--rci-size", "64"]
PIPE_FLAGS = [*SIZE_FLAGS, "--k-dp", "12", "--k-rci", "6"]

# A valid, non-default value of every long flag but --config:
# (config-file value, command-line text).
FLAG_VALUES = {
    "seed": (5, "5"), "manifest": ("m.txt", "m.txt"), "out": ("o", "o"),
    "task": ("g3-g4", "g3-g4"), "modality": ("rci", "rci"),
    "n-patients": (3, "3"), "n-samples": (9, "9"), "dp-signal": (0.25, "0.25"),
    "rci-signal": (0.5, "0.5"), "image-size": (48, "48"), "cube-size": (12, "12"),
    "n-bands": (40, "40"), "dp-size": (64, "64"), "rci-size": (48, "48"), "k-dp": (9, "9"),
    "k-rci": (4, "4"), "folds": (3, "3"), "reference-fraction": (0.3, "0.3"), "k": (7, "7"),
    "dp-dict": ("d.json", "d.json"), "rci-dict": ("r.json", "r.json"),
    "kernel": ("linear", "linear"), "c": (2.5, "2.5"), "gamma": (0.125, "0.125"),
    "pretreatment": ("snv", "snv"), "n-lv": (3, "3"), "n-reference-sets": (10, "10"),
    "jobs": (2, "2"), "dp-sizes": ([8, 16], "8,16"), "rci-sizes": ([4], "4"),
    "c-grid": ([0.5, 2], "0.5,2"), "gamma-grid": ([1, 0.25], "1,0.25"),
    "kernels": (["rbf"], "rbf"), "n-repeats": (7, "7"), "lv-max": (4, "4"),
    "pretreatments": (["none", "snv"], "none,snv"), "a": ("a.csv", "a.csv"),
    "b": ("b.csv", "b.csv"), "inputs": (["s1.csv", "s2.csv"], "s1.csv,s2.csv"),
}


def subcommand_parsers():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def dir_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


@pytest.fixture(scope="module")
def cohort_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cohort")
    assert cli.main(["synth", "--out", str(out), *COHORT_FLAGS]) == 0
    return out


@pytest.fixture(scope="module")
def manifest(cohort_dir):
    return str(cohort_dir / "manifest.txt")


@pytest.fixture(scope="module")
def small_manifest(tmp_path_factory):
    """Six patients: the reference pool leaves three, too few for five folds."""
    out = tmp_path_factory.mktemp("small")
    assert cli.main([
        "synth", "--out", str(out), "--n-patients", "6", "--n-samples", "12",
        "--image-size", "48", "--cube-size", "12", "--n-bands", "32", "--seed", "1",
    ]) == 0
    return str(out / "manifest.txt")


@pytest.fixture(scope="module")
def dictionaries(manifest, tmp_path_factory):
    out = tmp_path_factory.mktemp("dicts")
    dp, rci = out / "dp.json", out / "rci.json"
    assert cli.main([
        "build-dict", "--manifest", manifest, "--task", "nc-c",
        "--modality", "dp", "--k", "12", "--out", str(dp), *PIPE_FLAGS,
    ]) == 0
    assert cli.main([
        "build-dict", "--manifest", manifest, "--task", "nc-c",
        "--modality", "rci", "--k", "6", "--out", str(rci), *PIPE_FLAGS,
    ]) == 0
    return dp, rci


@pytest.fixture
def no_cubes(monkeypatch):
    """Fail the test if any Raman cube gets loaded."""

    def forbidden(*args, **kwargs):
        raise AssertionError("a cube was loaded")

    monkeypatch.setattr(dataio, "load_cube", forbidden)


def count_route_work(monkeypatch):
    """Record the image size of every SIFT extraction and the (modality, k)
    of every k-means run from here on."""
    work = {"extract": [], "kmeans": []}
    real_extract, real_kmeans = experiments.extract, bovw.kmeans

    def extract(img, params):
        work["extract"].append(img.pixels.shape)
        return real_extract(img, params)

    def kmeans(descriptors, k, seed, *args, modality="dp", **kwargs):
        work["kmeans"].append((modality, k))
        return real_kmeans(descriptors, k, seed, *args, modality=modality, **kwargs)

    monkeypatch.setattr(experiments, "extract", extract)
    monkeypatch.setattr(bovw, "kmeans", kmeans)
    return work


def empty_file_manifest(tmp_path, labels):
    """A manifest whose data files are all empty, so that reading any of
    them fails: patient p<i> holds one sample per label in labels[i]."""
    samples = []
    for p, patient_labels in enumerate(labels):
        for s, label in enumerate(patient_labels):
            sample_id = f"p{p}s{s}"
            for kind in ("dp", "rci"):
                (tmp_path / f"{sample_id}_{kind}").touch()
            samples.append({"patient_id": f"p{p}", "sample_id": sample_id, "label": label,
                            "dp_path": f"{sample_id}_dp", "rci_path": f"{sample_id}_rci"})
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"seed": 0, "samples": samples}))
    return str(path)


def draw_error(path, config=experiments.PipelineConfig(), task="nc-c", **draw):
    """The stderr line of the data error that experiments.RunPlan.draw
    raises on the manifest at path: a command's up-front plan error, raised
    through the API."""
    with pytest.raises(DataError) as caught:
        experiments.RunPlan.draw(dataio.load_manifest(path), task, config, **draw)
    return f"ramanfuse: data error: {caught.value}"


@pytest.fixture(scope="module")
def cv_fused_dir(manifest, tmp_path_factory):
    out = tmp_path_factory.mktemp("cv_fused")
    assert cli.main([
        "cv", "--manifest", manifest, "--task", "nc-c", "--modality", "fused",
        "--out", str(out), "--seed", "0", *PIPE_FLAGS,
    ]) == 0
    return out


class TestExitCodes:
    def test_no_subcommand_is_a_usage_error(self):
        assert cli.main([]) == 1

    def test_unknown_flag_is_a_usage_error(self):
        assert cli.main(["synth", "--bogus", "1"]) == 1

    def test_bad_choice_is_a_usage_error(self, manifest, tmp_path):
        assert cli.main([
            "cv", "--manifest", manifest, "--task", "nc-vs-g4",
            "--out", str(tmp_path / "x"),
        ]) == 1

    def test_missing_manifest_flag_is_a_usage_error(self, tmp_path):
        assert cli.main(["cv", "--out", str(tmp_path / "x")]) == 1

    def test_unsupported_reference_set_count_is_a_usage_error(
        self, manifest, tmp_path
    ):
        assert cli.main([
            "cv", "--manifest", manifest, "--out", str(tmp_path / "x"),
            "--n-reference-sets", "3",
        ]) == 1

    def test_absent_manifest_file_is_a_data_error(self, tmp_path):
        assert cli.main([
            "cv", "--manifest", str(tmp_path / "nope.txt"),
            "--out", str(tmp_path / "x"),
        ]) == 2

    def test_malformed_config_file_is_a_data_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["synth", "--config", str(bad), "--out", str(tmp_path)]) == 2

    def test_non_object_config_file_is_a_data_error(self, tmp_path):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]")
        assert cli.main(["synth", "--config", str(bad), "--out", str(tmp_path)]) == 2

    def test_malformed_cube_is_a_data_error(self, tmp_path, capsys):
        (tmp_path / "s1_dp.pgm").write_bytes(b"P5\n1 1\n255\n\x00")
        (tmp_path / "s1.cube").write_bytes(b"ramancube text 1\n2.5 2 1\n400.0\n1\n")
        (tmp_path / "manifest.json").write_text(json.dumps({"samples": [{
            "patient_id": "p1", "sample_id": "s1", "label": "normal",
            "dp_path": "s1_dp.pgm", "rci_path": "s1.cube",
        }]}))
        assert cli.main([
            "median-spectrum", "--manifest", str(tmp_path / "manifest.json"),
            "--out", str(tmp_path / "out"),
        ]) == 2
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", ["build-dict", "encode", "train", "cv", "grid", "pls-select"]
    )
    def test_missing_out_fails_before_any_cube_is_loaded(
        self, small_manifest, no_cubes, capsys, command
    ):
        # The cohort is too small for five folds, which cv and grid check
        # only after --out.
        extra = ["--modality", "dp"] if command == "build-dict" else []
        assert cli.main([command, "--manifest", small_manifest, *extra]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "an --out" in err[0]

    @pytest.mark.parametrize("n_bands, shift", [(24, 0.0), (32, 1.0)], ids=["bands", "axis"])
    @pytest.mark.parametrize("argv", [
        ["cv", "--modality", "median-spectrum", "--folds", "2"], ["pls-select"],
    ], ids=["cv", "pls-select"])
    def test_cubes_with_another_wavenumber_axis_are_a_data_error(
        self, tmp_path, capsys, argv, n_bands, shift
    ):
        cohort = synth.generate(CV_COHORT, tmp_path)
        last = cohort.samples[-1]
        cube = dataio.load_cube(last.rci_path)
        dataio.save_cube(dataio.HyperspectralCube(
            cube.wavenumbers[:n_bands] + shift, cube.data[:, :, :n_bands]), last.rci_path)
        assert cli.main([
            *argv, "--manifest", str(tmp_path / synth.MANIFEST_NAME),
            "--out", str(tmp_path / "out"),
        ]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and last.sample_id in err[0]

    @pytest.mark.parametrize("header", [
        b"P6\n-3 32\n255\n", b"P6\n32 0\n255\n", b"P6\n100000 100000\n255\n",
        b"\xff\xfe\n32 32\n255\n",
    ], ids=["negative-width", "zero-height", "oversized", "non-ascii-magic"])
    def test_bad_image_header_is_a_one_line_data_error(self, tmp_path, capsys, header):
        cohort = synth.generate(synth.SynthSpec(
            n_patients=3, n_samples=6, dp_size=32, rci_size=8, n_bands=32, seed=1), tmp_path)
        cohort.samples[0].dp_path.write_bytes(header + b"\x00\x01\x02")
        assert cli.main([
            "preprocess", "--manifest", str(tmp_path / synth.MANIFEST_NAME),
            "--out", str(tmp_path / "out"),
        ]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "data error" in err[0]

    def test_binary_cube_larger_than_its_file_is_a_one_line_data_error(self, tmp_path, capsys):
        cohort = synth.generate(CV_COHORT, tmp_path)
        cohort.samples[0].rci_path.write_bytes(
            b"ramancube binary 1\n100000 100000 4\n400 500 600 700\n" + bytes(24))
        assert cli.main([
            "cv", "--modality", "median-spectrum", "--folds", "2", "--manifest",
            str(tmp_path / synth.MANIFEST_NAME), "--out", str(tmp_path / "out"),
        ]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "more than the file holds" in err[0]

    def test_cube_whose_scatter_overflows_is_a_one_line_numerical_failure(
        self, tmp_path, capsys
    ):
        cohort = synth.generate(CV_COHORT, tmp_path)
        path = cohort.samples[0].rci_path
        cube = dataio.load_cube(path)
        dataio.save_cube(dataio.HyperspectralCube(
            cube.wavenumbers, cube.data / np.abs(cube.data).max() * 1e300), path)
        assert cli.main([
            "cv", "--modality", "median-spectrum", "--folds", "2", "--manifest",
            str(tmp_path / synth.MANIFEST_NAME), "--out", str(tmp_path / "out"),
        ]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "band scatter" in err[0]

    @pytest.mark.parametrize("argv", [
        ["train", "--modality", "median-spectrum", "--out", "model.json"],
        ["pls-select", "--n-repeats", "3", "--out", "selection.csv"],
    ], ids=lambda argv: argv[0])
    def test_cube_whose_scatter_eigenvalues_overflow_is_a_one_line_numerical_failure(
        self, tmp_path, capsys, argv
    ):
        cohort = synth.generate(synth.SynthSpec(n_patients=8, n_samples=24, seed=1), tmp_path)
        path = cohort.samples[0].rci_path
        cube = dataio.load_cube(path)
        dataio.save_cube(dataio.HyperspectralCube(cube.wavenumbers, cube.data * 1e150), path)
        argv[-1] = str(tmp_path / "out" / argv[-1])
        assert cli.main([*argv, "--manifest", str(tmp_path / synth.MANIFEST_NAME)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"ramanfuse: numerical failure: sample {cohort.samples[0].sample_id}: "
                       "the eigenvalues of the band scatter are not finite in float64"]

    @pytest.mark.parametrize("argv, message", [
        (["train", "--modality", "median-spectrum", "--out", "model.json"], ""),
        (["cv", "--modality", "median-spectrum", "--folds", "2", "--out", "cv"], ""),
        (["pls-select", "--n-repeats", "3", "--out", "selection.csv"], ""),
        (["median-spectrum", "--out", "medians"], ""),
        # the mean image, which preprocess scales before the median, finds none first
        (["preprocess", "--out", "prepared"], " to scale over"),
    ], ids=["train", "cv", "pls-select", "median-spectrum", "preprocess"])
    def test_saturated_cube_is_a_one_line_data_error_that_names_its_sample(
        self, tmp_path, capsys, argv, message
    ):
        # every tissue pixel reaches the saturation level, so none is left
        cohort = synth.generate(synth.SynthSpec(n_patients=8, n_samples=24, seed=1), tmp_path)
        sample = cohort.samples[3]
        cube = dataio.load_cube(sample.rci_path)
        dataio.save_cube(dataio.HyperspectralCube(cube.wavenumbers, cube.data * 1e100),
                         sample.rci_path)
        argv = [*argv[:-1], str(tmp_path / "out" / argv[-1])]
        assert cli.main([*argv, "--manifest", str(tmp_path / synth.MANIFEST_NAME)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"ramanfuse: data error: sample {sample.sample_id}: "
                       f"no masked-in pixels{message}"]

    @pytest.mark.parametrize("seed", ["x", 1.5, False])
    def test_manifest_seed_that_is_not_an_integer_is_a_data_error(
        self, tmp_path, capsys, no_cubes, seed
    ):
        synth.generate(synth.SynthSpec(
            n_patients=3, n_samples=6, dp_size=32, rci_size=8, n_bands=32, seed=1), tmp_path)
        path = tmp_path / synth.MANIFEST_NAME
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({**doc, "seed": seed}))
        assert cli.main(["preprocess", "--manifest", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "seed" in err[0]

    @pytest.mark.parametrize("text", [b'{"a": "\xff"}\n', b"[" * 100_000 + b"]" * 100_000],
                             ids=["bad-byte", "deep-nesting"])
    @pytest.mark.parametrize("argv", [
        ["preprocess", "--manifest", "{bad}", "--out", "{out}"],
        ["synth", "--config", "{bad}", "--out", "{out}"],
        ["encode", "--manifest", "{manifest}", "--modality", "dp", "--dp-dict", "{bad}",
         "--out", "{out}/f.csv"],
    ], ids=["manifest", "config", "dp-dict"])
    def test_unreadable_json_input_is_a_one_line_data_error(
        self, manifest, tmp_path, capsys, no_cubes, argv, text
    ):
        bad = tmp_path / "bad.json"
        bad.write_bytes(text)
        paths = dict(bad=bad, out=tmp_path / "out", manifest=manifest)
        assert cli.main([arg.format(**paths) for arg in argv]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "data error" in err[0] and "bad.json" in err[0]

    @pytest.mark.parametrize("command", ["ttest", "report"])
    def test_value_or_summary_file_that_is_not_utf8_is_a_one_line_data_error(
        self, tmp_path, capsys, command
    ):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(",".join(cli.SUMMARY_HEADER).encode() + b"\n1,\xff\n")
        good = tmp_path / "good.csv"
        good.write_text("1\n2\n3\n")
        argv = (["ttest", "--a", str(bad), "--b", str(good)] if command == "ttest"
                else ["report", "--inputs", str(bad)])
        assert cli.main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "data error" in err[0] and "bad.csv" in err[0]

    def test_numerical_failure_maps_to_exit_3(self, monkeypatch, tmp_path):
        def boom(args):
            raise NumericalError("probe")

        monkeypatch.setattr(cli, "_cmd_synth", boom)
        assert cli.main(["synth", "--out", str(tmp_path)]) == 3


class TestSynth:
    def test_cohort_layout(self, cohort_dir, manifest):
        loaded = dataio.load_manifest(manifest)
        assert len(loaded.samples) == 70
        assert len({r.patient_id for r in loaded.samples}) == 12
        for record in loaded.samples[:3]:
            assert record.dp_path.is_file()
            assert record.rci_path.is_file()


class TestPerSampleCommands:
    def test_preprocess_writes_images_and_masks(
        self, cohort_dir, manifest, tmp_path
    ):
        loaded = dataio.load_manifest(manifest)
        small = dataio.CohortManifest(loaded.samples[:3], loaded.seed)
        small_path = tmp_path / "small.txt"
        dataio.save_manifest(small, small_path)
        out = tmp_path / "prep"
        assert cli.main([
            "preprocess", "--manifest", str(small_path), "--out", str(out),
            *SIZE_FLAGS,
        ]) == 0
        for record in small.samples:
            assert (out / f"{record.sample_id}_dp.pgm").is_file()
            assert (out / f"{record.sample_id}_rci.pgm").is_file()
            assert (out / f"{record.sample_id}_mask.pgm").is_file()

    def test_median_spectrum_round_trip(self, manifest, tmp_path):
        out = tmp_path / "medians"
        assert cli.main([
            "median-spectrum", "--manifest", manifest, "--out", str(out),
        ]) == 0
        samples = dataio.load_manifest(manifest).samples
        assert len(samples) == 70
        assert sorted(p.name for p in out.iterdir()) == sorted(
            f"{record.sample_id}_median.csv" for record in samples
        )
        expected = tmp_path / "expected.csv"
        spectral.save_spectrum(experiments.prepare_sample(samples[0], routes=()).median, expected)
        assert (out / f"{samples[0].sample_id}_median.csv").read_bytes() == expected.read_bytes()


class TestDictionaryCommands:
    def test_built_dictionaries_load_with_requested_sizes(self, dictionaries):
        dp, rci = dictionaries
        assert dataio.load_model(dp).k == 12
        assert dataio.load_model(rci).k == 6

    def test_encode_writes_one_row_per_task_sample(
        self, manifest, dictionaries, tmp_path
    ):
        dp, rci = dictionaries
        out = tmp_path / "features.csv"
        assert cli.main([
            "encode", "--manifest", manifest, "--task", "nc-c",
            "--modality", "fused", "--dp-dict", str(dp), "--rci-dict", str(rci),
            "--out", str(out), *SIZE_FLAGS,
        ]) == 0
        rows = read_rows(out)
        assert rows[0] == ["sample_id", "patient_id", "label", "y"] + [
            f"f{i}" for i in range(18)
        ]
        assert len(rows) == 71
        assert {row[3] for row in rows[1:]} == {"0", "1"}

    def test_encode_rejects_swapped_dictionaries_before_any_cube_is_loaded(
        self, manifest, dictionaries, no_cubes, tmp_path, capsys
    ):
        dp, rci = dictionaries
        assert cli.main([
            "encode", "--manifest", manifest, "--modality", "fused",
            "--dp-dict", str(rci), "--rci-dict", str(dp), "--out", str(tmp_path / "x.csv"),
        ]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "--dp-dict does not hold a dp dictionary" in err[0]

    @pytest.mark.parametrize("route", ["dp", "rci"])
    def test_encode_rejects_a_dictionary_of_another_width_before_any_cube_is_loaded(
        self, manifest, dictionaries, no_cubes, tmp_path, capsys, route
    ):
        paths = dict(zip(("dp", "rci"), map(str, dictionaries)))
        paths[route] = str(tmp_path / "narrow.json")
        dataio.save_model(bovw.VisualDictionary(np.ones((4, 5)), route, 0), paths[route])
        assert cli.main([
            "encode", "--manifest", manifest, "--modality", "fused",
            "--dp-dict", paths["dp"], "--rci-dict", paths["rci"],
            "--out", str(tmp_path / "x.csv"),
        ]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and f"--{route}-dict centroids are 5 wide" in err[0]

    def test_cli_dictionaries_and_rows_match_partition_features(
        self, manifest, dictionaries, tmp_path
    ):
        dp, rci = dictionaries
        out = tmp_path / "fused.csv"
        assert cli.main([
            "encode", "--manifest", manifest, "--task", "nc-c",
            "--modality", "fused", "--dp-dict", str(dp), "--rci-dict", str(rci),
            "--out", str(out), *SIZE_FLAGS,
        ]) == 0
        config = experiments.PipelineConfig(dp_size=96, rci_size=64, k_dp=12, k_rci=6)
        desc = experiments.extract_cohort(dataio.load_manifest(manifest), "nc-c", config)
        features = experiments.partition_features(desc, seed=0)
        for path, modality, k in ((dp, "dp", 12), (rci, "rci", 6)):
            pool = desc.pool(modality, features.reference_rows)
            want = bovw.kmeans(pool, k, 0, modality=modality)
            assert np.array_equal(dataio.load_model(path).centroids, want.centroids)
        rows = read_rows(out)[1:]
        got = np.array([[float(v) for v in rows[i][4:]] for i in features.classification_rows])
        assert np.array_equal(got, features.matrix("fused"))

    @pytest.mark.parametrize("modality, k", [("dp", 12), ("rci", 6)])
    def test_build_dict_extracts_only_its_route(
        self, manifest, monkeypatch, tmp_path, modality, k
    ):
        config = experiments.PipelineConfig(dp_size=96, rci_size=64, k_dp=12, k_rci=6)
        desc = experiments.extract_cohort(dataio.load_manifest(manifest), "nc-c", config)
        features = experiments.partition_features(desc, seed=0, build_dictionaries=False)
        want = tmp_path / "want.json"
        dataio.save_model(bovw.kmeans(
            desc.pool(modality, features.reference_rows), k, 0, modality=modality), want)

        work = count_route_work(monkeypatch)
        out = tmp_path / "dict.json"
        assert cli.main([
            "build-dict", "--manifest", manifest, "--task", "nc-c",
            "--modality", modality, "--k", str(k), "--out", str(out), *PIPE_FLAGS,
        ]) == 0
        size = config.dp_size if modality == "dp" else config.rci_size
        assert work["extract"] == [(size, size)] * len(features.reference_rows)
        assert work["kmeans"] == [(modality, k)]
        assert out.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("modality", ["dp", "rci"])
    @pytest.mark.parametrize("command", ["cv", "encode", "train"])
    def test_single_route_commands_extract_and_cluster_only_their_route(
        self, manifest, dictionaries, monkeypatch, tmp_path, command, modality
    ):
        dicts = dict(zip(("dp", "rci"), dictionaries))
        extra = ([f"--{modality}-dict", str(dicts[modality]), *SIZE_FLAGS] if command == "encode"
                 else PIPE_FLAGS)
        work = count_route_work(monkeypatch)
        assert cli.main([
            command, "--manifest", manifest, "--task", "nc-c", "--modality", modality,
            "--out", str(tmp_path / "out"), *extra,
        ]) == 0
        size, k = (96, 12) if modality == "dp" else (64, 6)
        assert work["extract"] == [(size, size)] * 70
        assert work["kmeans"] == ([] if command == "encode" else [(modality, k)])

    def test_encode_with_a_dictionary_of_the_other_route_is_a_data_error(
        self, manifest, dictionaries, no_cubes, tmp_path
    ):
        dp, rci = dictionaries
        assert cli.main([
            "encode", "--manifest", manifest, "--modality", "dp",
            "--dp-dict", str(rci), "--out", str(tmp_path / "x.csv"),
        ]) == 2

    def test_encode_without_needed_dictionary_is_a_usage_error(
        self, manifest, dictionaries, tmp_path
    ):
        dp, _ = dictionaries
        assert cli.main([
            "encode", "--manifest", manifest, "--modality", "fused",
            "--dp-dict", str(dp), "--out", str(tmp_path / "x.csv"),
        ]) == 1


class TestTrain:
    def test_svm_route_saves_a_calibrated_model(self, manifest, tmp_path):
        out = tmp_path / "svm.json"
        assert cli.main([
            "train", "--manifest", manifest, "--task", "nc-c",
            "--modality", "fused", "--out", str(out), *PIPE_FLAGS,
        ]) == 0
        model = dataio.load_model(out)
        assert isinstance(model, svm.SvmModel)
        assert model.platt_a is not None

    def test_linear_model_reports_no_gamma(self, manifest, tmp_path, capsys):
        assert cli.main([
            "train", "--manifest", manifest, "--task", "nc-c", "--modality", "rci",
            "--kernel", "linear", "--c", "2", "--out", str(tmp_path / "svm.json"), *PIPE_FLAGS,
        ]) == 0
        assert "trained linear SVM (C=2) on " in capsys.readouterr().out

    @pytest.mark.parametrize("modality", experiments.MODALITIES)
    def test_saved_model_is_the_route_model_fit_on_every_classification_row(
        self, manifest, tmp_path, capsys, modality
    ):
        out, want = tmp_path / "model.json", tmp_path / "want.json"
        assert cli.main([
            "train", "--manifest", manifest, "--task", "nc-c", "--modality", modality,
            "--out", str(out), *PIPE_FLAGS,
        ]) == 0
        config = experiments.PipelineConfig(dp_size=96, rci_size=64, k_dp=12, k_rci=6)
        desc = experiments.extract_cohort(dataio.load_manifest(manifest), "nc-c", config,
                                          routes=experiments.ROUTES[modality])
        features = experiments.partition_features(desc, seed=0)
        pretreatment, n_lv = cli.PLS_DEFAULTS["nc-c"]
        settings = ((spectral.parse_pretreatment(pretreatment), n_lv)
                    if modality == "median-spectrum" else experiments.SVM_CONFIG)
        rows = np.arange(len(features.y))
        model = experiments.RouteModel.fit(features, modality, rows, settings)
        dataio.save_model(model.classifier, want)
        assert out.read_bytes() == want.read_bytes()
        if modality == "median-spectrum":
            fitted = (f"on {len(rows)} classification and {len(features.reference_rows)} "
                      f"reference samples -> ")
            assert fitted in capsys.readouterr().out

    def test_median_route_saves_a_pls_model(self, manifest, tmp_path):
        out = tmp_path / "pls.json"
        assert cli.main([
            "train", "--manifest", manifest, "--task", "nc-c",
            "--modality", "median-spectrum", "--out", str(out),
        ]) == 0
        model = dataio.load_model(out)
        assert model.n_lv >= 1
        assert model.beta.shape == (32,)

    @pytest.mark.parametrize("modality", experiments.MODALITIES)
    def test_single_class_fitting_rows_fail_before_any_file_is_read(
        self, tmp_path, no_cubes, capsys, modality
    ):
        path = empty_file_manifest(tmp_path, [("normal", "normal")] * 6)
        out = tmp_path / "model.json"
        assert cli.main(["train", "--manifest", path, "--modality", modality,
                         "--out", str(out)]) == 2
        rows = "task" if modality == "median-spectrum" else "classification"
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"ramanfuse: data error: task nc-c: the {rows} rows do not hold both "
                       f"classes, which a fit needs"]
        assert err == [draw_error(path, routes=experiments.ROUTES[modality], fit="once")]
        assert not out.exists()

    def test_cancer_only_in_the_reference_pool_fails_only_the_bovw_fits(
        self, tmp_path, no_cubes, capsys
    ):
        normal = [("normal", "normal")] * 6
        records = dataio.load_manifest(empty_file_manifest(tmp_path, normal)).samples
        pool = evaluation.reference_pool(records, cli._PIPELINE.reference_fraction, 0)
        reference = {record.patient_id for record, ref in zip(records, pool) if ref}
        assert 0 < len(reference) < len(normal)
        labels = [("g3", "normal") if f"p{p}" in reference else patient
                  for p, patient in enumerate(normal)]
        path = empty_file_manifest(tmp_path, labels)
        argv = ["train", "--manifest", path, "--out", str(tmp_path / "model.json")]
        assert cli.main([*argv, "--modality", "dp"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "the classification rows do not hold both classes" in err[0]
        # The PLS-DA fit reads the reference medians too: the check passes.
        with pytest.raises(AssertionError, match="a cube was loaded"):
            cli.main([*argv, "--modality", "median-spectrum"])


class TestCrossValidation:
    def test_report_files_and_summary_row(self, cv_fused_dir):
        summary = read_rows(cv_fused_dir / "summary.csv")
        assert summary[0] == [
            "task", "modality", "n_reference_sets",
            "sensitivity", "specificity", "auc",
        ]
        task, modality, n_sets, sens, spec, auc = summary[1]
        assert (task, modality, n_sets) == ("nc-c", "fused", "1")
        for value in (sens, spec, auc):
            assert 0.0 <= float(value) <= 1.0
        assert (cv_fused_dir / "metrics_set0.csv").is_file()
        assert (cv_fused_dir / "roc_set0.csv").is_file()
        assert (cv_fused_dir / "roc_set0.svg").read_text().lstrip().startswith("<svg")

    def test_median_spectrum_route(self, manifest, tmp_path):
        out = tmp_path / "cv_med"
        assert cli.main([
            "cv", "--manifest", manifest, "--task", "nc-c",
            "--modality", "median-spectrum", "--out", str(out), "--seed", "0",
        ]) == 0
        assert read_rows(out / "summary.csv")[1][1] == "median-spectrum"

    def test_same_seed_runs_are_byte_identical(self, manifest, tmp_path):
        dirs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli.main([
                "cv", "--manifest", manifest, "--task", "nc-c",
                "--modality", "dp", "--out", str(out), "--seed", "3",
                *PIPE_FLAGS,
            ]) == 0
            dirs.append(out)
        assert dir_bytes(dirs[0]) == dir_bytes(dirs[1])

    def test_config_file_matches_equivalent_flags(
        self, manifest, tmp_path, cv_fused_dir
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "dp-size": 96, "rci-size": 64, "k-dp": 12, "k-rci": 6,
            "task": "nc-c", "modality": "fused",
        }))
        out = tmp_path / "from_config"
        assert cli.main([
            "cv", "--manifest", manifest, "--config", str(cfg),
            "--out", str(out), "--seed", "0",
        ]) == 0
        assert (out / "summary.csv").read_bytes() == (
            cv_fused_dir / "summary.csv"
        ).read_bytes()

    def test_flags_take_precedence_over_config(self, manifest, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"task": "nc-c", "modality": "rci"}))
        out = tmp_path / "override"
        assert cli.main([
            "cv", "--manifest", manifest, "--config", str(cfg),
            "--modality", "dp", "--out", str(out), "--seed", "0", *PIPE_FLAGS,
        ]) == 0
        assert read_rows(out / "summary.csv")[1][1] == "dp"

    @pytest.mark.parametrize("modality", ["dp", "median-spectrum"])
    def test_single_class_test_fold_fails_before_any_file_is_read(
        self, tmp_path, no_cubes, capsys, modality
    ):
        # Only patient p0 has cancer samples, so whichever fold lacks p0
        # tests normal tissue alone. Every data file is empty: reading one
        # would fail with another message.
        path = empty_file_manifest(tmp_path, [("g3", "normal")] + [("normal", "normal")] * 5)
        out = tmp_path / "out"
        assert cli.main(["cv", "--manifest", path, "--modality", modality,
                         "--folds", "2", "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "reference set 0, fold " in err[0]
        assert "the test rows hold one class only" in err[0]
        assert err == [draw_error(path, replace(cli._PIPELINE, folds=2),
                                  routes=experiments.ROUTES[modality], fit="roc")]
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["cv", "--modality", "dp", "--k-dp", "4"],
        ["grid", "--dp-sizes", "4", "--rci-sizes", "2", "--kernels", "linear", "--c-grid", "1"],
    ], ids=lambda argv: argv[0])
    def test_up_front_fold_check_tests_the_pairs_the_fits_use(
        self, tmp_path, monkeypatch, argv
    ):
        synth.generate(replace(CV_COHORT, dp_size=96, rci_size=24), tmp_path)
        pairs, planned = [], []
        real_pairs, real_plan = evaluation.fold_pairs, experiments.plan_fold_indices

        def fold_pairs(fold):
            pairs.append(real_pairs(fold))
            return pairs[-1]

        def plan_fold_indices(features):
            planned.append(real_plan(features))
            return planned[-1]

        monkeypatch.setattr(evaluation, "fold_pairs", fold_pairs)
        monkeypatch.setattr(experiments, "plan_fold_indices", plan_fold_indices)
        assert cli.main([*argv, "--manifest", str(tmp_path / synth.MANIFEST_NAME), "--folds",
                         "2", *SIZE_FLAGS, "--out", str(tmp_path / "out" / "x")]) == 0
        checked, fitted = pairs
        assert planned == [fitted]
        assert len(checked) == len(fitted) == 2
        for (train, test), (fit_train, fit_test) in zip(checked, fitted):
            assert np.array_equal(train, fit_train) and np.array_equal(test, fit_test)

    def test_grid_with_a_single_class_training_fold_fails_before_any_file_is_read(
        self, tmp_path, no_cubes, capsys
    ):
        # Only p0 has cancer samples: with two folds, the fold that holds
        # p0 trains on the other fold's normal tissue alone.
        path = empty_file_manifest(tmp_path, [("g3", "normal")] + [("normal", "normal")] * 5)
        out = tmp_path / "grid.csv"
        assert cli.main(["grid", "--manifest", path, "--folds", "2", "--kernels", "linear",
                         "--c-grid", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "reference set 0, fold " in err[0]
        assert "the training rows hold one class only" in err[0]
        assert err == [draw_error(path, replace(cli._PIPELINE, folds=2),
                                  routes=experiments.IMAGE_ROUTES, fit="folds")]
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["build-dict", "--modality", "dp"], ["encode", "--modality", "dp"], ["train"],
        ["train", "--modality", "median-spectrum"], ["cv"], ["grid"], ["pls-select"],
    ], ids=lambda argv: " ".join(argv))
    def test_task_that_selects_no_sample_fails_before_any_file_is_read(
        self, tmp_path, dictionaries, no_cubes, capsys, argv
    ):
        path = empty_file_manifest(tmp_path, [("normal", "normal")] * 6)
        dicts = ["--dp-dict", str(dictionaries[0])] if argv[0] == "encode" else []
        out = tmp_path / "out" / "x"
        assert cli.main([*argv, *dicts, "--manifest", path, "--task", "g3-g4",
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["ramanfuse: data error: task g3-g4 selects no sample of the manifest"]
        assert err == [draw_error(path, task="g3-g4")]
        assert not out.exists()


class TestConfigValidation:
    def write(self, tmp_path, doc):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize(
        "argv", [["cv"], ["train", "--modality", "median-spectrum"]], ids=["cv", "train"]
    )
    def test_unknown_task_is_a_one_line_usage_error(
        self, manifest, tmp_path, no_cubes, capsys, argv
    ):
        cfg = self.write(tmp_path, {"task": "bogus"})
        assert cli.main([
            *argv, "--manifest", manifest, "--config", cfg, "--out", str(tmp_path / "x"),
        ]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].endswith("config value task='bogus' is not valid for --task")

    def test_unknown_modality_stops_before_extraction(
        self, manifest, tmp_path, no_cubes, capsys
    ):
        cfg = self.write(tmp_path, {"modality": "bogus"})
        assert cli.main([
            "cv", "--manifest", manifest, "--config", cfg, "--out", str(tmp_path / "x"),
        ]) == 1
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    @pytest.mark.parametrize("doc", [{"k-dp": "many"}, {"seed": 1.5}, {"c": [1, 2]}])
    def test_value_of_the_wrong_type_is_a_usage_error(
        self, manifest, tmp_path, no_cubes, doc
    ):
        cfg = self.write(tmp_path, doc)
        assert cli.main([
            "cv", "--manifest", manifest, "--config", cfg, "--out", str(tmp_path / "x"),
        ]) == 1

    @pytest.mark.parametrize("argv", [
        ["cv", "--k-dp", "0"],
        ["cv", "--k-rci", "-3"],
        ["cv", "--folds", "0"],
        ["cv", "--dp-size", "0"],
        ["cv", "--rci-size", "0"],
        ["cv", "--reference-fraction", "1.5"],
        ["cv", "--reference-fraction", "0"],
        ["cv", "--reference-fraction", "nan"],
        ["build-dict", "--modality", "dp", "--k", "0"],
        ["pls-select", "--n-repeats", "0"],
        ["pls-select", "--lv-max", "0"],
        ["pls-select", "--jobs", "0"],
        ["pls-select", "--pretreatments", ","],
        ["grid", "--jobs", "0"],
        ["train", "--modality", "median-spectrum", "--n-lv", "0"],
        ["synth", "--n-patients", "0"],
        ["synth", "--n-samples", "0"],
        ["synth", "--image-size", "0"],
        ["synth", "--cube-size", "0"],
        ["synth", "--n-bands", "0"],
    ], ids=lambda argv: " ".join(argv))
    def test_bad_count_or_fraction_flag_fails_before_any_cube_is_loaded(
        self, manifest, tmp_path, no_cubes, capsys, argv
    ):
        cohort = [] if argv[0] == "synth" else ["--manifest", manifest]
        assert cli.main([*argv, *cohort, "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and argv[-2] in err[0]
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["cv", "train"])
    def test_bad_setting_of_the_other_route_fails_before_any_cube_is_loaded(
        self, manifest, tmp_path, no_cubes, capsys, command
    ):
        assert cli.main([
            command, "--manifest", manifest, "--modality", "dp", "--pretreatment", "bogus",
            "--out", str(tmp_path / "x"),
        ]) == 1
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["train", "--c", "nan"],
        ["train", "--gamma", "inf"],
        ["cv", "--c=-inf"],
    ], ids=lambda argv: " ".join(argv))
    def test_non_finite_c_or_gamma_fails_before_any_cube_is_loaded(
        self, manifest, tmp_path, no_cubes, capsys, argv
    ):
        assert cli.main([*argv, "--manifest", manifest, "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "finite" in err[0]

    @pytest.mark.parametrize("command, doc", [
        ("cv", {"k-dp": 0}), ("cv", {"folds": 0}), ("cv", {"rci-size": -1}),
        ("cv", {"reference-fraction": 1.5}), ("pls-select", {"n-repeats": 0}),
        ("pls-select", {"lv-max": 0}), ("pls-select", {"jobs": 0}), ("pls-select", {"jobs": -1}),
        ("pls-select", {"pretreatments": []}),
    ])
    def test_bad_count_or_fraction_in_config_fails_before_any_cube_is_loaded(
        self, manifest, tmp_path, no_cubes, capsys, command, doc
    ):
        cfg = self.write(tmp_path, doc)
        assert cli.main([
            command, "--manifest", manifest, "--config", cfg, "--out", str(tmp_path / "x"),
        ]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "is not valid for" in err[0]

    @pytest.mark.parametrize("command", ["grid", "pls-select"])
    def test_negative_jobs_fails_before_any_cube_is_loaded(
        self, manifest, tmp_path, no_cubes, capsys, command
    ):
        out = tmp_path / "x.csv"
        assert cli.main([command, "--jobs=-1", "--manifest", manifest, "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "--jobs" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("doc", [
        {"dp-sizes": [8, 0]}, {"rci-sizes": "4,-1"}, {"c-grid": [1, "x"]}, {"jobs": [1, 2]},
    ])
    def test_bad_list_in_config_fails_before_any_cube_is_loaded(
        self, manifest, tmp_path, no_cubes, capsys, doc
    ):
        cfg = self.write(tmp_path, doc)
        assert cli.main([
            "grid", "--manifest", manifest, "--config", cfg, "--out", str(tmp_path / "x"),
        ]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "is not valid for" in err[0]

    @pytest.mark.parametrize("command", sorted(subcommand_parsers()))
    def test_config_values_resolve_like_the_same_flags(self, tmp_path, command):
        flags = [
            a.option_strings[-1][2:] for a in subcommand_parsers()[command]._actions
            if a.dest not in ("help", "config")
        ]
        cfg = self.write(tmp_path, {flag: FLAG_VALUES[flag][0] for flag in flags})
        argv = [x for flag in flags for x in (f"--{flag}", FLAG_VALUES[flag][1])]
        resolved = [
            vars(cli._parse_args([command, *extra]))
            for extra in (["--config", cfg], argv, [])
        ]
        for namespace in resolved:
            del namespace["config"], namespace["parser"]
        from_config, from_flags, defaults = resolved
        assert from_config == from_flags
        assert all(from_config[k] != defaults[k] for k in defaults if k not in ("func", "command"))

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("argv", [
        ["cv", "--modality", "median-spectrum"], ["cv", "--modality", "dp"], ["grid"],
    ], ids=lambda argv: " ".join(argv))
    def test_cross_validation_with_one_fold_fails_before_any_cube_is_loaded(
        self, manifest, tmp_path, no_cubes, capsys, argv, source
    ):
        folds = ["--folds", "1"] if source == "flag" else ["--config",
                                                           self.write(tmp_path, {"folds": 1})]
        out = tmp_path / "x"
        assert cli.main([*argv, "--manifest", manifest, "--out", str(out), *folds]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "--folds" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("argv", [
        ["cv", "--modality", "median-spectrum"], ["cv", "--modality", "dp"], ["grid"],
    ], ids=lambda argv: " ".join(argv))
    def test_cohort_too_small_for_the_folds_fails_before_any_cube_is_loaded(
        self, small_manifest, tmp_path, no_cubes, capsys, argv, source
    ):
        folds = ["--folds", "5"] if source == "flag" else ["--config",
                                                           self.write(tmp_path, {"folds": 5})]
        out = tmp_path / "x"
        assert cli.main([*argv, "--manifest", small_manifest, "--out", str(out), *folds]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["ramanfuse: data error: 3 patients left for 5 folds after the "
                       "reference pool"]
        assert err == [draw_error(small_manifest, fit="roc" if argv[0] == "cv" else "folds")]
        assert not out.exists()

    def test_every_reference_set_is_checked_for_its_folds_before_any_cube_is_loaded(
        self, manifest, tmp_path, no_cubes, capsys
    ):
        # Nine patients are left for folds under the first of the ten
        # reference-set seeds, eight under the second.
        out = tmp_path / "x"
        assert cli.main([
            "cv", "--manifest", manifest, "--out", str(out), "--n-reference-sets", "10",
            "--folds", "9",
        ]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "8 patients left for 9 folds" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["build-dict", "--modality", "rci"], ["train", "--modality", "rci", "--k-rci", "5"],
        ["cv", "--modality", "rci", "--k-rci", "5", "--folds", "2"], ["grid", "--folds", "2"],
    ], ids=lambda argv: argv[0])
    def test_empty_reference_pool_fails_before_any_file_is_read(
        self, tmp_path, no_cubes, capsys, argv
    ):
        # round(0.01 * 24) = 0 samples: no patient joins the reference pool.
        path = empty_file_manifest(tmp_path, [("normal", "g3", "g4")] * 8)
        out = tmp_path / "out" / "x"
        assert cli.main([*argv, "--manifest", path, "--reference-fraction", "0.01",
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["ramanfuse: data error: --reference-fraction 0.01 puts no patient of "
                       "task nc-c in the reference pool, which the dictionaries are built from"]
        config = replace(cli._PIPELINE, reference_fraction=0.01)
        assert err == [draw_error(path, config, routes=("rci",))]
        assert not out.exists()

    def test_median_spectrum_cv_needs_no_reference_pool(self, tmp_path, no_cubes):
        path = empty_file_manifest(tmp_path, [("normal", "g3", "g4")] * 8)
        # Past the up-front checks, cv reads the first cube.
        with pytest.raises(AssertionError, match="a cube was loaded"):
            cli.main(["cv", "--modality", "median-spectrum", "--manifest", path, "--folds", "2",
                      "--reference-fraction", "0.01", "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("command, flag", [
        ("build-dict", "folds"), ("train", "folds"), ("grid", "k-dp"), ("grid", "k-rci"),
        *[("pls-select", flag) for flag in (
            "dp-size", "rci-size", "k-dp", "k-rci", "folds", "reference-fraction")],
        *[(command, flag) for command in ("preprocess", "encode")
          for flag in ("k-dp", "k-rci", "folds", "reference-fraction", "seed")],
        ("median-spectrum", "seed"), ("ttest", "seed"), ("report", "seed"),
    ])
    def test_flag_the_subcommand_does_not_read_is_a_usage_error(
        self, manifest, dictionaries, tmp_path, no_cubes, capsys, command, flag
    ):
        (tmp_path / "a.csv").write_text("1\n2\n4\n")
        (tmp_path / "b.csv").write_text("2\n2\n5\n")
        summary = tmp_path / "summary.csv"
        summary.write_text(",".join(cli.SUMMARY_HEADER) + "\nnc-c,dp,1,0.5,0.5,0.5\n")
        operands = {
            "ttest": ["--a", str(tmp_path / "a.csv"), "--b", str(tmp_path / "b.csv")],
            "report": ["--inputs", str(summary)],
        }.get(command, ["--manifest", manifest])
        if command == "build-dict":
            operands += ["--modality", "dp"]
        if command == "encode":
            dp, rci = dictionaries
            operands += ["--dp-dict", str(dp), "--rci-dict", str(rci)]
        out = tmp_path / "out" / "x.csv"
        assert cli.main([
            command, *operands, "--out", str(out), f"--{flag}", FLAG_VALUES[flag][1],
        ]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and f"unrecognized arguments: --{flag}" in err[0]
        assert not out.parent.exists()

    @pytest.mark.parametrize("argv", [
        ["train", "--modality", "median-spectrum"],
        ["build-dict", "--modality", "dp", "--k", "4", "--dp-size", "48"],
    ], ids=lambda argv: argv[0])
    def test_commands_without_folds_run_on_a_cohort_too_small_for_five(
        self, small_manifest, tmp_path, argv
    ):
        out = tmp_path / "model.json"
        assert cli.main([*argv, "--manifest", small_manifest, "--out", str(out)]) == 0
        assert out.is_file()

    def test_keys_of_other_subcommands_are_ignored(self, tmp_path):
        cfg = self.write(tmp_path, {"task": "bogus", "modality": 7})
        assert cli.main([
            "synth", "--config", cfg, "--out", str(tmp_path / "c"), "--n-patients", "2",
            "--n-samples", "4", "--image-size", "32", "--cube-size", "8",
        ]) == 0


class TestOutParent:
    @pytest.mark.parametrize("argv", [
        ["pls-select", "--n-repeats", "3", "--lv-max", "2"],
        ["train", "--modality", "median-spectrum"],
    ], ids=lambda argv: argv[0])
    def test_missing_parent_directory_is_created(self, manifest, tmp_path, argv):
        out = tmp_path / "new" / "dir" / "out.file"
        assert cli.main([*argv, "--manifest", manifest, "--out", str(out)]) == 0
        assert out.is_file()

    def test_ttest_and_report_create_a_missing_parent(self, cv_fused_dir, tmp_path):
        values = tmp_path / "b.csv"
        values.write_text("auc\n0.5\n0.6\n0.4\n0.7\n0.5\n")
        metrics = str(cv_fused_dir / "metrics_set0.csv")
        ttest, report = tmp_path / "t" / "t.csv", tmp_path / "r" / "r.csv"
        assert cli.main(["ttest", "--a", metrics, "--b", str(values), "--out", str(ttest)]) == 0
        assert cli.main([
            "report", "--inputs", str(cv_fused_dir / "summary.csv"), "--out", str(report),
        ]) == 0
        assert ttest.is_file() and report.is_file()

    @pytest.mark.parametrize("argv", [
        ["synth"], ["preprocess"], ["median-spectrum"], ["build-dict", "--modality", "dp"],
        ["encode"], ["train"], ["cv"], ["grid"], ["pls-select"],
        ["ttest", "--a", "a.csv", "--b", "b.csv"], ["report", "--inputs", "s.csv"],
    ], ids=lambda argv: argv[0])
    def test_out_blocked_by_a_file_is_a_one_line_data_error(
        self, manifest, tmp_path, no_cubes, capsys, argv
    ):
        blocker = tmp_path / "file"
        blocker.write_text("")
        cohort = [] if argv[0] in ("synth", "ttest", "report") else ["--manifest", manifest]
        assert cli.main([*argv, *cohort, "--out", str(blocker / "x.csv")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and str(blocker) in err[0]

    @pytest.mark.parametrize("argv, what", [
        (["build-dict", "--modality", "dp"], "model file"), (["encode"], "CSV file"),
        (["train"], "model file"), (["grid"], "CSV file"), (["pls-select"], "CSV file"),
        (["ttest", "--a", "a.csv", "--b", "b.csv"], "CSV file"),
        (["report", "--inputs", "s.csv"], "CSV file"),
    ], ids=["build-dict", "encode", "train", "grid", "pls-select", "ttest", "report"])
    def test_out_file_that_is_a_directory_is_a_one_line_data_error(
        self, manifest, tmp_path, no_cubes, capsys, argv, what
    ):
        cohort = [] if argv[0] in ("ttest", "report") else ["--manifest", manifest]
        assert cli.main([*argv, *cohort, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"ramanfuse: data error: the --out {what} {tmp_path} is a directory"]


class TestGrid:
    def test_jobs_setting_does_not_change_output(self, manifest, tmp_path):
        outputs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"grid{jobs}.csv"
            assert cli.main([
                "grid", "--manifest", manifest, "--task", "nc-c",
                "--out", str(out), "--seed", "0", "--jobs", jobs,
                "--dp-sizes", "8", "--rci-sizes", "4",
                "--c-grid", "1.0,10.0", "--gamma-grid", "0.5",
                "--kernels", "linear,rbf", *SIZE_FLAGS,
            ]) == 0
            outputs.append(out)
        assert outputs[0].read_bytes() == outputs[1].read_bytes()
        best = read_rows(outputs[0].with_name("grid1_best.csv"))
        assert best[0] == [
            "dict_size_dp", "dict_size_rci", "kernel", "C", "gamma",
            "mean_accuracy",
        ]
        assert best[1][0] == "8" and best[1][1] == "4"
        rows = read_rows(outputs[0])
        assert len(rows) == 1 + 1 * 1 * (2 + 2 * 1)

    def test_clusters_only_the_requested_dictionary_sizes(
        self, manifest, monkeypatch, tmp_path
    ):
        work = count_route_work(monkeypatch)
        assert cli.main([
            "grid", "--manifest", manifest, "--task", "nc-c", "--out", str(tmp_path / "g.csv"),
            "--dp-sizes", "8,10", "--rci-sizes", "4", "--c-grid", "1.0",
            "--kernels", "linear", *SIZE_FLAGS,
        ]) == 0
        assert work["kmeans"] == [("dp", 8), ("dp", 10), ("rci", 4)]

    def test_a_linear_best_reports_no_gamma(self, manifest, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        assert cli.main([
            "grid", "--manifest", manifest, "--task", "nc-c", "--out", str(out),
            "--dp-sizes", "8", "--rci-sizes", "4", "--c-grid", "1,2",
            "--kernels", "linear", *SIZE_FLAGS,
        ]) == 0
        summary = capsys.readouterr().out.splitlines()[0]
        best = read_rows(out.with_name("grid_best.csv"))
        assert best[1][2] == "linear" and best[1][4] == ""
        assert [row[3] for row in read_rows(out)[1:]] == ["", ""]
        assert "linear, C=" in summary and "gamma" not in summary


    @pytest.mark.parametrize("flags", [
        ["--kernels", ""],
        ["--c-grid", ""],
        ["--dp-sizes", ""],
        ["--kernels", "rbf", "--gamma-grid", ""],
        ["--kernels", "poly"],
        ["--c-grid=-1"],
        ["--gamma-grid=0"],
        ["--dp-sizes", "0,8"],
        ["--rci-sizes=-4"],
        ["--c-grid", "nan"],
        ["--gamma-grid", "1,inf"],
    ])
    def test_empty_or_invalid_grid_fails_before_any_cube_is_loaded(
        self, manifest, no_cubes, capsys, tmp_path, flags
    ):
        out = tmp_path / "grid.csv"
        assert cli.main(["grid", "--manifest", manifest, "--out", str(out), *flags]) == 1
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert not out.exists()


class TestSelection:
    def test_pls_select_skips_oversized_pretreatments(self, manifest, tmp_path, capsys):
        out = tmp_path / "selection.csv"
        assert cli.main([
            "pls-select", "--manifest", manifest, "--task", "g3-g4",
            "--out", str(out), "--n-repeats", "10", "--lv-max", "4",
        ]) == 0
        captured = capsys.readouterr().out
        assert "were skipped" in captured
        assert len(read_rows(out)) > 1

    def test_single_class_task_fails_before_any_cube_is_read(self, tmp_path, no_cubes, capsys):
        path = empty_file_manifest(tmp_path, [("normal", "normal")] * 6)
        out = tmp_path / "selection.csv"
        assert cli.main(["pls-select", "--manifest", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["ramanfuse: data error: task nc-c: the task rows do not hold both "
                       "classes, which a fit needs"]
        assert not out.exists()

    def test_chain_longer_than_the_spectra_names_chain_and_band_count(
        self, tmp_path, monkeypatch, capsys
    ):
        # the first cube's band count is checked before any other cube is read
        synth.generate(CV_COHORT, tmp_path)
        out = tmp_path / "selection.csv"
        loaded = []
        real_load_cube = dataio.load_cube
        monkeypatch.setattr(dataio, "load_cube",
                            lambda path: loaded.append(path) or real_load_cube(path))
        assert cli.main([
            "pls-select", "--manifest", str(tmp_path / synth.MANIFEST_NAME), "--out", str(out),
            "--pretreatments", "none,fluor+snv",
        ]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["ramanfuse: data error: pretreatment fluor+snv needs spectra of at least "
                       "301 bands, but the cohort's have 32"]
        assert not out.exists()
        assert len(loaded) == 1

    def test_explicit_pretreatment_menu(self, manifest, tmp_path):
        out = tmp_path / "selection.csv"
        assert cli.main([
            "pls-select", "--manifest", manifest, "--task", "nc-c",
            "--out", str(out), "--n-repeats", "5", "--lv-max", "3",
            "--pretreatments", "none,snv",
        ]) == 0
        body = out.read_text()
        assert "snv" in body or "none" in body


class TestTTest:
    def test_matches_library_computation(self, tmp_path):
        a = [0.81, 0.79, 0.85, 0.88, 0.76]
        b = [0.71, 0.70, 0.78, 0.74, 0.69]
        a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
        a_path.write_text("auc\n" + "\n".join(map(repr, a)) + "\n")
        b_path.write_text("auc\n" + "\n".join(map(repr, b)) + "\n")
        out = tmp_path / "ttest.csv"
        assert cli.main([
            "ttest", "--a", str(a_path), "--b", str(b_path), "--out", str(out),
        ]) == 0
        header, row = read_rows(out)
        want = evaluation.paired_ttest(a, b)
        got = dict(zip(header, row))
        assert float(got["t"]) == pytest.approx(want.t, abs=1e-12)
        assert float(got["p"]) == pytest.approx(want.p, abs=1e-12)
        assert int(got["n"]) == 5

    def test_fold_metrics_input_skips_aggregate_rows(self, cv_fused_dir, tmp_path):
        values = cli._read_value_column(cv_fused_dir / "metrics_set0.csv")
        rows = read_rows(cv_fused_dir / "metrics_set0.csv")
        fold_aucs = [float(r[-1]) for r in rows[1:] if r[0].isdigit()]
        assert values == fold_aucs
        assert len(values) == 5

    def test_missing_operand_is_a_usage_error(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("x\n1.0\n2.0\n")
        assert cli.main(["ttest", "--a", str(path)]) == 1

    def test_file_without_numbers_is_a_data_error(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("only,words\nhere,too\n")
        b.write_text("x\n1.0\n")
        assert cli.main(["ttest", "--a", str(a), "--b", str(b)]) == 2

    @pytest.mark.parametrize("n_a, n_b", [(3, 2), (1, 1)], ids=["unequal", "one-pair"])
    def test_unpaired_value_counts_are_a_data_error(self, tmp_path, capsys, n_a, n_b):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("x\n" + "".join(f"{i}.0\n" for i in range(n_a)))
        b.write_text("x\n" + "".join(f"{i}.5\n" for i in range(n_b)))
        assert cli.main(["ttest", "--a", str(a), "--b", str(b)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and f"--a holds {n_a} values and --b holds {n_b}" in err[0]

    @pytest.mark.parametrize("value", ["nan", "inf", "1e999"])
    @pytest.mark.parametrize("side", ["a", "b"])
    def test_a_non_finite_value_is_a_data_error(self, tmp_path, capsys, side, value):
        bad, good = tmp_path / "bad.csv", tmp_path / "good.csv"
        bad.write_text(f"1\n{value}\n3\n")
        good.write_text("1\n2\n4\n")
        files = {"a": good, "b": good, side: bad}
        assert cli.main(["ttest", "--a", str(files["a"]), "--b", str(files["b"])]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert str(bad) in err[0] and "line 2" in err[0] and repr(value) in err[0]

    def test_overflowing_differences_are_a_numerical_failure(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("1e308\n1e308\n5\n")
        b.write_text("-1e308\n-1e308\n4\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["ttest", "--a", str(a), "--b", str(b)]) == 3
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    @corruption_settings
    @given(data=st.data())
    def test_a_corrupted_value_file_exits_with_one_line(self, cv_fused_dir, tmp_path, capsys,
                                                        data):
        metrics = cv_fused_dir / "metrics_set0.csv"
        path = tmp_path / "a.csv"
        path.write_bytes(data.draw(corrupted(metrics.read_bytes())))
        assert cli.main(["ttest", "--a", str(path), "--b", str(metrics)]) in (0, 2, 3)
        assert len(capsys.readouterr().err.strip().splitlines()) <= 1


class TestReport:
    def test_stacks_summaries(self, cv_fused_dir, manifest, tmp_path):
        out = tmp_path / "table.csv"
        assert cli.main([
            "report", "--inputs", str(cv_fused_dir / "summary.csv"),
            "--out", str(out),
        ]) == 0
        rows = read_rows(out)
        assert len(rows) == 2
        assert rows[1][0] == "nc-c"

    def test_rejects_a_non_summary_file(self, tmp_path):
        bogus = tmp_path / "bogus.csv"
        bogus.write_text("alpha,beta\n1,2\n")
        assert cli.main(["report", "--inputs", str(bogus)]) == 2

    def test_skips_blank_lines(self, cv_fused_dir, tmp_path):
        summary = (cv_fused_dir / "summary.csv").read_text()
        padded = tmp_path / "padded.csv"
        padded.write_text(summary + "\n\n")
        want, got = tmp_path / "want.csv", tmp_path / "got.csv"
        assert cli.main(["report", "--inputs", str(cv_fused_dir / "summary.csv"),
                         "--out", str(want)]) == 0
        assert cli.main(["report", "--inputs", str(padded), "--out", str(got)]) == 0
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("header, row", [
        ("task,modality,n_reference_sets", "nc-c,dp,1"),
        ("task,modality,n_reference_sets,sensitivity,specificity,auc,extra",
         "nc-c,dp,1,0.5,0.5,0.5,x"),
        ("task,modality,n_reference_sets,auc,specificity,sensitivity", "nc-c,dp,1,0.5,0.5,0.5"),
    ], ids=["short", "long", "reordered"])
    def test_a_header_other_than_the_summary_header_is_a_data_error(
        self, tmp_path, capsys, header, row
    ):
        summary = tmp_path / "s.csv"
        summary.write_text(f"{header}\n{row}\n")
        assert cli.main(["report", "--inputs", str(summary)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "is not a cv summary file" in err[0]

    @pytest.mark.parametrize("row", ["nc-c,dp", "nc-c,dp,1,0.5,0.5,0.5,extra"],
                             ids=["short", "long"])
    def test_a_row_of_another_width_is_a_data_error(self, tmp_path, capsys, row):
        summary = tmp_path / "s.csv"
        summary.write_text(
            "task,modality,n_reference_sets,sensitivity,specificity,auc\n"
            f"nc-c,fused,1,0.9,0.8,0.85\n{row}\n"
        )
        assert cli.main(["report", "--inputs", str(summary)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "line 3 has" in err[0]

    def test_an_oversized_cell_is_a_data_error(self, tmp_path, capsys):
        summary = tmp_path / "s.csv"
        summary.write_text(
            "task,modality,n_reference_sets,sensitivity,specificity,auc\n"
            f"nc-c,dp,1,{'9' * 200_000},0.5,0.5\n"
        )
        assert cli.main(["report", "--inputs", str(summary)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "line 2 is not CSV" in err[0]

    @corruption_settings
    @given(data=st.data())
    def test_a_corrupted_summary_file_exits_with_one_line(self, cv_fused_dir, tmp_path, capsys,
                                                          data):
        path = tmp_path / "s.csv"
        path.write_bytes(data.draw(corrupted((cv_fused_dir / "summary.csv").read_bytes())))
        assert cli.main(["report", "--inputs", str(path)]) in (0, 2, 3)
        assert len(capsys.readouterr().err.strip().splitlines()) <= 1
