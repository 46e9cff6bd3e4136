"""Command-line behavior: exit-code mapping, subcommand round trips on a
small synthetic cohort, config-file merging, and byte-level determinism of
seeded runs."""
import csv
import json

import numpy as np
import pytest

from ramanfuse import bovw, cli, dataio, evaluation, experiments, spectral, svm
from ramanfuse.errors import NumericalError

COHORT_FLAGS = [
    "--n-patients", "12", "--n-samples", "70", "--image-size", "96",
    "--cube-size", "24", "--n-bands", "32", "--seed", "7",
]
PIPE_FLAGS = ["--dp-size", "96", "--rci-size", "64", "--k-dp", "12", "--k-rci", "6"]


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
        "command", ["build-dict", "encode", "train", "grid", "pls-select"]
    )
    def test_missing_out_fails_before_any_cube_is_loaded(
        self, manifest, no_cubes, capsys, command
    ):
        extra = ["--modality", "dp"] if command == "build-dict" else []
        assert cli.main([command, "--manifest", manifest, *extra]) == 1
        assert "--out" in capsys.readouterr().err

    def test_numerical_failure_maps_to_exit_3(self, monkeypatch, tmp_path):
        def boom(args, config):
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
        small = dataio.CohortManifest(loaded.samples[:3], loaded.seed, loaded.root)
        small_path = tmp_path / "small.txt"
        dataio.save_manifest(small, small_path)
        out = tmp_path / "prep"
        assert cli.main([
            "preprocess", "--manifest", str(small_path), "--out", str(out),
            *PIPE_FLAGS,
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
        rewritten = dataio.load_manifest(out / "manifest.txt")
        assert len(rewritten.samples) == 70
        record = rewritten.samples[0]
        assert record.median_spectrum_path is not None
        spectrum = spectral.load_spectrum(record.median_spectrum_path)
        assert len(spectrum.intensities) == 32


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
            "--out", str(out), *PIPE_FLAGS,
        ]) == 0
        rows = read_rows(out)
        assert rows[0] == ["sample_id", "patient_id", "label", "y"] + [
            f"f{i}" for i in range(18)
        ]
        assert len(rows) == 71
        assert {row[3] for row in rows[1:]} == {"0", "1"}

    def test_cli_dictionaries_and_rows_match_partition_features(
        self, manifest, dictionaries, tmp_path
    ):
        dp, rci = dictionaries
        out = tmp_path / "fused.csv"
        assert cli.main([
            "encode", "--manifest", manifest, "--task", "nc-c",
            "--modality", "fused", "--dp-dict", str(dp), "--rci-dict", str(rci),
            "--out", str(out), *PIPE_FLAGS,
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

    def test_median_route_saves_a_pls_model(self, manifest, tmp_path):
        out = tmp_path / "pls.json"
        assert cli.main([
            "train", "--manifest", manifest, "--task", "nc-c",
            "--modality", "median-spectrum", "--out", str(out),
        ]) == 0
        model = dataio.load_model(out)
        assert model.n_lv >= 1
        assert model.beta.shape == (32,)


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
        assert len(err) == 1 and "task='bogus'" in err[0] and "--task" in err[0]

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

    def test_keys_of_other_subcommands_are_ignored(self, tmp_path):
        cfg = self.write(tmp_path, {"task": "bogus", "modality": 7})
        assert cli.main([
            "synth", "--config", cfg, "--out", str(tmp_path / "c"), "--n-patients", "2",
            "--n-samples", "4", "--image-size", "32", "--cube-size", "8",
        ]) == 0


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
                "--kernels", "linear,rbf", *PIPE_FLAGS,
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
