"""Byte digest of the command line's outputs on fixed synthetic cohorts.

Generates two cohorts in a temporary directory and runs a fixed list of
commands on each, in-process through `cli.main` (working directory = the
temporary directory, all paths relative):

* `synth --n-patients 24 --n-samples 120 --seed 0` (64 bands) through every
  command, writing under `out/`; `cv` runs once more over ten reference
  sets for `dp` and for `median-spectrum`, `cv`, `grid` and `pls-select`
  run once more with values from a `--config` file (JSON lists included),
  and `ttest` and `report` read the `cv` reports;
* `synth --n-patients 20 --n-samples 40 --n-bands 512 --image-size 32
  --seed 0` through the median-spectrum route, writing under `out512/`.
  Its 512 bands admit the fluorescence chains (301-point window) that 64
  bands skip.

It prints:

* `sha256  <out dir>/<path>` for every file the commands wrote;
* `sha256  <command>.stdout` per command, over its exit code and stdout;
* `sha256  digest` over all lines above.

Two source trees that print the same digest wrote the same bytes and
printed the same text. Run from the root of a checkout:

    python scripts/cli_digest.py

The package is imported from the `src/` directory next to this script, so
a copy of the script placed in another checkout digests that checkout.
Takes a few minutes on one core; the grid searches the full C/gamma axes.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ramanfuse import cli  # noqa: E402

DICTS = {"dp": ["--dp-dict", "out/dict_dp.json"], "rci": ["--rci-dict", "out/dict_rci.json"]}

COMMANDS = [
    ("preprocess", ["preprocess", "--out", "out/preprocess"]),
    ("median-spectrum", ["median-spectrum", "--out", "out/median-spectrum"]),
    *[(f"build-dict-{m}", ["build-dict", "--modality", m, "--out", f"out/dict_{m}.json"])
      for m in ("dp", "rci")],
    ("encode-dp", ["encode", "--modality", "dp", *DICTS["dp"], "--out", "out/encode_dp.csv"]),
    ("encode-rci", ["encode", "--modality", "rci", *DICTS["rci"], "--out", "out/encode_rci.csv"]),
    ("encode-fused", ["encode", "--modality", "fused", *DICTS["dp"], *DICTS["rci"],
                      "--out", "out/encode_fused.csv"]),
    *[(f"train-{m}", ["train", "--modality", m, "--out", f"out/train_{m}.json"])
      for m in ("dp", "rci", "fused", "median-spectrum")],
    *[(f"cv-{m}", ["cv", "--modality", m, "--out", f"out/cv_{m}"])
      for m in ("dp", "rci", "fused", "median-spectrum")],
    ("cv-dp-10sets", ["cv", "--modality", "dp", "--n-reference-sets", "10", "--k-dp", "40",
                      "--out", "out/cv_dp_10sets"]),
    ("cv-median-spectrum-10sets", ["cv", "--modality", "median-spectrum",
                                   "--n-reference-sets", "10",
                                   "--out", "out/cv_median-spectrum_10sets"]),
    ("grid", ["grid", "--dp-sizes", "50,100", "--rci-sizes", "5,10", "--out", "out/grid.csv"]),
    ("pls-select", ["pls-select", "--n-repeats", "20", "--out", "out/pls.csv"]),
    ("cv-config", ["cv", "--config", "config/cv.json", "--out", "out/cv_config"]),
    ("grid-config", ["grid", "--config", "config/grid.json", "--out", "out/grid_config.csv"]),
    ("pls-select-config", ["pls-select", "--config", "config/pls.json",
                           "--out", "out/pls_config.csv"]),
    ("ttest", ["ttest", "--a", "out/cv_fused/metrics_set0.csv",
               "--b", "out/cv_median-spectrum/metrics_set0.csv", "--out", "out/ttest.csv"]),
    ("report", ["report", "--inputs", ",".join(f"out/cv_{m}/summary.csv" for m in (
        "dp", "rci", "fused", "median-spectrum", "config")), "--out", "out/report.csv"]),
]

# Config files written under config/ before the commands run.
CONFIGS = {
    "cv.json": {"task": "g3-g4", "modality": "fused", "k-dp": 40, "k-rci": 8, "folds": 4,
                "reference-fraction": 0.25, "kernel": "linear", "c": 2.5, "seed": 5},
    "grid.json": {"dp-sizes": [20, 40], "rci-sizes": [6], "c-grid": [0.5, 8],
                  "gamma-grid": [1, 4.0], "kernels": ["linear", "rbf"], "seed": 2},
    "pls.json": {"task": "g3-g4", "pretreatments": ["none", "snv", "sg:9:2:1+msc"],
                 "n-repeats": 12, "lv-max": 6, "seed": 3},
}

# Commands that read no manifest.
NO_MANIFEST = {"ttest", "report"}

SPECTRAL_COMMANDS = [
    ("median-spectrum-512", ["median-spectrum", "--out", "out512/median-spectrum"]),
    ("pls-select-512", ["pls-select", "--n-repeats", "20", "--out", "out512/pls.csv"]),
    ("cv-median-spectrum-512", ["cv", "--modality", "median-spectrum",
                                "--pretreatment", "fluor+msc", "--out", "out512/cv"]),
    ("train-median-spectrum-512", ["train", "--modality", "median-spectrum",
                                   "--pretreatment", "fluor+sg:15:3:1",
                                   "--out", "out512/train.json"]),
]

# (cohort directory, synth flags, commands, output directory)
COHORTS = [
    ("cohort", ["--n-patients", "24", "--n-samples", "120", "--seed", "0"], COMMANDS, "out"),
    ("cohort512", ["--n-patients", "20", "--n-samples", "40", "--n-bands", "512",
                   "--image-size", "32", "--seed", "0"], SPECTRAL_COMMANDS, "out512"),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv: list[str]) -> tuple[int, str]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    return code, stdout.getvalue()


def digest_lines() -> list[str]:
    lines = []
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        Path("config").mkdir()
        for name, doc in CONFIGS.items():
            Path("config", name).write_text(json.dumps(doc))
        try:
            for cohort, synth_flags, commands, out in COHORTS:
                code, text = _run(["synth", "--out", cohort, *synth_flags])
                if code != 0:
                    raise SystemExit(f"synth exited with code {code}")
                stdout_lines = []
                for name, argv in commands:
                    if argv[0] not in NO_MANIFEST:
                        argv = [*argv, "--manifest", f"{cohort}/manifest.txt"]
                    code, text = _run(argv)
                    stdout = f"exit {code}\n{text}".encode()
                    stdout_lines.append(f"{_sha(stdout)}  {name}.stdout")
                files = sorted(p for p in Path(out).rglob("*") if p.is_file())
                lines += [f"{_sha(p.read_bytes())}  {p.as_posix()}" for p in files]
                lines += stdout_lines
        finally:
            os.chdir(here)
    return lines


def main() -> int:
    lines = digest_lines()
    for line in lines:
        print(line)
    total = _sha("\n".join(lines).encode())
    print(f"{total}  digest")
    return 0


if __name__ == "__main__":
    sys.exit(main())
