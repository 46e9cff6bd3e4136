"""Byte digest of the command line's outputs on a fixed synthetic cohort.

Generates `synth --n-patients 24 --n-samples 120 --seed 0` in a temporary
directory, runs a fixed list of commands in-process through `cli.main`
(working directory = the temporary directory, all paths relative), and
prints:

* `sha256  out/<path>` for every file the commands wrote;
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
import os
import sys
import tempfile
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ramanfuse import cli  # noqa: E402

COHORT = ["--n-patients", "24", "--n-samples", "120", "--seed", "0"]
MANIFEST = ["--manifest", "cohort/manifest.txt"]
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
    ("grid", ["grid", "--dp-sizes", "50,100", "--rci-sizes", "5,10", "--out", "out/grid.csv"]),
    ("pls-select", ["pls-select", "--n-repeats", "20", "--out", "out/pls.csv"]),
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
        try:
            code, text = _run(["synth", "--out", "cohort", *COHORT])
            if code != 0:
                raise SystemExit(f"synth exited with code {code}")
            for name, argv in COMMANDS:
                code, text = _run([*argv, *MANIFEST])
                stdout = f"exit {code}\n{text}".encode()
                lines.append(f"{_sha(stdout)}  {name}.stdout")
            files = sorted(p for p in Path("out").rglob("*") if p.is_file())
            lines[:0] = [f"{_sha(p.read_bytes())}  {p.as_posix()}" for p in files]
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
