"""Golden byte corpus: every CLI output tree of a fixed matrix, by digest.

Each case runs one or more `lumaforge` commands over six seeded 48x64 frames,
stored once as PPM and once as PGM sources, and hashes the case's output
directory (every relative file name and the file's bytes). The matrix covers
`run` for no noise plus each noise kind x no filter, median 3x3, median 5x5
and hybrid median 3x3 x mode gray, color and both, on both source kinds; the
four stage commands on both source kinds; a real resize; jobs 2; the
`metrics` JSON; and the `report` tables.

Paths are relative to the working directory, because `report.json` carries a
digest of the config and the config holds the input and output paths.

A case fails when any output byte of that case changes. When a change is
meant to alter output bytes, regenerate the corpus and record the reason in
CHANGES.md:

    python tests/test_golden.py --regenerate
"""

import hashlib
import json
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pytest
from conftest import block_texture, color_block_texture

from lumaforge import write_image
from lumaforge.cli import main

DIGESTS_PATH = Path(__file__).with_name("golden_digests.json")

N_FRAMES = 6
ROWS, COLS = 48, 64
SEED = "11"

NOISES = {
    "none": [],
    "salt_pepper": ["--noise-kind", "salt_pepper", "--noise-d", "0.05"],
    "gaussian": ["--noise-kind", "gaussian", "--noise-d", "0.01"],
    "poisson": ["--noise-kind", "poisson"],
    "speckle": ["--noise-kind", "speckle", "--noise-d", "0.04"],
}
FILTERS = {
    "none": [],
    "median3": ["--filter-kind", "median", "--window", "3x3"],
    "median5": ["--filter-kind", "median", "--window", "5x5"],
    "hybrid3": ["--filter-kind", "hybrid_median", "--window", "3x3"],
}
MODES = ("gray", "color", "both")
SOURCES = ("ppm", "pgm")
STAGES = {
    "luma": [],
    "noise": NOISES["salt_pepper"],
    "filter": FILTERS["hybrid3"],
    "enhance": [],
}


def make_sources(root: Path) -> None:
    """Write the six source frames as src_ppm/seq_NNN.ppm and src_pgm/seq_NNN.pgm."""
    for kind in SOURCES:
        (root / f"src_{kind}").mkdir(parents=True, exist_ok=True)
    for i in range(N_FRAMES):
        write_image(color_block_texture(i, ROWS, COLS), root / "src_ppm" / f"seq_{i:03d}.ppm")
        write_image(block_texture(100 + i, ROWS, COLS), root / "src_pgm" / f"seq_{i:03d}.pgm")


def _io(source: str, out: str) -> list[str]:
    return ["--input-dir", f"src_{source}", "--output-dir", out, "--seed", SEED]


def _cases() -> dict[str, list[list[str]]]:
    """Case name -> the argv of each command it runs, in order, under out/<case>."""
    cases = {}
    for source in SOURCES:
        for mode in MODES:
            for noise, noise_args in NOISES.items():
                for filt, filter_args in FILTERS.items():
                    name = f"run-{source}-{mode}-{noise}-{filt}"
                    cases[name] = [["run", *_io(source, f"out/{name}"), "--resize", "none",
                                    "--mode", mode, *noise_args, *filter_args]]
        for stage, stage_args in STAGES.items():
            name = f"stage-{source}-{stage}"
            cases[name] = [[stage, *_io(source, f"out/{name}"), "--resize", "none", *stage_args]]
        name = f"metrics-{source}"
        cases[name] = [
            ["noise", *_io(source, f"out/{name}/noisy"), "--resize", "none", *NOISES["gaussian"]],
            ["metrics", "--input-dir", f"out/{name}/noisy", "--reference-dir", f"src_{source}",
             "--output", f"out/{name}/metrics.json"],
        ]

    cases["run-ppm-both-resize"] = [["run", *_io("ppm", "out/run-ppm-both-resize"),
                                     "--resize", "36x50", "--mode", "both",
                                     *NOISES["gaussian"], *FILTERS["median3"]]]
    cases["stage-ppm-enhance-resize"] = [["enhance", *_io("ppm", "out/stage-ppm-enhance-resize"),
                                          "--resize", "36x50"]]
    cases["run-ppm-both-jobs2"] = [["run", *_io("ppm", "out/run-ppm-both-jobs2"), "--resize", "none",
                                    "--mode", "both", "--jobs", "2",
                                    *NOISES["speckle"], *FILTERS["hybrid3"]]]
    cases["run-ppm-both-noisyref-sigma"] = [
        ["run", *_io("ppm", "out/run-ppm-both-noisyref-sigma"), "--resize", "none",
         "--mode", "both", "--psnr-reference", "noisy", "--sigma", "0.002",
         "--luma-weights", "0.25,0.5,0.25", *NOISES["salt_pepper"], *FILTERS["median3"]]]
    cases["report"] = [
        ["run", *_io("ppm", "out/report/a"), "--resize", "none", "--mode", "both",
         "--sample-name", "clip_a", "--size-label", "qcif", *NOISES["gaussian"]],
        ["run", *_io("pgm", "out/report/b"), "--resize", "none", "--mode", "both",
         *NOISES["salt_pepper"], *FILTERS["median3"]],
        ["report", "out/report/a/report.json", "out/report/b/report.json",
         "--output-dir", "out/report/tables"],
    ]
    return cases


CASES = _cases()


def tree_digest(directory: Path) -> str:
    """sha256 over every file's relative name and bytes, in sorted name order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        digest.update(path.relative_to(directory).as_posix().encode("utf-8") + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def run_case(name: str) -> str:
    """Run one case's commands in the current directory; return its tree digest."""
    for argv in CASES[name]:
        code = main(argv)
        if code != 0:
            raise AssertionError(f"{name}: {' '.join(argv)} exited {code}")
    return tree_digest(Path("out") / name)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    make_sources(root)
    return root


@pytest.fixture(scope="module")
def golden():
    return json.loads(DIGESTS_PATH.read_text(encoding="ascii"))


def test_corpus_names_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_tree_matches_golden(name, workdir, golden, monkeypatch, capsys):
    monkeypatch.chdir(workdir)
    assert run_case(name) == golden[name]


def regenerate() -> None:
    import contextlib
    import io
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        previous = os.getcwd()
        os.chdir(tmp)
        try:
            make_sources(Path(tmp))
            with contextlib.redirect_stdout(io.StringIO()):
                digests = {name: run_case(name) for name in sorted(CASES)}
        finally:
            os.chdir(previous)
    DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="ascii")
    print(f"wrote {len(digests)} digests to {DIGESTS_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python tests/test_golden.py --regenerate")
    regenerate()
