"""Smoke tests: the example scripts in scripts/ run against the library in src/."""

import os
import subprocess
import sys
from pathlib import Path

from lumaforge import ColorBuffer, Dimensions, read_image

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_make_demo_sequence(tmp_path):
    out = tmp_path / "frames"
    result = run_script("make_demo_sequence.py", out, "--frames", 2)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [f"wrote 2 frames (144x176) to {out}"]
    assert sorted(p.name for p in out.iterdir()) == ["demo_000.ppm", "demo_001.ppm"]
    frame = read_image(out / "demo_001.ppm")
    assert isinstance(frame, ColorBuffer) and frame.dims == Dimensions(144, 176)


def test_noise_filter_sweep():
    result = run_script("noise_filter_sweep.py", "--densities", 0.05, "--trials", 1)
    assert result.returncode == 0, result.stderr
    # seeded texture and counter-based noise: the figures are fixed
    assert result.stdout.splitlines() == [
        "     d   noisy dB  median dB  hybrid dB",
        " 0.050      18.51      27.74      29.59",
    ]
