"""The benchmark's own self-test runs against the library in src/.

perfbench/checks.py imports library names (NoiseSpec, PixelBuffer, apply_noise,
rng.derive_seed) to check a run's output, so a change in src/ can break the
benchmark's checks without breaking any library test.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench_work"


def test_selftest_passes_and_cleans_up():
    existed = WORK_ROOT.exists()  # a benchmark run of its own may hold it
    result = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "self-test passed" in result.stdout.splitlines()
    assert not (WORK_ROOT / "selftest").exists()
    assert existed or not WORK_ROOT.exists()
