"""Self-test of the output checks: each must reject a corrupted tree.

    python3 perfbench/selftest.py

For every workload, at most 12 frames of its seeded inputs go through one
program run. The checks must pass on that tree. Then each corruption below is
applied to a copy of it, and the check named beside it must reject the copy;
the copy's tree digest must also differ from the good tree's, which is what
the determinism check compares. The noise check is shown a wrong model
instead of a corrupted tree. Prints one line per corruption and the checks
that rejected it; exits 1 if any expectation fails.
"""

from __future__ import annotations

import json
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

import checks
import run
from workloads import WORKLOADS, generate_inputs, program_seed

SEED = 20260417
MAX_FRAMES = 12


def flip_frame_byte(tree: checks.Tree) -> None:
    path = tree.out_dir / tree.names(tree.sample_indices()[-1], tree.paths[0])[0]
    data = bytearray(path.read_bytes())
    data[len(data) - 1000] ^= 0x01
    path.write_bytes(bytes(data))


def edit_csv_row(tree: checks.Tree) -> None:
    """Move one sample between two levels of a post CSV, rows rewritten consistently."""
    path = tree.out_dir / tree.names(0, tree.paths[0])[2]
    counts = checks.read_csv(path)
    src = int(np.flatnonzero(counts)[-1])
    counts[src] -= 1
    counts[src - 1] += 1
    total = int(counts.sum())
    rows = [f"{level},{c},{c / total:.9e}" for level, c in enumerate(counts.tolist())]
    path.write_text("\n".join(["level,count,probability", *rows]) + "\n", encoding="ascii")


def remove_frame(tree: checks.Tree) -> None:
    (tree.out_dir / tree.names(tree.workload.frames - 1, tree.paths[-1])[0]).unlink()


def nudge_psnr(tree: checks.Tree) -> None:
    path = tree.out_dir / "report.json"
    report = json.loads(path.read_text())
    key = f"{tree.paths[0]}_psnr_db"
    report[key] += 1e-6
    path.write_text(json.dumps(report, indent=2) + "\n")


CORRUPTIONS = [
    # (name, corrupt, check that must reject it, applies to stage runs)
    ("flipped byte in a frame", flip_frame_byte, "equalization", True),
    ("edited CSV row", edit_csv_row, "equalization", True),
    ("missing frame", remove_frame, "tree", True),
    ("nudged report PSNR", nudge_psnr, "psnr", False),
]


def wrong_noise(tree: checks.Tree):
    """A model that differs from the workload's: twice the level, or for
    Poisson a rate 10% high."""
    if tree.workload.noise == "poisson":
        def draw(t, index, clean, slot):
            scaled = np.minimum(np.floor(clean * 1.1 + 0.5), 255).astype(np.uint8)
            return checks.noisy_plane(t, index, scaled, slot)
    else:
        doubled = replace(tree, workload=replace(tree.workload, noise_d=2 * tree.workload.noise_d))

        def draw(t, index, clean, slot):
            return checks.noisy_plane(doubled, index, clean, slot)
    return draw


def rejecting(tree: checks.Tree) -> list[str]:
    return [name for name, problems in checks.run_checks(tree).items() if problems]


def test_workload(workload, work: Path) -> bool:
    workload = replace(workload, frames=min(workload.frames, MAX_FRAMES))
    seed = program_seed(SEED)
    generate_inputs(workload, SEED, work / "inputs")
    child = run.run_child(work / "good", workload.cli_args(seed, "../inputs", "out"))
    if child.exit_code != 0:
        print(f"{workload.name}: program run failed:\n{run.child_log(child)}")
        return False
    good = checks.Tree(workload, seed, work / "inputs", work / "good" / "out")
    good_digest = checks.tree_digest(good.out_dir)
    ok = True
    failing = rejecting(good)
    print(f"{workload.name}: good tree rejected by {failing or 'no check'}")
    ok &= not failing

    for name, corrupt, expected, on_stage in CORRUPTIONS:
        if workload.command != "run" and not on_stage:
            continue
        copy = work / name.replace(" ", "_")
        shutil.copytree(good.out_dir, copy)
        tree = replace(good, out_dir=copy)
        corrupt(tree)
        found = rejecting(tree)
        digest_differs = checks.tree_digest(copy) != good_digest
        passed = expected in found and digest_differs
        ok &= passed
        print(f"  {name}: rejected by {found or 'no check'}"
              f"{', digest differs' if digest_differs else ', digest UNCHANGED'}"
              f" -> {'ok' if passed else f'FAILED, expected {expected}'}")

    if workload.noise:
        found = checks.check_noise(good, draw=wrong_noise(good))
        ok &= bool(found)
        print(f"  wrong noise model: {found[0] if found else 'not rejected'} -> {'ok' if found else 'FAILED'}")
    return ok


def main() -> int:
    if not (run.SRC / "lumaforge" / "__init__.py").is_file():
        print(f"error: lumaforge source not found under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    work_root = run.WORK_ROOT / "selftest"
    shutil.rmtree(work_root, ignore_errors=True)
    ok = True
    try:
        for workload in WORKLOADS.values():
            work = work_root / workload.name
            work.mkdir(parents=True)
            ok &= test_workload(workload, work)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            run.WORK_ROOT.rmdir()
        except OSError:
            pass
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
