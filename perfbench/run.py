"""Frame-pipeline benchmark for lumaforge.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's seeded inputs once, outside timing, then runs the
program's CLI (`lumaforge.cli.main`) over them in fresh child processes, one
after another, until S seconds have passed; each child run writes a fresh
output tree. Each child run also measures its set-up: from the spawn of its
interpreter to its first request for frames. Afterwards every output tree is
digested and the first one is checked against the benchmark's own
recomputation (checks.py); a jobs>1 workload is also run once at jobs 1 and
must give the same tree.

--trace 0 reports the end-to-end metrics from untraced runs. --trace 1
alternates untraced and traced runs and reports per-layer metrics from the
traced ones (tracing.py), plus the tracing overhead: traced against untraced
frames per second. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; attempted and failed count
input frames. Exit code 0 when every check passed, 1 when one failed, 2 when
the program's source is not next to the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, generate_inputs, program_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

CHILD_TIMEOUT_S = 150.0

# Metric names and units, as the benchmark declares them to its users.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


@dataclass
class ChildRun:
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: float | None
    run_dir: Path


def monotonic_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def run_child(run_dir: Path, cli_argv: list[str], trace: bool = False) -> ChildRun:
    """Run child.py in `run_dir` (created fresh) and wait for it to end."""
    run_dir.mkdir()
    opts = ["--result", "result.json"]
    if trace:
        opts += ["--trace", "spans.jsonl", "--run-id", run_dir.name]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    os.sync()  # write back the previous run's files now, not while this one is timed
    with open(run_dir / "child.log", "wb") as log:
        spawned = monotonic_ns()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *opts, "--", *cli_argv],
                                cwd=run_dir, env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    try:
        result = json.loads((run_dir / "result.json").read_text())
    except (OSError, ValueError):
        return ChildRun(proc.returncode or 1, 0.0, 0.0, 0.0, None, run_dir)
    end = result["setup_end_ns"]
    return ChildRun(
        exit_code=proc.returncode or result["exit_code"],
        wall_s=result["wall_s"],
        cpu_s=result["cpu_s"],
        peak_rss_mb=result["peak_rss_kib"] / 1024.0,
        setup_s=None if end is None else (end - spawned) / 1e9,
        run_dir=run_dir,
    )


def child_log(run: ChildRun) -> str:
    return (run.run_dir / "child.log").read_text(errors="replace").strip()[-2000:]


def measure(args, work: Path) -> int:
    import checks
    import tracing

    workload = WORKLOADS[args.workload]
    seed = program_seed(args.seed)
    generate_inputs(workload, args.seed, work / "inputs")

    def argv(jobs=None):
        # paths relative to each run's own directory, so that every run's
        # config, and so its report digest, is the same
        return workload.cli_args(seed, "../inputs", "out", jobs)

    untraced: list[ChildRun] = []
    traced: list[tuple[ChildRun, dict]] = []
    digests: set[str] = set()
    failed_runs = 0
    kept: Path | None = None
    deadline = monotonic_ns() + args.seconds * 1e9
    k = 0
    while k < (2 if args.trace else 1) or monotonic_ns() < deadline:
        is_traced = bool(args.trace) and k % 2 == 1
        run = run_child(work / f"run{k}", argv(), trace=is_traced)
        k += 1
        if run.exit_code != 0:
            failed_runs += 1
            print(f"{run.run_dir.name}: exit {run.exit_code}\n{child_log(run)}", file=sys.stderr)
            continue
        print(f"{run.run_dir.name}{' traced' if is_traced else ''}: {workload.frames} frames in "
              f"{run.wall_s:.3f} s wall, {run.cpu_s:.3f} s CPU, {run.peak_rss_mb:.1f} MB peak RSS, "
              f"set-up {run.setup_s:.3f} s")
        digests.add(checks.tree_digest(run.run_dir / "out"))
        if is_traced:
            spans = tracing.load_spans(run.run_dir / "spans.jsonl")
            traced.append((run, tracing.layer_metrics(spans, workload.frames)))
        else:
            untraced.append(run)
        if kept is None:
            kept = run.run_dir
        else:
            shutil.rmtree(run.run_dir)
    attempted = k * workload.frames
    failed = failed_runs * workload.frames

    problems: dict[str, list[str]] = {}
    if kept is None:
        problems["runs"] = ["no run completed"]
    else:
        tree = checks.Tree(workload, seed, work / "inputs", kept / "out")
        problems = checks.run_checks(tree)
        determinism = []
        if len(digests) > 1:
            determinism.append(f"{len(digests)} distinct output trees from runs of one config")
        if workload.jobs > 1:
            single = run_child(work / "jobs1", argv(jobs=1))
            if single.exit_code != 0:
                determinism.append(f"jobs 1 pass: exit {single.exit_code}")
            elif checks.tree_digest(single.run_dir / "out") not in digests:
                determinism.append(f"jobs 1 and jobs {workload.jobs} trees differ")
        problems["determinism"] = determinism
    correct = not any(problems.values())

    for name, found in problems.items():
        print(f"check {name}: {'ok' if not found else 'FAILED'}")
        for problem in found:
            print(f"  {problem}")

    metrics: dict[str, float] = {}
    if untraced and not args.trace:
        metrics["frames_per_s"] = statistics.median(workload.frames / r.wall_s for r in untraced)
        metrics["cpu_ms_per_frame"] = statistics.median(1e3 * r.cpu_s / workload.frames for r in untraced)
        metrics["peak_rss_mb"] = statistics.median(r.peak_rss_mb for r in untraced)
        metrics["setup_s"] = statistics.median(r.setup_s for r in untraced)
    if traced and untraced and args.trace:
        for name in traced[0][1]:
            metrics[name] = statistics.median(layers[name] for _, layers in traced)
        fps_traced = statistics.median(workload.frames / r.wall_s for r, _ in traced)
        fps_untraced = statistics.median(workload.frames / r.wall_s for r in untraced)
        metrics["trace.overhead_pct"] = 100.0 * (fps_untraced / fps_traced - 1.0)

    print(f"workload {workload.name}: seed {args.seed}, {workload.frames} frames per run, "
          f"{len(untraced)} untraced and {len(traced)} traced runs, "
          f"{attempted} frames attempted, {failed} failed")
    declared = [m["name"] for m in SPEC["per_layer" if args.trace else "end_to_end"]]
    if metrics and sorted(metrics) != sorted(declared):
        raise RuntimeError(f"measured metrics {sorted(metrics)} differ from BENCHMARK.json {declared}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {UNITS[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }))
    return 0 if correct and metrics else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (SRC / "lumaforge" / "__init__.py").is_file():
        print(f"error: lumaforge source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the checks draw noise through the program's public API

    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another benchmark process still has its directory there


if __name__ == "__main__":
    sys.exit(main())
