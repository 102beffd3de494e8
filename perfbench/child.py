"""One lumaforge CLI run in a fresh interpreter, as the benchmark's child.

    python3 child.py --result R.json [--trace T.jsonl --run-id ID] -- ARGV...

Calls `lumaforge.cli.main(ARGV)` and writes R.json with its exit code, the
wall and CPU (user + sys, all threads) seconds of that call, this process's
peak resident memory, and the CLOCK_MONOTONIC time at which the run first
asked to ingest frames: the end of set-up, which the parent measures from the
moment it spawned this process. With --trace, spans around every layer call
are written to T.jsonl.

The peak is VmHWM, the high-water mark of this process's own address space.
The ru_maxrss that wait4 reports for a child is not used: exec folds the
spawning parent's high-water mark into it, so it read up to 9 MB high once
the parent had loaded a trace.
"""

import json
import resource
import sys
import time


def _peak_rss_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv: list[str]) -> int:
    split = argv.index("--")
    opts, cli_argv = argv[:split], argv[split + 1:]
    result_path = opts[opts.index("--result") + 1]
    trace_path = opts[opts.index("--trace") + 1] if "--trace" in opts else None

    from lumaforge import cli, pipeline

    result = {"setup_end_ns": None}
    ingest_frames = pipeline.ingest_frames

    def marked_ingest(*args, **kwargs):
        if result["setup_end_ns"] is None:
            result["setup_end_ns"] = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        return ingest_frames(*args, **kwargs)

    pipeline.ingest_frames = marked_ingest

    tracer = None
    if trace_path:
        from tracing import Tracer

        tracer = Tracer(opts[opts.index("--run-id") + 1])
        tracer.install()

    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    code = cli.main(cli_argv)
    wall = time.perf_counter() - start
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    result["peak_rss_kib"] = _peak_rss_kib()

    if tracer is not None:
        tracer.dump(trace_path)
    result.update(
        exit_code=code,
        wall_s=wall,
        cpu_s=(usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime),
    )
    with open(result_path, "w", encoding="ascii") as out:
        json.dump(result, out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
