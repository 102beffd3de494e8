"""Spans around the calls into each lumaforge layer, and their self times.

The traced child process installs a `Tracer` before it calls the CLI. The
tracer replaces each public function at the name its caller looks it up by
(pipeline.py and noise_models.py import functions by name, so wrapping the
defining module alone would miss those calls) with a wrapper that records one
span: name, start, end, parent and a work count. Parents come from a
per-thread stack; a span opened on a worker thread with an empty stack takes
the open run span as its parent. Spans stay in memory and are written as JSON
lines when the run ends. The program's source is not touched.

The parent process reads the spans back and turns them into per-layer self
times: a span's duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict

RUN_SPAN = "pipeline.run"

# (module, attribute, span name): every lookup site of every public function
# the frame loops call, plus the calls inside noise_models and rng.
TARGETS = [
    ("lumaforge.cli", "run_pipeline", RUN_SPAN),
    ("lumaforge.cli", "run_stage", RUN_SPAN),
    ("lumaforge.pipeline", "ingest_frames", "pipeline.ingest_frames"),
    ("lumaforge.pipeline", "read_image", "netpbm.read_image"),
    ("lumaforge.pipeline", "write_image", "netpbm.write_image"),
    ("lumaforge.pipeline", "resize_nearest", "pixel_core.resize_nearest"),
    ("lumaforge.pipeline", "rgb_to_luma", "pixel_core.rgb_to_luma"),
    ("lumaforge.pipeline", "apply_noise", "noise_models.apply_noise"),
    ("lumaforge.noise_models", "site_uniforms", "rng.site_uniforms"),
    ("lumaforge.noise_models", "site_uniforms_at", "rng.site_uniforms_at"),
    ("lumaforge.noise_models", "site_normals", "rng.site_normals"),
    ("lumaforge.rng", "site_uniforms", "rng.site_uniforms"),
    ("lumaforge.rng", "site_uniforms_at", "rng.site_uniforms_at"),
    ("lumaforge.pipeline", "median_filter", "smoothing_filters.median_filter"),
    ("lumaforge.pipeline", "hybrid_median_filter", "smoothing_filters.hybrid_median_filter"),
    ("lumaforge.pipeline", "enhance_with_diagnostics", "luma_equalize.enhance_with_diagnostics"),
    ("lumaforge.pipeline", "enhance_color", "luma_equalize.enhance_color"),
    ("lumaforge.pipeline", "histogram", "luma_equalize.histogram"),
    ("lumaforge.pipeline", "color_histogram", "luma_equalize.color_histogram"),
    ("lumaforge.pipeline", "export_histogram", "quality_metrics.export_histogram"),
    ("lumaforge.pipeline", "squared_error_total", "quality_metrics.squared_error_total"),
]

# Buffer constructions run validation on every call; the class is shared by
# every caller, so its __init__ is wrapped once.
CLASS_TARGETS = [
    ("lumaforge.pixel_core", "PixelBuffer", "pixel_core.PixelBuffer"),
    ("lumaforge.pixel_core", "ColorBuffer", "pixel_core.ColorBuffer"),
]


def _work_count(name: str, args, kwargs) -> int:
    """Units of work a call does: uniforms drawn, or pixels noised."""
    if name == "rng.site_uniforms_at":
        sites = args[1] if len(args) > 1 else kwargs["sites"]
        return int(getattr(sites, "size", 1))
    if name == "noise_models.apply_noise":
        frame = args[0] if args else kwargs["frame"]
        return int(frame.data.size)
    return 1


class Tracer:
    """Records spans from any thread; one instance per traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._open_run = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else self._open_run
            if name == RUN_SPAN:
                self._open_run = span_id
            stack.append(span_id)
            count = _work_count(name, args, kwargs)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if name == RUN_SPAN:
                    self._open_run = None
                self.spans.append((span_id, parent, name, start, end, threading.get_ident(), count))

        return traced

    def install(self) -> None:
        """Wrap every target that exists; a missing one leaves its layer at 0."""
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                setattr(module, attr, self.wrap(getattr(module, attr), name))
        for module_name, attr, name in CLASS_TARGETS:
            cls = getattr(importlib.import_module(module_name), attr, None)
            if cls is not None:
                cls.__init__ = self.wrap(cls.__init__, name)

    def dump(self, path) -> None:
        with open(path, "w", encoding="ascii") as out:
            for span_id, parent, name, start, end, thread, count in self.spans:
                out.write(json.dumps({
                    "run": self.run_id, "id": span_id, "parent": parent, "name": name,
                    "start_ns": start, "end_ns": end, "thread": thread, "count": count,
                }) + "\n")


def load_spans(path) -> list[dict]:
    with open(path, encoding="ascii") as spans:
        return [json.loads(line) for line in spans]


def _covered_ns(start: int, end: int, children: list[dict]) -> int:
    """Length of [start, end) covered by the union of the children's intervals."""
    covered = 0
    cursor = start
    for child in sorted(children, key=lambda c: c["start_ns"]):
        lo = max(child["start_ns"], cursor)
        hi = min(child["end_ns"], end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def self_times(spans: list[dict]) -> tuple[dict[str, int], dict[str, int], dict[str, int]]:
    """Per span name: summed self time (ns), span count and summed work count."""
    children = defaultdict(list)
    for span in spans:
        children[span["parent"]].append(span)
    self_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    work: dict[str, int] = defaultdict(int)
    for span in spans:
        duration = span["end_ns"] - span["start_ns"]
        kids = children.get(span["id"], [])
        self_ns[span["name"]] += duration - _covered_ns(span["start_ns"], span["end_ns"], kids)
        calls[span["name"]] += 1
        work[span["name"]] += span["count"]
    return dict(self_ns), dict(calls), dict(work)


# Per-layer metric -> the span names whose self time it sums.
LAYER_SPANS = {
    "pipeline.ingest_ms_per_frame": ["pipeline.ingest_frames"],
    "pipeline.self_ms_per_frame": [RUN_SPAN],
    "netpbm.read_ms_per_frame": ["netpbm.read_image"],
    "netpbm.write_ms_per_frame": ["netpbm.write_image"],
    "pixel_core.resize_ms_per_frame": ["pixel_core.resize_nearest"],
    "pixel_core.luma_ms_per_frame": ["pixel_core.rgb_to_luma"],
    "pixel_core.buffer_ms_per_frame": ["pixel_core.PixelBuffer", "pixel_core.ColorBuffer"],
    "rng.ms_per_frame": ["rng.site_uniforms", "rng.site_uniforms_at", "rng.site_normals"],
    "noise_models.ms_per_frame": ["noise_models.apply_noise"],
    "smoothing_filters.ms_per_frame": [
        "smoothing_filters.median_filter", "smoothing_filters.hybrid_median_filter"],
    "luma_equalize.enhance_ms_per_frame": [
        "luma_equalize.enhance_with_diagnostics", "luma_equalize.enhance_color"],
    "luma_equalize.histogram_ms_per_frame": [
        "luma_equalize.histogram", "luma_equalize.color_histogram"],
    "quality_metrics.csv_ms_per_frame": ["quality_metrics.export_histogram"],
    "quality_metrics.psnr_ms_per_frame": ["quality_metrics.squared_error_total"],
}


def layer_metrics(spans: list[dict], frames: int) -> dict[str, float]:
    """Per-layer metrics of one traced run of `frames` input frames."""
    self_ns, calls, work = self_times(spans)
    metrics = {
        metric: sum(self_ns.get(n, 0) for n in names) / 1e6 / frames
        for metric, names in LAYER_SPANS.items()
    }
    metrics["pixel_core.buffers_per_frame"] = (
        calls.get("pixel_core.PixelBuffer", 0) + calls.get("pixel_core.ColorBuffer", 0)) / frames
    pixels = work.get("noise_models.apply_noise", 0)
    metrics["rng.variates_per_pixel"] = work.get("rng.site_uniforms_at", 0) / pixels if pixels else 0.0
    return metrics
