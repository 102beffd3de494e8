"""Batch orchestration over directories of numbered netpbm frames.

A run checks the headers of a frame sequence, then a pool of workers decodes,
processes and writes one frame at a time, so memory grows with the worker
count and not with the sequence length. Each frame is optionally resized,
then takes the grayscale path (luminance extraction), the color path
(per-channel processing), or both: optional noise injection, optional
median/hybrid-median smoothing, brightness equalization, and pooled PSNR of
the result against the clean pre-noise reference. Artifacts per run: one
enhanced frame per input frame and path, pre/post-enhancement histogram CSVs,
and a single metrics report JSON. A single-stage run (run_stage) is the same
frame loop with the other steps switched off and no PSNR or report.

Per-frame work is pure and seeded by frame index, so every output byte is a
function of (config, input bytes) alone, never of worker count or scheduling.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import ConfigurationError, IngestionError, PipelineStageError
from .luma_equalize import (
    color_histogram,
    enhance_color,
    enhance_with_diagnostics,
    histogram,
)
from .netpbm import read_dims, read_image, write_image
from .noise_models import NoiseSpec, apply_noise
from .pixel_core import (
    BT601_WEIGHTS,
    ColorBuffer,
    Dimensions,
    LumaWeights,
    PixelBuffer,
    resize_nearest,
    rgb_to_luma,
)
from .quality_metrics import (
    MetricsReport,
    PsnrResult,
    export_histogram,
    improvement_pct,
    squared_error_total,
)
from .rng import U64_MAX, derive_seed
from .smoothing_filters import FilterWindow, hybrid_median_filter, median_filter

FILTER_KINDS = ("median", "hybrid_median")
MODES = ("gray", "color", "both")
PSNR_REFERENCES = ("clean", "noisy")

DEFAULT_RESIZE = Dimensions(rows=144, cols=176)

# <stem>_<zero-padded index>.<pgm|ppm>; ordering is by parsed index
_FRAME_FILE_RE = re.compile(r"^(?P<stem>.+)_(?P<index>\d+)\.(?P<ext>pgm|ppm)$")

__all__ = [
    "FILTER_KINDS",
    "MODES",
    "DEFAULT_RESIZE",
    "FilterSpec",
    "PipelineConfig",
    "FrameSequence",
    "ingest_frames",
    "run_pipeline",
    "run_stage",
    "sequence_psnr",
    "report_table",
]


@dataclass(frozen=True)
class FilterSpec:
    """Smoothing stage selector: which filter and what window."""

    kind: str
    window: FilterWindow = FilterWindow(3, 3)

    def __post_init__(self):
        if self.kind not in FILTER_KINDS:
            raise ConfigurationError(
                f"unknown filter kind {self.kind!r}; expected one of {FILTER_KINDS}"
            )


@dataclass
class PipelineConfig:
    """Everything a run needs; serializable to/from a single JSON document.

    Only input_dir and output_dir are required. The per-frame noise seed is
    derived from noise.seed (which from_mapping defaults to the top-level
    seed) and the frame index, so runs are reproducible end to end.
    """

    input_dir: Path
    output_dir: Path
    resize_to: Dimensions | None = DEFAULT_RESIZE
    luma_weights: LumaWeights = BT601_WEIGHTS
    noise: NoiseSpec | None = None
    filter: FilterSpec | None = None
    sigma: float = 0.0
    mode: str = "gray"
    seed: int = 0
    psnr_reference: str = "clean"
    sample_name: str | None = None
    size_label: str | None = None

    def __post_init__(self):
        self.input_dir = Path(self.input_dir)
        self.output_dir = Path(self.output_dir)
        if self.mode not in MODES:
            raise ConfigurationError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.psnr_reference not in PSNR_REFERENCES:
            raise ConfigurationError(
                f"psnr_reference must be one of {PSNR_REFERENCES}, got {self.psnr_reference!r}"
            )
        if not 0 <= self.seed <= U64_MAX:
            raise ConfigurationError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        if not math.isfinite(self.sigma):
            raise ConfigurationError(f"sigma must be finite, got {self.sigma}")

    def to_mapping(self) -> dict:
        """Canonical dict of every config field, defaults resolved."""
        return {
            "input_dir": str(self.input_dir),
            "output_dir": str(self.output_dir),
            "resize_to": None
            if self.resize_to is None
            else {"rows": self.resize_to.rows, "cols": self.resize_to.cols},
            "luma_weights": [
                self.luma_weights.red,
                self.luma_weights.green,
                self.luma_weights.blue,
            ],
            "noise": None
            if self.noise is None
            else {"kind": self.noise.kind, "d": self.noise.d, "seed": self.noise.seed},
            "filter": None
            if self.filter is None
            else {
                "kind": self.filter.kind,
                "window": [self.filter.window.rows, self.filter.window.cols],
            },
            "sigma": self.sigma,
            "mode": self.mode,
            "seed": self.seed,
            "psnr_reference": self.psnr_reference,
            "sample_name": self.sample_name,
            "size_label": self.size_label,
        }

    def digest(self) -> str:
        """sha256 over the canonical JSON form; changes iff any field changes."""
        canonical = json.dumps(self.to_mapping(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("ascii")).hexdigest()

    @classmethod
    def from_mapping(cls, data: dict) -> "PipelineConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(f"unknown config fields: {sorted(unknown)}")
        kwargs: dict = {}
        for required in ("input_dir", "output_dir"):
            if required not in data:
                raise ConfigurationError(f"config is missing required field {required!r}")
            kwargs[required] = Path(_typed(data[required], (str, Path), required, "a path"))
        seed = kwargs["seed"] = _typed(data.get("seed", 0), int, "seed", "an integer")
        if "resize_to" in data:
            kwargs["resize_to"] = _parse_dims(data["resize_to"], "resize_to", optional=True)
        if "luma_weights" in data:
            kwargs["luma_weights"] = _parse_weights(data["luma_weights"])
        if "noise" in data and data["noise"] is not None:
            kwargs["noise"] = _parse_noise(data["noise"], default_seed=seed)
        if "filter" in data and data["filter"] is not None:
            kwargs["filter"] = _parse_filter(data["filter"])
        if "sigma" in data and data["sigma"] is not None:
            kwargs["sigma"] = _typed(data["sigma"], (int, float), "sigma", "a number")
        for key in ("mode", "psnr_reference", "sample_name", "size_label"):
            if key in data and data[key] is not None:
                kwargs[key] = _typed(data[key], str, key, "a string")
        return cls(**kwargs)


def _typed(value, types, what: str, expected: str):
    # type only (a bool is no number): the config dataclasses check the
    # values themselves, finiteness included
    if not isinstance(value, types) or isinstance(value, bool):
        raise ConfigurationError(f"{what} must be {expected}, got {value!r}")
    return value


def _parse_dims(value, what: str, optional: bool = False) -> Dimensions | None:
    if value is None and optional:
        return None
    if isinstance(value, dict):
        if set(value) != {"rows", "cols"}:
            raise ConfigurationError(f"{what} needs exactly rows and cols, got {value!r}")
        value = [value["rows"], value["cols"]]
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return Dimensions(*(_typed(n, int, what, "a pair of integers") for n in value))
    raise ConfigurationError(f"{what} must be null, [rows, cols], or {{rows, cols}}, got {value!r}")


def _parse_weights(value) -> LumaWeights:
    if isinstance(value, dict):
        try:
            value = [value["red"], value["green"], value["blue"]]
        except KeyError as exc:
            raise ConfigurationError(f"luma_weights needs red/green/blue, got {value!r}") from exc
    if isinstance(value, (list, tuple)) and len(value) == 3:
        return LumaWeights(*(float(_typed(w, (int, float), "luma_weights", "three numbers")) for w in value))
    raise ConfigurationError(f"luma_weights must be [red, green, blue], got {value!r}")


def _check_spec(value, what: str, fields: set[str]) -> None:
    """A noise or filter spec is an object with a kind and no unknown fields."""
    if not isinstance(value, dict):
        raise ConfigurationError(f"{what} must be an object, got {value!r}")
    extra = set(value) - fields
    if extra:
        raise ConfigurationError(f"unknown {what} fields: {sorted(extra)}")
    if "kind" not in value:
        raise ConfigurationError(f"{what} needs a kind")


def _parse_noise(value, default_seed: int) -> NoiseSpec:
    _check_spec(value, "noise", {"kind", "d", "seed"})
    return NoiseSpec(
        kind=value["kind"],
        d=float(_typed(value.get("d", 0.0), (int, float), "noise d", "a number")),
        seed=_typed(value.get("seed", default_seed), int, "noise seed", "an integer"),
    )


def _parse_filter(value) -> FilterSpec:
    _check_spec(value, "filter", {"kind", "window"})
    window = FilterWindow(3, 3)
    if "window" in value and value["window"] is not None:
        dims = _parse_dims(value["window"], "filter window")
        window = FilterWindow(dims.rows, dims.cols)
    return FilterSpec(kind=value["kind"], window=window)


@dataclass(frozen=True)
class FrameSequence:
    """An ordered, uniformly-sized frame sequence in one directory.

    Ingestion keeps only the file paths and the shared dims; load(index)
    decodes one frame. Grayscale sources are promoted to color with
    R = G = B (lossless: the luminance of a promoted frame is the original
    plane). native_kind records whether any source file was a .ppm.
    """

    name: str
    paths: list[Path]
    dims: Dimensions
    native_kind: str = "color"

    def load(self, index: int) -> ColorBuffer:
        image = read_image(self.paths[index])
        if image.dims != self.dims:
            raise IngestionError(f"{self.paths[index].name}: frame dims changed since ingestion")
        if isinstance(image, PixelBuffer):
            image = ColorBuffer.from_planes(image, image, image)
        return image


def ingest_frames(directory) -> FrameSequence:
    """Check `<stem>_<index>.pgm|ppm` files in ascending numeric index order.

    Names, order, netpbm headers, payload lengths and dims are all checked
    here, from each file's header and size; no frame is decoded.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise IngestionError(f"input directory not found: {directory}")
    entries = []
    for path in sorted(directory.iterdir()):
        m = _FRAME_FILE_RE.match(path.name)
        if m:
            entries.append((int(m.group("index")), m.group("stem"), m.group("ext"), path))
    if not entries:
        raise IngestionError(f"no frame files matching <stem>_<index>.pgm|ppm in {directory}")
    stems = {stem for _, stem, _, _ in entries}
    if len(stems) > 1:
        raise IngestionError(
            f"ambiguous sequence in {directory}: multiple stems {sorted(stems)}"
        )
    entries.sort(key=lambda e: e[0])
    indices = [idx for idx, _, _, _ in entries]
    if len(set(indices)) != len(indices):
        dup = next(i for n, i in enumerate(indices[1:], 1) if i == indices[n - 1])
        raise IngestionError(f"duplicate frame index {dup} in {directory}")

    paths = [path for _, _, _, path in entries]
    dims = read_dims(paths[0])
    for path in paths[1:]:
        frame_dims = read_dims(path)
        if frame_dims != dims:
            raise IngestionError(
                f"{path.name}: frame dims {frame_dims.rows}x{frame_dims.cols} do not match "
                f"sequence dims {dims.rows}x{dims.cols}"
            )
    native_kind = "color" if any(ext == "ppm" for _, _, ext, _ in entries) else "gray"
    return FrameSequence(name=stems.pop(), paths=paths, dims=dims, native_kind=native_kind)


class _ArtifactWriter:
    """Tracks every path written so a failed run can remove partial outputs."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self._written: list[Path] = []
        self._lock = threading.Lock()

    def write(self, save, artifact, name: str) -> Path:
        """save(artifact, path) to out_dir/name, recording the path first."""
        path = self.out_dir / name
        with self._lock:
            self._written.append(path)
        save(artifact, path)
        return path

    def remove_all(self) -> None:
        with self._lock:
            written = list(self._written)
        for path in written:
            path.unlink(missing_ok=True)


def _noise_and_filter(cfg: PipelineConfig, plane: PixelBuffer, index: int, slot: int):
    """(noisy, smoothed) for one plane; either step is skipped when cfg has none."""
    noisy = plane
    if cfg.noise:
        # slot 0 = grayscale plane, 1..3 = R, G, B channels
        noisy = apply_noise(plane, replace(cfg.noise, seed=derive_seed(cfg.noise.seed, index, slot)))
    if not cfg.filter:
        return noisy, noisy
    smooth = median_filter if cfg.filter.kind == "median" else hybrid_median_filter
    return noisy, smooth(noisy, cfg.filter.window)


def _gray_path(cfg: PipelineConfig, frame: ColorBuffer, index: int, enhance: bool):
    """Luma, noise, filter, then equalization when `enhance` is set.

    Returns (output plane, its pre/post histograms or none, PSNR reference).
    """
    clean = rgb_to_luma(frame, cfg.luma_weights)
    noisy, out = _noise_and_filter(cfg, clean, index, 0)
    reference = noisy if cfg.psnr_reference == "noisy" else clean
    if not enhance:
        return out, (), reference
    enhanced, diagnostics = enhance_with_diagnostics(out, cfg.sigma)
    return enhanced, (diagnostics.input_histogram, histogram(enhanced)), reference


def _color_path(cfg: PipelineConfig, frame: ColorBuffer, index: int, enhance: bool):
    """Per-channel noise and filter, then equalization; returns as _gray_path."""
    out = frame
    if cfg.noise or cfg.filter:
        planes = [
            _noise_and_filter(cfg, plane, index, slot)[1]
            for slot, plane in enumerate(frame.planes(), start=1)
        ]
        out = ColorBuffer.from_planes(*planes)
    reference = out if cfg.psnr_reference == "noisy" else frame
    if not enhance:
        return out, (), reference
    enhanced = enhance_color(out, cfg.sigma)
    return enhanced, (color_histogram(out), color_histogram(enhanced)), reference


# path kind -> (per-frame step, frame file extension)
_PATHS = {"gray": (_gray_path, "pgm"), "color": (_color_path, "ppm")}


def _run_frames(
    cfg: PipelineConfig,
    jobs: int,
    *,
    native: bool = False,
    enhance: bool = True,
    score: bool = False,
    infix: str = "enhanced",
):
    """The one frame loop: ingest, then `jobs` workers decode, process and write each frame.

    Frames take the paths of cfg.mode, or of the sequence's native kind when
    `native` is set. Returns the sequence and, per frame in index order, one
    (kind, frame path, squared error vs the PSNR reference, or 0 unless
    `score`) per path taken.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be at least 1, got {jobs}")
    sequence = ingest_frames(cfg.input_dir)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    writer = _ArtifactWriter(out_dir)
    name = cfg.sample_name or sequence.name
    pad = max(3, len(str(len(sequence.paths) - 1)))
    mode = sequence.native_kind if native else cfg.mode
    kinds = [kind for kind in _PATHS if mode in (kind, "both")]

    def work(index: int):
        try:
            frame = sequence.load(index)
            if cfg.resize_to is not None:
                frame = resize_nearest(frame, cfg.resize_to)
            tag = f"{index:0{pad}d}"
            outputs = []
            for kind in kinds:
                step, ext = _PATHS[kind]
                out, hists, reference = step(cfg, frame, index, enhance)
                for when, hist in zip(("pre", "post"), hists):
                    writer.write(export_histogram, hist, f"{name}_{kind}_hist_{when}_{tag}.csv")
                path = writer.write(write_image, out, f"{name}_{infix}_{tag}.{ext}")
                outputs.append((kind, path, squared_error_total(out, reference) if score else 0))
            return outputs
        except Exception as exc:
            raise PipelineStageError(f"frame {index}: {exc}") from exc

    indices = range(len(sequence.paths))
    try:
        if jobs > 1:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                frames = list(pool.map(work, indices))
        else:
            frames = [work(index) for index in indices]
    except PipelineStageError:
        writer.remove_all()
        raise
    return sequence, frames


def _improvement(gray_db: float | None, color_db: float | None) -> float | None:
    """improvement_pct of a PSNR pair, or None unless both are finite and color is nonzero."""
    if gray_db is None or color_db is None:
        return None
    if not (math.isfinite(gray_db) and math.isfinite(color_db)) or color_db == 0:
        return None
    return improvement_pct(gray_db, color_db)


def run_pipeline(cfg: PipelineConfig, jobs: int = 1) -> MetricsReport:
    """Run the full pipeline over one sequence and write all artifacts.

    Frames are processed by a pool of `jobs` workers; per-frame squared-error
    totals are integers merged in frame order, so the pooled PSNR (and every
    output byte) is identical for any worker count. Any stage failure removes
    the partial outputs and raises PipelineStageError with the frame index.
    """
    sequence, frames = _run_frames(cfg, jobs, score=True)
    dims = cfg.resize_to if cfg.resize_to is not None else sequence.dims

    def pooled_psnr(kind: str) -> float | None:
        sse = [frame_sse for outputs in frames for k, _, frame_sse in outputs if k == kind]
        samples = len(sse) * dims.area * (1 if kind == "gray" else 3)
        return PsnrResult.from_mse(sum(sse) / samples).psnr_db if sse else None

    gray_psnr, color_psnr = pooled_psnr("gray"), pooled_psnr("color")
    report = MetricsReport(
        sample_name=cfg.sample_name or sequence.name,
        n_frames=len(frames),
        frame_dims=(dims.rows, dims.cols),
        pipeline_config_digest=cfg.digest(),
        gray_psnr_db=gray_psnr,
        color_psnr_db=color_psnr,
        improvement_pct=_improvement(gray_psnr, color_psnr),
        size_label=cfg.size_label,
    )
    report.save(Path(cfg.output_dir) / "report.json")
    return report


_STAGE_INFIX = {"luma": "luma", "noise": "noisy", "filter": "filtered", "enhance": "enhanced"}


def run_stage(cfg: PipelineConfig, stage: str, jobs: int = 1) -> list[Path]:
    """Run a single stage over the input frames and write the results.

    Stages operate in the sequence's native kind (PGM sources stay grayscale,
    PPM sources are processed per channel), except `luma`, which always writes
    grayscale. `enhance` additionally writes pre/post histogram CSVs. Returns
    the written frame paths in index order.
    """
    if stage not in _STAGE_INFIX:
        raise ConfigurationError(f"unknown stage {stage!r}; expected one of {sorted(_STAGE_INFIX)}")
    if stage == "noise" and cfg.noise is None:
        raise ConfigurationError("the noise stage needs a noise spec in the config")
    if stage == "filter" and cfg.filter is None:
        raise ConfigurationError("the filter stage needs a filter spec in the config")
    # luma is the gray path with every step off; the other stages keep only
    # their own step and follow the sequence's native kind
    steps = replace(
        cfg,
        mode="gray",
        noise=cfg.noise if stage == "noise" else None,
        filter=cfg.filter if stage == "filter" else None,
    )
    _, frames = _run_frames(
        steps, jobs, native=stage != "luma", enhance=stage == "enhance", infix=_STAGE_INFIX[stage]
    )
    return [path for outputs in frames for _, path, _ in outputs]


def sequence_psnr(result: FrameSequence, reference: FrameSequence) -> PsnrResult:
    """Pooled PSNR of one sequence against a same-shaped reference, one frame pair at a time."""
    if len(result.paths) != len(reference.paths):
        raise ConfigurationError(
            f"sequence length mismatch: {len(result.paths)} vs {len(reference.paths)}"
        )
    sse = 0
    samples = 0
    for index in range(len(result.paths)):
        ours = result.load(index)
        sse += squared_error_total(ours, reference.load(index))
        samples += ours.data.size
    return PsnrResult.from_mse(sse / samples)


def _format_db(value: float | None) -> str:
    if value is None:
        return "n/a"
    if math.isinf(value):
        return "inf"
    return f"{value:.2f}"


def report_table(reports: list[MetricsReport]) -> tuple[str, str]:
    """Render reports as (csv_text, aligned_text), one row per sample.

    The improvement column is recomputed from the gray/color PSNR pair when
    both are present and finite; missing values render as n/a.
    """
    if not reports:
        raise ConfigurationError("report_table needs at least one report")
    header = ["sample", "size", "frames", "gray_psnr_db", "color_psnr_db", "improvement_pct"]
    rows = [header]
    for report in reports:
        improvement = _improvement(report.gray_psnr_db, report.color_psnr_db)
        if improvement is None:
            improvement = report.improvement_pct
        rows.append(
            [
                report.sample_name,
                report.size_label if report.size_label is not None else "n/a",
                str(report.n_frames),
                _format_db(report.gray_psnr_db),
                _format_db(report.color_psnr_db),
                f"{improvement:.2f}" if improvement is not None else "n/a",
            ]
        )
    csv_text = "\n".join(",".join(row) for row in rows) + "\n"
    widths = [max(len(row[col]) for row in rows) for col in range(len(header))]
    aligned = "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    ) + "\n"
    return csv_text, aligned
