"""Batch orchestration over directories of numbered netpbm frames: the config,
ingestion, the writer, the frame loop, run_metrics and the report's assembly.
Each step's spec lives in its step's module, every rendering in quality_metrics.

A run checks the headers of a frame sequence, then a pool of workers decodes
and processes one frame at a time while the calling thread writes each frame's
finished bytes in index order, with at most `jobs` + 2 frames in flight; memory
grows with the worker count, not with the sequence length. Each frame, in the
kind its file holds, is optionally resized, then takes the grayscale path (its
luminance plane), the color path (RGB, gray as R = G = B), or both. Each path
runs the same steps: optional noise injection, optional median/hybrid-median
smoothing, brightness equalization, and pooled PSNR of the result against the
clean pre-noise reference. Artifacts per run: one enhanced frame per input
frame and path, pre/post-enhancement histogram CSVs, and a single metrics
report JSON. A single-stage run (run_stage) is the same frame loop with the
other steps switched off and no PSNR or report. run_metrics reports the pooled
PSNR of a directory against a reference, through run_pipeline's builder.

Per-frame work is pure and seeded by frame index, so every output byte is a
function of (config, input bytes) alone, never of worker count or scheduling.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import re
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path
# hashlib starts OpenSSL, 3.6 MB of resident memory, for one 400-byte digest per run; the interpreter's
# own SHA-256 is the fallback hashlib itself uses, the same function, so every digest stays the same
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:  # a build without built-in hashes
        from hashlib import sha256

from ._declared import build
from .errors import ConfigurationError, IngestionError, PipelineStageError
from .luma_equalize import enhance_with_diagnostics
from .netpbm import encode_image, read_dims, read_image
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
    histogram_csv,
    squared_error_total,
)
from .rng import U64_MAX, derive_seed
from .smoothing_filters import FilterSpec, hybrid_median_filter, median_filter

MODES = ("gray", "color", "both")
PSNR_REFERENCES = ("clean", "noisy")

DEFAULT_RESIZE = Dimensions(rows=144, cols=176)

# largest rows * cols a resize target may ask for: 2**26 samples, 64 MiB per
# 8-bit plane
MAX_SAMPLES = 2**26

# <stem>_<zero-padded index>.<pgm|ppm>, matched whole; ordering is by parsed index. DOTALL lets a
# stem holding a line feed match, so that it is rejected rather than skipped
_FRAME_FILE_RE = re.compile(r"(?P<stem>.+)_(?P<index>\d+)\.(?P<ext>pgm|ppm)", re.DOTALL)

__all__ = [
    "MODES",
    "DEFAULT_RESIZE",
    "PipelineConfig",
    "FrameSequence",
    "ingest_frames",
    "run_pipeline",
    "run_stage",
    "run_metrics",
]


def _plain_name(name: str) -> bool:
    """Whether name can prefix artifact file names: one plain file name in output_dir, one line in table.txt."""
    return name not in ("", ".", "..") and name.isprintable() and "/" not in name and "\\" not in name


@dataclass(frozen=True)
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
        object.__setattr__(self, "input_dir", Path(self.input_dir))
        object.__setattr__(self, "output_dir", Path(self.output_dir))
        if self.mode not in MODES:
            raise ConfigurationError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.psnr_reference not in PSNR_REFERENCES:
            raise ConfigurationError(
                f"psnr_reference must be one of {PSNR_REFERENCES}, got {self.psnr_reference!r}"
            )
        if not 0 <= self.seed <= U64_MAX:
            raise ConfigurationError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        # the OS takes names as NUL-free bytes; reject others before anything is made
        for key in ("input_dir", "output_dir"):
            name = getattr(self, key)
            try:
                encodable = b"\0" not in os.fsencode(name)
            except UnicodeEncodeError:
                encodable = False
            if not encodable:
                raise ConfigurationError(f"{key} must encode as a path without NUL, got {str(name)!r}")
        if self.resize_to is not None and self.resize_to.area > MAX_SAMPLES:
            raise ConfigurationError(
                f"resize_to must have at most {MAX_SAMPLES} samples, "
                f"got {self.resize_to.rows}x{self.resize_to.cols}"
            )
        if not math.isfinite(self.sigma):
            raise ConfigurationError(f"sigma must be finite, got {self.sigma}")
        name = self.sample_name
        if name is not None and not _plain_name(name):
            raise ConfigurationError(f"sample_name must be a printable file name without / or \\, got {name!r}")
        # a report table cell, one line like the sample name
        if self.size_label is not None and not self.size_label.isprintable():
            raise ConfigurationError(f"size_label must be printable text, got {self.size_label!r}")

    def to_mapping(self) -> dict:
        """Canonical dict of every config field, defaults resolved."""
        mapping = asdict(self)
        mapping["input_dir"], mapping["output_dir"] = str(self.input_dir), str(self.output_dir)
        mapping["luma_weights"] = list(mapping["luma_weights"].values())
        if self.filter is not None:
            mapping["filter"]["window"] = list(mapping["filter"]["window"].values())
        return mapping

    def digest(self) -> str:
        """SHA-256 over the canonical JSON form; changes iff any field changes.

        The JSON keeps non-ASCII characters, lone surrogates included, as they are and encodes them as
        UTF-8 with surrogatepass, so no two strings share bytes; an ASCII escape would give a surrogate
        pair and the character it stands for one form. The hash is the interpreter's built-in SHA-256,
        hashlib's only on a build without one, so no command loads OpenSSL; the bytes are the same.
        """
        canonical = json.dumps(self.to_mapping(), sort_keys=True, separators=(",", ":"), ensure_ascii=False)
        return sha256(canonical.encode("utf-8", "surrogatepass")).hexdigest()

    @classmethod
    def from_mapping(cls, data: dict) -> "PipelineConfig":
        """The inverse of to_mapping; fields with a default may be left out."""
        cfg = build(cls, data, "config", ConfigurationError)
        if cfg.noise is not None and "seed" not in data["noise"]:
            return replace(cfg, noise=replace(cfg.noise, seed=cfg.seed))
        return cfg


@dataclass(frozen=True)
class FrameSequence:
    """An ordered, uniformly-sized frame sequence in one directory.

    Ingestion keeps only the file paths and the shared dims; load(index)
    decodes one frame in the kind its file holds, a PixelBuffer for a .pgm and
    a ColorBuffer for a .ppm. native_kind records whether any file was a .ppm.
    """

    name: str
    paths: tuple[Path, ...]
    dims: Dimensions
    native_kind: str

    def load(self, index: int) -> PixelBuffer | ColorBuffer:
        image = read_image(self.paths[index])
        if image.dims != self.dims:
            raise IngestionError(f"{self.paths[index].name}: frame dims changed since ingestion")
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
        m = _FRAME_FILE_RE.fullmatch(path.name)
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
    for (index, *_), (next_index, *_) in zip(entries, entries[1:]):
        if index == next_index:
            raise IngestionError(f"duplicate frame index {index} in {directory}")

    paths = tuple(path for _, _, _, path in entries)
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


_WAITING_FRAMES = 2  # frames in flight beyond one per worker: computed, waiting, or being written


def _write(what: str, artifacts: list[tuple[Path, bytes]], written: list[Path]) -> None:
    """Write the (path, bytes) artifacts of `what` ("frame N", "report"), or raise PipelineStageError.

    Every file a command writes is opened here. A path joins `written` once
    this run has opened it, so a failed run removes only its own files.
    """
    for path, data in artifacts:
        try:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
            written.append(path)
            try:
                view = memoryview(data)
                while view:  # a short write leaves the rest to the next
                    view = view[os.write(fd, view):]
            finally:
                os.close(fd)
        except OSError as exc:
            raise PipelineStageError(f"{what}: cannot write: {exc}") from exc


@contextlib.contextmanager
def _writing(directory: Path):
    """Make `directory` and its parents, then yield write(what, artifacts), which calls _write.

    Every command that writes enters it, `metrics --output` with the file's parent. Any exception,
    KeyboardInterrupt included, removes every file write opened; the directory stays.
    """
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise PipelineStageError(f"cannot create the output directory: {exc}") from exc
    written: list[Path] = []
    try:
        yield lambda what, artifacts: _write(what, artifacts, written)
    except BaseException:
        for path in written:
            with contextlib.suppress(OSError):
                path.unlink()
        raise


def _promoted(frame: PixelBuffer | ColorBuffer) -> ColorBuffer:
    """The one place a gray frame becomes color: R = G = B, whose luminance is the plane itself; color passes as is."""
    return ColorBuffer._adopt(frame.data[..., None].repeat(3, axis=2)) if isinstance(frame, PixelBuffer) else frame


def _path(cfg: PipelineConfig, frame: PixelBuffer | ColorBuffer, index: int, kind: str):
    """Luma (gray path) or promotion (color path), then noise and filter; returns (output, PSNR reference)."""
    clean = rgb_to_luma(frame, cfg.luma_weights) if kind == "gray" else _promoted(frame)
    noisy = out = clean
    if cfg.noise:
        # gray draws from stream slot 0; apply_noise gives color channel c slot c + 1
        ids = (index, 0) if kind == "gray" else (index,)
        noisy = out = apply_noise(clean, replace(cfg.noise, seed=derive_seed(cfg.noise.seed, *ids)))
    if cfg.filter:
        smooth = median_filter if cfg.filter.kind == "median" else hybrid_median_filter
        out = smooth(noisy, cfg.filter.window)
    return out, noisy if cfg.psnr_reference == "noisy" else clean


_STAGE_INFIX = {"luma": "luma", "noise": "noisy", "filter": "filtered", "enhance": "enhanced"}


def _run_frames(cfg: PipelineConfig, jobs: int, stage: str | None = None):
    """The one frame loop: ingest, then `jobs` workers compute frames and the calling thread writes them.

    Workers decode and process a frame and return its artifacts, with no I/O;
    the calling thread writes them in index order through one _writing
    context, opened once ingestion succeeds, with at most jobs +
    _WAITING_FRAMES frames in flight (submitted, unwritten). `stage` None is
    a full run: the paths of cfg.mode, enhanced and scored, then report.json.
    A stage name makes this the one place that decides what the stage runs:
    `luma` takes the gray path and every other stage the sequence's native
    kind; each keeps only its own noise or filter step, only `enhance`
    enhances, and no stage is scored. Returns the frame paths in index order
    and the report, None for a stage.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be at least 1, got {jobs}")
    sequence = ingest_frames(cfg.input_dir)
    name = cfg.sample_name or sequence.name
    if not _plain_name(name):  # a given sample_name passed this check in PipelineConfig
        raise IngestionError(f"frame file stem {name!r} cannot prefix artifact names; give a sample_name")
    out_dir = cfg.output_dir
    pad = max(3, len(str(len(sequence.paths) - 1)))
    if stage is not None:
        # luma is the gray path with every step off; the other stages keep only
        # their own step and follow the sequence's native kind
        cfg = replace(
            cfg,
            mode="gray" if stage == "luma" else sequence.native_kind,
            noise=cfg.noise if stage == "noise" else None,
            filter=cfg.filter if stage == "filter" else None,
        )
    enhance, score = stage in (None, "enhance"), stage is None
    infix = _STAGE_INFIX[stage or "enhance"]
    kinds = [(kind, ext) for kind, ext in (("gray", "pgm"), ("color", "ppm")) if cfg.mode in (kind, "both")]

    def work(index: int):
        try:
            frame = sequence.load(index)
            if cfg.resize_to is not None:
                frame = resize_nearest(frame, cfg.resize_to)
            tag = f"{index:0{pad}d}"
            outputs, artifacts = [], []
            for kind, ext in kinds:
                out, reference = _path(cfg, frame, index, kind)
                if enhance:
                    out, *hists = enhance_with_diagnostics(out, cfg.sigma)
                    for when, hist in zip(("pre", "post"), hists):
                        artifacts.append((out_dir / f"{name}_{kind}_hist_{when}_{tag}.csv", histogram_csv(hist)))
                path = out_dir / f"{name}_{infix}_{tag}.{ext}"
                artifacts.append((path, encode_image(out)))
                outputs.append((kind, path, squared_error_total(out, reference) if score else 0, out.data.size))
        except Exception as exc:
            raise PipelineStageError(f"frame {index} ({sequence.paths[index].name}): {exc}") from exc
        return outputs, artifacts

    count, pending, paths, totals = len(sequence.paths), deque(), [], {}
    with _writing(out_dir) as write:
        pool = ThreadPoolExecutor(max_workers=jobs)
        try:
            for index in range(count):
                while len(pending) < jobs + _WAITING_FRAMES and index + len(pending) < count:
                    try:
                        pending.append(pool.submit(work, index + len(pending)))
                    except RuntimeError as exc:  # the OS refused a worker thread (a process or pid limit)
                        raise PipelineStageError(f"cannot start a worker: {exc}") from exc
                outputs, artifacts = pending.popleft().result()
                write(f"frame {index}", artifacts)
                for kind, path, sse, samples in outputs:
                    kind_sse, kind_samples = totals.get(kind, (0, 0))
                    totals[kind] = (kind_sse + sse, kind_samples + samples)
                    paths.append(path)
        finally:  # after a failure, frames not yet started never start
            pool.shutdown(cancel_futures=True)
        if stage is not None:
            return paths, None
        report = _report(cfg, sequence, cfg.resize_to if cfg.resize_to is not None else sequence.dims, totals)
        write("report", [(out_dir / "report.json", report.to_json_bytes())])
    return paths, report


def run_pipeline(cfg: PipelineConfig, jobs: int = 1) -> MetricsReport:
    """Run the full pipeline over one sequence and write all artifacts.

    Frames are processed by a pool of `jobs` workers; per-frame squared-error
    totals are integers merged in frame order, so the pooled PSNR (and every
    output byte) is identical for any worker count. Any failed stage or write,
    report.json last, removes this run's files and raises PipelineStageError.
    """
    return _run_frames(cfg, jobs)[1]


def run_stage(cfg: PipelineConfig, stage: str, jobs: int = 1) -> list[Path]:
    """Run a single stage over the input frames and write the results.

    Stages operate in the sequence's native kind (PGM sources stay grayscale,
    PPM sources stay color), except `luma`, which always writes
    grayscale. `enhance` additionally writes pre/post histogram CSVs. Which
    config fields a stage reads is decided in _run_frames, once the sequence
    is ingested. Returns the written frame paths in index order.
    """
    if stage not in _STAGE_INFIX:
        raise ConfigurationError(f"unknown stage {stage!r}; expected one of {sorted(_STAGE_INFIX)}")
    if stage in ("noise", "filter") and getattr(cfg, stage) is None:
        raise ConfigurationError(f"the {stage} stage needs a {stage} spec in the config")
    return _run_frames(cfg, jobs, stage)[0]


def run_metrics(cfg: PipelineConfig, reference_dir) -> MetricsReport:
    """Pooled PSNR of the frames in cfg.input_dir against those in reference_dir; writes nothing.

    Frames are compared one pair at a time: both promoted and reported as color if either sequence holds a
    .ppm, else as the gray planes they are stored as.
    """
    result, reference = ingest_frames(cfg.input_dir), ingest_frames(reference_dir)
    if len(result.paths) != len(reference.paths):
        raise ConfigurationError(
            f"sequence length mismatch: {cfg.input_dir} holds {len(result.paths)} frames, "
            f"{reference_dir} holds {len(reference.paths)}"
        )
    if result.dims != reference.dims:
        raise ConfigurationError(
            f"frame size mismatch: {cfg.input_dir} holds {result.dims.rows}x{result.dims.cols} frames, "
            f"{reference_dir} holds {reference.dims.rows}x{reference.dims.cols}"
        )
    kind = "color" if "color" in (result.native_kind, reference.native_kind) else "gray"
    sse = samples = 0
    for index in range(len(result.paths)):
        pair = result.load(index), reference.load(index)
        ours, theirs = map(_promoted, pair) if kind == "color" else pair
        sse += squared_error_total(ours, theirs)
        samples += ours.data.size
    return _report(cfg, result, result.dims, {kind: (sse, samples)})


def _report(cfg: PipelineConfig, sequence: FrameSequence, dims: Dimensions, totals: dict) -> MetricsReport:
    """The report of a sequence from per-kind (squared error, sample count) totals; a kind without one has no PSNR."""
    psnr_db = {kind: PsnrResult(*total).psnr_db for kind, total in totals.items()}
    return MetricsReport(
        sample_name=cfg.sample_name or sequence.name,
        n_frames=len(sequence.paths),
        frame_dims=dims,
        pipeline_config_digest=cfg.digest(),
        gray_psnr_db=psnr_db.get("gray"),
        color_psnr_db=psnr_db.get("color"),
        size_label=cfg.size_label,
    )
