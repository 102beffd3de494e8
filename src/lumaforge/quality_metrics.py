"""Reconstruction-quality metrics and their serialized artifacts.

PSNR is measured against the 8-bit peak of 255 and pooled by accumulating
integer squared-error totals (exact, order-independent) before the single
final division: one PSNR per sequence, not a mean of per-frame PSNRs.
Improvement percentages compare a color-path result against its grayscale
counterpart, with the color value as the denominator.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, IngestionError
from .luma_equalize import N_LEVELS, Histogram
from .pixel_core import ColorBuffer, PixelBuffer

PEAK_VALUE = 255

__all__ = [
    "PEAK_VALUE",
    "PsnrResult",
    "MetricsReport",
    "squared_error_total",
    "psnr",
    "improvement_pct",
    "export_histogram",
    "load_histogram",
]


@dataclass(frozen=True)
class PsnrResult:
    """Mean squared error and the matching decibel PSNR.

    mse = 0 iff psnr_db is infinite (identical inputs); otherwise
    psnr_db = 10*log10(255^2 / mse).
    """

    mse: float
    psnr_db: float

    @classmethod
    def from_mse(cls, mse: float) -> "PsnrResult":
        if mse < 0:
            raise ConfigurationError(f"mean squared error cannot be negative, got {mse}")
        if mse == 0:
            return cls(0.0, math.inf)
        return cls(float(mse), 10.0 * math.log10(PEAK_VALUE**2 / mse))

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.psnr_db)


def squared_error_total(a, b) -> int:
    """Exact integer sum of squared sample differences between two buffers."""
    if type(a) is not type(b):
        raise ConfigurationError(
            f"cannot compare {type(a).__name__} against {type(b).__name__}"
        )
    if a.data.shape != b.data.shape:
        raise ConfigurationError(f"dimension mismatch: {a.data.shape} vs {b.data.shape}")
    diff = a.data.astype(np.int64) - b.data.astype(np.int64)
    return int(np.sum(diff * diff))


def psnr(a, b) -> PsnrResult:
    """PSNR between two frames of the same kind and dimensions.

    For color frames the MSE pools all 3 * rows * cols channel samples.
    """
    if not isinstance(a, (PixelBuffer, ColorBuffer)):
        raise ConfigurationError(f"psnr expects frame buffers, got {type(a).__name__}")
    n_samples = a.data.size
    return PsnrResult.from_mse(squared_error_total(a, b) / n_samples)


def improvement_pct(gray_db: float, color_db: float) -> float:
    """Percentage gain of the color-path PSNR over the grayscale-path PSNR.

    Defined as (color - gray) / color * 100; positive iff color beats gray.
    """
    if color_db == 0:
        raise ConfigurationError("improvement is undefined when the color PSNR is 0 dB")
    return (color_db - gray_db) / color_db * 100.0


def export_histogram(hist, path) -> None:
    """Write one `level,count,probability` row per intensity level of a Histogram."""
    counts = hist.counts
    mass = hist.mass
    lines = ["level,count,probability"]
    for level in range(len(counts)):
        lines.append(f"{level},{int(counts[level])},{mass[level]:.9e}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def load_histogram(path) -> Histogram:
    """Parse a histogram CSV back into a Histogram (exact via the count column)."""
    path = Path(path)
    lines = path.read_text(encoding="ascii").splitlines()
    if not lines or lines[0] != "level,count,probability":
        raise IngestionError(f"{path}: missing histogram CSV header")
    if len(lines) != 1 + N_LEVELS:
        raise IngestionError(f"{path}: expected {N_LEVELS} data rows, got {len(lines) - 1}")
    counts = np.zeros(N_LEVELS, dtype=np.int64)
    for row, line in enumerate(lines[1:]):
        parts = line.split(",")
        if len(parts) != 3:
            raise IngestionError(f"{path}: malformed row {row}: {line!r}")
        try:
            level, count = int(parts[0]), int(parts[1])
            float(parts[2])
        except ValueError as exc:
            raise IngestionError(f"{path}: malformed row {row}: {line!r}") from exc
        if level != row:
            raise IngestionError(f"{path}: level column out of order at row {row}")
        counts[row] = count
    return Histogram(counts)


def _encode_db(value: float | None):
    if value is None:
        return None
    if math.isinf(value):
        return "inf"
    return float(value)


def _decode_db(value) -> float | None:
    if value is None:
        return None
    if value == "inf":
        return math.inf
    return float(value)


@dataclass
class MetricsReport:
    """Per-sequence quality summary; serialized as the report JSON artifact.

    PSNR fields are left None for paths the run did not take; infinite PSNR is
    serialized as the string "inf".
    """

    sample_name: str
    n_frames: int
    frame_dims: tuple[int, int]
    pipeline_config_digest: str
    gray_psnr_db: float | None = None
    color_psnr_db: float | None = None
    improvement_pct: float | None = None
    size_label: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "sample_name": self.sample_name,
            "n_frames": self.n_frames,
            "frame_dims": [self.frame_dims[0], self.frame_dims[1]],
            "pipeline_config_digest": self.pipeline_config_digest,
            "gray_psnr_db": _encode_db(self.gray_psnr_db),
            "color_psnr_db": _encode_db(self.color_psnr_db),
            "improvement_pct": self.improvement_pct,
            "size_label": self.size_label,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "MetricsReport":
        try:
            return cls(
                sample_name=data["sample_name"],
                n_frames=int(data["n_frames"]),
                frame_dims=(int(data["frame_dims"][0]), int(data["frame_dims"][1])),
                pipeline_config_digest=data["pipeline_config_digest"],
                gray_psnr_db=_decode_db(data.get("gray_psnr_db")),
                color_psnr_db=_decode_db(data.get("color_psnr_db")),
                improvement_pct=data.get("improvement_pct"),
                size_label=data.get("size_label"),
            )
        except (KeyError, IndexError, TypeError) as exc:
            raise IngestionError(f"malformed metrics report: {exc}") from exc

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2) + "\n", encoding="ascii")

    @classmethod
    def load(cls, path) -> "MetricsReport":
        path = Path(path)
        try:
            data = json.loads(path.read_text(encoding="ascii"))
        except (OSError, json.JSONDecodeError) as exc:
            raise IngestionError(f"{path}: cannot read metrics report: {exc}") from exc
        return cls.from_json_dict(data)
