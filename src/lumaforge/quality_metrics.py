"""Reconstruction-quality metrics and every rendering of them.

PSNR is measured against the 8-bit peak of 255 and pooled by accumulating
integer squared-error totals (exact, order-independent), which a PsnrResult
holds; its psnr_db is the single final division: one PSNR per sequence, not a
mean of per-frame PSNRs.
Improvement percentages compare a color-path result against its grayscale
counterpart, with the color value as the denominator. Renderings: histogram_csv,
MetricsReport.to_json_bytes (the report JSON) and report_table (its tables).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from ._declared import build, read_json
from .errors import ConfigurationError, IngestionError
from .luma_equalize import N_LEVELS
from .pixel_core import ColorBuffer, Dimensions, PixelBuffer

PEAK_VALUE = 255
_LEVEL_TEXT = [str(level) for level in range(N_LEVELS)]  # the `level` column of histogram_csv

__all__ = [
    "PEAK_VALUE",
    "PsnrResult",
    "MetricsReport",
    "squared_error_total",
    "psnr",
    "improvement_pct",
    "histogram_csv",
    "report_table",
]


@dataclass(frozen=True)
class PsnrResult:
    """An exact integer squared-error total `sse` over `samples` samples; mse and psnr_db derive from the two."""

    sse: int
    samples: int

    def __post_init__(self):
        if self.sse < 0 or self.samples < 1:
            raise ConfigurationError(f"cannot pool a squared error of {self.sse} over {self.samples} samples")

    @property
    def mse(self) -> float:
        return self.sse / self.samples

    @property
    def psnr_db(self) -> float:
        """10*log10(255^2 / mse), infinite iff sse = 0 (identical inputs); every PSNR is computed here."""
        return math.inf if self.sse == 0 else 10.0 * math.log10(PEAK_VALUE**2 / self.mse)

    @property
    def is_infinite(self) -> bool:
        return self.sse == 0


def squared_error_total(a, b) -> int:
    """Exact integer sum of squared sample differences of two frame buffers of one kind and shape, or raise."""
    if type(a) is not type(b) or not isinstance(a, (PixelBuffer, ColorBuffer)):
        raise ConfigurationError(f"need two frame buffers of one kind, got {type(a).__name__} and {type(b).__name__}")
    if a.data.shape != b.data.shape:
        raise ConfigurationError(f"dimension mismatch: {a.data.shape} vs {b.data.shape}")
    diff = np.subtract(a.data, b.data, dtype=np.int32)
    diff *= diff  # at most 255**2, so int32 holds it; the sum needs int64
    return int(diff.sum(dtype=np.int64))


def psnr(a, b) -> PsnrResult:
    """PSNR of two frames that squared_error_total accepts; a color pair pools all 3 * rows * cols samples."""
    return PsnrResult(squared_error_total(a, b), a.data.size)


def improvement_pct(gray_db: float, color_db: float) -> float:
    """Percentage gain of the color-path PSNR over the grayscale-path PSNR.

    Defined as (color - gray) / color * 100; positive iff color beats gray.
    """
    if color_db == 0:
        raise ConfigurationError("improvement is undefined when the color PSNR is 0 dB")
    return (color_db - gray_db) / color_db * 100.0


@functools.lru_cache(maxsize=1024)
def _cell(count: int, area: int) -> str:
    """The `,count,probability` end of a CSV row; count / area rounds as numpy's counts / area does."""
    return f",{count},{count / area:.9e}\n"


def histogram_csv(hist) -> bytes:
    """One `level,count,probability` row per intensity level of a Histogram, as ASCII bytes."""
    area = hist.area
    rows = "".join([level + _cell(count, area) for level, count in zip(_LEVEL_TEXT, hist.counts.tolist())])
    return b"level,count,probability\n" + rows.encode("ascii")


# the number fields in which the string "inf" stands for infinity (an infinite PSNR)
_INF_FIELDS = ("gray_psnr_db", "color_psnr_db", "improvement_pct")


@dataclass(frozen=True)
class MetricsReport:
    """Per-sequence quality summary; serialized as the report JSON artifact.

    PSNR fields are left None for paths the run did not take; infinite PSNR is
    serialized as the string "inf"; a NaN or -inf one is refused. improvement_pct
    is always derived: from a pair of finite PSNRs whose color value is nonzero,
    if finite, else None. A value given for it (a stored one when loaded) is
    type-checked by load, then replaced.
    """

    sample_name: str
    n_frames: int
    frame_dims: Dimensions
    pipeline_config_digest: str
    gray_psnr_db: float | None = None
    color_psnr_db: float | None = None
    improvement_pct: float | None = None
    size_label: str | None = None

    def __post_init__(self):
        # ingestion rejects an empty directory, so no run reports fewer frames
        if self.n_frames < 1:
            raise ConfigurationError(f"n_frames must be at least 1, got {self.n_frames}")
        pair = (self.gray_psnr_db, self.color_psnr_db)
        if any(db is not None and not db > -math.inf for db in pair):  # NaN compares false too
            raise ConfigurationError(f"a PSNR must be a finite number or inf, got {pair[0]} gray, {pair[1]} color")
        derived = all(db is not None and math.isfinite(db) for db in pair) and self.color_psnr_db != 0
        pct = improvement_pct(*pair) if derived else math.nan  # two finite PSNRs far apart overflow it
        object.__setattr__(self, "improvement_pct", pct if math.isfinite(pct) else None)

    def to_json_bytes(self) -> bytes:
        """The one rendering of a report, as run writes it and metrics prints it: ASCII JSON, "inf" for infinity."""
        data = asdict(self)  # field order is the report's key order
        data["frame_dims"] = [self.frame_dims.rows, self.frame_dims.cols]
        for key in _INF_FIELDS:
            if data[key] == math.inf:
                data[key] = "inf"
        return (json.dumps(data, indent=2) + "\n").encode("ascii")

    @classmethod
    def load(cls, path) -> "MetricsReport":
        """Read a report JSON file; one that is not a valid report raises IngestionError.

        sample_name and size_label are cells of report tables, one line each,
        so they must be printable text (`str.isprintable`).
        """
        data = read_json(path, "metrics report", IngestionError)
        if isinstance(data, dict):
            data = {key: math.inf if key in _INF_FIELDS and value == "inf" else value for key, value in data.items()}
        try:
            report = build(cls, data, "metrics report", IngestionError)
            for key in ("sample_name", "size_label"):
                text = getattr(report, key)
                if text is not None and not text.isprintable():
                    raise IngestionError(f"metrics report {key} must be printable text, got {text!r}")
        except IngestionError as exc:
            raise IngestionError(f"{path}: {exc}") from exc
        return report


def _format_db(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.2f}"  # an infinite value formats as "inf"


def _csv_cell(text: str) -> str:
    """A CSV cell, quoted with its quotes doubled only when it holds a comma, a quote or a line break."""
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def report_table(reports: list[MetricsReport]) -> tuple[str, str]:
    """Render reports as (csv_text, aligned_text), one row per sample.

    The improvement column is the report's improvement_pct, which
    MetricsReport derives from a finite PSNR pair; missing values render as n/a.
    """
    if not reports:
        raise ConfigurationError("report_table needs at least one report")
    header = ["sample", "size", "frames", "gray_psnr_db", "color_psnr_db", "improvement_pct"]
    rows = [header]
    for report in reports:
        rows.append(
            [
                report.sample_name,
                report.size_label if report.size_label is not None else "n/a",
                str(report.n_frames),
                _format_db(report.gray_psnr_db),
                _format_db(report.color_psnr_db),
                _format_db(report.improvement_pct),
            ]
        )
    csv_text = "".join(",".join(map(_csv_cell, row)) + "\n" for row in rows)
    widths = [max(len(row[col]) for row in rows) for col in range(len(header))]
    aligned = "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    ) + "\n"
    return csv_text, aligned
