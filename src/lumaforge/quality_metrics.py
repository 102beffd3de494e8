"""Reconstruction-quality metrics and their serialized artifacts.

PSNR is measured against the 8-bit peak of 255 and pooled by accumulating
integer squared-error totals (exact, order-independent) before the single
final division in PsnrResult.pooled: one PSNR per sequence, not a mean of
per-frame PSNRs.
Improvement percentages compare a color-path result against its grayscale
counterpart, with the color value as the denominator.
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
    def pooled(cls, sse: int, samples: int) -> "PsnrResult":
        """PSNR of an integer squared-error total over `samples` samples; every PSNR is computed here."""
        if sse < 0 or samples < 1:
            raise ConfigurationError(f"cannot pool a squared error of {sse} over {samples} samples")
        if sse == 0:
            return cls(0.0, math.inf)
        mse = sse / samples
        return cls(mse, 10.0 * math.log10(PEAK_VALUE**2 / mse))

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.psnr_db)


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
    return PsnrResult.pooled(squared_error_total(a, b), a.data.size)


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


@dataclass
class MetricsReport:
    """Per-sequence quality summary; serialized as the report JSON artifact.

    PSNR fields are left None for paths the run did not take; infinite PSNR is
    serialized as the string "inf". improvement_pct is derived from a pair of
    finite PSNRs whose color value is nonzero; otherwise it keeps the value
    given (a stored one when loaded, else None).
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
        if all(db is not None and math.isfinite(db) for db in pair) and self.color_psnr_db != 0:
            self.improvement_pct = improvement_pct(*pair)

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
