"""Brightness equalization through the scaled cumulative intensity distribution.

The chain is: per-level occupancy histogram -> weighted running sum -> integer
level map via round-half-up of the scaled distribution -> pixel remap. A
constant additive per-level weight (sigma, default 0) can be folded into the
running sum; with sigma = 0 this is exactly classic histogram equalization and
the top occupied level always lands on 255. enhance_with_diagnostics also
returns the histogram, distribution and level map it went through; the
pipeline writes the histogram out as the pre-enhancement CSV.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .pixel_core import ColorBuffer, PixelBuffer, round_half_up

N_LEVELS = 256

__all__ = [
    "N_LEVELS",
    "Histogram",
    "CumulativeDistribution",
    "LevelMap",
    "EnhanceDiagnostics",
    "histogram",
    "color_histogram",
    "cumulative",
    "quantize_levels",
    "apply_map",
    "enhance",
    "enhance_with_diagnostics",
    "enhance_color",
]


class Histogram:
    """Per-level pixel occupancy of one frame; mass is the normalized version."""

    __slots__ = ("_counts",)

    def __init__(self, counts):
        arr = np.asarray(counts)
        if arr.shape != (N_LEVELS,):
            raise ConfigurationError(f"Histogram needs {N_LEVELS} per-level counts, got shape {arr.shape}")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ConfigurationError(f"Histogram counts must be integers, got dtype {arr.dtype}")
        if arr.min() < 0:
            raise ConfigurationError("Histogram counts must be nonnegative")
        if arr.sum() == 0:
            raise ConfigurationError("Histogram must cover at least one sample")
        self._counts = arr.astype(np.int64, copy=True)
        self._counts.setflags(write=False)

    @property
    def counts(self) -> np.ndarray:
        return self._counts

    @property
    def area(self) -> int:
        return int(self._counts.sum())

    @property
    def mass(self) -> np.ndarray:
        """Occupancy normalized by sample count; sums to 1."""
        return self._counts / self.area

    def __eq__(self, other):
        return isinstance(other, Histogram) and np.array_equal(self._counts, other._counts)

    def __repr__(self):
        return f"Histogram(area={self.area}, occupied={int(np.count_nonzero(self._counts))})"


def histogram(frame: PixelBuffer) -> Histogram:
    """Count how many samples sit at each of the 256 intensity levels."""
    return Histogram(np.bincount(frame.samples, minlength=N_LEVELS))


def color_histogram(frame: ColorBuffer) -> Histogram:
    """Occupancy pooled over all three channel planes."""
    return Histogram(np.bincount(frame.data.ravel(), minlength=N_LEVELS))


class CumulativeDistribution:
    """Running sum of per-level mass (plus any additive weight), length 256."""

    __slots__ = ("_values",)

    def __init__(self, values):
        arr = np.asarray(values, dtype=np.float64)
        if arr.shape != (N_LEVELS,):
            raise ConfigurationError(
                f"CumulativeDistribution needs {N_LEVELS} values, got shape {arr.shape}"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        self._values = arr

    @property
    def values(self) -> np.ndarray:
        return self._values

    def __eq__(self, other):
        return isinstance(other, CumulativeDistribution) and np.array_equal(
            self._values, other._values
        )

    def __repr__(self):
        return f"CumulativeDistribution(top={self._values[-1]!r})"


def cumulative(hist, sigma: float = 0.0) -> CumulativeDistribution:
    """Running sum of mass[0..l] plus a constant weight sigma per level, for each level l.

    Accepts a Histogram or a raw length-256 mass vector (so purely synthetic
    distributions can be cumulated too). The default sigma = 0 leaves a plain
    cumulative histogram; nonzero values are exposed for experimentation and
    suspend the unit-sum guarantees on the distribution.
    """
    mass = hist.mass if isinstance(hist, Histogram) else np.asarray(hist, dtype=np.float64)
    if mass.shape != (N_LEVELS,):
        raise ConfigurationError(f"expected {N_LEVELS} mass entries, got shape {mass.shape}")
    return CumulativeDistribution(np.cumsum(mass + sigma))


class LevelMap:
    """Integer lookup table from input level to output level, both 0..255."""

    __slots__ = ("_table",)

    def __init__(self, table):
        arr = np.asarray(table)
        if arr.shape != (N_LEVELS,):
            raise ConfigurationError(f"LevelMap needs {N_LEVELS} entries, got shape {arr.shape}")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ConfigurationError(f"LevelMap entries must be integers, got dtype {arr.dtype}")
        if arr.min() < 0 or arr.max() > N_LEVELS - 1:
            raise ConfigurationError("LevelMap entries must lie in [0, 255]")
        out = arr.astype(np.uint8, copy=True)
        out.setflags(write=False)
        self._table = out

    @classmethod
    def identity(cls) -> "LevelMap":
        return cls(np.arange(N_LEVELS, dtype=np.uint8))

    @property
    def table(self) -> np.ndarray:
        return self._table

    def __eq__(self, other):
        return isinstance(other, LevelMap) and np.array_equal(self._table, other._table)

    def __repr__(self):
        return f"LevelMap(top={int(self._table[-1])})"


def quantize_levels(cdf: CumulativeDistribution) -> LevelMap:
    """Scale the distribution onto 0..255 and round half up, clamping to range."""
    scaled = round_half_up(cdf.values * (N_LEVELS - 1))
    return LevelMap(np.clip(scaled, 0, N_LEVELS - 1).astype(np.int64))


def apply_map(frame: PixelBuffer, level_map: LevelMap) -> PixelBuffer:
    """Remap every sample through the lookup table."""
    return PixelBuffer(level_map.table[frame.data])


@dataclass
class EnhanceDiagnostics:
    """Intermediate products of one enhancement: histogram in, map out."""

    input_histogram: Histogram
    distribution: CumulativeDistribution
    level_map: LevelMap


def enhance_with_diagnostics(frame: PixelBuffer, sigma: float = 0.0) -> tuple[PixelBuffer, EnhanceDiagnostics]:
    """Equalize a grayscale frame and return the intermediates alongside."""
    hist = histogram(frame)
    cdf = cumulative(hist, sigma)
    level_map = quantize_levels(cdf)
    return apply_map(frame, level_map), EnhanceDiagnostics(hist, cdf, level_map)


def enhance(frame: PixelBuffer, sigma: float = 0.0) -> PixelBuffer:
    """Equalize a grayscale frame's brightness over the full dynamic range."""
    enhanced, _ = enhance_with_diagnostics(frame, sigma)
    return enhanced


def enhance_color(frame: ColorBuffer, sigma: float = 0.0) -> ColorBuffer:
    """Equalize each RGB channel plane independently and reassemble."""
    red, green, blue = frame.planes()
    return ColorBuffer.from_planes(
        enhance(red, sigma), enhance(green, sigma), enhance(blue, sigma)
    )
