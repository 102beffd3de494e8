"""Brightness equalization through the scaled cumulative intensity distribution.

The chain is: per-level occupancy histogram -> weighted running sum -> integer
level map via round-half-up of the scaled distribution -> pixel remap. A
constant additive per-level weight (sigma, default 0) can be folded into the
running sum; with sigma = 0 this is exactly classic histogram equalization and
the top occupied level always lands on 255. enhance_with_diagnostics also
returns the input histogram, which the pipeline writes out as the
pre-enhancement CSV.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .pixel_core import ColorBuffer, PixelBuffer, round_half_up

N_LEVELS = 256

__all__ = [
    "N_LEVELS",
    "Histogram",
    "histogram",
    "color_histogram",
    "level_map",
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


def level_map(hist: Histogram, sigma: float = 0.0) -> np.ndarray:
    """Lookup table (uint8, length 256) from input level to equalized level.

    Entry l is round_half_up(255 * C(l)) clamped to 0..255, where C(l) is the
    running sum of mass[0..l] plus a constant weight sigma per level. The
    default sigma = 0 is a plain cumulative histogram, so the table is
    nondecreasing and its top entry is 255; nonzero values are exposed for
    experimentation and suspend those guarantees.
    """
    scaled = round_half_up(np.cumsum(hist.mass + sigma) * (N_LEVELS - 1))
    return np.clip(scaled, 0, N_LEVELS - 1).astype(np.uint8)


def _equalize(plane: np.ndarray, sigma: float) -> tuple[np.ndarray, Histogram]:
    """One uint8 plane remapped through its own level map, and its histogram."""
    hist = Histogram(np.bincount(plane.ravel(), minlength=N_LEVELS))
    return level_map(hist, sigma)[plane], hist


def enhance_with_diagnostics(frame: PixelBuffer, sigma: float = 0.0) -> tuple[PixelBuffer, Histogram]:
    """Equalize a grayscale frame; also return the histogram it was equalized by."""
    out, hist = _equalize(frame.data, sigma)
    return PixelBuffer(out), hist


def enhance(frame: PixelBuffer, sigma: float = 0.0) -> PixelBuffer:
    """Equalize a grayscale frame's brightness over the full dynamic range."""
    return enhance_with_diagnostics(frame, sigma)[0]


def enhance_color(frame: ColorBuffer, sigma: float = 0.0) -> ColorBuffer:
    """Equalize each RGB channel plane independently, through its own histogram."""
    planes = [_equalize(frame.data[..., channel], sigma)[0] for channel in range(3)]
    return ColorBuffer(np.stack(planes, axis=-1))
