"""Brightness equalization through the scaled cumulative intensity distribution.

The chain is: per-level occupancy histogram -> weighted running sum -> integer
level map via round-half-up of the scaled distribution -> pixel remap. A
constant additive per-level weight (sigma, default 0) can be folded into the
running sum; with sigma = 0 this is exactly classic histogram equalization and
the top occupied level always lands on 255. Gray and color frames take the
same path: each channel plane is equalized through its own level map, and
enhance_with_diagnostics also returns the input and output histograms pooled
over the planes, which the pipeline writes out as the pre/post CSVs.
"""

from __future__ import annotations

import numpy as np

from .pixel_core import ColorBuffer, PixelBuffer, _own, round_half_up

N_LEVELS = 256

__all__ = [
    "N_LEVELS",
    "Histogram",
    "histogram",
    "level_map",
    "enhance",
    "enhance_with_diagnostics",
    "enhance_color",
]


class Histogram:
    """Per-level pixel occupancy of one frame; mass is the normalized version."""

    __slots__ = ("_data",)
    _adopt = classmethod(_own)

    @property
    def counts(self) -> np.ndarray:
        return self._data

    @property
    def area(self) -> int:
        return int(self._data.sum())

    @property
    def mass(self) -> np.ndarray:
        """Occupancy normalized by sample count; sums to 1."""
        return self._data / self.area


def histogram(frame: PixelBuffer | ColorBuffer) -> Histogram:
    """Samples per intensity level, pooled over the channel planes of a color frame."""
    return Histogram._adopt(np.bincount(frame.data.ravel(), minlength=N_LEVELS))


def level_map(hist: Histogram, sigma: float = 0.0) -> np.ndarray:
    """Lookup table (uint8, length 256) from input level to equalized level.

    Entry l is round_half_up(255 * C(l)) clamped to 0..255, where C(l) is the
    running sum of mass[0..l] plus a constant weight sigma per level. The
    default sigma = 0 is a plain cumulative histogram, so the table is
    nondecreasing and its top entry is 255; nonzero values are exposed for
    experimentation and suspend those guarantees. A huge sigma saturates.
    """
    with np.errstate(over="ignore"):  # a huge sigma's sum overflows to +-inf, which clamps as the exact sum would
        scaled = round_half_up(np.cumsum(hist.mass + sigma) * (N_LEVELS - 1))
    return np.clip(scaled, 0, N_LEVELS - 1).astype(np.uint8)


def enhance_with_diagnostics(frame: PixelBuffer | ColorBuffer, sigma: float = 0.0) -> tuple:
    """Equalize each channel plane through its own level map.

    Returns (enhanced frame, pre histogram, post histogram), both pooled over
    the planes. The post counts are each plane's input counts pushed through
    its table, with no second pass over the pixels: exactly histogram(enhanced).
    """
    data = frame.data
    planes = data.reshape(data.shape[:2] + (-1,))
    out = np.empty_like(planes)
    pre, post = np.zeros((2, N_LEVELS), dtype=np.int64)
    for k in range(planes.shape[2]):
        counts = np.bincount(planes[..., k].ravel(), minlength=N_LEVELS)
        table = level_map(Histogram._adopt(counts), sigma)
        out[..., k] = table.take(planes[..., k])
        pre += counts
        np.add.at(post, table, counts)
    return type(frame)._adopt(out.reshape(data.shape)), Histogram._adopt(pre), Histogram._adopt(post)


def enhance(frame: PixelBuffer | ColorBuffer, sigma: float = 0.0) -> PixelBuffer | ColorBuffer:
    """Equalize a frame's brightness over the full dynamic range, per channel plane."""
    return enhance_with_diagnostics(frame, sigma)[0]


enhance_color = enhance  # the name stays because the acceptance suite calls it
