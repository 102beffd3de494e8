"""Neighborhood rank filters for smoothing noisy frames.

Both filters use odd windows and zero padding at the borders (out-of-frame
positions contribute intensity 0). The plain median replaces each pixel with
the middle order statistic of its full window; the hybrid median takes the
median of three values (the plus-shaped neighborhood median, the X-shaped
neighborhood median, and the center pixel), which preserves thin lines and
corners that the plain median erases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError
from .pixel_core import PixelBuffer

__all__ = ["FilterWindow", "check_hybrid_window", "median_filter", "hybrid_median_filter"]


@dataclass(frozen=True)
class FilterWindow:
    """Window extent in rows x cols; both must be odd and at least 1."""

    rows: int = 3
    cols: int = 3

    def __post_init__(self):
        for name, v in (("rows", self.rows), ("cols", self.cols)):
            if v < 1 or v % 2 == 0:
                raise ConfigurationError(f"window {name} must be odd and >= 1, got {v}")


def _padded_windows(data: np.ndarray, rows: int, cols: int) -> np.ndarray:
    half_r, half_c = rows // 2, cols // 2
    padded = np.zeros((data.shape[0] + 2 * half_r, data.shape[1] + 2 * half_c), dtype=data.dtype)
    padded[half_r:half_r + data.shape[0], half_c:half_c + data.shape[1]] = data
    return sliding_window_view(padded, (rows, cols))


def _lower_median(values: np.ndarray) -> np.ndarray:
    # lower of the two middle order statistics when the count is even;
    # the exact middle when odd (the only case reachable with odd windows)
    n = values.shape[-1]
    return np.sort(values, axis=-1)[..., (n - 1) // 2]


def median_filter(frame: PixelBuffer, window: FilterWindow = FilterWindow()) -> PixelBuffer:
    """Replace each pixel with the median of its window; 1x1 is the identity."""
    wins = _padded_windows(frame.data, window.rows, window.cols)
    flat = wins.reshape(frame.data.shape[0], frame.data.shape[1], window.rows * window.cols)
    return PixelBuffer(_lower_median(flat))


def check_hybrid_window(window: FilterWindow) -> None:
    """Raise ConfigurationError unless the window is square with side >= 3."""
    if window.rows != window.cols:
        raise ConfigurationError(
            f"hybrid median needs a square window, got {window.rows}x{window.cols}"
        )
    if window.rows < 3:
        raise ConfigurationError(f"hybrid median needs window side >= 3, got {window.rows}")


def hybrid_median_filter(frame: PixelBuffer, window: FilterWindow = FilterWindow()) -> PixelBuffer:
    """Median of {plus-neighborhood median, X-neighborhood median, center}.

    The plus neighborhood is the window's center row and center column; the X
    neighborhood is both diagonals; each includes the center pixel, for 2k-1
    values apiece. Requires a square window of odd side k >= 3.
    """
    check_hybrid_window(window)
    k = window.rows
    half = k // 2
    span = np.arange(k)
    off_center = span[span != half]

    plus_r = np.concatenate([np.full(k, half), off_center])
    plus_c = np.concatenate([span, np.full(k - 1, half)])
    x_r = np.concatenate([span, off_center])
    x_c = np.concatenate([span, k - 1 - off_center])

    wins = _padded_windows(frame.data, k, k)
    m_plus = _lower_median(wins[..., plus_r, plus_c])
    m_x = _lower_median(wins[..., x_r, x_c])
    stacked = np.stack([m_plus, m_x, frame.data])
    return PixelBuffer(np.sort(stacked, axis=0)[1])
