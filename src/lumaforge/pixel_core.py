"""Frame buffers and the colorimetric/geometric primitives on them.

Intensity samples are 8-bit integers stored row-major. PixelBuffer (gray)
and ColorBuffer (RGB) share one body and differ only by their trailing
channel shape. Constructors copy the caller's array; library results own a
fresh one. So no buffer aliases a caller's array, every buffer is read-only, and
every operation below is a pure function, safe from any number of workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "Dimensions",
    "PixelBuffer",
    "ColorBuffer",
    "LumaWeights",
    "BT601_WEIGHTS",
    "round_half_up",
    "rgb_to_luma",
    "resize_nearest",
]


def round_half_up(x):
    """Nearest integer with halves rounded up: floor(x + 0.5).

    This is the single rounding convention used throughout the toolkit
    (luminance conversion, noise re-quantization, level quantization).
    """
    return np.floor(x + 0.5)


@dataclass(frozen=True)
class Dimensions:
    """Frame geometry, rows x cols, each at least 1."""

    rows: int
    cols: int

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ConfigurationError(
                f"dimensions must be at least 1x1, got {self.rows}x{self.cols}"
            )

    @property
    def area(self) -> int:
        return self.rows * self.cols


def _own(cls, data: np.ndarray):
    """A cls over fresh, well-formed data that no caller holds, in its `_data` slot: frozen, unchecked, not copied."""
    value = cls.__new__(cls)
    value._data = data
    data.setflags(write=False)
    return value


class _Frame:
    """Shared body of both buffer kinds: a read-only uint8 (rows, cols) + _channels grid."""

    __slots__ = ("_data",)
    _channels: tuple[int, ...] = ()
    _adopt = classmethod(_own)

    def __init__(self, data):
        what = type(self).__name__
        ndim = 2 + len(self._channels)
        arr = np.asarray(data)
        if arr.ndim != ndim:
            raise ConfigurationError(f"{what} expects a {ndim}-d array, got shape {arr.shape}")
        if arr.size == 0:
            raise ConfigurationError(f"{what} must not be empty")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ConfigurationError(f"{what} samples must be integers, got dtype {arr.dtype}")
        if arr.dtype != np.uint8 and (arr.min() < 0 or arr.max() > 255):  # uint8 is in range by its type
            raise ConfigurationError(f"{what} samples must lie in [0, 255]")
        if arr.shape[2:] != self._channels:
            raise ConfigurationError(f"{what} expects {self._channels[0]} channels, got {arr.shape[2]}")
        self._data = arr.astype(np.uint8, copy=True)
        self._data.setflags(write=False)

    @classmethod
    def full(cls, dims: Dimensions, value):
        """A constant frame: one level, or for color one (r, g, b) triple."""
        return cls(np.full((dims.rows, dims.cols) + cls._channels, value, dtype=np.int64))

    @property
    def data(self) -> np.ndarray:
        return self._data

    @property
    def dims(self) -> Dimensions:
        return Dimensions(self._data.shape[0], self._data.shape[1])

    def __eq__(self, other):
        return type(other) is type(self) and np.array_equal(self._data, other._data)

    def __repr__(self):
        return f"{type(self).__name__}({self._data.shape[0]}x{self._data.shape[1]})"


class PixelBuffer(_Frame):
    """Grayscale frame: a read-only (rows, cols) uint8 grid."""

    __slots__ = ()


class ColorBuffer(_Frame):
    """RGB frame: a read-only (rows, cols, 3) uint8 grid."""

    __slots__ = ()
    _channels = (3,)


@dataclass(frozen=True)
class LumaWeights:
    """Channel coefficients for the luminance combination.

    Nonnegative and summing to 1 (within 1e-9), so the combination of in-range
    channels is convex and stays in range.
    """

    red: float = 0.299
    green: float = 0.587
    blue: float = 0.114

    def __post_init__(self):
        for name, w in (("red", self.red), ("green", self.green), ("blue", self.blue)):
            if not math.isfinite(w) or w < 0:
                raise ConfigurationError(f"{name} weight must be finite and nonnegative, got {w}")
        total = self.red + self.green + self.blue
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError(f"luma weights must sum to 1, got {total!r}")


BT601_WEIGHTS = LumaWeights(0.299, 0.587, 0.114)


def rgb_to_luma(frame: ColorBuffer | PixelBuffer, weights: LumaWeights = BT601_WEIGHTS) -> PixelBuffer:
    """Collapse RGB to intensity: round_half_up(red*R + green*G + blue*B).

    Gray inputs (R = G = B) map to themselves exactly, and a PixelBuffer is returned as it is. No clamp is
    needed: valid weights are nonnegative and sum to at most 1 + 1e-9, so the weighted sum is at most
    255 * (1 + 1e-9), which rounds to at most 255.
    """
    if isinstance(frame, PixelBuffer):
        return frame
    rgb = frame.data
    # (red*R + green*G) + blue*B, each uint8 plane multiplied straight into float64
    y = np.multiply(rgb[..., 0], weights.red, dtype=np.float64)
    term = np.multiply(rgb[..., 1], weights.green, dtype=np.float64)
    y += term
    y += np.multiply(rgb[..., 2], weights.blue, dtype=np.float64, out=term)
    np.floor(np.add(y, 0.5, out=y), out=y)  # round_half_up in place
    return PixelBuffer._adopt(y.astype(np.uint8))


def resize_nearest(frame, target: Dimensions):
    """Nearest-neighbor resample onto target dims with floor index mapping.

    Output site (r, c) copies source site (r*rows_src // rows_dst,
    c*cols_src // cols_dst). Resizing to the source dims is exactly the
    identity and returns the (immutable) input itself; works on PixelBuffer
    and ColorBuffer alike.
    """
    if frame.dims == target:
        return frame
    src = frame.data
    rows = (np.arange(target.rows) * src.shape[0]) // target.rows
    cols = (np.arange(target.cols) * src.shape[1]) // target.cols
    return type(frame)._adopt(src.take(rows, axis=0).take(cols, axis=1))
