"""Frame buffers and the colorimetric/geometric primitives on them.

Intensity samples are 8-bit integers stored row-major. Buffers freeze their
backing arrays at construction, so values are immutable and every operation
below is a pure function returning a new buffer; all of it is safe to call
from any number of concurrent workers.
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


def _validated_u8(data, ndim: int, what: str) -> np.ndarray:
    arr = np.asarray(data)
    if arr.ndim != ndim:
        raise ConfigurationError(f"{what} expects a {ndim}-d array, got shape {arr.shape}")
    if arr.size == 0:
        raise ConfigurationError(f"{what} must not be empty")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ConfigurationError(f"{what} samples must be integers, got dtype {arr.dtype}")
    if arr.min() < 0 or arr.max() > 255:
        raise ConfigurationError(f"{what} samples must lie in [0, 255]")
    out = arr.astype(np.uint8, copy=True)
    out.setflags(write=False)
    return out


class PixelBuffer:
    """Grayscale frame: a read-only (rows, cols) uint8 grid."""

    __slots__ = ("_data",)

    def __init__(self, data):
        self._data = _validated_u8(data, 2, "PixelBuffer")

    @classmethod
    def from_samples(cls, dims: Dimensions, samples) -> "PixelBuffer":
        flat = np.asarray(samples)
        if flat.size != dims.area:
            raise ConfigurationError(
                f"expected {dims.area} samples for {dims.rows}x{dims.cols}, got {flat.size}"
            )
        return cls(flat.reshape(dims.rows, dims.cols))

    @classmethod
    def full(cls, dims: Dimensions, value: int) -> "PixelBuffer":
        return cls(np.full((dims.rows, dims.cols), value, dtype=np.int64))

    @property
    def data(self) -> np.ndarray:
        return self._data

    @property
    def dims(self) -> Dimensions:
        return Dimensions(self._data.shape[0], self._data.shape[1])

    @property
    def samples(self) -> np.ndarray:
        """Flat row-major view of the samples."""
        return self._data.ravel()

    def __eq__(self, other):
        return isinstance(other, PixelBuffer) and np.array_equal(self._data, other._data)

    def __repr__(self):
        return f"PixelBuffer({self._data.shape[0]}x{self._data.shape[1]})"


class ColorBuffer:
    """RGB frame: a read-only (rows, cols, 3) uint8 grid."""

    __slots__ = ("_data",)

    def __init__(self, data):
        arr = _validated_u8(data, 3, "ColorBuffer")
        if arr.shape[2] != 3:
            raise ConfigurationError(
                f"ColorBuffer expects 3 channels, got {arr.shape[2]}"
            )
        self._data = arr

    @classmethod
    def from_planes(cls, red: PixelBuffer, green: PixelBuffer, blue: PixelBuffer) -> "ColorBuffer":
        if not (red.dims == green.dims == blue.dims):
            raise ConfigurationError("channel planes must share one set of dimensions")
        return cls(np.stack([red.data, green.data, blue.data], axis=-1))

    @classmethod
    def full(cls, dims: Dimensions, rgb: tuple[int, int, int]) -> "ColorBuffer":
        plane = np.empty((dims.rows, dims.cols, 3), dtype=np.int64)
        plane[..., 0], plane[..., 1], plane[..., 2] = rgb
        return cls(plane)

    @property
    def data(self) -> np.ndarray:
        return self._data

    @property
    def dims(self) -> Dimensions:
        return Dimensions(self._data.shape[0], self._data.shape[1])

    @property
    def samples(self) -> np.ndarray:
        """Flat row-major view: one (r, g, b) triple per pixel."""
        return self._data.reshape(-1, 3)

    def channel(self, index: int) -> PixelBuffer:
        return PixelBuffer(self._data[:, :, index])

    def planes(self) -> tuple[PixelBuffer, PixelBuffer, PixelBuffer]:
        return self.channel(0), self.channel(1), self.channel(2)

    def __eq__(self, other):
        return isinstance(other, ColorBuffer) and np.array_equal(self._data, other._data)

    def __repr__(self):
        return f"ColorBuffer({self._data.shape[0]}x{self._data.shape[1]})"


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


def rgb_to_luma(frame: ColorBuffer, weights: LumaWeights = BT601_WEIGHTS) -> PixelBuffer:
    """Collapse RGB to intensity: round_half_up(red*R + green*G + blue*B).

    Gray inputs (R = G = B) map to themselves exactly. The [0, 255] clamp is a
    guard for weight sums a hair above 1; it never fires for valid weights.
    """
    rgb = frame.data.astype(np.float64)
    y = weights.red * rgb[..., 0] + weights.green * rgb[..., 1] + weights.blue * rgb[..., 2]
    return PixelBuffer(np.clip(round_half_up(y), 0, 255).astype(np.uint8))


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
    rows_src, cols_src = src.shape[0], src.shape[1]
    row_idx = (np.arange(target.rows) * rows_src) // target.rows
    col_idx = (np.arange(target.cols) * cols_src) // target.cols
    return type(frame)(src[row_idx[:, None], col_idx[None, :]])
