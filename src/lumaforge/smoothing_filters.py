"""Neighborhood rank filters for smoothing noisy frames.

Both filters use odd windows and zero padding at the borders (out-of-frame
positions contribute intensity 0). The plain median replaces each pixel with
the middle order statistic of its full window; the hybrid median takes the
median of three values (the plus-shaped neighborhood median, the X-shaped
neighborhood median, and the center pixel), which preserves thin lines and
corners that the plain median erases (Nieminen, Heinonen & Neuvo, IEEE PAMI
1987).

Both run on one kernel: a selection network of compare-exchanges, each an
np.minimum or np.maximum of two whole planes, applied to the shifted views of
the zero-padded frame, one view per window position, so no window is ever
copied out. The network is Batcher's odd-even merge sort (Batcher, "Sorting
networks and their applications", AFIPS SJCC 1968) on the inputs padded to a
power of two with constant-255 wires; the constants are folded out and only
the comparator halves that reach the wanted output are kept. A color frame
takes the same network with its channels as a trailing axis.
"""

from __future__ import annotations

import functools
import itertools
import numbers
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .pixel_core import ColorBuffer, PixelBuffer

__all__ = ["FilterWindow", "median_filter", "hybrid_median_filter"]

# largest window side: past 31x31 (n = 961) a cached plan takes seconds and tens of MB
MAX_WINDOW_SIDE = 31
_BUILDING = threading.Lock()  # functools builds a missing plan unlocked; a second worker waits here


@dataclass(frozen=True)
class FilterWindow:
    """Window extent in rows x cols; both must be odd, at least 1 and at most MAX_WINDOW_SIDE."""

    rows: int = 3
    cols: int = 3

    def __post_init__(self):
        for name, v in (("rows", self.rows), ("cols", self.cols)):
            if not isinstance(v, numbers.Integral) or isinstance(v, bool):
                raise ConfigurationError(f"window {name} must be an integer, got {v!r}")
            if v < 1 or v % 2 == 0 or v > MAX_WINDOW_SIDE:
                raise ConfigurationError(f"window {name} must be odd and in 1..{MAX_WINDOW_SIDE}, got {v}")

    def _check_hybrid(self) -> None:
        """Raise ConfigurationError unless the window is square with side >= 3, as the hybrid median needs."""
        if self.rows != self.cols:
            raise ConfigurationError(f"hybrid median needs a square window, got {self.rows}x{self.cols}")
        if self.rows < 3:
            raise ConfigurationError(f"hybrid median needs window side >= 3, got {self.rows}")


def _batcher_pairs(size: int):
    """Comparators (i, j), i < j, of Batcher's odd-even merge sort on `size` = 2**m wires."""
    p = 1
    while p < size:
        k = p
        while k >= 1:
            for j in range(k % p, size - k, 2 * k):
                for i in range(min(k, size - j - k)):
                    if (i + j) // (2 * p) == (i + j + k) // (2 * p):
                        yield i + j, i + j + k
            k //= 2
        p *= 2


@functools.lru_cache(maxsize=32)
def _plan(n: int, rank: int):
    """(steps, output id) selecting the rank-th smallest of n inputs.

    The inputs are values 0..n-1. A step (np.minimum or np.maximum, a, b,
    made, dead) makes value `made` from values a and b, after which the
    values in `dead` are used no more.
    """
    # wires n..size-1 hold the constant 255. A comparator (i, j), i < j, that
    # touches one has a 255 on its max side j, so it leaves both wires as they
    # are: the constants never move, and only comparators with j < n remain.
    size = 1 << (n - 1).bit_length()
    wires = list(range(n))
    halves: list[tuple] = []  # halves[v - n] = (ufunc, a, b) makes value v
    for i, j in _batcher_pairs(size):
        if j < n:
            a, b = wires[i], wires[j]
            wires[i], wires[j] = n + len(halves), n + len(halves) + 1
            halves += [(np.minimum, a, b), (np.maximum, a, b)]

    # keep only what the output depends on, walking backwards
    needed = {wires[rank]}
    kept = []
    for value in reversed(range(n, n + len(halves))):
        if value in needed:
            op, a, b = halves[value - n]
            kept.append((op, a, b, value))
            needed.update((a, b))
    kept.reverse()

    last_use = {}
    for step, (_, a, b, _) in enumerate(kept):
        last_use[a] = last_use[b] = step
    dead = [[] for _ in kept]
    for value, step in last_use.items():
        dead[step].append(value)
    return tuple(step + (tuple(gone),) for step, gone in zip(kept, dead)), wires[rank]


def _select(views, rank: int) -> np.ndarray:
    """Elementwise rank-th smallest (0-based) of same-shaped uint8 arrays.

    Each plane is dropped after its last use, so about len(views)
    intermediate planes are alive at once.
    """
    with _BUILDING:
        steps, out = _plan(len(views), rank)
    planes = dict(enumerate(views))
    for op, a, b, made, dead in steps:
        planes[made] = op(planes[a], planes[b])
        for value in dead:
            del planes[value]
    return planes[out]


def _shifted_views(data: np.ndarray, rows: int, cols: int, offsets) -> list[np.ndarray]:
    """The zero-padded frame shifted by each window offset (dr, dc), as views."""
    half_r, half_c = rows // 2, cols // 2
    r, c = data.shape[:2]
    padded = np.zeros((r + 2 * half_r, c + 2 * half_c) + data.shape[2:], dtype=np.uint8)
    padded[half_r:half_r + r, half_c:half_c + c] = data
    return [padded[dr:dr + r, dc:dc + c] for dr, dc in offsets]


def median_filter(
    frame: PixelBuffer | ColorBuffer, window: FilterWindow = FilterWindow()
) -> PixelBuffer | ColorBuffer:
    """Replace each sample with the median of its window; 1x1 is the identity."""
    offsets = itertools.product(range(window.rows), range(window.cols))
    views = _shifted_views(frame.data, window.rows, window.cols, offsets)
    return type(frame)._adopt(_select(views, (len(views) - 1) // 2))


def hybrid_median_filter(
    frame: PixelBuffer | ColorBuffer, window: FilterWindow = FilterWindow()
) -> PixelBuffer | ColorBuffer:
    """Median of {plus-neighborhood median, X-neighborhood median, center}.

    The plus neighborhood is the window's center row and center column; the X
    neighborhood is both diagonals; each includes the center pixel, for 2k-1
    values apiece. Requires a square window of odd side k >= 3.
    """
    window._check_hybrid()
    k = window.rows
    half = k // 2
    off_center = [d for d in range(k) if d != half]
    plus = [(half, d) for d in range(k)] + [(d, half) for d in off_center]
    cross = [(d, d) for d in range(k)] + [(d, k - 1 - d) for d in off_center]
    views = _shifted_views(frame.data, k, k, plus + cross)
    m_plus = _select(views[:len(plus)], k - 1)
    m_x = _select(views[len(plus):], k - 1)
    return type(frame)._adopt(
        np.maximum(np.minimum(m_plus, m_x), np.minimum(np.maximum(m_plus, m_x), frame.data))
    )
