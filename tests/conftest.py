import threading

import numpy as np
import pytest

from lumaforge import ColorBuffer, PixelBuffer


@pytest.fixture(autouse=True)
def no_leftover_threads():
    """Fail a test that leaves a thread alive that was not there before it."""
    before = set(threading.enumerate())
    yield
    leftover = [t.name for t in threading.enumerate() if t not in before and t.is_alive()]
    assert leftover == [], f"threads left alive: {leftover}"


def block_texture(seed: int, rows: int = 144, cols: int = 176, block: int = 8) -> PixelBuffer:
    """Seeded piecewise-constant texture: a coarse random grid upsampled by block.

    Spatially smooth enough that neighborhood filtering is meaningful (an iid
    noise frame has no structure for a median filter to preserve).
    """
    rng = np.random.default_rng(seed)
    coarse_shape = ((rows + block - 1) // block, (cols + block - 1) // block)
    coarse = rng.integers(0, 256, size=coarse_shape, dtype=np.uint8)
    upsampled = np.kron(coarse, np.ones((block, block), dtype=np.uint8))
    return PixelBuffer(upsampled[:rows, :cols])


def color_block_texture(seed: int, rows: int = 144, cols: int = 176, block: int = 8) -> ColorBuffer:
    return from_planes(*(block_texture(seed * 3 + c, rows, cols, block) for c in range(3)))


def from_planes(red: PixelBuffer, green: PixelBuffer, blue: PixelBuffer) -> ColorBuffer:
    """The color frame whose channels are the three gray planes."""
    return ColorBuffer(np.stack([red.data, green.data, blue.data], axis=-1))


def planes(frame: ColorBuffer) -> tuple[PixelBuffer, PixelBuffer, PixelBuffer]:
    """A color frame's red, green and blue channels as gray planes."""
    return tuple(PixelBuffer(frame.data[:, :, c]) for c in range(3))
