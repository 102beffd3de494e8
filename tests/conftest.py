import hashlib
import threading

import numpy as np
import pytest

from lumaforge import ColorBuffer, PixelBuffer, write_image


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


def write_gray_sequence(directory, stem, frames):
    directory.mkdir(parents=True, exist_ok=True)
    for i, frame in enumerate(frames):
        write_image(frame, directory / f"{stem}_{i:03d}.pgm")


def write_color_sequence(directory, stem, frames):
    directory.mkdir(parents=True, exist_ok=True)
    for i, frame in enumerate(frames):
        write_image(frame, directory / f"{stem}_{i:03d}.ppm")


def tree_digest(directory):
    """sha256 of every file under directory, keyed by its relative path."""
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }
