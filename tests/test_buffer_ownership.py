"""Buffers own their samples.

The public constructors check and copy the caller's array; every library
result is read-only and shares no memory with an array a caller holds, so
mutating that array afterwards changes no buffer made before or after.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import block_texture, color_block_texture

import lumaforge
from lumaforge import pipeline
from lumaforge import (
    NOISE_KINDS,
    ColorBuffer,
    Dimensions,
    FilterWindow,
    NoiseSpec,
    PixelBuffer,
    apply_noise,
    decode_image,
    encode_image,
    enhance_with_diagnostics,
    histogram,
    hybrid_median_filter,
    ingest_frames,
    median_filter,
    read_image,
    resize_nearest,
    rgb_to_luma,
    write_image,
)


def kernel_outputs(frame) -> dict:
    """Every library kernel that builds a new buffer from `frame`, by name."""
    _, pre, post = enhance_with_diagnostics(frame)
    outputs = {
        "resize_down": resize_nearest(frame, Dimensions(5, 3)),
        "resize_up": resize_nearest(frame, Dimensions(11, 13)),
        "median_3x3": median_filter(frame, FilterWindow(3, 3)),
        "median_1x1": median_filter(frame, FilterWindow(1, 1)),
        "hybrid_median": hybrid_median_filter(frame),
        "enhance": enhance_with_diagnostics(frame)[0],
        "decode": decode_image(encode_image(frame)),
        "pre_counts": pre,
        "post_counts": post,
        "histogram": histogram(frame),
    }
    for kind in NOISE_KINDS:
        outputs[f"noise_{kind}"] = apply_noise(frame, NoiseSpec(kind, 0.0 if kind == "poisson" else 0.05, 3))
    if isinstance(frame, ColorBuffer):
        outputs["luma"] = rgb_to_luma(frame)
    return outputs


def samples(output) -> np.ndarray:
    return output.counts if isinstance(output, lumaforge.Histogram) else output.data


def gray_and_color():
    return [block_texture(1, rows=9, cols=7, block=2).data, color_block_texture(2, rows=9, cols=7, block=2).data]


@pytest.mark.parametrize("arr", gray_and_color(), ids=["gray", "color"])
def test_every_kernel_output_is_read_only(arr):
    frame = (PixelBuffer if arr.ndim == 2 else ColorBuffer)(arr)
    for name, output in kernel_outputs(frame).items():
        with pytest.raises(ValueError, match="read-only"):
            samples(output)[0] = 1
        assert not np.shares_memory(samples(output), frame.data), name


def test_read_and_promoted_frames_are_read_only(tmp_path):
    write_image(block_texture(3, rows=4, cols=6), tmp_path / "clip_000.pgm")
    write_image(color_block_texture(4, rows=4, cols=6), tmp_path / "rgb_000.ppm")
    for path in tmp_path.iterdir():
        with pytest.raises(ValueError, match="read-only"):
            read_image(path).data[0, 0] = 1
    (tmp_path / "rgb_000.ppm").unlink()
    loaded = ingest_frames(tmp_path).load(0)
    promoted = pipeline._promoted(loaded)
    assert isinstance(loaded, PixelBuffer) and isinstance(promoted, ColorBuffer)
    for frame in (loaded, promoted):
        with pytest.raises(ValueError, match="read-only"):
            frame.data[0, 0] = 1


@pytest.mark.parametrize("arr", gray_and_color(), ids=["gray", "color"])
def test_mutating_the_constructor_array_changes_no_output(arr):
    arr = arr.copy()
    frame = (PixelBuffer if arr.ndim == 2 else ColorBuffer)(arr)
    before = kernel_outputs(frame)
    kept = {name: samples(output).copy() for name, output in before.items()}
    arr[...] = 255 - arr
    after = kernel_outputs(frame)
    for name in kept:
        assert np.array_equal(samples(before[name]), kept[name]), name
        assert np.array_equal(samples(after[name]), kept[name]), name
        assert not np.shares_memory(samples(after[name]), arr), name


@pytest.mark.parametrize("arr", gray_and_color() + [np.arange(12, dtype=np.int64).reshape(3, 4)],
                         ids=["gray", "color", "int64"])
def test_public_constructors_copy(arr):
    arr = arr.copy()
    frame = (PixelBuffer if arr.ndim == 2 else ColorBuffer)(arr)
    assert not np.shares_memory(frame.data, arr)
    first = frame.data.copy()
    arr[...] = 255 - arr
    assert np.array_equal(frame.data, first)


@pytest.mark.parametrize("wrap", [bytearray, lambda data: memoryview(bytearray(data))], ids=["bytearray", "memoryview"])
@pytest.mark.parametrize("frame", [block_texture(5, rows=3, cols=5), color_block_texture(6, rows=3, cols=5)],
                         ids=["gray", "color"])
def test_decode_copies_a_mutable_buffer(frame, wrap):
    raw = wrap(encode_image(frame))
    decoded = decode_image(raw)
    raw[-15:] = bytes(15)
    assert decoded == frame
    assert not np.shares_memory(decoded.data, np.frombuffer(raw, dtype=np.uint8))


def test_importing_the_cli_builds_no_table():
    """Tables are built on first use, so importing the program costs no set-up time."""
    child = (
        "import lumaforge.cli\n"
        "from lumaforge.noise_models import _gaussian_tables, _poisson_tables\n"
        "from lumaforge.quality_metrics import _cell\n"
        "from lumaforge.smoothing_filters import _plan\n"
        "print([f.cache_info().currsize for f in (_gaussian_tables, _poisson_tables, _plan, _cell)])\n"
    )
    src = str(Path(lumaforge.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", child], env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[0, 0, 0, 0]"
