"""Acceptance suite: one test per release criterion, tolerances pinned inline.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion.
"""

import functools
import math
import time

import numpy as np
import pytest
from conftest import block_texture, color_block_texture

from _oracles import oracle_equalize, oracle_hybrid_median_filter, oracle_median_filter
from lumaforge import (
    ColorBuffer,
    Dimensions,
    FilterSpec,
    FilterWindow,
    NoiseSpec,
    PipelineConfig,
    PixelBuffer,
    apply_noise,
    decode_image,
    encode_image,
    enhance,
    enhance_color,
    gaussian,
    histogram,
    hybrid_median_filter,
    improvement_pct,
    level_map,
    median_filter,
    poisson,
    psnr,
    read_image,
    run_pipeline,
    salt_pepper,
    speckle,
    write_image,
)


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number}: FAIL - {label}")
                raise
            print(f"criterion {number}: PASS - {label}")
            return result

        return wrapper

    return decorate


@criterion(1, "enhance matches the brute-force equalization oracle on 1000 random 8x8 frames")
def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    for _ in range(1000):
        arr = rng.integers(0, 256, (8, 8), dtype=np.uint8)
        ours = enhance(PixelBuffer(arr)).data.tolist()
        assert ours == oracle_equalize(arr.tolist())
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"oracle sweep took {elapsed:.2f}s (limit 5s)"


@criterion(2, "published gray/color PSNR pairs reproduce the improvement percentages")
def test_criterion_2_improvement_reproduction():
    pairs = [
        (31.95, 36.45, 12.35),  # printed as 12.45 in the source table; 12.35 is what the formula gives
        (22.30, 26.65, 16.32),
        (17.71, 24.45, 27.57),
        (23.17, 28.90, 19.83),
        (15.06, 21.19, 28.93),
        (19.17, 28.06, 31.68),
    ]
    for gray_db, color_db, expected in pairs:
        got = improvement_pct(gray_db, color_db)
        assert abs(got - expected) <= 0.01, f"({gray_db}, {color_db}) -> {got:.4f}, expected {expected}"


@criterion(3, "3x3 median filtering beats the noisy frame in >= 95 of 100 impulse-noise trials")
def test_criterion_3_filter_improves_psnr():
    wins = 0
    for trial in range(100):
        clean = block_texture(trial, rows=144, cols=176)
        noisy = salt_pepper(clean, 0.05, seed=5000 + trial)
        filtered = median_filter(noisy, FilterWindow(3, 3))
        if psnr(filtered, clean).psnr_db > psnr(noisy, clean).psnr_db:
            wins += 1
    assert wins >= 95, f"filtered PSNR won only {wins}/100 trials"


@criterion(4, "PSNR formula anchors: identical -> inf, diff-1 -> 48.13 dB, full swing -> 0 dB")
def test_criterion_4_psnr_formula():
    same = PixelBuffer(np.arange(64, dtype=np.uint8).reshape(8, 8))
    assert psnr(same, same).is_infinite

    zero = PixelBuffer(np.zeros((16, 16), dtype=np.uint8))
    one = PixelBuffer(np.ones((16, 16), dtype=np.uint8))
    assert abs(psnr(zero, one).psnr_db - 48.13) <= 0.01

    full = PixelBuffer(np.full((16, 16), 255, dtype=np.uint8))
    assert abs(psnr(zero, full).psnr_db - 0.0) <= 0.001


@criterion(5, "histogram/cdf/map invariants hold on 500 random frames")
def test_criterion_5_distribution_invariants():
    rng = np.random.default_rng(555)
    for _ in range(500):
        rows, cols = int(rng.integers(1, 33)), int(rng.integers(1, 33))
        frame = PixelBuffer(rng.integers(0, 256, (rows, cols), dtype=np.uint8))
        hist = histogram(frame)
        assert abs(hist.mass.sum() - 1.0) <= 1e-9
        cdf = np.cumsum(hist.mass)
        assert np.all(np.diff(cdf) >= 0)
        assert abs(cdf[-1] - 1.0) <= 1e-9
        table = level_map(hist).astype(np.int64)
        assert np.all(np.diff(table) >= 0)
        assert table[255] == 255


@criterion(6, "every constant frame enhances to all-255 gray / all-white color")
def test_criterion_6_constant_frame_law():
    dims = Dimensions(5, 7)
    for value in range(256):
        assert np.all(enhance(PixelBuffer.full(dims, value)).data == 255)
    rng = np.random.default_rng(66)
    triples = [(0, 0, 0), (255, 255, 255), (10, 200, 37)] + [
        tuple(int(v) for v in rng.integers(0, 256, 3)) for _ in range(16)
    ]
    for rgb in triples:
        assert np.all(enhance_color(ColorBuffer.full(dims, rgb)).data == 255)


@criterion(7, "noise statistics: corruption fraction band and exact zero-level identities")
def test_criterion_7_noise_statistics():
    mid = PixelBuffer(np.full((256, 256), 128, dtype=np.uint8))
    fractions = [
        float(np.mean(salt_pepper(mid, 0.1, seed).data != 128)) for seed in range(20)
    ]
    average = float(np.mean(fractions))
    assert 0.09 <= average <= 0.11, f"corrupted fraction {average:.4f} outside [0.09, 0.11]"

    frame = block_texture(7, rows=32, cols=32)
    assert salt_pepper(frame, 0.0, 1) == frame
    assert gaussian(frame, 0.0, 1) == frame
    assert speckle(frame, 0.0, 1) == frame

    zeros = PixelBuffer(np.zeros((32, 32), dtype=np.uint8))
    assert poisson(zeros, 9) == zeros


@criterion(8, "median and hybrid-median match the window-materializing oracle exactly")
def test_criterion_8_filter_oracle():
    rng = np.random.default_rng(888)
    window = FilterWindow(3, 3)
    for _ in range(200):
        arr = rng.integers(0, 256, (7, 7), dtype=np.uint8)
        frame = PixelBuffer(arr)
        assert median_filter(frame, window).data.tolist() == oracle_median_filter(arr.tolist(), 3, 3)
        assert hybrid_median_filter(frame, window).data.tolist() == oracle_hybrid_median_filter(
            arr.tolist(), 3
        )

    impulse = np.zeros((5, 5), dtype=np.uint8)
    impulse[2, 2] = 255
    assert np.all(median_filter(PixelBuffer(impulse), window).data == 0)
    assert hybrid_median_filter(PixelBuffer(impulse), window).data[2, 2] == 0

    line = np.zeros((5, 7), dtype=np.uint8)
    line[2, :] = 255
    assert np.all(hybrid_median_filter(PixelBuffer(line), window).data[2, 1:-1] == 255)


@criterion(9, "300-frame run: < 30s, 300 enhanced frames, byte-identical across worker counts")
def test_criterion_9_determinism_and_format(tmp_path):
    in_dir = tmp_path / "frames"
    in_dir.mkdir()
    for i in range(300):
        write_image(color_block_texture(i, rows=144, cols=176), in_dir / f"clip_{i:03d}.ppm")

    cfg = PipelineConfig(
        input_dir=in_dir,
        output_dir=tmp_path / "out",
        resize_to=Dimensions(144, 176),
        noise=NoiseSpec("salt_pepper", 0.05, 2026),
        filter=FilterSpec("median", FilterWindow(3, 3)),
        mode="gray",
        seed=2026,
    )
    start = time.perf_counter()
    report = run_pipeline(cfg, jobs=1)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"300-frame run took {elapsed:.1f}s (limit 30s)"
    assert report.n_frames == 300

    out = tmp_path / "out"
    enhanced = sorted(out.glob("*_enhanced_*.pgm"))
    assert len(enhanced) == 300
    assert len(list(out.glob("*_hist_*.csv"))) == 600

    import hashlib

    def tree_digest():
        return {
            str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*"))
            if p.is_file()
        }

    first = tree_digest()
    run_pipeline(cfg, jobs=4)
    assert tree_digest() == first, "re-run with 4 workers changed output bytes"

    rng = np.random.default_rng(99)
    gray = PixelBuffer(rng.integers(0, 256, (144, 176), dtype=np.uint8))
    color = ColorBuffer(rng.integers(0, 256, (144, 176, 3), dtype=np.uint8))
    for buf, name in ((gray, "rt.pgm"), (color, "rt.ppm")):
        path = tmp_path / name
        write_image(buf, path)
        assert read_image(path) == buf
        assert encode_image(decode_image(path.read_bytes())) == path.read_bytes()
