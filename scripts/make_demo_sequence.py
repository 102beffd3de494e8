#!/usr/bin/env python3
"""Synthesize a color PPM frame sequence to feed the pipeline.

Frames are a drifting block texture with a moving bright bar, so there is
visible structure for smoothing and equalization to act on. Example:

    python scripts/make_demo_sequence.py demo_frames --frames 12 --seed 7
    lumaforge run --input-dir demo_frames --output-dir demo_out --mode both \
        --noise-kind salt_pepper --noise-d 0.05 --filter-kind median --seed 7
"""

import argparse
from pathlib import Path

import numpy as np

from lumaforge import ColorBuffer, write_image


def synth_frame(rng: np.random.Generator, rows: int, cols: int, block: int = 8) -> ColorBuffer:
    """A block texture: a coarse grid of random RGB levels in 20..199, upsampled by block."""
    coarse_shape = ((rows + block - 1) // block, (cols + block - 1) // block, 3)
    coarse = rng.integers(20, 200, size=coarse_shape, dtype=np.uint8)
    return ColorBuffer(np.kron(coarse, np.ones((block, block, 1), dtype=np.uint8))[:rows, :cols])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("output_dir", help="directory to fill with <stem>_<index>.ppm frames")
    parser.add_argument("--frames", type=int, default=12)
    parser.add_argument("--rows", type=int, default=144)
    parser.add_argument("--cols", type=int, default=176)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--stem", default="demo")
    args = parser.parse_args()

    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    base = synth_frame(rng, args.rows, args.cols)
    for tick in range(args.frames):
        drifted = np.roll(base.data, shift=tick * 2, axis=1)  # horizontal drift
        bar_row = (tick * 5) % args.rows
        drifted[bar_row:bar_row + 4, :, :] = 230
        write_image(ColorBuffer(drifted), out_dir / f"{args.stem}_{tick:03d}.ppm")
    print(f"wrote {args.frames} frames ({args.rows}x{args.cols}) to {out_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
