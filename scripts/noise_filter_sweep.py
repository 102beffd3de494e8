#!/usr/bin/env python3
"""Sweep impulse-noise density against both smoothing filters.

For each density d the script corrupts the red plane of a seeded block
texture (the one make_demo_sequence.py draws) with salt-and-pepper noise,
smooths it with the plain median and the hybrid median (3x3), and prints the
PSNR of each result against the clean frame. Useful for picking a
filter/window before a batch run.

    python scripts/noise_filter_sweep.py --densities 0.02 0.05 0.1 0.2
"""

import argparse

import numpy as np

from lumaforge import FilterWindow, PixelBuffer, hybrid_median_filter, median_filter, psnr, salt_pepper
from make_demo_sequence import synth_frame  # sibling script in scripts/


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--densities", type=float, nargs="+", default=[0.02, 0.05, 0.1, 0.2, 0.4])
    parser.add_argument("--rows", type=int, default=144)
    parser.add_argument("--cols", type=int, default=176)
    parser.add_argument("--window", type=int, default=3, help="square window side")
    parser.add_argument("--trials", type=int, default=10, help="seeded trials per density")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    window = FilterWindow(args.window, args.window)
    print(f"{'d':>6}  {'noisy dB':>9}  {'median dB':>9}  {'hybrid dB':>9}")
    for d in args.densities:
        noisy_db, median_db, hybrid_db = [], [], []
        for trial in range(args.trials):
            frame = synth_frame(np.random.default_rng(args.seed + trial), args.rows, args.cols)
            clean = PixelBuffer(frame.data[:, :, 0])
            noisy = salt_pepper(clean, d, seed=args.seed + 1000 + trial)
            noisy_db.append(psnr(noisy, clean).psnr_db)
            median_db.append(psnr(median_filter(noisy, window), clean).psnr_db)
            hybrid_db.append(psnr(hybrid_median_filter(noisy, window), clean).psnr_db)
        print(
            f"{d:6.3f}  {np.mean(noisy_db):9.2f}  {np.mean(median_db):9.2f}  {np.mean(hybrid_db):9.2f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
