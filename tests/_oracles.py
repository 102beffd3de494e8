"""Brute-force reference implementations, independent of the library code paths.

These materialize every window explicitly and run plain python arithmetic so
the vectorized implementations have something honest to be checked against.
Expected values frozen in the test modules were produced by these.
"""

import math

import numpy as np


def median_lower(values):
    """Lower of the two middle order statistics (the middle one for odd counts)."""
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def oracle_median_filter(grid, win_rows, win_cols):
    rows, cols = len(grid), len(grid[0])
    half_r, half_c = win_rows // 2, win_cols // 2
    out = [[0] * cols for _ in range(rows)]
    for r in range(rows):
        for c in range(cols):
            values = []
            for dr in range(-half_r, half_r + 1):
                for dc in range(-half_c, half_c + 1):
                    rr, cc = r + dr, c + dc
                    inside = 0 <= rr < rows and 0 <= cc < cols
                    values.append(grid[rr][cc] if inside else 0)
            out[r][c] = median_lower(values)
    return out


def oracle_hybrid_median_filter(grid, side):
    rows, cols = len(grid), len(grid[0])
    half = side // 2

    def at(rr, cc):
        return grid[rr][cc] if 0 <= rr < rows and 0 <= cc < cols else 0

    out = [[0] * cols for _ in range(rows)]
    for r in range(rows):
        for c in range(cols):
            plus = [at(r, c + dc) for dc in range(-half, half + 1)]
            plus += [at(r + dr, c) for dr in range(-half, half + 1) if dr != 0]
            cross = [at(r + d, c + d) for d in range(-half, half + 1)]
            cross += [at(r + d, c - d) for d in range(-half, half + 1) if d != 0]
            out[r][c] = median_lower([median_lower(plus), median_lower(cross), grid[r][c]])
    return out


def oracle_equalize(grid, sigma=0.0):
    """Textbook equalization: count levels -> cumulative -> round-half-up scale -> lookup.

    sigma is a constant weight added to every level's mass before it joins the
    running sum, in the same operation order as the library.
    """
    flat = [v for row in grid for v in row]
    counts = [0] * 256
    for v in flat:
        counts[v] += 1
    area = len(flat)
    table = []
    running = 0.0
    for level in range(256):
        running += counts[level] / area + sigma
        table.append(min(255, max(0, math.floor(running * 255 + 0.5))))
    return [[table[v] for v in row] for row in grid]


def oracle_poisson_tables():
    """Flattened (cdf, guide) of min(Poisson(lam), 255), built one lam row at a time.

    The row-at-a-time numpy build the library used before its row-block build;
    the library's tables must equal these bit for bit.
    """
    k = np.arange(512)
    log_k_factorial = np.array([math.lgamma(i + 1.0) for i in k])
    cutpoints = np.arange(256) / 256.0
    cdf = np.ones((256, 256))
    guide = np.zeros((256, 256), dtype=np.uint8)
    for lam in range(1, 256):
        pmf = np.exp(k * math.log(lam) - lam - log_k_factorial)
        above = np.cumsum(pmf[:0:-1])[::-1]  # above[k] = P(X > k)
        cdf[lam, :255] = 1.0 - above[:255] / pmf.sum()
        guide[lam] = np.searchsorted(cdf[lam], cutpoints, side="right")
    return cdf.ravel(), guide.ravel()
