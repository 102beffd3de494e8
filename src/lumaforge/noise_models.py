"""Seeded noise models that push pixel intensities away from their clean values.

Four kinds: impulse ("salt_pepper"), additive gaussian, shot ("poisson"), and
multiplicative uniform ("speckle"). The level parameter d is a corruption
density for salt_pepper and a variance in normalized [0, 1] intensity units for
gaussian and speckle; poisson is signal-dependent and takes no level. Every
variate comes from a counter-based stream, so the value at pixel i depends only
on (seed, i, kind, d) and, for the signal-dependent kinds, on that pixel's own
clean value, never on its neighbors.

Every model takes a gray or a color frame. A gray plane draws from the seed
itself; channel c of a color frame draws from derive_seed(seed, c + 1).
"""

from __future__ import annotations

import functools
import math
import numbers
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .pixel_core import ColorBuffer, PixelBuffer, round_half_up
from .rng import U64_MAX, derive_seed, site_hashes, site_uniforms

NOISE_KINDS = ("salt_pepper", "gaussian", "poisson", "speckle")
_BUILDING = threading.Lock()  # functools builds a missing table unlocked; a second worker waits here

__all__ = ["NOISE_KINDS", "NoiseSpec", "apply_noise", "salt_pepper", "gaussian", "poisson", "speckle"]


@dataclass(frozen=True)
class NoiseSpec:
    """Noise selector: kind, level d (meaning depends on kind; poisson takes none, so its d must be 0), stream seed."""

    kind: str
    d: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ConfigurationError(
                f"unknown noise kind {self.kind!r}; expected one of {NOISE_KINDS}"
            )
        # numpy scalars are numbers too, a bool is not
        if not isinstance(self.d, numbers.Real) or isinstance(self.d, bool):
            raise ConfigurationError(f"noise level d must be a real number, got {self.d!r}")
        if not isinstance(self.seed, numbers.Integral) or isinstance(self.seed, bool):
            raise ConfigurationError(f"seed must be an integer, got {self.seed!r}")
        # the stream hashes mix the seed as a python int modulo 2**64; a numpy one overflows
        object.__setattr__(self, "seed", int(self.seed))
        if not 0 <= self.seed <= U64_MAX:
            raise ConfigurationError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        if not math.isfinite(self.d):
            raise ConfigurationError(f"noise level d must be finite, got {self.d}")
        if self.kind == "salt_pepper" and not 0.0 <= self.d <= 1.0:
            raise ConfigurationError(f"salt_pepper density must lie in [0, 1], got {self.d}")
        if self.kind in ("gaussian", "speckle") and self.d < 0:
            raise ConfigurationError(f"{self.kind} variance must be nonnegative, got {self.d}")
        if self.kind == "poisson" and self.d != 0:
            raise ConfigurationError(f"poisson noise is signal-dependent and takes no level d, got {self.d}")
        if self.kind == "speckle" and not math.isfinite(3.0 * float(self.d)):  # a numpy scalar would warn
            raise ConfigurationError(f"speckle variance must keep 3*d finite (d up to about 5.99e307), got {self.d}")


def apply_noise(frame: PixelBuffer | ColorBuffer, spec: NoiseSpec) -> PixelBuffer | ColorBuffer:
    """Apply the model named by the spec to a gray or a color frame.

    A level of 0 returns the frame as it is, but poisson takes no level. The
    model runs one plane at a time, so a color frame holds no more float
    temporaries at once than a gray one. Identical (frame, spec) inputs always
    produce identical output buffers.
    """
    if spec.d == 0 and spec.kind != "poisson":
        return frame  # salt_pepper would still salt a uniform of exactly 1.0
    kernel = _KERNELS[spec.kind]
    data = frame.data
    if data.ndim == 2:
        return type(frame)._adopt(kernel(data, spec.d, spec.seed))
    out = np.empty_like(data)
    for c in range(data.shape[2]):
        out[..., c] = kernel(data[..., c], spec.d, derive_seed(spec.seed, c + 1))
    return type(frame)._adopt(out)


def salt_pepper(frame: PixelBuffer | ColorBuffer, d: float, seed: int) -> PixelBuffer | ColorBuffer:
    """Replace each pixel, independently with probability d, by 0 or 255.

    Pepper (0) and salt (255) are equally likely at d/2 each. d = 0 is the
    identity; d = 1 forces every pixel to an extreme.
    """
    return apply_noise(frame, NoiseSpec("salt_pepper", d, seed))


def gaussian(frame: PixelBuffer | ColorBuffer, d: float, seed: int) -> PixelBuffer | ColorBuffer:
    """Add zero-mean gaussian noise of variance d in normalized intensity.

    Per pixel: clamp(x/255 + n, 0, 1) with n ~ Normal(0, d), re-quantized by
    round-half-up. Clamping skews an all-black frame positive, as expected.
    The requantized offset out - x has one distribution for every x before
    the clamp, so one hash per pixel inverts a tabulated CDF of that offset
    (from math.erfc once per d, as integer cutpoints), and the clamp is applied
    to x + offset: the same model, sampled without a per-pixel transcendental.
    """
    return apply_noise(frame, NoiseSpec("gaussian", d, seed))


def poisson(frame: PixelBuffer | ColorBuffer, seed: int) -> PixelBuffer | ColorBuffer:
    """Draw each output from Poisson(lambda = clean 8-bit value), clamped to 255.

    Inverts the tabulated CDF of the clamped Poisson with one hash per pixel:
    the output is the smallest k with cdf[lambda, k] >= u, u its uniform, by
    integer cutpoints from the guide start, one step and 8 bisection rounds
    for the ~1% still short. Pixel i's output depends only on (seed, i,
    lambda_i), never on its neighbors. An all-zero frame is a fixed point.
    """
    return apply_noise(frame, NoiseSpec("poisson", 0.0, seed))


def speckle(frame: PixelBuffer | ColorBuffer, d: float, seed: int) -> PixelBuffer | ColorBuffer:
    """Multiplicative noise: x' = clamp(x/255 * (1 + n), 0, 1), requantized.

    n is uniform on [-sqrt(3d), +sqrt(3d)], i.e. zero-mean with variance d; 3d must be finite.
    """
    return apply_noise(frame, NoiseSpec("speckle", d, seed))


def _top_cuts(c: np.ndarray) -> np.ndarray:
    """Per threshold c, the smallest m whose uniform fl(m + 0.5) * 2**-53 exceeds c (2**53 for c >= 1.0).

    It is the uniform of each hash h with h >> 11 = m and lies in [m, m + 1] * 2**-53, so m is
    floor(c * 2**53) - 1, + 1 or + 2. Returned as exact float64 integers.
    """
    m = np.maximum(np.floor(c * 2.0**53), 1.0) - 1.0
    for _ in range(2):
        m += (m + 0.5) * 2.0**-53 <= c
    return m


def _salt_pepper(plane: np.ndarray, d: float, seed: int) -> np.ndarray:
    # h < pepper iff its uniform u < d/2, and h >= salt iff u >= 1 - d/2, i.e. u > the double below 1 - d/2
    pepper, salt = (np.uint64(int(_top_cuts(np.nextafter(c, -1.0))) << 11) for c in (d / 2.0, 1.0 - d / 2.0))
    out = plane.copy()
    h = site_hashes(seed, out.size).reshape(out.shape)
    out[h < pepper] = 0
    out[h >= salt] = 255
    return out


@functools.lru_cache(maxsize=16)
def _gaussian_tables(d: float) -> tuple[np.ndarray, np.ndarray]:
    """(cut, guide) of the requantized gaussian offset for variance d, both read-only.

    Round-half-up of x + 255*sqrt(d)*n lands at or below x + t - 255 with
    probability cdf[t] = Phi((t - 255 + 0.5) / (255*sqrt(d))), made monotone
    after math.erfc, for every input level x; t = 0..510 covers every output
    of every x, and cdf[511] = 1. cut[t] is the smallest hash whose uniform
    exceeds cdf[t] < 1.0, so np.searchsorted(cut, h, "right") is
    np.searchsorted(cdf, u) for the hash h of uniform u. guide[j] is that
    count for every hash h with h >> 50 = j, or -1 where a cutpoint splits
    the cell. Built on first use for each d; no temporary exceeds guide's 32 KB.
    """
    scale = 255.0 * math.sqrt(d) * math.sqrt(2.0)
    m = _top_cuts(np.maximum.accumulate([0.5 * math.erfc((254.5 - t) / scale) for t in range(511)]))
    m = m[m < 2.0**53]
    cells = m * 2.0**-39  # cut[t] lies in cell floor(cells[t]), at its start if cells[t] is whole
    counts = np.diff(np.ceil(cells), prepend=0, append=1 << 14).astype(np.intp)
    guide = np.repeat(np.arange(m.size + 1, dtype=np.int16), counts)
    guide[np.floor(cells[cells % 1.0 != 0]).astype(np.intp)] = -1
    cut = m.astype(np.uint64) << np.uint64(11)
    cut.flags.writeable = guide.flags.writeable = False
    return cut, guide


def _guided_search(cut: np.ndarray, guide: np.ndarray, h: np.ndarray) -> np.ndarray:
    """np.searchsorted(cut, h, "right") as int16, read from the guide where it holds the count."""
    t = guide.take(np.right_shift(h, np.uint64(50)).view(np.intp))
    pending = np.flatnonzero(t < 0)  # about 1% of hashes at d = 0.01
    t[pending] = np.searchsorted(cut, h[pending], "right")
    return t


def _gaussian(plane: np.ndarray, d: float, seed: int) -> np.ndarray:
    with _BUILDING:
        cut, guide = _gaussian_tables(float(d))
    out = _guided_search(cut, guide, site_hashes(seed, plane.size)).reshape(plane.shape)
    out += plane
    out -= 255
    return np.clip(out, 0, 255, out=out).astype(np.uint8)


@functools.cache
def _poisson_tables() -> tuple[np.ndarray, np.ndarray]:
    """Flattened (last, guide) tables of min(Poisson(lam), 255) for lam = 0..255, read-only.

    cdf[lam, k] = P(min(X, 255) <= k) is 1 minus the normalized upper tail:
    monotone, and exactly 1 where the tail is below double resolution and in
    column 255, the clamp. A hash is short of column k (cdf < its uniform) iff
    it exceeds last[lam*256 + k], the largest hash whose uniform is at most
    cdf: U64_MAX where cdf is 1.0, and also where no uniform is that small,
    left of every guide start, so never read. guide[lam*256 + j] counts the
    columns short at hash j << 56, a start for each hash h with h >> 56 = j
    (Chen & Asau, 1974). Built on first use, 8 rows at a time (temps ~32 KB).
    """
    # P(Poisson(255) > 511) is below 1e-50, so the pmf stops at k = 511
    k = np.arange(512.0)
    log_k_factorial = np.array([math.lgamma(i + 1.0) for i in range(512)])
    last = np.full((256, 256), U64_MAX, dtype=np.uint64)
    guide = np.zeros((256, 256), dtype=np.uint8)  # lam = 0 always gives 0
    for first in range(1, 256, 8):
        lam = np.arange(first, min(first + 8, 256), dtype=np.float64)[:, None]
        log_lam = np.array([[math.log(i)] for i in range(first, first + len(lam))])
        pmf = np.exp(k * log_lam - lam - log_k_factorial)
        above = np.cumsum(pmf[:, :0:-1], axis=1)[:, ::-1]  # above[:, k] = P(X > k)
        m = _top_cuts(1.0 - above[:, :255] / pmf.sum(axis=1, keepdims=True))
        last[first:first + 8, :255] = (m.astype(np.uint64) << np.uint64(11)) - np.uint64(1)  # 2**53 and 0 wrap
        cells = np.ceil(m * 2.0**-45).astype(np.intp) + 257 * np.arange(len(lam))[:, None]
        counts = np.bincount(cells.ravel(), minlength=257 * len(lam)).reshape(-1, 257)
        guide[first:first + 8] = np.cumsum(counts, axis=1)[:, :256]
    last, guide = last.ravel(), guide.ravel()
    last.flags.writeable = guide.flags.writeable = False
    return last, guide


def _poisson_search(last: np.ndarray, guide: np.ndarray, lam: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Per pixel, the smallest k with h <= last[lam*256 + k], as uint8."""
    at = np.left_shift(lam, 8, dtype=np.intp)  # row lam of the tables; from here on the low byte of `at` is k
    cell = np.right_shift(h, np.uint64(56)).view(np.intp)
    cell += at
    at += guide.take(cell)
    # the guide start settles ~90% of pixels and one step ~90% of the rest
    pending = np.flatnonzero(h > last.take(at, out=cell.view(np.uint64)))  # reuses cell's buffer
    at[pending] += 1
    pending = pending[h[pending] > last[at[pending]]]
    # bisection: lo stays short and climbs by halving steps, capped at
    # row + 255, which no hash is short of; 128 + 64 + ... + 1 = 255 spans any gap
    lo, top, v = at[pending], at[pending] | 255, h[pending]
    for step in (128, 64, 32, 16, 8, 4, 2, 1):
        probe = np.minimum(lo + step, top)
        lo = np.where(v > last[probe], probe, lo)
    at[pending] = lo + 1
    return at.astype(np.uint8)


def _poisson(plane: np.ndarray, d: float, seed: int) -> np.ndarray:
    with _BUILDING:
        tables = _poisson_tables()
    return _poisson_search(*tables, plane.ravel(), site_hashes(seed, plane.size)).reshape(plane.shape)


def _speckle(plane: np.ndarray, d: float, seed: int) -> np.ndarray:
    u = site_uniforms(seed, plane.size).reshape(plane.shape)
    noise = (2.0 * u - 1.0) * np.sqrt(3.0 * d)
    level = np.clip(plane / 255.0 * (1.0 + noise), 0.0, 1.0)
    return round_half_up(255.0 * level).astype(np.uint8)


# kind -> kernel: one uint8 plane, the level d and the plane's seed in, one uint8 plane out
_KERNELS = {"salt_pepper": _salt_pepper, "gaussian": _gaussian, "poisson": _poisson, "speckle": _speckle}
