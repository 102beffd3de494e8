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
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .pixel_core import ColorBuffer, PixelBuffer, round_half_up
from .rng import U64_MAX, derive_seed, site_uniforms

NOISE_KINDS = ("salt_pepper", "gaussian", "poisson", "speckle")

__all__ = ["NOISE_KINDS", "NoiseSpec", "apply_noise", "salt_pepper", "gaussian", "poisson", "speckle"]


@dataclass(frozen=True)
class NoiseSpec:
    """Noise selector: kind, level d (meaning depends on kind), stream seed."""

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
        # poisson: d is recorded but unused; apply_noise warns when it is nonzero


def apply_noise(frame: PixelBuffer | ColorBuffer, spec: NoiseSpec) -> PixelBuffer | ColorBuffer:
    """Apply the model named by the spec to a gray or a color frame.

    The model runs one plane at a time, so a color frame holds no more float
    temporaries at once than a gray one. Identical (frame, spec) inputs always
    produce identical output buffers.
    """
    if spec.kind == "poisson":
        if spec.d != 0:
            warnings.warn(f"poisson noise is signal-dependent; level d={spec.d!r} is ignored", stacklevel=2)
    elif spec.d == 0:
        # d = 0 is the identity; salt_pepper would still salt a uniform of exactly 1.0
        return frame
    kernel = _KERNELS[spec.kind]
    data = frame.data
    if data.ndim == 2:
        return type(frame)(kernel(data, spec.d, spec.seed))
    out = np.empty_like(data)
    for c in range(data.shape[2]):
        out[..., c] = kernel(data[..., c], spec.d, derive_seed(spec.seed, c + 1))
    return type(frame)(out)


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
    the clamp, so one uniform per pixel inverts a tabulated CDF of that
    offset (built from math.erfc once per d), and the clamp is applied to
    x + offset: the same model, sampled without a per-pixel transcendental.
    """
    return apply_noise(frame, NoiseSpec("gaussian", d, seed))


def poisson(frame: PixelBuffer | ColorBuffer, seed: int) -> PixelBuffer | ColorBuffer:
    """Draw each output from Poisson(lambda = clean 8-bit value), clamped to 255.

    Inverts the tabulated CDF of the clamped Poisson with one uniform per
    pixel: the output is the smallest k with cdf[lambda, k] >= u, found from
    the guide-table start by one step, then by 8 rounds of bisection for the
    ~1% of pixels still short. Pixel i's output depends only on (seed, i,
    lambda_i), never on its neighbors. An all-zero frame is a fixed point.
    """
    return apply_noise(frame, NoiseSpec("poisson", 0.0, seed))


def speckle(frame: PixelBuffer | ColorBuffer, d: float, seed: int) -> PixelBuffer | ColorBuffer:
    """Multiplicative noise: x' = clamp(x/255 * (1 + n), 0, 1), requantized.

    n is uniform on [-sqrt(3d), +sqrt(3d)], i.e. zero-mean with variance d.
    """
    return apply_noise(frame, NoiseSpec("speckle", d, seed))


def _salt_pepper(plane: np.ndarray, d: float, seed: int) -> np.ndarray:
    out = plane.copy()
    u = site_uniforms(seed, out.size).reshape(out.shape)
    out[u < d / 2.0] = 0
    out[u >= 1.0 - d / 2.0] = 255
    return out


_GUIDE_CUTS = 4096  # cells of the gaussian guide table


@functools.lru_cache(maxsize=16)
def _gaussian_tables(d: float) -> tuple[np.ndarray, np.ndarray]:
    """(cdf, guide) of the requantized gaussian offset for variance d.

    Round-half-up of x + 255*sqrt(d)*n lands at or below x + t - 255 with
    probability cdf[t] = Phi((t - 255 + 0.5) / (255*sqrt(d))), the same for
    every input level x, so t = 0..510 covers every output of every x and
    cdf[511] = 1 ends the table. The cdf is made monotone after math.erfc.
    guide[j] is the smallest t with cdf[t] >= j/_GUIDE_CUTS, for j = 0 to
    _GUIDE_CUTS, a lower bound on the search for any u at or above that
    cutpoint. Built on first use for each d; both arrays are read-only.
    """
    scale = 255.0 * math.sqrt(d) * math.sqrt(2.0)
    cdf = np.array([0.5 * math.erfc((254.5 - t) / scale) for t in range(511)] + [1.0])
    np.maximum.accumulate(cdf, out=cdf)
    guide = np.searchsorted(cdf, np.arange(_GUIDE_CUTS + 1) / _GUIDE_CUTS)
    cdf.flags.writeable = guide.flags.writeable = False
    return cdf, guide


def _guided_search(cdf: np.ndarray, guide: np.ndarray, u: np.ndarray) -> np.ndarray:
    """np.searchsorted(cdf, u) for u in (0, 1], started from the guide table."""
    t = guide[(u * _GUIDE_CUTS).astype(np.intp)]
    # the guide settles all but ~2% of pixels; in the tails a walk from it
    # would take up to ~90 steps, so the rest get one plain search
    pending = np.flatnonzero(cdf[t] < u)
    t[pending] = np.searchsorted(cdf, u[pending])
    return t


def _gaussian(plane: np.ndarray, d: float, seed: int) -> np.ndarray:
    cdf, guide = _gaussian_tables(float(d))
    out = _guided_search(cdf, guide, site_uniforms(seed, plane.size)).reshape(plane.shape)
    out += plane
    out -= 255
    return np.clip(out, 0, 255, out=out).astype(np.uint8)


@functools.cache
def _poisson_tables() -> tuple[np.ndarray, np.ndarray]:
    """Flattened (cdf, guide) tables of min(Poisson(lam), 255) for lam = 0..255.

    cdf[lam*256 + k] = P(min(X, 255) <= k), taken as 1 minus the normalized
    upper tail so that it is monotone, never above 1, and exactly 1 wherever
    the tail is below double resolution; column 255 is 1.0, which is the
    clamp. guide[lam*256 + j] is the smallest k with cdf > j/256, where the
    search for any u in [j/256, (j+1)/256) may start (Chen & Asau, 1974; no
    cdf entry equals a cutpoint). As cdf <= j/256 iff ceil(256*cdf) <= j, it
    is a cumulative bincount. Rows are built 16 at a time, so temporaries
    stay near 64 KB. Built on first use; both arrays are read-only.
    """
    # P(Poisson(255) > 511) is below 1e-50, so the pmf stops at k = 511
    k = np.arange(512.0)
    log_k_factorial = np.array([math.lgamma(i + 1.0) for i in range(512)])
    cdf = np.ones((256, 256))
    guide = np.zeros((256, 256), dtype=np.uint8)  # lam = 0 always gives 0
    for first in range(1, 256, 16):
        lam = np.arange(first, min(first + 16, 256), dtype=np.float64)[:, None]
        log_lam = np.array([[math.log(i)] for i in range(first, first + len(lam))])
        pmf = np.exp(k * log_lam - lam - log_k_factorial)
        above = np.cumsum(pmf[:, :0:-1], axis=1)[:, ::-1]  # above[:, k] = P(X > k)
        cdf[first:first + 16, :255] = 1.0 - above[:, :255] / pmf.sum(axis=1, keepdims=True)
        cells = np.ceil(256.0 * cdf[first:first + 16]).astype(np.intp) + 257 * np.arange(len(lam))[:, None]
        counts = np.bincount(cells.ravel(), minlength=257 * len(lam)).reshape(-1, 257)
        guide[first:first + 16] = np.cumsum(counts, axis=1)[:, :256]
    cdf, guide = cdf.ravel(), guide.ravel()
    cdf.flags.writeable = guide.flags.writeable = False
    return cdf, guide


def _poisson_search(cdf: np.ndarray, guide: np.ndarray, lam: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per pixel, np.searchsorted(cdf[lam*256 : lam*256 + 256], u) as uint8, for u in (0, 1]."""
    at = np.left_shift(lam, 8, dtype=np.intp)  # row lam of the tables; from here on the low byte of `at` is k
    cell = (u * 256.0).astype(np.intp)
    np.minimum(cell, 255, out=cell)  # u = 1.0 starts in the top cell
    cell += at
    at += guide[cell]
    # the guide start settles ~90% of pixels and one step ~90% of the rest
    pending = np.flatnonzero(cdf[at] < u)
    at[pending] += 1
    pending = pending[cdf[at[pending]] < u[pending]]
    # bisection: lo keeps cdf[lo] < u and climbs by halving steps, capped at
    # row + 255, where cdf is 1.0; 128 + 64 + ... + 1 = 255 spans any gap
    lo, top, v = at[pending], at[pending] | 255, u[pending]
    for step in (128, 64, 32, 16, 8, 4, 2, 1):
        probe = np.minimum(lo + step, top)
        lo = np.where(cdf[probe] < v, probe, lo)
    at[pending] = lo + 1
    return at.astype(np.uint8)


def _poisson(plane: np.ndarray, d: float, seed: int) -> np.ndarray:
    k = _poisson_search(*_poisson_tables(), plane.ravel(), site_uniforms(seed, plane.size))
    return k.reshape(plane.shape)


def _speckle(plane: np.ndarray, d: float, seed: int) -> np.ndarray:
    u = site_uniforms(seed, plane.size).reshape(plane.shape)
    noise = (2.0 * u - 1.0) * np.sqrt(3.0 * d)
    level = np.clip(plane / 255.0 * (1.0 + noise), 0.0, 1.0)
    return round_half_up(255.0 * level).astype(np.uint8)


# kind -> kernel: one uint8 plane, the level d and the plane's seed in, one uint8 plane out
_KERNELS = {"salt_pepper": _salt_pepper, "gaussian": _gaussian, "poisson": _poisson, "speckle": _speckle}
