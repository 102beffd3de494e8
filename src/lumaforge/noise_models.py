"""Seeded noise models that push pixel intensities away from their clean values.

Four kinds: impulse ("salt_pepper"), additive gaussian, shot ("poisson"), and
multiplicative uniform ("speckle"). The level parameter d is a corruption
density for salt_pepper and a variance in normalized [0, 1] intensity units for
gaussian and speckle; poisson is signal-dependent and takes no level. Every
variate comes from a counter-based stream, so the value at pixel i depends only
on (seed, i, kind, d) and, for the signal-dependent kinds, on that pixel's own
clean value, never on its neighbors.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .pixel_core import PixelBuffer, round_half_up
from .rng import U64_MAX, site_normals, site_uniforms, site_uniforms_at

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
        if not 0 <= self.seed <= U64_MAX:
            raise ConfigurationError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        if not math.isfinite(self.d):
            raise ConfigurationError(f"noise level d must be finite, got {self.d}")
        if self.kind == "salt_pepper" and not 0.0 <= self.d <= 1.0:
            raise ConfigurationError(f"salt_pepper density must lie in [0, 1], got {self.d}")
        if self.kind in ("gaussian", "speckle") and self.d < 0:
            raise ConfigurationError(f"{self.kind} variance must be nonnegative, got {self.d}")
        # poisson: d is recorded but unused; apply_noise warns when it is nonzero


def apply_noise(frame: PixelBuffer, spec: NoiseSpec) -> PixelBuffer:
    """Dispatch to the model named by the spec.

    Identical (frame, spec) inputs always produce identical output buffers.
    """
    if spec.kind == "salt_pepper":
        return salt_pepper(frame, spec.d, spec.seed)
    if spec.kind == "gaussian":
        return gaussian(frame, spec.d, spec.seed)
    if spec.kind == "poisson":
        if spec.d != 0:
            warnings.warn(
                f"poisson noise is signal-dependent; level d={spec.d!r} is ignored",
                stacklevel=2,
            )
        return poisson(frame, spec.seed)
    if spec.kind == "speckle":
        return speckle(frame, spec.d, spec.seed)
    raise ConfigurationError(f"unknown noise kind {spec.kind!r}")


def salt_pepper(frame: PixelBuffer, d: float, seed: int) -> PixelBuffer:
    """Replace each pixel, independently with probability d, by 0 or 255.

    Pepper (0) and salt (255) are equally likely at d/2 each. d = 0 is the
    identity; d = 1 forces every pixel to an extreme.
    """
    if not 0.0 <= d <= 1.0:
        raise ConfigurationError(f"salt_pepper density must lie in [0, 1], got {d}")
    out = frame.data.copy()
    u = site_uniforms(seed, out.size).reshape(out.shape)
    out[u < d / 2.0] = 0
    out[u >= 1.0 - d / 2.0] = 255
    return PixelBuffer(out)


def gaussian(frame: PixelBuffer, d: float, seed: int) -> PixelBuffer:
    """Add zero-mean gaussian noise of variance d in normalized intensity.

    Per pixel: clamp(x/255 + n, 0, 1) with n ~ Normal(0, d), re-quantized by
    round-half-up. Clamping skews an all-black frame positive, as expected.
    """
    if d < 0:
        raise ConfigurationError(f"gaussian variance must be nonnegative, got {d}")
    if d == 0:
        return PixelBuffer(frame.data)
    noise = np.sqrt(d) * site_normals(seed, frame.data.size).reshape(frame.data.shape)
    level = np.clip(frame.data / 255.0 + noise, 0.0, 1.0)
    return PixelBuffer(round_half_up(255.0 * level).astype(np.uint8))


def poisson(frame: PixelBuffer, seed: int) -> PixelBuffer:
    """Draw each output from Poisson(lambda = clean 8-bit value), clamped to 255.

    Uses the product-of-uniforms sampler; pixel i consumes only its own
    (seed, i, draw) stream, so its output never depends on neighboring pixels,
    no matter how many draws those needed. An all-zero frame is a fixed point.
    """
    lam = frame.data.astype(np.float64).ravel()
    stop = np.exp(-lam)  # smallest case e^-255 is still a normal double
    product = np.ones(lam.size)
    events = np.zeros(lam.size, dtype=np.int64)
    pending = np.arange(lam.size)
    draw = 0
    while pending.size:
        u = site_uniforms_at(seed, pending, draw)
        product[pending] *= u
        events[pending] += 1
        pending = pending[product[pending] > stop[pending]]
        draw += 1
    samples = np.clip(events - 1, 0, 255).astype(np.uint8)
    return PixelBuffer(samples.reshape(frame.data.shape))


def speckle(frame: PixelBuffer, d: float, seed: int) -> PixelBuffer:
    """Multiplicative noise: x' = clamp(x/255 * (1 + n), 0, 1), requantized.

    n is uniform on [-sqrt(3d), +sqrt(3d)], i.e. zero-mean with variance d.
    """
    if d < 0:
        raise ConfigurationError(f"speckle variance must be nonnegative, got {d}")
    if d == 0:
        return PixelBuffer(frame.data)
    u = site_uniforms(seed, frame.data.size).reshape(frame.data.shape)
    noise = (2.0 * u - 1.0) * np.sqrt(3.0 * d)
    level = np.clip(frame.data / 255.0 * (1.0 + noise), 0.0, 1.0)
    return PixelBuffer(round_half_up(255.0 * level).astype(np.uint8))
