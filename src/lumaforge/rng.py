"""Counter-based deterministic random streams.

Every variate is a pure function of (seed, site index, draw index): instead of
advancing shared generator state, the triple is hashed with the splitmix64
finalizer. Outputs are therefore identical under any traversal order, chunking,
or worker count, which is what makes noisy pipeline runs reproducible
byte-for-byte. A stateful generator would also make a pixel's variate depend on
how many draws its predecessors consumed, which matters for the
variable-draw-count samplers (see noise_models.poisson).
"""

from __future__ import annotations

import numpy as np

U64_MAX = (1 << 64) - 1  # largest seed, and the mask for arithmetic mod 2**64
_GOLDEN = 0x9E3779B97F4A7C15  # splitmix64 stream increment
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

__all__ = ["U64_MAX", "mix64", "derive_seed", "site_uniforms", "site_uniforms_at", "site_normals"]


def mix64(value: int) -> int:
    """splitmix64 finalizer on a python int, modulo 2**64."""
    z = value & U64_MAX
    z = ((z ^ (z >> 30)) * _MIX_A) & U64_MAX
    z = ((z ^ (z >> 27)) * _MIX_B) & U64_MAX
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    # uint64 arithmetic wraps silently, matching the scalar mod-2**64 version
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_A)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_B)
    return z ^ (z >> np.uint64(31))


def derive_seed(seed: int, *stream_ids: int) -> int:
    """Fold stream ids (frame index, channel, ...) into a base seed.

    One splitmix step per id; the result is again a 64-bit seed, so derived
    streams can be derived from further.
    """
    s = seed & U64_MAX
    for sid in stream_ids:
        s = mix64((s + (sid + 1) * _GOLDEN) & U64_MAX)
    return s


def site_uniforms_at(seed: int, sites: np.ndarray, draw: int = 0) -> np.ndarray:
    """Uniform doubles for the given site indices at one draw index.

    Values lie strictly inside (0, 1) so downstream logs stay finite.
    """
    base = mix64((seed + (draw + 1) * _GOLDEN) & U64_MAX)
    idx = np.asarray(sites, dtype=np.uint64) + np.uint64(1)
    h = _mix64_array(np.uint64(base) + idx * np.uint64(_GOLDEN))
    bits = (h >> np.uint64(11)).astype(np.float64)  # top 53 bits
    return (bits + 0.5) * 2.0**-53


def site_uniforms(seed: int, n_sites: int, draw: int = 0) -> np.ndarray:
    """Uniform(0, 1) doubles for sites 0..n_sites-1 at one draw index."""
    return site_uniforms_at(seed, np.arange(n_sites, dtype=np.uint64), draw)


def site_normals(seed: int, n_sites: int, draw_pair: int = 0) -> np.ndarray:
    """Standard normal per site via Box-Muller on two uniform draws."""
    u1 = site_uniforms(seed, n_sites, draw=2 * draw_pair)
    u2 = site_uniforms(seed, n_sites, draw=2 * draw_pair + 1)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
