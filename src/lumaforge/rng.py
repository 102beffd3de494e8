"""Counter-based deterministic random streams.

Every variate is a pure function of (seed, site index): instead of advancing
shared generator state, the pair is hashed with the splitmix64 finalizer.
Outputs are therefore identical under any traversal order, chunking, or
worker count, which is what makes noisy pipeline runs reproducible
byte-for-byte. Every noise model draws exactly one hash per pixel, so a
pixel's value also never depends on how many other pixels are sampled
alongside it.
"""

from __future__ import annotations

import numpy as np

U64_MAX = (1 << 64) - 1  # largest seed, and the mask for arithmetic mod 2**64
_GOLDEN = 0x9E3779B97F4A7C15  # splitmix64 stream increment
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

__all__ = ["U64_MAX", "mix64", "derive_seed", "site_hashes", "site_uniforms"]


def mix64(value: int) -> int:
    """splitmix64 finalizer on a python int, modulo 2**64."""
    z = value & U64_MAX
    z = ((z ^ (z >> 30)) * _MIX_A) & U64_MAX
    z = ((z ^ (z >> 27)) * _MIX_B) & U64_MAX
    return z ^ (z >> 31)


def derive_seed(seed: int, *stream_ids: int) -> int:
    """Fold stream ids (frame index, channel, ...) into a base seed.

    One splitmix step per id; the result is again a 64-bit seed, so derived
    streams can be derived from further.
    """
    s = seed & U64_MAX
    for sid in stream_ids:
        s = mix64((s + (sid + 1) * _GOLDEN) & U64_MAX)
    return s


def _mix(z: np.ndarray, seed: int) -> np.ndarray:
    """mix64(base + z) in place for z = (site + 1) * _GOLDEN; uint64 arithmetic wraps like mod 2**64."""
    z += np.uint64(mix64((seed + _GOLDEN) & U64_MAX))
    shifted = np.empty_like(z)
    z ^= np.right_shift(z, np.uint64(30), out=shifted)
    z *= np.uint64(_MIX_A)
    z ^= np.right_shift(z, np.uint64(27), out=shifted)
    z *= np.uint64(_MIX_B)
    z ^= np.right_shift(z, np.uint64(31), out=shifted)
    return z


def _uniforms(z: np.ndarray) -> np.ndarray:
    """Hashes z as uniform doubles fl((z >> 11) + 0.5) * 2**-53, in z's memory.

    Values lie in (0, 1]. They are never 0, and exactly 1.0 when the hash's
    top 53 bits are all ones: the sum (2**53 - 1) + 0.5 needs 54 bits and
    rounds to 2**53 in float64.
    """
    # the top 53 bits fit an int64, whose conversion to float64 is exact and vectorized (uint64's is not)
    u = z.view(np.float64)
    u[...] = np.right_shift(z, np.uint64(11)).view(np.int64)
    u += 0.5
    u *= 2.0**-53
    return u


def site_hashes(seed: int, n_sites: int) -> np.ndarray:
    """The raw splitmix64 words of sites 0..n_sites-1, as a fresh uint64 array.

    A site's uniform (see _uniforms) is a monotone function of its hash, so a
    sampler may compare hashes with integer cutpoints instead of uniforms.
    """
    offsets = np.arange(1, n_sites + 1, dtype=np.uint64)
    offsets *= np.uint64(_GOLDEN)
    return _mix(offsets, seed)


def site_uniforms(seed: int, n_sites: int) -> np.ndarray:
    """Uniform doubles in (0, 1] for sites 0..n_sites-1."""
    return _uniforms(site_hashes(seed, n_sites))
