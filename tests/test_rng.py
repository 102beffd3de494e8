import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from lumaforge.rng import U64_MAX, derive_seed, mix64, site_hashes, site_uniforms

seeds = st.integers(0, 2**64 - 1)


@given(seeds)
def test_uniforms_strictly_inside_unit_interval(seed):
    u = site_uniforms(seed, 512)
    assert u.min() > 0.0 and u.max() < 1.0


@given(seeds)
def test_uniforms_deterministic(seed):
    assert np.array_equal(site_uniforms(seed, 64), site_uniforms(seed, 64))


def test_distinct_seeds_give_distinct_streams():
    assert not np.array_equal(site_uniforms(1, 256), site_uniforms(2, 256))


def test_prefix_stability():
    assert np.array_equal(site_uniforms(99, 10), site_uniforms(99, 100)[:10])


def test_uniform_moments():
    u = site_uniforms(2024, 200_000)
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.002


GOLDEN = 0x9E3779B97F4A7C15  # splitmix64 stream increment


def scalar_hash(seed: int, site: int) -> int:
    """The stream's definition, one site at a time in python ints."""
    base = mix64((seed + GOLDEN) & U64_MAX)
    return mix64((base + (site + 1) * GOLDEN) & U64_MAX)


def scalar_uniform(seed: int, site: int) -> float:
    return ((scalar_hash(seed, site) >> 11) + 0.5) * 2.0**-53


@given(seeds, st.integers(1, 300))
def test_vectorized_stream_matches_the_scalar_formula(seed, n):
    assert site_uniforms(seed, n).tolist() == [scalar_uniform(seed, s) for s in range(n)]


@given(seeds, st.integers(0, 300))
def test_hashes_match_the_scalar_formula(seed, n):
    h = site_hashes(seed, n)
    assert h.dtype == np.uint64 and h.tolist() == [scalar_hash(seed, i) for i in range(n)]
    assert site_uniforms(seed, n).tolist() == [((int(x) >> 11) + 0.5) * 2.0**-53 for x in h]


def test_hashes_are_fresh():
    first = site_hashes(8, 100)
    first[:] = 0
    assert site_hashes(8, 100).tolist() == [scalar_hash(8, i) for i in range(100)]


@given(seeds)
def test_mix64_stays_in_64_bits(value):
    assert 0 <= mix64(value) < 2**64


@given(seeds, st.integers(0, 1000), st.integers(0, 10))
def test_derive_seed_is_stable_and_bounded(seed, a, b):
    first = derive_seed(seed, a, b)
    assert first == derive_seed(seed, a, b)
    assert 0 <= first < 2**64
    assert first != derive_seed(seed, a, b + 1)
