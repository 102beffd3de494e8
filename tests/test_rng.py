import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from lumaforge.rng import U64_MAX, derive_seed, mix64, site_hashes, site_uniforms, site_uniforms_at

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


@given(seeds)
def test_subset_indexing_matches_full_stream(seed):
    # a site's value never depends on which other sites are evaluated
    # alongside it, so any subset or chunking of a frame sees the same stream
    full = site_uniforms(seed, 40)
    picked = site_uniforms_at(seed, np.array([3, 17, 39]))
    assert np.array_equal(picked, full[[3, 17, 39]])


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


@given(seeds, st.lists(st.integers(0, U64_MAX), min_size=1, max_size=40))
def test_vectorized_stream_matches_the_scalar_formula(seed, sites):
    got = site_uniforms_at(seed, np.array(sites, dtype=np.uint64))
    assert got.tolist() == [scalar_uniform(seed, s) for s in sites]


@given(seeds, st.integers(0, 300))
def test_hashes_match_the_scalar_formula(seed, n):
    h = site_hashes(seed, n)
    assert h.dtype == np.uint64 and h.tolist() == [scalar_hash(seed, i) for i in range(n)]
    assert site_uniforms(seed, n).tolist() == [((int(x) >> 11) + 0.5) * 2.0**-53 for x in h]


def test_hashes_are_fresh():
    first = site_hashes(8, 100)
    first[:] = 0
    assert site_hashes(8, 100).tolist() == [scalar_hash(8, i) for i in range(100)]


def test_sites_argument_is_left_unchanged():
    sites = np.array([[0, 5], [U64_MAX - 1, 17]], dtype=np.uint64)
    before = sites.copy()
    u = site_uniforms_at(4, sites)
    assert np.array_equal(sites, before)
    assert u.shape == sites.shape and not np.shares_memory(u, sites)


@given(seeds)
def test_mix64_stays_in_64_bits(value):
    assert 0 <= mix64(value) < 2**64


@given(seeds, st.integers(0, 1000), st.integers(0, 10))
def test_derive_seed_is_stable_and_bounded(seed, a, b):
    first = derive_seed(seed, a, b)
    assert first == derive_seed(seed, a, b)
    assert 0 <= first < 2**64
    assert first != derive_seed(seed, a, b + 1)
