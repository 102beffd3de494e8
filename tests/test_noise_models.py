import bisect
import itertools
import math
import sys
import tracemalloc
from dataclasses import replace
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst
from _oracles import oracle_poisson_tables

from lumaforge import (
    NOISE_KINDS,
    ColorBuffer,
    ConfigurationError,
    Dimensions,
    NoiseSpec,
    PixelBuffer,
    apply_noise,
    gaussian,
    poisson,
    salt_pepper,
    speckle,
)
from lumaforge import noise_models
from lumaforge.rng import U64_MAX, derive_seed, site_uniforms

seeds = st.integers(0, 2**64 - 1)
hashes = st.integers(0, U64_MAX)
small_frames = npst.arrays(
    np.uint8, npst.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12)
)
small_color_frames = npst.arrays(np.uint8, st.tuples(st.integers(1, 12), st.integers(1, 12), st.just(3)))
LEVELS = {"salt_pepper": 0.25, "gaussian": 0.01, "poisson": 0.0, "speckle": 0.05}
# the largest speckle variance whose 3 * d, the square of the noise's half-width, is finite
LARGEST_SPECKLE_D = sys.float_info.max / 3.0
if not math.isfinite(3.0 * LARGEST_SPECKLE_D):
    LARGEST_SPECKLE_D = math.nextafter(LARGEST_SPECKLE_D, 0.0)


def mid_gray(rows=256, cols=256):
    return PixelBuffer(np.full((rows, cols), 128, dtype=np.uint8))


def uniform_of(h) -> np.ndarray:
    """The stream's uniform of each 64-bit hash: fl((h >> 11) + 0.5) * 2**-53, h >> 11 < 2**53 being exact."""
    return ((np.asarray(h, dtype=np.uint64) >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def reference_cuts(c) -> np.ndarray:
    """Per threshold c, the smallest hash >> 11 whose uniform exceeds c (2**53: none), by 54 rounds of bisection."""
    c = np.asarray(c, dtype=np.float64)
    lo, hi = np.zeros(c.shape, dtype=np.int64), np.full(c.shape, 1 << 53, dtype=np.int64)
    for _ in range(54):
        mid = (lo + hi) // 2
        above = (mid.astype(np.float64) + 0.5) * 2.0**-53 > c
        hi, lo = np.where(above, mid, hi), np.where(above, lo, mid + 1)
    return lo


def edge_hashes(c) -> list[int]:
    """The last hash whose uniform is at most each threshold c, and the first above it."""
    cuts = [int(m) << 11 for m in np.ravel(reference_cuts(c)) if m < 1 << 53]
    return sorted({h for cut in cuts for h in (cut - 1, cut) if h >= 0} | {0, U64_MAX})


def on_hashes(kernel, plane: np.ndarray, d: float, h: list[int]) -> np.ndarray:
    """kernel(plane, d, seed) with the plane's hashes replaced by h."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(noise_models, "site_hashes", lambda seed, n: np.array(h, dtype=np.uint64))
        return kernel(plane, d, 0)


def float_gaussian_cdf(d: float) -> np.ndarray:
    """The gaussian offset cdf that the library's cutpoints stand for (see _gaussian_tables)."""
    scale = 255.0 * math.sqrt(d) * math.sqrt(2.0)
    cdf = np.array([0.5 * math.erfc((254.5 - t) / scale) for t in range(511)] + [1.0])
    return np.maximum.accumulate(cdf)


def gaussian_reference(plane: np.ndarray, d: float, u: np.ndarray) -> np.ndarray:
    """The float path: out = clip(x + searchsorted(cdf, u) - 255, 0, 255)."""
    t = np.searchsorted(float_gaussian_cdf(d), u.reshape(plane.shape))
    return np.clip(plane + t - 255, 0, 255).astype(np.uint8)


def poisson_reference(plane: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The float path: per pixel, searchsorted of its uniform in its level's cdf row."""
    cdf = oracle_poisson_tables()[0].reshape(256, 256)
    k = [np.searchsorted(cdf[lam], v) for lam, v in zip(plane.ravel().tolist(), u.ravel().tolist())]
    return np.array(k, dtype=np.uint8).reshape(plane.shape)


class TestCutpoints:
    @given(st.lists(st.floats(0.0, 1.0) | st.sampled_from([2.0**-54, 2.0**-53, 0.5, 1.0 - 2.0**-53]), max_size=32))
    def test_top_cuts_match_a_bisection(self, thresholds):
        c = np.array(thresholds + [0.0, 5e-324, 2.0**-54, np.nextafter(0.5, 0.0), 0.5, np.nextafter(1.0, 0.0), 1.0])
        assert np.array_equal(noise_models._top_cuts(c), reference_cuts(c))

    def test_uniform_of_one_is_the_top_block_of_hashes(self):
        assert uniform_of([U64_MAX, U64_MAX - 2047]).tolist() == [1.0, 1.0]
        assert uniform_of([U64_MAX - 2048])[0] < 1.0


class TestNoiseSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            NoiseSpec("perlin", 0.1, 0)

    @pytest.mark.parametrize("d", [-0.1, 1.1])
    def test_salt_pepper_density_bounds(self, d):
        with pytest.raises(ConfigurationError):
            NoiseSpec("salt_pepper", d, 0)

    @pytest.mark.parametrize("kind", ["gaussian", "speckle"])
    def test_variance_must_be_nonnegative(self, kind):
        with pytest.raises(ConfigurationError):
            NoiseSpec(kind, -0.01, 0)

    def test_poisson_refuses_a_nonzero_d(self):
        # poisson is signal-dependent, so a level would change nothing
        for d in (5.0, 0.05, 5e-324, -1.0):
            with pytest.raises(ConfigurationError, match="poisson noise is signal-dependent and takes no level d"):
                NoiseSpec("poisson", d, 0)
        for zero in (0, 0.0, -0.0):
            assert NoiseSpec("poisson", zero, 0).d == 0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("real", [float, np.float64])
    def test_speckle_level_keeps_three_d_finite(self, real):
        NoiseSpec("speckle", real(LARGEST_SPECKLE_D), 0)
        with pytest.raises(ConfigurationError, match="speckle variance must keep 3[*]d finite"):
            NoiseSpec("speckle", real(math.nextafter(LARGEST_SPECKLE_D, math.inf)), 0)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_range(self, seed):
        with pytest.raises(ConfigurationError):
            NoiseSpec("gaussian", 0.1, seed)

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: NoiseSpec("gaussian", "0.1", 0), id="string-level"),
        pytest.param(lambda: gaussian(mid_gray(4, 4), 0.1, 1.5), id="float-seed"),
        pytest.param(lambda: NoiseSpec("salt_pepper", 0.1, True), id="bool-seed"),
        pytest.param(lambda: NoiseSpec("gaussian", True, 0), id="bool-level"),
    ])
    def test_rejects_mistyped_fields(self, make):
        with pytest.raises(ConfigurationError, match="must be"):
            make()

    def test_accepts_numpy_scalars(self):
        spec = NoiseSpec("gaussian", np.float64(0.01), np.uint64(7))
        assert spec == NoiseSpec("gaussian", 0.01, 7)
        assert apply_noise(mid_gray(4, 4), spec) == gaussian(mid_gray(4, 4), 0.01, 7)


class TestDispatch:
    def test_apply_matches_direct_calls(self):
        frame = mid_gray(32, 32)
        assert apply_noise(frame, NoiseSpec("salt_pepper", 0.3, 9)) == salt_pepper(frame, 0.3, 9)
        assert apply_noise(frame, NoiseSpec("gaussian", 0.02, 9)) == gaussian(frame, 0.02, 9)
        assert apply_noise(frame, NoiseSpec("speckle", 0.02, 9)) == speckle(frame, 0.02, 9)
        assert apply_noise(frame, NoiseSpec("poisson", 0.0, 9)) == poisson(frame, 9)

    @pytest.mark.parametrize("d", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("model", [salt_pepper, gaussian, speckle])
    def test_direct_calls_reject_a_non_finite_level(self, model, d):
        with pytest.raises(ConfigurationError, match="finite"):
            model(mid_gray(4, 4), d, 0)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_direct_calls_reject_a_seed_out_of_range(self, seed):
        for call in (lambda f: salt_pepper(f, 0.1, seed), lambda f: gaussian(f, 0.01, seed),
                     lambda f: speckle(f, 0.01, seed), lambda f: poisson(f, seed)):
            with pytest.raises(ConfigurationError, match="seed"):
                call(mid_gray(4, 4))

    @settings(max_examples=30, deadline=None)
    @given(small_frames, seeds, st.sampled_from(["salt_pepper", "gaussian", "speckle"]))
    def test_deterministic(self, arr, seed, kind):
        frame = PixelBuffer(arr)
        spec = NoiseSpec(kind, 0.25 if kind == "salt_pepper" else 0.01, seed)
        assert apply_noise(frame, spec) == apply_noise(frame, spec)

    @settings(max_examples=30, deadline=None)
    @given(small_frames, seeds, st.sampled_from(["salt_pepper", "gaussian", "speckle"]))
    def test_output_in_range_and_same_dims(self, arr, seed, kind):
        out = apply_noise(PixelBuffer(arr), NoiseSpec(kind, 0.5, seed))
        assert out.data.shape == arr.shape
        assert out.data.dtype == np.uint8  # dtype bounds the range by construction


class TestChannelAxis:
    """A color frame is noised channel by channel, channel c on stream slot c + 1."""

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    @settings(max_examples=30, deadline=None)
    @given(arr=small_color_frames, seed=seeds)
    def test_channel_c_is_the_plane_noised_on_slot_c_plus_1(self, kind, arr, seed):
        spec = NoiseSpec(kind, LEVELS[kind], seed)
        out = apply_noise(ColorBuffer(arr), spec)
        assert isinstance(out, ColorBuffer)
        for c in range(3):
            plane = apply_noise(PixelBuffer(arr[..., c]), replace(spec, seed=derive_seed(seed, c + 1)))
            assert np.array_equal(out.data[..., c], plane.data)

    def test_public_models_take_color_frames(self):
        frame = ColorBuffer(np.full((8, 8, 3), 128, dtype=np.uint8))
        assert salt_pepper(frame, 0.3, 4) == apply_noise(frame, NoiseSpec("salt_pepper", 0.3, 4))
        assert gaussian(frame, 0.02, 4) == apply_noise(frame, NoiseSpec("gaussian", 0.02, 4))
        assert speckle(frame, 0.02, 4) == apply_noise(frame, NoiseSpec("speckle", 0.02, 4))
        assert poisson(frame, 4) == apply_noise(frame, NoiseSpec("poisson", 0.0, 4))
        assert salt_pepper(frame, 0.0, 4) == frame


class TestSaltPepper:
    @given(small_frames, seeds)
    def test_zero_density_is_identity(self, arr, seed):
        frame = PixelBuffer(arr)
        assert salt_pepper(frame, 0.0, seed) == frame

    def test_zero_density_is_identity_at_a_uniform_of_one(self, monkeypatch):
        # a site whose hash has its top 53 bits set draws exactly 1.0, which
        # passes the salt test u >= 1 - d/2 even at d = 0
        monkeypatch.setattr(noise_models, "site_hashes", lambda seed, n: np.full(n, U64_MAX, dtype=np.uint64))
        frame = mid_gray(4, 4)
        assert np.all(noise_models._salt_pepper(frame.data, 0.0, 5) == 255)
        assert salt_pepper(frame, 0.0, 5) == frame

    @given(seeds, st.floats(0.0, 1.0) | st.sampled_from([1.0, 5e-324, 2.0**-53, 2.0**-52]))
    def test_integer_path_matches_the_float_tests(self, seed, d):
        plane = np.full((9, 13), 128, dtype=np.uint8)
        expected = plane.copy()
        u = site_uniforms(seed, plane.size).reshape(plane.shape)
        expected[u < d / 2] = 0
        expected[u >= 1 - d / 2] = 255
        assert np.array_equal(noise_models._salt_pepper(plane, d, seed), expected)

    @given(st.floats(0.0, 1.0) | st.sampled_from([1.0, 5e-324, 2.0**-53, 2.0**-52, 0.5]))
    def test_cut_edges_match_the_float_tests(self, d):
        h = edge_hashes(np.nextafter([d / 2, 1 - d / 2], -1.0))
        u = uniform_of(h)
        expected = np.where(u < d / 2, 0, np.where(u >= 1 - d / 2, 255, 128))
        out = on_hashes(noise_models._salt_pepper, np.full((1, len(h)), 128, dtype=np.uint8), d, h)
        assert out.ravel().tolist() == expected.tolist()

    def test_full_density_is_all_extremes(self):
        out = salt_pepper(mid_gray(64, 64), 1.0, 3)
        assert set(np.unique(out.data)) <= {0, 255}

    def test_binomial_counts_at_half_density(self):
        # 10^4 pixels at d = 0.5: pepper and salt each Binomial(10^4, 0.25);
        # 5 sigma = 5 * sqrt(10^4 * 0.25 * 0.75) ~ 216.5
        out = salt_pepper(mid_gray(100, 100), 0.5, 7)
        zeros = int((out.data == 0).sum())
        whites = int((out.data == 255).sum())
        assert abs(zeros - 2500) <= 217
        assert abs(whites - 2500) <= 217

    def test_corruption_fraction_band(self):
        fractions = [
            float(np.mean(salt_pepper(mid_gray(), 0.1, seed).data != 128))
            for seed in range(20)
        ]
        assert 0.09 <= float(np.mean(fractions)) <= 0.11

    def test_single_pixel_change_is_local(self):
        a = np.full((10, 10), 50, dtype=np.uint8)
        b = a.copy()
        b[4, 6] = 200
        out_a = salt_pepper(PixelBuffer(a), 0.3, 11).data
        out_b = salt_pepper(PixelBuffer(b), 0.3, 11).data
        changed = np.argwhere(out_a != out_b)
        assert changed.tolist() in ([], [[4, 6]])


class TestGaussian:
    @given(small_frames, seeds)
    def test_zero_variance_is_identity(self, arr, seed):
        frame = PixelBuffer(arr)
        assert gaussian(frame, 0.0, seed) == frame

    def test_mean_drift_within_clt_band(self):
        d, n = 0.01, 256 * 256
        out = gaussian(mid_gray(), d, 99)
        drift = float((out.data.astype(np.float64) - 128).mean()) / 255.0
        assert abs(drift) <= 3.0 * math.sqrt(d / n)

    def test_zero_frame_skews_positive(self):
        out = gaussian(PixelBuffer(np.zeros((64, 64), dtype=np.uint8)), 0.01, 5)
        assert out.data.min() >= 0
        assert out.data.mean() > 0  # clamping at 0 keeps only the positive tail

    def test_single_pixel_change_is_local(self):
        a = np.full((10, 10), 50, dtype=np.uint8)
        b = a.copy()
        b[3, 4] = 200
        out_a = gaussian(PixelBuffer(a), 0.01, 21).data
        out_b = gaussian(PixelBuffer(b), 0.01, 21).data
        assert np.argwhere(out_a != out_b).tolist() == [[3, 4]]

    def test_rejects_negative_variance(self):
        with pytest.raises(ConfigurationError):
            gaussian(mid_gray(4, 4), -0.5, 0)

    @pytest.mark.parametrize("d", [0.001, 0.01, 0.2])
    @pytest.mark.parametrize("level", [0, 3, 128, 250, 255])
    def test_matches_clamped_pmf(self, d, level):
        statistic, df = chi_square(gaussian_counts(level, d, 2000 + level), clamped_gaussian_pmf(level, d))
        assert df >= 1
        assert statistic <= chi_square_critical(df)

    @pytest.mark.parametrize("d", [0.001, 0.01, 0.2])
    @pytest.mark.parametrize("level", [0, 3, 128, 250, 255])
    def test_rejects_a_variance_ten_percent_high(self, d, level):
        # negative control: the same test must notice samples of the wrong spread
        statistic, df = chi_square(gaussian_counts(level, 1.1 * d, 2000 + level), clamped_gaussian_pmf(level, d))
        assert statistic > chi_square_critical(df)

    def test_inverts_the_clamped_cdf_of_one_uniform_per_pixel(self):
        # reference: smallest k whose pure-python cdf at the pixel's level reaches its uniform
        levels = np.arange(256, dtype=np.uint8).repeat(16).reshape(64, 64)
        out = gaussian(PixelBuffer(levels), 0.01, 77).data.ravel()
        cdfs = [list(itertools.accumulate(clamped_gaussian_pmf(x, 0.01)))[:255] + [1.0] for x in range(256)]
        u = site_uniforms(77, levels.size).tolist()
        expected = [bisect.bisect_left(cdfs[x], u_i) for x, u_i in zip(levels.ravel().tolist(), u)]
        assert out.tolist() == expected

    @settings(deadline=None)  # a new d builds its tables
    @given(st.floats(1e-9, 1e3), st.lists(hashes, max_size=64))
    def test_guide_start_finds_the_plain_search(self, d, draws):
        cut, guide = noise_models._gaussian_tables(d)
        # the old float edges, each cutpoint's edge, and the cells around each cutpoint
        edges = [1.0, 1.0 - 2.0**-53, 2.0**-41, 2.0**-53, 0.5, 4095 / 4096, 1 / 4096]
        cells = {int(c) >> 50 for c in cut}
        h = draws + edge_hashes(np.nextafter(edges, -1.0)) + edge_hashes(float_gaussian_cdf(d))
        h += [max(j << 50, 1) - 1 for j in cells] + [j << 50 for j in cells] + [((j + 1) << 50) - 1 for j in cells]
        found = noise_models._guided_search(cut, guide, np.array(h, dtype=np.uint64))
        assert np.array_equal(found, np.searchsorted(float_gaussian_cdf(d), uniform_of(h)))

    @settings(deadline=None)  # a new d builds its tables
    @given(seeds, st.floats(1e-9, 1e3) | st.sampled_from([1e-300, 1e-6, 0.01, 0.2]))
    def test_integer_path_matches_the_float_reference(self, seed, d):
        plane = np.arange(256, dtype=np.uint8).reshape(16, 16)
        expected = gaussian_reference(plane, d, site_uniforms(seed, plane.size))
        assert np.array_equal(noise_models._gaussian(plane, d, seed), expected)

    @pytest.mark.parametrize("d", [1e-300, 1e-6, 0.01, 0.2, 1e3])
    def test_cutpoints_are_the_exact_thresholds(self, d):
        cut, guide = noise_models._gaussian_tables(d)
        cdf = float_gaussian_cdf(d)
        assert cut.tolist() == [int(m) << 11 for m in reference_cuts(cdf[cdf < 1.0])]
        assert guide.dtype == np.int16 and guide.size == 1 << 14
        assert guide.min() >= -1 and guide.max() <= cut.size

    def test_tables_are_read_only(self):
        cut, guide = noise_models._gaussian_tables(0.01)
        assert not cut.flags.writeable and not guide.flags.writeable
        assert cut.dtype == np.uint64 and np.all(cut[1:] >= cut[:-1])

    def test_build_holds_no_temporary_beyond_the_guide(self):
        noise_models._gaussian_tables.cache_clear()
        tracemalloc.start()
        try:
            noise_models._gaussian_tables(0.01)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 128 << 10  # the guide is 32 KB; one intp per guide cell would be 128 KB more


def clamped_poisson_pmf(lam: int) -> list[float]:
    """pmf of min(Poisson(lam), 255), the tail mass lumped into 255."""
    if lam == 0:
        return [1.0] + [0.0] * 255
    head = [math.exp(k * math.log(lam) - lam - math.lgamma(k + 1)) for k in range(255)]
    return head + [max(0.0, 1.0 - math.fsum(head))]


def clamped_gaussian_pmf(level: int, d: float) -> list[float]:
    """pmf of round_half_up(255 * clip(level/255 + n, 0, 1)) for n ~ Normal(0, d)."""
    edges = NormalDist(level, 255.0 * math.sqrt(d))
    below = [edges.cdf(k + 0.5) for k in range(255)] + [1.0]  # P(out <= k)
    return [below[0]] + [hi - lo for lo, hi in zip(below, below[1:])]


def gaussian_counts(level: int, d: float, seed: int) -> np.ndarray:
    out = gaussian(PixelBuffer(np.full((512, 512), level, dtype=np.uint8)), d, seed)
    return np.bincount(out.data.ravel(), minlength=256)


def chi_square(counts: np.ndarray, pmf: list[float]) -> tuple[float, int]:
    """Pearson statistic and degrees of freedom, adjacent bins merged until each expects >= 5."""
    n = int(counts.sum())
    groups = []  # [observed, expected]
    pending = [0, 0.0]
    for observed, p in zip(counts.tolist(), pmf):
        pending[0] += observed
        pending[1] += n * p
        if pending[1] >= 5.0:
            groups.append(pending)
            pending = [0, 0.0]
    if groups:
        groups[-1][0] += pending[0]
        groups[-1][1] += pending[1]
    statistic = math.fsum((o - e) ** 2 / e for o, e in groups)
    return statistic, len(groups) - 1


def chi_square_critical(df: int, z: float = 4.7534) -> float:
    """Upper 1e-6 point of chi-square(df) by Wilson-Hilferty; z is the normal 1e-6 point."""
    h = 2.0 / (9.0 * df)
    return df * (1.0 - h + z * math.sqrt(h)) ** 3


def poisson_counts(level: int, seed: int) -> np.ndarray:
    out = poisson(PixelBuffer(np.full((256, 256), level, dtype=np.uint8)), seed)
    return np.bincount(out.data.ravel(), minlength=256)


class TestPoisson:
    @pytest.mark.parametrize("lam", [1, 2, 5, 10, 32, 96, 160, 200, 254, 255])
    def test_matches_clamped_pmf(self, lam):
        statistic, df = chi_square(poisson_counts(lam, 1000 + lam), clamped_poisson_pmf(lam))
        assert df >= 1
        assert statistic <= chi_square_critical(df)

    @pytest.mark.parametrize("lam", [5, 10, 32, 96, 160, 200])
    def test_rejects_a_rate_ten_percent_high(self, lam):
        # negative control: the same test must notice samples at the wrong rate
        counts = poisson_counts(round(1.1 * lam), 1000 + lam)
        statistic, df = chi_square(counts, clamped_poisson_pmf(lam))
        assert statistic > chi_square_critical(df)

    @settings(max_examples=30, deadline=None)
    @given(seeds, npst.arrays(np.uint8, st.tuples(st.integers(1, 12), st.integers(1, 12))))
    def test_integer_path_matches_the_float_reference(self, seed, plane):
        expected = poisson_reference(plane, site_uniforms(seed, plane.size))
        assert np.array_equal(noise_models._poisson(plane, 0.0, seed), expected)

    def test_inverts_the_cdf_of_one_uniform_per_pixel(self):
        # reference: smallest k whose pure-python cdf reaches the pixel's uniform
        levels = np.arange(256, dtype=np.uint8).repeat(16).reshape(64, 64)
        out = poisson(PixelBuffer(levels), 77).data.ravel()
        cdfs = [list(itertools.accumulate(clamped_poisson_pmf(lam)))[:255] + [1.0]
                for lam in range(256)]
        u = site_uniforms(77, levels.size).tolist()
        expected = [bisect.bisect_left(cdfs[lam], u_i) for lam, u_i in zip(levels.ravel().tolist(), u)]
        assert out.tolist() == expected

    def test_single_pixel_change_is_local(self):
        a = np.full((10, 10), 50, dtype=np.uint8)
        b = a.copy()
        b[4, 6] = 200
        out_a = poisson(PixelBuffer(a), 31).data
        out_b = poisson(PixelBuffer(b), 31).data
        assert np.argwhere(out_a != out_b).tolist() == [[4, 6]]

    @given(seeds)
    def test_zero_frame_is_fixed_point(self, seed):
        frame = PixelBuffer(np.zeros((8, 8), dtype=np.uint8))
        assert poisson(frame, seed) == frame

    def test_variance_tracks_mean(self):
        out = poisson(PixelBuffer(np.full((256, 256), 100, dtype=np.uint8)), 11)
        variance = float(out.data.astype(np.float64).var())
        assert 90.0 <= variance <= 110.0

    def test_peak_pixel_stays_in_range(self):
        for seed in range(50):
            out = poisson(PixelBuffer(np.array([[255]], dtype=np.uint8)), seed)
            assert 0 <= int(out.data[0, 0]) <= 255

    @given(seeds)
    def test_deterministic(self, seed):
        frame = PixelBuffer(np.arange(64, dtype=np.uint8).reshape(8, 8))
        assert poisson(frame, seed) == poisson(frame, seed)


class TestPoissonSearch:
    def test_edges_match_the_plain_search_for_every_rate(self):
        last, guide = noise_models._poisson_tables()
        cdf = oracle_poisson_tables()[0]
        cuts = np.arange(1, 257) / 256.0
        # the old float edges: each cell's cutpoint j/256 and its neighbours, 1 - 2**-53 and 2**-53
        edges = np.concatenate([cuts, np.nextafter(cuts, 0.0), np.nextafter(cuts, 2.0), [1.0 - 2.0**-53, 2.0**-53]])
        common = edge_hashes(np.nextafter(edges[edges <= 1.0], -1.0))
        common += [j << 56 for j in range(256)] + [(j << 56) - 1 for j in range(1, 256)]
        for lam in range(256):
            row = cdf[lam * 256 : lam * 256 + 256]
            h = np.array(sorted(set(common + edge_hashes(row))), dtype=np.uint64)
            found = noise_models._poisson_search(last, guide, np.full(h.size, lam, dtype=np.uint8), h)
            assert np.array_equal(found, np.searchsorted(row, uniform_of(h))), lam

    @given(st.lists(st.tuples(st.integers(0, 255), hashes | st.integers(255 << 56, U64_MAX)), min_size=1, max_size=64))
    def test_random_pairs_match_the_plain_search(self, pairs):
        last, guide = noise_models._poisson_tables()
        cdf = oracle_poisson_tables()[0]
        lam = np.array([rate for rate, _ in pairs], dtype=np.uint8)
        h = np.array([draw for _, draw in pairs], dtype=np.uint64)
        expected = [int(np.searchsorted(cdf[rate * 256 : rate * 256 + 256], v)) for rate, v in zip(lam.tolist(), uniform_of(h))]
        assert noise_models._poisson_search(last, guide, lam, h).tolist() == expected


class TestPoissonTables:
    def test_equal_the_row_at_a_time_build(self):
        last, guide = noise_models._poisson_tables()
        m = reference_cuts(oracle_poisson_tables()[0]).reshape(256, 256)
        assert last.dtype == np.uint64 and guide.dtype == np.uint8
        assert not last.flags.writeable and not guide.flags.writeable
        last, guide = last.reshape(256, 256), guide.reshape(256, 256)
        expected_guide = [np.searchsorted(row, np.arange(256) << 45, side="right") for row in m]
        assert np.array_equal(guide, expected_guide)
        # a column below every uniform has no last hash and lies left of its row's guide start
        assert np.all((m == 0).sum(axis=1) <= guide[:, 0])
        reachable = m > 0
        expected_last = [(int(v) << 11) - 1 if v < 1 << 53 else U64_MAX for v in m[reachable]]
        assert last[reachable].tolist() == expected_last

    def test_build_peak_stays_under_one_megabyte(self):
        # last and guide are 576 KB themselves; a build over all rows at once
        # holds several 1 MB temporaries
        assert not tracemalloc.is_tracing()
        noise_models._poisson_tables.cache_clear()
        tracemalloc.start()
        try:
            noise_models._poisson_tables()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestSpeckle:
    @given(small_frames, seeds)
    def test_zero_variance_is_identity(self, arr, seed):
        frame = PixelBuffer(arr)
        assert speckle(frame, 0.0, seed) == frame

    @given(seeds, st.floats(0.001, 2.0))
    def test_zero_frame_is_fixed_point(self, seed, d):
        frame = PixelBuffer(np.zeros((6, 6), dtype=np.uint8))
        assert speckle(frame, d, seed) == frame

    def test_variance_of_multiplicative_noise(self):
        d = 0.04
        out = speckle(mid_gray(), d, 13)
        diff = (out.data.astype(np.float64) - 128.0) / 255.0
        expected = (128.0 / 255.0) ** 2 * d
        assert abs(float(diff.var()) - expected) <= 0.1 * expected

    def test_rejects_negative_variance(self):
        with pytest.raises(ConfigurationError):
            speckle(mid_gray(4, 4), -1.0, 0)

    @pytest.mark.filterwarnings("error")
    def test_the_largest_level_drives_each_pixel_to_an_extreme(self):
        # n's half-width sqrt(3d) is about 1.3e154, so a nonzero pixel clamps by the sign of 2u - 1 and 0 stays 0
        d, seed = LARGEST_SPECKLE_D, 21
        frame = PixelBuffer(np.arange(64, dtype=np.uint8).reshape(8, 8))
        up = site_uniforms(seed, 64).reshape(8, 8) > 0.5
        expected = np.where(frame.data == 0, 0, np.where(up, 255, 0)).astype(np.uint8)
        assert np.array_equal(speckle(frame, d, seed).data, expected)
