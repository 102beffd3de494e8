import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from _oracles import oracle_equalize
from conftest import from_planes, planes
from lumaforge import (
    ColorBuffer,
    Dimensions,
    Histogram,
    PixelBuffer,
    enhance,
    enhance_color,
    enhance_with_diagnostics,
    histogram,
    level_map,
)

frames = npst.arrays(
    np.uint8, npst.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12)
)
color_frames = npst.arrays(
    np.uint8, st.tuples(st.integers(1, 8), st.integers(1, 8), st.just(3))
)
# per-level weights: none, small and large overshoot, and an undershoot
SIGMAS = (0.0, 1.0 / 512.0, 0.01, -0.001)


def quad_frame():
    return PixelBuffer(np.array([[0, 0], [1, 255]], dtype=np.uint8))


class TestHistogram:
    def test_counts_quad_frame(self):
        mass = histogram(quad_frame()).mass
        assert mass[0] == 0.5 and mass[1] == 0.25 and mass[255] == 0.25
        assert mass.sum() == 1.0
        assert np.count_nonzero(mass) == 3

    def test_constant_frame_single_level(self):
        mass = histogram(PixelBuffer.full(Dimensions(4, 4), 42)).mass
        assert mass[42] == 1.0 and np.count_nonzero(mass) == 1

    @given(frames)
    def test_mass_sums_to_one(self, arr):
        assert abs(histogram(PixelBuffer(arr)).mass.sum() - 1.0) <= 1e-9

    def test_only_the_library_makes_one(self):
        # a Histogram is only ever counted from a frame; raw counts have no constructor
        with pytest.raises(TypeError):
            Histogram(np.ones(256, dtype=np.int64))


class TestCumulative:
    """The running sum behind the level map, seen through the table."""

    def test_running_sum_of_quad_frame(self):
        # cumulative 0.5, 0.75 (levels 1..254), 1.0 at 255
        table = level_map(histogram(quad_frame()))
        assert table[0] == 128 and table[1] == 191
        assert np.all(table[2:255] == 191)
        assert table[255] == 255

    def test_constant_frame_is_step_function(self):
        table = level_map(histogram(PixelBuffer.full(Dimensions(3, 3), 100)))
        assert np.all(table[:100] == 0) and np.all(table[100:] == 255)

    def test_weight_term_accumulates(self):
        # no mass below 255, so C(l) = (l + 1) / 256 there, exact in binary
        table = level_map(histogram(PixelBuffer.full(Dimensions(2, 2), 255)), 1.0 / 256.0)
        levels = np.arange(255)
        assert np.array_equal(table[:255], ((levels + 1) * 255 * 2 + 256) // 512)
        assert table[255] == 255  # C(255) = 2, clamped

    @given(frames)
    def test_nondecreasing_with_unit_top(self, arr):
        hist = histogram(PixelBuffer(arr))
        cdf = np.cumsum(hist.mass)
        assert np.all(np.diff(cdf) >= 0)
        assert abs(cdf[-1] - 1.0) <= 1e-9
        assert np.array_equal(level_map(hist), np.floor(cdf * 255 + 0.5).astype(np.uint8))


class TestQuantizeLevels:
    @pytest.mark.parametrize(
        "cdf_value,expected", [(1.0, 255), (0.5, 128), (0.75, 191), (0.0, 0)]
    )
    def test_scaling_arithmetic(self, cdf_value, expected):
        # four samples: 4 * cdf_value of them at level 0, the rest at 255
        low = int(4 * cdf_value)
        frame = PixelBuffer(np.array([[0] * low + [255] * (4 - low)], dtype=np.uint8))
        assert level_map(histogram(frame))[0] == expected

    def test_clamps_overshoot(self):
        # nonzero weight pushes the running sum past 1 (or below 0); the map must stay 8-bit
        table = level_map(histogram(quad_frame()), 0.01)
        assert table.dtype == np.uint8 and table.max() == 255
        below = level_map(histogram(PixelBuffer.full(Dimensions(2, 2), 255)), -0.01)
        assert np.all(below == 0)  # the running sum ends at 1 - 2.56

    @given(frames)
    def test_nondecreasing_with_top_255(self, arr):
        table = level_map(histogram(PixelBuffer(arr)))
        assert table.shape == (256,) and table.dtype == np.uint8
        assert np.all(np.diff(table.astype(np.int64)) >= 0)
        assert table[255] == 255


class TestApplyMap:
    def test_quad_frame_end_to_end(self):
        frame = quad_frame()
        out = level_map(histogram(frame))[frame.data]
        assert out.tolist() == [[128, 128], [191, 255]]

    @given(frames, st.sampled_from(SIGMAS))
    def test_enhance_is_the_level_map_lookup(self, arr, sigma):
        frame = PixelBuffer(arr)
        expected = level_map(histogram(frame), sigma)[arr]
        assert np.array_equal(enhance(frame, sigma).data, expected)


class TestEnhance:
    def test_quad_frame(self):
        assert enhance(quad_frame()).data.tolist() == [[128, 128], [191, 255]]

    @given(st.integers(0, 255))
    def test_constant_frame_becomes_white(self, value):
        out = enhance(PixelBuffer.full(Dimensions(3, 4), value))
        assert np.all(out.data == 255)

    @settings(max_examples=150, deadline=None)
    @given(frames)
    def test_matches_textbook_oracle(self, arr):
        for sigma in SIGMAS:
            ours = enhance(PixelBuffer(arr), sigma).data.tolist()
            assert ours == oracle_equalize(arr.tolist(), sigma), sigma

    @given(frames)
    def test_preserves_intensity_ordering(self, arr):
        frame = PixelBuffer(arr)
        table = level_map(histogram(frame)).astype(np.int64)
        present = np.flatnonzero(np.bincount(arr.ravel(), minlength=256))
        assert np.all(np.diff(table[present]) >= 0)

    @given(frames)
    def test_top_reached_and_no_new_levels(self, arr):
        out = enhance(PixelBuffer(arr))
        assert out.data.max() == 255
        assert len(np.unique(out.data)) <= len(np.unique(arr))

    def test_diagnostics_are_attached(self):
        out, pre, post = enhance_with_diagnostics(quad_frame())
        assert np.array_equal(pre.counts, histogram(quad_frame()).counts)
        assert np.array_equal(post.counts, histogram(out).counts)
        assert out == enhance(quad_frame())


class TestEnhanceColor:
    def test_is_enhance(self):
        assert enhance_color is enhance

    def test_constant_color_becomes_white(self):
        out = enhance_color(ColorBuffer.full(Dimensions(3, 3), (10, 200, 37)))
        assert np.all(out.data == 255)

    @given(frames)
    def test_gray_input_stays_gray(self, arr):
        plane = PixelBuffer(arr)
        out = enhance_color(from_planes(plane, plane, plane))
        r, g, b = planes(out)
        assert r == g == b == enhance(plane)

    @given(color_frames, st.sampled_from(SIGMAS))
    def test_decomposes_per_channel(self, arr, sigma):
        frame = ColorBuffer(arr)
        out = enhance_color(frame, sigma)
        for index in range(3):
            assert planes(out)[index] == enhance(planes(frame)[index], sigma)


class TestColorHistogram:
    def test_pools_all_channels(self):
        frame = ColorBuffer(np.array([[[0, 0, 255]]], dtype=np.uint8))
        hist = histogram(frame)
        assert hist.counts[0] == 2 and hist.counts[255] == 1
        assert hist.area == 3


class TestDiagnosticHistograms:
    """The post histogram is derived from the pre counts and the level maps;
    it must equal a fresh count over the enhanced frame."""

    @given(st.one_of(frames.map(PixelBuffer), color_frames.map(ColorBuffer)), st.sampled_from(SIGMAS))
    def test_match_a_recount(self, frame, sigma):
        out, pre, post = enhance_with_diagnostics(frame, sigma)
        assert type(out) is type(frame)
        assert np.array_equal(pre.counts, histogram(frame).counts)
        assert np.array_equal(post.counts, histogram(out).counts)
