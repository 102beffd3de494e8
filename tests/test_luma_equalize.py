import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from _oracles import oracle_equalize
from lumaforge import (
    ColorBuffer,
    ConfigurationError,
    CumulativeDistribution,
    Dimensions,
    Histogram,
    LevelMap,
    PixelBuffer,
    apply_map,
    color_histogram,
    cumulative,
    enhance,
    enhance_color,
    enhance_with_diagnostics,
    histogram,
    quantize_levels,
)

frames = npst.arrays(
    np.uint8, npst.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12)
)
color_frames = npst.arrays(
    np.uint8, st.tuples(st.integers(1, 8), st.integers(1, 8), st.just(3))
)


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

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Histogram(np.zeros(255, dtype=np.int64))  # wrong length
        with pytest.raises(ConfigurationError):
            Histogram(np.full(256, -1, dtype=np.int64))
        with pytest.raises(ConfigurationError):
            Histogram(np.zeros(256, dtype=np.float64))
        with pytest.raises(ConfigurationError):
            Histogram(np.zeros(256, dtype=np.int64))  # empty frame


class TestCumulative:
    def test_running_sum_of_quad_frame(self):
        cdf = cumulative(histogram(quad_frame())).values
        assert cdf[0] == 0.5 and cdf[1] == 0.75
        assert np.all(cdf[2:255] == 0.75)
        assert cdf[255] == 1.0

    def test_constant_frame_is_step_function(self):
        cdf = cumulative(histogram(PixelBuffer.full(Dimensions(3, 3), 100))).values
        assert np.all(cdf[:100] == 0.0) and np.all(cdf[100:] == 1.0)

    def test_weight_term_accumulates(self):
        cdf = cumulative(np.zeros(256), 1.0 / 256.0).values
        assert np.allclose(cdf, (np.arange(256) + 1) / 256.0)

    @given(frames)
    def test_nondecreasing_with_unit_top(self, arr):
        cdf = cumulative(histogram(PixelBuffer(arr))).values
        assert np.all(np.diff(cdf) >= 0)
        assert abs(cdf[-1] - 1.0) <= 1e-9

    def test_rejects_wrong_length(self):
        with pytest.raises(ConfigurationError):
            cumulative(np.zeros(100))


class TestQuantizeLevels:
    @pytest.mark.parametrize(
        "cdf_value,expected", [(1.0, 255), (0.5, 128), (0.75, 191), (0.0, 0)]
    )
    def test_scaling_arithmetic(self, cdf_value, expected):
        table = quantize_levels(CumulativeDistribution(np.full(256, cdf_value))).table
        assert table[0] == expected

    def test_clamps_overshoot(self):
        # nonzero weight pushes the running sum past 1; the map must stay 8-bit
        cdf = cumulative(histogram(quad_frame()), 0.01)
        table = quantize_levels(cdf).table
        assert table.max() == 255

    @given(frames)
    def test_nondecreasing_with_top_255(self, arr):
        table = quantize_levels(cumulative(histogram(PixelBuffer(arr)))).table
        assert np.all(np.diff(table.astype(np.int64)) >= 0)
        assert table[255] == 255


class TestApplyMap:
    @given(frames)
    def test_identity_map(self, arr):
        frame = PixelBuffer(arr)
        assert apply_map(frame, LevelMap.identity()) == frame

    def test_quad_frame_end_to_end(self):
        frame = quad_frame()
        hist = histogram(frame)
        out = apply_map(frame, quantize_levels(cumulative(hist)))
        assert out.data.tolist() == [[128, 128], [191, 255]]

    @given(frames)
    def test_identity_is_right_unit(self, arr):
        frame = PixelBuffer(arr)
        hist = histogram(frame)
        mapped = apply_map(frame, quantize_levels(cumulative(hist)))
        assert apply_map(mapped, LevelMap.identity()) == mapped

    def test_level_map_validation(self):
        with pytest.raises(ConfigurationError):
            LevelMap(np.zeros(100, dtype=np.int64))
        with pytest.raises(ConfigurationError):
            LevelMap(np.full(256, 300, dtype=np.int64))


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
        ours = enhance(PixelBuffer(arr)).data.tolist()
        assert ours == oracle_equalize(arr.tolist())

    @given(frames)
    def test_preserves_intensity_ordering(self, arr):
        frame = PixelBuffer(arr)
        table = enhance_with_diagnostics(frame)[1].level_map.table.astype(np.int64)
        present = np.flatnonzero(np.bincount(arr.ravel(), minlength=256))
        assert np.all(np.diff(table[present]) >= 0)

    @given(frames)
    def test_top_reached_and_no_new_levels(self, arr):
        out = enhance(PixelBuffer(arr))
        assert out.data.max() == 255
        assert len(np.unique(out.data)) <= len(np.unique(arr))

    def test_diagnostics_are_attached(self):
        _, diag = enhance_with_diagnostics(quad_frame())
        assert diag.input_histogram == histogram(quad_frame())
        assert diag.level_map.table[255] == 255


class TestEnhanceColor:
    def test_constant_color_becomes_white(self):
        out = enhance_color(ColorBuffer.full(Dimensions(3, 3), (10, 200, 37)))
        assert np.all(out.data == 255)

    @given(frames)
    def test_gray_input_stays_gray(self, arr):
        plane = PixelBuffer(arr)
        out = enhance_color(ColorBuffer.from_planes(plane, plane, plane))
        r, g, b = out.planes()
        assert r == g == b == enhance(plane)

    @given(color_frames)
    def test_decomposes_per_channel(self, arr):
        frame = ColorBuffer(arr)
        out = enhance_color(frame)
        for index in range(3):
            assert out.channel(index) == enhance(frame.channel(index))


class TestColorHistogram:
    def test_pools_all_channels(self):
        frame = ColorBuffer(np.array([[[0, 0, 255]]], dtype=np.uint8))
        hist = color_histogram(frame)
        assert hist.counts[0] == 2 and hist.counts[255] == 1
        assert hist.area == 3
