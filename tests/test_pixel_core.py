import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst
from conftest import from_planes, planes

from lumaforge import (
    BT601_WEIGHTS,
    ColorBuffer,
    ConfigurationError,
    Dimensions,
    LumaWeights,
    PixelBuffer,
    resize_nearest,
    rgb_to_luma,
    round_half_up,
)

gray_arrays = npst.arrays(
    np.uint8, npst.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=16)
)
color_arrays = npst.arrays(
    np.uint8, st.tuples(st.integers(1, 12), st.integers(1, 12), st.just(3))
)


class TestDimensions:
    def test_area(self):
        assert Dimensions(3, 5).area == 15

    @pytest.mark.parametrize("rows,cols", [(0, 1), (1, 0), (-2, 3)])
    def test_rejects_degenerate(self, rows, cols):
        with pytest.raises(ConfigurationError):
            Dimensions(rows, cols)


class TestBuffers:
    def test_pixel_buffer_is_frozen(self):
        buf = PixelBuffer(np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(ValueError):
            buf.data[0, 0] = 1

    def test_rejects_wrong_rank(self):
        with pytest.raises(ConfigurationError):
            PixelBuffer(np.zeros((2, 2, 3), dtype=np.uint8))
        with pytest.raises(ConfigurationError):
            ColorBuffer(np.zeros((2, 2), dtype=np.uint8))

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError):
            PixelBuffer(np.array([[0, 300]]))
        with pytest.raises(ConfigurationError):
            PixelBuffer(np.array([[-1, 0]]))

    def test_rejects_floats(self):
        with pytest.raises(ConfigurationError):
            PixelBuffer(np.zeros((2, 2), dtype=np.float64))

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            PixelBuffer(np.zeros((0, 3), dtype=np.uint8))

    def test_color_channels(self):
        arr = np.arange(12, dtype=np.uint8).reshape(2, 2, 3)
        buf = ColorBuffer(arr)
        assert planes(buf)[0].data.tolist() == [[0, 3], [6, 9]]
        assert from_planes(*planes(buf)) == buf

    def test_messages_and_repr_name_the_buffer_kind(self):
        with pytest.raises(ConfigurationError, match=r"^PixelBuffer expects a 2-d array, got shape \(2, 2, 3\)$"):
            PixelBuffer(np.zeros((2, 2, 3), dtype=np.uint8))
        with pytest.raises(ConfigurationError, match=r"^ColorBuffer samples must lie in \[0, 255\]$"):
            ColorBuffer(np.full((1, 1, 3), 256))
        with pytest.raises(ConfigurationError, match="^ColorBuffer expects 3 channels, got 4$"):
            ColorBuffer(np.zeros((2, 2, 4), dtype=np.uint8))
        assert repr(PixelBuffer.full(Dimensions(2, 3), 7)) == "PixelBuffer(2x3)"
        assert repr(ColorBuffer.full(Dimensions(2, 3), (1, 2, 3))) == "ColorBuffer(2x3)"
        assert ColorBuffer.full(Dimensions(1, 2), (1, 2, 3)).data.tolist() == [[[1, 2, 3], [1, 2, 3]]]

    def test_color_rejects_wrong_channel_count(self):
        with pytest.raises(ConfigurationError):
            ColorBuffer(np.zeros((2, 2, 4), dtype=np.uint8))

    def test_equality(self):
        a = PixelBuffer(np.ones((2, 2), dtype=np.uint8))
        b = PixelBuffer(np.ones((2, 2), dtype=np.uint8))
        c = PixelBuffer(np.zeros((2, 2), dtype=np.uint8))
        assert a == b and a != c
        assert a != ColorBuffer(np.ones((2, 2, 3), dtype=np.uint8))


class TestLumaWeights:
    def test_default_is_bt601(self):
        assert (BT601_WEIGHTS.red, BT601_WEIGHTS.green, BT601_WEIGHTS.blue) == (
            0.299,
            0.587,
            0.114,
        )

    def test_rejects_bad_sum(self):
        with pytest.raises(ConfigurationError):
            LumaWeights(0.5, 0.5, 0.5)

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            LumaWeights(-0.2, 0.7, 0.5)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ConfigurationError, match="finite"):
            LumaWeights(bad, 0.5, 0.5)


class TestRgbToLuma:
    def test_white_is_255(self):
        frame = ColorBuffer.full(Dimensions(2, 2), (255, 255, 255))
        assert np.all(rgb_to_luma(frame).data == 255)

    def test_black_is_0(self):
        frame = ColorBuffer.full(Dimensions(2, 2), (0, 0, 0))
        assert np.all(rgb_to_luma(frame).data == 0)

    def test_pure_red(self):
        # 0.299 * 255 = 76.245, round-half-up -> 76
        frame = ColorBuffer.full(Dimensions(1, 1), (255, 0, 0))
        assert rgb_to_luma(frame).data[0, 0] == 76

    @given(st.integers(0, 255))
    def test_gray_triple_maps_to_itself(self, v):
        frame = ColorBuffer.full(Dimensions(2, 3), (v, v, v))
        assert np.all(rgb_to_luma(frame).data == v)

    @given(color_arrays)
    def test_range_and_clamp_is_noop(self, arr):
        rgb = arr.astype(np.float64)
        raw = round_half_up(
            BT601_WEIGHTS.red * rgb[..., 0]
            + BT601_WEIGHTS.green * rgb[..., 1]
            + BT601_WEIGHTS.blue * rgb[..., 2]
        )
        assert raw.min() >= 0 and raw.max() <= 255  # convex combination: in range with no clamp
        assert np.array_equal(rgb_to_luma(ColorBuffer(arr)).data, raw.astype(np.uint8))

    @pytest.mark.parametrize(
        "weights",
        [(1 + 9e-10, 0.0, 0.0), (0.0, 0.0, 1 + 9e-10), (0.299 + 3e-10, 0.587 + 3e-10, 0.114 + 3e-10)],
        ids=["red", "blue", "bt601"],
    )
    def test_weight_sums_at_the_tolerance_stay_in_range(self, weights):
        # a sum up to 1e-9 over 1 is valid, and 255 * (1 + 1e-9) still rounds to 255 with no clamp
        white = ColorBuffer.full(Dimensions(2, 2), (255, 255, 255))
        black = ColorBuffer.full(Dimensions(2, 2), (0, 0, 0))
        assert np.all(rgb_to_luma(white, LumaWeights(*weights)).data == 255)
        assert np.all(rgb_to_luma(black, LumaWeights(*weights)).data == 0)

    def test_output_dims_match(self):
        frame = ColorBuffer(np.zeros((4, 7, 3), dtype=np.uint8))
        assert rgb_to_luma(frame).dims == Dimensions(4, 7)

    def test_a_gray_frame_is_returned_as_it_is(self):
        # a gray frame is already intensity; its columns are no channels to mix
        frame = PixelBuffer(np.arange(12, dtype=np.uint8).reshape(3, 4))
        assert rgb_to_luma(frame, LumaWeights(1.0, 0.0, 0.0)) is frame
        assert rgb_to_luma(frame).dims == Dimensions(3, 4)


class TestResizeNearest:
    def test_downscale_picks_top_left(self):
        frame = PixelBuffer(np.array([[10, 20], [30, 40]], dtype=np.uint8))
        assert resize_nearest(frame, Dimensions(1, 1)).data.tolist() == [[10]]

    def test_upscale_replicates_single_source(self):
        frame = PixelBuffer(np.array([[7]], dtype=np.uint8))
        out = resize_nearest(frame, Dimensions(2, 2))
        assert np.all(out.data == 7)

    @given(gray_arrays)
    def test_identity_at_own_dims(self, arr):
        frame = PixelBuffer(arr)
        assert resize_nearest(frame, frame.dims) == frame

    def test_own_dims_returns_the_input_buffer(self):
        frame = ColorBuffer(np.arange(24, dtype=np.uint8).reshape(2, 4, 3))
        assert resize_nearest(frame, frame.dims) is frame

    @given(gray_arrays, st.integers(1, 8), st.integers(1, 8))
    def test_output_dims(self, arr, rows, cols):
        out = resize_nearest(PixelBuffer(arr), Dimensions(rows, cols))
        assert out.dims == Dimensions(rows, cols)

    @given(st.one_of(gray_arrays, color_arrays), st.integers(1, 24), st.integers(1, 24))
    @example(np.arange(35, dtype=np.uint8).reshape(5, 7), 3, 11)  # 5 -> 3 rows, 7 -> 11 cols
    @example(np.arange(105, dtype=np.uint8).reshape(7, 5, 3), 17, 2)  # 7 -> 17 rows, 5 -> 2 cols
    @example(np.arange(96, dtype=np.uint8).reshape(4, 8, 3), 13, 23)  # upscale both axes, no whole ratio
    def test_matches_floor_index_map(self, arr, rows, cols):
        kind = PixelBuffer if arr.ndim == 2 else ColorBuffer
        out = resize_nearest(kind(arr), Dimensions(rows, cols))
        assert isinstance(out, kind) and out.data.shape == (rows, cols) + arr.shape[2:]
        for r in range(rows):
            for c in range(cols):
                src = arr[r * arr.shape[0] // rows, c * arr.shape[1] // cols]
                assert np.array_equal(out.data[r, c], src)

    def test_color_resize_keeps_channels(self):
        arr = np.arange(24, dtype=np.uint8).reshape(2, 4, 3)
        out = resize_nearest(ColorBuffer(arr), Dimensions(1, 2))
        assert isinstance(out, ColorBuffer)
        assert out.data.tolist() == [[[0, 1, 2], [6, 7, 8]]]
