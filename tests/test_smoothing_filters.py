import numpy as np
import pytest
from conftest import block_texture
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from _oracles import oracle_hybrid_median_filter, oracle_median_filter
from lumaforge import (
    ColorBuffer,
    ConfigurationError,
    FilterWindow,
    PixelBuffer,
    hybrid_median_filter,
    median_filter,
    psnr,
    salt_pepper,
)
from lumaforge.smoothing_filters import MAX_WINDOW_SIDE, _plan, _select

frames = npst.arrays(
    np.uint8, npst.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=40)
)
odd_sides = st.sampled_from([1, 3, 5, 7, 9])
color_frames = npst.arrays(np.uint8, st.tuples(st.integers(1, 20), st.integers(1, 20), st.just(3)))


class TestFilterWindow:
    @pytest.mark.parametrize("rows,cols", [(2, 3), (3, 4), (0, 3), (-3, 3)])
    def test_rejects_even_or_nonpositive(self, rows, cols):
        with pytest.raises(ConfigurationError):
            FilterWindow(rows, cols)

    @pytest.mark.parametrize("rows,cols", [(33, 1), (1, 33), (33, 33)])
    def test_rejects_a_side_beyond_the_bound(self, rows, cols):
        with pytest.raises(ConfigurationError, match=f"1..{MAX_WINDOW_SIDE}"):
            FilterWindow(rows, cols)

    def test_accepts_the_largest_side(self):
        assert MAX_WINDOW_SIDE == 31
        assert FilterWindow(31, 31).rows == 31

    def test_default_is_3x3(self):
        assert FilterWindow() == FilterWindow(3, 3)

    @pytest.mark.parametrize("rows,cols", [(3.0, 3), (True, 1), (3, "3")])
    def test_rejects_a_side_that_is_no_integer(self, rows, cols):
        with pytest.raises(ConfigurationError, match="must be an integer"):
            FilterWindow(rows, cols)

    def test_accepts_numpy_integers(self):
        frame = PixelBuffer(np.arange(20, dtype=np.uint8).reshape(4, 5))
        window = FilterWindow(np.int64(31), np.uint8(31))
        assert median_filter(frame, window) == median_filter(frame, FilterWindow(31, 31))


class TestMedianFilter:
    def test_1x1_window_is_identity(self):
        frame = PixelBuffer(np.arange(20, dtype=np.uint8).reshape(4, 5))
        assert median_filter(frame, FilterWindow(1, 1)) == frame

    def test_constant_interior_kept_border_zeroed(self):
        frame = PixelBuffer(np.full((5, 5), 9, dtype=np.uint8))
        out = median_filter(frame, FilterWindow(3, 3))
        assert np.all(out.data[1:-1, 1:-1] == 9)
        # corner window holds 5 padding zeros and 4 nines: median 0
        assert out.data[0, 0] == 0

    def test_single_impulse_removed(self):
        arr = np.zeros((5, 5), dtype=np.uint8)
        arr[2, 2] = 255
        out = median_filter(PixelBuffer(arr), FilterWindow(3, 3))
        assert np.all(out.data == 0)

    def test_window_order_statistic(self):
        # center window {1,2,3,4,100,6,7,8,9} sorts to {...,6,...}: median 6
        arr = np.array([[1, 2, 3], [4, 100, 6], [7, 8, 9]], dtype=np.uint8)
        out = median_filter(PixelBuffer(arr), FilterWindow(3, 3))
        assert out.data[1, 1] == 6

    @settings(max_examples=60, deadline=None)
    @given(frames, odd_sides, odd_sides)
    def test_matches_bruteforce_oracle(self, arr, win_rows, win_cols):
        out = median_filter(PixelBuffer(arr), FilterWindow(win_rows, win_cols))
        expected = oracle_median_filter(arr.tolist(), win_rows, win_cols)
        assert out.data.tolist() == expected


class TestHybridMedianFilter:
    def test_requires_square_window(self):
        frame = PixelBuffer(np.zeros((4, 4), dtype=np.uint8))
        with pytest.raises(ConfigurationError):
            hybrid_median_filter(frame, FilterWindow(3, 5))

    def test_requires_side_at_least_3(self):
        frame = PixelBuffer(np.zeros((4, 4), dtype=np.uint8))
        with pytest.raises(ConfigurationError):
            hybrid_median_filter(frame, FilterWindow(1, 1))

    def test_constant_interior_kept(self):
        frame = PixelBuffer(np.full((5, 5), 9, dtype=np.uint8))
        out = hybrid_median_filter(frame, FilterWindow(3, 3))
        assert np.all(out.data[1:-1, 1:-1] == 9)

    def test_single_impulse_removed(self):
        arr = np.zeros((5, 5), dtype=np.uint8)
        arr[2, 2] = 255
        out = hybrid_median_filter(PixelBuffer(arr), FilterWindow(3, 3))
        assert out.data[2, 2] == 0

    def test_thin_line_preserved(self):
        # the defining edge over the plain median, which erases the line
        arr = np.zeros((5, 7), dtype=np.uint8)
        arr[2, :] = 255
        hybrid = hybrid_median_filter(PixelBuffer(arr), FilterWindow(3, 3))
        plain = median_filter(PixelBuffer(arr), FilterWindow(3, 3))
        assert np.all(hybrid.data[2, 1:-1] == 255)
        assert np.all(plain.data[2, 1:-1] == 0)

    @settings(max_examples=60, deadline=None)
    @given(frames, st.sampled_from([3, 5, 7, 9]))
    def test_matches_bruteforce_oracle(self, arr, side):
        out = hybrid_median_filter(PixelBuffer(arr), FilterWindow(side, side))
        expected = oracle_hybrid_median_filter(arr.tolist(), side)
        assert out.data.tolist() == expected


class TestColorFrames:
    @settings(max_examples=40, deadline=None)
    @given(color_frames, odd_sides, odd_sides, st.sampled_from([3, 5, 7]))
    def test_filters_each_channel_on_its_own(self, arr, win_rows, win_cols, side):
        frame = ColorBuffer(arr)
        for filt, window in ((median_filter, FilterWindow(win_rows, win_cols)),
                             (hybrid_median_filter, FilterWindow(side, side))):
            out = filt(frame, window)
            assert isinstance(out, ColorBuffer)
            for c in range(3):
                assert out.data[..., c].tolist() == filt(PixelBuffer(arr[..., c]), window).data.tolist()


class TestSharedProperties:
    def test_200_random_frames_match_oracles(self):
        rng = np.random.default_rng(77)
        window = FilterWindow(3, 3)
        for _ in range(200):
            arr = rng.integers(0, 256, (7, 7), dtype=np.uint8)
            frame = PixelBuffer(arr)
            assert median_filter(frame, window).data.tolist() == oracle_median_filter(
                arr.tolist(), 3, 3
            )
            assert hybrid_median_filter(frame, window).data.tolist() == (
                oracle_hybrid_median_filter(arr.tolist(), 3)
            )

    @given(st.integers(0, 255))
    def test_idempotent_on_constant_interiors(self, value):
        frame = PixelBuffer(np.full((7, 7), value, dtype=np.uint8))
        for filtered in (median_filter(frame), hybrid_median_filter(frame)):
            assert np.all(filtered.data[1:-1, 1:-1] == value)

    def test_median_improves_psnr_on_impulse_noise(self):
        # d <= 0.1 impulse corruption on textured frames: the 3x3 median wins
        # nearly always; require at least 95 of 100 seeded trials
        wins = 0
        for trial in range(100):
            clean = block_texture(trial)
            noisy = salt_pepper(clean, 0.1, seed=9000 + trial)
            filtered = median_filter(noisy, FilterWindow(3, 3))
            if psnr(filtered, clean).psnr_db > psnr(noisy, clean).psnr_db:
                wins += 1
        assert wins >= 95


class TestSelectionNetwork:
    # the odd n <= 17 cover every plan of that size the filters build:
    # median windows of up to 17 samples, hybrid sides 3..9 (2k - 1 inputs)
    @pytest.mark.parametrize("n", range(1, 18, 2))
    def test_zero_one_principle(self, n):
        # a comparator network selects the rank-r order statistic of every
        # input iff it does so for every 0/1 input (Knuth, TAOCP vol. 3, 5.3.4)
        codes = np.arange(1 << n, dtype=np.uint32)
        bits = [((codes >> i) & 1).astype(np.uint8) for i in range(n)]
        rank = (n - 1) // 2
        out = _select([255 * b for b in bits], rank)
        highs = np.sum(bits, axis=0)
        expected = np.where(n - highs > rank, 0, 255)
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("n", [25, 49])
    def test_random_vectors_match_sort(self, n):
        values = np.random.default_rng(n).integers(0, 256, (10_000, n), dtype=np.uint8)
        rank = (n - 1) // 2
        out = _select(list(values.T), rank)
        assert np.array_equal(out, np.sort(values, axis=1)[:, rank])

    def test_every_rank_of_small_inputs(self):
        rng = np.random.default_rng(3)
        for n in range(1, 12):
            values = rng.integers(0, 256, (2_000, n), dtype=np.uint8)
            ordered = np.sort(values, axis=1)
            for rank in range(n):
                assert np.array_equal(_select(list(values.T), rank), ordered[:, rank])

    @pytest.mark.parametrize("n", [9, 25, 81, 961])
    def test_intermediates_are_dropped_after_last_use(self, n):
        steps, out = _plan(n, (n - 1) // 2)
        live, peak = set(), 0  # intermediate planes; the inputs are views
        for _, a, b, made, dead in steps:
            assert all(value < n or value in live for value in (a, b))
            live.add(made)
            peak = max(peak, len(live))
            live.difference_update(dead)
        assert live == {out}
        assert peak <= n + 2

    def test_folded_3x3_plan_size(self):
        # 9 inputs pad to 16 wires; folding the 7 constant wires and pruning
        # to the middle output leaves 40 of Batcher's 2 x 63 min/max halves
        steps, _ = _plan(9, 4)
        assert len(steps) == 40
