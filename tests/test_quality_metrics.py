import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from lumaforge import (
    ColorBuffer,
    ConfigurationError,
    Dimensions,
    MetricsReport,
    PixelBuffer,
    PsnrResult,
    enhance,
    histogram,
    improvement_pct,
    psnr,
)
from lumaforge import quality_metrics
from lumaforge.quality_metrics import histogram_csv
from lumaforge.luma_equalize import N_LEVELS


@st.composite
def histograms(draw):
    """A gray (area rows * cols) or color (3 * rows * cols) histogram; levels may hold 0 or every sample.

    It is counted from a 1 x area frame, since a Histogram only comes from a frame.
    """
    area = draw(st.sampled_from([1, 3])) * draw(st.integers(1, 288)) * draw(st.integers(1, 352))
    occupied = draw(st.integers(1, N_LEVELS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = np.zeros(N_LEVELS, dtype=np.int64)
    counts[rng.choice(N_LEVELS, occupied, replace=False)] = rng.multinomial(area, np.full(occupied, 1 / occupied))
    return histogram(PixelBuffer(np.repeat(np.arange(N_LEVELS, dtype=np.uint8), counts)[None, :]))

# gray/color PSNR pairs published for the six samples, with the improvement
# the formula actually yields (the source prints 12.45 for the first row; the
# computed 12.35 is authoritative)
REFERENCE_PAIRS = [
    ("naerls1", 31.95, 36.45, 12.35),
    ("naerls2", 22.30, 26.65, 16.32),
    ("nta1", 17.71, 24.45, 27.57),
    ("nta2", 23.17, 28.90, 19.83),
    ("akiyo", 15.06, 21.19, 28.93),
    ("foreman", 19.17, 28.06, 31.68),
]


class TestMse:
    def test_identical_is_zero(self):
        a = PixelBuffer(np.arange(16, dtype=np.uint8).reshape(4, 4))
        assert psnr(a, a).mse == 0.0

    def test_uniform_difference_of_one(self):
        a = PixelBuffer(np.zeros((4, 4), dtype=np.uint8))
        b = PixelBuffer(np.ones((4, 4), dtype=np.uint8))
        assert psnr(a, b).mse == 1.0

    def test_full_swing(self):
        a = PixelBuffer(np.zeros((3, 3), dtype=np.uint8))
        b = PixelBuffer(np.full((3, 3), 255, dtype=np.uint8))
        assert psnr(a, b).mse == 65025.0

    def test_dimension_mismatch(self):
        a = PixelBuffer(np.zeros((2, 2), dtype=np.uint8))
        b = PixelBuffer(np.zeros((2, 3), dtype=np.uint8))
        with pytest.raises(ConfigurationError):
            psnr(a, b)


class TestPsnr:
    def test_identical_frames_are_infinite(self):
        a = PixelBuffer(np.arange(9, dtype=np.uint8).reshape(3, 3))
        result = psnr(a, a)
        assert result.is_infinite and result.mse == 0.0

    def test_uniform_difference_of_one(self):
        a = PixelBuffer(np.zeros((8, 8), dtype=np.uint8))
        b = PixelBuffer(np.ones((8, 8), dtype=np.uint8))
        assert abs(psnr(a, b).psnr_db - 48.13) <= 0.01

    def test_full_swing_is_zero_db(self):
        a = PixelBuffer(np.zeros((8, 8), dtype=np.uint8))
        b = PixelBuffer(np.full((8, 8), 255, dtype=np.uint8))
        assert abs(psnr(a, b).psnr_db - 0.0) <= 0.001

    def test_kind_mismatch(self):
        a = PixelBuffer(np.zeros((2, 2), dtype=np.uint8))
        b = ColorBuffer(np.zeros((2, 2, 3), dtype=np.uint8))
        with pytest.raises(ConfigurationError):
            psnr(a, b)

    def test_arrays_are_refused(self):
        array = np.zeros((2, 2), dtype=np.uint8)
        with pytest.raises(ConfigurationError, match="need two frame buffers of one kind, got ndarray and ndarray"):
            psnr(array, array)

    @pytest.mark.parametrize("dtype", [np.uint8, np.float64])
    def test_squared_error_total_refuses_arrays(self, dtype):
        # the pair check lives in squared_error_total alone, so arrays never reach the subtraction
        zeros, threes = np.zeros((2, 2), dtype=dtype), np.full((2, 2), 3, dtype=dtype)
        with pytest.raises(ConfigurationError, match="need two frame buffers of one kind, got ndarray and ndarray"):
            quality_metrics.squared_error_total(zeros, threes)

    def test_color_pools_all_channels(self):
        a = ColorBuffer(np.zeros((2, 2, 3), dtype=np.uint8))
        arr = np.zeros((2, 2, 3), dtype=np.uint8)
        arr[..., 0] = 3  # one channel off by 3: pooled mse = 9/3
        result = psnr(a, ColorBuffer(arr))
        assert result.mse == 3.0

    @given(npst.arrays(np.uint8, (5, 5)), npst.arrays(np.uint8, (5, 5)))
    def test_symmetry(self, x, y):
        a, b = PixelBuffer(x), PixelBuffer(y)
        assert psnr(a, b) == psnr(b, a)

    def test_monotone_in_error(self):
        base = PixelBuffer(np.zeros((4, 4), dtype=np.uint8))
        last = math.inf
        for offset in (1, 5, 20, 80, 255):
            value = psnr(base, PixelBuffer(np.full((4, 4), offset, dtype=np.uint8))).psnr_db
            assert value < last
            last = value

    def test_pooled_rejects_a_negative_total_or_no_samples(self):
        with pytest.raises(ConfigurationError):
            PsnrResult.pooled(-1, 4)
        with pytest.raises(ConfigurationError):
            PsnrResult.pooled(0, 0)

    @given(st.integers(1, 65025 * 10**6), st.integers(1, 10**6))
    def test_pooled_is_the_mse_formula(self, sse, samples):
        result = PsnrResult.pooled(sse, samples)
        assert result.mse == sse / samples
        assert result.psnr_db == 10.0 * math.log10(255**2 / (sse / samples))


class TestImprovement:
    @pytest.mark.parametrize("name,gray,color,expected", REFERENCE_PAIRS)
    def test_reference_pairs(self, name, gray, color, expected):
        assert abs(improvement_pct(gray, color) - expected) <= 0.01

    def test_equal_inputs_give_zero(self):
        assert improvement_pct(23.4, 23.4) == 0.0

    def test_zero_color_is_undefined(self):
        with pytest.raises(ConfigurationError):
            improvement_pct(10.0, 0.0)

    @given(
        st.floats(1.0, 60.0, allow_nan=False),
        st.floats(1.0, 60.0, allow_nan=False),
    )
    def test_sign_tracks_which_side_wins(self, gray, color):
        value = improvement_pct(gray, color)
        if color > gray:
            assert value > 0
        elif color < gray:
            assert value < 0
        else:
            assert value == 0


class TestHistogramCsv:
    def test_constant_frame_has_single_nonzero_row(self, tmp_path):
        hist = histogram(PixelBuffer.full(Dimensions(4, 4), 9))
        path = tmp_path / "hist.csv"
        path.write_bytes(histogram_csv(hist))
        lines = path.read_text().splitlines()
        assert lines[0] == "level,count,probability"
        assert len(lines) == 257
        nonzero = [line for line in lines[1:] if not line.endswith(",0,0.000000000e+00")]
        assert nonzero == ["9,16,1.000000000e+00"]

    def test_quad_frame_rows(self, tmp_path):
        hist = histogram(PixelBuffer(np.array([[0, 0], [1, 255]], dtype=np.uint8)))
        path = tmp_path / "hist.csv"
        path.write_bytes(histogram_csv(hist))
        lines = path.read_text().splitlines()
        assert lines[1] == "0,2,5.000000000e-01"
        assert lines[2] == "1,1,2.500000000e-01"
        assert lines[256] == "255,1,2.500000000e-01"

    @pytest.mark.parametrize("cache", ["cleared", "full"])
    @given(hist=histograms())
    @example(hist=histogram(PixelBuffer.full(Dimensions(3 * 144, 176), 7)))
    def test_cell_cache_gives_the_uncached_bytes(self, cache, hist):
        cell = quality_metrics._cell
        if cache == "cleared":
            cell.cache_clear()
        else:
            for count in range(cell.cache_info().maxsize + 1):
                cell(count, 2**40)
            assert cell.cache_info().currsize == cell.cache_info().maxsize
        area = hist.area
        counts = hist.counts.tolist()
        uncached = [f"{level},{c},{c / area:.9e}" for level, c in enumerate(counts)]
        numpy_mass = [f"{level},{c},{m:.9e}" for level, (c, m) in enumerate(zip(counts, hist.mass.tolist()))]
        assert uncached == numpy_mass
        expected = "\n".join(["level,count,probability", *uncached]) + "\n"
        assert histogram_csv(hist) == expected.encode("ascii")
        assert histogram_csv(hist) == expected.encode("ascii")  # now from cached cells


class TestMetricsReport:
    def test_round_trip_with_infinite_psnr(self, tmp_path):
        report = MetricsReport(
            sample_name="clip",
            n_frames=3,
            frame_dims=Dimensions(144, 176),
            pipeline_config_digest="abc123",
            gray_psnr_db=math.inf,
            color_psnr_db=21.19,
            improvement_pct=None,
            size_label="11Mb",
        )
        path = tmp_path / "report.json"
        path.write_bytes(report.to_json_bytes())
        text = path.read_text()
        assert '"gray_psnr_db": "inf"' in text
        loaded = MetricsReport.load(path)
        assert loaded == report

    def test_round_trip_with_missing_color(self, tmp_path):
        report = MetricsReport(
            sample_name="clip",
            n_frames=1,
            frame_dims=Dimensions(2, 2),
            pipeline_config_digest="d",
            gray_psnr_db=31.95,
        )
        path = tmp_path / "report.json"
        path.write_bytes(report.to_json_bytes())
        loaded = MetricsReport.load(path)
        assert loaded.color_psnr_db is None and loaded.gray_psnr_db == 31.95

    def test_inf_stands_for_infinity_only_in_the_number_fields(self, tmp_path):
        report = MetricsReport(
            sample_name="inf",
            n_frames=1,
            frame_dims=Dimensions(2, 2),
            pipeline_config_digest="inf",
            gray_psnr_db=math.inf,
            size_label="inf",
        )
        path = tmp_path / "report.json"
        path.write_bytes(report.to_json_bytes())
        assert MetricsReport.load(path) == report

    @pytest.mark.parametrize("gray, color, given, expected", [
        pytest.param(22.30, 26.65, 99.0, improvement_pct(22.30, 26.65), id="finite_pair"),
        pytest.param(math.inf, 21.19, 5.0, 5.0, id="infinite_gray"),
        pytest.param(20.0, 0.0, None, None, id="zero_color"),
        pytest.param(20.0, None, 7.0, 7.0, id="gray_only"),
    ])
    def test_improvement_is_derived_from_a_finite_pair(self, gray, color, given, expected):
        report = MetricsReport(
            sample_name="clip",
            n_frames=1,
            frame_dims=Dimensions(2, 2),
            pipeline_config_digest="d",
            gray_psnr_db=gray,
            color_psnr_db=color,
            improvement_pct=given,
        )
        assert report.improvement_pct == expected

    def test_load_rejects_garbage(self, tmp_path):
        from lumaforge import IngestionError

        bad = tmp_path / "report.json"
        bad.write_text("{}")
        with pytest.raises(IngestionError):
            MetricsReport.load(bad)


class TestSequencePooling:
    def test_pooled_psnr_stays_finite_with_perfect_frames(self):
        # one perfect frame plus one imperfect frame: pooling the squared
        # error keeps the sequence PSNR finite where a mean of per-frame
        # PSNRs would blow up
        from lumaforge.quality_metrics import squared_error_total

        clean = enhance(PixelBuffer(np.full((4, 4), 7, dtype=np.uint8)))
        off = PixelBuffer(np.full((4, 4), 254, dtype=np.uint8))
        sse = squared_error_total(clean, clean) + squared_error_total(clean, off)
        pooled = PsnrResult.pooled(sse, 32)
        assert math.isfinite(pooled.psnr_db)
        assert pooled.mse == (16 * 1) / 32
