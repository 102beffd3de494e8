"""Brightness enhancement toolkit for video frame sequences.

Library layers: frame buffers and luminance extraction (pixel_core), seeded
noise models (noise_models), rank-order smoothing filters (smoothing_filters),
histogram-based brightness equalization (luma_equalize), PSNR metrics and
report artifacts (quality_metrics), netpbm frame I/O (netpbm), and batch
orchestration with a CLI (pipeline, cli).
"""

from .errors import ConfigurationError, IngestionError, PipelineStageError
from .luma_equalize import (
    CumulativeDistribution,
    EnhanceDiagnostics,
    Histogram,
    LevelMap,
    apply_map,
    color_histogram,
    cumulative,
    enhance,
    enhance_color,
    enhance_with_diagnostics,
    histogram,
    quantize_levels,
)
from .netpbm import decode_image, encode_image, read_image, write_image
from .noise_models import (
    NOISE_KINDS,
    NoiseSpec,
    apply_noise,
    gaussian,
    poisson,
    salt_pepper,
    speckle,
)
from .pipeline import (
    FILTER_KINDS,
    FilterSpec,
    FrameSequence,
    PipelineConfig,
    ingest_frames,
    report_table,
    run_pipeline,
    run_stage,
    sequence_psnr,
)
from .pixel_core import (
    BT601_WEIGHTS,
    ColorBuffer,
    Dimensions,
    LumaWeights,
    PixelBuffer,
    resize_nearest,
    rgb_to_luma,
    round_half_up,
)
from .quality_metrics import (
    MetricsReport,
    PsnrResult,
    export_histogram,
    improvement_pct,
    load_histogram,
    psnr,
)
from .smoothing_filters import FilterWindow, hybrid_median_filter, median_filter

__version__ = "0.1.0"
