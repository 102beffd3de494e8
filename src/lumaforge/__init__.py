"""Brightness enhancement toolkit for video frame sequences.

Library layers: frame buffers and luminance extraction (pixel_core), seeded
noise models (noise_models), rank-order smoothing filters (smoothing_filters),
histogram-based brightness equalization (luma_equalize), PSNR metrics and
report artifacts (quality_metrics), netpbm frame I/O (netpbm), and batch
orchestration with a CLI (pipeline, cli).
"""

from .errors import ConfigurationError, IngestionError, PipelineStageError
from .luma_equalize import (
    Histogram,
    enhance,
    enhance_color,
    enhance_with_diagnostics,
    histogram,
    level_map,
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
    FrameSequence,
    PipelineConfig,
    ingest_frames,
    run_metrics,
    run_pipeline,
    run_stage,
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
    improvement_pct,
    psnr,
    report_table,
)
from .smoothing_filters import FILTER_KINDS, FilterSpec, FilterWindow, hybrid_median_filter, median_filter

__version__ = "0.1.0"
