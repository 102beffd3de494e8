import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import (
    block_texture,
    color_block_texture,
    from_planes,
    planes,
    tree_digest,
    write_color_sequence,
    write_gray_sequence,
)

import lumaforge.pipeline as pipeline_module
from lumaforge import _declared, noise_models, smoothing_filters
from lumaforge import (
    FILTER_KINDS,
    NOISE_KINDS,
    ColorBuffer,
    ConfigurationError,
    Dimensions,
    FilterSpec,
    FilterWindow,
    IngestionError,
    LumaWeights,
    MetricsReport,
    NoiseSpec,
    PipelineConfig,
    PipelineStageError,
    PixelBuffer,
    PsnrResult,
    apply_noise,
    ingest_frames,
    read_image,
    report_table,
    rgb_to_luma,
    run_pipeline,
    run_metrics,
    run_stage,
    write_image,
)
from lumaforge.quality_metrics import squared_error_total
from lumaforge.rng import derive_seed

REFERENCE_PAIRS = [
    ("naerls1", "18.1Mb", 157, 31.95, 36.45),
    ("naerls2", "10.3Mb", 155, 22.30, 26.65),
    ("nta1", "9.6Mb", 152, 17.71, 24.45),
    ("nta2", "11.2Mb", 200, 23.17, 28.90),
    ("akiyo", "11Mb", 300, 15.06, 21.19),
    ("foreman", "7.25Mb", 100, 19.17, 28.06),
]


# Any JSON value: text includes NUL and lone surrogates, and integers go past
# 2**64 and, negative, past the float range.
_TEXT = st.text(st.characters() | st.characters(categories=["Cs"]), max_size=6)
_NUMBER = st.integers() | st.floats() | st.integers(min_value=2**64) | st.integers(max_value=-(2**1024))
_JSON = st.recursive(
    st.none() | st.booleans() | _NUMBER | _TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=6,
)


def _spec(kinds, **fields):
    """A noise or filter object: a known kind plus any subset of its fields."""
    return st.fixed_dictionaries({"kind": st.sampled_from(kinds)}, optional=fields)


# Per config field: arbitrary JSON, or a value of roughly the right shape, so
# that the parser gets past the earlier fields and reaches the later ones.
_FIELD_VALUES = {
    "resize_to": st.lists(_NUMBER, min_size=2, max_size=2),
    "luma_weights": st.lists(_NUMBER, min_size=3, max_size=3),
    "noise": _spec(NOISE_KINDS, d=_NUMBER, seed=_NUMBER),
    "filter": _spec(FILTER_KINDS, window=st.lists(_NUMBER, min_size=2, max_size=2)),
    "sigma": _NUMBER,
    "mode": st.sampled_from(pipeline_module.MODES),
    "seed": _NUMBER,
    "psnr_reference": st.sampled_from(pipeline_module.PSNR_REFERENCES),
    "sample_name": _TEXT,
    "size_label": _TEXT,
}
_CONFIGS = st.lists(st.sampled_from(sorted(_FIELD_VALUES)), max_size=3, unique=True).flatmap(
    lambda names: st.fixed_dictionaries(
        {"input_dir": _TEXT, "output_dir": _TEXT, **{n: _FIELD_VALUES[n] | _JSON for n in names}}
    )
)

# Valid configs, each optional field either set or left at its default (None
# where the field allows it).
_NAMES = st.text(st.characters(exclude_categories=["Cs"], exclude_characters="/\\\0"), min_size=1, max_size=6)
_UNIT = st.floats(0, 0.5)
_ODD_SIDES = st.integers(0, 15).map(lambda k: 2 * k + 1)
_VALID_CONFIGS = st.builds(
    PipelineConfig,
    input_dir=_NAMES,
    output_dir=_NAMES,
    resize_to=st.none() | st.builds(Dimensions, st.integers(1, 8192), st.integers(1, 8192)),
    luma_weights=st.builds(lambda r, g: LumaWeights(r, g, 1.0 - r - g), _UNIT, _UNIT),
    noise=st.none() | st.sampled_from(NOISE_KINDS).flatmap(lambda kind: st.builds(
        NoiseSpec, st.just(kind), st.just(0.0) if kind == "poisson" else st.floats(0, 1), st.integers(0, 2**64 - 1))),
    filter=st.none()
    | st.builds(FilterSpec, st.just("median"), st.builds(FilterWindow, _ODD_SIDES, _ODD_SIDES))
    | _ODD_SIDES.filter(lambda n: n >= 3).map(lambda n: FilterSpec("hybrid_median", FilterWindow(n, n))),
    sigma=st.floats(allow_nan=False, allow_infinity=False),
    mode=st.sampled_from(pipeline_module.MODES),
    seed=st.integers(0, 2**64 - 1),
    psnr_reference=st.sampled_from(pipeline_module.PSNR_REFERENCES),
    sample_name=st.none() | _NAMES.filter(lambda name: name not in (".", "..") and name.isprintable()),
    size_label=st.none() | st.text(st.characters(exclude_categories=["C", "Z"]) | st.just(" "), max_size=6),
)


def small_config(tmp_path, **overrides):
    defaults = dict(
        input_dir=tmp_path / "in",
        output_dir=tmp_path / "out",
        resize_to=None,
        seed=42,
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


class TestPipelineConfig:
    def test_defaults(self, tmp_path):
        cfg = PipelineConfig(input_dir=tmp_path, output_dir=tmp_path / "o")
        assert cfg.resize_to == Dimensions(144, 176)
        assert cfg.mode == "gray" and cfg.sigma == 0.0 and cfg.seed == 0
        assert cfg.psnr_reference == "clean"

    def test_from_mapping_requires_dirs(self):
        with pytest.raises(ConfigurationError, match="input_dir"):
            PipelineConfig.from_mapping({"output_dir": "x"})

    def test_from_mapping_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError, match="unknown config fields"):
            PipelineConfig.from_mapping({"input_dir": "a", "output_dir": "b", "speed": 9})

    def test_from_mapping_parses_everything(self):
        cfg = PipelineConfig.from_mapping(
            {
                "input_dir": "in",
                "output_dir": "out",
                "resize_to": [72, 88],
                "luma_weights": [0.5, 0.25, 0.25],
                "noise": {"kind": "gaussian", "d": 0.01},
                "filter": {"kind": "hybrid_median", "window": [5, 5]},
                "sigma": 0.001,
                "mode": "both",
                "seed": 77,
                "psnr_reference": "noisy",
                "sample_name": "clip",
                "size_label": "9.6Mb",
            }
        )
        assert cfg.resize_to == Dimensions(72, 88)
        assert cfg.luma_weights.red == 0.5
        assert cfg.noise == NoiseSpec("gaussian", 0.01, 77)  # seed defaults to the run seed
        assert cfg.filter == FilterSpec("hybrid_median", FilterWindow(5, 5))
        assert cfg.mode == "both" and cfg.psnr_reference == "noisy"

    def test_noise_seed_override(self):
        cfg = PipelineConfig.from_mapping(
            {"input_dir": "a", "output_dir": "b", "seed": 5, "noise": {"kind": "poisson", "seed": 9}}
        )
        assert cfg.noise.seed == 9

    def test_null_resize_disables(self):
        cfg = PipelineConfig.from_mapping(
            {"input_dir": "a", "output_dir": "b", "resize_to": None}
        )
        assert cfg.resize_to is None

    def test_rejects_a_resize_beyond_the_sample_bound(self, tmp_path):
        with pytest.raises(ConfigurationError, match="resize_to must have at most"):
            PipelineConfig(input_dir=tmp_path, output_dir=tmp_path, resize_to=Dimensions(8193, 8193))

    def test_from_mapping_builds_every_field_type(self):
        # a field of a type the builder cannot parse fails here, not at run time;
        # the config and the metrics report are both read by the one builder
        seen, pending = set(), [PipelineConfig, MetricsReport]
        while pending:
            cls = pending.pop()
            for hint in get_type_hints(cls).values():
                args = get_args(hint)
                if args:  # the builder reads only X | None
                    assert len(args) == 2 and type(None) in args, f"{cls.__name__}: no builder for {hint}"
                    hint = next(a for a in args if a is not type(None))
                if dataclasses.is_dataclass(hint):
                    if hint not in seen:
                        seen.add(hint)
                        pending.append(hint)
                else:
                    assert hint in _declared._SCALARS, f"{cls.__name__}: no builder for {hint}"
        assert seen == {Dimensions, LumaWeights, NoiseSpec, FilterSpec, FilterWindow}

    def test_a_config_is_frozen(self):
        # a config is checked once, when it is made; a field set afterwards would skip those checks
        cfg = PipelineConfig.from_mapping({"input_dir": "a", "output_dir": "b", "noise": {"kind": "poisson"}})
        for field in dataclasses.fields(PipelineConfig):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cfg, field.name, getattr(cfg, field.name))
        assert isinstance(cfg.input_dir, Path) and isinstance(cfg.output_dir, Path)

    def test_rejects_bad_mode_and_reference(self, tmp_path):
        with pytest.raises(ConfigurationError):
            PipelineConfig(input_dir=tmp_path, output_dir=tmp_path, mode="sepia")
        with pytest.raises(ConfigurationError):
            PipelineConfig(input_dir=tmp_path, output_dir=tmp_path, psnr_reference="original")

    @settings(max_examples=200, deadline=None)
    @given(_CONFIGS)
    def test_from_mapping_raises_only_config_errors(self, mapping):
        assert {"input_dir", "output_dir", *_FIELD_VALUES} == set(PipelineConfig.__dataclass_fields__)
        try:
            cfg = PipelineConfig.from_mapping(mapping)
        except ConfigurationError:
            return
        assert len(cfg.digest()) == 64

    @settings(max_examples=200, deadline=None)
    @given(_VALID_CONFIGS)
    @example(PipelineConfig("in", "out", resize_to=None))  # every optional field unset
    @example(PipelineConfig(
        "in", "out", Dimensions(3, 5), LumaWeights(0.5, 0.25, 0.25), NoiseSpec("poisson", 0.0, 2**64 - 1),
        FilterSpec("hybrid_median", FilterWindow(5, 5)), 0.001, "both", 7, "noisy", "clip", "9.6Mb",
    ))  # every optional field set
    def test_canonical_mapping_round_trips(self, cfg):
        mapping = json.loads(json.dumps(cfg.to_mapping()))
        assert mapping == cfg.to_mapping()
        again = PipelineConfig.from_mapping(mapping)
        assert again == cfg and again.digest() == cfg.digest()

    def test_digest_changes_iff_fields_change(self, tmp_path):
        base = small_config(tmp_path)
        same = small_config(tmp_path)
        assert base.digest() == same.digest()
        changed = [
            small_config(tmp_path, seed=43),
            small_config(tmp_path, sigma=0.5),
            small_config(tmp_path, mode="both"),
            small_config(tmp_path, resize_to=Dimensions(10, 10)),
            small_config(tmp_path, noise=NoiseSpec("gaussian", 0.01, 1)),
            small_config(tmp_path, filter=FilterSpec("median")),
            small_config(tmp_path, output_dir=tmp_path / "other"),
            small_config(tmp_path, sample_name="x"),
        ]
        digests = {cfg.digest() for cfg in changed}
        assert base.digest() not in digests
        assert len(digests) == len(changed)

    @pytest.mark.parametrize("key", ["input_dir", "output_dir"])
    @pytest.mark.parametrize("name", ["a\0b", "\ud800"])
    def test_a_path_the_os_cannot_take_is_refused(self, key, name):
        # a NUL byte, or a lone high surrogate that no file name byte stands for
        paths = {"input_dir": "i", "output_dir": "o", key: name}
        with pytest.raises(ConfigurationError, match=f"{key} must encode as a path without NUL"):
            PipelineConfig(**paths)

    def test_digest_hashes_the_canonical_json(self, tmp_path):
        # a path may hold a lone low surrogate, which stands for a file name byte that is not UTF-8
        undecodable = small_config(tmp_path, input_dir="clip\udc80")
        assert undecodable.digest() != small_config(tmp_path, input_dir="clip").digest()
        # an ASCII config hashes the same bytes as its ASCII-escaped JSON
        ascii_json = json.dumps(small_config(tmp_path).to_mapping(), sort_keys=True, separators=(",", ":"))
        assert small_config(tmp_path).digest() == hashlib.sha256(ascii_json.encode("ascii")).hexdigest()
        # and any config hashes its UTF-8 JSON as hashlib's sha256 does
        raw_json = json.dumps(undecodable.to_mapping(), sort_keys=True, separators=(",", ":"), ensure_ascii=False)
        assert undecodable.digest() == hashlib.sha256(raw_json.encode("utf-8", "surrogatepass")).hexdigest()


class TestIngest:
    def test_orders_by_numeric_index(self, tmp_path):
        d = tmp_path / "seq"
        d.mkdir()
        for index, value in [(2, 20), (0, 0), (10, 100)]:
            write_image(
                PixelBuffer(np.full((2, 2), value, dtype=np.uint8)),
                d / f"clip_{index}.pgm",
            )
        seq = ingest_frames(d)
        assert [int(seq.load(i).data[0, 0]) for i in range(3)] == [0, 20, 100]
        assert [p.name for p in seq.paths] == ["clip_0.pgm", "clip_2.pgm", "clip_10.pgm"]
        assert seq.name == "clip"

    def test_promotes_gray_to_color(self, tmp_path):
        # load keeps the stored kind; the color path promotes a gray plane with R = G = B
        plane = PixelBuffer(np.full((3, 4), 9, dtype=np.uint8))
        d = tmp_path / "seq"
        write_gray_sequence(d, "clip", [plane])
        seq = ingest_frames(d)
        assert seq.native_kind == "gray"
        frame = seq.load(0)
        assert frame == plane
        promoted = pipeline_module._promoted(frame)
        assert isinstance(promoted, ColorBuffer)
        r, g, b = planes(promoted)
        assert r == g == b == plane
        assert pipeline_module._promoted(promoted) is promoted

    def test_rejects_mixed_dims_naming_offender(self, tmp_path):
        d = tmp_path / "seq"
        d.mkdir()
        write_image(PixelBuffer(np.zeros((2, 2), dtype=np.uint8)), d / "clip_000.pgm")
        write_image(PixelBuffer(np.zeros((4, 4), dtype=np.uint8)), d / "clip_001.pgm")
        with pytest.raises(IngestionError, match="clip_001.pgm"):
            ingest_frames(d)

    def test_rejects_empty_directory(self, tmp_path):
        d = tmp_path / "seq"
        d.mkdir()
        (d / "notes.txt").write_text("not a frame")
        with pytest.raises(IngestionError, match="no frame files"):
            ingest_frames(d)

    def test_rejects_missing_directory(self, tmp_path):
        with pytest.raises(IngestionError, match="not found"):
            ingest_frames(tmp_path / "nope")

    def test_rejects_ambiguous_stems(self, tmp_path):
        d = tmp_path / "seq"
        d.mkdir()
        write_image(PixelBuffer(np.zeros((2, 2), dtype=np.uint8)), d / "a_000.pgm")
        write_image(PixelBuffer(np.zeros((2, 2), dtype=np.uint8)), d / "b_000.pgm")
        with pytest.raises(IngestionError, match="ambiguous"):
            ingest_frames(d)

    def test_ignores_non_frame_files(self, tmp_path):
        d = tmp_path / "seq"
        write_gray_sequence(d, "clip", [PixelBuffer(np.zeros((2, 2), dtype=np.uint8))])
        (d / "report.json").write_text("{}")
        (d / "clip_gray_hist_pre_000.csv").write_text("level,count,probability\n")
        seq = ingest_frames(d)
        assert len(seq.paths) == 1


class TestRunPipeline:
    def test_constant_frames_enhance_to_white(self, tmp_path):
        frames = [PixelBuffer(np.full((6, 8), 40, dtype=np.uint8)) for _ in range(2)]
        write_gray_sequence(tmp_path / "in", "flat", frames)
        report = run_pipeline(small_config(tmp_path))
        enhanced = sorted((tmp_path / "out").glob("*_enhanced_*.pgm"))
        assert len(enhanced) == 2
        assert all(np.all(read_image(p).data == 255) for p in enhanced)
        # PSNR vs the clean constant frame: mse = (255-40)^2, finite
        assert math.isfinite(report.gray_psnr_db)
        assert report.gray_psnr_db == pytest.approx(10 * math.log10(255**2 / (215.0**2)))

    def test_artifact_counts(self, tmp_path):
        frames = [block_texture(i, rows=12, cols=16) for i in range(4)]
        write_gray_sequence(tmp_path / "in", "clip", frames)
        run_pipeline(small_config(tmp_path))
        out = tmp_path / "out"
        assert len(list(out.glob("*_enhanced_*.pgm"))) == 4
        assert len(list(out.glob("*_hist_pre_*.csv"))) == 4
        assert len(list(out.glob("*_hist_post_*.csv"))) == 4
        assert (out / "report.json").exists()

    def test_report_contents(self, tmp_path):
        frames = [block_texture(i, rows=12, cols=16) for i in range(3)]
        write_gray_sequence(tmp_path / "in", "clip", frames)
        cfg = small_config(tmp_path, size_label="7.25Mb")
        report = run_pipeline(cfg)
        assert report.sample_name == "clip"
        assert report.n_frames == 3
        assert report.frame_dims == Dimensions(12, 16)
        assert report.pipeline_config_digest == cfg.digest()
        assert report.color_psnr_db is None and report.improvement_pct is None
        assert report.size_label == "7.25Mb"
        loaded = MetricsReport.load(tmp_path / "out" / "report.json")
        assert loaded == report

    def test_deterministic_across_runs_and_workers(self, tmp_path):
        frames = [block_texture(i, rows=16, cols=16) for i in range(5)]
        write_gray_sequence(tmp_path / "in", "clip", frames)
        cfg = small_config(
            tmp_path,
            noise=NoiseSpec("salt_pepper", 0.05, 42),
            filter=FilterSpec("median"),
        )
        run_pipeline(cfg, jobs=1)
        first = tree_digest(tmp_path / "out")
        run_pipeline(cfg, jobs=3)
        assert tree_digest(tmp_path / "out") == first

    def test_more_workers_than_cores_share_one_sink(self, tmp_path):
        # short thread switches interleave the workers with the calling thread, which writes every frame
        write_gray_sequence(tmp_path / "in", "clip", [block_texture(i, rows=8, cols=8) for i in range(40)])
        run_pipeline(small_config(tmp_path, output_dir=tmp_path / "one"), jobs=1)
        blocker = tmp_path / "bad" / "clip_enhanced_039.pgm"
        blocker.mkdir(parents=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run_pipeline(small_config(tmp_path, output_dir=tmp_path / "many"), jobs=2 * (os.cpu_count() or 1))
            with pytest.raises(PipelineStageError, match="frame 39"):
                run_pipeline(small_config(tmp_path, output_dir=tmp_path / "bad"), jobs=2 * (os.cpu_count() or 1))
        finally:
            sys.setswitchinterval(interval)
        many, one = tree_digest(tmp_path / "many"), tree_digest(tmp_path / "one")
        # report.json holds the config digest, which hashes output_dir
        assert many.pop("report.json") and one.pop("report.json")
        assert many == one and len(many) == 40 * 3
        assert list((tmp_path / "bad").iterdir()) == [blocker]

    @pytest.mark.parametrize("module, cached, helper, setting", [
        (noise_models, "_gaussian_tables", "_top_cuts", {"noise": NoiseSpec("gaussian", 0.01, 7)}),
        (noise_models, "_poisson_tables", "_top_cuts", {"noise": NoiseSpec("poisson", 0.0, 7)}),
        (smoothing_filters, "_plan", "_batcher_pairs", {"filter": FilterSpec("median", FilterWindow(5, 5))}),
    ], ids=["gaussian_tables", "poisson_tables", "plan"])
    def test_a_shared_table_is_built_once_at_jobs_2(self, tmp_path, monkeypatch, module, cached, helper, setting):
        # the first build stalls in a helper it calls, so the second worker asks for the value meanwhile
        real, stalls = getattr(module, helper), []

        def slowed(*args):
            if not stalls:
                stalls.append(helper)
                time.sleep(0.5)
            return real(*args)

        write_gray_sequence(tmp_path / "in", "clip", [block_texture(i, rows=8, cols=8) for i in range(4)])
        monkeypatch.setattr(module, helper, slowed)
        build = getattr(module, cached)
        build.cache_clear()
        try:
            run_pipeline(small_config(tmp_path, **setting), jobs=2)
            assert stalls == [helper]
            assert build.cache_info().misses == 1
        finally:
            build.cache_clear()  # drop the values built while patched

    def test_inputs_never_mutated(self, tmp_path):
        frames = [block_texture(i, rows=8, cols=8) for i in range(3)]
        write_gray_sequence(tmp_path / "in", "clip", frames)
        before = tree_digest(tmp_path / "in")
        run_pipeline(small_config(tmp_path, noise=NoiseSpec("gaussian", 0.01, 7)))
        assert tree_digest(tmp_path / "in") == before

    def test_both_mode_emits_both_kinds_and_improvement(self, tmp_path):
        frames = [color_block_texture(i, rows=12, cols=12, block=4) for i in range(2)]
        write_color_sequence(tmp_path / "in", "clip", frames)
        report = run_pipeline(small_config(tmp_path, mode="both"))
        out = tmp_path / "out"
        assert len(list(out.glob("*_enhanced_*.pgm"))) == 2
        assert len(list(out.glob("*_enhanced_*.ppm"))) == 2
        assert len(list(out.glob("*_gray_hist_*.csv"))) == 4
        assert len(list(out.glob("*_color_hist_*.csv"))) == 4
        assert report.gray_psnr_db is not None and report.color_psnr_db is not None
        assert report.improvement_pct == pytest.approx(
            (report.color_psnr_db - report.gray_psnr_db) / report.color_psnr_db * 100.0
        )

    def test_resize_is_applied(self, tmp_path):
        frames = [block_texture(1, rows=20, cols=20)]
        write_gray_sequence(tmp_path / "in", "clip", frames)
        report = run_pipeline(small_config(tmp_path, resize_to=Dimensions(10, 5)))
        out_frame = read_image(next(iter((tmp_path / "out").glob("*.pgm"))))
        assert out_frame.dims == Dimensions(10, 5)
        assert report.frame_dims == Dimensions(10, 5)

    def test_noisy_reference_changes_psnr(self, tmp_path):
        frames = [block_texture(i, rows=16, cols=16) for i in range(2)]
        write_gray_sequence(tmp_path / "in", "clip", frames)
        noise = NoiseSpec("salt_pepper", 0.2, 11)
        clean_ref = run_pipeline(small_config(tmp_path, noise=noise))
        noisy_ref = run_pipeline(
            small_config(tmp_path, noise=noise, psnr_reference="noisy", output_dir=tmp_path / "out2")
        )
        assert clean_ref.gray_psnr_db != noisy_ref.gray_psnr_db

    def test_noisy_reference_is_the_noised_frame_before_the_filter(self, tmp_path):
        frames = [color_block_texture(i, rows=16, cols=16) for i in range(2)]
        write_color_sequence(tmp_path / "in", "clip", frames)
        noise = NoiseSpec("salt_pepper", 0.2, 11)
        report = run_pipeline(small_config(
            tmp_path, mode="both", noise=noise, filter=FilterSpec("median"), psnr_reference="noisy"))

        def noised(plane, index, slot):
            return apply_noise(plane, NoiseSpec(noise.kind, noise.d, derive_seed(noise.seed, index, slot)))

        gray_sse = color_sse = 0
        for index, frame in enumerate(frames):
            gray = read_image(tmp_path / "out" / f"clip_enhanced_{index:03d}.pgm")
            gray_sse += squared_error_total(gray, noised(rgb_to_luma(frame), index, 0))
            color = read_image(tmp_path / "out" / f"clip_enhanced_{index:03d}.ppm")
            for slot, (ours, clean) in enumerate(zip(planes(color), planes(frame)), start=1):
                color_sse += squared_error_total(ours, noised(clean, index, slot))
        samples = len(frames) * 16 * 16
        assert report.gray_psnr_db == PsnrResult.pooled(gray_sse, samples).psnr_db
        assert report.color_psnr_db == PsnrResult.pooled(color_sse, 3 * samples).psnr_db

    def test_stage_failure_cleans_up_with_frame_index(self, tmp_path, monkeypatch):
        frames = [PixelBuffer(np.full((8, 8), i * 10, dtype=np.uint8)) for i in range(3)]
        write_gray_sequence(tmp_path / "in", "clip", frames)
        real = pipeline_module.enhance_with_diagnostics

        def explode(frame, sigma=0.0):
            if frame.data[0, 0] == 20:
                raise RuntimeError("boom")
            return real(frame, sigma)

        monkeypatch.setattr(pipeline_module, "enhance_with_diagnostics", explode)
        with pytest.raises(PipelineStageError, match="frame 2"):
            run_pipeline(small_config(tmp_path))
        assert list((tmp_path / "out").glob("*enhanced*")) == []
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_failed_run_leaves_no_late_write_and_no_thread(self, tmp_path, monkeypatch, jobs):
        frames = [PixelBuffer(np.full((8, 8), i * 10, dtype=np.uint8)) for i in range(6)]
        write_gray_sequence(tmp_path / "in", "clip", frames)
        real_enhance, real_write = pipeline_module.enhance_with_diagnostics, pipeline_module._write

        def explode_on_last(frame, sigma=0.0):
            if frame.data[0, 0] == 50:
                raise RuntimeError("boom")
            return real_enhance(frame, sigma)

        def slow_write(what, artifacts, written):
            time.sleep(0.05)
            real_write(what, artifacts, written)

        monkeypatch.setattr(pipeline_module, "enhance_with_diagnostics", explode_on_last)
        monkeypatch.setattr(pipeline_module, "_write", slow_write)
        before = set(threading.enumerate())
        with pytest.raises(PipelineStageError, match="frame 5"):
            run_pipeline(small_config(tmp_path), jobs=jobs)
        assert [t for t in threading.enumerate() if t not in before] == []
        time.sleep(0.2)  # a write still queued or running would land by now
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("entry", ["run", "stage"])
    def test_an_interrupt_in_a_stage_removes_the_run_and_leaves_no_thread(self, tmp_path, monkeypatch, jobs, entry):
        frames = [PixelBuffer(np.full((8, 8), i * 10, dtype=np.uint8)) for i in range(6)]
        write_gray_sequence(tmp_path / "in", "clip", frames)
        real = pipeline_module.enhance_with_diagnostics

        def interrupt_on_frame_3(frame, sigma=0.0):
            if frame.data[0, 0] == 30:
                raise KeyboardInterrupt
            return real(frame, sigma)

        monkeypatch.setattr(pipeline_module, "enhance_with_diagnostics", interrupt_on_frame_3)
        before = set(threading.enumerate())
        with pytest.raises(KeyboardInterrupt):
            if entry == "run":
                run_pipeline(small_config(tmp_path), jobs=jobs)
            else:
                run_stage(small_config(tmp_path), "enhance", jobs=jobs)
        assert [t for t in threading.enumerate() if t not in before] == []
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_workers_start_at_most_the_window_beyond_the_last_write(self, tmp_path, monkeypatch, jobs):
        write_gray_sequence(tmp_path / "in", "clip", [block_texture(i, rows=8, cols=8) for i in range(12)])
        real_load, real_write = pipeline_module.FrameSequence.load, pipeline_module._write
        writes, leads = [], []

        def load(sequence, index):
            leads.append(index - (len(writes) - 1))  # how far past the last frame written this one is
            return real_load(sequence, index)

        def slow_write(what, artifacts, written):
            time.sleep(0.01)  # the workers run ahead as far as the loop lets them
            real_write(what, artifacts, written)
            writes.append(what)

        monkeypatch.setattr(pipeline_module.FrameSequence, "load", load)
        monkeypatch.setattr(pipeline_module, "_write", slow_write)
        run_pipeline(small_config(tmp_path), jobs=jobs)
        assert writes == [f"frame {index}" for index in range(12)] + ["report"]
        assert max(leads) == jobs + pipeline_module._WAITING_FRAMES, leads

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_good_run_leaves_no_thread(self, tmp_path, jobs):
        write_gray_sequence(tmp_path / "in", "clip", [block_texture(i, rows=8, cols=8) for i in range(4)])
        before = set(threading.enumerate())
        run_pipeline(small_config(tmp_path), jobs=jobs)
        assert [t for t in threading.enumerate() if t not in before] == []
        assert len(list((tmp_path / "out").iterdir())) == 4 * 3 + 1

    def test_rejects_bad_jobs(self, tmp_path):
        with pytest.raises(ConfigurationError):
            run_pipeline(small_config(tmp_path), jobs=0)


class TestRunStage:
    @pytest.fixture()
    def gray_in(self, tmp_path):
        frames = [block_texture(i, rows=10, cols=10) for i in range(2)]
        write_gray_sequence(tmp_path / "in", "clip", frames)
        return frames

    def test_luma_on_color_frames(self, tmp_path):
        frames = [color_block_texture(3, rows=8, cols=8, block=4)]
        write_color_sequence(tmp_path / "in", "clip", frames)
        written = run_stage(small_config(tmp_path), "luma")
        assert [p.name for p in written] == ["clip_luma_000.pgm"]

    def test_noise_stage_matches_library_call(self, tmp_path, gray_in):
        from lumaforge import apply_noise, read_image
        from lumaforge.rng import derive_seed

        noise = NoiseSpec("salt_pepper", 0.3, 42)
        written = run_stage(small_config(tmp_path, noise=noise), "noise")
        for index, (path, clean) in enumerate(zip(written, gray_in)):
            expected = apply_noise(
                clean, NoiseSpec("salt_pepper", 0.3, derive_seed(42, index, 0))
            )
            assert read_image(path) == expected

    def test_noise_stage_requires_spec(self, tmp_path, gray_in):
        with pytest.raises(ConfigurationError, match="noise"):
            run_stage(small_config(tmp_path), "noise")

    def test_filter_stage(self, tmp_path, gray_in):
        from lumaforge import median_filter, read_image

        written = run_stage(small_config(tmp_path, filter=FilterSpec("median")), "filter")
        assert read_image(written[0]) == median_filter(gray_in[0])

    def test_filter_stage_requires_spec(self, tmp_path, gray_in):
        with pytest.raises(ConfigurationError, match="filter"):
            run_stage(small_config(tmp_path), "filter")

    def test_enhance_stage_writes_histograms(self, tmp_path, gray_in):
        run_stage(small_config(tmp_path), "enhance")
        out = tmp_path / "out"
        assert len(list(out.glob("*_enhanced_*.pgm"))) == 2
        assert len(list(out.glob("*_gray_hist_pre_*.csv"))) == 2
        assert len(list(out.glob("*_gray_hist_post_*.csv"))) == 2

    def test_enhance_stage_color_kind(self, tmp_path):
        frames = [color_block_texture(5, rows=8, cols=8, block=4)]
        write_color_sequence(tmp_path / "in", "clip", frames)
        written = run_stage(small_config(tmp_path), "enhance")
        assert written[0].suffix == ".ppm"
        assert len(list((tmp_path / "out").glob("*_color_hist_*.csv"))) == 2

    def test_a_mixed_sequence_runs_as_its_promoted_color_sequence(self, tmp_path):
        # frames 0 and 2 are .pgm, frame 1 a .ppm; gray frames are promoted with R = G = B
        frames = [block_texture(0, rows=10, cols=12), color_block_texture(1, rows=10, cols=12),
                  block_texture(2, rows=10, cols=12)]
        mixed, promoted = tmp_path / "mixed", tmp_path / "promoted"
        mixed.mkdir()
        for index, frame in enumerate(frames):
            write_image(frame, mixed / f"clip_{index:03d}.{'ppm' if isinstance(frame, ColorBuffer) else 'pgm'}")
        write_color_sequence(promoted, "clip", [
            frame if isinstance(frame, ColorBuffer) else from_planes(frame, frame, frame) for frame in frames
        ])
        steps = dict(noise=NoiseSpec("salt_pepper", 0.2, 9), filter=FilterSpec("median"))

        def stage_outputs(source, stage):
            cfg = small_config(tmp_path, input_dir=source, output_dir=tmp_path / f"{source.name}_{stage}", **steps)
            return [path.suffix for path in run_stage(cfg, stage)], tree_digest(cfg.output_dir)

        for stage, ext in [("luma", ".pgm"), ("noise", ".ppm"), ("filter", ".ppm"), ("enhance", ".ppm")]:
            (suffixes, tree), (_, promoted_tree) = stage_outputs(mixed, stage), stage_outputs(promoted, stage)
            assert suffixes == [ext] * 3, stage
            assert tree == promoted_tree, stage
        assert read_image(tmp_path / "mixed_luma" / "clip_luma_000.pgm") == frames[0]

        def run_outputs(source):
            cfg = small_config(tmp_path, input_dir=source, output_dir=tmp_path / f"{source.name}_run", mode="both", **steps)
            report = run_pipeline(cfg)
            tree = tree_digest(cfg.output_dir)
            # report.json differs with the config digest, which hashes input_dir and output_dir
            del tree["report.json"]
            return (report.gray_psnr_db, report.color_psnr_db), tree

        (psnrs, tree), (promoted_psnrs, promoted_tree) = run_outputs(mixed), run_outputs(promoted)
        frame_names = [f"clip_enhanced_{index:03d}.{ext}" for index in range(3) for ext in ("pgm", "ppm")]
        assert sorted(name for name in tree if "_enhanced_" in name) == frame_names
        assert psnrs == promoted_psnrs and tree == promoted_tree

    def test_a_frame_error_names_the_source_file_once(self, tmp_path, gray_in, monkeypatch):
        real = pipeline_module.read_image

        def unreadable(path):
            if path.name == "clip_001.pgm":
                raise IngestionError(f"{path}: cannot read frame file: gone")
            return real(path)

        monkeypatch.setattr(pipeline_module, "read_image", unreadable)
        with pytest.raises(PipelineStageError) as caught:
            run_stage(small_config(tmp_path), "enhance")
        path = tmp_path / "in" / "clip_001.pgm"
        assert str(caught.value) == f"frame 1 (clip_001.pgm): {path}: cannot read frame file: gone"
        assert list((tmp_path / "out").iterdir()) == []

    def test_unknown_stage(self, tmp_path, gray_in):
        with pytest.raises(ConfigurationError, match="unknown stage"):
            run_stage(small_config(tmp_path), "sharpen")


class TestStreaming:
    def test_truncated_last_frame_fails_before_any_artifact(self, tmp_path):
        frames = [block_texture(i, rows=12, cols=16) for i in range(4)]
        write_gray_sequence(tmp_path / "in", "clip", frames)
        last = tmp_path / "in" / "clip_003.pgm"
        last.write_bytes(last.read_bytes()[:-1])
        from lumaforge.cli import main

        code = main(["run", "--input-dir", str(tmp_path / "in"), "--output-dir", str(tmp_path / "out")])
        assert code == 2
        assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())

    def test_load_rejects_a_frame_resized_after_ingestion(self, tmp_path):
        write_gray_sequence(tmp_path / "in", "clip", [block_texture(0, rows=4, cols=4)])
        seq = ingest_frames(tmp_path / "in")
        write_image(block_texture(0, rows=4, cols=6), tmp_path / "in" / "clip_000.pgm")
        with pytest.raises(IngestionError, match="clip_000.pgm"):
            seq.load(0)

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_peak_memory_does_not_grow_with_sequence_length(self, tmp_path, jobs):
        if not os.path.exists("/proc/self/status"):
            pytest.skip("needs /proc/self/status to read the child's peak memory")
        # The child reads its own high-water mark (VmHWM): the ru_maxrss a
        # parent sees for a child also counts the spawning process's peak.
        child = (
            "import sys\n"
            "from lumaforge.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "with open('/proc/self/status') as status:\n"
            "    hwm = next(line for line in status if line.startswith('VmHWM:'))\n"
            "print(int(hwm.split()[1]))\n"
            "sys.exit(code)\n"
        )
        src = str(Path(pipeline_module.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        rng = np.random.default_rng(0)
        peaks_kib = []
        for n_frames in (200, 2000):
            in_dir = tmp_path / f"in{n_frames}"
            in_dir.mkdir()
            for i in range(n_frames):
                write_image(ColorBuffer(rng.integers(0, 256, (48, 64, 3))), in_dir / f"clip_{i:04d}.ppm")
            argv = ["luma", "--input-dir", str(in_dir), "--output-dir", str(tmp_path / f"out{n_frames}"),
                    "--resize", "none", "--jobs", str(jobs)]
            done = subprocess.run([sys.executable, "-c", child, *argv], env=env, capture_output=True,
                                  text=True, timeout=300, check=True)
            peaks_kib.append(int(done.stdout.strip().splitlines()[-1]))
        print(f"peak KiB at 200 and 2000 frames: {peaks_kib}")
        assert peaks_kib[1] - peaks_kib[0] < 4 * 1024, peaks_kib


def recorded(monkeypatch, owner, name):
    """Wrap owner.name so that each call's positional arguments are recorded; returns the record."""
    calls, original = [], getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # a function set on a class is called through the class, as _adopt is
    monkeypatch.setattr(owner, name, staticmethod(wrapper) if isinstance(owner, type) else wrapper)
    return calls


class TestGraySourcesStayGray:
    """A PGM source reaches its gray plane as it is stored; only a color path promotes it."""

    STEPS = dict(noise=NoiseSpec("salt_pepper", 0.2, 9), filter=FilterSpec("median"), resize_to=Dimensions(8, 6))

    @pytest.fixture()
    def gray_in(self, tmp_path):
        write_gray_sequence(tmp_path / "in", "clip", [block_texture(i, rows=10, cols=12) for i in range(3)])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_gray_run_and_the_luma_stage_never_promote(self, tmp_path, gray_in, monkeypatch, jobs):
        promoted = recorded(monkeypatch, ColorBuffer, "_adopt")
        run_pipeline(small_config(tmp_path, **self.STEPS), jobs=jobs)
        run_stage(small_config(tmp_path, output_dir=tmp_path / "luma", **self.STEPS), "luma", jobs=jobs)
        assert promoted == []

    @pytest.mark.parametrize("mode", ["gray", "both"])
    def test_the_gray_path_takes_the_stored_plane(self, tmp_path, gray_in, monkeypatch, mode):
        calls = recorded(monkeypatch, pipeline_module, "rgb_to_luma")
        report = run_pipeline(small_config(tmp_path, mode=mode, **self.STEPS))
        assert len(calls) == 3 and all(type(frame) is PixelBuffer for frame, _ in calls)
        assert (report.color_psnr_db is None) == (mode == "gray")

    def test_metrics_on_two_gray_sequences_compares_planes(self, tmp_path, gray_in, monkeypatch):
        pairs = recorded(monkeypatch, pipeline_module, "squared_error_total")
        report = run_metrics(small_config(tmp_path), tmp_path / "in")
        assert len(pairs) == 3 and all(frame.data.ndim == 2 for pair in pairs for frame in pair)
        assert report.gray_psnr_db == math.inf and report.color_psnr_db is None


class TestRunMetrics:
    def test_pools_over_frames(self, tmp_path):
        plane_a = PixelBuffer(np.zeros((2, 2), dtype=np.uint8))
        plane_b = PixelBuffer(np.ones((2, 2), dtype=np.uint8))
        write_gray_sequence(tmp_path / "in", "clip", [plane_a, plane_a])
        write_gray_sequence(tmp_path / "ref", "clip", [plane_a, plane_b])
        report = run_metrics(small_config(tmp_path, size_label="tiny"), tmp_path / "ref")
        # 4 of the 8 gray samples differ by 1: mse = 0.5
        assert report.gray_psnr_db == 10 * math.log10(255**2 / 0.5)
        assert report.color_psnr_db is None and report.improvement_pct is None
        assert (report.sample_name, report.n_frames, report.frame_dims) == ("clip", 2, Dimensions(2, 2))
        assert report.pipeline_config_digest == small_config(tmp_path, size_label="tiny").digest()
        assert report.size_label == "tiny"
        assert not (tmp_path / "out").exists()

    def test_a_color_sequence_on_either_side_reports_color(self, tmp_path):
        gray = PixelBuffer(np.zeros((2, 2), dtype=np.uint8))
        write_gray_sequence(tmp_path / "in", "clip", [gray])
        write_color_sequence(tmp_path / "ref", "clip", [ColorBuffer(np.ones((2, 2, 3), dtype=np.uint8))])
        report = run_metrics(small_config(tmp_path), tmp_path / "ref")
        assert report.gray_psnr_db is None and report.color_psnr_db == 10 * math.log10(255**2)

    def test_rejects_length_mismatch(self, tmp_path):
        plane = PixelBuffer(np.zeros((2, 2), dtype=np.uint8))
        write_gray_sequence(tmp_path / "in", "clip", [plane])
        write_gray_sequence(tmp_path / "ref", "clip", [plane, plane])
        with pytest.raises(ConfigurationError, match="length"):
            run_metrics(small_config(tmp_path), tmp_path / "ref")


class TestReportTable:
    def make_reports(self):
        return [
            MetricsReport(
                sample_name=name,
                n_frames=n_frames,
                frame_dims=Dimensions(144, 176),
                pipeline_config_digest="x",
                gray_psnr_db=gray,
                color_psnr_db=color,
                size_label=size,
            )
            for name, size, n_frames, gray, color in REFERENCE_PAIRS
        ]

    def test_reference_improvement_column(self):
        csv_text, aligned = report_table(self.make_reports())
        rows = [line.split(",") for line in csv_text.strip().splitlines()]
        assert rows[0] == ["sample", "size", "frames", "gray_psnr_db", "color_psnr_db", "improvement_pct"]
        improvements = [row[5] for row in rows[1:]]
        assert improvements == ["12.35", "16.32", "27.57", "19.83", "28.93", "31.68"]
        assert "akiyo" in aligned

    def test_single_report_single_row(self):
        csv_text, _ = report_table(self.make_reports()[:1])
        assert len(csv_text.strip().splitlines()) == 2

    def test_gray_only_renders_na(self):
        report = MetricsReport(
            sample_name="solo",
            n_frames=1,
            frame_dims=Dimensions(2, 2),
            pipeline_config_digest="x",
            gray_psnr_db=20.0,
        )
        csv_text, _ = report_table([report])
        row = csv_text.strip().splitlines()[1].split(",")
        assert row[4] == "n/a" and row[5] == "n/a"

    def test_infinite_psnr_renders_as_inf(self):
        report = MetricsReport(
            sample_name="exact",
            n_frames=1,
            frame_dims=Dimensions(2, 2),
            pipeline_config_digest="x",
            gray_psnr_db=math.inf,
            color_psnr_db=20.0,
        )
        csv_text, _ = report_table([report])
        row = csv_text.strip().splitlines()[1].split(",")
        assert row[3] == "inf"
        assert row[5] == "n/a"  # improvement undefined against an infinite side

    def test_csv_round_trips_names_that_need_quoting(self):
        names = ["a,b", 'say "hi"', "two\nlines", "plain", 'all, "three"\r\n']
        reports = [dataclasses.replace(self.make_reports()[0], sample_name=name, size_label=name) for name in names]
        csv_text, _ = report_table(reports)
        rows = list(csv.reader(io.StringIO(csv_text, newline="")))
        assert [len(row) for row in rows] == [6] * (1 + len(names))
        assert [row[0] for row in rows[1:]] == names and [row[1] for row in rows[1:]] == names
        assert "\nplain,plain,157,31.95,36.45,12.35\n" in csv_text

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            report_table([])
