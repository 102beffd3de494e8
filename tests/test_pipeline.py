import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import block_texture, color_block_texture

import lumaforge.pipeline as pipeline_module
from lumaforge import (
    ColorBuffer,
    ConfigurationError,
    Dimensions,
    FilterSpec,
    FilterWindow,
    IngestionError,
    MetricsReport,
    NoiseSpec,
    PipelineConfig,
    PipelineStageError,
    PixelBuffer,
    ingest_frames,
    report_table,
    run_pipeline,
    run_stage,
    sequence_psnr,
    write_image,
)

REFERENCE_PAIRS = [
    ("naerls1", "18.1Mb", 157, 31.95, 36.45),
    ("naerls2", "10.3Mb", 155, 22.30, 26.65),
    ("nta1", "9.6Mb", 152, 17.71, 24.45),
    ("nta2", "11.2Mb", 200, 23.17, 28.90),
    ("akiyo", "11Mb", 300, 15.06, 21.19),
    ("foreman", "7.25Mb", 100, 19.17, 28.06),
]


def write_gray_sequence(directory, stem, frames):
    directory.mkdir(parents=True, exist_ok=True)
    for i, frame in enumerate(frames):
        write_image(frame, directory / f"{stem}_{i:03d}.pgm")


def write_color_sequence(directory, stem, frames):
    directory.mkdir(parents=True, exist_ok=True)
    for i, frame in enumerate(frames):
        write_image(frame, directory / f"{stem}_{i:03d}.ppm")


def tree_digest(directory):
    digests = {}
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            digests[str(path.relative_to(directory))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


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

    def test_rejects_bad_mode_and_reference(self, tmp_path):
        with pytest.raises(ConfigurationError):
            PipelineConfig(input_dir=tmp_path, output_dir=tmp_path, mode="sepia")
        with pytest.raises(ConfigurationError):
            PipelineConfig(input_dir=tmp_path, output_dir=tmp_path, psnr_reference="original")

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
        assert [int(seq.load(i).data[0, 0, 0]) for i in range(3)] == [0, 20, 100]
        assert [p.name for p in seq.paths] == ["clip_0.pgm", "clip_2.pgm", "clip_10.pgm"]
        assert seq.name == "clip"

    def test_promotes_gray_to_color(self, tmp_path):
        d = tmp_path / "seq"
        write_gray_sequence(d, "clip", [PixelBuffer(np.full((3, 4), 9, dtype=np.uint8))])
        seq = ingest_frames(d)
        assert seq.native_kind == "gray"
        frame = seq.load(0)
        assert isinstance(frame, ColorBuffer)
        r, g, b = frame.planes()
        assert r == g == b

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
        from lumaforge import read_image

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
        assert report.frame_dims == (12, 16)
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
        from lumaforge import read_image

        out_frame = read_image(next(iter((tmp_path / "out").glob("*.pgm"))))
        assert out_frame.dims == Dimensions(10, 5)
        assert report.frame_dims == (10, 5)

    def test_noisy_reference_changes_psnr(self, tmp_path):
        frames = [block_texture(i, rows=16, cols=16) for i in range(2)]
        write_gray_sequence(tmp_path / "in", "clip", frames)
        noise = NoiseSpec("salt_pepper", 0.2, 11)
        clean_ref = run_pipeline(small_config(tmp_path, noise=noise))
        noisy_ref = run_pipeline(
            small_config(tmp_path, noise=noise, psnr_reference="noisy", output_dir=tmp_path / "out2")
        )
        assert clean_ref.gray_psnr_db != noisy_ref.gray_psnr_db

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

    def test_peak_memory_does_not_grow_with_sequence_length(self, tmp_path):
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
                    "--resize", "none"]
            done = subprocess.run([sys.executable, "-c", child, *argv], env=env, capture_output=True,
                                  text=True, timeout=300, check=True)
            peaks_kib.append(int(done.stdout.strip().splitlines()[-1]))
        print(f"peak KiB at 200 and 2000 frames: {peaks_kib}")
        assert peaks_kib[1] - peaks_kib[0] < 4 * 1024, peaks_kib


class TestSequencePsnr:
    def test_pools_over_frames(self, tmp_path):
        plane_a = PixelBuffer(np.zeros((2, 2), dtype=np.uint8))
        plane_b = PixelBuffer(np.ones((2, 2), dtype=np.uint8))
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        write_gray_sequence(a_dir, "clip", [plane_a, plane_a])
        write_gray_sequence(b_dir, "clip", [plane_a, plane_b])
        pooled = sequence_psnr(ingest_frames(a_dir), ingest_frames(b_dir))
        # 12 of 24 promoted samples differ by 1: mse = 0.5
        assert pooled.mse == 0.5

    def test_rejects_length_mismatch(self, tmp_path):
        plane = PixelBuffer(np.zeros((2, 2), dtype=np.uint8))
        write_gray_sequence(tmp_path / "a", "clip", [plane])
        write_gray_sequence(tmp_path / "b", "clip", [plane, plane])
        with pytest.raises(ConfigurationError, match="length"):
            sequence_psnr(ingest_frames(tmp_path / "a"), ingest_frames(tmp_path / "b"))


class TestReportTable:
    def make_reports(self):
        return [
            MetricsReport(
                sample_name=name,
                n_frames=n_frames,
                frame_dims=(144, 176),
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
            frame_dims=(2, 2),
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
            frame_dims=(2, 2),
            pipeline_config_digest="x",
            gray_psnr_db=math.inf,
            color_psnr_db=20.0,
        )
        csv_text, _ = report_table([report])
        row = csv_text.strip().splitlines()[1].split(",")
        assert row[3] == "inf"
        assert row[5] == "n/a"  # improvement undefined against an infinite side

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            report_table([])
