import hashlib
import json

import numpy as np
import pytest
from conftest import block_texture

import lumaforge.cli as cli_module
from lumaforge import PipelineStageError, PixelBuffer, read_image, write_image
from lumaforge.cli import main


def write_gray_sequence(directory, stem, frames):
    directory.mkdir(parents=True, exist_ok=True)
    for i, frame in enumerate(frames):
        write_image(frame, directory / f"{stem}_{i:03d}.pgm")


def tree_digest(directory):
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


@pytest.fixture()
def sequence_dir(tmp_path):
    frames = [block_texture(i, rows=12, cols=16) for i in range(3)]
    write_gray_sequence(tmp_path / "frames", "clip", frames)
    return tmp_path / "frames"


class TestRunCommand:
    def test_full_run(self, tmp_path, sequence_dir, capsys):
        code = main(
            [
                "run",
                "--input-dir", str(sequence_dir),
                "--output-dir", str(tmp_path / "out"),
                "--resize", "none",
                "--noise-kind", "salt_pepper",
                "--noise-d", "0.05",
                "--filter-kind", "median",
                "--seed", "7",
            ]
        )
        assert code == 0
        out = tmp_path / "out"
        assert len(list(out.glob("*_enhanced_*.pgm"))) == 3
        assert (out / "report.json").exists()
        stdout = capsys.readouterr().out
        assert "gray_psnr_db" in stdout and "report:" in stdout

    def test_config_file_with_flag_override(self, tmp_path, sequence_dir):
        config = {
            "input_dir": str(sequence_dir),
            "output_dir": str(tmp_path / "out_a"),
            "resize_to": None,
            "seed": 3,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert main(
            ["run", "--config", str(cfg_path), "--output-dir", str(tmp_path / "out_b"), "--seed", "99"]
        ) == 0
        report_a = json.loads((tmp_path / "out_a" / "report.json").read_text())
        report_b = json.loads((tmp_path / "out_b" / "report.json").read_text())
        assert report_a["pipeline_config_digest"] != report_b["pipeline_config_digest"]

    def test_global_flags_before_subcommand(self, tmp_path, sequence_dir):
        code = main(
            [
                "--seed", "5",
                "run",
                "--input-dir", str(sequence_dir),
                "--output-dir", str(tmp_path / "out"),
                "--resize", "none",
            ]
        )
        assert code == 0

    def test_seed_env_fallback_and_override(self, tmp_path, sequence_dir, monkeypatch):
        base = [
            "run",
            "--input-dir", str(sequence_dir),
            "--resize", "none",
            "--noise-kind", "gaussian",
            "--noise-d", "0.01",
        ]
        monkeypatch.setenv("LUMAFORGE_SEED", "21")
        assert main(base + ["--output-dir", str(tmp_path / "env")]) == 0
        monkeypatch.delenv("LUMAFORGE_SEED")
        assert main(base + ["--output-dir", str(tmp_path / "flag"), "--seed", "21"]) == 0
        env_frames = {p.name: p.read_bytes() for p in (tmp_path / "env").glob("*.pgm")}
        flag_frames = {p.name: p.read_bytes() for p in (tmp_path / "flag").glob("*.pgm")}
        assert env_frames == flag_frames

        monkeypatch.setenv("LUMAFORGE_SEED", "21")
        assert main(base + ["--output-dir", str(tmp_path / "win"), "--seed", "8"]) == 0
        win_report = json.loads((tmp_path / "win" / "report.json").read_text())
        env_report = json.loads((tmp_path / "env" / "report.json").read_text())
        assert win_report["pipeline_config_digest"] != env_report["pipeline_config_digest"]

    def test_field_override_flags(self, tmp_path, sequence_dir, capsys):
        code = main([
            "run",
            "--input-dir", str(sequence_dir),
            "--output-dir", str(tmp_path / "out"),
            "--resize", "6x8",
            "--luma-weights", "0.5,0.25,0.25",
            "--sigma", "0.001",
            "--sample-name", "renamed",
            "--size-label", "9.6Mb",
        ])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["sample_name"] == "renamed"
        assert report["size_label"] == "9.6Mb"
        assert report["frame_dims"] == [6, 8]
        frame = read_image(tmp_path / "out" / "renamed_enhanced_000.pgm")
        assert frame.data.shape == (6, 8)

    def test_jobs_flag_keeps_output_identical(self, tmp_path, sequence_dir):
        args = [
            "run",
            "--input-dir", str(sequence_dir),
            "--output-dir", str(tmp_path / "out"),
            "--resize", "none",
            "--noise-kind", "speckle",
            "--noise-d", "0.02",
            "--seed", "4",
        ]
        assert main(args + ["--jobs", "1"]) == 0
        first = tree_digest(tmp_path / "out")
        assert main(args + ["--jobs", "4"]) == 0
        assert tree_digest(tmp_path / "out") == first


class TestStageCommands:
    def test_luma_noise_filter_enhance_chain(self, tmp_path, sequence_dir):
        steps = [
            (["luma"], "a", []),
            (["noise", "--noise-kind", "salt_pepper", "--noise-d", "0.1", "--seed", "6"], "b", ["a"]),
            (["filter", "--filter-kind", "hybrid_median", "--window", "3x3"], "c", ["b"]),
            (["enhance"], "d", ["c"]),
        ]
        previous = sequence_dir
        for argv, out_name, _ in steps:
            out_dir = tmp_path / out_name
            code = main(argv + [
                "--input-dir", str(previous),
                "--output-dir", str(out_dir),
                "--resize", "none",
            ])
            assert code == 0
            assert list(out_dir.glob("*.pgm"))
            previous = out_dir
        assert len(list((tmp_path / "d").glob("*_enhanced_*.pgm"))) == 3


class TestMetricsAndReport:
    def test_metrics_json(self, tmp_path, sequence_dir, capsys):
        out = tmp_path / "enh"
        assert main([
            "enhance",
            "--input-dir", str(sequence_dir),
            "--output-dir", str(out),
            "--resize", "none",
        ]) == 0
        capsys.readouterr()  # drop the enhance command's status line
        report_path = tmp_path / "metrics.json"
        code = main([
            "metrics",
            "--input-dir", str(out),
            "--reference-dir", str(sequence_dir),
            "--output", str(report_path),
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_frames"] == 3
        assert payload["gray_psnr_db"] is not None
        assert report_path.exists()

    def test_report_table_files(self, tmp_path, capsys):
        reports = []
        for i, (gray, color) in enumerate([(22.30, 26.65), (17.71, 24.45)]):
            payload = {
                "sample_name": f"clip{i}",
                "n_frames": 10,
                "frame_dims": [144, 176],
                "pipeline_config_digest": "d",
                "gray_psnr_db": gray,
                "color_psnr_db": color,
                "improvement_pct": None,
                "size_label": None,
            }
            path = tmp_path / f"r{i}.json"
            path.write_text(json.dumps(payload))
            reports.append(str(path))
        code = main(["report", *reports, "--output-dir", str(tmp_path / "tables")])
        assert code == 0
        csv_lines = (tmp_path / "tables" / "table.csv").read_text().strip().splitlines()
        assert csv_lines[1].split(",")[5] == "16.32"
        assert csv_lines[2].split(",")[5] == "27.57"
        assert (tmp_path / "tables" / "table.txt").exists()
        assert "clip0" in capsys.readouterr().out


class TestExitCodes:
    def test_usage_error_is_1(self, sequence_dir, tmp_path, capsys):
        code = main([
            "run",
            "--input-dir", str(sequence_dir),
            "--output-dir", str(tmp_path / "out"),
            "--noise-kind", "perlin",
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_missing_required_field_is_1(self, capsys):
        assert main(["run"]) == 1

    def test_bad_flag_value_is_1(self, capsys):
        assert main(["run", "--input-dir", "x", "--output-dir", "y", "--resize", "tall"]) == 1

    def test_argparse_usage_error_is_1(self, capsys):
        assert main(["run", "--no-such-flag"]) == 1

    def test_ingestion_error_is_2(self, tmp_path, capsys):
        code = main([
            "run",
            "--input-dir", str(tmp_path / "missing"),
            "--output-dir", str(tmp_path / "out"),
        ])
        assert code == 2

    def test_pipeline_error_is_3(self, tmp_path, sequence_dir, monkeypatch, capsys):
        def explode(cfg, jobs=1):
            raise PipelineStageError("frame 1: boom")

        monkeypatch.setattr(cli_module, "run_pipeline", explode)
        code = main([
            "run",
            "--input-dir", str(sequence_dir),
            "--output-dir", str(tmp_path / "out"),
        ])
        assert code == 3

    def test_no_subcommand_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()


class TestSeedValidation:
    def test_bad_env_seed_is_usage_error(self, tmp_path, sequence_dir, monkeypatch):
        monkeypatch.setenv("LUMAFORGE_SEED", "not-a-number")
        code = main([
            "run",
            "--input-dir", str(sequence_dir),
            "--output-dir", str(tmp_path / "out"),
        ])
        assert code == 1


class TestConfigValidation:
    """Non-finite and mistyped config values exit 1 with one `error:` line."""

    def assert_config_error(self, argv, tmp_path, capsys):
        assert main(argv) == 1
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1 and err_lines[0].startswith("error:")
        assert not (tmp_path / "out").exists()

    def run_args(self, sequence_dir, tmp_path, *extra):
        return [
            "run",
            "--input-dir", str(sequence_dir),
            "--output-dir", str(tmp_path / "out"),
            "--resize", "none",
            *extra,
        ]

    def run_config(self, sequence_dir, tmp_path, **fields):
        config = {"input_dir": str(sequence_dir), "output_dir": str(tmp_path / "out"), **fields}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        return ["run", "--config", str(path)]

    def test_nan_gaussian_level(self, tmp_path, sequence_dir, capsys):
        argv = self.run_args(sequence_dir, tmp_path, "--noise-kind", "gaussian", "--noise-d", "nan")
        self.assert_config_error(argv, tmp_path, capsys)

    def test_infinite_speckle_level(self, tmp_path, sequence_dir, capsys):
        argv = self.run_args(sequence_dir, tmp_path, "--noise-kind", "speckle", "--noise-d", "inf")
        self.assert_config_error(argv, tmp_path, capsys)

    def test_nan_luma_weight(self, tmp_path, sequence_dir, capsys):
        argv = self.run_args(sequence_dir, tmp_path, "--luma-weights", "nan,0.5,0.5")
        self.assert_config_error(argv, tmp_path, capsys)

    def test_nan_sigma(self, tmp_path, sequence_dir, capsys):
        argv = self.run_args(sequence_dir, tmp_path, "--sigma", "nan")
        self.assert_config_error(argv, tmp_path, capsys)

    def test_string_noise_level(self, tmp_path, sequence_dir, capsys):
        argv = self.run_config(sequence_dir, tmp_path, noise={"kind": "gaussian", "d": "abc"})
        self.assert_config_error(argv, tmp_path, capsys)

    def test_string_resize_rows(self, tmp_path, sequence_dir, capsys):
        argv = self.run_config(sequence_dir, tmp_path, resize_to={"rows": "x", "cols": 3})
        self.assert_config_error(argv, tmp_path, capsys)

    def test_string_sigma(self, tmp_path, sequence_dir, capsys):
        argv = self.run_config(sequence_dir, tmp_path, sigma="0.5")
        self.assert_config_error(argv, tmp_path, capsys)

    def test_non_string_sample_name(self, tmp_path, sequence_dir, capsys):
        argv = self.run_config(sequence_dir, tmp_path, sample_name=5)
        self.assert_config_error(argv, tmp_path, capsys)

    def test_non_string_output_dir(self, tmp_path, sequence_dir, capsys):
        argv = self.run_config(sequence_dir, tmp_path, output_dir=["out"])
        self.assert_config_error(argv, tmp_path, capsys)

    def test_config_bad_json_is_1(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        self.assert_config_error(["run", "--config", str(path)], tmp_path, capsys)
