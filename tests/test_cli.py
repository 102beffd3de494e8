import argparse
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import threading
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    block_texture,
    color_block_texture,
    tree_digest,
    write_color_sequence,
    write_gray_sequence,
)

import lumaforge.cli as cli_module
import lumaforge.pipeline as pipeline_module
from lumaforge import (
    FilterSpec,
    FilterWindow,
    NoiseSpec,
    PipelineConfig,
    PipelineStageError,
    PixelBuffer,
    read_image,
    write_image,
)
from lumaforge.cli import main


@pytest.fixture()
def sequence_dir(tmp_path):
    frames = [block_texture(i, rows=12, cols=16) for i in range(3)]
    write_gray_sequence(tmp_path / "frames", "clip", frames)
    return tmp_path / "frames"


@pytest.mark.parametrize("command", ["run", "enhance"])
def test_a_run_ingests_once_through_the_pipeline_module(tmp_path, sequence_dir, monkeypatch, command):
    # perfbench/child.py wraps pipeline.ingest_frames to mark where set-up ends
    real, calls = pipeline_module.ingest_frames, []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline_module, "ingest_frames", counted)
    assert main([command, "--input-dir", str(sequence_dir), "--output-dir", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["run", "metrics"])
def test_no_environment_variable_moves_a_byte(tmp_path, sequence_dir, monkeypatch, capsysbinary, command):
    # a command's bytes depend only on its argv, its config file and its frames, so not on a seed in the environment
    out = tmp_path / "out"
    argv = {
        "run": ["run", "--input-dir", str(sequence_dir), "--output-dir", str(out),
                "--noise-kind", "gaussian", "--noise-d", "0.01"],
        "metrics": ["metrics", "--input-dir", str(sequence_dir), "--reference-dir", str(sequence_dir),
                    "--output", str(out / "r.json")],
    }[command]

    def outputs():
        if command == "metrics":
            out.mkdir()
        assert main(argv) == 0
        tree = tree_digest(out), capsysbinary.readouterr().out
        shutil.rmtree(out)
        return tree

    monkeypatch.delenv("LUMAFORGE_SEED", raising=False)
    unset = outputs()
    for value in ("5", "x"):
        monkeypatch.setenv("LUMAFORGE_SEED", value)
        assert outputs() == unset


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


class TestOverrideTable:
    def resolve(self, tmp_path, *flags, **file_fields):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"input_dir": "in", "output_dir": "out", **file_fields}))
        args = cli_module.build_parser().parse_args(["run", "--config", str(path), *flags])
        return cli_module._resolve_config(args)

    def test_every_config_field_has_one_flag(self):
        sections = {"noise": NoiseSpec, "filter": FilterSpec}
        expected = [f.name for f in fields(PipelineConfig) if f.name not in sections]
        expected += [f"{name}.{f.name}" for name, spec in sections.items() for f in fields(spec)]
        keys = [key for _, key, *_ in cli_module._OVERRIDES]
        assert sorted(keys) == sorted(expected)
        flags = [flag for flag, *_ in cli_module._OVERRIDES]
        assert len(set(flags)) == len(flags)

    def test_flags_merge_into_the_file_sections(self, tmp_path):
        cfg = self.resolve(
            tmp_path, "--noise-d", "0.02", "--window", "3x5",
            noise={"kind": "gaussian", "d": 0.01, "seed": 4}, filter={"kind": "median", "window": [5, 5]},
        )
        assert cfg.noise == NoiseSpec("gaussian", 0.02, 4)
        assert cfg.filter == FilterSpec("median", FilterWindow(3, 5))

    def test_kind_none_alone_nulls_the_file_section(self, tmp_path):
        cfg = self.resolve(
            tmp_path, "--noise-kind", "none", "--filter-kind", "none",
            noise={"kind": "gaussian", "d": 0.01}, filter={"kind": "median"},
        )
        assert cfg.noise is None and cfg.filter is None

    @pytest.mark.parametrize("kind_first", [True, False], ids=["kind-first", "kind-last"])
    @pytest.mark.parametrize("kind, flag, value", [
        ("--noise-kind", "--noise-d", "0.5"),
        ("--noise-kind", "--noise-seed", "3"),
        ("--filter-kind", "--window", "4x4"),  # a window no filter takes is refused all the same
    ], ids=["noise-d", "noise-seed", "window"])
    def test_a_flag_beside_kind_none_is_refused(self, tmp_path, capsys, kind, flag, value, kind_first):
        pair = [kind, "none", flag, value] if kind_first else [flag, value, kind, "none"]
        argv = ["run", "--input-dir", str(tmp_path / "in"), "--output-dir", str(tmp_path / "out"), *pair]
        assert main(argv) == 1
        assert capsys.readouterr().err.strip().splitlines() == [f"error: {flag} has no effect with {kind} none"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("key, value, line", [
        ("mode", "bogus", "mode must be one of ('gray', 'color', 'both'), got 'bogus'"),
        ("psnr_reference", "original", "psnr_reference must be one of ('clean', 'noisy'), got 'original'"),
    ], ids=["mode", "psnr_reference"])
    def test_a_bad_choice_is_the_same_error_from_a_flag_and_a_file(self, tmp_path, capsys, key, value, line):
        dirs = ["--input-dir", str(tmp_path / "in"), "--output-dir", str(tmp_path / "out")]
        assert main(["run", *dirs, "--" + key.replace("_", "-"), value]) == 1
        from_flag = capsys.readouterr().err
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: value}))
        assert main(["run", "--config", str(path), *dirs]) == 1
        assert capsys.readouterr().err == from_flag
        assert from_flag.strip().splitlines() == [f"error: {line}"]
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_a_file_section_that_is_no_object_stays_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"input_dir": "in", "output_dir": str(tmp_path / "out"), "noise": 5}))
        assert main(["run", "--config", str(path), "--noise-d", "0.1"]) == 1
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert err_lines == ["error: noise must be an object, got 5"]

    @pytest.mark.parametrize("body, line", [pytest.param(*case[1:], id=case[0]) for case in [
        ("noise-list", {"noise": ["gaussian", 0.1, 3]}, "noise must be an object, got ['gaussian', 0.1, 3]"),
        ("filter-list", {"filter": ["median"]}, "filter must be an object, got ['median']"),
        ("filter-no-kind", {"filter": {"window": [3, 3]}}, "filter is missing required field 'kind'"),
        ("resize-no-cols", {"resize_to": {"rows": 5}}, "resize_to is missing required field 'cols'"),
        ("resize-short", {"resize_to": [5]}, "resize_to must be [rows, cols] or an object, got [5]"),
        ("noise-unknown", {"noise": {"kind": "gaussian", "sigma": 1}}, "unknown noise fields: ['sigma']"),
        ("seed-bool", {"seed": True}, "seed must be an integer, got True"),
        # the noise section inherits the run seed, but the error is the run seed's
        ("seed-inherited", {"seed": "x", "noise": {"kind": "gaussian"}}, "seed must be an integer, got 'x'"),
        ("sigma-huge", {"sigma": 10**400}, "sigma must be finite, got an integer too large for a float"),
        # raw bytes, written as they are; the error names the file, shown here as cfg.json
        ("not-utf8", b'{"input_dir": "caf\xe9"}',
         "cfg.json: invalid JSON: 'utf-8' codec can't decode byte 0xe9 in position 18: invalid continuation byte"),
    ]])
    def test_a_malformed_config_is_one_error_line(self, tmp_path, capsys, body, line):
        path = tmp_path / "cfg.json"
        if isinstance(body, bytes):
            path.write_bytes(body)
        else:
            path.write_text(json.dumps({"input_dir": "in", "output_dir": str(tmp_path / "out"), **body}))
        assert main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err.replace(str(path), "cfg.json")
        assert err.strip().splitlines() == [f"error: {line}"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


# The option flags each command takes: those of the config fields it reads.
_STAGE_FLAGS = {"--config", "--seed", "--jobs", "--input-dir", "--output-dir", "--resize", "--sample-name"}
_RUN_FLAGS = _STAGE_FLAGS | {
    "--luma-weights", "--noise-kind", "--noise-d", "--noise-seed", "--filter-kind", "--window",
    "--sigma", "--mode", "--psnr-reference", "--size-label",
}
COMMAND_FLAGS = {
    "luma": _STAGE_FLAGS | {"--luma-weights"},
    "noise": _STAGE_FLAGS | {"--noise-kind", "--noise-d", "--noise-seed"},
    "filter": _STAGE_FLAGS | {"--filter-kind", "--window"},
    "enhance": _STAGE_FLAGS | {"--sigma"},
    "run": _RUN_FLAGS,
    "metrics": {"--config", "--input-dir", "--sample-name", "--size-label", "--reference-dir", "--output"},
    "report": {"--output-dir"},
}

# a valid value of each flag some command does not take
_REFUSED_VALUES = {
    "--seed": "5", "--jobs": "2", "--output-dir": "out", "--resize": "8x8", "--luma-weights": "0.2,0.3,0.5",
    "--noise-kind": "gaussian", "--noise-d": "0.1", "--noise-seed": "3", "--filter-kind": "median", "--window": "3x3",
    "--sigma": "0.3", "--mode": "both", "--psnr-reference": "noisy", "--size-label": "x",
}

# a value other than the default of each config field some stage does not read
_UNREAD_VALUES = {
    "luma_weights": [0.2, 0.3, 0.5],
    "noise": {"kind": "gaussian", "d": 0.1, "seed": 9},
    "filter": {"kind": "hybrid_median", "window": [5, 5]},
    "sigma": 0.3,
    "mode": "both",
    "psnr_reference": "noisy",
    "size_label": "x",
}


def option_flags(parser: argparse.ArgumentParser) -> set[str]:
    return {flag for action in parser._actions for flag in action.option_strings} - {"-h", "--help"}


def subparsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _shell(*argv) -> subprocess.CompletedProcess:
    """`python -m lumaforge <argv>` in a child process, with its stdout and stderr as text."""
    src = str(Path(cli_module.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-m", "lumaforge", *argv], env=env, capture_output=True, text=True,
                          timeout=120)


def command_argv(command, sequence_dir, tmp_path) -> list[str]:
    """A command line the command runs with exit 0; metrics writes its report to tmp_path/r.json."""
    if command == "metrics":
        return ["metrics", "--input-dir", str(sequence_dir), "--reference-dir", str(sequence_dir),
                "--output", str(tmp_path / "r.json")]
    own = {"noise": ["--noise-kind", "gaussian", "--noise-d", "0.01"], "filter": ["--filter-kind", "median"]}
    return [command, "--input-dir", str(sequence_dir), "--output-dir", str(tmp_path / "out"), "--resize", "none",
            *own.get(command, [])]


class TestCommandFlags:
    def test_each_command_takes_only_the_flags_it_reads(self):
        parser = cli_module.build_parser()
        assert option_flags(parser) == set()
        commands = subparsers(parser)
        assert {name: option_flags(sub) for name, sub in commands.items()} == COMMAND_FLAGS
        assert sum(len(flags) for flags in COMMAND_FLAGS.values()) == 59

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command in ("luma", "noise", "filter", "enhance", "metrics")
        for flag in sorted(_RUN_FLAGS - COMMAND_FLAGS[command])
    ])
    def test_a_flag_the_command_does_not_take_is_refused(self, tmp_path, sequence_dir, capsys, command, flag):
        value = _REFUSED_VALUES[flag]
        before = sorted(tmp_path.rglob("*"))
        assert main(command_argv(command, sequence_dir, tmp_path) + [flag, value]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: unrecognized arguments: {flag} {value}"]
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("flag", ["--seed", "--jobs", "--config"])
    @pytest.mark.parametrize("command", ["run", "luma", "report"])
    def test_a_flag_before_the_command_is_refused(self, tmp_path, sequence_dir, capsys, flag, command):
        if command == "report":
            (tmp_path / "r.json").write_text(json.dumps(_REPORT))
            argv = ["report", str(tmp_path / "r.json")]
        else:
            argv = command_argv(command, sequence_dir, tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"input_dir": "in", "output_dir": "out"}))
        value = {"--seed": "5", "--jobs": "2", "--config": str(tmp_path / "cfg.json")}[flag]
        before = sorted(tmp_path.rglob("*"))
        assert main([flag, value, *argv]) == 1
        # the one error line names the flag, not the value argparse would take for the subcommand
        assert capsys.readouterr().err.splitlines() == [
            f"error: {flag} comes before the subcommand; flags go after the subcommand"]
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("source", ["gray", "color"])
    @pytest.mark.parametrize("stage", ["luma", "noise", "filter", "enhance"])
    def test_a_field_the_stage_has_no_flag_for_changes_no_byte(self, tmp_path, stage, source):
        # pipeline._run_frames decides what a stage reads; the command table must agree with it
        frames = tmp_path / "frames"
        if source == "gray":
            write_gray_sequence(frames, "clip", [block_texture(i, rows=12, cols=16) for i in range(3)])
        else:
            write_color_sequence(frames, "clip", [color_block_texture(i, rows=12, cols=16) for i in range(3)])
        taken = option_flags(subparsers(cli_module.build_parser())[stage])
        unread = sorted({key.partition(".")[0] for flag, key, *_ in cli_module._OVERRIDES if flag not in taken})
        sections = {"noise": {"kind": "salt_pepper", "d": 0.1}, "filter": {"kind": "median"}}
        own = {stage: sections[stage]} if stage in sections else {}

        def tree(name, **fields):
            config = {"input_dir": str(frames), "output_dir": str(tmp_path / name), "resize_to": None, **own, **fields}
            (tmp_path / f"{name}.json").write_text(json.dumps(config))
            assert main([stage, "--config", str(tmp_path / f"{name}.json")]) == 0
            return tree_digest(tmp_path / name)

        plain = tree("plain")
        assert unread
        for field in unread:
            assert tree(field, **{field: _UNREAD_VALUES[field]}) == plain, field

    @pytest.mark.parametrize("source", ["gray", "color"])
    def test_a_field_metrics_has_no_flag_for_moves_only_the_digest(self, tmp_path, capsysbinary, source):
        # pipeline.run_metrics decides what metrics reads; a config file still feeds every other field to the digest
        ours, theirs = tmp_path / "ours", tmp_path / "theirs"
        if source == "gray":
            write_gray_sequence(ours, "clip", [block_texture(i, rows=12, cols=16) for i in range(3)])
            write_gray_sequence(theirs, "clip", [block_texture(i + 1, rows=12, cols=16) for i in range(3)])
        else:
            write_color_sequence(ours, "clip", [color_block_texture(i, rows=12, cols=16) for i in range(3)])
            write_color_sequence(theirs, "clip", [color_block_texture(i + 1, rows=12, cols=16) for i in range(3)])
        taken = option_flags(subparsers(cli_module.build_parser())["metrics"])
        unread = sorted({key.partition(".")[0] for flag, key, *_ in cli_module._OVERRIDES if flag not in taken})
        values = {**_UNREAD_VALUES, "seed": 5, "output_dir": str(tmp_path / "elsewhere"), "resize_to": [8, 8]}

        def printed(name, **fields):
            """The printed report with its digest blanked, and the digest."""
            (tmp_path / f"{name}.json").write_text(json.dumps({"input_dir": str(ours), **fields}))
            assert main(["metrics", "--config", str(tmp_path / f"{name}.json"), "--reference-dir", str(theirs)]) == 0
            out = capsysbinary.readouterr().out
            digest = json.loads(out)["pipeline_config_digest"]
            return out.replace(digest.encode("ascii"), b""), digest

        plain, plain_digest = printed("plain")
        assert unread == ["filter", "luma_weights", "mode", "noise", "output_dir", "psnr_reference", "resize_to",
                          "seed", "sigma"]
        for field in unread:
            report, digest = printed(field, **{field: values[field]})
            assert report == plain and digest != plain_digest, field
        assert not (tmp_path / "elsewhere").exists()

    def test_every_benchmark_command_line_parses(self, monkeypatch):
        # a flag the CLI refused would fail every run of that benchmark workload
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        assert workloads.WORKLOADS
        for workload in workloads.WORKLOADS.values():
            for jobs in (None, 1):
                argv = workload.cli_args(workloads.program_seed(7), "../inputs", "out", jobs)
                args = cli_module.build_parser().parse_args(argv)
                assert args.command == workload.command


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


# the required fields of a metrics report, as raw JSON text without the closing brace
_REPORT_HEAD = '{"sample_name": "clip", "n_frames": 3, "frame_dims": [144, 176], "pipeline_config_digest": "d"'

# a whole metrics report with a gray/color PSNR pair, as a dict for json.dumps
_REPORT = {
    "sample_name": "clip", "n_frames": 3, "frame_dims": [144, 176], "pipeline_config_digest": "d",
    "gray_psnr_db": 22.30, "color_psnr_db": 26.65, "improvement_pct": None, "size_label": None,
}


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

    def test_metrics_prints_the_bytes_it_writes(self, tmp_path, sequence_dir, capsysbinary):
        report_path = tmp_path / "metrics.json"
        argv = ["metrics", "--input-dir", str(sequence_dir), "--reference-dir", str(sequence_dir)]
        assert main(argv + ["--output", str(report_path)]) == 0
        assert capsysbinary.readouterr().out == report_path.read_bytes()

    def test_no_command_loads_openssl(self, tmp_path, sequence_dir):
        # the config digest takes the interpreter's own SHA-256; hashlib would start OpenSSL in every command
        out, enhanced = tmp_path / "out", tmp_path / "enh"
        commands = [
            ["run", "--input-dir", str(sequence_dir), "--output-dir", str(out)],
            ["enhance", "--input-dir", str(sequence_dir), "--output-dir", str(enhanced), "--resize", "none"],
            ["metrics", "--input-dir", str(enhanced), "--reference-dir", str(sequence_dir),
             "--output", str(tmp_path / "m.json")],
            ["report", str(out / "report.json"), "--output-dir", str(tmp_path / "tables")],
        ]
        child = (
            "import json, sys, numpy\n"
            "def openssl(): return [name for name in ('_hashlib', '_ssl') if name in sys.modules]\n"
            "before = openssl()\n"
            "from lumaforge.cli import main\n"
            f"codes = [main(argv) for argv in {commands!r}]\n"
            "print(json.dumps([codes, before, openssl()]))\n"
        )
        src = str(Path(cli_module.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", child], env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=120, check=True)
        codes, before, after = json.loads(done.stdout.splitlines()[-1])
        # the modules are loaded afterwards only if importing numpy alone had loaded them
        assert codes == [0, 0, 0, 0] and after == before

    def test_metrics_names_both_sides_of_a_length_mismatch(self, tmp_path, capsys):
        plane = PixelBuffer(np.zeros((2, 2), dtype=np.uint8))
        write_gray_sequence(tmp_path / "a", "clip", [plane])
        write_gray_sequence(tmp_path / "b", "clip", [plane, plane])
        code = main(["metrics", "--input-dir", str(tmp_path / "a"), "--reference-dir", str(tmp_path / "b")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: sequence length mismatch: {tmp_path / 'a'} holds 1 frames, {tmp_path / 'b'} holds 2\n"
        )

    def test_metrics_refuses_a_size_mismatch_before_decoding(self, tmp_path, capsys, monkeypatch):
        write_gray_sequence(tmp_path / "a", "clip", [PixelBuffer(np.zeros((4, 4), dtype=np.uint8))])
        write_gray_sequence(tmp_path / "b", "clip", [PixelBuffer(np.zeros((5, 5), dtype=np.uint8))])

        def no_decode(sequence, index):
            raise AssertionError("a frame was decoded")

        monkeypatch.setattr(pipeline_module.FrameSequence, "load", no_decode)
        code = main(["metrics", "--input-dir", str(tmp_path / "a"), "--reference-dir", str(tmp_path / "b")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: frame size mismatch: {tmp_path / 'a'} holds 4x4 frames, {tmp_path / 'b'} holds 5x5\n"
        )

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

    def test_report_round_trips_a_non_ascii_name(self, tmp_path, sequence_dir, capsys):
        assert main([
            "run",
            "--input-dir", str(sequence_dir),
            "--output-dir", str(tmp_path / "out"),
            "--resize", "none",
            "--sample-name", "\u00e9",
        ]) == 0
        tables = tmp_path / "tables"
        assert main(["report", str(tmp_path / "out" / "report.json"), "--output-dir", str(tables)]) == 0
        csv_row = (tables / "table.csv").read_text(encoding="utf-8").splitlines()[1]
        assert csv_row.split(",")[0] == "\u00e9"
        assert (tables / "table.txt").read_text(encoding="utf-8").splitlines()[1].split()[0] == "\u00e9"

    @pytest.mark.parametrize("body", [
        pytest.param({"sample_name": 5}, id="sample_name"),
        pytest.param({"n_frames": "abc"}, id="n_frames"),
        pytest.param({"gray_psnr_db": "abc"}, id="gray_psnr_db"),
        pytest.param({"improvement_pct": "zz"}, id="improvement_pct"),
        pytest.param({"frame_dims": [144]}, id="frame_dims"),
        pytest.param([1, 2], id="not_an_object"),
        pytest.param({"frame_dims": [0, 0]}, id="frame_dims_zero"),
        pytest.param({"n_frames": -4}, id="n_frames_negative"),
        pytest.param({"frames": 3}, id="unknown_key"),
        pytest.param({"sample_name": "\ud800"}, id="lone_surrogate_name"),
        # raw text: what json.dumps would not write
        pytest.param(_REPORT_HEAD + ', "gray_psnr_db": NaN}', id="nan"),
        pytest.param(_REPORT_HEAD + ', "color_psnr_db": -Infinity}', id="minus_infinity"),
        pytest.param(_REPORT_HEAD + ', "improvement_pct": 1e400}', id="literal_beyond_float"),
        pytest.param((_REPORT_HEAD + ', "size_label": "caf\u00e9"}').encode("latin-1"), id="byte_0xe9"),
        pytest.param("[" * 100_000 + "]" * 100_000, id="deep_nesting"),
    ])
    def test_malformed_report_is_an_ingestion_error(self, tmp_path, capsys, body):
        report = {
            "sample_name": "clip", "n_frames": 3, "frame_dims": [144, 176],
            "pipeline_config_digest": "d", "gray_psnr_db": 20.0, "color_psnr_db": 25.0,
            "improvement_pct": None, "size_label": None,
        }
        path = tmp_path / "r.json"
        if isinstance(body, (dict, list)):
            body = json.dumps({**report, **body} if isinstance(body, dict) else body)
        path.write_bytes(body if isinstance(body, bytes) else body.encode("utf-8"))
        assert main(["report", str(path), "--output-dir", str(tmp_path / "tables")]) == 2
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1 and err_lines[0].startswith("ingestion error:")
        assert not (tmp_path / "tables").exists()

    def test_a_stale_stored_improvement_gives_way_to_the_pair(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({**_REPORT, "improvement_pct": 99.0}))
        assert main(["report", str(path), "--output-dir", str(tmp_path / "tables")]) == 0
        assert (tmp_path / "tables" / "table.csv").read_text().splitlines()[1].split(",")[5] == "16.32"
        assert capsys.readouterr().out.splitlines()[1].split()[-1] == "16.32"

    @pytest.mark.parametrize("gray", [None, "inf"], ids=["null_gray", "infinite_gray"])
    def test_a_stored_improvement_without_a_finite_pair_is_not_shown(self, tmp_path, capsys, gray):
        # the improvement is derived from the two PSNRs alone, so a pair that gives none shows none
        path = tmp_path / "r.json"
        path.write_text(json.dumps({**_REPORT, "gray_psnr_db": gray, "improvement_pct": 5.0}))
        assert main(["report", str(path), "--output-dir", str(tmp_path / "tables")]) == 0
        assert (tmp_path / "tables" / "table.csv").read_text().splitlines()[1].split(",")[5] == "n/a"
        assert capsys.readouterr().out.splitlines()[1].split()[-1] == "n/a"

    def test_an_overflowing_improvement_is_not_shown(self, tmp_path, capsys):
        # (1e-308 - 1e308) / 1e-308 overflows; the table shows no improvement rather than -inf
        path = tmp_path / "r.json"
        path.write_text(json.dumps({**_REPORT, "gray_psnr_db": 1e308, "color_psnr_db": 1e-308}))
        assert main(["report", str(path), "--output-dir", str(tmp_path / "tables")]) == 0
        assert (tmp_path / "tables" / "table.csv").read_text().splitlines()[1].split(",")[5] == "n/a"
        assert capsys.readouterr().out.splitlines()[1].split()[-1] == "n/a"

    def test_a_metrics_report_of_a_tab_stem_is_no_table_row(self, tmp_path, capsys):
        # metrics takes the stem as it is; the report reader, whose names start table rows, rejects it
        frames, path = tmp_path / "frames", tmp_path / "r.json"
        write_gray_sequence(frames, "clip\tx", [block_texture(0, rows=4, cols=4)])
        argv = ["metrics", "--input-dir", str(frames), "--reference-dir", str(frames), "--output", str(path)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["report", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"ingestion error: {path}: metrics report sample_name must be printable text, got 'clip\\tx'\n"

    @pytest.mark.parametrize("text", ["\udc80", "clip\tx", "two\nlines"])
    @pytest.mark.parametrize("key", ["sample_name", "size_label"])
    def test_a_report_with_unprintable_text_is_an_ingestion_error(self, tmp_path, capsys, key, text):
        # "\udc80" encodes as a file name (surrogateescape), so only the printable rule rejects it
        path = tmp_path / "r.json"
        path.write_text(json.dumps({**_REPORT, key: text}))
        assert main(["report", str(path), "--output-dir", str(tmp_path / "tables")]) == 2
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert err_lines == [f"ingestion error: {path}: metrics report {key} must be printable text, got {text!r}"]
        assert not (tmp_path / "tables").exists()

    @pytest.mark.parametrize("flag", [["--jobs", "2"], ["--seed", "3"], ["--config", "c.json"]], ids=lambda f: f[0][2:])
    def test_report_takes_no_config_seed_or_jobs(self, tmp_path, capsys, flag):
        path = tmp_path / "r.json"
        path.write_text(json.dumps(_REPORT))
        assert main(["report", *flag, str(path)]) == 1
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1 and err_lines[0].startswith("error: ")

    def test_a_bad_report_among_several_is_named(self, tmp_path, capsys):
        good = {
            "sample_name": "clip", "n_frames": 3, "frame_dims": [144, 176], "pipeline_config_digest": "d",
            "gray_psnr_db": 20.0, "color_psnr_db": 25.0, "improvement_pct": None, "size_label": None,
        }
        (tmp_path / "a.json").write_text(json.dumps(good))
        (tmp_path / "b.json").write_text(json.dumps({**good, "x": 1}))
        argv = ["report", str(tmp_path / "a.json"), str(tmp_path / "b.json")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"ingestion error: {tmp_path / 'b.json'}: unknown metrics report fields: ['x']\n"


def assert_one_pipeline_error(code, capsys, path):
    """Exit 3 with one stderr line, a pipeline error naming `path`; returns what the command printed."""
    assert code == 3
    captured = capsys.readouterr()
    err_lines = captured.err.strip().splitlines()
    assert len(err_lines) == 1
    assert err_lines[0].startswith("pipeline error: ") and str(path) in err_lines[0]
    return captured.out


_ODD_STEMS = ["clip\tx", "bell\x07", "ls\u2028", "two\nlines", "back\\slash", "."]


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

    @pytest.mark.parametrize("module", ["lumaforge", "lumaforge.cli"])
    def test_exit_codes_reach_the_shell(self, tmp_path, sequence_dir, module):
        src = str(Path(cli_module.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        for code, argv in [
            (0, ["--input-dir", str(sequence_dir), "--output-dir", str(tmp_path / "out")]),
            (1, ["--no-such-flag"]),
            (2, ["--input-dir", str(tmp_path / "missing"), "--output-dir", str(tmp_path / "out")]),
            (3, ["--input-dir", str(sequence_dir), "--output-dir", str(taken)]),
        ]:
            done = subprocess.run([sys.executable, "-m", module, "luma", *argv], env=env, capture_output=True,
                                  text=True, timeout=120)
            assert done.returncode == code, (argv, done.stderr)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("command", ["run", "enhance"])
    def test_a_worker_the_os_refuses_is_3(self, tmp_path, sequence_dir, monkeypatch, capsys, command, jobs):
        # the refusal is simulated: exhausting real threads would starve every other process
        def refuse(thread):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        out = tmp_path / "out"
        assert main([command, "--input-dir", str(sequence_dir), "--output-dir", str(out), "--jobs", jobs]) == 3
        assert capsys.readouterr().err == "pipeline error: cannot start a worker: can't start new thread\n"
        assert list(out.iterdir()) == []

    # pytest records Python warnings itself, so these run the program in a child to see its whole stderr
    @pytest.mark.parametrize("kind, d", [("poisson", "0.5"), ("poisson", "5e-324"), ("speckle", "1e308")])
    def test_a_noise_level_that_cannot_apply_is_one_error_line(self, tmp_path, kind, d):
        # a poisson level would be ignored; 3 * d of that speckle level is inf, which makes a zero pixel NaN
        frames = tmp_path / "frames"
        write_gray_sequence(frames, "clip", [PixelBuffer(np.arange(16, dtype=np.uint8).reshape(4, 4))])
        done = _shell("noise", "--input-dir", str(frames), "--output-dir", str(tmp_path / "out"), "--resize", "none",
                      "--noise-kind", kind, "--noise-d", d)
        assert done.returncode == 1
        assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("error: "), done.stderr
        assert kind in done.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("d", ["0", "-0.0"])
    def test_a_poisson_level_of_zero_runs(self, tmp_path, sequence_dir, d):
        done = _shell("noise", "--input-dir", str(sequence_dir), "--output-dir", str(tmp_path / "out"),
                      "--noise-kind", "poisson", "--noise-d", d)
        assert (done.returncode, done.stderr) == (0, "")
        assert len(list((tmp_path / "out").glob("*.pgm"))) == 3

    @pytest.mark.parametrize("sigma, level", [("1e308", 255), ("-1e308", 0)])
    def test_a_huge_sigma_saturates_without_a_warning(self, tmp_path, sequence_dir, sigma, level):
        done = _shell("enhance", "--input-dir", str(sequence_dir), "--output-dir", str(tmp_path / "out"),
                      "--resize", "none", f"--sigma={sigma}")
        assert (done.returncode, done.stderr) == (0, "")
        frames = sorted((tmp_path / "out").glob("*.pgm"))
        assert len(frames) == 3 and all(np.all(read_image(path).data == level) for path in frames)

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

    @pytest.mark.parametrize("stem", _ODD_STEMS)
    @pytest.mark.parametrize("command", ["run", "enhance"])
    def test_a_stem_that_is_no_plain_file_name_is_2(self, tmp_path, capsys, stem, command):
        # the stem is the default sample_name, so it meets the rule a given sample_name meets
        frames = tmp_path / "frames"
        write_gray_sequence(frames, stem, [block_texture(0, rows=4, cols=4)])
        code = main([command, "--input-dir", str(frames), "--output-dir", str(tmp_path / "out")])
        assert code == 2
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1 and err_lines[0].startswith("ingestion error: ") and repr(stem) in err_lines[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("held", ["P5", "P6"])
    @pytest.mark.parametrize("command", ["run", "enhance", "metrics"])
    def test_a_frame_whose_magic_disagrees_with_its_extension_is_2(self, tmp_path, capsys, command, held):
        # a sequence is read in the kind its extension names, so a .pgm must hold P5 and a .ppm P6
        frames = tmp_path / "frames"
        gray = [block_texture(i, rows=6, cols=8) for i in range(2)]
        color = [color_block_texture(i, rows=6, cols=8) for i in range(2)]
        if held == "P6":
            write_gray_sequence(frames, "clip", gray)
            bad, wanted = frames / "clip_001.pgm", "P5"
            write_image(color[1], bad)
        else:
            write_color_sequence(frames, "clip", color)
            bad, wanted = frames / "clip_001.ppm", "P6"
            write_image(gray[1], bad)
        argv = [command, "--input-dir", str(frames)]
        if command == "metrics":
            argv += ["--reference-dir", str(frames), "--output", str(tmp_path / "r.json")]
        else:
            argv += ["--output-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert err_lines == [f"ingestion error: {bad}: a {bad.suffix} file must hold {wanted} data, got {held}"]
        assert [path.name for path in tmp_path.iterdir()] == ["frames"]

    def test_a_stem_holding_a_line_feed_counts_as_a_second_stem(self, tmp_path, capsys):
        frames = tmp_path / "frames"
        write_gray_sequence(frames, "clip", [block_texture(0, rows=4, cols=4)])
        write_image(block_texture(1, rows=4, cols=4), frames / "two\nlines_001.pgm")
        code = main(["enhance", "--input-dir", str(frames), "--output-dir", str(tmp_path / "out")])
        assert code == 2
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert err_lines == [f"ingestion error: ambiguous sequence in {frames}: multiple stems ['clip', 'two\\nlines']"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("stem", _ODD_STEMS)
    @pytest.mark.parametrize("command", ["run", "enhance", "metrics"])
    def test_a_stem_that_names_nothing_is_accepted(self, tmp_path, capsys, stem, command):
        # with a given sample_name, or as a metrics sequence, the stem names no file or table row
        frames, out = tmp_path / "frames", tmp_path / "out"
        write_gray_sequence(frames, stem, [block_texture(0, rows=4, cols=4)])
        argv = [command, "--input-dir", str(frames)]
        if command == "metrics":
            assert main(argv + ["--reference-dir", str(frames)]) == 0
            assert json.loads(capsys.readouterr().out)["sample_name"] == stem
        else:
            assert main(argv + ["--output-dir", str(out), "--sample-name", "clip"]) == 0
            names = [path.name for path in out.iterdir() if path.suffix != ".json"]
            assert names and all(name.startswith("clip_") for name in names)

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

    @pytest.mark.parametrize("what, blocked", [
        ("frame 2", "out/clip_enhanced_002.pgm"), ("report", "out/report.json"), ("tables", "tables/table.txt"),
    ])
    def test_a_failed_write_says_that_the_write_failed(self, tmp_path, sequence_dir, capsys, what, blocked):
        blocker = tmp_path / blocked
        blocker.mkdir(parents=True)
        argv = ["run", "--input-dir", str(sequence_dir), "--output-dir", str(tmp_path / "out")]
        if what == "tables":
            (tmp_path / "r.json").write_text(json.dumps(_REPORT))
            argv = ["report", str(tmp_path / "r.json"), "--output-dir", str(tmp_path / "tables")]
        assert main(argv) == 3
        assert capsys.readouterr().err == f"pipeline error: {what}: cannot write: [Errno 21] Is a directory: '{blocker}'\n"

    def test_a_directory_in_an_artifact_path_fails_the_run_cleanly(self, tmp_path, sequence_dir, capsys):
        out = tmp_path / "out"
        blocker = out / "clip_enhanced_002.pgm"
        blocker.mkdir(parents=True)
        code = main(["run", "--input-dir", str(sequence_dir), "--output-dir", str(out)])
        assert code == 3
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith("pipeline error: frame 2: ") and str(blocker) in err_lines[0]
        assert blocker.is_dir()
        assert list(out.iterdir()) == [blocker]

    @pytest.mark.parametrize("command", ["run", "luma", "enhance"])
    def test_an_output_dir_that_is_a_file_is_3(self, tmp_path, sequence_dir, capsys, command):
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        code = main([command, "--input-dir", str(sequence_dir), "--output-dir", str(taken)])
        assert_one_pipeline_error(code, capsys, taken)
        assert taken.read_text() == "not a directory"

    def test_a_report_that_cannot_be_written_removes_the_run(self, tmp_path, sequence_dir, capsys):
        out = tmp_path / "out"
        blocker = out / "report.json"
        blocker.mkdir(parents=True)
        code = main(["run", "--input-dir", str(sequence_dir), "--output-dir", str(out)])
        assert_one_pipeline_error(code, capsys, blocker)
        assert blocker.is_dir() and list(out.iterdir()) == [blocker]

    @pytest.mark.parametrize("where", ["a_directory", "a_parent_that_is_a_file"])
    def test_a_metrics_output_that_cannot_be_written_is_3(self, tmp_path, sequence_dir, capsys, where):
        taken = tmp_path / "taken"
        if where == "a_directory":
            taken.mkdir()
        else:
            taken.write_text("not a directory")
        code = main([
            "metrics", "--input-dir", str(sequence_dir), "--reference-dir", str(sequence_dir),
            "--output", str(taken if where == "a_directory" else taken / "m.json"),
        ])
        assert assert_one_pipeline_error(code, capsys, taken) == ""
        if where == "a_directory":
            assert list(taken.iterdir()) == []
        else:
            assert taken.read_text() == "not a directory"

    def test_a_metrics_output_makes_its_missing_parent(self, tmp_path, sequence_dir, capsys):
        # metrics --output makes its directory as run and report make theirs
        target = tmp_path / "missing" / "deeper" / "m.json"
        code = main([
            "metrics", "--input-dir", str(sequence_dir), "--reference-dir", str(sequence_dir),
            "--output", str(target),
        ])
        assert code == 0
        assert target.read_text(encoding="ascii") == capsys.readouterr().out
        assert list(target.parent.iterdir()) == [target]

    def test_a_report_output_dir_that_is_a_file_is_3(self, tmp_path, sequence_dir, capsys):
        assert main(["run", "--input-dir", str(sequence_dir), "--output-dir", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        code = main(["report", str(tmp_path / "out" / "report.json"), "--output-dir", str(taken)])
        assert_one_pipeline_error(code, capsys, taken)
        assert taken.read_text() == "not a directory"

    def test_a_table_that_cannot_be_written_removes_the_tables(self, tmp_path, capsys):
        path, tables = tmp_path / "r.json", tmp_path / "tables"
        path.write_text(json.dumps(_REPORT))
        blocker = tables / "table.txt"
        blocker.mkdir(parents=True)
        code = main(["report", str(path), "--output-dir", str(tables)])
        assert assert_one_pipeline_error(code, capsys, blocker) == ""
        assert list(tables.iterdir()) == [blocker]

    def test_no_subcommand_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    @pytest.mark.parametrize("case, code, start", [
        ("seed_beyond_64_bits", 1, "error: seed must be an unsigned 64-bit integer, got 18446744073709551616"),
        ("unknown_filter_kind", 1, "error: unknown filter kind 'bogus'; expected one of ('median', 'hybrid_median')"),
        ("config_not_an_object", 1, "error: {tmp}/cfg.json: config must be a JSON object"),
        ("config_a_directory", 1, "error: {tmp}/cfg.json: cannot read config: "),
        ("duplicate_frame_index", 2, "ingestion error: duplicate frame index 1 in {tmp}/frames"),
        ("frame_file_a_directory", 2, "ingestion error: {tmp}/frames/clip_003.pgm: cannot read frame file: "),
    ])
    def test_a_bad_input_is_its_exit_code_and_one_error_line(self, tmp_path, sequence_dir, capsys, case, code, start):
        config = tmp_path / "cfg.json"
        argv = ["run", "--input-dir", str(sequence_dir), "--output-dir", str(tmp_path / "out")]
        if case == "seed_beyond_64_bits":
            argv += ["--seed", str(2**64)]
        elif case == "unknown_filter_kind":
            argv += ["--filter-kind", "bogus"]
        elif case == "config_not_an_object":
            config.write_text("[1]")
            argv = ["run", "--config", str(config)]
        elif case == "config_a_directory":
            config.mkdir()
            argv = ["run", "--config", str(config)]
        elif case == "duplicate_frame_index":
            write_image(block_texture(9, rows=12, cols=16), sequence_dir / "clip_1.pgm")
        else:
            (sequence_dir / "clip_003.pgm").mkdir()
        assert main(argv) == code
        err_lines = capsys.readouterr().err.splitlines()
        assert len(err_lines) == 1 and err_lines[0].startswith(start.format(tmp=tmp_path))
        assert not (tmp_path / "out").exists()


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

    @pytest.mark.parametrize("name", ["../escaped", "a/b", "a\\b", ".", "..", ""])
    def test_sample_name_flag_is_not_a_path(self, tmp_path, sequence_dir, capsys, name):
        argv = self.run_args(sequence_dir, tmp_path, "--sample-name", name)
        before = sorted(tmp_path.rglob("*"))
        self.assert_config_error(argv, tmp_path, capsys)
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("name", ["two\nlines", "cr\r", "tab\there", "bell\x07", "del\x7f", "c1\x85", "ls\u2028"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_sample_name_with_a_control_character(self, tmp_path, sequence_dir, capsys, name, source):
        # the name starts every artifact file name and one row of table.txt
        if source == "flag":
            argv = self.run_args(sequence_dir, tmp_path, "--sample-name", name)
        else:
            argv = self.run_config(sequence_dir, tmp_path, sample_name=name)
        before = sorted(tmp_path.rglob("*"))
        self.assert_config_error(argv, tmp_path, capsys)
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("label", ["a\tb", "two\nlines", "nul\0", "c1\x85", "ls\u2028"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_size_label_with_a_control_character(self, tmp_path, sequence_dir, capsys, label, source):
        # the label is one cell of each report table, which `report` would refuse to load
        if source == "flag":
            argv = self.run_args(sequence_dir, tmp_path, "--size-label", label)
        else:
            argv = self.run_config(sequence_dir, tmp_path, size_label=label)
        before = sorted(tmp_path.rglob("*"))
        self.assert_config_error(argv, tmp_path, capsys)
        assert sorted(tmp_path.rglob("*")) == before

    def test_sample_name_config_is_not_a_path(self, tmp_path, sequence_dir, capsys):
        argv = self.run_config(sequence_dir, tmp_path, sample_name="../escaped")
        before = sorted(tmp_path.rglob("*"))
        self.assert_config_error(argv, tmp_path, capsys)
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("window", ["1x1", "3x5"])
    def test_bad_hybrid_window_flag(self, tmp_path, sequence_dir, capsys, window):
        argv = self.run_args(sequence_dir, tmp_path, "--filter-kind", "hybrid_median", "--window", window)
        self.assert_config_error(argv, tmp_path, capsys)

    def test_bad_hybrid_window_config(self, tmp_path, sequence_dir, capsys):
        argv = self.run_config(sequence_dir, tmp_path, filter={"kind": "hybrid_median", "window": [3, 5]})
        self.assert_config_error(argv, tmp_path, capsys)

    @pytest.mark.parametrize(
        "fields",
        [{"sigma": 10**400}, {"noise": {"kind": "gaussian", "d": 10**400}}, {"luma_weights": [10**400, 0, 0]}],
        ids=["sigma", "noise_d", "luma_weights"],
    )
    def test_integer_beyond_float_range(self, tmp_path, sequence_dir, capsys, fields):
        argv = self.run_config(sequence_dir, tmp_path, **fields)
        self.assert_config_error(argv, tmp_path, capsys)

    @pytest.mark.parametrize("field", ["sample_name", "output_dir", "input_dir"])
    @pytest.mark.parametrize("bad", ["\u0000", "\ud800"], ids=["nul", "lone_surrogate"])
    def test_name_the_file_system_cannot_encode(self, tmp_path, sequence_dir, capsys, field, bad):
        value = f"clip{bad}" if field == "sample_name" else f"{tmp_path / field}{bad}"
        argv = self.run_config(sequence_dir, tmp_path, **{field: value})
        before = sorted(tmp_path.rglob("*"))
        self.assert_config_error(argv, tmp_path, capsys)
        assert sorted(tmp_path.rglob("*")) == before

    def test_a_size_label_the_file_system_cannot_encode(self, tmp_path, sequence_dir, capsys):
        argv = self.run_config(sequence_dir, tmp_path, size_label="\ud800")
        self.assert_config_error(argv, tmp_path, capsys)

    @pytest.mark.parametrize("dims", [[10**30, 5], [8193, 8193]], ids=["huge", "just_over"])
    def test_resize_beyond_sample_bound_config(self, tmp_path, sequence_dir, capsys, dims):
        argv = self.run_config(sequence_dir, tmp_path, resize_to=dims)
        before = sorted(tmp_path.rglob("*"))
        self.assert_config_error(argv, tmp_path, capsys)
        assert sorted(tmp_path.rglob("*")) == before

    def test_resize_beyond_sample_bound_flag(self, tmp_path, sequence_dir, capsys):
        argv = self.run_args(sequence_dir, tmp_path, "--resize", f"{10**30}x5")
        self.assert_config_error(argv, tmp_path, capsys)

    @pytest.mark.parametrize("kind", ["median", "hybrid_median"])
    def test_window_beyond_side_bound_flag(self, tmp_path, sequence_dir, capsys, kind):
        argv = self.run_args(sequence_dir, tmp_path, "--filter-kind", kind, "--window", "33x33")
        before = sorted(tmp_path.rglob("*"))
        self.assert_config_error(argv, tmp_path, capsys)
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("kind", ["median", "hybrid_median"])
    def test_window_beyond_side_bound_config(self, tmp_path, sequence_dir, capsys, kind):
        argv = self.run_config(sequence_dir, tmp_path, filter={"kind": kind, "window": [33, 33]})
        before = sorted(tmp_path.rglob("*"))
        self.assert_config_error(argv, tmp_path, capsys)
        assert sorted(tmp_path.rglob("*")) == before

    def test_config_bad_json_is_1(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        self.assert_config_error(["run", "--config", str(path)], tmp_path, capsys)
