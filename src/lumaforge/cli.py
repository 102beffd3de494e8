"""Command-line interface for batch frame processing and reporting.

Subcommands: luma, noise, filter, enhance (single stages), run (full
pipeline), metrics (pooled PSNR of one directory against a reference), and
report (merge metrics JSONs into a table). Each subcommand takes only the
flags it reads, after its name. The stage flags are --config --seed --jobs
--input-dir --output-dir --resize --sample-name; luma adds --luma-weights,
noise adds --noise-kind --noise-d --noise-seed, filter adds --filter-kind
--window, and enhance adds --sigma. run takes all of these and --mode
--psnr-reference --size-label; metrics takes --config --input-dir
--sample-name --size-label --reference-dir --output; report takes report
files and --output-dir. A --config file may set every field for every
command; flag > config file > LUMAFORGE_SEED (for the seed) > built-in default.

Exit codes: 0 success, 1 usage/config error, 2 ingestion error, 3 pipeline
stage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from ._declared import read_json
from .errors import ConfigurationError, IngestionError, PipelineStageError
from .noise_models import NOISE_KINDS
from .pipeline import (
    FILTER_KINDS,
    MODES,
    PSNR_REFERENCES,
    PipelineConfig,
    _make_dir,
    _removed_on_failure,
    _write,
    report_table,
    run_metrics,
    run_pipeline,
    run_stage,
)
from .quality_metrics import MetricsReport

SEED_ENV_VAR = "LUMAFORGE_SEED"

class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the exit-code contract
    # reserves 2 for ingestion errors, so remap to a configuration error
    def error(self, message):
        raise ConfigurationError(message)


def _number_list(sep: str, convert):
    """Flag parser: "a<sep>b..." as a list, or 'none' as null; from_mapping checks the length."""
    def parse(text: str):
        if text.lower() == "none":
            return None
        try:
            return [convert(part) for part in text.lower().split(sep)]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"must be numbers split by {sep!r} or 'none', got {text!r}") from exc
    return parse


# flag, dest, type, choices, help; an override's dest is its config key ("section.field" inside noise or filter)
_COMMON = (
    ("--config", "config", str, None, "JSON config file"),
    ("--jobs", "jobs", int, None, "worker count (default 1)"),
)
_OVERRIDES = (
    ("--seed", "seed", int, None, "base 64-bit seed"),
    ("--input-dir", "input_dir", str, None, "frame directory"),
    ("--output-dir", "output_dir", str, None, "artifact directory"),
    ("--resize", "resize_to", _number_list("x", int), None, "ROWSxCOLS target, or 'none' to disable"),
    ("--luma-weights", "luma_weights", _number_list(",", float), None, "RED,GREEN,BLUE"),
    ("--noise-kind", "noise.kind", str, None, "|".join(NOISE_KINDS) + ", or 'none' to disable"),
    ("--noise-d", "noise.d", float, None, "noise level"),
    ("--noise-seed", "noise.seed", int, None, "noise stream seed"),
    ("--filter-kind", "filter.kind", str, None, "|".join(FILTER_KINDS) + ", or 'none' to disable"),
    ("--window", "filter.window", _number_list("x", int), None, "filter window ROWSxCOLS"),
    ("--sigma", "sigma", float, None, "equalization weight (default 0)"),
    ("--mode", "mode", str, MODES, "processing path"),
    ("--psnr-reference", "psnr_reference", str, PSNR_REFERENCES, "frame PSNR is measured against"),
    ("--sample-name", "sample_name", str, None, "prefix of each frame and CSV written, and a report's sample name"),
    ("--size-label", "size_label", str, None, "source size metadata"),
)
_FLAGS = {spec[0]: spec for spec in _COMMON + _OVERRIDES}

# Each command takes only the flags of the config fields it reads: pipeline._run_frames decides those of a
# stage, and pipeline.run_metrics reads input_dir, sample_name and size_label. A config file may still set
# every field, since one config is shared by all commands, and every field reaches a report's digest.
_STAGE_FLAGS = ("--config", "--seed", "--jobs", "--input-dir", "--output-dir", "--resize", "--sample-name")
_COMMANDS = {
    "luma": ("convert frames to grayscale luminance", (*_STAGE_FLAGS, "--luma-weights")),
    "noise": ("inject the configured noise", (*_STAGE_FLAGS, "--noise-kind", "--noise-d", "--noise-seed")),
    "filter": ("apply the configured smoothing filter", (*_STAGE_FLAGS, "--filter-kind", "--window")),
    "enhance": ("equalize frame brightness (also writes histograms)", (*_STAGE_FLAGS, "--sigma")),
    "run": ("run the full pipeline and write a metrics report", tuple(_FLAGS)),
    "metrics": ("pooled PSNR of input frames vs a reference directory",  # frames are read on the calling thread
                ("--config", "--input-dir", "--sample-name", "--size-label")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lumaforge", description=__doc__.split("\n\n")[0])
    subparsers = parser.add_subparsers(dest="command", parser_class=_Parser)
    handlers = {"run": _cmd_run, "metrics": _cmd_metrics}
    for command, (summary, flags) in _COMMANDS.items():
        sub = subparsers.add_parser(command, help=summary)
        sub.set_defaults(handler=handlers.get(command, _cmd_stage))
        for flag in flags:
            _, dest, convert, choices, text = _FLAGS[flag]
            # the metavar argparse would derive from the flag, not from the dotted key
            metavar = None if choices else flag[2:].upper().replace("-", "_")
            sub.add_argument(flag, dest=dest, type=convert, choices=choices, metavar=metavar,
                             default=argparse.SUPPRESS, help=text)

    metrics = subparsers.choices["metrics"]
    metrics.add_argument("--reference-dir", dest="reference_dir", required=True,
                         help="directory of reference frames")
    metrics.add_argument("--output", default=None, help="also write the report JSON here")

    report = subparsers.add_parser("report", help="merge metrics reports into a CSV + aligned table")
    report.add_argument("reports", nargs="+", help="metrics report JSON files")
    report.add_argument("--output-dir", dest="table_dir", default=None,
                        help="write table.csv and table.txt here")
    report.set_defaults(handler=_cmd_report)
    return parser


def _resolve_config(args: argparse.Namespace, default_output: str | None = None) -> PipelineConfig:
    mapping: dict = {}
    config_path = getattr(args, "config", None)
    if config_path:
        data = read_json(config_path, "config", ConfigurationError)
        if not isinstance(data, dict):
            raise ConfigurationError(f"{config_path}: config must be a JSON object")
        mapping = data

    flags = vars(args)
    for _, key, *_ in _OVERRIDES:
        if key not in flags:
            continue
        section, dot, field = key.partition(".")
        if not dot:
            mapping[key] = flags[key]
        elif flags.get(f"{section}.kind") == "none":
            mapping[section] = None
        else:
            # a section the file got wrong stays as it is, for from_mapping to reject
            base = mapping.get(section) or {}
            mapping[section] = {**base, field: flags[key]} if isinstance(base, dict) else base

    if "seed" not in mapping and SEED_ENV_VAR in os.environ:
        raw = os.environ[SEED_ENV_VAR]
        try:
            mapping["seed"] = int(raw)
        except ValueError as exc:
            raise ConfigurationError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from exc

    if default_output is not None:
        mapping.setdefault("output_dir", default_output)
    return PipelineConfig.from_mapping(mapping)


def _cmd_stage(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    written = run_stage(cfg, args.command, jobs=getattr(args, "jobs", 1))
    print(f"{args.command}: wrote {len(written)} frames to {cfg.output_dir}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    report = run_pipeline(cfg, jobs=getattr(args, "jobs", 1))
    _, aligned = report_table([report])
    print(aligned, end="")
    print(f"report: {Path(cfg.output_dir) / 'report.json'}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args, default_output=".")
    data = run_metrics(cfg, args.reference_dir).to_json_bytes()
    if args.output:
        with _removed_on_failure() as written:
            _write("report", [(Path(args.output), data)], written)
    print(data.decode("ascii"), end="")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    reports = [MetricsReport.load(path) for path in args.reports]
    csv_text, aligned = report_table(reports)
    if args.table_dir:
        table_dir = Path(args.table_dir)
        csv_path, txt_path = table_dir / "table.csv", table_dir / "table.txt"
        _make_dir(table_dir)
        with _removed_on_failure() as written:
            _write("tables", [(csv_path, csv_text.encode("utf-8")), (txt_path, aligned.encode("utf-8"))], written)
        aligned += f"tables: {csv_path}, {txt_path}\n"
    print(aligned, end="")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
            # argparse would take the flag's value for the subcommand, and name only that
            raise ConfigurationError(f"{argv[0]} comes before the subcommand; flags go after the subcommand")
        args = parser.parse_args(argv)
        handler = getattr(args, "handler", None)
        if handler is None:
            parser.print_help()
            return 1
        return handler(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except IngestionError as exc:
        print(f"ingestion error: {exc}", file=sys.stderr)
        return 2
    except PipelineStageError as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
