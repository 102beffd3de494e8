"""Command-line interface for batch frame processing and reporting.

Subcommands: luma, noise, filter, enhance (single stages), run (full
pipeline), metrics (pooled PSNR of one directory against a reference), and
report (merge metrics JSONs into a table). Every subcommand accepts --config
plus direct flag overrides of individual config fields; flag > config file >
LUMAFORGE_SEED (for the seed) > built-in default.

Exit codes: 0 success, 1 usage/config error, 2 ingestion error, 3 pipeline
stage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import ConfigurationError, IngestionError, PipelineStageError
from .pipeline import (
    FILTER_KINDS,
    MODES,
    PipelineConfig,
    ingest_frames,
    report_table,
    run_pipeline,
    run_stage,
    sequence_psnr,
)
from .quality_metrics import MetricsReport

SEED_ENV_VAR = "LUMAFORGE_SEED"

_SUPPRESS = argparse.SUPPRESS


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the exit-code contract
    # reserves 2 for ingestion errors, so remap to a configuration error
    def error(self, message):
        raise ConfigurationError(message)


def _parse_size(text: str, what: str):
    if text.lower() == "none":
        return None
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ConfigurationError(f"{what} must look like ROWSxCOLS or 'none', got {text!r}")
    try:
        return [int(parts[0]), int(parts[1])]
    except ValueError as exc:
        raise ConfigurationError(f"{what} must be integers, got {text!r}") from exc


def _parse_weight_list(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigurationError(f"--luma-weights must be RED,GREEN,BLUE, got {text!r}")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigurationError(f"--luma-weights must be numbers, got {text!r}") from exc


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=_SUPPRESS, help="JSON config file")
    parser.add_argument("--seed", type=int, default=_SUPPRESS, help="base 64-bit seed")
    parser.add_argument("--jobs", type=int, default=_SUPPRESS, help="worker count (default 1)")


def _add_overrides(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input-dir", dest="input_dir", default=_SUPPRESS, help="frame directory")
    parser.add_argument("--output-dir", dest="output_dir", default=_SUPPRESS, help="artifact directory")
    parser.add_argument("--resize", default=_SUPPRESS, help="ROWSxCOLS target, or 'none' to disable")
    parser.add_argument("--luma-weights", dest="luma_weights", default=_SUPPRESS, help="RED,GREEN,BLUE")
    parser.add_argument("--noise-kind", dest="noise_kind", default=_SUPPRESS,
                        help="salt_pepper|gaussian|poisson|speckle, or 'none' to disable")
    parser.add_argument("--noise-d", dest="noise_d", type=float, default=_SUPPRESS, help="noise level")
    parser.add_argument("--noise-seed", dest="noise_seed", type=int, default=_SUPPRESS, help="noise stream seed")
    parser.add_argument("--filter-kind", dest="filter_kind", default=_SUPPRESS,
                        help="|".join(FILTER_KINDS) + ", or 'none' to disable")
    parser.add_argument("--window", default=_SUPPRESS, help="filter window ROWSxCOLS")
    parser.add_argument("--sigma", type=float, default=_SUPPRESS, help="equalization weight (default 0)")
    parser.add_argument("--mode", choices=MODES, default=_SUPPRESS, help="processing path")
    parser.add_argument("--psnr-reference", dest="psnr_reference", choices=["clean", "noisy"],
                        default=_SUPPRESS, help="frame PSNR is measured against")
    parser.add_argument("--sample-name", dest="sample_name", default=_SUPPRESS, help="report sample name")
    parser.add_argument("--size-label", dest="size_label", default=_SUPPRESS, help="source size metadata")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lumaforge", description=__doc__.split("\n\n")[0])
    _add_common(parser)
    subparsers = parser.add_subparsers(dest="command", parser_class=_Parser)

    stage_help = {
        "luma": "convert frames to grayscale luminance",
        "noise": "inject the configured noise",
        "filter": "apply the configured smoothing filter",
        "enhance": "equalize frame brightness (also writes histograms)",
    }
    for stage, text in stage_help.items():
        sub = subparsers.add_parser(stage, help=text)
        _add_common(sub)
        _add_overrides(sub)
        sub.set_defaults(handler=_cmd_stage, stage=stage)

    run = subparsers.add_parser("run", help="run the full pipeline and write a metrics report")
    _add_common(run)
    _add_overrides(run)
    run.set_defaults(handler=_cmd_run)

    metrics = subparsers.add_parser("metrics", help="pooled PSNR of input frames vs a reference directory")
    _add_common(metrics)
    _add_overrides(metrics)
    metrics.add_argument("--reference-dir", dest="reference_dir", required=True,
                         help="directory of reference frames")
    metrics.add_argument("--output", default=None, help="also write the report JSON here")
    metrics.set_defaults(handler=_cmd_metrics)

    report = subparsers.add_parser("report", help="merge metrics reports into a CSV + aligned table")
    _add_common(report)
    report.add_argument("reports", nargs="+", help="metrics report JSON files")
    report.add_argument("--output-dir", dest="table_dir", default=None,
                        help="write table.csv and table.txt here")
    report.set_defaults(handler=_cmd_report)
    return parser


def _resolve_config(args: argparse.Namespace, default_output: str | None = None) -> PipelineConfig:
    mapping: dict = {}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            data = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigurationError(f"{config_path}: cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{config_path}: invalid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigurationError(f"{config_path}: config must be a JSON object")
        mapping = data

    for key in ("input_dir", "output_dir", "sigma", "mode", "psnr_reference",
                "sample_name", "size_label"):
        if hasattr(args, key):
            mapping[key] = getattr(args, key)
    if hasattr(args, "resize"):
        mapping["resize_to"] = _parse_size(args.resize, "--resize")
    if hasattr(args, "luma_weights"):
        mapping["luma_weights"] = _parse_weight_list(args.luma_weights)

    if hasattr(args, "noise_kind") and args.noise_kind == "none":
        mapping["noise"] = None
    elif any(hasattr(args, k) for k in ("noise_kind", "noise_d", "noise_seed")):
        noise = dict(mapping.get("noise") or {})
        if hasattr(args, "noise_kind"):
            noise["kind"] = args.noise_kind
        if hasattr(args, "noise_d"):
            noise["d"] = args.noise_d
        if hasattr(args, "noise_seed"):
            noise["seed"] = args.noise_seed
        mapping["noise"] = noise

    if hasattr(args, "filter_kind") and args.filter_kind == "none":
        mapping["filter"] = None
    elif any(hasattr(args, k) for k in ("filter_kind", "window")):
        filt = dict(mapping.get("filter") or {})
        if hasattr(args, "filter_kind"):
            filt["kind"] = args.filter_kind
        if hasattr(args, "window"):
            filt["window"] = _parse_size(args.window, "--window")
        mapping["filter"] = filt

    if hasattr(args, "seed"):
        mapping["seed"] = args.seed
    elif "seed" not in mapping and SEED_ENV_VAR in os.environ:
        raw = os.environ[SEED_ENV_VAR]
        try:
            mapping["seed"] = int(raw)
        except ValueError as exc:
            raise ConfigurationError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from exc

    if default_output is not None:
        mapping.setdefault("output_dir", default_output)
    return PipelineConfig.from_mapping(mapping)


def _jobs(args: argparse.Namespace) -> int:
    return getattr(args, "jobs", 1)


def _cmd_stage(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    written = run_stage(cfg, args.stage, jobs=_jobs(args))
    print(f"{args.stage}: wrote {len(written)} frames to {cfg.output_dir}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    report = run_pipeline(cfg, jobs=_jobs(args))
    _, aligned = report_table([report])
    print(aligned, end="")
    print(f"report: {Path(cfg.output_dir) / 'report.json'}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args, default_output=".")
    result = ingest_frames(cfg.input_dir)
    reference = ingest_frames(args.reference_dir)
    pooled = sequence_psnr(result, reference)
    kind = "color" if "color" in (result.native_kind, reference.native_kind) else "gray"
    report = MetricsReport(
        sample_name=cfg.sample_name or result.name,
        n_frames=len(result.paths),
        frame_dims=(result.dims.rows, result.dims.cols),
        pipeline_config_digest=cfg.digest(),
        gray_psnr_db=pooled.psnr_db if kind == "gray" else None,
        color_psnr_db=pooled.psnr_db if kind == "color" else None,
        size_label=cfg.size_label,
    )
    print(json.dumps(report.to_json_dict(), indent=2))
    if args.output:
        report.save(args.output)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    reports = [MetricsReport.load(path) for path in args.reports]
    csv_text, aligned = report_table(reports)
    print(aligned, end="")
    if args.table_dir:
        table_dir = Path(args.table_dir)
        table_dir.mkdir(parents=True, exist_ok=True)
        (table_dir / "table.csv").write_text(csv_text, encoding="ascii")
        (table_dir / "table.txt").write_text(aligned, encoding="ascii")
        print(f"tables: {table_dir / 'table.csv'}, {table_dir / 'table.txt'}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
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
