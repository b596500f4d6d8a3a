"""Command-line front end: reproducible simulate/sweep/report experiments.

Exit codes: 0 success, 1 parse or configuration error, 2 budget split
violation (b_video + b_roi > b_total) or command-line usage error. Every
command is deterministic given its argument list, config file, and inputs;
report and log files embed the config echo needed for an exact rerun.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Iterable, Iterator, Optional, TextIO

from . import config as config_mod
from . import engine, ingest, metrics, runlog
from .domain import FrameClock
from .errors import BudgetConfigError, ConfigError, ParseError, RoitelError

#: --format value -> name of its parser in ``ingest``. The parser is looked
#: up on the module at call time, so wrappers installed there (the
#: benchmark's layer tracer) see every parse.
_PARSERS = {
    "generic": "parse_generic_csv",
    "uavdt": "parse_uavdt_gt",
    "visdrone": "parse_visdrone_mot",
}
INPUT_FORMATS = tuple(_PARSERS)

_REPORT_EXT = {"csv": "csv", "json": "json", "markdown": "md"}

_CONFIG_EPILOG = (
    "config keys (usable in config files and --set overrides):\n"
    + config_mod.schema_help()
)


@contextmanager
def _open_text(path: str) -> Iterator[TextIO]:
    """``path`` open as UTF-8 text with universal newlines, as
    ``Path.read_text`` reads it; a byte that is not UTF-8, wherever it is
    read, is an error that names the file."""
    try:
        with open(path, encoding="utf-8") as fp:
            yield fp
    except UnicodeDecodeError as err:
        byte = err.object[err.start]
        raise RoitelError(f"{path}: not UTF-8 text: {err.reason} (byte 0x{byte:02x})") from None


def _read_text(path: str) -> str:
    with _open_text(path) as fp:
        return fp.read()


def _create(path: Path) -> TextIO:
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="\n")


def _write_text(path: Path, text: str) -> None:
    with _create(path) as fp:
        fp.write(text)


def _write_lines(path: Path, lines: Iterable[str]) -> None:
    """Each line and a newline, as they come, without joining them into one text."""
    with _create(path) as fp:
        for line in lines:
            fp.write(line)
            fp.write("\n")


def _load_run_config(args, file_clock: FrameClock) -> engine.RunConfig:
    """Each key from ``--set``, else from ``--config``, else (clock keys)
    from ``file_clock``, the input stream's clock, else its default."""
    values = {}
    if getattr(args, "config", None):
        values = config_mod.parse_kv_text(_read_text(args.config))
    values.setdefault("clock.fps", repr(file_clock.fps))
    values.setdefault("clock.frame_stride", str(file_clock.frame_stride))
    cfg = config_mod.build_config(values)
    overrides = getattr(args, "set", None) or []
    if overrides:
        cfg = config_mod.apply_overrides(cfg, overrides)
    return cfg


def _parse_stream(
    args, errors_out: Optional[list[ParseError]] = None
) -> ingest.DetectionStream:
    """The input stream; its clock is the file's ``# clock:`` comment, or
    the default clock, which equals the schema defaults."""
    parse = getattr(ingest, _PARSERS[args.format])
    with _open_text(args.input) as fp:
        return parse(fp, errors_out=errors_out)


def _load_run_inputs(args) -> tuple[engine.RunConfig, ingest.DetectionStream]:
    """The run config over the input's clock, and the input stream with
    ``--conf-noise`` applied."""
    if not (math.isfinite(args.conf_noise) and args.conf_noise >= 0.0):
        raise ConfigError(f"--conf-noise must be finite and >= 0, got {args.conf_noise}")
    stream = _parse_stream(args)
    cfg = _load_run_config(args, stream.clock)
    if args.conf_noise > 0.0:
        stream = ingest.inject_confidence_noise(stream, args.conf_noise, cfg.seed)
    return cfg, stream


def _parse_sidecar(args) -> Optional[ingest.SemanticSidecar]:
    if not args.sidecar:
        return None
    with _open_text(args.sidecar) as fp:
        return ingest.parse_sidecar_csv(fp)


def _report_paths(out_dir: Path, fmt: str) -> Path:
    return out_dir / f"report.{_REPORT_EXT[fmt]}"


def cmd_simulate(args) -> int:
    cfg, stream = _load_run_inputs(args)
    sidecar = _parse_sidecar(args)
    echo = config_mod.dump_config(cfg)

    log = engine.run(stream, sidecar, cfg)
    rep = metrics.aggregate_run(log, cfg.eval.lambda_cls)

    out_dir = Path(args.out_dir)
    log_path = out_dir / "runlog.jsonl"
    _write_lines(log_path, runlog.to_jsonl_lines(log))
    report_path = _report_paths(out_dir, args.report_format)
    _write_text(
        report_path,
        metrics.emit_report([(log.variant, rep)], args.report_format, config_echo=echo),
    )

    for column, value in zip(metrics.REPORT_COLUMNS, metrics.report_row(log.variant, rep)):
        print(f"{column} = {value if value else 'n/a'}")
    print(f"wrote {log_path} and {report_path}", file=sys.stderr)
    return 0


def cmd_sweep(args) -> int:
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    if not variants:
        raise ConfigError("sweep needs at least one variant")
    repeated = [v for i, v in enumerate(variants) if v in variants[:i]]
    if repeated:
        raise ConfigError(f"sweep lists variant {repeated[0]!r} more than once")
    cfg, stream = _load_run_inputs(args)
    sidecar = _parse_sidecar(args)

    results = engine.sweep(stream, sidecar, cfg, variants)
    # every log is aggregated before any is written, so a refusal writes nothing
    reports = [(v, metrics.aggregate_run(log, cfg.eval.lambda_cls)) for v, log in results]
    out_dir = Path(args.out_dir)
    for variant, log in results:
        _write_lines(out_dir / f"runlog_{variant}.jsonl", runlog.to_jsonl_lines(log))

    echo = config_mod.dump_config(cfg)
    fmt = args.report_format
    report_text = metrics.emit_report(reports, fmt, config_echo=echo)
    selection_text = metrics.emit_selection_report(reports, fmt, config_echo=echo)
    _write_text(_report_paths(out_dir, fmt), report_text)
    _write_text(out_dir / f"selection.{_REPORT_EXT[fmt]}", selection_text)

    sys.stdout.write(report_text)
    sys.stdout.write(selection_text)
    print(f"wrote {len(results)} run logs under {out_dir}", file=sys.stderr)
    return 0


def cmd_report(args) -> int:
    labels = [s.strip() for s in args.labels.split(",")] if args.labels else None
    if labels and len(labels) != len(args.runlogs):
        raise ConfigError(
            f"--labels names {len(labels)} runs but {len(args.runlogs)} logs were given"
        )
    reports = []
    echo: Optional[dict[str, str]] = None
    for i, path in enumerate(args.runlogs):
        # _open_text names the file in a decoding error, so only the
        # errors raised inside name it here
        with _open_text(path) as fp:
            try:
                log = runlog.read_jsonl(fp)
                lambda_cls = config_mod.parse_value(
                    "eval.lambda_cls", log.config_echo.get("eval.lambda_cls", "none")
                )
                rep = metrics.aggregate_run(log, lambda_cls)
            except RoitelError as err:
                raise RoitelError(f"{path}: {err}") from err
        if echo is None:
            echo = log.config_echo
        reports.append((labels[i] if labels else log.variant, rep))
    text = metrics.emit_report(reports, args.report_format, config_echo=echo)
    if args.out:
        _write_text(Path(args.out), text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def cmd_gen_synthetic(args) -> int:
    clock = FrameClock(fps=args.fps, frame_stride=args.stride)
    stream = ingest.gen_synthetic(
        seed=args.seed,
        n_frames=args.n_frames,
        mean_objects=args.mean_objects,
        clock=clock,
    )
    text = ingest.write_generic_csv(stream)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        _write_text(Path(args.out), text)
        print(
            f"wrote {stream.n_detections} detections over {len(stream.frame_indices)} frames"
            f" to {args.out}",
            file=sys.stderr,
        )
    return 0


def cmd_validate(args) -> int:
    problems: list[str] = []
    budget_violation = False

    errors: list[ParseError] = []
    stream = _parse_stream(args, errors_out=errors)
    # the schema defaults over the input's clock if the config fails to load
    cfg = replace(config_mod.build_config({}), clock=stream.clock)
    try:
        cfg = _load_run_config(args, stream.clock)
    except BudgetConfigError as err:
        problems.append(f"config: {err}")
        budget_violation = True
    except RoitelError as err:
        problems.append(f"config: {err}")
    problems.extend(f"{args.input}: {err}" for err in errors)

    print(f"frames: {len(stream.frame_indices)}")
    print(f"detections: {stream.n_detections}")

    if args.sidecar:
        sc_errors: list[ParseError] = []
        with _open_text(args.sidecar) as fp:
            sidecar = ingest.parse_sidecar_csv(fp, errors_out=sc_errors)
        problems.extend(f"{args.sidecar}: {err}" for err in sc_errors)
        # Count the records the engine looks up: the same association pass
        # under the same clock, tracker and cost settings a run would use.
        looked_up = {
            (rec.frame_index, rec.track_id)
            for *_, cols in engine.associate(stream, sidecar, cfg.clock, cfg.tracker, cfg.cost)
            for rec in cols.records
            if rec is not None
        }
        matched = len(looked_up)
        unknown = len(sidecar) - matched
        print(f"sidecar records: {len(sidecar)}")
        print(f"sidecar matched: {matched}")
        if unknown:
            # Coverage gaps are legal; the engine simply sends without
            # semantic fields for uncovered ROIs.
            print(
                f"warning: {unknown} sidecar records reference unknown (frame,track) pairs"
                " that no processed frame looks up",
                file=sys.stderr,
            )

    if problems:
        for p in problems:
            print(f"violation: {p}", file=sys.stderr)
        return 2 if budget_violation else 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roitel",
        description="Budget-constrained hybrid telemetry simulator: stream "
        "detections, schedule ROI stills under a rolling bitrate budget, "
        "and report selection and semantic-gain metrics.",
        epilog=_CONFIG_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add_common_io(p):
        p.add_argument("--input", required=True, help="detections file")
        p.add_argument(
            "--format", choices=INPUT_FORMATS, default="generic", help="input layout"
        )
        p.add_argument("--sidecar", help="semantic sidecar CSV")

    def add_config_args(p):
        p.add_argument("--config", help="run config file (key = value lines)")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override one config key (repeatable; unknown keys are rejected)",
        )

    def add_run_args(p):
        add_config_args(p)
        p.add_argument(
            "--conf-noise",
            type=float,
            default=0.0,
            metavar="AMOUNT",
            help="seeded downward confidence jitter applied to the input stream "
            "(finite and >= 0; 0 adds none)",
        )
        p.add_argument(
            "--report-format",
            choices=metrics.REPORT_FORMATS,
            default="csv",
            help="report file format",
        )

    p = sub.add_parser(
        "simulate",
        help="run one policy and write runlog + report",
        epilog=_CONFIG_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    add_common_io(p)
    add_run_args(p)
    p.add_argument("--out-dir", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "sweep",
        help="run several policies over the identical stream and budget",
        epilog=_CONFIG_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    add_common_io(p)
    add_run_args(p)
    p.add_argument(
        "--variants",
        required=True,
        help="comma-separated policy list, e.g. M0,M1,M2,M3,M4,M5 or the preset_* names",
    )
    p.add_argument("--out-dir", required=True, help="output directory")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="re-aggregate existing run logs")
    p.add_argument("runlogs", nargs="+", metavar="RUNLOG", help="runlog.jsonl files")
    p.add_argument("--labels", help="comma-separated row labels (default: variants)")
    p.add_argument(
        "--report-format", choices=metrics.REPORT_FORMATS, default="csv"
    )
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("gen-synthetic", help="write a seeded synthetic detections CSV")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--n-frames", type=int, default=300)
    p.add_argument("--mean-objects", type=float, default=5.0)
    p.add_argument("--fps", type=float, default=15.0)
    p.add_argument("--stride", type=int, default=5)
    p.add_argument("--out", default="-", help="output file, or - for stdout")
    p.set_defaults(func=cmd_gen_synthetic)

    p = sub.add_parser(
        "validate",
        help="check inputs and config; print counts; write nothing",
        epilog=_CONFIG_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    add_common_io(p)
    add_config_args(p)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetConfigError as err:
        print(f"error: budget violation: {err}", file=sys.stderr)
        return 2
    except (RoitelError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
