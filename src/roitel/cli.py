"""Command-line front end: reproducible simulate/sweep/report experiments.

Exit codes: 0 success, 1 parse or configuration error, 2 budget split
violation (b_video + b_roi > b_total) or command-line usage error. Every
command is deterministic given its argument list, config file, and inputs;
report and log files embed the config echo needed for an exact rerun.
"""

from __future__ import annotations

import argparse
import math
import shutil
import sys
from contextlib import contextmanager, suppress
from dataclasses import replace
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Optional, TextIO

from . import config as config_mod
from . import engine, ingest, metrics, runlog, semantic
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


class _Stage:
    """The files of one command, staged by ``_staged``: each written as
    ``.<name>.part`` beside its target, and the spill files of its logs."""

    def __init__(self) -> None:
        self.staged: list[tuple[Path, Path]] = []  # (temporary name, final name)
        self.spills: dict[BinaryIO, Path] = {}
        self.made: list[Path] = []  # directories made, each after its parent

    def _name(self, path: Path) -> Path:
        """Where ``path`` is written: ``.<name>.part`` beside the file a
        symlink names, whose directories are made; or ``path`` itself,
        when it exists and is not a regular file (a FIFO, /dev/stdout),
        which no rename can replace."""
        if path.exists() and not path.is_file():
            return path
        path = path.resolve()
        missing = [d for d in path.parents if not d.exists()]
        path.parent.mkdir(parents=True, exist_ok=True)
        self.made += reversed(missing)
        return path.with_name(f".{path.name}.part")

    def spill(self, path: Path, kind: str) -> BinaryIO:
        """A new file ``.<name>.<kind>.spill`` beside where ``path`` is
        written, open to write and read back; it is removed once ``write``
        has copied it, or when the stage ends."""
        name = self._name(path).with_name(f".{path.name}.{kind}.spill")
        fp = open(name, "w+b")
        self.spills[fp] = name
        return fp

    def drop(self, spills: Iterable[BinaryIO]) -> None:
        """Close and remove each of the spills."""
        for fp in spills:
            fp.close()
            self.spills.pop(fp).unlink(missing_ok=True)

    def write(self, path: Path, texts: Iterable[str], spills: Iterable[BinaryIO] = ()) -> None:
        """Write the texts to ``path``'s staged name, then copy each spill in
        after them, byte for byte, and drop it."""
        name = self._name(path)
        if name != path:
            self.staged.append((name, path.resolve()))
        with open(name, "w", encoding="utf-8", newline="\n") as fp:
            fp.writelines(texts)
            if spills:
                fp.flush()
                for spill in spills:
                    spill.seek(0)
                    shutil.copyfileobj(spill, fp.buffer)
        self.drop(spills)


@contextmanager
def _staged() -> Iterator[_Stage]:
    """A ``_Stage`` whose files take their names together once the block
    succeeds; on any exception, KeyboardInterrupt included, every one is
    removed, and every directory made for them, so no earlier file changes.
    Spill files are removed either way. A symlink is resolved, so the file
    it names is replaced; a path that exists and is not a regular file is
    written in place."""
    stage = _Stage()
    try:
        yield stage
        for part, final in stage.staged:
            part.replace(final)
    except BaseException:
        stage.drop(list(stage.spills))
        for part, _ in stage.staged:
            part.unlink(missing_ok=True)
        for directory in reversed(stage.made):
            with suppress(OSError):  # a directory another writer has used
                directory.rmdir()
        raise


def _write_log(
    stage: _Stage, path: Path, parts: Iterator
) -> tuple[runlog.RunLog, metrics.MetricsReport]:
    """Write the run log of a run's parts (``engine.iter_run``) to ``path``
    and fold its report, a block at a time as each part comes: its tx and
    class lines go to two spills, and its tx columns to
    ``metrics.fold_parts``. Once the last part is folded, the header's
    counts are known: the log is written as the header line, then both
    spills copied in. No record object is built, and no block is kept."""
    spills = stage.spill(path, "tx"), stage.spill(path, "class")

    def written() -> Iterator:
        yield next(parts)
        for cols in parts:
            blocks = runlog.tx_lines(cols[0]), runlog.class_lines(cols[1])
            for spill, lines in zip(spills, blocks):
                text = "\n".join(lines)
                if text:
                    spill.write(text.encode("utf-8") + b"\n")
            yield cols

    log, rep = metrics.fold_parts(written())
    stage.write(path, [runlog.header_line(log) + "\n"], spills)
    return log, rep


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


def _parse_sidecar(args) -> Optional[semantic.SemanticSidecar]:
    if not args.sidecar:
        return None
    with _open_text(args.sidecar) as fp:
        return semantic.parse_sidecar_csv(fp)


def _report_paths(out_dir: Path, fmt: str) -> Path:
    return out_dir / f"report.{_REPORT_EXT[fmt]}"


def cmd_simulate(args) -> int:
    """Schedule the run and write its log as it is scheduled, folding its
    report on the way (``_write_log``), so the peak follows the input and
    not the log. The log and the report take their names together."""
    cfg, stream = _load_run_inputs(args)
    parts = engine.iter_run(stream, _parse_sidecar(args), cfg)

    out_dir = Path(args.out_dir)
    log_path = out_dir / "runlog.jsonl"
    fmt = args.report_format
    report_path = _report_paths(out_dir, fmt)
    with _staged() as stage:
        log, rep = _write_log(stage, log_path, parts)
        echo = log.config_echo
        stage.write(report_path, [metrics.emit_report([(log.variant, rep)], fmt, config_echo=echo)])

    for column, value in zip(metrics.REPORT_COLUMNS, metrics.report_row(log.variant, rep)):
        print(f"{column} = {value if value else 'n/a'}")
    print(f"wrote {log_path} and {report_path}", file=sys.stderr)
    return 0


def cmd_sweep(args) -> int:
    """Schedule, write and fold one variant at a time, each as
    ``cmd_simulate`` does, so the peak follows the associated frames and
    neither a log nor the number of variants; only each log's report is
    kept. The logs and both reports take their names together, once the
    last file is written, so a sweep that fails leaves no file of its own
    and no earlier sweep's file changed."""
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    if not variants:
        raise ConfigError("sweep needs at least one variant")
    repeated = [v for i, v in enumerate(variants) if v in variants[:i]]
    if repeated:
        raise ConfigError(f"sweep lists variant {repeated[0]!r} more than once")
    cfg, stream = _load_run_inputs(args)
    # neither input is kept: the associated frames hold what scheduling reads
    results = engine.iter_sweep(stream, _parse_sidecar(args), cfg, variants)
    del stream
    out_dir = Path(args.out_dir)
    echo = config_mod.dump_config(cfg)
    fmt = args.report_format
    reports = []
    with _staged() as stage:
        for variant, parts in results:
            path = out_dir / f"runlog_{variant}.jsonl"
            reports.append((variant, _write_log(stage, path, parts)[1]))  # not its header
        report_text = metrics.emit_report(reports, fmt, config_echo=echo)
        selection_text = metrics.emit_selection_report(reports, fmt, config_echo=echo)
        stage.write(_report_paths(out_dir, fmt), [report_text])
        stage.write(out_dir / f"selection.{_REPORT_EXT[fmt]}", [selection_text])

    sys.stdout.write(report_text)
    sys.stdout.write(selection_text)
    print(f"wrote {len(reports)} run logs under {out_dir}", file=sys.stderr)
    return 0


def cmd_report(args) -> int:
    """Fold each run log into its report block by block as it is read,
    keeping its header and no record, so the peak follows neither the logs'
    size nor their number."""
    labels = None if args.labels is None else [s.strip() for s in args.labels.split(",")]
    if labels is not None and "" in labels:
        raise ConfigError(f"--labels holds an empty label: {args.labels!r}")
    if labels is not None and len(labels) != len(args.runlogs):
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
                log, rep = metrics.fold_jsonl(fp)
            except RoitelError as err:
                raise RoitelError(f"{path}: {err}") from err
        if echo is None:
            echo = log.config_echo
        reports.append((log.variant if labels is None else labels[i], rep))
        del log  # its processed frames, before the next log is read
    text = metrics.emit_report(reports, args.report_format, config_echo=echo)
    if args.out:
        with _staged() as stage:
            stage.write(Path(args.out), [text])
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
        with _staged() as stage:
            stage.write(Path(args.out), [text])
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
            sidecar = semantic.parse_sidecar_csv(fp, errors_out=sc_errors)
        problems.extend(f"{args.sidecar}: {err}" for err in sc_errors)
        # Count the records the engine looks up: the same association pass
        # under the same clock, tracker and cost settings a run would use.
        looked_up: set[int] = set()  # sidecar rows
        for *_, cols in engine.associate(stream, sidecar, cfg.clock, cfg.tracker, cfg.cost):
            looked_up.update(cols.records[cols.records >= 0].tolist())
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
