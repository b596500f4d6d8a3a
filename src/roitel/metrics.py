"""Aggregate run logs into the reported metric suite.

All aggregation is pure and permutation-invariant over transmissions:
float accumulation uses math.fsum, which is exactly rounded and therefore
order-independent. Semantic means are computed only over transmissions
that carried sidecar data and are reported as absent (None) when none did.
Every report is a ``_Tally`` of the transmissions' columns. ``fold_parts``
feeds it a log's parts (see ``runlog``) a block at a time, as the CLI's
writer passes on a fresh run's and ``fold_jsonl`` a read log's, so both are
folded by one path; ``aggregate`` feeds it a library ``RunLog``'s records a
chunk at a time.
"""

from __future__ import annotations

import json
import math
from array import array
from collections import namedtuple
from dataclasses import dataclass
from itertools import compress, repeat
from operator import gt, is_not, ne, sub
from typing import Iterator, Optional, TextIO, Union

from . import runlog
from .config import parse_value
from .errors import DuplicateLabel, InvalidParam
from .runlog import _SEMANTIC_FIELDS, RunLog, TransmissionRecord

REPORT_COLUMNS = (
    "policy",
    "rois",
    "rate_hz",
    "bitrate_mbps",
    "share",
    "mean_bytes",
    "video_conf",
    "still_conf",
    "conf_gain",
    "pos_rate",
    "entropy_gain",
)

SELECTION_COLUMNS = ("policy", "selected_rois", "selection_ratio", "frame_coverage")

REPORT_FORMATS = ("csv", "json", "markdown")


@dataclass(frozen=True)
class MetricsReport:
    """One run's aggregate numbers; semantic fields None without coverage."""

    selected_rois: int
    selection_ratio: float
    frame_coverage: float
    roi_rate_hz: float
    roi_bitrate_bps: float
    bitrate_share: float
    mean_payload_bytes: float
    mean_video_conf: Optional[float]
    mean_still_conf: Optional[float]
    mean_conf_gain: Optional[float]
    positive_gain_rate: Optional[float]
    mean_entropy_gain: Optional[float]
    prediction_change_rate: Optional[float]
    tracks_refined: int
    combined_utility: Optional[float]
    total_payload_bits: float
    duration_s: float
    base_bitrate_bps: float
    semantic_count: int


def derive_duration(log: RunLog) -> float:
    """Duration used for rate normalization.

    The explicit evaluation duration wins when configured; otherwise the
    processed-frame span over fps. Single-frame and empty runs have no
    derivable span and need the explicit setting.
    """
    if log.duration_s is not None:
        return log.duration_s
    p = log.processed_frame_indices
    if len(p) < 2:
        raise InvalidParam(
            "cannot derive a duration from fewer than two processed frames; "
            "set eval.duration_s"
        )
    return (p[-1] - p[0]) / log.clock.fps


#: A block of tx records as columns, each named as its record field.
_TxColumns = namedtuple("_TxColumns", TransmissionRecord._fields)


def _fsum(values) -> float:
    """``math.fsum``, or an infinity for ``aggregate`` to refuse where the
    sum is beyond the float range and fsum raises OverflowError."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


def _extend(column: array, values) -> None:
    """Append ``values`` to a float column; an integer beyond the float
    range appends an infinity instead, as the column's sum is beyond it."""
    try:
        column.extend(values)
    except OverflowError:
        column.append(math.inf)


class _Tally:
    """What the metric suite reads of a log's transmissions, taken a block
    of a log's parts' tx columns at a time (``fold_parts``), or a chunk of
    a library log's records as columns (``aggregate``): counts, the frame
    and track ids, and each float it sums, kept as a column to
    ``math.fsum`` once."""

    def __init__(self) -> None:
        self.selected = 0
        self.frames: set[int] = set()
        self.tracks: set[int] = set()
        self.cost_bits = array("d")
        self.video_conf = array("d")
        self.still_conf = array("d")
        self.conf_gain = array("d")  # each still_conf - video_conf
        self.entropy_gain = array("d")  # each video_entropy - still_entropy
        self.positive_gains = 0
        self.label_changes = 0

    def add(self, cols: list) -> None:
        """Take a block of tx records as columns, in TransmissionRecord's
        field order, each read by its field's name; the bbox column is not
        read."""
        tx = _TxColumns._make(cols)
        self.selected += len(tx.frame_index)
        self.frames.update(tx.frame_index)
        self.tracks.update(tx.track_id)
        _extend(self.cost_bits, tx.cost_bits)
        if None in tx.still_conf:  # a record has semantics where its still_conf is set
            kept = list(map(is_not, tx.still_conf, repeat(None)))
            tx = tx._replace(
                **{name: list(compress(getattr(tx, name), kept)) for name in _SEMANTIC_FIELDS}
            )
        gains = list(map(sub, tx.still_conf, tx.video_conf))
        _extend(self.video_conf, tx.video_conf)
        _extend(self.still_conf, tx.still_conf)
        _extend(self.conf_gain, gains)
        _extend(self.entropy_gain, map(sub, tx.video_entropy, tx.still_entropy))
        self.positive_gains += sum(map(gt, gains, repeat(0.0)))
        self.label_changes += sum(map(ne, tx.still_label, tx.video_label))

    def report(
        self, log: RunLog, base_bitrate_bps: float, duration_s: float, lambda_cls: Optional[float]
    ) -> MetricsReport:
        """The metric suite of the transmissions taken, with the counts and
        the detection confidence mean of ``log``'s header."""
        if not duration_s > 0:
            raise InvalidParam(f"duration_s must be > 0, got {duration_s}")
        if base_bitrate_bps < 0:
            raise InvalidParam(f"base_bitrate_bps must be >= 0, got {base_bitrate_bps}")

        selected = self.selected
        raw = log.raw_candidate_count
        ratio = selected / raw if raw > 0 else 0.0
        processed = log.processed_frames
        coverage = len(self.frames) / processed if processed > 0 else 0.0

        total_bits = _fsum(self.cost_bits)
        roi_bitrate = total_bits / duration_s
        denom = base_bitrate_bps + roi_bitrate
        if math.isinf(denom):  # halving each term is exact and keeps their sum finite
            share = (roi_bitrate / 2) / (base_bitrate_bps / 2 + roi_bitrate / 2)
        else:
            share = roi_bitrate / denom if denom > 0 else 0.0
        mean_bytes = (total_bits / 8.0) / selected if selected else 0.0

        n_sem = len(self.still_conf)
        if n_sem:
            mean_video = _fsum(self.video_conf) / n_sem
            mean_still = _fsum(self.still_conf) / n_sem
            mean_gain = _fsum(self.conf_gain) / n_sem
            pos_rate = self.positive_gains / n_sem
            mean_entropy = _fsum(self.entropy_gain) / n_sem
            change_rate = self.label_changes / n_sem
        else:
            mean_video = mean_still = mean_gain = None
            pos_rate = mean_entropy = change_rate = None

        combined = None
        if lambda_cls is not None:
            # Proxy line: mean detection confidence stands in for the detection
            # utility, plus the weighted semantic gain (0 without coverage).
            combined = log.detection_conf_mean + lambda_cls * (mean_gain if n_sem else 0.0)

        report = MetricsReport(
            selected_rois=selected,
            selection_ratio=ratio,
            frame_coverage=coverage,
            roi_rate_hz=selected / duration_s,
            roi_bitrate_bps=roi_bitrate,
            bitrate_share=share,
            mean_payload_bytes=mean_bytes,
            mean_video_conf=mean_video,
            mean_still_conf=mean_still,
            mean_conf_gain=mean_gain,
            positive_gain_rate=pos_rate,
            mean_entropy_gain=mean_entropy,
            prediction_change_rate=change_rate,
            tracks_refined=len(self.tracks),
            combined_utility=combined,
            total_payload_bits=total_bits,
            duration_s=duration_s,
            base_bitrate_bps=base_bitrate_bps,
            semantic_count=n_sem,
        )
        for name, value in vars(report).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise InvalidParam(
                    f"{name} = {value} is not finite for duration_s = {duration_s!r}"
                )
        return report


#: Records a library log's tally takes at a time, about a run-log block's
#: worth: the columns of a whole log would raise a peak with its log. No
#: command builds a ``RunLog`` with records, so only library callers chunk.
_CHUNK = 1024


def _tallied(log: RunLog) -> _Tally:
    tally = _Tally()
    for cols in runlog.record_columns(log.transmissions, _CHUNK):
        tally.add(cols)
    return tally


def aggregate(
    log: RunLog,
    base_bitrate_bps: float,
    duration_s: float,
    lambda_cls: Optional[float] = None,
) -> MetricsReport:
    """Reduce one run log to the metric suite. Raises InvalidParam, naming
    the quantity and the duration, where a reported number is not finite."""
    return _tallied(log).report(log, base_bitrate_bps, duration_s, lambda_cls)


def _run_report(log: RunLog, tally: _Tally) -> MetricsReport:
    lambda_cls = parse_value("eval.lambda_cls", log.config_echo.get("eval.lambda_cls", "none"))
    return tally.report(log, log.base_bitrate_bps, derive_duration(log), lambda_cls)


def aggregate_run(log: RunLog) -> MetricsReport:
    """Aggregate with base bitrate, duration and ``eval.lambda_cls`` from the log."""
    return _run_report(log, _tallied(log))


def fold_parts(parts: Iterator) -> tuple[RunLog, MetricsReport]:
    """The header of a log given as parts, as ``runlog.iter_jsonl`` or the
    engine gives them, without records, and the log's report:
    ``aggregate_run(runlog.collect(parts))``, with the same errors, but
    folded a block at a time, so that no record is built or kept."""
    log = next(parts)
    tally = _Tally()
    for tx_cols, _ in parts:
        tally.add(tx_cols)
    return log, _run_report(log, tally)


def fold_jsonl(source: Union[str, TextIO]) -> tuple[RunLog, MetricsReport]:
    """``fold_parts`` of the run log ``source`` holds, as it is read:
    ``aggregate_run(read_jsonl(source))``, with the same errors."""
    return fold_parts(runlog.iter_jsonl(source))


def _fmt(value, spec: str) -> str:
    if value is None:
        return ""
    return format(value, spec)


def report_row(label: str, rep: MetricsReport) -> list[str]:
    """Formatted cells for one report row, in REPORT_COLUMNS order."""
    return [
        label,
        str(rep.selected_rois),
        _fmt(rep.roi_rate_hz, ".3f"),
        _fmt(rep.roi_bitrate_bps / 1e6, ".4f"),
        _fmt(rep.bitrate_share, ".4f"),
        _fmt(rep.mean_payload_bytes, ".0f"),
        _fmt(rep.mean_video_conf, ".3f"),
        _fmt(rep.mean_still_conf, ".3f"),
        _fmt(rep.mean_conf_gain, ".3f"),
        _fmt(rep.positive_gain_rate, ".3f"),
        _fmt(rep.mean_entropy_gain, ".3f"),
    ]


def _selection_row(label: str, rep: MetricsReport) -> list[str]:
    return [
        label,
        str(rep.selected_rois),
        _fmt(rep.selection_ratio, ".3f"),
        _fmt(rep.frame_coverage, ".3f"),
    ]


def _check_labels(reports) -> None:
    """Each label must be unique, name its row and fit in one cell of every
    format: a ``|`` would split a markdown cell, a ``,`` a csv cell, and a
    line break (where ``str.splitlines`` breaks) any row."""
    seen = set()
    for label, _ in reports:
        if not label.strip():
            raise InvalidParam(f"report label {label!r} is empty or only whitespace")
        if label in seen:
            raise DuplicateLabel(f"duplicate report label {label!r}")
        if "|" in label or "," in label or "".join(label.splitlines()) != label:
            raise InvalidParam(f"report label {label!r} holds '|', ',' or a line break")
        seen.add(label)


def _extras(rep: MetricsReport) -> dict:
    return {
        "selection_ratio": rep.selection_ratio,
        "frame_coverage": rep.frame_coverage,
        "prediction_change_rate": rep.prediction_change_rate,
        "tracks_refined": rep.tracks_refined,
        "combined_utility_proxy": rep.combined_utility,
        "roi_bitrate_bps": rep.roi_bitrate_bps,
        "total_payload_bits": rep.total_payload_bits,
        "duration_s": rep.duration_s,
        "base_bitrate_bps": rep.base_bitrate_bps,
        "semantic_count": rep.semantic_count,
    }


def _emit_table(
    columns: tuple[str, ...],
    rows: list[list[str]],
    fmt: str,
    config_echo: Optional[dict[str, str]],
    json_extras: Optional[list[dict]] = None,
) -> str:
    if fmt == "csv":
        lines = []
        if config_echo:
            for key in sorted(config_echo):
                lines.append(f"# {key} = {config_echo[key]}")
        lines.append(",".join(columns))
        lines.extend(",".join(row) for row in rows)
        return "\n".join(lines) + "\n"
    if fmt == "json":
        def cell(v: str):
            if v == "":
                return None
            try:
                return int(v)
            except ValueError:
                return float(v)

        obj = {
            "columns": list(columns),
            # the first cell is the label, kept as text
            "rows": [dict(zip(columns, [row[0], *map(cell, row[1:])])) for row in rows],
        }
        if json_extras is not None:
            for row_obj, extra in zip(obj["rows"], json_extras):
                row_obj["extra"] = extra
        if config_echo is not None:
            obj["config"] = dict(sorted(config_echo.items()))
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if fmt == "markdown":
        header = "| " + " | ".join(columns) + " |"
        rule = "|" + "|".join(" --- " for _ in columns) + "|"
        lines = [header, rule]
        lines.extend("| " + " | ".join(v if v else "-" for v in row) + " |" for row in rows)
        if config_echo:
            lines.append("")
            lines.extend(f"    {key} = {config_echo[key]}" for key in sorted(config_echo))
        return "\n".join(lines) + "\n"
    raise InvalidParam(f"unknown report format {fmt!r}; expected one of {REPORT_FORMATS}")


def emit_report(
    reports: list[tuple[str, MetricsReport]],
    fmt: str = "csv",
    config_echo: Optional[dict[str, str]] = None,
) -> str:
    """Render the pilot-results table (11 fixed columns) for many runs."""
    _check_labels(reports)
    rows = [report_row(label, rep) for label, rep in reports]
    extras = [_extras(rep) for _, rep in reports]
    return _emit_table(REPORT_COLUMNS, rows, fmt, config_echo, json_extras=extras)


def emit_selection_report(
    reports: list[tuple[str, MetricsReport]],
    fmt: str = "csv",
    config_echo: Optional[dict[str, str]] = None,
) -> str:
    """Render the selector-sweep table (selected / ratio / coverage)."""
    _check_labels(reports)
    rows = [_selection_row(label, rep) for label, rep in reports]
    return _emit_table(SELECTION_COLUMNS, rows, fmt, config_echo)
