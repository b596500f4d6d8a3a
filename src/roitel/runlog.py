"""Run log records and their JSONL serialization.

A run log is one header object followed by one JSON object per line, each
tagged with a "kind" field ("tx" for ROI transmissions, "class" for class
timeline events). Serialization is deterministic: keys are sorted and floats
use the shortest round-trip form, so identical runs produce identical bytes.
The header is written by ``json.dumps``; the records by fixed templates that
give the same bytes. Records are named tuples, so the scheduling pass, the
writer and the reader build and unpack them at tuple cost.

``read_jsonl`` reads a ``str`` or an open text file once, in blocks of
whole lines, through the text layer the parsers share (``_text``; a ``str``
with universal newlines). Each block after the header is decoded one line
at a time, skipping lines of only spaces and tabs; a block that pass cannot
be sure of goes alone to the line reader, with its lines numbered as in the
whole text. So the log and every error are the line reader's on the whole
text.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain, starmap
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Optional, TextIO, Union

from ._text import line_blocks, text_file
from .domain import BBox, BudgetConfig, FrameClock
from .errors import ConfigError, InvalidParam, ParseError

RUNLOG_KIND = "roitel-runlog"
RUNLOG_VERSION = 1

CLASS_SOURCE_VIDEO = "video"
CLASS_SOURCE_STILL = "still"


class TransmissionRecord(NamedTuple):
    """One ROI sent over the side channel.

    Semantic fields are None when the run had no sidecar entry for this
    transmission; they come in pairs (video_* from the degraded stream,
    still_* from the transmitted crop).
    """

    frame_index: int
    t_s: float
    track_id: int
    bbox: BBox
    cost_bits: float
    score: float
    u_term: float
    s_small_term: float
    n_term: float
    video_conf: Optional[float] = None
    still_conf: Optional[float] = None
    video_label: Optional[int] = None
    still_label: Optional[int] = None
    video_entropy: Optional[float] = None
    still_entropy: Optional[float] = None

    @property
    def has_semantics(self) -> bool:
        return self.still_conf is not None


class ClassEvent(NamedTuple):
    """Class label assumed downstream for a track starting at this frame."""

    frame_index: int
    t_s: float
    track_id: int
    label: int
    source: str  # CLASS_SOURCE_VIDEO or CLASS_SOURCE_STILL


@dataclass
class RunLog:
    """Everything one simulation run produced."""

    variant: str
    clock: FrameClock
    budget: BudgetConfig
    base_bitrate_bps: float
    raw_candidate_count: int = 0
    rejected_budget: int = 0
    rejected_threshold: int = 0
    processed_frame_indices: tuple[int, ...] = ()
    first_frame: Optional[int] = None
    last_frame: Optional[int] = None
    detection_conf_mean: float = 0.0
    duration_s: Optional[float] = None
    config_echo: dict[str, str] = field(default_factory=dict)
    transmissions: list[TransmissionRecord] = field(default_factory=list)
    class_events: list[ClassEvent] = field(default_factory=list)

    @property
    def processed_frames(self) -> int:
        return len(self.processed_frame_indices)


def _header_obj(log: RunLog) -> dict:
    return {
        "kind": RUNLOG_KIND,
        "version": RUNLOG_VERSION,
        "variant": log.variant,
        "fps": log.clock.fps,
        "frame_stride": log.clock.frame_stride,
        "b_total_bps": log.budget.b_total,
        "b_video_bps": log.budget.b_video,
        "b_roi_bps": log.budget.b_roi,
        "window_s": log.budget.window_s,
        "base_bitrate_bps": log.base_bitrate_bps,
        "raw_candidates": log.raw_candidate_count,
        "rejected_budget": log.rejected_budget,
        "rejected_threshold": log.rejected_threshold,
        "processed_frame_indices": list(log.processed_frame_indices),
        "first_frame": log.first_frame,
        "last_frame": log.last_frame,
        "detection_conf_mean": log.detection_conf_mean,
        "duration_s": log.duration_s,
        "config": dict(sorted(log.config_echo.items())),
    }


#: A tx record with its keys in sorted order, as ``json.dumps(...,
#: sort_keys=True)`` writes it: ``%r`` is json's spelling of a finite float
#: and of an int, and each ``%s`` is a semantic field (``_or_null``).
_TX_LINE = (
    '{"bbox": [%r, %r, %r, %r], "cost_bits": %r, "frame": %r, "kind": "tx", "n": %r, '
    '"s_small": %r, "score": %r, "still_conf": %s, "still_entropy": %s, '
    '"still_label": %s, "t_s": %r, "track": %r, "u": %r, "video_conf": %s, '
    '"video_entropy": %s, "video_label": %s}'
)

_CLASS_LINE = '{"frame": %r, "kind": "class", "label": %r, "source": %s, "t_s": %r, "track": %r}'


def _or_null(value) -> str:
    return "null" if value is None else repr(value)


def _tx_line(tx: TransmissionRecord) -> str:
    frame, t_s, track, b, cost, score, u, s_small, n, vc, sc, vl, sl, ve, se = tx
    return _TX_LINE % (
        b.x,
        b.y,
        b.w,
        b.h,
        cost,
        frame,
        n,
        s_small,
        score,
        _or_null(sc),
        _or_null(se),
        _or_null(sl),
        t_s,
        track,
        u,
        _or_null(vc),
        _or_null(ve),
        _or_null(vl),
    )


def _class_line(ev: ClassEvent) -> str:
    frame, t_s, track, label, source = ev
    return _CLASS_LINE % (frame, label, encode_basestring_ascii(source), t_s, track)


def to_jsonl_lines(log: RunLog) -> Iterator[str]:
    """An iterator over the log's lines, each formatted as it is read: the
    header, then its tx records, then its class events. Records must hold
    finite floats, as every run's do."""
    header = json.dumps(_header_obj(log), sort_keys=True)
    return chain((header,), map(_tx_line, log.transmissions), map(_class_line, log.class_events))


_INT = frozenset({int})
_NUM = frozenset({int, float})
_NULL = frozenset({type(None)})
_STR = frozenset({str})
_LIST = frozenset({list})
_OBJ = frozenset({dict})

#: A field's allowed JSON types (as decoded) -> how an error names them.
_WANTED = {
    _INT: "an integer",
    _NUM: "a number",
    _INT | _NULL: "an integer or null",
    _NUM | _NULL: "a number or null",
    _STR: "a string",
    _LIST: "a list",
    _OBJ: "an object",
}

_HEADER_FIELDS = {
    "variant": _STR,
    "fps": _NUM,
    "frame_stride": _INT,
    "b_total_bps": _NUM,
    "b_video_bps": _NUM,
    "b_roi_bps": _NUM,
    "window_s": _NUM,
    "base_bitrate_bps": _NUM,
    "raw_candidates": _INT,
    "rejected_budget": _INT,
    "rejected_threshold": _INT,
    "processed_frame_indices": _LIST,
    "first_frame": _INT | _NULL,
    "last_frame": _INT | _NULL,
    "detection_conf_mean": _NUM,
    "duration_s": _NUM | _NULL,
    "config": _OBJ,
}

#: In TransmissionRecord's field order; the last six are the semantic fields.
_TX_FIELDS = {
    "frame": _INT,
    "t_s": _NUM,
    "track": _INT,
    "bbox": _LIST,
    "cost_bits": _NUM,
    "score": _NUM,
    "u": _NUM,
    "s_small": _NUM,
    "n": _NUM,
    "video_conf": _NUM | _NULL,
    "still_conf": _NUM | _NULL,
    "video_label": _INT | _NULL,
    "still_label": _INT | _NULL,
    "video_entropy": _NUM | _NULL,
    "still_entropy": _NUM | _NULL,
}

#: In ClassEvent's field order.
_CLASS_FIELDS = {"frame": _INT, "t_s": _NUM, "track": _INT, "label": _INT, "source": _STR}


def _values(obj: dict, fields: dict, line_no: int) -> list:
    """``obj``'s values of ``fields``, in order, each of a JSON type its field
    allows; a field that allows null may be absent."""
    values = list(map(obj.get, fields))
    if all(map(frozenset.__contains__, fields.values(), map(type, values))):
        return values
    key, types = next(
        field for field, value in zip(fields.items(), values) if type(value) not in field[1]
    )
    if key not in obj:
        raise ParseError(line_no, f"missing field {key!r}")
    raise ParseError(line_no, f"field {key!r} must be {_WANTED[types]}, got {obj[key]!r}")


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


def _checked_int(literal: str) -> int:
    """``int`` for the JSON decoder, refusing a value ``float`` cannot hold."""
    value = int(literal)
    try:
        float(value)
    except OverflowError:
        raise ValueError(f"integer beyond the float range: {literal[:12]}...") from None
    return value


def _checked_float(literal: str) -> float:
    """``float`` for the JSON decoder, refusing a literal beyond the float
    range, which ``float`` would read as an infinity."""
    value = float(literal)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {literal}")
    return value


#: Decodes like json.loads, but refuses NaN, Infinity, and numbers beyond
#: the float range.
_DECODER = json.JSONDecoder(
    parse_constant=_reject_constant, parse_int=_checked_int, parse_float=_checked_float
)


def _decode(raw: str, line_no: int):
    try:
        return _DECODER.decode(raw)
    except (ValueError, RecursionError) as err:
        raise ParseError(line_no, f"bad JSON: {err}") from None


def _header(obj, line_no: int) -> RunLog:
    if not isinstance(obj, dict) or obj.get("kind") != RUNLOG_KIND:
        raise ParseError(line_no, "not a run log header")
    if obj.get("version") != RUNLOG_VERSION:
        raise ParseError(line_no, f"unsupported run log version: {obj.get('version')}")
    _values(obj, _HEADER_FIELDS, line_no)
    for key in ("raw_candidates", "rejected_threshold", "rejected_budget"):
        if obj[key] < 0:
            raise ParseError(line_no, f"{key} must be >= 0, got {obj[key]}")
    frames = obj["processed_frame_indices"]
    if not all(map(_INT.__contains__, map(type, frames))):
        raise ParseError(line_no, f"bad processed_frame_indices: {frames!r}")
    echo = obj["config"]
    if not all(type(value) is str for value in echo.values()):
        raise ParseError(line_no, f"bad config echo: {echo!r}")
    return RunLog(
        variant=obj["variant"],
        clock=FrameClock(fps=obj["fps"], frame_stride=obj["frame_stride"]),
        budget=BudgetConfig(
            b_total=obj["b_total_bps"],
            b_video=obj["b_video_bps"],
            b_roi=obj["b_roi_bps"],
            window_s=obj["window_s"],
        ),
        base_bitrate_bps=obj["base_bitrate_bps"],
        raw_candidate_count=obj["raw_candidates"],
        rejected_budget=obj["rejected_budget"],
        rejected_threshold=obj["rejected_threshold"],
        processed_frame_indices=tuple(frames),
        first_frame=obj.get("first_frame"),
        last_frame=obj.get("last_frame"),
        detection_conf_mean=obj["detection_conf_mean"],
        duration_s=obj.get("duration_s"),
        config_echo=dict(echo),
    )


def _overcounted(log: RunLog) -> Optional[str]:
    """Why the log accounts for more candidates than it saw, if it does:
    every candidate is sent or rejected at most once."""
    outcomes = len(log.transmissions) + log.rejected_threshold + log.rejected_budget
    if outcomes <= log.raw_candidate_count:
        return None
    return (
        f"transmissions + rejected_threshold + rejected_budget = {outcomes} "
        f"exceeds raw_candidates = {log.raw_candidate_count}"
    )


def _transmission(obj: dict, line_no: int) -> TransmissionRecord:
    values = _values(obj, _TX_FIELDS, line_no)
    bbox = values[3]
    if len(bbox) != 4 or not all(map(_NUM.__contains__, map(type, bbox))):
        raise ParseError(line_no, f"bad bbox: {bbox!r}")
    values[3] = BBox(*bbox)
    if values[9:].count(None) not in (0, 6):
        raise ParseError(line_no, "semantic fields must be all set or all null")
    return TransmissionRecord(*values)


def _class_event(obj: dict, line_no: int) -> ClassEvent:
    values = _values(obj, _CLASS_FIELDS, line_no)
    if values[4] not in (CLASS_SOURCE_VIDEO, CLASS_SOURCE_STILL):
        raise ParseError(line_no, f"bad class source: {values[4]!r}")
    return ClassEvent(*values)


def _line_records(text: str, first: int, log: Optional[RunLog], header_no: int) -> tuple:
    """The line reader over ``text``, whose first line is line ``first``: it
    decodes and checks one line at a time and skips lines of only
    whitespace. Without a ``log``, the first other line is the header. It
    gives the log with ``text``'s records added, and the header's line."""
    for line_no, raw in enumerate(text.splitlines(), start=first):
        if not raw.strip():
            continue
        try:
            obj = _decode(raw, line_no)
            if log is None:
                log, header_no = _header(obj, line_no), line_no
                continue
            if not isinstance(obj, dict):
                raise ParseError(line_no, f"expected a JSON object, got {obj!r}")
            kind = obj.get("kind")
            if kind == "tx":
                log.transmissions.append(_transmission(obj, line_no))
            elif kind == "class":
                log.class_events.append(_class_event(obj, line_no))
            else:
                raise ParseError(line_no, f"unknown record kind: {kind!r}")
        except (InvalidParam, ConfigError) as err:
            raise ParseError(line_no, str(err)) from None
    return log, header_no


def _checked(log: Optional[RunLog], header_no: int) -> RunLog:
    """``log``, read whole: there must be one, and it must not overcount."""
    if log is None:
        raise ParseError(1, "empty run log")
    problem = _overcounted(log)
    if problem:
        raise ParseError(header_no, problem)
    return log


def _read_lines(text: str) -> RunLog:
    """The line reader over a whole text: the reference for ``read_jsonl``."""
    return _checked(*_line_records(text, 1, None, 1))


#: Decodes with json's C number parsing: no per-number hooks, so integers
#: beyond the float range and literals such as 1e400 pass, and the block
#: check checks the numbers itself.
_PLAIN = json.JSONDecoder(parse_constant=_reject_constant)

_tx_values = itemgetter(*_TX_FIELDS)
_class_values = itemgetter(*_CLASS_FIELDS)

#: Quote characters of a record line with exactly its fields' keys and
#: "kind", and no string value but its kind (and a class event's source).
_TX_QUOTES = 2 * (len(_TX_FIELDS) + 1) + 2
_CLASS_QUOTES = 2 * (len(_CLASS_FIELDS) + 1) + 4


def _with_bbox(row: tuple, bbox: BBox) -> TransmissionRecord:
    """The record of a tx row, with its bbox list read as ``bbox``."""
    return TransmissionRecord._make(row[:3] + (bbox,) + row[4:])


def _typed(column, types: frozenset) -> bool:
    return set(map(type, column)) <= types


def _finite(numbers) -> bool:
    """Whether every number is finite; ``math.isfinite`` raises OverflowError
    on an integer beyond the float range."""
    return all(map(math.isfinite, numbers))


def _block_records(block: str, plain: bool) -> Optional[tuple[list, list]]:
    """The tx records and class events of a ``plain`` ``block``, whole
    lines each holding one record, or None where ``_read_lines`` might read
    them otherwise. Each line must hold only spaces and tabs or exactly one
    JSON value, from its first character to its last, so a value cut by a
    line end does not decode and no line holds two."""
    if not plain:
        return None
    records = []
    for line in block.split("\n"):
        if line.strip(" \t"):  # a line of only spaces and tabs is skipped
            record, end = _PLAIN.scan_once(line, 0)
            if end != len(line):
                return None
            records.append(record)
    txs = [r for r in records if r["kind"] == "tx"]
    events = [r for r in records if r["kind"] == "class"]
    tx_rows = list(map(_tx_values, txs))
    class_rows = list(map(_class_values, events))
    # Every line holds at least its quote count once its record has all its
    # fields and the types below, and a record of another kind holds at
    # least the two of "kind"; equal totals leave no room for such a
    # record, nor for another key, so neither a duplicate key nor an extra
    # one holds a value that went unchecked.
    if block.count('"') != _TX_QUOTES * len(txs) + _CLASS_QUOTES * len(events):
        return None
    transmissions, class_events = [], []
    if tx_rows:
        tx_cols = list(zip(*tx_rows))
        if not all(map(_typed, tx_cols, _TX_FIELDS.values())):
            return None
        bboxes = tx_cols[3]  # BBox refuses a list of another length
        corners = list(chain.from_iterable(bboxes))
        semantic = [row[9:] for row in tx_rows if row[9] is not None]
        if not (
            _typed(corners, _NUM)
            and {row[9:].count(None) for row in tx_rows} <= {0, 6}
            and _finite(chain(corners, *tx_cols[:3], *tx_cols[4:9], *semantic))
        ):
            return None
        transmissions = list(map(_with_bbox, tx_rows, starmap(BBox, bboxes)))
    if class_rows:
        class_cols = list(zip(*class_rows))
        if not (
            all(map(_typed, class_cols, _CLASS_FIELDS.values()))
            and set(class_cols[4]) <= {CLASS_SOURCE_VIDEO, CLASS_SOURCE_STILL}
            and _finite(chain(*class_cols[:4]))
        ):
            return None
        class_events = list(map(ClassEvent._make, class_rows))
    return transmissions, class_events


def _read_blocks(blocks: Iterable[tuple[int, str, bool]]) -> RunLog:
    """The log of the numbered blocks ``line_blocks`` gives. The line reader
    reads up to the header, the first line of more than whitespace; then a
    block goes to ``_block_records``, and alone to the line reader where that
    gives None or fails. So only one block's text and dicts are held. The
    rest of the header's block counts as plain only if all of it is."""
    log, header_no = None, 1
    for line_no, block, plain in blocks:
        if log is None:
            cut = block.find("\n", len(block) - len(block.lstrip())) + 1 or len(block)
            log, header_no = _line_records(block[:cut], line_no, log, header_no)
            line_no, block = line_no + len(block[:cut].splitlines()), block[cut:]
        try:
            records = None if log is None else _block_records(block, plain)
        except Exception:  # any failure leaves the verdict, and the error, to the line reader
            records = None
        if records is None:
            log, header_no = _line_records(block, line_no, log, header_no)
        else:
            log.transmissions += records[0]
            log.class_events += records[1]
    return _checked(log, header_no)


def read_jsonl(source: Union[str, TextIO]) -> RunLog:
    """Parse a run log of to_jsonl_lines' lines, from a ``str`` of text or
    from an open text file, read from where it stands. Raises ParseError,
    with the line's number, on any damage: bad JSON (NaN, Infinity and
    numbers beyond the float range included), a record that is not an
    object, a missing field or one of the wrong JSON type, a value that a
    domain type refuses, or a header whose counts are negative or account
    for more candidates than it saw. Lines are numbered as in the file;
    blank lines are skipped but counted."""
    return _read_blocks(line_blocks(text_file(source)))
