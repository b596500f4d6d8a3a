"""Run log records and their JSONL serialization.

A run log is one header object followed by one JSON object per line, each
tagged with a "kind" field ("tx" for ROI transmissions, "class" for class
timeline events). Serialization is deterministic: keys are sorted and floats
use the shortest round-trip form, so identical runs produce identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional, TextIO

from .domain import BBox, BudgetConfig, FrameClock
from .errors import ConfigError, InvalidParam, ParseError

RUNLOG_KIND = "roitel-runlog"
RUNLOG_VERSION = 1

CLASS_SOURCE_VIDEO = "video"
CLASS_SOURCE_STILL = "still"


@dataclass(frozen=True)
class TransmissionRecord:
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


@dataclass(frozen=True)
class ClassEvent:
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

    @property
    def total_roi_bits(self) -> float:
        return sum(tx.cost_bits for tx in self.transmissions)


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


def _tx_obj(tx: TransmissionRecord) -> dict:
    return {
        "kind": "tx",
        "frame": tx.frame_index,
        "t_s": tx.t_s,
        "track": tx.track_id,
        "bbox": [tx.bbox.x, tx.bbox.y, tx.bbox.w, tx.bbox.h],
        "cost_bits": tx.cost_bits,
        "score": tx.score,
        "u": tx.u_term,
        "s_small": tx.s_small_term,
        "n": tx.n_term,
        "video_conf": tx.video_conf,
        "still_conf": tx.still_conf,
        "video_label": tx.video_label,
        "still_label": tx.still_label,
        "video_entropy": tx.video_entropy,
        "still_entropy": tx.still_entropy,
    }


def _class_obj(ev: ClassEvent) -> dict:
    return {
        "kind": "class",
        "frame": ev.frame_index,
        "t_s": ev.t_s,
        "track": ev.track_id,
        "label": ev.label,
        "source": ev.source,
    }


def to_jsonl_lines(log: RunLog) -> Iterable[str]:
    yield json.dumps(_header_obj(log), sort_keys=True)
    for tx in log.transmissions:
        yield json.dumps(_tx_obj(tx), sort_keys=True)
    for ev in log.class_events:
        yield json.dumps(_class_obj(ev), sort_keys=True)


def write_jsonl(log: RunLog, fp: TextIO) -> None:
    for line in to_jsonl_lines(log):
        fp.write(line)
        fp.write("\n")


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


#: Decodes like json.loads, but refuses NaN, Infinity and integers beyond
#: the float range.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant, parse_int=_checked_int)


def _decode(raw: str, line_no: int):
    try:
        return _DECODER.decode(raw)
    except ValueError as err:
        raise ParseError(line_no, f"bad JSON: {err}") from None


def _header(obj, line_no: int) -> RunLog:
    if not isinstance(obj, dict) or obj.get("kind") != RUNLOG_KIND:
        raise ParseError(line_no, "not a run log header")
    if obj.get("version") != RUNLOG_VERSION:
        raise ParseError(line_no, f"unsupported run log version: {obj.get('version')}")
    _values(obj, _HEADER_FIELDS, line_no)
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


def read_jsonl(text: str) -> RunLog:
    """Parse a run log written by write_jsonl. Raises ParseError, with the
    line's number, on any damage: bad JSON (NaN, Infinity and integers
    beyond the float range included), a record that is not an object, a
    missing field or one of the wrong JSON type, or a value that a domain
    type refuses. Lines are numbered as in the file; blank lines are
    skipped but counted."""
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise ParseError(1, "empty run log")
    line_no = lines[0][0]
    try:
        log = _header(_decode(lines[0][1], line_no), line_no)
        for line_no, raw in lines[1:]:
            obj = _decode(raw, line_no)
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
    return log
