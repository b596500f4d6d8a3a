"""Run log records and their JSONL serialization.

A run log is one header object followed by one JSON object per line, each
tagged with a "kind" field ("tx" for ROI transmissions, "class" for class
timeline events). Serialization is deterministic: keys are sorted and floats
use the shortest round-trip form, so identical runs produce identical bytes.
The header is written by ``json.dumps``; the records by ``%`` templates that
give the same bytes. Each record kind has one table, ``_TX_FIELDS`` or
``_CLASS_FIELDS``: its keys, in the record's field order, with their JSON
types. Its template, the writer's argument order, the block reader's
pattern and column order, and the line reader's checks derive from it.

A log moves between the engine, the writer, the reader and the metrics as
*parts*: its header's ``RunLog``, without records, then for each block of
records its tx records as columns, in ``TransmissionRecord``'s field order,
the box column holding each box's x, y, w and h, and its class events as
columns, in ``ClassEvent``'s. ``tx_lines`` and ``class_lines`` format a
block's columns, and ``collect`` builds a ``RunLog`` of parts. So a run that
is written and folded as it is scheduled builds no record object;
``to_jsonl_lines`` writes a library ``RunLog`` through the same formatters.

``iter_jsonl`` reads a ``str`` or an open text file once, in blocks of
whole lines, through the text layer the parsers share (``_text``; a ``str``
with universal newlines), and gives each block's records as parts as it
reads them: ``read_jsonl`` collects them into a ``RunLog``, and
``metrics.fold_jsonl`` folds them into a report and keeps none. A block
after the header is taken when each of its lines is one the writer's tx or
class template writes, or holds only spaces and tabs, and its numbers pass
a check by value; any other block goes alone to the line reader, with its
lines numbered as in the whole text. So the records and every error are
the line reader's on the whole text.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from itertools import chain, repeat, starmap
from json.encoder import encode_basestring_ascii
from operator import attrgetter, itemgetter, lt
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, TextIO, Union

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
    header = dict(zip(_HEADER_FIELDS, _header_values(log)))
    return {"kind": RUNLOG_KIND, "version": RUNLOG_VERSION, **header}


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

#: Each header key -> the ``RunLog`` attribute that holds its value, and
#: the value's JSON types; in ``RunLog``'s field order. The writer and the
#: reader both walk it, so a header field is one entry here plus its field.
_HEADER_FIELDS = {
    "variant": ("variant", _STR),
    "fps": ("clock.fps", _NUM),
    "frame_stride": ("clock.frame_stride", _INT),
    "b_total_bps": ("budget.b_total", _NUM),
    "b_video_bps": ("budget.b_video", _NUM),
    "b_roi_bps": ("budget.b_roi", _NUM),
    "window_s": ("budget.window_s", _NUM),
    "base_bitrate_bps": ("base_bitrate_bps", _NUM),
    "raw_candidates": ("raw_candidate_count", _INT),
    "rejected_budget": ("rejected_budget", _INT),
    "rejected_threshold": ("rejected_threshold", _INT),
    "processed_frame_indices": ("processed_frame_indices", _LIST),
    "first_frame": ("first_frame", _INT | _NULL),
    "last_frame": ("last_frame", _INT | _NULL),
    "detection_conf_mean": ("detection_conf_mean", _NUM),
    "duration_s": ("duration_s", _NUM | _NULL),
    "config": ("config_echo", _OBJ),
}
_header_values = attrgetter(*(path for path, _ in _HEADER_FIELDS.values()))
_HEADER_TYPES = {key: types for key, (_, types) in _HEADER_FIELDS.items()}

#: One table per record kind: each key of its line -> the key's JSON types,
#: in the record's field order. The templates, the writer's argument order,
#: the patterns and the block reader's column order all derive from these.
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

_CLASS_FIELDS = {"frame": _INT, "t_s": _NUM, "track": _INT, "label": _INT, "source": _STR}

#: The semantic fields, the tx fields that may be null, by their record
#: field names: the record's last, as each defaults to None.
_SEMANTIC_FIELDS = {
    name: types
    for name, types in zip(TransmissionRecord._fields, _TX_FIELDS.values())
    if _NULL <= types
}
_SEMANTIC = slice(len(_TX_FIELDS) - len(_SEMANTIC_FIELDS), None)
_NO_SEMANTICS = (None,) * len(_SEMANTIC_FIELDS)

#: JSON's integer and number literals.
_JSON_INT = "-?(?:0|[1-9][0-9]*)"
_JSON_NUMBER = _JSON_INT + r"(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?"

#: A record field's JSON types -> its slot in the record's template, and the
#: pattern of each literal the slot writes, captured. A field that may be
#: null is a ``%s``, which writes an int or a float as ``%r`` does, and None
#: as ``None``, which the writer spells null. A list is a box's four numbers
#: and a string is a class event's source: a record has no other list or
#: string.
_SLOTS = {
    _INT: ("%r", [f"({_JSON_INT})"]),
    _NUM: ("%r", [f"({_JSON_NUMBER})"]),
    _INT | _NULL: ("%s", [f"(null|{_JSON_INT})"]),
    _NUM | _NULL: ("%s", [f"(null|{_JSON_NUMBER})"]),
    _LIST: ("[%r, %r, %r, %r]", [f"({_JSON_NUMBER})"] * 4),
    _STR: ("%s", [f'"({CLASS_SOURCE_VIDEO}|{CLASS_SOURCE_STILL})"']),
}


def _template(kind: str, fields: dict) -> str:
    """The ``%`` template of a record's line, with its keys sorted, as
    ``json.dumps(..., sort_keys=True)`` writes it."""
    slots = {key: _SLOTS[types][0] for key, types in fields.items()}
    slots["kind"] = f'"{kind}"'
    return "{%s}" % ", ".join(f'"{key}": {slots[key]}' for key in sorted(slots))


def _line_pattern(kind: str, fields: dict) -> re.Pattern:
    """The whole lines the record template formats, each after the ``\\n``
    that ends the line before it, with each literal captured by its field's
    pattern, in the template's order."""
    literals = map(re.escape, re.split("%[rs]", _template(kind, fields)))
    captures = [pattern for key in sorted(fields) for pattern in _SLOTS[fields[key]][1]]
    return re.compile("\n%s(?![^\n])" % "".join(chain(*zip(literals, (*captures, "")))))


_TX_LINE = _template("tx", _TX_FIELDS)
_TX_BARE = _TX_LINE.replace("%s", "null")  # a record without semantics
#: Each field's position in the template, whose keys are sorted; then the
#: fields after the box, which sorts first, in the template's order, and
#: those of them that a record without semantics has.
_TX_RANK = [sorted(_TX_FIELDS).index(key) for key in _TX_FIELDS]
_TX_ORDER = sorted(range(len(_TX_FIELDS)), key=_TX_RANK.__getitem__)[1:]
_TX_ARGS = itemgetter(*_TX_ORDER)
_TX_BARE_ARGS = itemgetter(*(i for i in _TX_ORDER if i < _SEMANTIC.start))
_TX_PATTERN = _line_pattern("tx", _TX_FIELDS)

#: A class event's line is its head, its label, its middle and its track,
#: then ``}``: the template cut at the two fields that are each event's own.
_CLASS_HEAD, _CLASS_MIDDLE, _ = re.split(
    '(?<="label": )%r|(?<="track": )%r', _template("class", _CLASS_FIELDS)
)
_CLASS_RANK = [sorted(_CLASS_FIELDS).index(key) for key in _CLASS_FIELDS]
_CLASS_PATTERN = _line_pattern("class", _CLASS_FIELDS)
_UNSET = object()


#: A tx record's box field, and a ``BBox``'s numbers in the line's order.
_BOX = TransmissionRecord._fields.index("bbox")
_XYWH = attrgetter("x", "y", "w", "h")


def tx_lines(cols: Sequence[Sequence]) -> Iterator[str]:
    """The line of each tx record of a block of parts' columns, in
    ``TransmissionRecord``'s field order, whose box column holds each box's
    x, y, w and h. A block with no semantic field set is written with the
    bare template; in any other block, a None that a ``%s`` writes is
    spelled null. Columns must be sequences and hold finite floats."""
    if not cols[0]:
        return iter(())
    x, y, w, h = zip(*cols[_BOX])
    semantic = cols[_SEMANTIC]
    nulls = sum(col.count(None) for col in semantic)
    if nulls == len(semantic) * len(cols[0]):
        return map(_TX_BARE.__mod__, zip(x, y, w, h, *_TX_BARE_ARGS(cols)))
    lines = map(_TX_LINE.__mod__, zip(x, y, w, h, *_TX_ARGS(cols)))
    return map(str.replace, lines, repeat("None"), repeat("null")) if nulls else lines


def class_lines(cols: Sequence[Sequence]) -> Iterator[str]:
    """The line of each class event of a block of parts' columns, in
    ``ClassEvent``'s field order. The head and middle are formatted once for
    each run of events whose frame and ``t_s`` are the same objects and
    whose sources are equal, so each value still writes its own repr."""
    frame = t_s = source = _UNSET
    for ev_frame, ev_t_s, track, label, ev_source in zip(*cols):
        if ev_frame is not frame or ev_t_s is not t_s or ev_source != source:
            frame, t_s, source = ev_frame, ev_t_s, ev_source
            head = _CLASS_HEAD % (frame,)
            middle = _CLASS_MIDDLE % (encode_basestring_ascii(source), t_s)
        yield f"{head}{label!r}{middle}{track!r}}}"


def header_line(log: RunLog) -> str:
    """The log's header line, its counts as they stand."""
    return json.dumps(_header_obj(log), sort_keys=True)


def record_columns(records: Sequence[tuple], size: int) -> Iterator[list]:
    """Named-tuple records as columns, in their field order, ``size``
    records at a time."""
    for start in range(0, len(records), size):
        yield list(zip(*records[start : start + size]))


#: Records a library log's writer formats at a time: the columns of a
#: whole log would raise a peak with its log.
_CHUNK = 1024


def _record_lines(log: RunLog) -> Iterator[str]:
    for cols in record_columns(log.transmissions, _CHUNK):
        cols[_BOX] = list(map(_XYWH, cols[_BOX]))
        yield from tx_lines(cols)
    for cols in record_columns(log.class_events, _CHUNK):
        yield from class_lines(cols)


def to_jsonl_lines(log: RunLog) -> Iterator[str]:
    """An iterator over the log's lines, each formatted as it is read: the
    header, then its tx records, then its class events, each kind a chunk
    of columns at a time through ``tx_lines`` and ``class_lines``, the
    formatters a run's parts are written with. Records must hold finite
    floats, as every run's do."""
    return chain((header_line(log),), _record_lines(log))


def collect(parts: Iterator) -> RunLog:
    """The ``RunLog`` of a log's parts, as ``iter_jsonl`` or the engine gives
    them: the header, with each block's records appended, their boxes built,
    as it comes. It is returned once the last part is taken, so the header's
    counts are final."""
    log = next(parts)
    for tx_cols, class_cols in parts:
        boxes = starmap(BBox, tx_cols[_BOX])
        log.transmissions += map(TransmissionRecord, *tx_cols[:_BOX], boxes, *tx_cols[_BOX + 1 :])
        log.class_events += map(ClassEvent, *class_cols)
    return log


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
    values = _values(obj, _HEADER_TYPES, line_no)
    for key in ("raw_candidates", "rejected_threshold", "rejected_budget"):
        if obj[key] < 0:
            raise ParseError(line_no, f"{key} must be >= 0, got {obj[key]}")
    frames = obj["processed_frame_indices"]
    if not all(map(_INT.__contains__, map(type, frames))):
        raise ParseError(line_no, f"bad processed_frame_indices: {frames!r}")
    if not all(map(lt, frames, frames[1:])):  # a duration is read from the first and last
        i = next(i for i in range(1, len(frames)) if not frames[i - 1] < frames[i])
        raise ParseError(
            line_no,
            f"bad processed_frame_indices: entry {i}, {frames[i]}, does not exceed "
            f"the entry before it, {frames[i - 1]}",
        )
    echo = obj["config"]  # no key or value may break a report's line
    texts = [*echo, *echo.values()]
    if not all(type(text) is str and "".join(text.splitlines()) == text for text in texts):
        raise ParseError(line_no, f"bad config echo: {echo!r}")
    owners = {"": {}, "clock": {}, "budget": {}}  # RunLog itself, then its parts
    for (path, _), value in zip(_HEADER_FIELDS.values(), values):
        owner, _, name = path.rpartition(".")
        owners[owner][name] = value
    owners[""]["processed_frame_indices"] = tuple(frames)
    return RunLog(
        clock=FrameClock(**owners["clock"]), budget=BudgetConfig(**owners["budget"]), **owners[""]
    )


def _transmission(obj: dict, line_no: int) -> TransmissionRecord:
    tx = TransmissionRecord._make(_values(obj, _TX_FIELDS, line_no))
    if len(tx.bbox) != 4 or not all(map(_NUM.__contains__, map(type, tx.bbox))):
        raise ParseError(line_no, f"bad bbox: {tx.bbox!r}")
    bbox = BBox(*tx.bbox)
    if tx[_SEMANTIC].count(None) not in (0, len(_NO_SEMANTICS)):
        raise ParseError(line_no, "semantic fields must be all set or all null")
    return tx._replace(bbox=bbox)


def _class_event(obj: dict, line_no: int) -> ClassEvent:
    ev = ClassEvent._make(_values(obj, _CLASS_FIELDS, line_no))
    if ev.source not in (CLASS_SOURCE_VIDEO, CLASS_SOURCE_STILL):
        raise ParseError(line_no, f"bad class source: {ev.source!r}")
    return ev


def _line_records(text: str, first: int, log: Optional[RunLog], header_no: int) -> tuple:
    """The line reader over ``text``, whose first line is line ``first``: it
    decodes and checks one line at a time and skips lines of only
    whitespace. Without a ``log``, the first other line is the header. It
    gives the header and its line, and ``text``'s tx records and class
    events."""
    transmissions, class_events = [], []
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
                transmissions.append(_transmission(obj, line_no))
            elif kind == "class":
                class_events.append(_class_event(obj, line_no))
            else:
                raise ParseError(line_no, f"unknown record kind: {kind!r}")
        except (InvalidParam, ConfigError) as err:
            raise ParseError(line_no, str(err)) from None
    return log, header_no, transmissions, class_events


def _checked(log: Optional[RunLog], header_no: int, sent: int) -> RunLog:
    """``log``, read whole with ``sent`` tx records: there must be one, and
    it must not account for more candidates than it saw, as every candidate
    is sent or rejected at most once."""
    if log is None:
        raise ParseError(1, "empty run log")
    outcomes = sent + log.rejected_threshold + log.rejected_budget
    if outcomes > log.raw_candidate_count:
        raise ParseError(
            header_no,
            f"transmissions + rejected_threshold + rejected_budget = {outcomes} "
            f"exceeds raw_candidates = {log.raw_candidate_count}",
        )
    return log


def _read_lines(text: str) -> RunLog:
    """The line reader over a whole text: the reference for ``read_jsonl``."""
    log, header_no, transmissions, class_events = _line_records(text, 1, None, 1)
    log = _checked(log, header_no, len(transmissions))
    log.transmissions, log.class_events = transmissions, class_events
    return log


#: Decodes with json's C number parsing: no per-number hooks, so integers
#: beyond the float range and literals such as 1e400 pass, and the block
#: check checks the numbers itself.
_PLAIN = json.JSONDecoder(parse_constant=_reject_constant)


def _captures(pattern: re.Pattern, text: str) -> tuple[str, list[list[str]]]:
    """``text`` without the lines ``pattern`` matches, and for each of its
    groups what it captured on those lines, in order."""
    parts = pattern.split(text)
    step = pattern.groups + 1
    return "".join(parts[::step]), [parts[i::step] for i in range(1, step)]


def _number(literal: str):
    """The value json reads from a JSON number literal."""
    return int(literal) if literal.lstrip("-").isdigit() else float(literal)


def _finite(numbers) -> bool:
    """Whether every number is finite; ``math.isfinite`` raises OverflowError
    on an integer beyond the float range."""
    return all(map(math.isfinite, numbers))


def _line_parts(transmissions: list, class_events: list) -> tuple[list, list]:
    """The line reader's records as a block's parts."""
    tx_cols = list(zip(*transmissions)) or [()] * len(_TX_FIELDS)
    tx_cols[_BOX] = list(map(_XYWH, tx_cols[_BOX]))
    return tx_cols, list(zip(*class_events)) or [()] * len(_CLASS_FIELDS)


def _block_records(block: str, plain: bool) -> Optional[tuple[list, list]]:
    """The tx columns and the class columns of a ``plain`` ``block`` of whole
    lines, or None where ``_read_lines`` might read them otherwise. Each
    line must be one the writer's templates write, as ``_TX_PATTERN`` or
    ``_CLASS_PATTERN`` matches it, or hold only spaces and tabs, which the
    line reader skips. So each literal is JSON of its field's types, and
    only the numbers' values are left to check. The box column and the
    class columns that hold numbers are iterators, which read their values
    as they are read; no record object is built."""
    if not plain:
        return None
    rest, class_literals = _captures(_CLASS_PATTERN, "\n" + block)
    rest, tx_literals = _captures(_TX_PATTERN, rest)
    if rest.strip(" \t\n"):
        return None
    # the patterns have matched each literal to JSON's grammar, so one
    # decode of them all reads each as the line reader does
    values = _PLAIN.decode("[%s]" % ",".join(chain.from_iterable(tx_literals)))
    n = len(tx_literals[0])
    x, y, w, h, *later = (values[i * n : i * n + n] for i in range(len(tx_literals)))
    in_template_order = [zip(x, y, w, h), *later]
    tx_cols = [in_template_order[i] for i in _TX_RANK]
    if not (
        _finite(filter(None, values))  # nulls and zeros go, and zeros are finite
        and {row.count(None) for row in zip(*tx_cols[_SEMANTIC])} <= {0, len(_NO_SEMANTICS)}
        and min(chain(w, h), default=1) > 0  # BBox's own check
    ):
        return None
    # in ClassEvent's order, each number field with its reader; None: the source
    literals = [class_literals[i] for i in _CLASS_RANK]
    reads = [{_INT: int, _NUM: _number}.get(types) for types in _CLASS_FIELDS.values()]
    # float reads an integer literal beyond the float range as an infinity
    numbers = chain.from_iterable(col for col, read in zip(literals, reads) if read)
    if not _finite(map(float, set(numbers))):
        return None
    return tx_cols, [map(read, col) if read else col for col, read in zip(literals, reads)]


def _read_blocks(blocks: Iterable[tuple[int, str, bool]]) -> Iterator:
    """``iter_jsonl`` over the numbered blocks ``line_blocks`` gives: the
    header's ``RunLog``, without records, then, block by block, its parts'
    tx and class columns. The line reader reads up to
    the header, the first line of more than whitespace; then a block
    goes to ``_block_records``, and alone to the line reader where that
    gives None or fails. So only one block's text and values are held.
    The rest of the header's block counts as plain only if all of it is.
    At the end, the header's counts are checked against the tx records
    read."""
    log, header_no, sent = None, 1, 0
    for line_no, block, plain in blocks:
        if log is None:
            cut = block.find("\n", len(block) - len(block.lstrip())) + 1 or len(block)
            log, header_no, transmissions, class_events = _line_records(
                block[:cut], line_no, log, header_no
            )
            if log is None:  # the block is all whitespace
                continue
            yield log
            if transmissions or class_events:  # str.splitlines broke the header's line
                sent += len(transmissions)
                yield _line_parts(transmissions, class_events)
            line_no, block = line_no + len(block[:cut].splitlines()), block[cut:]
        try:
            records = _block_records(block, plain)
        except Exception:  # any failure leaves the verdict, and the error, to the line reader
            records = None
        if records is None:
            _, _, transmissions, class_events = _line_records(block, line_no, log, header_no)
            records = _line_parts(transmissions, class_events)
        sent += len(records[0][0])
        yield records
    _checked(log, header_no, sent)


def iter_jsonl(source: Union[str, TextIO]) -> Iterator:
    """The run log ``source`` holds, as ``read_jsonl`` reads it, given as it
    is read, as parts (see the module's docstring): the header's
    ``RunLog``, without records, then for each block of lines its tx
    columns and class columns. The box column and the class columns may be
    iterators, which read their values as they are read; the other tx
    columns are sequences. It raises ``read_jsonl``'s ParseError once it
    reads the damage; a header that overcounts, after the last block."""
    return _read_blocks(line_blocks(text_file(source)))


def read_jsonl(source: Union[str, TextIO]) -> RunLog:
    """Parse a run log of to_jsonl_lines' lines, from a ``str`` of text or
    from an open text file, read from where it stands. Raises ParseError,
    with the line's number, on any damage: bad JSON (NaN, Infinity and
    numbers beyond the float range included), a record that is not an
    object, a missing field or one of the wrong JSON type, a value that a
    domain type refuses, or a header whose counts are negative or account
    for more candidates than it saw, or whose processed frames do not
    increase. Lines are numbered as in the file; blank lines are skipped but
    counted."""
    return collect(iter_jsonl(source))
