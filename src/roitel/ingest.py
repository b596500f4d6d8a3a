"""Detection stream ingestion.

Supported inputs:
  * generic detections CSV: frame,track_hint,x,y,w,h,conf,class (0-based
    frames, track_hint -1 for "none")
  * UAVDT-style ground truth: frame,target_id,x,y,w,h,out_of_view,
    occlusion,category (1-based frames, confidence fixed at 1.0)
  * VisDrone-MOT-style: frame,target_id,x,y,w,h,score,category,truncation,
    occlusion (1-based frames, confidence = score clamped to [0,1])

The semantic sidecar is read by ``semantic``, with this module's checks.

The benchmark layouts follow the common public distributions. Comment
lines start with '#', blank lines are skipped, LF and CRLF both work, and
frame indices are normalized to 0-based internally. Every numeric field
must be finite, and frame indices and class ids must fit in int64. A
stream's clock is the file's ``# clock: fps=F stride=N`` comment, or
``FrameClock()`` when it has none.

Every parser takes a ``str`` of text, read with universal newlines, or an
open text file, and reads it once, in blocks of whole lines, through the
text layer the run-log reader shares (``_text``). Each block is read into
NumPy columns with one ``np.loadtxt``, and a block with anything the row
parser would reject, or might read differently, goes alone to the row
parser, with its lines numbered as in the whole text; so a stream, its
errors and ``errors_out`` are the row parser's on the whole text.
"""

from __future__ import annotations

import io
import math
import random
import re
from bisect import bisect_left
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field, replace
from itertools import accumulate, chain, repeat
from typing import Iterable, NamedTuple, Optional, Sequence, TextIO, Union

import numpy as np

from ._text import line_blocks, text_file
from .domain import INT64_MAX, INT64_MIN, BBox, Detection, FrameClock
from .errors import InvalidParam, ParseError

GENERIC_COLUMNS = ("frame", "track_hint", "x", "y", "w", "h", "conf", "class")

_CLOCK_COMMENT = re.compile(r"#\s*clock:")
_CLOCK_VALUES = re.compile(r"\s*fps=([0-9.eE+-]+)\s+stride=(\d+)\s*")


@dataclass(frozen=True, eq=False)
class DetectionStream:
    """Ordered per-frame detections plus the source clock.

    ``frame_indices`` are the frames that have an entry, strictly
    increasing; an entry may hold no detections. Every stream keeps its
    detections in one ``FrameDetections`` table, row for row in stream
    order: entry ``i`` holds rows ``_offsets[i]:_offsets[i + 1]``. It hands
    a frame to the tracker as that slice of the table (``block_at``) and
    builds a frame's ``Detection`` objects each time they are asked for.
    Streams are equal when their clocks and ``frames`` are.
    """

    clock: FrameClock
    frame_indices: tuple[int, ...]
    _offsets: Sequence[int] = field(repr=False)
    _rows: "FrameDetections" = field(repr=False)

    @staticmethod
    def from_frames(
        clock: FrameClock, frames: Iterable[tuple[int, Sequence[Detection]]]
    ) -> "DetectionStream":
        """A stream of the given entries; frame indices and class ids must
        be ``int`` values that fit in int64, and frame indices >= 0, as the
        engine keeps them in int64 columns and writes them to the run log as
        integers. Boxes must keep their edges and twice their area within the
        float range, as the parsers require."""
        indices = []
        offsets = [0]

        def checked():
            prev = None
            for frame_index, dets in frames:
                if type(frame_index) is not int:
                    raise InvalidParam(f"frame index must be an int, got {frame_index!r}")
                if prev is not None and frame_index <= prev:
                    raise InvalidParam(f"frame indices must strictly increase at {frame_index}")
                if frame_index < 0:
                    raise InvalidParam(f"frame_index must be >= 0, got {frame_index}")
                if frame_index > INT64_MAX:
                    raise InvalidParam(f"frame index outside int64: {frame_index}")
                prev = frame_index
                indices.append(frame_index)
                offsets.append(offsets[-1])
                for det in dets:
                    if det.frame_index != frame_index:
                        raise InvalidParam(
                            f"detection frame {det.frame_index} does not match entry {frame_index}"
                        )
                    offsets[-1] += 1
                    yield det

        rows = FrameDetections.from_detections(None, checked())
        return DetectionStream(clock, tuple(indices), offsets, rows)

    @property
    def n_detections(self) -> int:
        return len(self._rows)

    @property
    def frames(self) -> tuple[tuple[int, tuple[Detection, ...]], ...]:
        """Every ``(frame_index, detections)`` entry, with every
        ``Detection`` built anew; ``detections_at`` builds one frame's."""
        return tuple((f, self.detections_at(f)) for f in self.frame_indices)

    def detections_at(self, frame_index: int) -> tuple[Detection, ...]:
        """The detections of one frame; empty when it has no entry."""
        return self.block_at(frame_index).detections()

    def block_at(self, frame_index: int) -> "FrameDetections":
        """The detections of one frame as a slice of the stream's columns;
        empty when it has no entry."""
        i = bisect_left(self.frame_indices, frame_index)
        if i < len(self.frame_indices) and self.frame_indices[i] == frame_index:
            return self._rows.slice(frame_index, self._offsets[i], self._offsets[i + 1])
        return self._rows.slice(frame_index, 0, 0)

    @property
    def first_frame(self) -> Optional[int]:
        return self.frame_indices[0] if self.frame_indices else None

    @property
    def last_frame(self) -> Optional[int]:
        return self.frame_indices[-1] if self.frame_indices else None

    def __eq__(self, other):
        if not isinstance(other, DetectionStream):
            return NotImplemented
        return self.clock == other.clock and self.frames == other.frames


class _BoxRows(SequenceABC):
    """Row ``i``'s ``BBox`` of an (N, 4) box array, built each time it is
    asked for and not kept. A slice is the rows of a slice of the array."""

    def __init__(self, boxes: np.ndarray):
        self._boxes = boxes

    def __len__(self) -> int:
        return len(self._boxes)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _BoxRows(self._boxes[i])
        return BBox(*self._boxes[i].tolist())

    def __iter__(self):
        return (BBox(*box) for box in self._boxes.tolist())


def box_values(bboxes: Sequence[BBox], rows: np.ndarray) -> list:
    """The ``[x, y, w, h]`` of each of ``rows``' boxes, with the number types
    ``bboxes`` gives: a parsed stream's floats, gathered from its array
    with no ``BBox`` built, or a given box's own numbers."""
    if isinstance(bboxes, _BoxRows):
        return bboxes._boxes[rows].tolist()
    return [[b.x, b.y, b.w, b.h] for b in map(bboxes.__getitem__, rows.tolist())]


def _int_column(values: list[int]) -> np.ndarray:
    """int64, or object when a value is beyond int64, as a hint may be."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


@dataclass(frozen=True, eq=False)
class FrameDetections:
    """Detections as columns, row for row in stream order: one frame's, the
    form the tracker and the association pass read, or a whole stream's
    (``frame_index`` None), which a frame's block is a slice of. ``BBox``
    objects are kept in ``bboxes`` when the rows were packed from them;
    otherwise they, like ``Detection`` objects, are built each time they
    are asked for."""

    frame_index: Optional[int]
    boxes: np.ndarray  # (N, 4) float64: x, y, w, h
    hint: np.ndarray  # int64 (object beyond int64); read where has_hint
    has_hint: np.ndarray  # bool
    conf: np.ndarray  # float64
    cls: np.ndarray  # int64
    bboxes: Sequence[BBox]

    @staticmethod
    def from_detections(
        frame_index: Optional[int], dets: Iterable[Detection]
    ) -> "FrameDetections":
        """The rows of ``dets``, which keep their ``BBox`` objects. A class
        id must be an ``int`` that fits in int64, and a box must keep its
        edges and twice its area within the float range, as the parsers
        require; the first detection that breaks a rule raises
        ``InvalidParam``."""
        checked = []
        for det in dets:
            if type(det.class_id) is not int:
                raise InvalidParam(f"class_id must be an int, got {det.class_id!r}")
            if not INT64_MIN <= det.class_id <= INT64_MAX:
                raise InvalidParam(f"class_id outside int64: {det.class_id}")
            b = det.bbox
            problem = _box_range_problem(b.x, b.y, b.w, b.h)
            if problem:
                raise InvalidParam(problem)
            checked.append(det)
        bboxes = tuple(d.bbox for d in checked)
        hints = [d.track_hint for d in checked]
        return FrameDetections(
            frame_index,
            np.array([(b.x, b.y, b.w, b.h) for b in bboxes], dtype=np.float64).reshape(-1, 4),
            _int_column([-1 if h is None else h for h in hints]),
            np.array([h is not None for h in hints], dtype=bool),
            np.array([d.confidence for d in checked], dtype=np.float64),
            np.array([d.class_id for d in checked], dtype=np.int64),
            bboxes,
        )

    def __len__(self) -> int:
        return len(self.boxes)

    def slice(self, frame_index: int, lo: int, hi: int) -> "FrameDetections":
        """Rows ``lo:hi``, as the block of frame ``frame_index``."""
        return FrameDetections(
            frame_index,
            self.boxes[lo:hi],
            self.hint[lo:hi],
            self.has_hint[lo:hi],
            self.conf[lo:hi],
            self.cls[lo:hi],
            self.bboxes[lo:hi],
        )

    def detections(self) -> tuple[Detection, ...]:
        """Every row's ``Detection``, built in one pass over the columns."""
        cols = (self.hint.tolist(), self.has_hint.tolist(), self.conf.tolist(), self.cls.tolist())
        return tuple(
            Detection(self.frame_index, bbox, conf, cls, hint if has else None)
            for bbox, hint, has, conf, cls in zip(self.bboxes, *cols)
        )


def _clock_comment(line_no: int, line: str) -> Optional[FrameClock]:
    """The clock a stripped comment line names, or None for other comments."""
    head = _CLOCK_COMMENT.match(line)
    if head is None:
        return None
    m = _CLOCK_VALUES.fullmatch(line, head.end())
    if m is None:
        raise ParseError(line_no, "bad clock comment: expected 'fps=<number> stride=<integer>'")
    try:
        return FrameClock(fps=float(m.group(1)), frame_stride=int(m.group(2)))
    except (ValueError, InvalidParam) as err:
        raise ParseError(line_no, f"bad clock comment: {err}") from None


def _split_rows(text: str, first: int) -> tuple[list[tuple[int, object]], Optional[FrameClock]]:
    """Split into (line_no, fields) rows, numbering the lines of ``text``
    from ``first``; pick up an embedded clock comment.

    A malformed clock comment comes back as a ``(line_no, ParseError)`` row,
    so that it is reported in line order with the other rows' errors.
    """
    rows: list[tuple[int, object]] = []
    clock = None
    for line_no, raw in enumerate(text.splitlines(), start=first):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            try:
                clock = _clock_comment(line_no, line) or clock
            except ParseError as err:
                rows.append((line_no, err))
            continue
        rows.append((line_no, [f.strip() for f in line.split(",")]))
    return rows, clock


def _num(fields: list[str], idx: int, line_no: int, name: str) -> float:
    try:
        value = float(fields[idx])
    except ValueError:
        raise ParseError(line_no, f"non-numeric {name}: {fields[idx]!r}") from None
    if not math.isfinite(value):
        raise ParseError(line_no, f"non-finite {name}: {fields[idx]!r}")
    return value


def _int(fields: list[str], idx: int, line_no: int, name: str) -> int:
    """An integer literal is read exactly; other spellings, such as ``5.0``,
    as ``float`` reads them, and must be integral. Either way the value must
    be finite as a float."""
    try:
        value = int(fields[idx])
    except ValueError:
        value = _num(fields, idx, line_no, name)
        if not value.is_integer():
            raise ParseError(line_no, f"non-integral {name}: {fields[idx]!r}") from None
        return int(value)
    try:
        float(value)
    except OverflowError:
        raise ParseError(line_no, f"non-finite {name}: {fields[idx]!r}") from None
    return value


def _int64(line_no: int, value: int, name: str) -> int:
    if not INT64_MIN <= value <= INT64_MAX:
        raise ParseError(line_no, f"{name} outside int64: {value}")
    return value


def _box_range_problem(x, y, w, h) -> Optional[str]:
    """Why some IoU or cost of the box could overflow, if one could: a
    union adds two areas."""
    try:
        edges = math.isfinite(x + w) and math.isfinite(y + h)
        area = math.isfinite(2.0 * w * h)
    except OverflowError:  # an int beyond the float range: so is an edge
        edges = area = False
    if not edges:
        return f"box edge beyond the float range: x={x} y={y} w={w} h={h}"
    if not area:
        return f"box area beyond the float range: w={w} h={h}"
    return None


def _check_bbox(line_no: int, x: float, y: float, w: float, h: float) -> BBox:
    if w <= 0:
        raise ParseError(line_no, f"non-positive width: {w}")
    if h <= 0:
        raise ParseError(line_no, f"non-positive height: {h}")
    problem = _box_range_problem(x, y, w, h)
    if problem:
        raise ParseError(line_no, problem)
    return BBox(x, y, w, h)


def _bbox(line_no: int, fields: list[str]) -> BBox:
    """The box in columns 2-5, where every layout keeps it."""
    return _check_bbox(
        line_no,
        _num(fields, 2, line_no, "x"),
        _num(fields, 3, line_no, "y"),
        _num(fields, 4, line_no, "w"),
        _num(fields, 5, line_no, "h"),
    )


class _Layout(NamedTuple):
    """One detection layout. Every layout keeps the frame in column 0, the
    track hint (generic) or target id in column 1 and the box in columns
    2-5."""

    n_cols: int
    #: Column of the class (generic) or category.
    cls: int
    #: Column of the confidence (generic) or score (VisDrone); None: 1.0.
    conf: Optional[int]
    #: Benchmark layouts: 1-based frames, every id a hint, scores clamped.
    #: Generic: 0-based frames, negative hints mean none, confidence checked.
    benchmark: bool


_GENERIC = _Layout(n_cols=8, cls=7, conf=6, benchmark=False)
_UAVDT = _Layout(n_cols=9, cls=8, conf=None, benchmark=True)
_VISDRONE = _Layout(n_cols=10, cls=7, conf=6, benchmark=True)


def _frame_problem(frame: int) -> Optional[str]:
    """Why ``frame`` is no 0-based frame index of a stream, if it is not one."""
    if frame < 0:
        return f"negative frame index: {frame}"
    if frame > INT64_MAX:
        return f"frame outside int64: {frame}"
    return None


def _generic_row(line_no: int, fields: list[str]) -> Detection:
    frame = _int(fields, 0, line_no, "frame")
    problem = _frame_problem(frame)
    if problem:
        raise ParseError(line_no, problem)
    hint = _int(fields, 1, line_no, "track_hint")
    conf = _num(fields, 6, line_no, "conf")
    if not (0.0 <= conf <= 1.0):
        raise ParseError(line_no, f"confidence out of range: {conf}")
    bbox = _bbox(line_no, fields)
    return Detection(
        frame_index=frame,
        bbox=bbox,
        confidence=conf,
        class_id=_int64(line_no, _int(fields, 7, line_no, "class"), "class"),
        track_hint=None if hint < 0 else hint,
    )


def _benchmark_row(layout: _Layout, line_no: int, fields: list[str]) -> Detection:
    frame = _int(fields, 0, line_no, "frame")
    if frame < 1:
        raise ParseError(line_no, f"frame index must be >= 1, got {frame}")
    _int64(line_no, frame, "frame")
    bbox = _bbox(line_no, fields)
    if layout.conf is None:
        conf = 1.0
    else:
        conf = min(max(_num(fields, layout.conf, line_no, "score"), 0.0), 1.0)
    return Detection(
        frame_index=frame - 1,
        bbox=bbox,
        confidence=conf,
        class_id=_int64(line_no, _int(fields, layout.cls, line_no, "category"), "category"),
        track_hint=_int(fields, 1, line_no, "target_id"),
    )


def _row_detections(text: str, first: int, layout: _Layout, errors_out) -> tuple:
    """The row parser over ``text``, whose first line is line ``first``: one
    line at a time, with line-exact errors. It gives the detections in file
    order and the last valid clock comment."""
    rows, clock = _split_rows(text, first)
    dets = []
    for line_no, fields in rows:
        try:
            if isinstance(fields, ParseError):
                raise fields
            if len(fields) != layout.n_cols:
                raise ParseError(line_no, f"expected {layout.n_cols} columns, got {len(fields)}")
            if layout.benchmark:
                det = _benchmark_row(layout, line_no, fields)
            else:
                det = _generic_row(line_no, fields)
        except ParseError as err:
            if errors_out is None:
                raise
            errors_out.append(err)
            continue
        dets.append(det)
    return dets, clock


#: Below this magnitude a float read of an integer literal is exact; the
#: block check leaves larger ids to the row parser, which reads them exactly.
_EXACT_INT_BOUND = 2.0**53

#: A line whose first character other than whitespace is not ``#``.
_ROW_LINE = re.compile(r"^\s*[^#\s]", re.MULTILINE)

#: A comment, from its line's first ``#``.
_COMMENT = re.compile(r"#.*")


def _packed(dets: Sequence[Detection]) -> list[np.ndarray]:
    """Detections as the columns ``_block_columns`` gives: frame, then theirs."""
    table = FrameDetections.from_detections(None, dets)
    frame = np.array([d.frame_index for d in dets], dtype=np.int64)
    return [frame, table.boxes, table.hint, table.has_hint, table.conf, table.cls]


def _exact_ints(values: np.ndarray) -> bool:
    """Whether every value is an integer that a float read gives exactly: a
    non-integral value, such as 2.5, is the row parser's to refuse, and a
    larger one the row parser's to read exactly."""
    return bool(((np.abs(values) < _EXACT_INT_BOUND) & (values == np.floor(values))).all())


def _block_table(
    text: str, plain: bool, usecols: Optional[range] = None
) -> Optional[tuple[Optional[FrameClock], Optional[np.ndarray]]]:
    """A block of whole lines read by one ``np.loadtxt``: its last clock
    comment and its table of finite values, or None for a table when it has
    no row. None if the row parser would reject a line or loadtxt might read
    one otherwise: a ``#`` not at the start of its line (loadtxt reads
    ``1#x`` as ``1`` and skips an indented clock comment), a bad clock
    comment, a value that is not finite, or a block that is not ``plain``,
    as ``line_blocks`` checked it."""
    if not plain:
        return None
    clock = None
    for comment in _COMMENT.finditer(text) if "#" in text else ():
        if comment.start() and text[comment.start() - 1] != "\n":
            return None
        try:
            clock = _clock_comment(0, comment.group().strip()) or clock
        except ParseError:
            return None
    if not _ROW_LINE.search(text):  # loadtxt warns on an input without rows
        return clock, None
    # loadtxt parses each field as float() does, except that it refuses
    # "1_0", and it refuses a row whose field count differs from the first
    # row's, so a line of whitespace too; with ``usecols``, a row that lacks
    # one of them.
    try:
        table = np.loadtxt(io.StringIO(text), delimiter=",", comments="#", ndmin=2, usecols=usecols)
    except ValueError:
        return None
    if not np.isfinite(table).all():
        return None
    return clock, table


def _block_columns(text: str, plain: bool, layout: _Layout) -> Optional[tuple]:
    """A block of whole lines read by ``_block_table``: its last clock
    comment and its columns, frame, boxes, hint, has_hint, conf and class.
    None where ``_block_table`` gives None or the row parser would reject a
    row."""
    block = _block_table(text, plain)
    if block is None:
        return None
    clock, table = block
    if table is None:
        return clock, _packed(())
    if table.shape[1] != layout.n_cols:
        return None
    if not (table[:, 4:6] > 0.0).all():  # w and h
        return None
    # The row parser refuses a box whose edges or doubled area overflow. The
    # largest box bounds them all, and a huge one is left to the row parser.
    x_max, y_max, w_max, h_max = table[:, 2:6].max(axis=0).tolist()
    if not all(map(math.isfinite, (x_max + w_max, y_max + h_max, 2.0 * w_max * h_max))):
        return None
    ints = table[:, [0, 1, layout.cls]]
    if not _exact_ints(ints):
        return None
    frame, hint, cls = ints.astype(np.int64).T
    frame = frame - 1 if layout.benchmark else frame  # benchmark frames are 1-based
    if not (frame >= 0).all():
        return None
    if layout.conf is None:
        conf = np.ones(len(table))
    elif layout.benchmark:
        # min(max(score, 0.0), 1.0), which keeps a score of -0.0
        score = table[:, layout.conf]
        conf = np.where(score < 0.0, 0.0, np.where(score > 1.0, 1.0, score))
    else:
        conf = table[:, layout.conf].copy()
        if not ((conf >= 0.0) & (conf <= 1.0)).all():
            return None
    has_hint = np.ones(len(hint), dtype=bool) if layout.benchmark else hint >= 0
    # copies, so that no column keeps the block's table
    return clock, [frame, table[:, 2:6].copy(), hint, has_hint, conf, cls]


#: Blocks whose columns are joined into one chunk once read, so that their
#: small arrays are freed early, and a chunk's are returned to the system.
_CHUNK_BLOCKS = 64


def _parse_detections(source, layout: _Layout, errors_out) -> DetectionStream:
    """The stream of ``source``, read once in blocks of whole lines: each
    through ``_block_columns``, or alone through the row parser where that
    gives None. The columns are joined in file order, then stably sorted by
    frame, as the row parser keeps file order within a frame."""
    clock, chunks, parts = None, [], [_packed(())]
    for line_no, text, plain in line_blocks(text_file(source)):
        block = _block_columns(text, plain, layout)
        if block is None:
            dets, block_clock = _row_detections(text, line_no, layout, errors_out)
            block = block_clock, _packed(dets)
        clock = block[0] or clock
        parts.append(block[1])
        if len(parts) == _CHUNK_BLOCKS:
            chunks.append(list(map(np.concatenate, zip(*parts))))
            parts.clear()
    # one column at a time, so each column's pieces are freed once joined
    columns = list(zip(*chunks, *parts))
    chunks.clear()
    parts.clear()
    frame, *cols = (np.concatenate(columns.pop(0)) for _ in range(len(columns)))
    if (np.diff(frame) < 0).any():
        order = np.argsort(frame, kind="stable")
        frame = frame[order]
        cols = [c[order] for c in cols]
    starts = np.flatnonzero(np.diff(frame, prepend=-1))  # frames are >= 0
    offsets = [*starts.tolist(), len(frame)]
    rows = FrameDetections(None, *cols, _BoxRows(cols[0]))
    return DetectionStream(clock or FrameClock(), tuple(frame[starts].tolist()), offsets, rows)


def parse_generic_csv(
    source: Union[str, TextIO], errors_out: Optional[list[ParseError]] = None
) -> DetectionStream:
    """Parse the generic detections CSV (0-based frames)."""
    return _parse_detections(source, _GENERIC, errors_out)


def parse_uavdt_gt(
    source: Union[str, TextIO], errors_out: Optional[list[ParseError]] = None
) -> DetectionStream:
    """Parse UAVDT-style ground truth; confidence is fixed at 1.0."""
    return _parse_detections(source, _UAVDT, errors_out)


def parse_visdrone_mot(
    source: Union[str, TextIO], errors_out: Optional[list[ParseError]] = None
) -> DetectionStream:
    """Parse VisDrone-MOT-style annotations; confidence = clamped score."""
    return _parse_detections(source, _VISDRONE, errors_out)


def write_generic_csv(stream: DetectionStream) -> str:
    """Serialize to the generic CSV; re-parsing yields an equal stream.

    Frames with no detections are not representable in CSV and are dropped
    on a round trip.
    """
    clock = stream.clock
    lines = [
        "# roitel detections v1",
        "# columns: " + ",".join(GENERIC_COLUMNS),
        f"# clock: fps={clock.fps!r} stride={clock.frame_stride}",
    ]
    rows, offsets = stream._rows, stream._offsets
    if isinstance(rows.bboxes, _BoxRows):
        xywh = rows.boxes.T.tolist()
    else:  # the given boxes, so integer coordinates are written as integers
        xywh = [[getattr(b, name) for b in rows.bboxes] for name in "xywh"]
    counts = np.diff(offsets).tolist()
    columns = (
        chain.from_iterable(map(repeat, map(str, stream.frame_indices), counts)),
        map(str, np.where(rows.has_hint, rows.hint, -1).tolist()),
        *(map(repr, c) for c in xywh),
        map(repr, rows.conf.tolist()),
        map(str, rows.cls.tolist()),
    )
    lines.extend(map(",".join, zip(*columns)))
    return "\n".join(lines) + "\n"


def gen_synthetic(
    seed: int,
    n_frames: int,
    mean_objects: float,
    clock: FrameClock,
    frame_w: float = 1280.0,
    frame_h: float = 720.0,
) -> DetectionStream:
    """Seeded synthetic stream: linear trajectories with confidence jitter.

    Pure function of its arguments; identical inputs produce identical
    streams. ``mean_objects`` is the target average number of concurrent
    objects per frame. Every frame index in [0, n_frames) gets an entry,
    empty frames included.
    """
    if n_frames <= 0:
        raise InvalidParam(f"n_frames must be > 0, got {n_frames}")
    if n_frames - 1 > INT64_MAX:
        raise InvalidParam(f"frame index outside int64: {n_frames - 1}")
    if mean_objects < 0:
        raise InvalidParam(f"mean_objects must be >= 0, got {mean_objects}")
    sizes = (("mean_objects", mean_objects), ("frame_w", frame_w), ("frame_h", frame_h))
    for name, value in sizes:
        if not math.isfinite(value):
            raise InvalidParam(f"{name} must be finite, got {value}")

    rng = random.Random(seed)
    mean_lifetime = 30.0
    objects = mean_objects * n_frames / mean_lifetime
    if not math.isfinite(objects):
        raise InvalidParam(f"object count is not finite: mean_objects={mean_objects}")
    n_objects = int(round(objects))
    # (hint, x, y, w, h, conf, class) rows, frame by frame
    by_frame: list[list[tuple]] = [[] for _ in range(n_frames)]

    for obj_id in range(n_objects):
        birth = rng.randrange(n_frames)
        lifetime = rng.randint(15, 45)
        w = rng.uniform(8.0, 80.0)
        h = rng.uniform(8.0, 60.0)
        x_hi, y_hi = max(frame_w - w, 1.0), max(frame_h - h, 1.0)
        x0 = rng.uniform(0.0, x_hi)
        y0 = rng.uniform(0.0, y_hi)
        vx = rng.uniform(-4.0, 4.0)
        vy = rng.uniform(-4.0, 4.0)
        base_conf = rng.uniform(0.4, 0.95)
        class_id = rng.randrange(5)
        for f in range(birth, min(birth + lifetime, n_frames)):
            t = f - birth
            x = min(max(x0 + vx * t, 0.0), x_hi)
            y = min(max(y0 + vy * t, 0.0), y_hi)
            conf = min(max(base_conf + rng.uniform(-0.08, 0.08), 0.0), 1.0)
            by_frame[f].append((obj_id, x, y, w, h, conf, class_id))

    rows = [row for frame in by_frame for row in frame]
    hint, x, y, w, h, conf, cls = zip(*rows) if rows else ((),) * 7
    boxes = np.column_stack((x, y, w, h))
    hint, cls = (np.array(c, dtype=np.int64) for c in (hint, cls))
    every_hint = np.ones(len(rows), dtype=bool)
    table = FrameDetections(None, boxes, hint, every_hint, np.array(conf), cls, _BoxRows(boxes))
    offsets = [0, *accumulate(map(len, by_frame))]
    return DetectionStream(clock, tuple(range(n_frames)), offsets, table)


def inject_confidence_noise(stream: DetectionStream, amount: float, seed: int) -> DetectionStream:
    """Seeded downward confidence jitter, for exercising confidence-driven
    policies on ground-truth streams whose confidence is uniformly 1.0."""
    if not (math.isfinite(amount) and amount >= 0):
        raise InvalidParam(f"noise amount must be finite and >= 0, got {amount}")
    rng = random.Random(seed)
    rows = stream._rows
    conf = [min(max(c - rng.uniform(0.0, amount), 0.0), 1.0) for c in rows.conf.tolist()]
    noisy = replace(rows, conf=np.array(conf, dtype=np.float64))
    return DetectionStream(stream.clock, stream.frame_indices, stream._offsets, noisy)
