"""Detection stream and semantic sidecar ingestion.

Supported inputs:
  * generic detections CSV: frame,track_hint,x,y,w,h,conf,class (0-based
    frames, track_hint -1 for "none")
  * UAVDT-style ground truth: frame,target_id,x,y,w,h,out_of_view,
    occlusion,category (1-based frames, confidence fixed at 1.0)
  * VisDrone-MOT-style: frame,target_id,x,y,w,h,score,category,truncation,
    occlusion (1-based frames, confidence = score clamped to [0,1])
  * semantic sidecar CSV: frame,track,video_conf,still_conf,video_label,
    still_label,video_entropy,still_entropy[,payload_bytes]

The benchmark layouts follow the common public distributions. Comment
lines start with '#', blank lines are skipped, LF and CRLF both work, and
frame indices are normalized to 0-based internally. Every numeric field
must be finite, and frame indices, class ids and sidecar labels must fit
in int64. A detection stream's clock is the file's ``# clock: fps=F
stride=N`` comment, or ``FrameClock()`` when it has none.

The detection parsers first try one vectorised pass that reads the text
into NumPy columns. If that pass meets anything the row parser would
reject, or might read differently, the row parser reads the whole text
again, so errors keep their line numbers and ``errors_out`` collects the
same list either way.
"""

from __future__ import annotations

import math
import random
import re
from bisect import bisect_left
from collections import defaultdict
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .domain import BBox, Detection, FrameClock
from .errors import DuplicateKey, InvalidParam, ParseError

GENERIC_COLUMNS = ("frame", "track_hint", "x", "y", "w", "h", "conf", "class")

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

_CLOCK_COMMENT = re.compile(r"#\s*clock:")
_CLOCK_VALUES = re.compile(r"\s*fps=([0-9.eE+-]+)\s+stride=(\d+)\s*")


@dataclass(frozen=True, eq=False)
class DetectionStream:
    """Ordered per-frame detections plus the source clock.

    ``frame_indices`` are the frames that have an entry, strictly
    increasing; an entry may hold no detections. A parsed stream keeps its
    detections in NumPy columns and builds a frame's ``Detection`` objects
    each time that frame is asked for; a stream made by ``from_frames``
    keeps the objects it was given. Either hands a frame to the tracker as
    one ``FrameDetections`` block (``block_at``). Streams are equal when
    their clocks and ``frames`` are, whatever their storage.
    """

    clock: FrameClock
    frame_indices: tuple[int, ...]
    n_detections: int
    _per_frame: Sequence[tuple[Detection, ...]] = field(repr=False)

    @staticmethod
    def from_frames(
        clock: FrameClock, frames: Iterable[tuple[int, Sequence[Detection]]]
    ) -> "DetectionStream":
        """A stream of the given entries; frame indices and class ids must
        be ``int`` values that fit in int64, as the engine keeps them in
        int64 columns and writes them to the run log as integers. Boxes
        must keep their edges and twice their area within the float range,
        as the parsers require."""
        indices = []
        per_frame = []
        prev = None
        for frame_index, dets in frames:
            if type(frame_index) is not int:
                raise InvalidParam(f"frame index must be an int, got {frame_index!r}")
            if prev is not None and frame_index <= prev:
                raise InvalidParam(f"frame indices must strictly increase at {frame_index}")
            if frame_index > _INT64_MAX:
                raise InvalidParam(f"frame index outside int64: {frame_index}")
            prev = frame_index
            for det in dets:
                if det.frame_index != frame_index:
                    raise InvalidParam(
                        f"detection frame {det.frame_index} does not match entry {frame_index}"
                    )
                if type(det.class_id) is not int:
                    raise InvalidParam(f"class_id must be an int, got {det.class_id!r}")
                if not _INT64_MIN <= det.class_id <= _INT64_MAX:
                    raise InvalidParam(f"class_id outside int64: {det.class_id}")
                b = det.bbox
                problem = _box_range_problem(b.x, b.y, b.w, b.h)
                if problem:
                    raise InvalidParam(problem)
            indices.append(frame_index)
            per_frame.append(tuple(dets))
        return DetectionStream(
            clock, tuple(indices), sum(map(len, per_frame)), tuple(per_frame)
        )

    @property
    def frames(self) -> tuple[tuple[int, tuple[Detection, ...]], ...]:
        """Every ``(frame_index, detections)`` entry. A parsed stream builds
        all of its ``Detection`` objects here; ``detections_at`` builds one
        frame's."""
        return tuple(zip(self.frame_indices, self._per_frame))

    def _entry(self, frame_index: int) -> Optional[int]:
        i = bisect_left(self.frame_indices, frame_index)
        if i < len(self.frame_indices) and self.frame_indices[i] == frame_index:
            return i
        return None

    def detections_at(self, frame_index: int) -> tuple[Detection, ...]:
        """The detections of one frame; empty when it has no entry."""
        i = self._entry(frame_index)
        return () if i is None else self._per_frame[i]

    def block_at(self, frame_index: int) -> "FrameDetections":
        """The detections of one frame as columns; empty when it has no
        entry. A parsed stream slices its columns; a ``from_frames`` stream
        builds the block from its own objects."""
        i = self._entry(frame_index)
        if i is None:
            return FrameDetections.from_detections(frame_index, ())
        if isinstance(self._per_frame, _Columns):
            return self._per_frame.block(i)
        return FrameDetections.from_detections(frame_index, self._per_frame[i])

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
    """Row ``i``'s ``BBox`` of an (N, 4) box array, built when first asked
    for and kept, so every reader of the row shares one object."""

    def __init__(self, boxes: np.ndarray):
        self._boxes = boxes
        self._made: dict[int, BBox] = {}

    def __len__(self) -> int:
        return len(self._boxes)

    def __getitem__(self, i: int) -> BBox:
        box = self._made.get(i)
        if box is None:
            box = self._made[i] = BBox(*self._boxes[i].tolist())
        return box


def _int_column(values: list[int]) -> np.ndarray:
    """int64, or object when a value is beyond int64: a stream bounds
    neither its track hints nor the ids of detections handed straight to
    ``Tracker.step``."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


@dataclass(frozen=True, eq=False)
class FrameDetections:
    """One frame's detections as columns, row for row in stream order: the
    form the tracker and the association pass read. ``BBox`` and
    ``Detection`` objects are built only when asked for, unless the stream
    already holds them."""

    frame_index: int
    boxes: np.ndarray  # (N, 4) float64: x, y, w, h
    hint: np.ndarray  # int64 (object beyond int64); read where has_hint
    has_hint: np.ndarray  # bool
    conf: np.ndarray  # float64
    cls: np.ndarray  # int64 (object beyond int64)
    bboxes: Sequence[BBox]
    _detections: Optional[tuple[Detection, ...]] = field(default=None, repr=False)

    @staticmethod
    def from_detections(frame_index: int, dets: Sequence[Detection]) -> "FrameDetections":
        dets = tuple(dets)
        bboxes = tuple(d.bbox for d in dets)
        hints = [d.track_hint for d in dets]
        return FrameDetections(
            frame_index,
            np.array([(b.x, b.y, b.w, b.h) for b in bboxes], dtype=np.float64).reshape(-1, 4),
            _int_column([-1 if h is None else h for h in hints]),
            np.array([h is not None for h in hints], dtype=bool),
            np.array([d.confidence for d in dets], dtype=np.float64),
            _int_column([d.class_id for d in dets]),
            bboxes,
            dets,
        )

    def __len__(self) -> int:
        return len(self.boxes)

    def detections(self) -> tuple[Detection, ...]:
        """Every row's ``Detection``, built in one pass over the columns."""
        if self._detections is not None:
            return self._detections
        cols = (self.hint, self.has_hint, self.boxes, self.conf, self.cls)
        return tuple(
            Detection(self.frame_index, BBox(*box), conf, cls, hint if has else None)
            for hint, has, box, conf, cls in zip(*(c.tolist() for c in cols))
        )


class _Columns(SequenceABC):
    """A parsed stream's detections as NumPy columns, one row per detection
    in stream order. Entry ``i`` is frame ``frame_indices[i]`` and holds
    rows ``offsets[i]:offsets[i + 1]``; indexing builds its Detections."""

    def __init__(self, frame_indices, offsets, hint, boxes, conf, cls, negative_hint_is_none):
        self.frame_indices = frame_indices
        self.offsets = offsets
        self.hint, self.boxes, self.conf, self.cls = hint, boxes, conf, cls
        self.negative_hint_is_none = negative_hint_is_none

    def __len__(self) -> int:
        return len(self.frame_indices)

    def __getitem__(self, i: int) -> tuple[Detection, ...]:
        return self.block(i).detections()

    def block(self, i: int) -> FrameDetections:
        lo, hi = self.offsets[i], self.offsets[i + 1]
        hint, boxes = self.hint[lo:hi], self.boxes[lo:hi]
        has_hint = hint >= 0 if self.negative_hint_is_none else np.ones(len(hint), dtype=bool)
        return FrameDetections(
            self.frame_indices[i],
            boxes,
            hint,
            has_hint,
            self.conf[lo:hi],
            self.cls[lo:hi],
            _BoxRows(boxes),
        )


@dataclass(frozen=True)
class SemanticRecord:
    """Classifier probe outputs for one transmitted ROI."""

    frame_index: int
    track_id: int
    video_conf: float
    still_conf: float
    video_label: int
    still_label: int
    video_entropy: float
    still_entropy: float
    payload_bytes: Optional[int] = None

    def __post_init__(self):
        for name in ("video_conf", "still_conf"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise InvalidParam(f"{name} must be in [0,1], got {v}")
        for name in ("video_entropy", "still_entropy"):
            if getattr(self, name) < 0:
                raise InvalidParam(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.payload_bytes is not None and self.payload_bytes <= 0:
            raise InvalidParam(f"payload_bytes must be > 0, got {self.payload_bytes}")
        for name in ("video_label", "still_label"):
            if not _INT64_MIN <= getattr(self, name) <= _INT64_MAX:
                raise InvalidParam(f"{name} outside int64: {getattr(self, name)}")


class SemanticSidecar:
    """Map of (frame_index, track_id) -> SemanticRecord with unique keys."""

    def __init__(self, records: Iterable[SemanticRecord] = ()):
        self.records: dict[tuple[int, int], SemanticRecord] = {}
        for position, rec in enumerate(records, start=1):
            key = (rec.frame_index, rec.track_id)
            if key in self.records:
                raise DuplicateKey(position, *key)
            self.records[key] = rec

    def get(self, frame_index: int, track_id: int) -> Optional[SemanticRecord]:
        return self.records.get((frame_index, track_id))

    def __len__(self) -> int:
        return len(self.records)

    def __contains__(self, key: tuple[int, int]) -> bool:
        return key in self.records


def _clock_comment(line_no: int, line: str) -> Optional[FrameClock]:
    """The clock a stripped comment line names, or None for other comments."""
    head = _CLOCK_COMMENT.match(line)
    if head is None:
        return None
    m = _CLOCK_VALUES.fullmatch(line, head.end())
    if m is None:
        raise ParseError(line_no, "bad clock comment: expected 'fps=<number> stride=<integer>'")
    try:
        fps = float(m.group(1))
        if not math.isfinite(fps):
            raise ValueError(f"non-finite fps {fps}")
        return FrameClock(fps=fps, frame_stride=int(m.group(2)))
    except (ValueError, InvalidParam) as err:
        raise ParseError(line_no, f"bad clock comment: {err}") from None


def _split_rows(text: str) -> tuple[list[tuple[int, object]], Optional[FrameClock]]:
    """Split into (line_no, fields) rows; pick up an embedded clock comment.

    A malformed clock comment comes back as a ``(line_no, ParseError)`` row,
    so that it is reported in line order with the other rows' errors.
    """
    rows: list[tuple[int, object]] = []
    clock = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
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
    as ``float`` reads them. Either way the value must be finite as a float."""
    try:
        value = int(fields[idx])
    except ValueError:
        return int(_num(fields, idx, line_no, name))
    try:
        float(value)
    except OverflowError:
        raise ParseError(line_no, f"non-finite {name}: {fields[idx]!r}") from None
    return value


def _int64(line_no: int, value: int, name: str) -> int:
    if not _INT64_MIN <= value <= _INT64_MAX:
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


def _generic_row(line_no: int, fields: list[str]) -> Detection:
    frame = _int(fields, 0, line_no, "frame")
    if frame < 0:
        raise ParseError(line_no, f"negative frame index: {frame}")
    _int64(line_no, frame, "frame")
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


def _parse_rows(text, layout: _Layout, errors_out) -> DetectionStream:
    """The row parser: one line at a time, with line-exact errors. It is the
    reference the vectorised pass must agree with."""
    rows, file_clock = _split_rows(text)
    by_frame: dict[int, list[Detection]] = defaultdict(list)
    for line_no, fields in rows:
        try:
            if isinstance(fields, ParseError):
                raise fields
            if len(fields) != layout.n_cols:
                raise ParseError(
                    line_no, f"expected {layout.n_cols} columns, got {len(fields)}"
                )
            if layout.benchmark:
                det = _benchmark_row(layout, line_no, fields)
            else:
                det = _generic_row(line_no, fields)
        except ParseError as err:
            if errors_out is None:
                raise
            errors_out.append(err)
            continue
        by_frame[det.frame_index].append(det)
    return DetectionStream.from_frames(
        file_clock or FrameClock(), ((f, by_frame[f]) for f in sorted(by_frame))
    )


#: Below this magnitude a float read of an integer literal is exact; the
#: vectorised pass leaves larger ids to the row parser, which reads them
#: with ``int``.
_EXACT_INT_BOUND = 2.0**53


def _parse_columns(text, layout: _Layout) -> Optional[DetectionStream]:
    """The vectorised pass: the stream the row parser gives for ``text``,
    or None if any line would be rejected or might be read differently."""
    # The lines, blanks and comments of _split_rows.
    lines = [s for s in map(str.strip, text.splitlines()) if s]
    file_clock = None
    if "#" in text:
        try:
            for line in lines:
                if line[0] == "#":
                    file_clock = _clock_comment(0, line) or file_clock
        except ParseError:
            return None
        lines = [s for s in lines if s[0] != "#"]
    clock = file_clock or FrameClock()
    if not lines:
        return DetectionStream(clock, (), 0, ())
    # loadtxt parses each field as float() does, except that it refuses
    # "1_0" and non-ASCII digits, and it refuses a row whose field count
    # differs from the first row's.
    try:
        table = np.loadtxt(lines, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
    except ValueError:
        return None
    if table.shape[1] != layout.n_cols or not np.isfinite(table).all():
        return None
    boxes = table[:, 2:6]
    x, y, w, h = boxes.T
    if not ((w > 0.0) & (h > 0.0)).all():
        return None
    # The row parser refuses a box whose edges or doubled area overflow. The
    # largest box bounds them all, and a huge one is left to the row parser.
    x_max, y_max, w_max, h_max = boxes.max(axis=0).tolist()
    if not all(map(math.isfinite, (x_max + w_max, y_max + h_max, 2.0 * w_max * h_max))):
        return None
    ints = table[:, [0, 1, layout.cls]]
    if not ((ints > -_EXACT_INT_BOUND) & (ints < _EXACT_INT_BOUND)).all():
        return None
    frame, hint, cls = ints.astype(np.int64).T
    if layout.benchmark:
        if not (frame >= 1).all():
            return None
        frame = frame - 1
        if layout.conf is None:
            conf = np.ones(len(table))
        else:
            # min(max(score, 0.0), 1.0), which keeps a score of -0.0
            score = table[:, layout.conf]
            conf = np.where(score < 0.0, 0.0, np.where(score > 1.0, 1.0, score))
    else:
        if not (frame >= 0).all():
            return None
        conf = table[:, layout.conf]
        if not ((conf >= 0.0) & (conf <= 1.0)).all():
            return None

    cols = [hint, boxes, conf, cls]
    if (np.diff(frame) < 0).any():
        # the row parser keeps file order within a frame
        order = np.argsort(frame, kind="stable")
        frame = frame[order]
        cols = [c[order] for c in cols]
    starts = np.flatnonzero(np.diff(frame)) + 1
    frame_indices = tuple(frame[np.r_[0, starts]].tolist())
    offsets = [0, *starts.tolist(), len(frame)]
    columns = _Columns(frame_indices, offsets, *cols, negative_hint_is_none=not layout.benchmark)
    return DetectionStream(clock, frame_indices, len(frame), columns)


def _parse_detections(text, layout: _Layout, errors_out) -> DetectionStream:
    stream = _parse_columns(text, layout)
    if stream is None:
        stream = _parse_rows(text, layout, errors_out)
    return stream


def parse_generic_csv(
    text: str, errors_out: Optional[list[ParseError]] = None
) -> DetectionStream:
    """Parse the generic detections CSV (0-based frames)."""
    return _parse_detections(text, _GENERIC, errors_out)


def parse_uavdt_gt(text: str, errors_out: Optional[list[ParseError]] = None) -> DetectionStream:
    """Parse UAVDT-style ground truth; confidence is fixed at 1.0."""
    return _parse_detections(text, _UAVDT, errors_out)


def parse_visdrone_mot(
    text: str, errors_out: Optional[list[ParseError]] = None
) -> DetectionStream:
    """Parse VisDrone-MOT-style annotations; confidence = clamped score."""
    return _parse_detections(text, _VISDRONE, errors_out)


def parse_sidecar_csv(
    text: str, errors_out: Optional[list[ParseError]] = None
) -> SemanticSidecar:
    """Parse the semantic sidecar; payload_bytes column is optional per row.

    A repeated (frame, track) is a DuplicateKey at its line; the first
    record is kept.
    """
    rows, _ = _split_rows(text)
    sidecar = SemanticSidecar()
    for line_no, fields in rows:
        try:
            if isinstance(fields, ParseError):
                raise fields
            if len(fields) not in (8, 9):
                raise ParseError(line_no, f"expected 8 or 9 columns, got {len(fields)}")
            payload = None
            if len(fields) == 9 and fields[8]:
                payload = _int(fields, 8, line_no, "payload_bytes")
                if payload <= 0:
                    raise ParseError(line_no, f"payload_bytes must be > 0, got {payload}")
            try:
                rec = SemanticRecord(
                    frame_index=_int(fields, 0, line_no, "frame"),
                    track_id=_int(fields, 1, line_no, "track"),
                    video_conf=_num(fields, 2, line_no, "video_conf"),
                    still_conf=_num(fields, 3, line_no, "still_conf"),
                    video_label=_int(fields, 4, line_no, "video_label"),
                    still_label=_int(fields, 5, line_no, "still_label"),
                    video_entropy=_num(fields, 6, line_no, "video_entropy"),
                    still_entropy=_num(fields, 7, line_no, "still_entropy"),
                    payload_bytes=payload,
                )
            except InvalidParam as err:
                raise ParseError(line_no, str(err)) from None
            key = (rec.frame_index, rec.track_id)
            if key in sidecar:
                raise DuplicateKey(line_no, *key)
            sidecar.records[key] = rec
        except ParseError as err:
            if errors_out is None:
                raise
            errors_out.append(err)
    return sidecar


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
    for frame_index, dets in stream.frames:
        for det in dets:
            hint = -1 if det.track_hint is None else det.track_hint
            b = det.bbox
            lines.append(
                f"{frame_index},{hint},{b.x!r},{b.y!r},{b.w!r},{b.h!r},"
                f"{det.confidence!r},{det.class_id}"
            )
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
    if mean_objects < 0:
        raise InvalidParam(f"mean_objects must be >= 0, got {mean_objects}")
    if not math.isfinite(mean_objects):
        raise InvalidParam(f"mean_objects must be finite, got {mean_objects}")

    rng = random.Random(seed)
    mean_lifetime = 30.0
    n_objects = int(round(mean_objects * n_frames / mean_lifetime))
    by_frame: dict[int, list[Detection]] = {f: [] for f in range(n_frames)}

    for obj_id in range(n_objects):
        birth = rng.randrange(n_frames)
        lifetime = rng.randint(15, 45)
        w = rng.uniform(8.0, 80.0)
        h = rng.uniform(8.0, 60.0)
        x0 = rng.uniform(0.0, max(frame_w - w, 1.0))
        y0 = rng.uniform(0.0, max(frame_h - h, 1.0))
        vx = rng.uniform(-4.0, 4.0)
        vy = rng.uniform(-4.0, 4.0)
        base_conf = rng.uniform(0.4, 0.95)
        class_id = rng.randrange(5)
        for f in range(birth, min(birth + lifetime, n_frames)):
            t = f - birth
            x = min(max(x0 + vx * t, 0.0), max(frame_w - w, 1.0))
            y = min(max(y0 + vy * t, 0.0), max(frame_h - h, 1.0))
            conf = min(max(base_conf + rng.uniform(-0.08, 0.08), 0.0), 1.0)
            by_frame[f].append(
                Detection(
                    frame_index=f,
                    bbox=BBox(x, y, w, h),
                    confidence=conf,
                    class_id=class_id,
                    track_hint=obj_id,
                )
            )

    return DetectionStream.from_frames(clock, ((f, by_frame[f]) for f in range(n_frames)))


def inject_confidence_noise(stream: DetectionStream, amount: float, seed: int) -> DetectionStream:
    """Seeded downward confidence jitter, for exercising confidence-driven
    policies on ground-truth streams whose confidence is uniformly 1.0."""
    if not (math.isfinite(amount) and amount >= 0):
        raise InvalidParam(f"noise amount must be finite and >= 0, got {amount}")
    rng = random.Random(seed)
    frames = []
    for frame_index, dets in stream.frames:
        noisy = tuple(
            Detection(
                frame_index=d.frame_index,
                bbox=d.bbox,
                confidence=min(max(d.confidence - rng.uniform(0.0, amount), 0.0), 1.0),
                class_id=d.class_id,
                track_hint=d.track_hint,
            )
            for d in dets
        )
        frames.append((frame_index, noisy))
    return DetectionStream.from_frames(stream.clock, frames)
