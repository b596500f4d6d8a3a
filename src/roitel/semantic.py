"""Semantic sidecar ingestion: what the still-image classifier said of
each ROI, keyed by (frame, track).

The sidecar CSV is ``frame,track,video_conf,still_conf,video_label,
still_label,video_entropy,still_entropy[,payload_bytes]``. It is read as
``ingest`` reads a detection stream: once, in blocks of whole lines, each
with the detection parsers' block checks and one ``np.loadtxt``, and a
block with anything the row parser would reject, or might read
differently, goes alone to the row parser. A repeated (frame, track) key is
found once the blocks' columns are joined, across blocks too; so a sidecar,
its errors and ``errors_out`` are the row parser's on the whole text.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter
from typing import Iterable, Optional, Sequence, TextIO, Union

import numpy as np

from ._text import line_blocks, text_file
from .domain import INT64_MAX, INT64_MIN
from .errors import DuplicateKey, InvalidParam, ParseError
from .ingest import (
    _block_table,
    _exact_ints,
    _frame_problem,
    _int,
    _int_column,
    _num,
    _split_rows,
)
from .runlog import _SEMANTIC_FIELDS


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
            v = getattr(self, name)
            if v < 0:
                raise InvalidParam(f"{name} must be >= 0, got {v}")
            if not v <= sys.float_info.max:  # NaN, or beyond what a run log holds
                raise InvalidParam(f"{name} must be finite, got {v}")
        if self.payload_bytes is not None and self.payload_bytes <= 0:
            raise InvalidParam(f"payload_bytes must be > 0, got {self.payload_bytes}")
        for name in ("video_label", "still_label"):
            if not INT64_MIN <= getattr(self, name) <= INT64_MAX:
                raise InvalidParam(f"{name} outside int64: {getattr(self, name)}")


#: A record's classifier fields, the run log's semantic tx fields, in their
#: order: a sidecar holds them as one structured column, so that one gather
#: and one ``tolist`` give a row's values as Python floats and ints.
_SEMANTICS = np.dtype(
    [
        (name, np.float64 if float in types else np.int64)
        for name, types in _SEMANTIC_FIELDS.items()
    ]
)

_SEMANTIC_VALUES = attrgetter(*_SEMANTICS.names)


def _record_columns(records: Sequence[SemanticRecord], lines: Iterable[int]) -> list[np.ndarray]:
    """Records as a sidecar's columns: frame, track, the classifier fields,
    ``payload_bytes`` (0 where a record has none) and each record's line."""
    return [
        np.array([rec.frame_index for rec in records], dtype=np.int64),
        _int_column([rec.track_id for rec in records]),
        np.array(list(map(_SEMANTIC_VALUES, records)), dtype=_SEMANTICS),
        _int_column([rec.payload_bytes or 0 for rec in records]),
        np.array(list(lines), dtype=np.int64),
    ]


def _unique_keys(columns: list[np.ndarray]) -> tuple[list[np.ndarray], list[DuplicateKey]]:
    """``_record_columns`` columns, whose lines rise row by row, sorted by
    (frame, track) with the first record of each key kept, and a
    ``DuplicateKey`` at the line of each later one, in line order."""
    frame, track = columns[0], columns[1]
    # two stable sorts, as np.lexsort may not take an object column
    order = np.argsort(track, kind="stable")
    order = order[np.argsort(frame[order], kind="stable")]
    columns = [c[order] for c in columns]
    frame, track, line = columns[0], columns[1], columns[-1]
    later = np.zeros(len(frame), dtype=bool)
    later[1:] = (frame[1:] == frame[:-1]) & (track[1:] == track[:-1])
    if not later.any():
        return columns, []
    keys = sorted(zip(line[later].tolist(), frame[later].tolist(), track[later].tolist()))
    return [c[~later] for c in columns], [DuplicateKey(*key) for key in keys]


class SemanticSidecar:
    """Semantic records with unique (frame_index, track_id) keys, held as
    NumPy columns sorted by key, a record to a row: ``frame_index`` (int64),
    ``track_id`` and ``payload_bytes`` (int64, or object when a value is
    beyond int64; ``payload_bytes`` is 0 where a record has none), and
    ``semantics``, whose fields are the classifier ones of
    ``SemanticRecord``, in its order. ``rows`` finds a frame's records, and
    ``record`` and ``get`` build a record, equal to the one parsed or given,
    each time it is asked for.

    ``SemanticSidecar(records)`` keys the given records. A field that must
    be an integer and is not an ``int``, or a frame index outside
    ``[0, INT64_MAX]``, which no stream frame has, is an ``InvalidParam``;
    the first repeated key is a ``DuplicateKey`` at its 1-based position.
    """

    def __init__(self, records: Iterable[SemanticRecord] = ()):
        records = list(records)
        for rec in records:
            for name in ("frame_index", "track_id", "video_label", "still_label"):
                if type(getattr(rec, name)) is not int:
                    raise InvalidParam(f"{name} must be an int, got {getattr(rec, name)!r}")
            if rec.payload_bytes is not None and type(rec.payload_bytes) is not int:
                raise InvalidParam(f"payload_bytes must be an int, got {rec.payload_bytes!r}")
            problem = _frame_problem(rec.frame_index)
            if problem:
                raise InvalidParam(problem)
        columns, duplicates = _unique_keys(_record_columns(records, range(1, len(records) + 1)))
        if duplicates:
            raise duplicates[0]
        self._keep(columns)

    @classmethod
    def _of(cls, columns: list[np.ndarray]) -> "SemanticSidecar":
        """The sidecar of ``_unique_keys`` columns."""
        sidecar = cls.__new__(cls)
        sidecar._keep(columns)
        return sidecar

    def _keep(self, columns: list[np.ndarray]) -> None:
        # _line: each record's line, or its position; it rises in file order
        self.frame_index, self.track_id, self.semantics, self.payload_bytes, self._line = columns
        starts = np.flatnonzero(np.diff(self.frame_index, prepend=-1))  # frames are >= 0
        self._frames = self.frame_index[starts].tolist()
        self._starts = [*starts.tolist(), len(self.frame_index)]

    def rows(self, frame_index: int, track_ids: np.ndarray) -> np.ndarray:
        """The row of the record keyed ``(frame_index, t)`` for each ``t`` of
        ``track_ids`` (int64, or object beyond int64), -1 where none is."""
        i = bisect_left(self._frames, frame_index)
        if i == len(self._frames) or self._frames[i] != frame_index:
            return np.full(len(track_ids), -1, dtype=np.int64)
        lo, hi = self._starts[i], self._starts[i + 1]
        tracks = self.track_id[lo:hi]
        at = np.searchsorted(tracks, track_ids)
        found = tracks[np.minimum(at, hi - lo - 1)] == track_ids
        return np.where(found, lo + at, -1)

    def record(self, row: int) -> SemanticRecord:
        """The record of row ``row``."""
        key = (self.frame_index.item(row), self.track_id.item(row))
        return SemanticRecord(*key, *self.semantics.item(row), self.payload_bytes.item(row) or None)

    def _row(self, frame_index: int, track_id: int) -> int:
        return int(self.rows(frame_index, _int_column([track_id]))[0])

    def get(self, frame_index: int, track_id: int) -> Optional[SemanticRecord]:
        row = self._row(frame_index, track_id)
        return None if row < 0 else self.record(row)

    @property
    def records(self) -> dict[tuple[int, int], SemanticRecord]:
        """Every record by its key, in file order (or the order given),
        built on each read."""
        by_line = map(self.record, np.argsort(self._line, kind="stable").tolist())
        return {(rec.frame_index, rec.track_id): rec for rec in by_line}

    def __len__(self) -> int:
        return len(self.frame_index)

    def __contains__(self, key: tuple[int, int]) -> bool:
        return self._row(*key) >= 0


def _row_records(
    text: str, first: int, errors_out: Optional[list[ParseError]]
) -> tuple[list[int], list[SemanticRecord]]:
    """The sidecar row parser over ``text``, whose first line is line
    ``first``: one line at a time, with line-exact errors. It gives each
    record and its line, in file order; a repeated (frame, track) is a
    DuplicateKey at its line, and the first record is kept."""
    rows, _ = _split_rows(text, first)
    keys: set[tuple[int, int]] = set()
    lines, records = [], []
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
            frame = _int(fields, 0, line_no, "frame")
            problem = _frame_problem(frame)
            if problem:
                raise ParseError(line_no, problem)
            try:
                rec = SemanticRecord(
                    frame_index=frame,
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
            if key in keys:
                raise DuplicateKey(line_no, *key)
        except ParseError as err:
            if errors_out is None:
                raise
            errors_out.append(err)
            continue
        keys.add(key)
        lines.append(line_no)
        records.append(rec)
    return lines, records


def _sidecar_block(text: str, plain: bool, first: int) -> Optional[list[np.ndarray]]:
    """A block of sidecar lines, whose first line is line ``first``, read by
    ``_block_table``: its columns, as ``_record_columns`` gives them. None
    where ``_block_table`` gives None, or where the row parser would reject
    a row or read an integer beyond 2**53, as it reads one exactly."""
    block = _block_table(text, plain, range(8))
    if block is None:
        return None
    table = block[1]
    if table is None:
        return _record_columns((), ())
    # loadtxt read the first 8 fields of each line that is not empty or a
    # comment, and lets a row of 10 or more through
    lines = text.split("\n")
    rows = [line for line in lines if line and line[0] != "#"]
    commas = list(map(str.count, rows, repeat(",")))
    if len(rows) != len(table) or max(commas) > 8:
        return None
    payloads = [row.rpartition(",")[2].strip() if n == 8 else "" for row, n in zip(rows, commas)]
    try:
        payload = np.array([float(p) if p else 0.0 for p in payloads])
    except ValueError:
        return None
    given = np.array(list(map(bool, payloads)), dtype=bool)
    ints = table[:, [0, 1, 4, 5]]
    if not (_exact_ints(ints) and _exact_ints(payload) and (payload[given] > 0.0).all()):
        return None
    conf, entropy = table[:, 2:4], table[:, 6:8]
    if not (((conf >= 0.0) & (conf <= 1.0)).all() and (entropy >= 0.0).all()):
        return None
    frame, track = table[:, :2].astype(np.int64).T
    if not (frame >= 0).all():
        return None
    numbered = enumerate(lines, first)
    line_no = np.array([n for n, line in numbered if line and line[0] != "#"], dtype=np.int64)
    semantics = np.empty(len(table), dtype=_SEMANTICS)
    for column, name in enumerate(_SEMANTICS.names, start=2):
        semantics[name] = table[:, column]
    return [frame, track, semantics, payload.astype(np.int64), line_no]


def _read_sidecar(source, errors_out: Optional[list[ParseError]]) -> SemanticSidecar:
    """The sidecar of ``source``, read once in blocks of whole lines: each
    through ``_sidecar_block``, or alone through the row parser where that
    gives None. The columns are joined in file order, then sorted by key; a
    key repeated across blocks is found there. Without ``errors_out``, the
    first error in line order is raised, as the row parser raises it, and
    the read stops after the first block with an error: a key repeated
    later can only be a later error."""
    parts, errors = [_record_columns((), ())], []  # errors: in line order
    for line_no, text, plain in line_blocks(text_file(source)):
        block = _sidecar_block(text, plain, line_no)
        if block is None:
            lines, records = _row_records(text, line_no, errors)
            block = _record_columns(records, lines)
        parts.append(block)
        if errors and errors_out is None:
            break
    columns, duplicates = _unique_keys(list(map(np.concatenate, zip(*parts))))
    errors = sorted(errors + duplicates, key=attrgetter("line_no"))
    if errors:
        if errors_out is None:
            raise errors[0]
        errors_out.extend(errors)
    return SemanticSidecar._of(columns)


def parse_sidecar_csv(
    source: Union[str, TextIO], errors_out: Optional[list[ParseError]] = None
) -> SemanticSidecar:
    """Parse the semantic sidecar; the payload_bytes column is optional per
    row.

    A repeated (frame, track) is a DuplicateKey at its line; the first
    record is kept.
    """
    return _read_sidecar(source, errors_out)
