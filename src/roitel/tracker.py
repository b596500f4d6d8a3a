"""Greedy IoU association with persistent track identities.

Deliberately lightweight: no motion model, no low-score recovery stage.
The last observed box is the match target, which is adequate at the strided
decision cadence the simulator runs at. Association can optionally follow
ground-truth identity hints, bypassing IoU for hinted detections.

The live tracks are held as arrays in id order (id, last box, consecutive
misses, and under ``use_hints`` the hint they spawned from), so a step reads
the frame's columns and ages every track with one mask; no ``Detection`` is
built unless a caller reads the result's entries. ``TrackerConfig`` lives
in ``domain``, with the other run-config types.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property
from typing import Optional, Union

import numpy as np

from . import kernels
from .domain import Detection, TrackerConfig
from .errors import OutOfOrderFrame
from .ingest import FrameDetections


class Assignments(Sequence):
    """One step's result, row for row with the frame's detections: entry
    ``i`` is ``(detection, track id, is_new)``, where ``is_new`` says the
    track was created on this step. The entries are built when first read;
    ``track_id`` (int64) and ``is_new`` (bool) are the columns behind them."""

    def __init__(self, block: FrameDetections, track_id: np.ndarray, is_new: np.ndarray):
        self.block = block
        self.track_id = track_id
        self.is_new = is_new

    def __len__(self) -> int:
        return len(self.track_id)

    def __getitem__(self, i):
        return self._entries[i]

    @cached_property
    def _entries(self) -> list[tuple[Detection, int, bool]]:
        return list(zip(self.block.detections(), self.track_id.tolist(), self.is_new.tolist()))


class Tracker:
    """Single-owner mutable tracker state for one simulation run.

    Track ids are assigned monotonically and never reused within a run.
    """

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config or TrackerConfig()
        self._ids = np.empty(0, dtype=np.int64)
        self._boxes = np.empty((0, 4), dtype=np.float64)
        self._misses = np.empty(0, dtype=np.int64)
        # the hint each live track spawned from, where it had one; kept only
        # under use_hints, their one reader
        self._hint = np.empty(0, dtype=np.int64)
        self._has_hint = np.empty(0, dtype=bool)
        self._next_id = 0
        self._last_frame: Optional[int] = None

    def step(
        self, frame_index: int, detections: Union[FrameDetections, Sequence[Detection]]
    ) -> Assignments:
        """Associate one processed frame's detections; spawn, age, retire.

        Matching is greedy by descending IoU over pairs with
        ``iou >= iou_min`` (ties: lower track id, then lower detection
        index). Unmatched detections spawn new tracks; tracks unmatched for
        more than ``max_misses`` consecutive processed frames are retired.
        A list of ``Detection``s is packed as ``from_frames`` packs an
        entry's, so it refuses the same class ids and boxes.
        """
        if self._last_frame is not None and frame_index <= self._last_frame:
            raise OutOfOrderFrame(
                f"frame {frame_index} does not increase past {self._last_frame}"
            )
        self._last_frame = frame_index
        if not isinstance(detections, FrameDetections):
            detections = FrameDetections.from_detections(frame_index, detections)

        track_id = np.full(len(detections), -1, dtype=np.int64)
        matched = np.zeros(len(self._ids), dtype=bool)
        spawned: list[int] = []  # rows that spawn a track, in id order
        remaining = np.arange(len(detections))
        if self.config.use_hints:
            remaining = self._associate_by_hint(detections, track_id, matched, spawned)

        # IoU association for the leftovers against unclaimed tracks.
        pool = np.flatnonzero(~matched)
        if len(pool) and len(remaining):
            pairs = kernels.greedy_associate(
                self._boxes[pool], detections.boxes[remaining], self.config.iou_min
            )
            if pairs:
                rows, cols = np.array(pairs, dtype=np.int64).T
                self._extend(pool[rows], remaining[cols], detections, track_id, matched)
                remaining = remaining[track_id[remaining] < 0]
        spawned.extend(remaining.tolist())

        new_ids = np.arange(self._next_id, self._next_id + len(spawned), dtype=np.int64)
        self._next_id += len(spawned)
        track_id[spawned] = new_ids
        is_new = np.zeros(len(detections), dtype=bool)
        is_new[spawned] = True

        # Age and retire: every track this step did not claim misses once.
        misses = np.where(matched, 0, self._misses + 1)
        keep = misses <= self.config.max_misses
        if self.config.use_hints:
            self._hint = np.concatenate((self._hint[keep], detections.hint[spawned]))
            self._has_hint = np.concatenate((self._has_hint[keep], detections.has_hint[spawned]))
        self._ids = np.concatenate((self._ids[keep], new_ids))
        self._boxes = np.concatenate((self._boxes[keep], detections.boxes[spawned]))
        self._misses = np.concatenate((misses[keep], np.zeros(len(spawned), dtype=np.int64)))
        return Assignments(detections, track_id, is_new)

    def _extend(self, positions, rows, detections, track_id, matched) -> None:
        """The live tracks at ``positions`` take the boxes of ``rows``."""
        self._boxes[positions] = detections.boxes[rows]
        track_id[rows] = self._ids[positions]
        matched[positions] = True

    def _associate_by_hint(self, detections, track_id, matched, spawned) -> np.ndarray:
        """Hinted rows extend the newest live track of their hint, unless an
        earlier row of this step claimed it; else they spawn (appended to
        ``spawned``). Returns the unhinted rows."""
        hinted = np.flatnonzero(self._has_hint)
        # hint -> position of its newest live track; -1: spawned now
        by_hint = dict(zip(self._hint[hinted].tolist(), hinted.tolist()))
        positions, rows = [], []
        hints = detections.hint.tolist()
        for row, has in enumerate(detections.has_hint.tolist()):
            if not has:
                continue
            pos = by_hint.get(hints[row], -1)
            if pos >= 0 and not matched[pos]:
                matched[pos] = True
                positions.append(pos)
                rows.append(row)
            else:
                spawned.append(row)
                by_hint[hints[row]] = -1
        if rows:
            self._extend(np.array(positions), np.array(rows), detections, track_id, matched)
        return np.flatnonzero(~detections.has_hint)
