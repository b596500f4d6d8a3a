"""Greedy IoU association with persistent track identities.

Deliberately lightweight: no motion model, no low-score recovery stage.
The last observed box is the match target, which is adequate at the strided
decision cadence the simulator runs at. Association can optionally follow
ground-truth identity hints, bypassing IoU for hinted detections.

The live tracks are held as arrays in id order (id, last box, consecutive
misses, and under ``use_hints`` the hint they spawned from), so a step reads
the frame's columns and ages every track in place; no ``Detection`` is
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

    Track ids are assigned monotonically and never reused within a run;
    ``next_id`` is the next one. A step adds a miss to every live track and
    sets a claimed track's to 0, so the claimed tracks are those with none.
    It copies the box arrays for the kernel only after a hint claim, and
    compacts or extends the track arrays only when a track retires or spawns.
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
        self.next_id = 0
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
        first_new_id = self.next_id
        self._misses += 1  # a claim sets them to 0
        spawned: list[int] = []  # hinted rows that spawn a track, in row order
        rows = pool = None  # the rows and live tracks IoU pairs; None: all
        if self.config.use_hints and detections.has_hint.any():
            if self._associate_by_hint(detections, track_id, spawned):
                pool = np.flatnonzero(self._misses)
            rows = np.flatnonzero(~detections.has_hint)

        # IoU association for the leftovers against unclaimed tracks.
        tracks = self._boxes if pool is None else self._boxes[pool]
        boxes = detections.boxes if rows is None else detections.boxes[rows]
        if len(tracks) and len(boxes):
            pairs = kernels.greedy_associate(tracks, boxes, self.config.iou_min)
            if pairs:
                positions, cols = np.array(pairs, dtype=np.int64).T
                positions = positions if pool is None else pool[positions]
                self._extend(positions, cols if rows is None else rows[cols], detections, track_id)

        # Retire the tracks that missed too often, then spawn the leftovers.
        retired = self._misses > self.config.max_misses
        if retired.any():
            keep = ~retired
            self._ids, self._boxes = self._ids[keep], self._boxes[keep]
            self._misses = self._misses[keep]
            if self.config.use_hints:
                self._hint, self._has_hint = self._hint[keep], self._has_hint[keep]
        leftover = np.flatnonzero(track_id < 0) if rows is None else rows[track_id[rows] < 0]
        new_rows = np.concatenate((spawned, leftover)) if spawned else leftover
        if len(new_rows):
            new_ids = np.arange(first_new_id, first_new_id + len(new_rows), dtype=np.int64)
            self.next_id += len(new_rows)
            track_id[new_rows] = new_ids
            self._ids = np.concatenate((self._ids, new_ids))
            self._boxes = np.concatenate((self._boxes, detections.boxes[new_rows]))
            self._misses = np.concatenate((self._misses, np.zeros_like(new_ids)))
            if self.config.use_hints:
                self._hint = np.concatenate((self._hint, detections.hint[new_rows]))
                self._has_hint = np.concatenate((self._has_hint, detections.has_hint[new_rows]))
        is_new = track_id >= first_new_id
        return Assignments(detections, track_id, is_new)

    def _extend(self, positions, rows, detections, track_id) -> None:
        """The live tracks at ``positions`` take the boxes of ``rows``, and
        are claimed."""
        self._boxes[positions] = detections.boxes[rows]
        track_id[rows] = self._ids[positions]
        self._misses[positions] = 0

    def _associate_by_hint(self, detections, track_id, spawned) -> bool:
        """Hinted rows extend the newest live track of their hint, unless an
        earlier row of this step claimed it; else they spawn (appended to
        ``spawned``). Returns whether a track was claimed."""
        hinted = np.flatnonzero(self._has_hint)
        # hint -> position of its newest live track; -1: claimed or spawned now
        by_hint = dict(zip(self._hint[hinted].tolist(), hinted.tolist()))
        positions, rows = [], []
        hints = detections.hint.tolist()
        for row, has in enumerate(detections.has_hint.tolist()):
            if not has:
                continue
            pos = by_hint.get(hints[row], -1)
            if pos >= 0:
                positions.append(pos)
                rows.append(row)
            else:
                spawned.append(row)
            by_hint[hints[row]] = -1
        if rows:
            self._extend(np.array(positions), np.array(rows), detections, track_id)
        return bool(rows)
