"""Greedy IoU association with persistent track identities.

Deliberately lightweight: no motion model, no low-score recovery stage.
The last observed box is the match target, which is adequate at the strided
decision cadence the simulator runs at. Association can optionally follow
ground-truth identity hints, bypassing IoU for hinted detections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import kernels
from .domain import BBox, Detection
from .errors import InvalidParam, OutOfOrderFrame


@dataclass
class Track:
    id: int
    last_bbox: BBox
    consecutive_misses: int = 0
    hint: Optional[int] = None


@dataclass(frozen=True)
class TrackerConfig:
    iou_min: float = 0.3
    max_misses: int = 10
    use_hints: bool = False

    def __post_init__(self):
        if not (0.0 <= self.iou_min <= 1.0):
            raise InvalidParam(f"iou_min must be in [0,1], got {self.iou_min}")
        if self.max_misses < 0:
            raise InvalidParam(f"max_misses must be >= 0, got {self.max_misses}")


#: One per-frame association result: the detection, its track id, and
#: whether the track was created on this processed frame.
Assignment = tuple[Detection, int, bool]


class Tracker:
    """Single-owner mutable tracker state for one simulation run.

    Track ids are assigned monotonically and never reused within a run.
    """

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config or TrackerConfig()
        self._tracks: dict[int, Track] = {}
        self._next_id = 0
        self._last_frame: Optional[int] = None

    def step(self, frame_index: int, detections: list[Detection]) -> list[Assignment]:
        """Associate one processed frame's detections; spawn, age, retire.

        Matching is greedy by descending IoU over pairs with
        ``iou >= iou_min`` (ties: lower track id, then lower detection
        index). Unmatched detections spawn new tracks; tracks unmatched for
        more than ``max_misses`` consecutive processed frames are retired.
        """
        if self._last_frame is not None and frame_index <= self._last_frame:
            raise OutOfOrderFrame(
                f"frame {frame_index} does not increase past {self._last_frame}"
            )
        self._last_frame = frame_index

        assigned: dict[int, tuple[int, bool]] = {}  # det index -> (track id, is_new)
        matched_track_ids: set[int] = set()

        remaining = list(range(len(detections)))
        if self.config.use_hints:
            remaining = self._associate_by_hint(detections, assigned, matched_track_ids)

        # IoU association for the leftovers against unclaimed tracks.
        pool = [t for t in self._tracks.values() if t.id not in matched_track_ids]
        if pool and remaining:
            t_boxes = [(t.last_bbox.x, t.last_bbox.y, t.last_bbox.w, t.last_bbox.h) for t in pool]
            d_boxes = [
                (
                    detections[i].bbox.x,
                    detections[i].bbox.y,
                    detections[i].bbox.w,
                    detections[i].bbox.h,
                )
                for i in remaining
            ]
            for row, col in kernels.greedy_associate(t_boxes, d_boxes, self.config.iou_min):
                track = pool[row]
                det_idx = remaining[col]
                self._update_track(track, detections[det_idx])
                assigned[det_idx] = (track.id, False)
                matched_track_ids.add(track.id)
            remaining = [i for i in remaining if i not in assigned]

        for det_idx in remaining:
            track = self._spawn(detections[det_idx])
            assigned[det_idx] = (track.id, True)
            matched_track_ids.add(track.id)

        self._age_and_retire(matched_track_ids)

        return [
            (detections[i], assigned[i][0], assigned[i][1]) for i in range(len(detections))
        ]

    def _associate_by_hint(self, detections, assigned, matched_track_ids):
        by_hint = {t.hint: t for t in self._tracks.values() if t.hint is not None}
        remaining = []
        for i, det in enumerate(detections):
            if det.track_hint is None:
                remaining.append(i)
                continue
            track = by_hint.get(det.track_hint)
            if track is not None and track.id not in matched_track_ids:
                self._update_track(track, det)
                assigned[i] = (track.id, False)
            else:
                track = self._spawn(det)
                assigned[i] = (track.id, True)
                by_hint[det.track_hint] = track
            matched_track_ids.add(track.id)
        return remaining

    def _update_track(self, track: Track, det: Detection) -> None:
        track.last_bbox = det.bbox
        track.consecutive_misses = 0

    def _spawn(self, det: Detection) -> Track:
        track = Track(id=self._next_id, last_bbox=det.bbox, hint=det.track_hint)
        self._next_id += 1
        self._tracks[track.id] = track
        return track

    def _age_and_retire(self, matched_track_ids: set[int]) -> None:
        retired = []
        for tid, track in self._tracks.items():
            if tid in matched_track_ids:
                continue
            track.consecutive_misses += 1
            if track.consecutive_misses > self.config.max_misses:
                retired.append(tid)
        for tid in retired:
            del self._tracks[tid]
