"""Shared builders for the test suite, the dict-based association pass and
the scalar scheduling pass (with its own from-scratch ledger) that the
columnar ones are checked against, and the ``json.dumps`` run-log writer
that the record templates are checked against. Other oracles live in the
test modules."""

from __future__ import annotations

import io
import json
import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import reduce
from operator import add
from types import SimpleNamespace
from typing import Iterator, Optional

import numpy as np

from roitel import (
    BBox,
    BudgetConfig,
    BudgetViolation,
    CandidateBlock,
    ConfigError,
    CostModel,
    Decision,
    Detection,
    DetectionStream,
    EvalConfig,
    FrameClock,
    FrameColumns,
    LedgerView,
    ParseError,
    PolicyConfig,
    RoitelError,
    RunConfig,
    RunLog,
)
from roitel import _text, ingest, kernels, metrics, runlog
from roitel.budget import estimate_cost
from roitel.config import dump_config
from roitel.engine import processed_frame_range
from roitel.errors import InvalidParam, OutOfOrderFrame
from roitel.semantic import SemanticSidecar
from roitel.policy import (
    NEVER_REFINED,
    PERMISSIVE_CONF_GATE,
    PRESET_AREA_GATE,
    PRESET_CONF_GATE,
    PRESET_RELAXED_SCORE_GATE,
    RoiCandidate,
    _effective_top_k,
    _require,
    make_candidate,
)
from roitel.runlog import (
    CLASS_SOURCE_STILL,
    CLASS_SOURCE_VIDEO,
    ClassEvent,
    TransmissionRecord,
    _header_obj,
)
from roitel.tracker import TrackerConfig


def mk_bbox(x=0.0, y=0.0, w=10.0, h=10.0) -> BBox:
    return BBox(x, y, w, h)


def box_numbers(bboxes) -> np.ndarray:
    """The (N, 4) object array of ``bboxes``' numbers as given, the form a
    ``FrameColumns.xywh`` holds for a stream built from objects."""
    return np.array([[b.x, b.y, b.w, b.h] for b in bboxes], dtype=object).reshape(-1, 4)


def mk_det(frame, x=0.0, y=0.0, w=10.0, h=10.0, conf=0.9, cls=0, hint=None) -> Detection:
    return Detection(
        frame_index=frame,
        bbox=BBox(x, y, w, h),
        confidence=conf,
        class_id=cls,
        track_hint=hint,
    )


def mk_stream(frames, clock: Optional[FrameClock] = None) -> DetectionStream:
    """frames: iterable of (frame_index, [Detection, ...])."""
    return DetectionStream.from_frames(clock or FrameClock(), frames)


def low_regime_cfg(variant="M5", *, base_measured=None, window_s=2.0, **policy_kw) -> RunConfig:
    """Hybrid low-bitrate split with a given policy variant."""
    if variant == "M5" and "score_threshold" not in policy_kw:
        policy_kw["score_threshold"] = 0.0
    return RunConfig(
        clock=FrameClock(fps=15.0, frame_stride=5),
        budget=BudgetConfig(
            b_total=0.8e6, b_video=0.65e6, b_roi=0.15e6, window_s=window_s
        ),
        policy=PolicyConfig(variant=variant, **policy_kw),
        tracker=TrackerConfig(),
        cost=CostModel(),
        eval=EvalConfig(),
        base_bitrate_measured=base_measured,
    )


def compensated_sum(values, start=0):
    """The builtin ``sum`` of Python 3.12 and later over floats: Neumaier's
    compensated summation, step for step as CPython does it."""
    values = list(values)
    if not values:
        return start
    total, comp = float(start), 0.0
    for x in values:
        t = total + x
        if abs(total) >= abs(x):
            comp += (total - t) + x
        else:
            comp += (x - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


# --- association oracle -------------------------------------------------------
#
# The association pass as it was before it ran on columns: one Detection per
# row, live tracks as Track objects in a dict, the dense IoU matrix and
# greedy_match, and one cost per box. The IoU references come first: the
# scalar formula, the dense matrix and greedy matching on it, which
# ``kernels.greedy_associate`` is checked against.


def iou(a: BBox, b: BBox) -> float:
    """Intersection-over-union of two boxes; symmetric, 0 when disjoint."""
    left = max(a.x, b.x)
    top = max(a.y, b.y)
    right = min(a.x + a.w, b.x + b.w)
    bottom = min(a.y + a.h, b.y + b.h)
    iw = right - left
    ih = bottom - top
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = a.w * a.h + b.w * b.h - inter
    if union <= 0.0:
        return 0.0
    # identical boxes can round to inter > union by a few ulps
    return min(inter / union, 1.0)


def _pair_iou(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """IoU of row-aligned box pairs: intersection over union, 0.0 for
    disjoint or touching boxes, at most 1.0."""
    # x and y side by side: column 0 is the overlap width, column 1 the height
    side = np.minimum(pa[:, :2] + pa[:, 2:], pb[:, :2] + pb[:, 2:])
    # far-apart boxes can overflow to -inf here, which the clip makes 0
    with np.errstate(over="ignore"):
        side -= np.maximum(pa[:, :2], pb[:, :2])
    np.maximum(side, 0.0, out=side)
    inter = side[:, 0] * side[:, 1]
    union = pa[:, 2] * pa[:, 3] + pb[:, 2] * pb[:, 3] - inter
    val = np.divide(inter, union, out=np.zeros_like(inter), where=union > 0.0)
    # identical boxes can round to inter > union by a few ulps
    return np.minimum(val, 1.0, out=val)


def pairwise_iou(boxes_a, boxes_b) -> np.ndarray:
    """Dense IoU matrix between two box sets, every pair through the
    (N, 4) pair expression ``_pair_iou``; rows index boxes_a, cols boxes_b."""
    a = kernels.as_box_array(boxes_a)
    b = kernels.as_box_array(boxes_b)
    n, m = len(a), len(b)
    return _pair_iou(np.repeat(a, m, axis=0), np.tile(b, (n, 1))).reshape(n, m)


def greedy_match(iou_matrix, min_iou: float) -> list[tuple[int, int]]:
    """Greedy one-to-one matching on a precomputed IoU matrix.

    Pairs are taken in descending IoU order among pairs with
    ``iou >= min_iou``; ties break toward the lower row index, then the
    lower column index. Returns (row, col) pairs in selection order.
    """
    mat = np.asarray(iou_matrix, dtype=np.float64)
    if mat.ndim != 2:
        raise InvalidParam(f"expected a 2-D IoU matrix, got shape {mat.shape}")
    rows, cols = np.nonzero(mat >= float(min_iou))
    order = np.lexsort((cols, rows, -mat[rows, cols]))
    used_rows, used_cols, matches = set(), set(), []
    for r, c in zip(rows[order].tolist(), cols[order].tolist()):
        if r not in used_rows and c not in used_cols:
            used_rows.add(r)
            used_cols.add(c)
            matches.append((r, c))
    return matches


@dataclass
class Track:
    id: int
    last_bbox: BBox
    consecutive_misses: int = 0
    hint: Optional[int] = None


class RefTracker:
    """The tracker with one Track object per live track."""

    def __init__(self, config: Optional[TrackerConfig] = None):
        self.config = config or TrackerConfig()
        self._tracks: dict[int, Track] = {}
        self._next_id = 0
        self._last_frame: Optional[int] = None

    def step(self, frame_index: int, detections: list[Detection]) -> list[tuple[Detection, int, bool]]:
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

        pool = [t for t in self._tracks.values() if t.id not in matched_track_ids]
        if pool and remaining:
            t_boxes = [(t.last_bbox.x, t.last_bbox.y, t.last_bbox.w, t.last_bbox.h) for t in pool]
            d_boxes = [
                (b.x, b.y, b.w, b.h) for b in (detections[i].bbox for i in remaining)
            ]
            mat = pairwise_iou(t_boxes, d_boxes)
            for row, col in greedy_match(mat, self.config.iou_min):
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


def ref_associate(
    stream: DetectionStream,
    sidecar: Optional[SemanticSidecar],
    clock: FrameClock,
    tracker_cfg: TrackerConfig,
    cost: CostModel,
) -> Iterator[tuple[int, float, FrameColumns]]:
    """``engine.associate`` over Detection objects, one row at a time."""
    tracker = RefTracker(tracker_cfg)
    created: dict[int, int] = {}
    last_class: dict[int, int] = {}  # each track's class on its last row
    # each record's row, found by its key, not by searching the columns
    row_of: dict[tuple[int, int], int] = {}
    for row in range(len(sidecar) if sidecar is not None else 0):
        rec = sidecar.record(row)
        row_of[rec.frame_index, rec.track_id] = row
    for frame_index in processed_frame_range(
        stream.first_frame, stream.last_frame, clock.frame_stride
    ):
        assignments = tracker.step(frame_index, list(stream.detections_at(frame_index)))
        if not assignments:
            clock.timestamp(frame_index)
            continue
        dets, track_ids, new_flags = zip(*assignments)
        created.update((tid, frame_index) for tid, is_new in zip(track_ids, new_flags) if is_new)
        video_change = [
            is_new or last_class[tid] != det.class_id
            for det, tid, is_new in zip(dets, track_ids, new_flags)
        ]
        last_class.update((tid, det.class_id) for det, tid in zip(dets, track_ids))
        rows = [
            row_of.get((frame_index, det.track_hint if det.track_hint is not None else tid), -1)
            for det, tid in zip(dets, track_ids)
        ]
        records = [sidecar.record(row) if row >= 0 else None for row in rows]
        bboxes = tuple(det.bbox for det in dets)
        costs = [
            rec.payload_bytes * 8.0
            if rec is not None and rec.payload_bytes is not None
            else estimate_cost(bbox.w, bbox.h, cost)
            for bbox, rec in zip(bboxes, records)
        ]
        cost_bits = np.array(costs, dtype=np.float64)
        finite = np.isfinite(cost_bits)
        if not finite.all():
            row = int(np.argmin(finite))
            raise InvalidParam(
                f"cost_bits is not finite at frame {frame_index}, "
                f"track {track_ids[row]}: {costs[row]}"
            )
        columns = FrameColumns(
            xywh=box_numbers(bboxes),
            records=np.array(rows, dtype=np.int64),
            semantics=None if sidecar is None else sidecar.semantics,
            track_id=np.array(track_ids, dtype=np.int64),
            created=np.array([created[tid] for tid in track_ids], dtype=np.int64),
            conf=np.array([det.confidence for det in dets], dtype=np.float64),
            area=np.array([bbox.w * bbox.h for bbox in bboxes], dtype=np.float64),
            cost_bits=cost_bits,
            class_id=np.array([det.class_id for det in dets], dtype=np.int64),
            video_change=np.array(video_change, dtype=bool),
        )
        yield frame_index, clock.timestamp(frame_index), columns


# --- score terms -------------------------------------------------------------
#
# The score's four formulas, one function each, for tests that compute an
# expected score by hand.


def uncertainty_term(det_conf: float) -> float:
    """1 - confidence: fully confident objects contribute no urgency."""
    if not (0.0 <= det_conf <= 1.0):
        raise InvalidParam(f"confidence must be in [0,1], got {det_conf}")
    return 1.0 - det_conf


def size_term(bbox: BBox, area_ref: float) -> float:
    """Linear small-object priority: 1 near zero area, 0 at/above area_ref."""
    if not area_ref > 0:
        raise InvalidParam(f"area_ref must be > 0, got {area_ref}")
    return min(max(1.0 - bbox.area() / area_ref, 0.0), 1.0)


def novelty_term(
    last_refined_frame: Optional[int], frame_index: int, cooldown_frames: int
) -> float:
    """1 when never refined, or the last refinement is outside the cooldown."""
    if last_refined_frame is None:
        return 1.0
    return 1.0 if (frame_index - last_refined_frame) > cooldown_frames else 0.0


def score_roi(
    u: float,
    s: float,
    n: float,
    cost_bits: float,
    weights: tuple[float, float, float],
) -> float:
    """Utility-per-bit score: weighted term sum divided by cost in bits."""
    if not cost_bits > 0:
        raise InvalidParam(f"cost_bits must be > 0, got {cost_bits}")
    w_u, w_s, w_n = weights
    return (w_u * u + w_s * s + w_n * n) / cost_bits


# --- scalar scheduling oracle -------------------------------------------------
#
# The scheduling pass as it was before it ran on columns: one RoiCandidate and
# one CandidateContext per row, a Python sort, and dicts for per-track state.


@dataclass(frozen=True)
class CandidateContext:
    """A candidate plus the track facts the trigger rules consult."""

    candidate: RoiCandidate
    confidence: float
    created_frame: int
    last_refined_frame: Optional[int]


def scalar_triggered(ctx: CandidateContext, cfg: PolicyConfig) -> bool:
    """Variant trigger rule for one candidate."""
    v = cfg.variant
    if v == "M0":
        return False
    if v == "M1":
        since = ctx.candidate.frame_index - (
            ctx.last_refined_frame if ctx.last_refined_frame is not None else ctx.created_frame
        )
        return since >= cfg.period_frames
    if v == "M2":
        return ctx.created_frame == ctx.candidate.frame_index
    if v == "M3":
        return ctx.confidence < _require(cfg, "conf_threshold")
    if v == "M4":
        return ctx.candidate.bbox.area() < _require(cfg, "area_threshold")
    if v == "M5":
        return ctx.candidate.score > _require(cfg, "score_threshold")
    if v == "preset_permissive":
        gate = cfg.conf_threshold if cfg.conf_threshold is not None else PERMISSIVE_CONF_GATE
        return ctx.confidence >= gate
    if v == "preset_conf_size_top1":
        conf_gate = cfg.conf_threshold if cfg.conf_threshold is not None else PRESET_CONF_GATE
        area_gate = cfg.area_threshold if cfg.area_threshold is not None else PRESET_AREA_GATE
        return ctx.confidence >= conf_gate and ctx.candidate.bbox.area() < area_gate
    if v == "preset_strict_small_only":
        area_gate = cfg.area_threshold if cfg.area_threshold is not None else PRESET_AREA_GATE
        return ctx.candidate.bbox.area() < area_gate
    if v == "preset_balanced_top2":
        gate = (
            cfg.score_threshold
            if cfg.score_threshold is not None
            else PRESET_RELAXED_SCORE_GATE
        )
        return ctx.candidate.score > gate
    raise ConfigError(f"unknown policy variant {v!r}")


def scalar_decide(
    frame_index: int,
    contexts: list[CandidateContext],
    ledger_view: LedgerView,
    cfg: PolicyConfig,
) -> Decision:
    """Select one step's transmissions, one context at a time; the selected
    rows index ``contexts``."""
    eligible: list[int] = []
    rejected_threshold = 0
    for row, ctx in enumerate(contexts):
        if scalar_triggered(ctx, cfg):
            eligible.append(row)
        else:
            rejected_threshold += 1

    eligible.sort(key=lambda r: (-contexts[r].candidate.score, contexts[r].candidate.track_id))

    top_k = _effective_top_k(cfg)
    selected: list[int] = []
    rejected_budget = 0
    sim_sum = ledger_view.window_sum_bits
    for row in eligible:
        if len(selected) >= top_k:
            break
        cost = contexts[row].candidate.cost_bits
        if sim_sum + cost <= ledger_view.cap_bits:
            selected.append(row)
            sim_sum = sim_sum + cost
        else:
            rejected_budget += 1

    return Decision(
        selected=tuple(selected),
        rejected_budget=rejected_budget,
        rejected_threshold=rejected_threshold,
    )


class RefLedger:
    """``BudgetLedger`` as it was before it kept its last window sum: every
    window is added from its start, in commit order."""

    def __init__(self, b_roi: float, window_s: float):
        if b_roi < 0:
            raise InvalidParam(f"b_roi must be >= 0, got {b_roi}")
        if not window_s > 0:
            raise InvalidParam(f"window_s must be > 0, got {window_s}")
        self.cap_bits = b_roi * window_s
        self.window_s = window_s
        self._ts: list[float] = []
        self._bits: list[float] = []

    def window_sum(self, now_s: float) -> float:
        lo = bisect_right(self._ts, now_s - self.window_s)
        hi = bisect_right(self._ts, now_s, lo)
        return reduce(add, self._bits[lo:hi], 0)

    def admits(self, now_s: float, bits: float) -> bool:
        if not bits > 0:
            raise InvalidParam(f"bits must be > 0, got {bits}")
        return self.window_sum(now_s) + bits <= self.cap_bits

    def view(self, now_s: float) -> LedgerView:
        return LedgerView(window_sum_bits=self.window_sum(now_s), cap_bits=self.cap_bits)

    def commit(self, now_s: float, bits: float) -> None:
        if not self.admits(now_s, bits):
            raise BudgetViolation(
                f"commit of {bits} bits at t={now_s} exceeds cap {self.cap_bits}"
            )
        if self._ts and now_s < self._ts[-1]:
            raise InvalidParam(f"commit time {now_s} precedes last entry {self._ts[-1]}")
        self._ts.append(now_s)
        self._bits.append(bits)


def semantic_fields(semantics, row: int) -> Optional[SimpleNamespace]:
    """The classifier fields of row ``row`` of a sidecar's ``semantics``
    column by name, or None for row -1."""
    if row < 0:
        return None
    return SimpleNamespace(**dict(zip(semantics.dtype.names, semantics.item(row))))


def scalar_schedule(
    frames, span: tuple[Optional[int], Optional[int]], cfg: RunConfig
) -> RunLog:
    """The scheduling pass over ``engine.associate``'s frames and the
    stream's ``(first_frame, last_frame)`` span, row by row."""
    log = RunLog(
        variant=cfg.policy.variant,
        clock=cfg.clock,
        budget=cfg.budget,
        base_bitrate_bps=(
            cfg.base_bitrate_measured
            if cfg.base_bitrate_measured is not None
            else cfg.budget.b_video
        ),
        duration_s=cfg.eval.duration_s,
        config_echo=dump_config(cfg),
    )
    log.first_frame, log.last_frame = span
    # the association pass hands on only frames with rows; the log lists
    # every processed frame of the span
    log.processed_frame_indices = tuple(processed_frame_range(*span, cfg.clock.frame_stride))

    ledger = RefLedger(cfg.budget.b_roi, cfg.budget.window_s)
    last_refined: dict[int, int] = {}
    class_state: dict[int, tuple[str, int]] = {}
    conf_sum = 0.0
    conf_n = 0

    for frame_index, now, cols in frames:
        log.raw_candidate_count += len(cols)
        rows = zip(
            [BBox(*box) for box in cols.xywh.tolist()],
            cols.conf.tolist(),
            cols.class_id.tolist(),
            cols.track_id.tolist(),
            cols.created.tolist(),
            [semantic_fields(cols.semantics, row) for row in cols.records.tolist()],
            cols.cost_bits.tolist(),
        )
        contexts = []
        records = []
        for bbox, conf, class_id, track_id, created_frame, rec, cost_bits in rows:
            conf_sum += conf
            conf_n += 1
            refined = last_refined.get(track_id)
            cand = make_candidate(
                frame_index=frame_index,
                track_id=track_id,
                bbox=bbox,
                confidence=conf,
                last_refined_frame=refined,
                cost_bits=cost_bits,
                cfg=cfg.policy,
            )
            contexts.append(CandidateContext(cand, conf, created_frame, refined))
            records.append(rec)
            state = class_state.get(track_id)
            if state is None or (state[0] == CLASS_SOURCE_VIDEO and state[1] != class_id):
                class_state[track_id] = (CLASS_SOURCE_VIDEO, class_id)
                log.class_events.append(
                    ClassEvent(frame_index, now, track_id, class_id, CLASS_SOURCE_VIDEO)
                )

        decision = scalar_decide(frame_index, contexts, ledger.view(now), cfg.policy)
        log.rejected_threshold += decision.rejected_threshold
        log.rejected_budget += decision.rejected_budget

        for row in decision.selected:
            cand = contexts[row].candidate
            if not ledger.admits(now, cand.cost_bits):
                log.rejected_budget += 1
                continue
            ledger.commit(now, cand.cost_bits)
            last_refined[cand.track_id] = frame_index
            rec = records[row]
            log.transmissions.append(
                TransmissionRecord(
                    frame_index=frame_index,
                    t_s=now,
                    track_id=cand.track_id,
                    bbox=cand.bbox,
                    cost_bits=cand.cost_bits,
                    score=cand.score,
                    u_term=cand.u_term,
                    s_small_term=cand.s_small_term,
                    n_term=cand.n_term,
                    video_conf=rec.video_conf if rec else None,
                    still_conf=rec.still_conf if rec else None,
                    video_label=rec.video_label if rec else None,
                    still_label=rec.still_label if rec else None,
                    video_entropy=rec.video_entropy if rec else None,
                    still_entropy=rec.still_entropy if rec else None,
                )
            )
            if rec is not None:
                state = class_state.get(cand.track_id)
                if state is None or state[1] != rec.still_label:
                    log.class_events.append(
                        ClassEvent(
                            frame_index, now, cand.track_id, rec.still_label, CLASS_SOURCE_STILL
                        )
                    )
                class_state[cand.track_id] = (CLASS_SOURCE_STILL, rec.still_label)

    log.detection_conf_mean = conf_sum / conf_n if conf_n else 0.0
    return log


def as_block(frame_index: int, contexts: list[CandidateContext]) -> CandidateBlock:
    """The columnar form of one frame's contexts, row for row, with the
    terms and scores the contexts carry."""
    cands = [ctx.candidate for ctx in contexts]
    assert all(c.frame_index == frame_index for c in cands)
    cols = FrameColumns(
        xywh=box_numbers(c.bbox for c in cands),
        records=np.full(len(cands), -1, dtype=np.int64),
        track_id=np.array([c.track_id for c in cands], dtype=np.int64),
        created=np.array([ctx.created_frame for ctx in contexts], dtype=np.int64),
        conf=np.array([ctx.confidence for ctx in contexts], dtype=np.float64),
        area=np.array([c.bbox.area() for c in cands], dtype=np.float64),
        cost_bits=np.array([c.cost_bits for c in cands], dtype=np.float64),
        class_id=np.zeros(len(cands), dtype=np.int64),
        video_change=np.zeros(len(cands), dtype=bool),
    )
    refined = [
        NEVER_REFINED if ctx.last_refined_frame is None else ctx.last_refined_frame
        for ctx in contexts
    ]
    return CandidateBlock(
        cols,
        last_refined=np.array(refined, dtype=np.int64),
        u_term=np.array([c.u_term for c in cands], dtype=np.float64),
        s_small_term=np.array([c.s_small_term for c in cands], dtype=np.float64),
        n_term=np.array([c.n_term for c in cands], dtype=np.float64),
        score=np.array([c.score for c in cands], dtype=np.float64),
    )


def tx_obj(tx: TransmissionRecord) -> dict:
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


def class_obj(ev: ClassEvent) -> dict:
    return {
        "kind": "class",
        "frame": ev.frame_index,
        "t_s": ev.t_s,
        "track": ev.track_id,
        "label": ev.label,
        "source": ev.source,
    }


def json_lines(log: RunLog) -> list[str]:
    """The run log's lines with every record written by ``json.dumps``, keys
    sorted: the reference for ``runlog.to_jsonl_lines``."""
    objs = [_header_obj(log), *map(tx_obj, log.transmissions), *map(class_obj, log.class_events)]
    return [json.dumps(obj, sort_keys=True) for obj in objs]


def read_outcome(read, text):
    """What one run-log read gives, in a form that tells -0.0 from 0.0 and 1
    from 1.0: the log, or the error's line and message."""
    try:
        log = read(text)
    except ParseError as err:
        return ("raised", err.line_no, str(err))
    return ("read", repr(log))


def read_and_aggregate(source):
    """A run log's header and report from the whole log: the reference for
    ``metrics.fold_jsonl``."""
    log = runlog.read_jsonl(source)
    return log, metrics.aggregate_run(log)


def fold_result(fold, source):
    """What one fold gives: the header and the report, or the error."""
    try:
        return fold(source)
    except RoitelError as err:
        return err


def fold_facts(result):
    """A fold's result in a form that tells -0.0 from 0.0 and 1 from 1.0:
    the header without records and the report, or the error."""
    if isinstance(result, RoitelError):
        return ("raised", type(result), getattr(result, "line_no", None), str(result))
    header, report = result
    return ("folded", repr(replace(header, transmissions=[], class_events=[])), repr(report))


def block_verdicts(monkeypatch, module, check: str) -> list[bool]:
    """Record, for each call of the block check ``module.<check>``, whether
    it took its block: False where it gave None or raised, and the block
    went to the reference reader."""
    verdicts: list[bool] = []
    fast = getattr(module, check)

    def recorded(*args):
        result = None
        try:
            result = fast(*args)
        finally:
            verdicts.append(result is not None)
        return result

    monkeypatch.setattr(module, check, recorded)
    return verdicts


def plain_checks(monkeypatch) -> list[str]:
    """Record the text of each ``plain_ascii`` call, through every module
    of the package that holds a name for it, so that a reader that imports
    it to check a block again is counted too."""
    calls: list[str] = []
    check = _text.plain_ascii

    def recorded(text):
        calls.append(text)
        return check(text)

    for module in (_text, ingest, runlog):
        if hasattr(module, "plain_ascii"):
            monkeypatch.setattr(module, "plain_ascii", recorded)
    return calls


class SizedReadsOnly(io.StringIO):
    """Text that cannot seek and refuses a read without a size, as some
    pipes and sockets do: a reader must take it in reads of a given size."""

    def seekable(self):
        return False

    def seek(self, *args):
        raise io.UnsupportedOperation("seek")

    def tell(self):
        raise io.UnsupportedOperation("tell")

    def read(self, size=-1):
        if size is None or size < 0:
            raise io.UnsupportedOperation("read without a size")
        return super().read(size)


def parse_rows(text: str, layout, errors_out) -> DetectionStream:
    """The row parser over a whole text, its detections grouped by frame in
    file order and packed by ``DetectionStream.from_frames``: the reference
    every detection parse must agree with."""
    dets, clock = ingest._row_detections(text, 1, layout, errors_out)
    by_frame: dict[int, list] = {}
    for det in dets:
        by_frame.setdefault(det.frame_index, []).append(det)
    return DetectionStream.from_frames(
        clock or FrameClock(), ((f, by_frame[f]) for f in sorted(by_frame))
    )
