"""One simulation run in two passes: associate once, then schedule.

``associate`` walks the stream at the clock's frame stride through the
tracker and attaches each tracked detection's sidecar record and cost;
nothing in it depends on the policy. It reads each frame as a block of the
stream's columns and hands each frame with rows on as NumPy columns. The
scheduling pass scores a frame's rows as one block, asks the policy for
selections against a rolling budget ledger, and records every
transmission plus the per-track class timeline. ``sweep`` associates
once and schedules every variant over the same columns. Runs are strictly
sequential and deterministic for fixed inputs.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import repeat
from typing import Iterable, Iterator, Optional, Union

import numpy as np

from . import policy as policy_mod
from .budget import BudgetLedger, CostModel, estimate_cost
from .config import RunConfig, dump_config
from .domain import FrameClock, PolicyConfig
from .errors import InvalidParam
from .ingest import DetectionStream, SemanticSidecar
from .runlog import (
    CLASS_SOURCE_STILL,
    CLASS_SOURCE_VIDEO,
    ClassEvent,
    RunLog,
    TransmissionRecord,
)
from .tracker import Tracker, TrackerConfig


def processed_frame_range(first: Optional[int], last: Optional[int], stride: int) -> list[int]:
    """Frame indices processed for a stream spanning [first, last]: the
    multiples of ``stride`` inside the span, none if ``first`` is None."""
    if first is None:
        return []
    start = first if first % stride == 0 else first + (stride - first % stride)
    return list(range(start, last + 1, stride))


def associate(
    stream: DetectionStream,
    sidecar: Optional[SemanticSidecar],
    clock: FrameClock,
    tracker_cfg: TrackerConfig,
    cost: CostModel,
) -> Iterator[tuple[int, float, policy_mod.FrameColumns]]:
    """Yield ``(frame_index, now, columns)`` for every processed frame with
    rows, in order; row ``i`` of ``columns`` is the frame's ``i``-th tracked
    detection, with its track, sidecar record and cost. The tracker steps,
    and the clock stamps, every processed frame: tracks age on empty ones.

    Sidecar keys live in the annotation's id space when hints exist;
    tracker ids are a relabeling, so the hint is preferred. A record's
    ``payload_bytes`` overrides the cost model.
    """
    tracker = Tracker(tracker_cfg)
    created = np.empty(0, dtype=np.int64)  # track id -> frame it was spawned on
    for frame_index in processed_frame_range(
        stream.first_frame, stream.last_frame, clock.frame_stride
    ):
        dets = stream.block_at(frame_index)
        assigned = tracker.step(frame_index, dets)
        if not len(dets):
            clock.timestamp(frame_index)
            continue
        track_id = assigned.track_id
        created = _grown(created, int(track_id.max()) + 1, 0)
        created[track_id[assigned.is_new]] = frame_index
        w, h = dets.boxes[:, 2], dets.boxes[:, 3]
        # a cost or area beyond the float range is refused below, or by
        # score_block, so the arithmetic may overflow quietly
        with np.errstate(over="ignore"):
            cost_bits = np.full(len(dets), estimate_cost(w, h, cost))
            area = w * h
        if sidecar is None:
            records = (None,) * len(dets)
        else:
            keys = zip(dets.has_hint.tolist(), dets.hint.tolist(), track_id.tolist())
            records = tuple(
                sidecar.get(frame_index, hint if has else tid) for has, hint, tid in keys
            )
            for row, rec in enumerate(records):
                if rec is not None and rec.payload_bytes is not None:
                    cost_bits[row] = rec.payload_bytes * 8.0
        finite = np.isfinite(cost_bits)
        if not finite.all():
            row = int(np.argmin(finite))
            raise InvalidParam(
                f"cost_bits is not finite at frame {frame_index}, "
                f"track {int(track_id[row])}: {float(cost_bits[row])}"
            )
        columns = policy_mod.FrameColumns(
            bboxes=dets.bboxes,
            records=records,
            track_id=track_id,
            created=created[track_id],
            conf=dets.conf,
            area=area,
            cost_bits=cost_bits,
            class_id=dets.cls,
        )
        yield frame_index, clock.timestamp(frame_index), columns


#: Per-track class state: which source set the label downstream assumes.
_NO_CLASS, _VIDEO_CLASS, _STILL_CLASS = 0, 1, 2


def _grown(table: np.ndarray, size: int, fill: int) -> np.ndarray:
    """``table`` extended with ``fill`` to at least ``size`` entries."""
    if size <= len(table):
        return table
    extra = np.full(max(size, 2 * len(table)) - len(table), fill, dtype=table.dtype)
    return np.concatenate((table, extra))


def _schedule(
    frames: Iterable[tuple[int, float, policy_mod.FrameColumns]],
    stream: DetectionStream,
    cfg: RunConfig,
) -> RunLog:
    """Scheduling pass: everything that depends on the policy.

    Per-track state lives in arrays indexed by track id: the last frame a
    track was refined on and the class label (and its source) downstream
    assumes for it. Records are built straight from the block rows the
    policy selects. The log echoes ``dump_config(cfg)``. Every frame has rows.
    """
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
    log.first_frame = stream.first_frame
    log.last_frame = stream.last_frame
    log.processed_frame_indices = tuple(
        processed_frame_range(stream.first_frame, stream.last_frame, cfg.clock.frame_stride)
    )

    ledger = BudgetLedger(cfg.budget.b_roi, cfg.budget.window_s)
    last_refined = np.empty(0, dtype=np.int64)
    class_label = np.empty(0, dtype=np.int64)
    class_source = np.empty(0, dtype=np.int8)
    conf_sum = 0.0

    for frame_index, now, cols in frames:
        log.raw_candidate_count += len(cols)
        track_id = cols.track_id
        size = int(track_id.max()) + 1
        last_refined = _grown(last_refined, size, policy_mod.NEVER_REFINED)
        class_label = _grown(class_label, size, 0)
        class_source = _grown(class_source, size, _NO_CLASS)
        # sequential, as a per-row sum always was: np.sum would sum pairwise
        for conf in cols.conf.tolist():
            conf_sum += conf

        block = policy_mod.score_block(frame_index, cols, last_refined[track_id], cfg.policy)

        # Video-side class estimate: updates only while no still label is
        # pinned for the track (replacement rule). A track has at most one
        # row per frame, so one gather and one scatter equal a row loop.
        source = class_source[track_id]
        changed = (
            (source == _NO_CLASS)
            | ((source == _VIDEO_CLASS) & (class_label[track_id] != cols.class_id))
        ).nonzero()[0]
        if len(changed):
            tids = track_id[changed]
            class_label[tids] = cols.class_id[changed]
            class_source[tids] = _VIDEO_CLASS
            log.class_events.extend(
                map(
                    ClassEvent,
                    repeat(frame_index),
                    repeat(now),
                    tids.tolist(),
                    cols.class_id[changed].tolist(),
                    repeat(CLASS_SOURCE_VIDEO),
                )
            )

        decision = policy_mod.decide(frame_index, block, ledger.view(now), cfg.policy)
        log.rejected_threshold += decision.rejected_threshold
        log.rejected_budget += decision.rejected_budget

        for row in decision.selected:
            cost_bits = float(cols.cost_bits[row])
            # Commit-time re-check: budget safety must not depend on the
            # policy having honored the ledger view.
            if not ledger.admits(now, cost_bits):
                log.rejected_budget += 1
                continue
            ledger.commit(now, cost_bits)
            tid = int(track_id[row])
            last_refined[tid] = frame_index
            rec = cols.records[row]
            log.transmissions.append(
                TransmissionRecord(
                    frame_index=frame_index,
                    t_s=now,
                    track_id=tid,
                    bbox=cols.bboxes[row],
                    cost_bits=cost_bits,
                    score=float(block.score[row]),
                    u_term=float(block.u_term[row]),
                    s_small_term=float(block.s_small_term[row]),
                    # n is 0.0 or 1.0; the literals are shared objects, as
                    # novelty_term's are
                    n_term=1.0 if block.n_term[row] else 0.0,
                    video_conf=rec.video_conf if rec else None,
                    still_conf=rec.still_conf if rec else None,
                    video_label=rec.video_label if rec else None,
                    still_label=rec.still_label if rec else None,
                    video_entropy=rec.video_entropy if rec else None,
                    still_entropy=rec.still_entropy if rec else None,
                )
            )
            if rec is not None:
                if class_label[tid] != rec.still_label:
                    log.class_events.append(
                        ClassEvent(frame_index, now, tid, rec.still_label, CLASS_SOURCE_STILL)
                    )
                class_label[tid] = rec.still_label
                class_source[tid] = _STILL_CLASS

    log.detection_conf_mean = conf_sum / max(log.raw_candidate_count, 1)
    return log


def run(
    stream: DetectionStream, sidecar: Optional[SemanticSidecar], cfg: RunConfig
) -> RunLog:
    """Simulate one policy over one stream. Empty streams yield empty logs."""
    frames = associate(stream, sidecar, cfg.clock, cfg.tracker, cfg.cost)
    return _schedule(frames, stream, cfg)


def sweep(
    stream: DetectionStream,
    sidecar: Optional[SemanticSidecar],
    base_cfg: RunConfig,
    policy_variants: list[Union[str, PolicyConfig]],
) -> list[tuple[str, RunLog]]:
    """Run several policies over the identical stream and budget regime.

    Results follow the input order. The stream is associated once and every
    variant is scheduled over the same rows with a fresh ledger; each log
    equals what ``run`` gives for that variant alone. The shared stream and
    sidecar are never mutated.
    """
    if not policy_variants:
        raise InvalidParam("policy_variants must be nonempty")
    cfgs = []
    for pol in policy_variants:
        if not isinstance(pol, PolicyConfig):
            pol = replace(base_cfg.policy, variant=pol)
        cfgs.append(replace(base_cfg, policy=pol))
    frames = list(associate(stream, sidecar, base_cfg.clock, base_cfg.tracker, base_cfg.cost))
    return [(cfg.policy.variant, _schedule(frames, stream, cfg)) for cfg in cfgs]
