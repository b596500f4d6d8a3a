"""One simulation run in two passes: associate once, then schedule.

``associate`` walks the stream at the clock's frame stride through the
tracker and attaches each tracked detection's sidecar record and cost;
nothing in it depends on the policy. It hands each processed frame on as
NumPy columns. The scheduling pass scores a frame's rows as one block, asks
the policy for selections against a rolling budget ledger, and records
every transmission plus the per-track class timeline. ``sweep`` associates
once and schedules every variant over the same columns. Runs are strictly
sequential and deterministic for fixed inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Optional, Union

import numpy as np

from . import policy as policy_mod
from .budget import BudgetLedger, CostModel, estimate_cost
from .domain import BudgetConfig, EvalConfig, FrameClock, PolicyConfig
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


@dataclass(frozen=True)
class RunConfig:
    """Everything one run needs; validation lives in the member types."""

    clock: FrameClock
    budget: BudgetConfig
    policy: PolicyConfig
    tracker: TrackerConfig
    cost: CostModel
    eval: EvalConfig
    base_bitrate_measured: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        if self.base_bitrate_measured is not None and self.base_bitrate_measured < 0:
            raise InvalidParam(
                f"base_bitrate_measured must be >= 0, got {self.base_bitrate_measured}"
            )


def processed_frame_range(first: int, last: int, stride: int) -> list[int]:
    """Frame indices processed for a stream spanning [first, last]:
    the multiples of ``stride`` inside the span."""
    start = first if first % stride == 0 else first + (stride - first % stride)
    return list(range(start, last + 1, stride))


def associate(
    stream: DetectionStream,
    sidecar: Optional[SemanticSidecar],
    clock: FrameClock,
    tracker_cfg: TrackerConfig,
    cost: CostModel,
) -> Iterator[tuple[int, float, policy_mod.FrameColumns]]:
    """Yield ``(frame_index, now, columns)`` for every processed frame, in
    order; row ``i`` of ``columns`` is the frame's ``i``-th tracked
    detection, with its track, sidecar record and cost.

    Sidecar keys live in the annotation's id space when hints exist;
    tracker ids are a relabeling, so the hint is preferred. A record's
    ``payload_bytes`` overrides the cost model.
    """
    if stream.first_frame is None:
        return
    tracker = Tracker(tracker_cfg)
    created: dict[int, int] = {}  # track id -> frame it was spawned on
    for frame_index in processed_frame_range(
        stream.first_frame, stream.last_frame, clock.frame_stride
    ):
        assignments = tracker.step(frame_index, list(stream.detections_at(frame_index)))
        dets, track_ids, new_flags = zip(*assignments) if assignments else ((), (), ())
        created.update((tid, frame_index) for tid, is_new in zip(track_ids, new_flags) if is_new)
        if sidecar is None:
            records = (None,) * len(dets)
        else:
            records = tuple(
                sidecar.get(frame_index, det.track_hint if det.track_hint is not None else tid)
                for det, tid in zip(dets, track_ids)
            )
        bboxes = [det.bbox for det in dets]
        costs = [
            rec.payload_bytes * 8.0
            if rec is not None and rec.payload_bytes is not None
            else estimate_cost(bbox, cost)
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
        columns = policy_mod.FrameColumns(
            detections=dets,
            track_ids=track_ids,
            costs=tuple(costs),
            records=records,
            track_id=np.array(track_ids, dtype=np.int64),
            created=np.array([created[tid] for tid in track_ids], dtype=np.int64),
            conf=np.array([det.confidence for det in dets], dtype=np.float64),
            area=np.array([bbox.w * bbox.h for bbox in bboxes], dtype=np.float64),
            cost_bits=cost_bits,
            class_id=np.array([det.class_id for det in dets], dtype=np.int64),
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
    config_echo: Optional[dict[str, str]],
) -> RunLog:
    """Scheduling pass: everything that depends on the policy.

    Per-track state lives in arrays indexed by track id: the last frame a
    track was refined on and the class label (and its source) downstream
    assumes for it. Objects are built only for transmissions and class
    events.
    """
    if config_echo is None:
        from .config import dump_config  # deferred: config depends on RunConfig

        config_echo = dump_config(cfg)

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
        config_echo=dict(config_echo),
    )
    log.first_frame = stream.first_frame
    log.last_frame = stream.last_frame

    ledger = BudgetLedger(cfg.budget.b_roi, cfg.budget.window_s)
    last_refined = np.empty(0, dtype=np.int64)
    class_label = np.empty(0, dtype=np.int64)
    class_source = np.empty(0, dtype=np.int8)
    processed = []
    conf_sum = 0.0
    conf_n = 0

    for frame_index, now, cols in frames:
        processed.append(frame_index)
        log.raw_candidate_count += len(cols)
        track_id = cols.track_id
        if len(cols):
            size = int(track_id.max()) + 1
            last_refined = _grown(last_refined, size, policy_mod.NEVER_REFINED)
            class_label = _grown(class_label, size, 0)
            class_source = _grown(class_source, size, _NO_CLASS)
        # sequential, as a per-row sum always was: np.sum would sum pairwise
        for conf in cols.conf.tolist():
            conf_sum += conf
        conf_n += len(cols)

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
            for row in changed.tolist():
                log.class_events.append(
                    ClassEvent(
                        frame_index,
                        now,
                        cols.track_ids[row],
                        cols.detections[row].class_id,
                        CLASS_SOURCE_VIDEO,
                    )
                )

        decision = policy_mod.decide(frame_index, block, ledger.view(now), cfg.policy)
        log.rejected_threshold += decision.rejected_threshold
        log.rejected_budget += decision.rejected_budget

        for cand, row in zip(decision.selected, decision.rows):
            # Commit-time re-check: budget safety must not depend on the
            # policy having honored the ledger view.
            if not ledger.admits(now, cand.cost_bits):
                log.rejected_budget += 1
                continue
            ledger.commit(now, cand.cost_bits)
            last_refined[cand.track_id] = frame_index
            rec = cols.records[row]
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
                if (
                    class_source[cand.track_id] == _NO_CLASS
                    or class_label[cand.track_id] != rec.still_label
                ):
                    log.class_events.append(
                        ClassEvent(
                            frame_index, now, cand.track_id, rec.still_label, CLASS_SOURCE_STILL
                        )
                    )
                class_label[cand.track_id] = rec.still_label
                class_source[cand.track_id] = _STILL_CLASS

    log.processed_frame_indices = tuple(processed)
    log.detection_conf_mean = conf_sum / conf_n if conf_n else 0.0
    return log


def run(
    stream: DetectionStream,
    sidecar: Optional[SemanticSidecar],
    cfg: RunConfig,
    config_echo: Optional[dict[str, str]] = None,
) -> RunLog:
    """Simulate one policy over one stream. Empty streams yield empty logs."""
    frames = associate(stream, sidecar, cfg.clock, cfg.tracker, cfg.cost)
    return _schedule(frames, stream, cfg, config_echo)


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
    return [(cfg.policy.variant, _schedule(frames, stream, cfg, None)) for cfg in cfgs]
