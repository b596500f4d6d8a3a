"""One simulation run in two passes: associate once, then schedule.

``associate`` walks the stream at the clock's frame stride through the
tracker and attaches each tracked detection's sidecar record and cost;
nothing in it depends on the policy. The scheduling pass scores those rows,
asks the policy for selections against a rolling budget ledger, and records
every transmission plus the per-track class timeline. ``sweep`` associates
once and schedules every variant over the same rows. Runs are strictly
sequential and deterministic for fixed inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Optional, Union

from . import policy as policy_mod
from .budget import BudgetLedger, CostModel, estimate_cost
from .domain import BudgetConfig, EvalConfig, FrameClock, PolicyConfig
from .errors import InvalidParam
from .ingest import DetectionStream, SemanticRecord, SemanticSidecar
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
) -> Iterator[tuple[int, float, list[tuple]]]:
    """Yield ``(frame_index, now, rows)`` for every processed frame, in
    order. Each row is ``(det, track_id, is_new, created_frame,
    sidecar_record, cost_bits)``, one per detection.

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
        rows = []
        dets = list(stream.detections_at(frame_index))
        for det, track_id, is_new in tracker.step(frame_index, dets):
            if is_new:
                created[track_id] = frame_index
            rec = None
            if sidecar is not None:
                key_id = det.track_hint if det.track_hint is not None else track_id
                rec = sidecar.get(frame_index, key_id)
            cost_bits = (
                rec.payload_bytes * 8.0
                if rec is not None and rec.payload_bytes is not None
                else estimate_cost(det.bbox, cost)
            )
            rows.append((det, track_id, is_new, created[track_id], rec, cost_bits))
        yield frame_index, clock.timestamp(frame_index), rows


def _schedule(
    frames: Iterable[tuple[int, float, list[tuple]]],
    stream: DetectionStream,
    cfg: RunConfig,
    config_echo: Optional[dict[str, str]],
) -> RunLog:
    """Scheduling pass: everything that depends on the policy."""
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
    last_refined: dict[int, int] = {}  # track id -> last transmitted frame
    # tid -> (source, label) the downstream consumer currently assumes
    class_state: dict[int, tuple[str, int]] = {}
    processed = []
    conf_sum = 0.0
    conf_n = 0

    for frame_index, now, rows in frames:
        processed.append(frame_index)
        log.raw_candidate_count += len(rows)

        contexts = []
        records: dict[int, Optional[SemanticRecord]] = {}
        for det, track_id, is_new, created_frame, rec, cost_bits in rows:
            conf_sum += det.confidence
            conf_n += 1
            refined = last_refined.get(track_id)
            cand = policy_mod.make_candidate(
                frame_index=frame_index,
                track_id=track_id,
                bbox=det.bbox,
                confidence=det.confidence,
                last_refined_frame=refined,
                cost_bits=cost_bits,
                cfg=cfg.policy,
            )
            contexts.append(
                policy_mod.CandidateContext(
                    candidate=cand,
                    confidence=det.confidence,
                    is_new=is_new,
                    created_frame=created_frame,
                    last_refined_frame=refined,
                )
            )
            records[track_id] = rec
            # Video-side class estimate: updates only while no still label
            # is pinned for the track (replacement rule).
            state = class_state.get(track_id)
            if state is None or (state[0] == CLASS_SOURCE_VIDEO and state[1] != det.class_id):
                class_state[track_id] = (CLASS_SOURCE_VIDEO, det.class_id)
                log.class_events.append(
                    ClassEvent(frame_index, now, track_id, det.class_id, CLASS_SOURCE_VIDEO)
                )

        decision = policy_mod.decide(frame_index, contexts, ledger.view(now), cfg.policy)
        log.rejected_threshold += decision.rejected_threshold
        log.rejected_budget += decision.rejected_budget

        for cand in decision.selected:
            # Commit-time re-check: budget safety must not depend on the
            # policy having honored the ledger view.
            if not ledger.admits(now, cand.cost_bits):
                log.rejected_budget += 1
                continue
            ledger.commit(now, cand.cost_bits)
            last_refined[cand.track_id] = frame_index
            rec = records[cand.track_id]
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
