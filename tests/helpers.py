"""Shared builders for the test suite, the scalar scheduling pass that the
columnar one is checked against, and the ``json.dumps`` run-log writer that
the record templates are checked against. Other oracles live in the test
modules."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from roitel import (
    BBox,
    BudgetConfig,
    BudgetLedger,
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
    RoiCandidate,
    RunConfig,
    RunLog,
    make_candidate,
)
from roitel.policy import (
    NEVER_REFINED,
    PERMISSIVE_CONF_GATE,
    PRESET_AREA_GATE,
    PRESET_CONF_GATE,
    PRESET_RELAXED_SCORE_GATE,
    _effective_top_k,
    _require,
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
    """Select one step's transmissions, one context at a time."""
    eligible: list[CandidateContext] = []
    rejected_threshold = 0
    for ctx in contexts:
        if scalar_triggered(ctx, cfg):
            eligible.append(ctx)
        else:
            rejected_threshold += 1

    eligible.sort(key=lambda c: (-c.candidate.score, c.candidate.track_id))

    top_k = _effective_top_k(cfg)
    selected: list[RoiCandidate] = []
    rejected_budget = 0
    sim_sum = ledger_view.window_sum_bits
    for ctx in eligible:
        if len(selected) >= top_k:
            break
        cost = ctx.candidate.cost_bits
        if sim_sum + cost <= ledger_view.cap_bits:
            selected.append(ctx.candidate)
            sim_sum = sim_sum + cost
        else:
            rejected_budget += 1

    return Decision(
        selected=tuple(selected),
        rejected_budget=rejected_budget,
        rejected_threshold=rejected_threshold,
    )


def scalar_schedule(frames, stream: DetectionStream, cfg: RunConfig, config_echo) -> RunLog:
    """The scheduling pass over ``engine.associate``'s frames, row by row."""
    if config_echo is None:
        from roitel.config import dump_config

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
    last_refined: dict[int, int] = {}
    class_state: dict[int, tuple[str, int]] = {}
    processed = []
    conf_sum = 0.0
    conf_n = 0

    for frame_index, now, cols in frames:
        processed.append(frame_index)
        log.raw_candidate_count += len(cols)
        rows = zip(
            cols.detections,
            cols.track_ids,
            cols.created.tolist(),
            cols.records,
            cols.costs,
        )
        contexts = []
        by_track = {}
        for det, track_id, created_frame, rec, cost_bits in rows:
            conf_sum += det.confidence
            conf_n += 1
            refined = last_refined.get(track_id)
            cand = make_candidate(
                frame_index=frame_index,
                track_id=track_id,
                bbox=det.bbox,
                confidence=det.confidence,
                last_refined_frame=refined,
                cost_bits=cost_bits,
                cfg=cfg.policy,
            )
            contexts.append(CandidateContext(cand, det.confidence, created_frame, refined))
            by_track[track_id] = rec
            state = class_state.get(track_id)
            if state is None or (state[0] == CLASS_SOURCE_VIDEO and state[1] != det.class_id):
                class_state[track_id] = (CLASS_SOURCE_VIDEO, det.class_id)
                log.class_events.append(
                    ClassEvent(frame_index, now, track_id, det.class_id, CLASS_SOURCE_VIDEO)
                )

        decision = scalar_decide(frame_index, contexts, ledger.view(now), cfg.policy)
        log.rejected_threshold += decision.rejected_threshold
        log.rejected_budget += decision.rejected_budget

        for cand in decision.selected:
            if not ledger.admits(now, cand.cost_bits):
                log.rejected_budget += 1
                continue
            ledger.commit(now, cand.cost_bits)
            last_refined[cand.track_id] = frame_index
            rec = by_track[cand.track_id]
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


def as_block(frame_index: int, contexts: list[CandidateContext]) -> CandidateBlock:
    """The columnar form of one frame's contexts, row for row, with the
    terms and scores the contexts carry."""
    cands = [ctx.candidate for ctx in contexts]
    assert all(c.frame_index == frame_index for c in cands)
    cols = FrameColumns(
        detections=tuple(
            Detection(frame_index, c.bbox, ctx.confidence, 0) for c, ctx in zip(cands, contexts)
        ),
        track_ids=tuple(c.track_id for c in cands),
        costs=tuple(c.cost_bits for c in cands),
        records=(None,) * len(cands),
        track_id=np.array([c.track_id for c in cands], dtype=np.int64),
        created=np.array([ctx.created_frame for ctx in contexts], dtype=np.int64),
        conf=np.array([ctx.confidence for ctx in contexts], dtype=np.float64),
        area=np.array([c.bbox.area() for c in cands], dtype=np.float64),
        cost_bits=np.array([c.cost_bits for c in cands], dtype=np.float64),
        class_id=np.zeros(len(cands), dtype=np.int64),
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
