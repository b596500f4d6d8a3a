"""One simulation run in two passes: associate once, then schedule.

``associate`` walks the stream at the clock's frame stride through the
tracker and attaches each tracked detection's sidecar row and cost;
nothing in it depends on the policy. It reads each frame as a block of the
stream's columns and hands each frame with rows on as NumPy columns. The
scheduling pass takes them in blocks of frames, scores a frame's rows at
once, asks the policy for selections against a rolling budget ledger, and
records every transmission plus the per-track class timeline. ``sweep``
associates once and schedules every variant over the same columns, one
variant at a time as its caller asks. Runs are strictly sequential and
deterministic for fixed inputs.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import islice, repeat
from typing import Iterable, Iterator, Optional, Union

import numpy as np

from . import policy as policy_mod
from .budget import BudgetLedger, CostModel, estimate_cost
from .config import RunConfig, dump_config
from .domain import FrameClock, PolicyConfig
from .errors import InvalidParam
from .ingest import DetectionStream
from .runlog import (
    CLASS_SOURCE_STILL,
    CLASS_SOURCE_VIDEO,
    ClassEvent,
    RunLog,
    TransmissionRecord,
)
from .semantic import SemanticSidecar
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
    detection, with its track, sidecar row (-1 for none) and cost; one
    search of the sidecar's sorted columns finds a frame's records. The
    tracker steps, and the clock stamps, every processed frame: tracks age
    on empty ones.

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
            records = np.full(len(dets), -1, dtype=np.int64)
        else:
            records = sidecar.rows(frame_index, np.where(dets.has_hint, dets.hint, track_id))
            looked_up = np.flatnonzero(records >= 0)
            payload = sidecar.payload_bytes[records[looked_up]]
            paid = payload > 0
            # int * 8.0 as Python gives it, for a payload beyond int64 too
            cost_bits[looked_up[paid]] = payload[paid] * 8.0
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
            semantics=None if sidecar is None else sidecar.semantics,
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


#: Frames the scheduling pass takes from the association pass at a time.
_BLOCK_FRAMES = 32


def _frame_blocks(frames: Iterable[tuple]) -> Iterator[list[tuple]]:
    """``frames`` in lists of up to ``_BLOCK_FRAMES``; an ``Exception`` raised
    while a list is gathered is raised after the frames gathered before it."""
    frames = iter(frames)
    while True:
        block: list = []
        try:
            block.extend(islice(frames, _BLOCK_FRAMES))
        except Exception:
            if block:
                yield block
            raise
        if not block:
            return
        yield block


def _schedule(
    frames: Iterable[tuple[int, float, policy_mod.FrameColumns]],
    span: tuple[Optional[int], Optional[int]],
    cfg: RunConfig,
) -> RunLog:
    """Scheduling pass: everything that depends on the policy.

    Frames come in blocks (``_frame_blocks``): what no track state reaches
    is computed once per block, then each frame is scheduled in turn.
    Per-track state lives in arrays indexed by track id: the last frame a
    track was refined on and the class label (and its source) downstream
    assumes for it. Records are built straight from the block rows the
    policy selects. The log echoes ``dump_config(cfg)``. Every frame has
    rows; of the stream, only its ``(first_frame, last_frame)`` span is read.
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
    log.first_frame, log.last_frame = span
    log.processed_frame_indices = tuple(processed_frame_range(*span, cfg.clock.frame_stride))

    ledger = BudgetLedger(cfg.budget.b_roi, cfg.budget.window_s)
    last_refined = np.empty(0, dtype=np.int64)
    class_label = np.empty(0, dtype=np.int64)
    class_source = np.empty(0, dtype=np.int8)
    conf_sum = 0.0

    for block in _frame_blocks(frames):
        rows = [cols for _, _, cols in block]
        conf = np.concatenate([cols.conf for cols in rows])
        log.raw_candidate_count += len(conf)
        for value in conf.tolist():  # sequential: np.sum would sum pairwise
            conf_sum += value
        terms = policy_mod.frame_terms(rows, conf, cfg.policy)
        size = int(np.concatenate([cols.track_id for cols in rows]).max()) + 1
        last_refined = _grown(last_refined, size, policy_mod.NEVER_REFINED)
        class_label = _grown(class_label, size, 0)
        class_source = _grown(class_source, size, _NO_CLASS)

        for (frame_index, now, cols), frame_terms in zip(block, terms):
            track_id = cols.track_id
            refined = last_refined[track_id]
            scored = policy_mod.score_block(frame_index, cols, refined, cfg.policy, frame_terms)

            # Video-side class estimate: updates only while no still label
            # is pinned (replacement rule). A track has at most one row per
            # frame, so one gather and one scatter equal a row loop.
            source = class_source[track_id]
            changed = (
                (source == _NO_CLASS)
                | ((source == _VIDEO_CLASS) & (class_label[track_id] != cols.class_id))
            ).nonzero()[0]
            if len(changed):
                tids, labels = track_id[changed], cols.class_id[changed]
                class_label[tids] = labels
                class_source[tids] = _VIDEO_CLASS
                events = (repeat(frame_index), repeat(now), tids.tolist(), labels.tolist())
                log.class_events.extend(map(ClassEvent, *events, repeat(CLASS_SOURCE_VIDEO)))

            decision = policy_mod.decide(frame_index, scored, ledger.view(now), cfg.policy)
            log.rejected_threshold += decision.rejected_threshold
            log.rejected_budget += decision.rejected_budget
            if not decision.selected:
                continue
            selected = list(decision.selected)
            sent, costs = [], []  # records keep these floats: a regather raised peak RSS
            for row, cost_bits in zip(selected, cols.cost_bits[selected].tolist()):
                # Commit-time re-check: budget safety must not depend on
                # the policy having honored the ledger view.
                if not ledger.admits(now, cost_bits):
                    log.rejected_budget += 1
                    continue
                ledger.commit(now, cost_bits)
                sent.append(row)
                costs.append(cost_bits)
            rows = np.array(sent, dtype=np.intp)  # one index array for every gather
            tids = track_id[rows]
            last_refined[tids] = frame_index
            records, semantics = repeat(-1), repeat(())
            if cols.semantics is not None and len(cols.semantics):
                records = cols.records[rows]
                # each value as the sidecar parsed it, a float or an int; a
                # row without a record (-1) gathers the last one's, unread
                semantics = cols.semantics.take(records).tolist()
                records = records.tolist()
            sent_rows = zip(
                tids.tolist(),
                map(cols.bboxes.__getitem__, sent),
                costs,
                scored.score[rows].tolist(),
                scored.u_term[rows].tolist(),
                scored.s_small_term[rows].tolist(),
                scored.n_term[rows].tolist(),
                records,
                semantics,
            )
            for tid, bbox, cost_bits, score, u, s, n, record_row, semantic in sent_rows:
                n = 1.0 if n else 0.0  # shared literals, as make_candidate's are
                record = (frame_index, now, tid, bbox, cost_bits, score, u, s, n)
                if record_row < 0:
                    log.transmissions.append(TransmissionRecord(*record))
                    continue
                tx = TransmissionRecord(*record, *semantic)
                log.transmissions.append(tx)
                if class_label[tid] != tx.still_label:
                    log.class_events.append(
                        ClassEvent(frame_index, now, tid, tx.still_label, CLASS_SOURCE_STILL)
                    )
                class_label[tid] = tx.still_label
                class_source[tid] = _STILL_CLASS

    log.detection_conf_mean = conf_sum / max(log.raw_candidate_count, 1)
    return log


def run(
    stream: DetectionStream, sidecar: Optional[SemanticSidecar], cfg: RunConfig
) -> RunLog:
    """Simulate one policy over one stream. Empty streams yield empty logs."""
    frames = associate(stream, sidecar, cfg.clock, cfg.tracker, cfg.cost)
    return _schedule(frames, (stream.first_frame, stream.last_frame), cfg)


def sweep(
    stream: DetectionStream,
    sidecar: Optional[SemanticSidecar],
    base_cfg: RunConfig,
    policy_variants: list[Union[str, PolicyConfig]],
) -> Iterator[tuple[str, RunLog]]:
    """Run several policies over the identical stream and budget regime.

    The variant list is checked, and the stream associated once, when
    ``sweep`` is called. It then returns an iterator that schedules each
    variant only when asked, with a fresh ledger, and yields
    ``(variant, log)`` in input order; each log equals what ``run`` gives
    for that variant alone. The iterator keeps no log it has yielded, so a
    consumer that drops each log in turn holds one at a time. It mutates
    neither input and keeps only the associated frames and the span. If
    association fails, the first variant is scheduled over the frames
    before the failure, so a sweep fails as ``run`` of that variant does.
    """
    if not policy_variants:
        raise InvalidParam("policy_variants must be nonempty")
    cfgs = []
    for pol in policy_variants:
        if not isinstance(pol, PolicyConfig):
            pol = replace(base_cfg.policy, variant=pol)
        cfgs.append(replace(base_cfg, policy=pol))
    span = (stream.first_frame, stream.last_frame)
    frames: list = []
    try:
        frames.extend(associate(stream, sidecar, base_cfg.clock, base_cfg.tracker, base_cfg.cost))
    except Exception:
        # fail as ``run`` of the first variant does: an earlier frame's
        # scheduling error comes first
        _schedule(frames, span, cfgs[0])
        raise
    return ((cfg.policy.variant, _schedule(frames, span, cfg)) for cfg in cfgs)
