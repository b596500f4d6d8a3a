"""One simulation run in two passes: associate once, then schedule.

``associate`` walks the stream at the clock's frame stride through the
tracker and attaches each tracked detection's sidecar row, cost and
video-side class mark; nothing in it depends on the policy. It reads each
frame as a block of the stream's columns and hands each frame with rows on
as NumPy columns. The scheduling pass takes them in blocks of frames,
scores a frame's rows at once, asks the policy for selections against a
rolling budget ledger, and hands each block's transmissions and class
timeline events on as columns: the run log's parts (see ``runlog``), which
the CLI writes and folds as they come, building no record object.
``iter_run`` and ``iter_sweep`` give the parts; ``run`` and ``sweep``
collect them into ``RunLog``s. ``sweep`` associates once and schedules
every variant over the same columns, one variant at a time as its caller
asks. Runs are strictly sequential and deterministic for fixed inputs.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import islice, repeat
from typing import Iterable, Iterator, Optional, Union

import numpy as np

from . import policy as policy_mod
from .budget import BudgetLedger, estimate_cost
from .config import dump_config
from .domain import CostModel, FrameClock, PolicyConfig, RunConfig, TrackerConfig
from .errors import InvalidParam
from .ingest import DetectionStream, box_values
from .runlog import (
    _NO_SEMANTICS,
    _SEMANTIC_FIELDS,
    CLASS_SOURCE_STILL,
    CLASS_SOURCE_VIDEO,
    ClassEvent,
    RunLog,
    TransmissionRecord,
    collect,
)
from .semantic import SemanticSidecar
from .tracker import Tracker

#: Where a row's still label is among its semantic values.
_STILL_LABEL = list(_SEMANTIC_FIELDS).index("still_label")


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
    detection, with its track, sidecar row (-1 for none), cost and video
    class mark; one search of the sidecar's sorted columns finds a frame's
    records. The tracker steps, and the clock stamps, every processed
    frame: tracks age on empty ones.

    Sidecar keys live in the annotation's id space when hints exist;
    tracker ids are a relabeling, so the hint is preferred. A record's
    ``payload_bytes`` overrides the cost model.
    """
    tracker = Tracker(tracker_cfg)
    created = np.empty(0, dtype=np.int64)  # track id -> frame it was spawned on
    last_class = np.empty(0, dtype=np.int64)  # track id -> class on its last row
    for frame_index in processed_frame_range(
        stream.first_frame, stream.last_frame, clock.frame_stride
    ):
        dets = stream.block_at(frame_index)
        assigned = tracker.step(frame_index, dets)
        if not len(dets):
            clock.timestamp(frame_index)
            continue
        track_id = assigned.track_id
        size = int(track_id.max()) + 1
        created, last_class = _grown(created, size, 0), _grown(last_class, size, 0)
        created[track_id[assigned.is_new]] = frame_index
        video_change = assigned.is_new | (dets.cls != last_class[track_id])
        last_class[track_id] = dets.cls
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
            video_change=video_change,
        )
        yield frame_index, clock.timestamp(frame_index), columns


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
) -> Iterator:
    """Scheduling pass: everything that depends on the policy.

    A generator of the run log's parts: first the header's ``RunLog``,
    without records, which echoes ``dump_config(cfg)``; then, for each
    block of frames (``_frame_blocks``), the block's tx records as columns,
    in ``TransmissionRecord``'s field order, the box column holding each
    box's ``[x, y, w, h]``, and its class events as columns, in
    ``ClassEvent``'s. The header's counts are set once the last part is
    taken. What no track state reaches is computed once per block, then
    each frame is scheduled in turn. The last frame each track was refined
    on lives in an array indexed by track id, and the still label pinned on
    a track in a dict. A video class event is where the association pass's
    ``video_change`` mark meets a track with no pinned label; a sent row
    with a record pins its still label, an event where it differs from the
    pinned label, or from the row's class where none is pinned. No record
    object and no box is built. Every frame has rows; of the stream, only
    its ``(first_frame, last_frame)`` span is read.
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
    yield log

    ledger = BudgetLedger(cfg.budget.b_roi, cfg.budget.window_s)
    last_refined = np.empty(0, dtype=np.int64)
    pinned: dict[int, int] = {}  # track id -> the still label pinned on it
    raw = rejected_threshold = rejected_budget = 0
    conf_sum = 0.0

    for block in _frame_blocks(frames):
        rows = [cols for _, _, cols in block]
        conf = np.concatenate([cols.conf for cols in rows])
        raw += len(conf)
        for value in conf.tolist():  # sequential: np.sum would sum pairwise
            conf_sum += value
        terms = policy_mod.frame_terms(rows, conf, cfg.policy)
        size = int(np.concatenate([cols.track_id for cols in rows]).max()) + 1
        last_refined = _grown(last_refined, size, policy_mod.NEVER_REFINED)
        tx: list[list] = [[] for _ in TransmissionRecord._fields]
        events: list[tuple] = []

        for (frame_index, now, cols), frame_terms in zip(block, terms):
            track_id = cols.track_id
            refined = last_refined[track_id]
            scored = policy_mod.score_block(frame_index, cols, refined, cfg.policy, frame_terms)

            # Video-side class estimate: it changes where the association
            # pass marks it, while no still label is pinned (replacement
            # rule). A track has at most one row per frame.
            video = cols.video_change.nonzero()[0]
            if len(video):
                for tid, label in zip(track_id[video].tolist(), cols.class_id[video].tolist()):
                    if tid not in pinned:
                        events.append((frame_index, now, tid, label, CLASS_SOURCE_VIDEO))

            decision = policy_mod.decide(frame_index, scored, ledger.view(now), cfg.policy)
            rejected_threshold += decision.rejected_threshold
            rejected_budget += decision.rejected_budget
            if not decision.selected:
                continue
            selected = list(decision.selected)
            sent, costs = [], []
            for row, cost_bits in zip(selected, cols.cost_bits[selected].tolist()):
                # Commit-time re-check: budget safety must not depend on
                # the policy having honored the ledger view.
                if not ledger.admits(now, cost_bits):
                    rejected_budget += 1
                    continue
                ledger.commit(now, cost_bits)
                sent.append(row)
                costs.append(cost_bits)
            if not sent:
                continue
            n = len(sent)
            sel = np.array(sent, dtype=np.intp)  # one index array for every gather
            tids = track_id[sel]
            last_refined[tids] = frame_index
            tids = tids.tolist()
            semantics = repeat([None] * n, len(_NO_SEMANTICS))
            if cols.semantics is not None and len(cols.semantics):
                records = cols.records[sel].tolist()
                # each value as the sidecar parsed it, a float or an int; a
                # row without a record (-1) gathers the last one's, unread
                found = cols.semantics.take(records).tolist()
                for i, (tid, record) in enumerate(zip(tids, records)):
                    if record < 0:
                        found[i] = _NO_SEMANTICS
                        continue
                    # the still label is pinned on the track, and is an
                    # event where it differs from the label the track had
                    label = found[i][_STILL_LABEL]
                    if pinned.get(tid, cols.class_id.item(sent[i])) != label:
                        events.append((frame_index, now, tid, label, CLASS_SOURCE_STILL))
                    pinned[tid] = label
                semantics = zip(*found)
            columns = (
                repeat(frame_index, n),
                repeat(now, n),
                tids,
                box_values(cols.bboxes, sel),
                costs,
                scored.score[sel].tolist(),
                scored.u_term[sel].tolist(),
                scored.s_small_term[sel].tolist(),
                scored.n_term[sel].tolist(),
                *semantics,
            )
            for column, values in zip(tx, columns, strict=True):
                column += values
        yield tx, list(zip(*events)) or [[] for _ in ClassEvent._fields]

    log.raw_candidate_count = raw
    log.rejected_threshold = rejected_threshold
    log.rejected_budget = rejected_budget
    log.detection_conf_mean = conf_sum / max(raw, 1)


def iter_run(
    stream: DetectionStream, sidecar: Optional[SemanticSidecar], cfg: RunConfig
) -> Iterator:
    """The parts of one policy's run log over one stream, as they are
    scheduled (``_schedule``); the stream is associated as they are taken."""
    frames = associate(stream, sidecar, cfg.clock, cfg.tracker, cfg.cost)
    return _schedule(frames, (stream.first_frame, stream.last_frame), cfg)


def run(
    stream: DetectionStream, sidecar: Optional[SemanticSidecar], cfg: RunConfig
) -> RunLog:
    """Simulate one policy over one stream. Empty streams yield empty logs."""
    return collect(iter_run(stream, sidecar, cfg))


def iter_sweep(
    stream: DetectionStream,
    sidecar: Optional[SemanticSidecar],
    base_cfg: RunConfig,
    policy_variants: list[Union[str, PolicyConfig]],
) -> Iterator[tuple[str, Iterator]]:
    """Run several policies over the identical stream and budget regime.

    The variant list is checked, and the stream associated once, when
    ``iter_sweep`` is called. It then returns an iterator that schedules
    each variant only when asked, with a fresh ledger, and yields
    ``(variant, parts)``: the parts of that variant's run log, in input
    order, each as ``iter_run`` gives them for that variant alone. It keeps
    no part it has yielded. It mutates neither input and keeps only the
    associated frames and the span. If association fails, the first
    variant is scheduled over the frames before the failure, so a sweep
    fails as ``run`` of that variant does.
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
        for _ in _schedule(frames, span, cfgs[0]):
            pass
        raise
    return ((cfg.policy.variant, _schedule(frames, span, cfg)) for cfg in cfgs)


def sweep(
    stream: DetectionStream,
    sidecar: Optional[SemanticSidecar],
    base_cfg: RunConfig,
    policy_variants: list[Union[str, PolicyConfig]],
) -> Iterator[tuple[str, RunLog]]:
    """``iter_sweep`` with each variant's parts collected into its
    ``RunLog``: ``(variant, log)``, each log what ``run`` gives for that
    variant alone. The iterator keeps no log it has yielded, so a consumer
    that drops each log in turn holds one at a time."""
    results = iter_sweep(stream, sidecar, base_cfg, policy_variants)
    return ((variant, collect(parts)) for variant, parts in results)
