"""ROI transmission policies: periodic, event, threshold, and utility-per-bit.

Every tracked detection on a processed frame is a candidate. A frame's
candidates are handled as one block of NumPy columns: ``score_block``
computes every row's terms and score, and ``decide`` turns the configured
variant's trigger rule into a mask, orders the survivors by descending score
(ties to the lower track id), and admits them against the rolling budget
view. Candidates denied by the ledger are counted, never silently dropped.

``make_candidate`` scores one candidate with Python floats. No run calls it:
it is the scalar reference kept for the tests and the benchmark, which the
columns follow operation for operation, so both give the same bits and the
same error for a bad row.

Term functional forms:
  uncertainty  u = 1 - detector confidence
  size priority s = clamp(1 - area / area_ref, 0, 1)
  novelty      n = 1 if never refined or refined longer than the cooldown
                   ago, else 0
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional, Sequence

import numpy as np

from .budget import LedgerView
from .domain import DEFAULT_AREA_REF, BBox, PolicyConfig
from .errors import ConfigError, InvalidParam

#: Preset gate defaults, pilot-tuned; every threshold stays configurable.
PERMISSIVE_CONF_GATE = 0.25
PRESET_CONF_GATE = 0.3
PRESET_AREA_GATE = DEFAULT_AREA_REF  # 32x32 px
PRESET_RELAXED_SCORE_GATE = 0.0

_UNLIMITED = 1 << 30

#: ``last_refined`` value of a track that was never refined; it is below
#: every frame index.
NEVER_REFINED = int(np.iinfo(np.int64).min)

#: The errors for a bad row, in the order the checks run.
_BAD_CONF = "confidence must be in [0,1], got {}"
_BAD_COST = "cost_bits must be > 0, got {}"
_BAD_SCORE = "score is not finite at frame {}, track {}: {}"


@dataclass(frozen=True)
class RoiCandidate:
    """A scored, costed transmission candidate for one tracked detection."""

    frame_index: int
    track_id: int
    bbox: BBox
    u_term: float
    s_small_term: float
    n_term: float
    cost_bits: float
    score: float


@dataclass(frozen=True, eq=False)
class FrameColumns:
    """One processed frame after association, one row per tracked detection
    in tracker order; a track appears at most once per frame.

    Each fact is held once. ``xywh`` is the stream's own array of box
    numbers (``FrameDetections.xywh``), so a log's box column keeps their
    number types; the scheduling pass gathers a sent row's from it, with no
    box built. ``records`` holds each row's record as its row of the
    sidecar's ``semantics`` column, -1 where there is none, as there is none
    without a sidecar. ``video_change`` marks the rows whose track is new or
    whose class differs from the track's class on its previous row: where
    the video-side class estimate changes. The association pass builds this
    once per frame, and every variant of a sweep reads it.
    """

    xywh: np.ndarray  # (N, 4): each box's numbers as the stream holds them
    records: np.ndarray  # int64: the row of semantics, or -1
    track_id: np.ndarray  # int64
    created: np.ndarray  # int64: the frame the track was spawned on
    conf: np.ndarray  # float64
    area: np.ndarray  # float64: bbox w * h
    cost_bits: np.ndarray  # float64
    class_id: np.ndarray  # int64
    video_change: np.ndarray  # bool
    semantics: Optional[np.ndarray] = None  # SemanticSidecar.semantics

    def __len__(self) -> int:
        return len(self.track_id)


@dataclass(frozen=True, eq=False)
class CandidateBlock:
    """One frame's candidates scored for one policy, row for row with
    ``cols``: when each track was last refined (``NEVER_REFINED`` if never)
    and the terms ``make_candidate`` would give."""

    cols: FrameColumns
    last_refined: np.ndarray  # int64
    u_term: np.ndarray
    s_small_term: np.ndarray
    n_term: np.ndarray
    score: np.ndarray

    def __len__(self) -> int:
        return len(self.cols)


@dataclass(frozen=True)
class Decision:
    """Per-step policy output: the selected rows of the block, in selection
    order, plus rejection accounting."""

    selected: tuple[int, ...]
    rejected_budget: int
    rejected_threshold: int


def _area_ref(cfg: PolicyConfig) -> float:
    return cfg.area_threshold if cfg.area_threshold is not None else DEFAULT_AREA_REF


def make_candidate(
    frame_index: int,
    track_id: int,
    bbox: BBox,
    confidence: float,
    last_refined_frame: Optional[int],
    cost_bits: float,
    cfg: PolicyConfig,
) -> RoiCandidate:
    """Compute all score terms for one tracked detection. A score beyond the
    float range is refused, so no run log holds a non-finite number."""
    if not (0.0 <= confidence <= 1.0):
        raise InvalidParam(_BAD_CONF.format(confidence))
    u = 1.0 - confidence
    s = min(max(1.0 - bbox.area() / _area_ref(cfg), 0.0), 1.0)
    novel = last_refined_frame is None or frame_index - last_refined_frame > cfg.cooldown_frames
    n = 1.0 if novel else 0.0
    if not cost_bits > 0:
        raise InvalidParam(_BAD_COST.format(cost_bits))
    w_u, w_s, w_n = cfg.weights
    score = (w_u * u + w_s * s + w_n * n) / cost_bits
    if not math.isfinite(score):
        raise InvalidParam(_BAD_SCORE.format(frame_index, track_id, score))
    return RoiCandidate(
        frame_index=frame_index,
        track_id=track_id,
        bbox=bbox,
        u_term=u,
        s_small_term=s,
        n_term=n,
        cost_bits=cost_bits,
        score=score,
    )


def frame_terms(rows: Sequence[FrameColumns], conf: np.ndarray, cfg: PolicyConfig) -> list:
    """Each frame's ``(u, s, stale, novel, clean)``: the terms no track state
    reaches, each row's score with ``n = 0`` and ``n = 1``, and whether no
    row can fail a check, computed once over the frames' joined rows
    (``conf`` joins their confidences) in ``make_candidate``'s order."""
    area, cost = (np.concatenate(column) for column in zip(*((c.area, c.cost_bits) for c in rows)))
    w_u, w_s, w_n = cfg.weights
    # score_block checks a frame that is not clean, so this may overflow quietly
    with np.errstate(all="ignore"):
        u = 1.0 - conf
        s = np.minimum(np.maximum(1.0 - area / _area_ref(cfg), 0.0), 1.0)
        base = w_u * u + w_s * s
        stale, novel = (base + w_n * 0.0) / cost, (base + w_n * 1.0) / cost
    clean = (conf >= 0.0) & (conf <= 1.0) & (cost > 0.0) & np.isfinite(stale) & np.isfinite(novel)
    starts = list(accumulate(map(len, rows[:-1]), initial=0))
    oks = np.logical_and.reduceat(clean, starts).tolist() if len(clean) else [True]
    cuts = zip(starts, [*starts[1:], len(conf)], oks)
    return [(u[a:b], s[a:b], stale[a:b], novel[a:b], ok) for a, b, ok in cuts]


def score_block(
    frame_index: int, cols: FrameColumns, last_refined: np.ndarray, cfg: PolicyConfig, terms: tuple
) -> CandidateBlock:
    """Score a frame's candidates; ``last_refined`` and the frame's
    ``frame_terms``, ``terms``, are row for row with ``cols``.

    Each column is ``make_candidate``'s expression in its operation order:
    a row's score is the one its novelty picks. Unless ``terms`` is clean,
    a bad confidence, a non-positive cost or a non-finite score raises
    ``make_candidate``'s error for the first bad row, in row order.
    """
    u, s, stale, novel_score, clean = terms
    # frame - last > cooldown, exact in integers; a never-refined track is
    # novel whatever the cooldown. The floor keeps the bound inside int64.
    bound = max(frame_index - cfg.cooldown_frames, NEVER_REFINED)
    novel = (last_refined == NEVER_REFINED) | (last_refined < bound)
    score = np.where(novel, novel_score, stale)
    if not clean:
        conf, cost = cols.conf, cols.cost_bits
        ok = (conf >= 0.0) & (conf <= 1.0) & (cost > 0.0) & np.isfinite(score)
        if not ok.all():
            row = int(np.argmin(ok))
            bad_conf, bad_cost = conf[row].item(), cost[row].item()
            if not (0.0 <= bad_conf <= 1.0):
                raise InvalidParam(_BAD_CONF.format(bad_conf))
            if not bad_cost > 0:
                raise InvalidParam(_BAD_COST.format(bad_cost))
            track_id = cols.track_id[row].item()
            raise InvalidParam(_BAD_SCORE.format(frame_index, track_id, score[row].item()))
    return CandidateBlock(cols, last_refined, u, s, novel.astype(np.float64), score)


def _require(cfg: PolicyConfig, name: str) -> float:
    value = getattr(cfg, name)
    if value is None:
        raise ConfigError(f"policy {cfg.variant} requires {name}")
    return value


def _triggered(frame_index: int, block: CandidateBlock, cfg: PolicyConfig) -> np.ndarray:
    """Variant trigger rule as a mask over the block's rows."""
    v = cfg.variant
    cols = block.cols
    if v == "M0":
        return np.zeros(len(block), dtype=bool)
    if v == "M1":
        refined = block.last_refined
        since = frame_index - np.where(refined == NEVER_REFINED, cols.created, refined)
        return since >= cfg.period_frames
    if v == "M2":
        # frames strictly increase, so only a track spawned now has created == frame
        return cols.created == frame_index
    if v == "M3":
        return cols.conf < _require(cfg, "conf_threshold")
    if v == "M4":
        return cols.area < _require(cfg, "area_threshold")
    if v == "M5":
        return block.score > _require(cfg, "score_threshold")
    if v == "preset_permissive":
        gate = cfg.conf_threshold if cfg.conf_threshold is not None else PERMISSIVE_CONF_GATE
        return cols.conf >= gate
    if v == "preset_conf_size_top1":
        conf_gate = cfg.conf_threshold if cfg.conf_threshold is not None else PRESET_CONF_GATE
        area_gate = cfg.area_threshold if cfg.area_threshold is not None else PRESET_AREA_GATE
        return (cols.conf >= conf_gate) & (cols.area < area_gate)
    if v == "preset_strict_small_only":
        area_gate = cfg.area_threshold if cfg.area_threshold is not None else PRESET_AREA_GATE
        return cols.area < area_gate
    # preset_balanced_top2, the last variant PolicyConfig admits
    gate = cfg.score_threshold if cfg.score_threshold is not None else PRESET_RELAXED_SCORE_GATE
    return block.score > gate


def _effective_top_k(cfg: PolicyConfig) -> int:
    if cfg.top_k is not None:
        return cfg.top_k
    if cfg.variant in ("M5", "preset_conf_size_top1", "preset_strict_small_only"):
        return 1
    if cfg.variant == "preset_balanced_top2":
        return 2
    return _UNLIMITED


def decide(
    frame_index: int,
    block: CandidateBlock,
    ledger_view: LedgerView,
    cfg: PolicyConfig,
) -> Decision:
    """Select this step's transmissions from the frame's candidates.

    Pure given its inputs: budget consumption within the step is simulated
    against the read-only view; the engine performs the actual commits.
    """
    eligible = _triggered(frame_index, block, cfg).nonzero()[0]
    order = eligible[np.lexsort((block.cols.track_id[eligible], -block.score[eligible]))]

    top_k = _effective_top_k(cfg)
    rows: list[int] = []
    rejected_budget = 0
    # Accumulate exactly like the ledger's sequential commits would, so the
    # engine's commit-time re-check can never disagree on a boundary case.
    sim_sum = ledger_view.window_sum_bits
    for row, cost in zip(order.tolist(), block.cols.cost_bits[order].tolist()):
        if len(rows) >= top_k:
            break
        if sim_sum + cost <= ledger_view.cap_bits:
            rows.append(row)
            sim_sum = sim_sum + cost
        else:
            rejected_budget += 1

    return Decision(
        selected=tuple(rows),
        rejected_budget=rejected_budget,
        rejected_threshold=len(block) - len(eligible),
    )
