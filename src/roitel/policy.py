"""ROI transmission policies: periodic, event, threshold, and utility-per-bit.

Every tracked detection on a processed frame is a candidate. A frame's
candidates are handled as one block of NumPy columns: ``score_block``
computes every row's terms and score, and ``decide`` turns the configured
variant's trigger rule into a mask, orders the survivors by descending score
(ties to the lower track id), and admits them against the rolling budget
view. Candidates denied by the ledger are counted, never silently dropped.

``make_candidate`` scores one candidate with Python floats; it is the
reference the columns follow operation for operation, so both give the same
bits.

Term functional forms:
  uncertainty  u = 1 - detector confidence
  size priority s = clamp(1 - area / area_ref, 0, 1)
  novelty      n = 1 if never refined or refined longer than the cooldown
                   ago, else 0
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .budget import LedgerView
from .domain import DEFAULT_AREA_REF, BBox, Detection, PolicyConfig
from .errors import ConfigError, InvalidParam
from .ingest import SemanticRecord

#: Preset gate defaults, pilot-tuned; every threshold stays configurable.
PERMISSIVE_CONF_GATE = 0.25
PRESET_CONF_GATE = 0.3
PRESET_AREA_GATE = DEFAULT_AREA_REF  # 32x32 px
PRESET_RELAXED_SCORE_GATE = 0.0

_UNLIMITED = 1 << 30

#: ``last_refined`` value of a track that was never refined; it is below
#: every frame index.
NEVER_REFINED = int(np.iinfo(np.int64).min)


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

    The arrays serve the scheduling maths. The tuples hold the same rows as
    Python objects, which the records built from a row share. The
    association pass builds this once per frame, and every variant of a
    sweep reads it.
    """

    detections: tuple[Detection, ...]
    track_ids: tuple[int, ...]
    costs: tuple[float, ...]  # bits
    records: tuple[Optional[SemanticRecord], ...]  # sidecar record or None
    track_id: np.ndarray  # int64: track_ids
    created: np.ndarray  # int64: the frame the track was spawned on
    conf: np.ndarray  # float64
    area: np.ndarray  # float64: bbox w * h
    cost_bits: np.ndarray  # float64: costs
    class_id: np.ndarray  # int64

    def __len__(self) -> int:
        return len(self.detections)


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
    """Per-step policy output: selections plus rejection accounting.

    ``rows`` gives each selection's row in the block it was chosen from.
    """

    selected: tuple[RoiCandidate, ...]
    rejected_budget: int
    rejected_threshold: int
    rows: tuple[int, ...] = ()


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
    u = uncertainty_term(confidence)
    s = size_term(bbox, _area_ref(cfg))
    n = novelty_term(last_refined_frame, frame_index, cfg.cooldown_frames)
    score = score_roi(u, s, n, cost_bits, cfg.weights)
    if not math.isfinite(score):
        raise InvalidParam(f"score is not finite at frame {frame_index}, track {track_id}: {score}")
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


def score_block(
    frame_index: int, cols: FrameColumns, last_refined: np.ndarray, cfg: PolicyConfig
) -> CandidateBlock:
    """Score a frame's candidates; ``last_refined`` is row for row with
    ``cols``.

    Each column is ``make_candidate``'s expression in its operation order.
    A bad confidence, a non-positive cost or a non-finite score raises
    ``make_candidate``'s error for the first bad row, in row order.
    """
    area_ref = _area_ref(cfg)
    conf, cost = cols.conf, cols.cost_bits
    if len(cols) and not area_ref > 0:
        # a bad area_ref fails on row 0, after that row's confidence check
        _refuse_row(frame_index, cols, last_refined, 0, cfg)
    # bad rows are refused after the arithmetic, so it may overflow quietly
    with np.errstate(all="ignore"):
        u = 1.0 - conf
        s = np.minimum(np.maximum(1.0 - cols.area / area_ref, 0.0), 1.0)
        # frame - last > cooldown, exact in integers; a never-refined track
        # is novel whatever the cooldown. The floor keeps the bound inside
        # int64.
        bound = max(frame_index - cfg.cooldown_frames, NEVER_REFINED)
        n = ((last_refined == NEVER_REFINED) | (last_refined < bound)).astype(np.float64)
        w_u, w_s, w_n = cfg.weights
        score = (w_u * u + w_s * s + w_n * n) / cost
    ok = (conf >= 0.0) & (conf <= 1.0) & (cost > 0.0) & np.isfinite(score)
    if not ok.all():
        _refuse_row(frame_index, cols, last_refined, int(np.argmin(ok)), cfg)
    return CandidateBlock(cols, last_refined, u, s, n, score)


def _refuse_row(
    frame_index: int, cols: FrameColumns, last_refined: np.ndarray, row: int, cfg: PolicyConfig
) -> None:
    """Raise ``make_candidate``'s error for one row."""
    refined = int(last_refined[row])
    make_candidate(
        frame_index,
        cols.track_ids[row],
        cols.detections[row].bbox,
        cols.detections[row].confidence,
        None if refined == NEVER_REFINED else refined,
        cols.costs[row],
        cfg,
    )


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
    if v == "preset_balanced_top2":
        gate = (
            cfg.score_threshold
            if cfg.score_threshold is not None
            else PRESET_RELAXED_SCORE_GATE
        )
        return block.score > gate
    raise ConfigError(f"unknown policy variant {v!r}")


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
    Builds a ``RoiCandidate`` only for each selected row.
    """
    if not len(block):
        return Decision(selected=(), rejected_budget=0, rejected_threshold=0)
    eligible = _triggered(frame_index, block, cfg).nonzero()[0]
    order = eligible[np.lexsort((block.cols.track_id[eligible], -block.score[eligible]))]

    top_k = _effective_top_k(cfg)
    rows: list[int] = []
    rejected_budget = 0
    # Accumulate exactly like the ledger's sequential commits would, so the
    # engine's commit-time re-check can never disagree on a boundary case.
    sim_sum = ledger_view.window_sum_bits
    costs = block.cols.costs
    for row in order.tolist():
        if len(rows) >= top_k:
            break
        cost = costs[row]
        if sim_sum + cost <= ledger_view.cap_bits:
            rows.append(row)
            sim_sum = sim_sum + cost
        else:
            rejected_budget += 1

    return Decision(
        selected=tuple(_candidate(frame_index, block, row) for row in rows),
        rejected_budget=rejected_budget,
        rejected_threshold=len(block) - len(eligible),
        rows=tuple(rows),
    )


def _candidate(frame_index: int, block: CandidateBlock, row: int) -> RoiCandidate:
    """One row as a candidate, with Python numbers and the stream's own box."""
    cols = block.cols
    return RoiCandidate(
        frame_index=frame_index,
        track_id=cols.track_ids[row],
        bbox=cols.detections[row].bbox,
        u_term=float(block.u_term[row]),
        s_small_term=float(block.s_small_term[row]),
        # n is 0.0 or 1.0; the literals are shared objects, as novelty_term's are
        n_term=1.0 if block.n_term[row] else 0.0,
        cost_bits=cols.costs[row],
        score=float(block.score[row]),
    )
