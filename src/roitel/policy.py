"""ROI transmission policies: periodic, event, threshold, and utility-per-bit.

Every tracked detection on a processed frame becomes a scored candidate.
``decide`` applies the configured variant's trigger rule, orders survivors
by descending score (ties to the lower track id), and admits them against
the rolling budget view. Candidates denied by the ledger are counted, never
silently dropped.

Term functional forms:
  uncertainty  u = 1 - detector confidence
  size priority s = clamp(1 - area / area_ref, 0, 1)
  novelty      n = 1 if never refined or refined longer than the cooldown
                   ago, else 0
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .budget import LedgerView
from .domain import DEFAULT_AREA_REF, BBox, PolicyConfig
from .errors import ConfigError, InvalidParam

#: Preset gate defaults, pilot-tuned; every threshold stays configurable.
PERMISSIVE_CONF_GATE = 0.25
PRESET_CONF_GATE = 0.3
PRESET_AREA_GATE = DEFAULT_AREA_REF  # 32x32 px
PRESET_RELAXED_SCORE_GATE = 0.0

_UNLIMITED = 1 << 30


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


@dataclass(frozen=True)
class CandidateContext:
    """A candidate plus the track facts the trigger rules consult."""

    candidate: RoiCandidate
    confidence: float
    is_new: bool
    created_frame: int
    last_refined_frame: Optional[int]


@dataclass(frozen=True)
class Decision:
    """Per-step policy output: selections plus rejection accounting."""

    selected: tuple[RoiCandidate, ...]
    rejected_budget: int
    rejected_threshold: int


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


def make_candidate(
    frame_index: int,
    track_id: int,
    bbox: BBox,
    confidence: float,
    last_refined_frame: Optional[int],
    cost_bits: float,
    cfg: PolicyConfig,
) -> RoiCandidate:
    """Compute all score terms for one tracked detection."""
    area_ref = cfg.area_threshold if cfg.area_threshold is not None else DEFAULT_AREA_REF
    u = uncertainty_term(confidence)
    s = size_term(bbox, area_ref)
    n = novelty_term(last_refined_frame, frame_index, cfg.cooldown_frames)
    return RoiCandidate(
        frame_index=frame_index,
        track_id=track_id,
        bbox=bbox,
        u_term=u,
        s_small_term=s,
        n_term=n,
        cost_bits=cost_bits,
        score=score_roi(u, s, n, cost_bits, cfg.weights),
    )


def _require(cfg: PolicyConfig, name: str) -> float:
    value = getattr(cfg, name)
    if value is None:
        raise ConfigError(f"policy {cfg.variant} requires {name}")
    return value


def _triggered(ctx: CandidateContext, cfg: PolicyConfig) -> bool:
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
        return ctx.is_new
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
    contexts: list[CandidateContext],
    ledger_view: LedgerView,
    cfg: PolicyConfig,
) -> Decision:
    """Select this step's transmissions from the frame's candidates.

    Pure given its inputs: budget consumption within the step is simulated
    against the read-only view; the engine performs the actual commits.
    """
    eligible: list[CandidateContext] = []
    rejected_threshold = 0
    for ctx in contexts:
        if _triggered(ctx, cfg):
            eligible.append(ctx)
        else:
            rejected_threshold += 1

    eligible.sort(key=lambda c: (-c.candidate.score, c.candidate.track_id))

    top_k = _effective_top_k(cfg)
    selected: list[RoiCandidate] = []
    rejected_budget = 0
    # Accumulate exactly like the ledger's sequential commits would, so the
    # engine's commit-time re-check can never disagree on a boundary case.
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
