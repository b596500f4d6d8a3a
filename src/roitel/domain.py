"""Core value types and geometry shared by every other module, and every
run-config type, ``RunConfig`` and its members, with their checks.

All types here are immutable dataclasses validated at construction, so a
value that exists is a value that satisfies its invariants. Coordinates are
continuous pixel units; annotation files may carry fractional boxes. Only
the standard library is imported, so the report layer loads no NumPy.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

from .errors import BudgetConfigError, ConfigError, InvalidParam

#: Default Eq.-style score weights (uncertainty, size-priority, novelty).
DEFAULT_WEIGHTS = (0.5, 0.3, 0.2)

#: Default reference area for the size-priority term: a 32x32 px object.
DEFAULT_AREA_REF = 32.0 * 32.0

#: Frame indices, strides, class ids and labels are kept in int64 columns.
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1

POLICY_VARIANTS = (
    "M0",
    "M1",
    "M2",
    "M3",
    "M4",
    "M5",
    "preset_permissive",
    "preset_conf_size_top1",
    "preset_strict_small_only",
    "preset_balanced_top2",
)


def _finite(value) -> bool:
    """True for a number a run log can hold: not NaN, not infinite, and not
    an integer beyond the float range."""
    return -sys.float_info.max <= value <= sys.float_info.max


def _check_finite(cfg, names: tuple[str, ...], error: type = InvalidParam) -> None:
    """Refuse a number no run log can hold in the named fields of ``cfg``;
    None passes. A type runs this after its range checks of those fields,
    so a value that a range check refuses keeps that check's message."""
    for name in names:
        value = getattr(cfg, name)
        if value is not None and not _finite(value):
            raise error(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box: top-left corner plus strictly positive extent."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        if not (self.w > 0 and self.h > 0):
            raise InvalidParam(f"bbox extent must be positive, got w={self.w} h={self.h}")

    def area(self) -> float:
        return self.w * self.h


@dataclass(frozen=True)
class Detection:
    """One observed box in one frame; the atomic simulator input."""

    frame_index: int
    bbox: BBox
    confidence: float
    class_id: int
    track_hint: Optional[int] = None

    def __post_init__(self):
        if self.frame_index < 0:
            raise InvalidParam(f"frame_index must be >= 0, got {self.frame_index}")
        if not (0.0 <= self.confidence <= 1.0):
            raise InvalidParam(f"confidence must be in [0,1], got {self.confidence}")


@dataclass(frozen=True)
class FrameClock:
    """Maps frame indices to wall time and fixes the decision cadence."""

    fps: float = 15.0
    frame_stride: int = 5

    def __post_init__(self):
        if not self.fps > 0:
            raise InvalidParam(f"fps must be > 0, got {self.fps}")
        _check_finite(self, ("fps",))
        if self.frame_stride < 1:
            raise InvalidParam(f"frame_stride must be >= 1, got {self.frame_stride}")
        if self.frame_stride > INT64_MAX:
            raise InvalidParam(f"frame_stride outside int64: {self.frame_stride}")

    def timestamp(self, frame_index: int) -> float:
        """Seconds since frame 0; strictly increasing in frame_index, and
        refused beyond the float range."""
        if frame_index < 0:
            raise InvalidParam(f"frame_index must be >= 0, got {frame_index}")
        t_s = frame_index / self.fps
        if not math.isfinite(t_s):
            raise InvalidParam(f"t_s is not finite at frame {frame_index}: fps is {self.fps}")
        return t_s


@dataclass(frozen=True)
class BudgetConfig:
    """Total/base/ROI bitrate split plus the rolling-window length."""

    b_total: float
    b_video: float
    b_roi: float
    window_s: float = 2.0

    def __post_init__(self):
        for name in ("b_total", "b_video", "b_roi"):
            if getattr(self, name) < 0:
                raise BudgetConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not self.window_s > 0:
            raise InvalidParam(f"window_s must be > 0, got {self.window_s}")
        if self.b_video + self.b_roi > self.b_total:
            raise BudgetConfigError(
                f"b_video + b_roi = {self.b_video + self.b_roi} exceeds b_total = {self.b_total}"
            )
        _check_finite(self, ("b_total", "b_video", "b_roi"), BudgetConfigError)
        _check_finite(self, ("window_s",))


@dataclass(frozen=True)
class EvalConfig:
    """Report-side knobs: optional utility weight and duration override."""

    lambda_cls: Optional[float] = None
    duration_s: Optional[float] = None

    def __post_init__(self):
        if self.lambda_cls is not None and self.lambda_cls < 0:
            raise InvalidParam(f"lambda_cls must be >= 0, got {self.lambda_cls}")
        if self.duration_s is not None and not self.duration_s > 0:
            raise InvalidParam(f"duration_s must be > 0, got {self.duration_s}")
        _check_finite(self, ("lambda_cls", "duration_s"))


@dataclass(frozen=True)
class PolicyConfig:
    """Scheduling policy selection and its per-variant parameters.

    Thresholds default to None; variants that require one raise ConfigError
    at decision time when it is missing (M1 period and the preset gates have
    documented defaults instead). ``weights`` are the score coefficients for
    the uncertainty, size-priority, and novelty terms.
    """

    variant: str = "M5"
    period_frames: int = 15
    conf_threshold: Optional[float] = None
    area_threshold: Optional[float] = None
    score_threshold: Optional[float] = None
    top_k: Optional[int] = None
    cooldown_frames: int = 30
    weights: tuple[float, float, float] = DEFAULT_WEIGHTS

    def __post_init__(self):
        if self.variant not in POLICY_VARIANTS:
            raise ConfigError(f"unknown policy variant {self.variant!r}")
        if self.period_frames < 1:
            raise ConfigError(f"period_frames must be >= 1, got {self.period_frames}")
        if self.conf_threshold is not None and not (0.0 <= self.conf_threshold <= 1.0):
            raise ConfigError(f"conf_threshold must be in [0,1], got {self.conf_threshold}")
        if self.area_threshold is not None and not self.area_threshold > 0:
            raise ConfigError(f"area_threshold must be > 0, got {self.area_threshold}")
        if self.top_k is not None and self.top_k < 1:
            raise ConfigError(f"top_k must be >= 1, got {self.top_k}")
        if self.cooldown_frames < 0:
            raise ConfigError(f"cooldown_frames must be >= 0, got {self.cooldown_frames}")
        if len(self.weights) != 3 or any(w < 0 for w in self.weights):
            raise ConfigError(f"weights must be three non-negative reals, got {self.weights}")
        _check_finite(self, ("area_threshold", "score_threshold"), ConfigError)
        if not all(map(_finite, self.weights)):
            raise ConfigError(f"weights must be finite, got {self.weights}")


@dataclass(frozen=True)
class TrackerConfig:
    iou_min: float = 0.3
    max_misses: int = 10
    use_hints: bool = False

    def __post_init__(self):
        if not (0.0 <= self.iou_min <= 1.0):
            raise InvalidParam(f"iou_min must be in [0,1], got {self.iou_min}")
        if self.max_misses < 0:
            raise InvalidParam(f"max_misses must be >= 0, got {self.max_misses}")


@dataclass(frozen=True)
class CostModel:
    """Bits charged per ROI still: fixed header plus area-scaled payload.

    Defaults are calibrated so a resized 128x128 crop costs about 1.5 KB,
    in line with observed mean still payloads. When ``resize_edge`` is set,
    the crop is modeled at that square size regardless of the source box;
    otherwise the box is padded by ``pad_ratio`` per side.
    """

    header_bytes: int = 400
    bits_per_pixel: float = 0.55
    resize_edge: Optional[float] = None
    pad_ratio: float = 0.15

    def __post_init__(self):
        if not 0 <= self.header_bytes <= sys.float_info.max:
            raise InvalidParam(f"header_bytes must be in [0, max float], got {self.header_bytes}")
        if not self.bits_per_pixel > 0:
            raise InvalidParam(f"bits_per_pixel must be > 0, got {self.bits_per_pixel}")
        if self.resize_edge is not None and not self.resize_edge > 0:
            raise InvalidParam(f"resize_edge must be > 0, got {self.resize_edge}")
        if self.pad_ratio < 0:
            raise InvalidParam(f"pad_ratio must be >= 0, got {self.pad_ratio}")
        _check_finite(self, ("bits_per_pixel", "resize_edge", "pad_ratio"))


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
        _check_finite(self, ("base_bitrate_measured",))
