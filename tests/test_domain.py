import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from roitel import (
    BBox,
    BudgetConfig,
    BudgetConfigError,
    ConfigError,
    Detection,
    EvalConfig,
    FrameClock,
    InvalidParam,
    PolicyConfig,
)
from helpers import iou

boxes = st.builds(
    BBox,
    x=st.floats(-1000, 1000),
    y=st.floats(-1000, 1000),
    w=st.floats(0.1, 500),
    h=st.floats(0.1, 500),
)


def test_bbox_rejects_nonpositive_extent():
    with pytest.raises(InvalidParam):
        BBox(0, 0, 0, 10)
    with pytest.raises(InvalidParam):
        BBox(0, 0, 10, -1)


def test_bbox_area():
    assert BBox(2, 3, 4, 5).area() == 20.0


def test_detection_bounds():
    det = Detection(frame_index=0, bbox=BBox(0, 0, 1, 1), confidence=0.5, class_id=3)
    assert det.track_hint is None
    with pytest.raises(InvalidParam):
        Detection(frame_index=-1, bbox=BBox(0, 0, 1, 1), confidence=0.5, class_id=0)
    with pytest.raises(InvalidParam):
        Detection(frame_index=0, bbox=BBox(0, 0, 1, 1), confidence=1.5, class_id=0)


def test_iou_identity_and_disjoint():
    a = BBox(0, 0, 10, 10)
    assert iou(a, a) == 1.0
    assert iou(a, BBox(20, 20, 5, 5)) == 0.0


def test_iou_half_overlap():
    # inter = 5x10 = 50, union = 100 + 100 - 50 = 150
    a = BBox(0, 0, 10, 10)
    b = BBox(5, 0, 10, 10)
    assert iou(a, b) == pytest.approx(50.0 / 150.0)


@given(a=boxes, b=boxes)
def test_iou_symmetric_and_bounded(a, b):
    v = iou(a, b)
    assert v == iou(b, a)
    assert 0.0 <= v <= 1.0


@given(a=boxes)
def test_iou_self_is_one(a):
    # (x+w)-x can round below w, so self-IoU may fall an ulp short of 1
    assert math.isclose(iou(a, a), 1.0, rel_tol=1e-12)
    assert iou(a, a) <= 1.0


def test_clock_timestamps():
    clock = FrameClock(fps=15.0, frame_stride=5)
    assert clock.timestamp(0) == 0.0
    assert clock.timestamp(30) == 2.0
    assert clock.timestamp(59) == pytest.approx(59 / 15)
    with pytest.raises(InvalidParam):
        clock.timestamp(-1)
    # a timestamp beyond the float range would reach a run log as Infinity
    assert FrameClock(fps=1e-307).timestamp(10) == 10 / 1e-307
    with pytest.raises(InvalidParam, match="t_s is not finite at frame 20"):
        FrameClock(fps=1e-307).timestamp(20)
    with pytest.raises(InvalidParam):
        FrameClock(fps=0.0)
    with pytest.raises(InvalidParam, match="fps must be finite, got inf"):
        FrameClock(fps=math.inf)
    with pytest.raises(InvalidParam, match="frame_stride must be >= 1, got 0"):
        FrameClock(frame_stride=0)
    # a stride is written to the run log as an integer the reader takes back
    assert FrameClock(frame_stride=2**63 - 1).frame_stride == 2**63 - 1
    with pytest.raises(InvalidParam, match=f"frame_stride outside int64: {2**63}"):
        FrameClock(frame_stride=2**63)


def test_budget_config_split_rule():
    # boundary: exact equality is allowed
    BudgetConfig(b_total=0.8e6, b_video=0.65e6, b_roi=0.15e6)
    with pytest.raises(BudgetConfigError):
        BudgetConfig(b_total=0.8e6, b_video=0.7e6, b_roi=0.2e6)
    with pytest.raises(BudgetConfigError):
        BudgetConfig(b_total=1.0, b_video=-0.5, b_roi=0.5)
    with pytest.raises(InvalidParam):
        BudgetConfig(b_total=1.0, b_video=0.5, b_roi=0.5, window_s=0.0)


def test_eval_config_bounds():
    EvalConfig(lambda_cls=0.0, duration_s=None)
    with pytest.raises(InvalidParam):
        EvalConfig(lambda_cls=-1.0)
    with pytest.raises(InvalidParam):
        EvalConfig(duration_s=0.0)


def test_policy_config_validation():
    cfg = PolicyConfig()
    assert cfg.variant == "M5"
    assert math.isclose(sum(cfg.weights), 1.0, rel_tol=1e-9)
    with pytest.raises(ConfigError):
        PolicyConfig(variant="M9")
    with pytest.raises(ConfigError):
        PolicyConfig(period_frames=0)
    with pytest.raises(ConfigError):
        PolicyConfig(conf_threshold=1.5)
    with pytest.raises(ConfigError):
        PolicyConfig(top_k=0)
    with pytest.raises(ConfigError):
        PolicyConfig(weights=(0.5, 0.3))
