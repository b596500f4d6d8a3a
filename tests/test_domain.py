import math
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from roitel import (
    BBox,
    BudgetConfig,
    BudgetConfigError,
    ConfigError,
    CostModel,
    Detection,
    EvalConfig,
    FrameClock,
    InvalidParam,
    PolicyConfig,
    RunConfig,
    TrackerConfig,
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


INF, NAN = math.inf, math.nan
RUN = RunConfig(
    FrameClock(),
    BudgetConfig(800000.0, 650000.0, 150000.0),
    PolicyConfig(),
    TrackerConfig(),
    CostModel(),
    EvalConfig(),
)


@pytest.mark.parametrize(
    "build, error, field",
    [
        (lambda: BudgetConfig(INF, 650000.0, 150000.0), BudgetConfigError, "b_total"),
        (lambda: BudgetConfig(INF, 0.0, INF), BudgetConfigError, "b_total"),
        (lambda: BudgetConfig(1.0, 0.5, 0.5, window_s=INF), InvalidParam, "window_s"),
        (lambda: BudgetConfig(800000.0, 650000.0, NAN), BudgetConfigError, "b_roi"),
        (lambda: BudgetConfig(800000.0, NAN, 150000.0), BudgetConfigError, "b_video"),
        (lambda: BudgetConfig(10**400, 0.0, 0.0), BudgetConfigError, "b_total"),
        (lambda: EvalConfig(duration_s=INF), InvalidParam, "duration_s"),
        (lambda: EvalConfig(lambda_cls=INF), InvalidParam, "lambda_cls"),
        (lambda: replace(RUN, base_bitrate_measured=INF), InvalidParam, "base_bitrate_measured"),
        (lambda: replace(RUN, base_bitrate_measured=NAN), InvalidParam, "base_bitrate_measured"),
        (lambda: PolicyConfig(area_threshold=INF), ConfigError, "area_threshold"),
        (lambda: PolicyConfig(score_threshold=NAN), ConfigError, "score_threshold"),
        (lambda: PolicyConfig(score_threshold=-INF), ConfigError, "score_threshold"),
        (lambda: PolicyConfig(weights=(0.5, INF, 0.2)), ConfigError, "weights"),
        (lambda: CostModel(bits_per_pixel=INF), InvalidParam, "bits_per_pixel"),
        (lambda: CostModel(resize_edge=INF), InvalidParam, "resize_edge"),
        (lambda: CostModel(pad_ratio=NAN), InvalidParam, "pad_ratio"),
        (lambda: FrameClock(fps=10**400), InvalidParam, "fps"),
    ],
    ids=[
        "b_total_inf",
        "b_total_and_b_roi_inf",
        "window_s_inf",
        "b_roi_nan",
        "b_video_nan",
        "b_total_10**400",
        "duration_s_inf",
        "lambda_cls_inf",
        "base_bitrate_measured_inf",
        "base_bitrate_measured_nan",
        "area_threshold_inf",
        "score_threshold_nan",
        "score_threshold_-inf",
        "weights_inf",
        "bits_per_pixel_inf",
        "resize_edge_inf",
        "pad_ratio_nan",
        "fps_10**400",
    ],
)
def test_a_run_config_refuses_a_number_no_run_log_can_hold(build, error, field):
    # a run under each wrote a header that read_jsonl refuses, or, with
    # lambda_cls, a log that aggregate_run refuses; fps = 10**400 ended in
    # an OverflowError
    with pytest.raises(error, match=f"^{field} must be finite, got ") as exc:
        build()
    assert type(exc.value) is error


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: FrameClock(fps=INF, frame_stride=0), InvalidParam, "fps must be finite, got inf"),
        (lambda: FrameClock(fps=NAN), InvalidParam, "fps must be > 0, got nan"),
        (lambda: BudgetConfig(1.0, -INF, 0.5), BudgetConfigError, "b_video must be >= 0, got -inf"),
        (lambda: BudgetConfig(INF, 1.0, INF, window_s=NAN), InvalidParam, "window_s must be > 0"),
        (lambda: EvalConfig(lambda_cls=-INF), InvalidParam, "lambda_cls must be >= 0, got -inf"),
        (lambda: EvalConfig(duration_s=NAN), InvalidParam, "duration_s must be > 0, got nan"),
        (lambda: PolicyConfig(conf_threshold=INF), ConfigError, r"conf_threshold must be in \["),
        (lambda: PolicyConfig(weights=(-INF, 0.3, 0.2)), ConfigError, "weights must be three"),
        (lambda: TrackerConfig(iou_min=NAN), InvalidParam, r"iou_min must be in \[0,1\], got nan"),
        (lambda: CostModel(bits_per_pixel=NAN), InvalidParam, "bits_per_pixel must be > 0"),
        (lambda: CostModel(pad_ratio=-INF), InvalidParam, "pad_ratio must be >= 0, got -inf"),
        (
            lambda: replace(RUN, base_bitrate_measured=-INF),
            InvalidParam,
            "base_bitrate_measured must be >= 0, got -inf",
        ),
    ],
    ids=[
        "fps_inf_before_stride",
        "fps_nan",
        "b_video_-inf",
        "window_s_nan",
        "lambda_cls_-inf",
        "duration_s_nan",
        "conf_threshold_inf",
        "weights_-inf",
        "iou_min_nan",
        "bits_per_pixel_nan",
        "pad_ratio_-inf",
        "base_bitrate_measured_-inf",
    ],
)
def test_a_range_check_keeps_its_message_for_a_non_finite_value(build, error, message):
    # the finite checks run after each type's range checks
    with pytest.raises(error, match=f"^{message}") as exc:
        build()
    assert type(exc.value) is error
