import csv
import io
import json
import math
import random
import re
from fractions import Fraction

import pytest

from roitel import (
    BBox,
    BudgetConfig,
    DuplicateLabel,
    FrameClock,
    InvalidParam,
    MetricsReport,
    RunLog,
    TransmissionRecord,
    aggregate,
    aggregate_run,
    emit_report,
    emit_selection_report,
)
from roitel import metrics
from roitel.metrics import REPORT_COLUMNS, SELECTION_COLUMNS, report_row


def mk_tx(
    frame,
    track,
    cost_bits,
    *,
    video_conf=None,
    still_conf=None,
    video_label=None,
    still_label=None,
    video_entropy=None,
    still_entropy=None,
):
    return TransmissionRecord(
        frame_index=frame,
        t_s=frame / 15.0,
        track_id=track,
        bbox=BBox(0.0, 0.0, 20.0, 20.0),
        cost_bits=cost_bits,
        score=1e-4,
        u_term=0.5,
        s_small_term=0.5,
        n_term=1.0,
        video_conf=video_conf,
        still_conf=still_conf,
        video_label=video_label,
        still_label=still_label,
        video_entropy=video_entropy,
        still_entropy=still_entropy,
    )


def mk_log(txs, *, raw=300, processed=tuple(range(0, 300, 5)), duration=None):
    log = RunLog(
        variant="M5",
        clock=FrameClock(fps=15.0, frame_stride=5),
        budget=BudgetConfig(b_total=0.8e6, b_video=0.65e6, b_roi=0.15e6),
        base_bitrate_bps=0.801e6,
        raw_candidate_count=raw,
        processed_frame_indices=processed,
        duration_s=duration,
    )
    log.transmissions.extend(txs)
    return log


# --- pilot-scale aggregate values --------------------------------------------


def test_sparse_run_aggregates_to_report_precision():
    # 59 stills of 1364 bytes over 52.54 s next to an 801 kbps base stream
    txs = [mk_tx(i, i, 1364 * 8.0) for i in range(59)]
    rep = aggregate(mk_log(txs), 0.801e6, 52.54)
    cells = report_row("M5", rep)
    by_col = dict(zip(REPORT_COLUMNS, cells))
    assert by_col["rois"] == "59"
    assert by_col["rate_hz"] == "1.123"
    assert by_col["bitrate_mbps"] == "0.0123"
    assert by_col["share"] == "0.0151"
    assert by_col["mean_bytes"] == "1364"


def test_denser_run_aggregates_to_report_precision():
    txs = [mk_tx(i, i, 1540 * 8.0) for i in range(110)]
    rep = aggregate(mk_log(txs), 0.801e6, 52.54)
    cells = dict(zip(REPORT_COLUMNS, report_row("preset", rep)))
    assert cells["rois"] == "110"
    assert cells["rate_hz"] == "2.094"
    assert cells["bitrate_mbps"] == "0.0258"
    assert cells["share"] == "0.0312"
    assert cells["mean_bytes"] == "1540"


def test_roi_share_stays_marginal_at_pilot_scale():
    txs = [mk_tx(i, i, 1540 * 8.0) for i in range(110)]
    rep = aggregate(mk_log(txs), 0.801e6, 52.54)
    assert rep.bitrate_share < 0.04  # the side channel is a rounding error


# --- aggregate mechanics ------------------------------------------------------


def test_empty_log_aggregates_to_zeros_and_absent():
    rep = aggregate(mk_log([]), 0.801e6, 10.0)
    assert rep.selected_rois == 0
    assert rep.selection_ratio == 0.0
    assert rep.frame_coverage == 0.0
    assert rep.roi_rate_hz == 0.0
    assert rep.roi_bitrate_bps == 0.0
    assert rep.bitrate_share == 0.0
    assert rep.mean_payload_bytes == 0.0
    assert rep.mean_video_conf is None
    assert rep.mean_still_conf is None
    assert rep.mean_conf_gain is None
    assert rep.positive_gain_rate is None
    assert rep.mean_entropy_gain is None
    assert rep.prediction_change_rate is None
    assert rep.tracks_refined == 0
    assert rep.semantic_count == 0


def test_aggregate_validates_inputs():
    with pytest.raises(InvalidParam):
        aggregate(mk_log([]), 0.801e6, 0.0)
    with pytest.raises(InvalidParam):
        aggregate(mk_log([]), -1.0, 10.0)


def test_total_bits_conservation():
    rng = random.Random(3)
    costs = [rng.uniform(1000.0, 20000.0) for _ in range(200)]
    txs = [mk_tx(i, i % 7, c) for i, c in enumerate(costs)]
    rep = aggregate(mk_log(txs), 0.801e6, 20.0)
    assert rep.total_payload_bits == math.fsum(costs)
    assert rep.roi_bitrate_bps == rep.total_payload_bits / 20.0
    assert rep.mean_payload_bytes == (rep.total_payload_bits / 8.0) / 200
    assert rep.tracks_refined == 7


def test_aggregate_is_permutation_invariant():
    rng = random.Random(9)
    txs = [
        mk_tx(
            i,
            i % 5,
            rng.uniform(1000.0, 20000.0),
            video_conf=rng.random(),
            still_conf=rng.random(),
            video_label=rng.randrange(3),
            still_label=rng.randrange(3),
            video_entropy=rng.uniform(0, 3),
            still_entropy=rng.uniform(0, 3),
        )
        for i in range(150)
    ]
    baseline = aggregate(mk_log(txs), 0.801e6, 30.0)
    for _ in range(30):
        shuffled = txs[:]
        rng.shuffle(shuffled)
        assert aggregate(mk_log(shuffled), 0.801e6, 30.0) == baseline


@pytest.mark.parametrize("chunk", [1, 7])
def test_aggregate_takes_a_log_a_chunk_at_a_time(monkeypatch, chunk):
    # every third record has no sidecar answer
    txs = [
        mk_tx(i, i % 5, 1000.0 + i)
        if i % 3 == 0
        else mk_tx(i, i % 5, 1000.0 + i, video_conf=0.2, still_conf=0.1 * (i % 4),
                   video_label=i % 2, still_label=1, video_entropy=1.0, still_entropy=0.5 * i)
        for i in range(20)
    ]
    whole = aggregate(mk_log(txs), 0.801e6, 30.0)
    assert (whole.selected_rois, whole.semantic_count, whole.tracks_refined) == (20, 13, 5)
    monkeypatch.setattr(metrics, "_CHUNK", chunk)
    assert aggregate(mk_log(txs), 0.801e6, 30.0) == whole


def test_share_increases_with_roi_traffic():
    shares = []
    for n in (0, 10, 50, 200):
        txs = [mk_tx(i, i, 8000.0) for i in range(n)]
        shares.append(aggregate(mk_log(txs), 0.801e6, 20.0).bitrate_share)
    assert shares[0] == 0.0
    assert shares == sorted(shares)
    assert len(set(shares)) == len(shares)


def test_share_formula_identity():
    txs = [mk_tx(i, i, 12345.6) for i in range(20)]
    rep = aggregate(mk_log(txs), 0.801e6, 20.0)
    assert rep.bitrate_share == rep.roi_bitrate_bps / (0.801e6 + rep.roi_bitrate_bps)


def test_share_holds_where_base_plus_roi_bitrate_is_beyond_the_float_range():
    rep = aggregate(mk_log([mk_tx(0, 0, 8e306)]), 1.6e308, 0.3)
    assert math.isinf(1.6e308 + rep.roi_bitrate_bps)
    exact = Fraction(rep.roi_bitrate_bps) / (Fraction(1.6e308) + Fraction(rep.roi_bitrate_bps))
    assert rep.bitrate_share == pytest.approx(float(exact), rel=1e-15)


def sem_tx(track, video_entropy):
    return mk_tx(0, track, 8000.0, video_conf=0.2, still_conf=0.3, video_label=1,
                 still_label=1, video_entropy=video_entropy, still_entropy=0.0)


@pytest.mark.parametrize(
    "txs,base,duration,quantity",
    [
        ([mk_tx(0, 0, 8000.0)], 0.801e6, 1e-320, "roi_rate_hz"),
        ([mk_tx(0, 0, 1e308)] * 2, 0.801e6, 10.0, "roi_bitrate_bps"),
        ([mk_tx(0, 0, 8000.0)], math.inf, 10.0, "base_bitrate_bps"),
        ([sem_tx(1, 1.7e308), sem_tx(2, 1.7e308)], 0.801e6, 10.0, "mean_entropy_gain"),
        # two integers within the float range whose difference is beyond it
        (
            [sem_tx(1, 0.0)._replace(video_conf=-(10**308), still_conf=10**308)],
            0.801e6,
            10.0,
            "mean_conf_gain",
        ),
    ],
)
def test_aggregate_refuses_a_number_beyond_the_float_range(txs, base, duration, quantity):
    message = f"{quantity} = inf is not finite for duration_s = {duration!r}"
    with pytest.raises(InvalidParam, match=re.escape(message)):
        aggregate(mk_log(txs), base, duration)


def test_semantic_means_and_strict_positive_rate():
    txs = [
        mk_tx(0, 0, 8000.0, video_conf=0.2, still_conf=0.3,
              video_label=1, still_label=1, video_entropy=2.0, still_entropy=1.5),
        mk_tx(5, 1, 8000.0, video_conf=0.4, still_conf=0.4,
              video_label=1, still_label=2, video_entropy=1.0, still_entropy=1.0),
        mk_tx(10, 2, 8000.0, video_conf=0.5, still_conf=0.4,
              video_label=2, still_label=2, video_entropy=1.0, still_entropy=1.2),
        mk_tx(15, 3, 8000.0),  # no sidecar data: excluded from semantic means
    ]
    rep = aggregate(mk_log(txs), 0.801e6, 20.0)
    assert rep.semantic_count == 3
    assert rep.mean_video_conf == pytest.approx((0.2 + 0.4 + 0.5) / 3)
    assert rep.mean_still_conf == pytest.approx((0.3 + 0.4 + 0.4) / 3)
    assert rep.mean_conf_gain == pytest.approx((0.1 + 0.0 - 0.1) / 3, abs=1e-12)
    assert rep.positive_gain_rate == pytest.approx(1 / 3)  # zero gain is not positive
    assert rep.mean_entropy_gain == pytest.approx((0.5 + 0.0 - 0.2) / 3)
    assert rep.prediction_change_rate == pytest.approx(1 / 3)


def test_combined_utility_weights_semantic_gain():
    txs = [
        mk_tx(0, 0, 8000.0, video_conf=0.2, still_conf=0.3,
              video_label=1, still_label=1, video_entropy=1.0, still_entropy=1.0)
    ]
    log = mk_log(txs)
    log.detection_conf_mean = 0.6
    rep = aggregate(log, 0.801e6, 20.0, lambda_cls=0.5)
    assert rep.combined_utility == 0.6 + 0.5 * rep.mean_conf_gain
    assert aggregate(log, 0.801e6, 20.0).combined_utility is None
    bare = mk_log([mk_tx(0, 0, 8000.0)])
    bare.detection_conf_mean = 0.6
    assert aggregate(bare, 0.801e6, 20.0, lambda_cls=0.5).combined_utility == 0.6


def test_frame_coverage_counts_distinct_frames():
    txs = [mk_tx(0, 0, 8000.0), mk_tx(0, 1, 8000.0), mk_tx(5, 0, 8000.0)]
    rep = aggregate(mk_log(txs, processed=(0, 5, 10, 15)), 0.801e6, 20.0)
    assert rep.frame_coverage == 2 / 4
    assert rep.selected_rois == 3


# --- duration derivation ------------------------------------------------------


def test_explicit_duration_wins():
    from roitel.metrics import derive_duration

    log = mk_log([], duration=52.54)
    assert derive_duration(log) == 52.54


def test_duration_from_processed_span():
    from roitel.metrics import derive_duration

    log = mk_log([], processed=(0, 5, 10, 55))
    assert derive_duration(log) == (55 - 0) / 15.0


def test_duration_underivable_without_span():
    from roitel.metrics import derive_duration

    with pytest.raises(InvalidParam, match="duration_s"):
        derive_duration(mk_log([], processed=(0,)))
    with pytest.raises(InvalidParam, match="duration_s"):
        derive_duration(mk_log([], processed=()))


def test_aggregate_run_uses_log_fields():
    txs = [mk_tx(i, i, 8000.0) for i in range(10)]
    log = mk_log(txs, processed=tuple(range(0, 300, 5)))
    rep = aggregate_run(log)
    assert rep.duration_s == (295 - 0) / 15.0
    assert rep.base_bitrate_bps == 0.801e6


def test_aggregate_selection_fields():
    txs = [mk_tx(i * 5, i, 8000.0) for i in range(12)]
    log = mk_log(txs, raw=120, processed=tuple(range(0, 300, 5)))
    rep = aggregate(log, 0.801e6, 20.0)
    assert rep.selected_rois == 12
    assert rep.selection_ratio == 12 / 120
    assert rep.frame_coverage == 12 / 60


# --- emitters -----------------------------------------------------------------


def reports_pair():
    sparse = aggregate(mk_log([mk_tx(i, i, 1364 * 8.0) for i in range(59)]), 0.801e6, 52.54)
    dense = aggregate(mk_log([mk_tx(i, i, 1540 * 8.0) for i in range(110)]), 0.801e6, 52.54)
    return [("M5", sparse), ("preset_permissive", dense)]


def test_report_has_exactly_the_frozen_columns():
    assert REPORT_COLUMNS == (
        "policy",
        "rois",
        "rate_hz",
        "bitrate_mbps",
        "share",
        "mean_bytes",
        "video_conf",
        "still_conf",
        "conf_gain",
        "pos_rate",
        "entropy_gain",
    )
    assert len(REPORT_COLUMNS) == 11


def test_csv_report_round_trips_at_display_precision():
    text = emit_report(reports_pair(), fmt="csv", config_echo={"clock.fps": "15.0"})
    assert text.startswith("# clock.fps = 15.0\n")
    body = [ln for ln in text.splitlines() if not ln.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(body))))
    assert rows[0] == list(REPORT_COLUMNS)
    assert rows[1][0] == "M5"
    assert rows[1][1] == "59"
    assert rows[1][3] == "0.0123"
    assert rows[2][4] == "0.0312"
    # semantic columns are empty, not zero, when uncovered
    assert rows[1][6:] == [""] * 5


def test_json_report_carries_full_precision_extras():
    text = emit_report(reports_pair(), fmt="json", config_echo={"a": "1"})
    obj = json.loads(text)
    assert obj["columns"] == list(REPORT_COLUMNS)
    assert obj["config"] == {"a": "1"}
    assert len(obj["rows"]) == 2
    row = obj["rows"][0]
    assert row["policy"] == "M5"
    assert row["rois"] == 59
    assert row["video_conf"] is None
    extra = row["extra"]
    assert extra["total_payload_bits"] == 59 * 1364 * 8.0
    assert extra["duration_s"] == 52.54
    assert extra["semantic_count"] == 0
    assert extra["roi_bitrate_bps"] == pytest.approx(59 * 1364 * 8.0 / 52.54)


@pytest.mark.parametrize("emit", [emit_report, emit_selection_report])
def test_json_reports_keep_labels_as_text(emit):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    rep = aggregate(mk_log([]), 0.801e6, 10.0)
    labels = ["nan", "007", "Infinity", "2.5"]
    obj = json.loads(emit([(label, rep) for label in labels], fmt="json"), parse_constant=refuse)
    assert [row["policy"] for row in obj["rows"]] == labels
    count = obj["columns"][1]  # the ROI count, still a number
    assert [row[count] for row in obj["rows"]] == [0] * 4


def test_markdown_report_renders_absent_as_dash():
    text = emit_report(reports_pair(), fmt="markdown")
    lines = text.splitlines()
    assert lines[0].startswith("| policy |")
    assert set(lines[1].replace("|", "").split()) == {"---"}
    assert "| - |" in lines[2]  # absent semantic cells
    assert "| 59 |" in lines[2]


def test_empty_report_is_header_only():
    assert emit_report([], fmt="csv") == ",".join(REPORT_COLUMNS) + "\n"


def test_duplicate_labels_rejected():
    rep = aggregate(mk_log([]), 0.801e6, 10.0)
    with pytest.raises(DuplicateLabel):
        emit_report([("M5", rep), ("M5", rep)])


@pytest.mark.parametrize("emit", [emit_report, emit_selection_report])
@pytest.mark.parametrize("label", ["", " ", " \t"])
def test_a_label_that_names_no_row_is_rejected(emit, label):
    rep = aggregate(mk_log([]), 0.801e6, 10.0)
    with pytest.raises(InvalidParam, match="is empty or only whitespace"):
        emit([("M5", rep), (label, rep)])


def test_unknown_format_rejected():
    with pytest.raises(InvalidParam, match="format"):
        emit_report(reports_pair(), fmt="yaml")


def test_selection_report_shape():
    text = emit_selection_report(reports_pair(), fmt="csv")
    rows = text.splitlines()
    assert rows[0] == ",".join(SELECTION_COLUMNS)
    first = rows[1].split(",")
    assert first[0] == "M5"
    assert first[1] == "59"
    assert first[2] == format(59 / 300, ".3f")
