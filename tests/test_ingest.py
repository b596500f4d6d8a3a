import hashlib
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from roitel import (
    CostModel,
    DetectionStream,
    DuplicateKey,
    FrameClock,
    InvalidParam,
    ParseError,
    SemanticRecord,
    SemanticSidecar,
    gen_synthetic,
    inject_confidence_noise,
    parse_generic_csv,
    parse_sidecar_csv,
    parse_uavdt_gt,
    parse_visdrone_mot,
    run,
    write_generic_csv,
)
from helpers import low_regime_cfg, mk_det, mk_stream


# --- generic CSV ------------------------------------------------------------


def test_generic_row_parses():
    stream = parse_generic_csv("0,-1,10,20,30,40,0.9,2\n")
    assert stream.n_detections == 1
    det = stream.frames[0][1][0]
    assert det.frame_index == 0
    assert det.track_hint is None  # -1 means no hint
    assert (det.bbox.x, det.bbox.y, det.bbox.w, det.bbox.h) == (10.0, 20.0, 30.0, 40.0)
    assert det.confidence == 0.9
    assert det.class_id == 2


def test_generic_hint_preserved():
    det = parse_generic_csv("3,17,0,0,5,5,0.5,0\n").detections_at(3)[0]
    assert det.frame_index == 3
    assert det.track_hint == 17


def test_generic_skips_comments_and_blanks():
    text = "# a comment\n\n0,-1,0,0,5,5,0.5,0\n   \n# more\n1,-1,0,0,5,5,0.5,0\n"
    stream = parse_generic_csv(text)
    assert stream.n_detections == 2
    assert [f for f, _ in stream.frames] == [0, 1]


def test_generic_crlf_accepted():
    stream = parse_generic_csv("0,-1,0,0,5,5,0.5,0\r\n1,-1,0,0,5,5,0.5,0\r\n")
    assert stream.n_detections == 2


@pytest.mark.parametrize(
    "row,fragment",
    [
        ("0,-1,10,20,30,40,1.5,2", "confidence out of range"),
        ("0,-1,10,20,30,40,-0.1,2", "confidence out of range"),
        ("0,-1,10,20,0,40,0.9,2", "non-positive width"),
        ("0,-1,10,20,30,-1,0.9,2", "non-positive height"),
        ("-1,-1,10,20,30,40,0.9,2", "negative frame"),
        ("0,-1,10,20,30,40,0.9", "expected 8 columns"),
        ("0,-1,ten,20,30,40,0.9,2", "non-numeric x"),
    ],
)
def test_generic_rejects_bad_rows(row, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_generic_csv(row + "\n")


def test_parse_error_carries_line_number():
    text = "0,-1,0,0,5,5,0.5,0\n1,-1,0,0,5,5,1.5,0\n"
    with pytest.raises(ParseError) as exc:
        parse_generic_csv(text)
    assert exc.value.line_no == 2


def test_errors_out_collects_all_and_keeps_good_rows():
    text = (
        "0,-1,0,0,5,5,0.5,0\n"
        "1,-1,0,0,5,5,1.5,0\n"  # bad conf
        "2,-1,0,0,0,5,0.5,0\n"  # bad width
        "3,-1,0,0,5,5,0.5,0\n"
    )
    errors: list[ParseError] = []
    stream = parse_generic_csv(text, errors_out=errors)
    assert stream.n_detections == 2
    assert [e.line_no for e in errors] == [2, 3]


def test_clock_comment_and_precedence():
    text = "# clock: fps=30.0 stride=2\n0,-1,0,0,5,5,0.5,0\n"
    stream = parse_generic_csv(text)
    assert stream.clock == FrameClock(fps=30.0, frame_stride=2)
    # no comment: defaults
    bare = parse_generic_csv("0,-1,0,0,5,5,0.5,0\n")
    assert bare.clock == FrameClock()


# --- benchmark formats ------------------------------------------------------


def test_uavdt_row_normalizes():
    stream = parse_uavdt_gt("1,3,100,50,20,10,0,0,1\n")
    det = stream.frames[0][1][0]
    assert det.frame_index == 0  # 1-based input
    assert det.track_hint == 3
    assert det.confidence == 1.0
    assert det.class_id == 1
    assert (det.bbox.x, det.bbox.y, det.bbox.w, det.bbox.h) == (100.0, 50.0, 20.0, 10.0)


def test_uavdt_rejects_frame_zero():
    with pytest.raises(ParseError, match=">= 1"):
        parse_uavdt_gt("0,3,100,50,20,10,0,0,1\n")


def test_uavdt_rejects_wrong_arity():
    with pytest.raises(ParseError, match="expected 9 columns"):
        parse_uavdt_gt("1,3,100,50,20,10,0,0\n")


def test_visdrone_score_clamped_to_confidence():
    text = "1,5,0,0,10,10,0.8,2,0,0\n2,5,0,0,10,10,1.5,2,0,0\n3,5,0,0,10,10,-0.5,2,0,0\n"
    stream = parse_visdrone_mot(text)
    confs = [d.confidence for _, dets in stream.frames for d in dets]
    assert confs == [0.8, 1.0, 0.0]


def test_visdrone_rejects_wrong_arity():
    with pytest.raises(ParseError, match="expected 10 columns"):
        parse_visdrone_mot("1,5,0,0,10,10,0.8,2,0\n")


# --- sidecar ----------------------------------------------------------------


def test_sidecar_full_row():
    sc = parse_sidecar_csv("10,4,0.20,0.35,7,7,1.9,1.1,1300\n")
    rec = sc.get(10, 4)
    assert rec is not None
    assert rec.video_conf == 0.20
    assert rec.still_conf == 0.35
    assert (rec.video_label, rec.still_label) == (7, 7)
    assert rec.video_entropy == 1.9
    assert rec.still_entropy == 1.1
    assert rec.payload_bytes == 1300


def test_sidecar_payload_optional():
    sc = parse_sidecar_csv("10,4,0.20,0.35,7,7,1.9,1.1\n11,4,0.2,0.3,7,7,1.9,1.1,\n")
    assert sc.get(10, 4).payload_bytes is None
    assert sc.get(11, 4).payload_bytes is None  # an empty column is no payload
    assert len(sc) == 2
    assert (10, 4) in sc
    assert sc.get(10, 5) is None


def test_sidecar_duplicate_key_rejected():
    text = "10,4,0.2,0.3,7,7,1.9,1.1\n10,4,0.2,0.3,7,7,1.9,1.1\n"
    with pytest.raises(DuplicateKey) as exc:
        parse_sidecar_csv(text)
    assert isinstance(exc.value, ParseError)
    assert exc.value.line_no == 2
    assert (exc.value.frame_index, exc.value.track_id) == (10, 4)


def test_sidecar_duplicate_key_is_collected_and_the_first_record_kept():
    text = (
        "10,4,0.2,0.3,7,7,1.9,1.1\n"
        "10,4,0.9,0.9,8,8,1.9,1.1\n"
        "10,4,1.2,0.3,7,7,1.9,1.1\n"
        "11,4,0.2,0.3,7,7,1.9,1.1\n"
    )
    errors: list[ParseError] = []
    sc = parse_sidecar_csv(text, errors_out=errors)
    assert [e.line_no for e in errors] == [2, 3]
    assert isinstance(errors[0], DuplicateKey)
    assert len(sc) == 2
    assert sc.get(10, 4).video_conf == 0.2


def test_sidecar_from_records_rejects_duplicates_by_position():
    rec = parse_sidecar_csv("10,4,0.2,0.3,7,7,1.9,1.1\n").get(10, 4)
    with pytest.raises(DuplicateKey) as exc:
        SemanticSidecar([rec, rec])
    assert exc.value.line_no == 2


@pytest.mark.parametrize(
    "row,fragment",
    [
        ("10,4,1.2,0.3,7,7,1.9,1.1", "video_conf"),
        ("10,4,0.2,0.3,7,7,-0.5,1.1", "video_entropy"),
        ("10,4,0.2,0.3,7,7,1.9,1.1,0", "payload_bytes"),
        ("10,4,0.2,0.3,1e20,7,1.9,1.1", "video_label outside int64: 100000000000000000000"),
        ("10,4,0.2,0.3,7,-1e20,1.9,1.1", "still_label outside int64: -100000000000000000000"),
        ("10,4,0.2,0.3,7,7,1.9", "expected 8 or 9 columns"),
    ],
)
def test_sidecar_rejects_bad_rows(row, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_sidecar_csv(row + "\n")


def test_sidecar_errors_out_collects():
    text = "10,4,0.2,0.3,7,7,1.9,1.1\n11,4,1.2,0.3,7,7,1.9,1.1\n12,4,0.2,0.3,7,7,1.9,1.1\n"
    errors: list[ParseError] = []
    sc = parse_sidecar_csv(text, errors_out=errors)
    assert len(sc) == 2
    assert [e.line_no for e in errors] == [2]


@pytest.mark.parametrize(
    "frame,message",
    [(-5, "negative frame index: -5"), (2**70, f"frame outside int64: {2**70}")],
)
def test_a_sidecar_frame_no_stream_frame_can_have_is_refused(frame, message):
    # neither record could ever match a frame
    row = f"{frame},1,0.2,0.3,7,7,1.9,1.1"
    with pytest.raises(ParseError, match=f"^line 2: {re.escape(message)}$"):
        parse_sidecar_csv(f"10,4,0.2,0.3,7,7,1.9,1.1\n{row}\n")
    errors: list[ParseError] = []
    sc = parse_sidecar_csv(f"{row}\n10,4,0.2,0.3,7,7,1.9,1.1\n", errors_out=errors)
    assert [(e.line_no, e.reason) for e in errors] == [(1, message)]
    assert list(sc.records) == [(10, 4)]
    with pytest.raises(InvalidParam, match=f"^{re.escape(message)}$"):
        SemanticSidecar([SemanticRecord(frame, 1, 0.2, 0.3, 7, 7, 1.9, 1.1)])


@pytest.mark.parametrize("name", ["frame_index", "track_id", "video_label", "payload_bytes"])
def test_a_sidecar_refuses_an_integer_field_that_is_not_an_int(name):
    rec = replace(SemanticRecord(10, 4, 0.2, 0.3, 7, 7, 1.9, 1.1, 900), **{name: 5.0})
    with pytest.raises(InvalidParam, match=f"^{name} must be an int, got 5.0$"):
        SemanticSidecar([rec])


def test_a_sidecar_keeps_its_records_as_columns_sorted_by_key():
    text = (
        "# columns: frame,track,...\n"
        "15,4,0.2,0.3,1,2,0.5,0.1,900\n"
        "10,5,0.25,0.5,7,3,1.9,-0.0\n"
        "10,4,0.2,0.35,7,7,1.9,1.1,1300\n"
    )
    sc = parse_sidecar_csv(text)
    assert sc.frame_index.tolist() == [10, 10, 15]
    assert sc.track_id.tolist() == [4, 5, 4]
    assert sc.payload_bytes.tolist() == [1300, 0, 900]  # 0: none
    assert sc.semantics.dtype.names == (
        "video_conf", "still_conf", "video_label", "still_label", "video_entropy", "still_entropy"
    )
    assert sc.semantics["still_label"].tolist() == [7, 3, 2]
    # records in file order; get builds an equal record each time
    assert list(sc.records) == [(15, 4), (10, 5), (10, 4)]
    rec = sc.get(10, 5)
    assert rec == SemanticRecord(10, 5, 0.25, 0.5, 7, 3, 1.9, -0.0)
    assert repr(rec.still_entropy) == "-0.0" and rec is not sc.get(10, 5)
    assert sc.rows(10, np.array([5, 6, 4])).tolist() == [1, -1, 0]
    assert sc.rows(11, np.array([4])).tolist() == [-1]
    # a track beyond int64 is kept exactly, and matches only itself
    big = parse_sidecar_csv(f"10,{2**64},0.2,0.3,7,7,1.9,1.1,{2**65}\n10,4,0.2,0.3,7,7,1.9,1.1\n")
    assert big.track_id.dtype == object and big.payload_bytes.dtype == object
    assert big.rows(10, np.array([2**64, 4, 0], dtype=object)).tolist() == [1, 0, -1]
    assert big.rows(10, np.array([4, 0])).tolist() == [0, -1]
    assert big.get(10, 2**64).payload_bytes == 2**65
    assert (10, 2**64) in big and (10, 2**64 + 1) not in big


# --- stream container -------------------------------------------------------


def test_from_frames_requires_increasing_indices():
    with pytest.raises(InvalidParam, match="strictly increase"):
        mk_stream([(0, []), (0, [])])
    with pytest.raises(InvalidParam, match="strictly increase"):
        mk_stream([(5, []), (3, [])])


def test_from_frames_checks_detection_frame_match():
    with pytest.raises(InvalidParam, match="does not match"):
        mk_stream([(0, [mk_det(1)])])


@pytest.mark.parametrize(
    "frame,cls,message",
    [
        (5.0, 0, "frame index must be an int, got 5.0"),
        (2.5, 0, "frame index must be an int, got 2.5"),
        (True, 0, "frame index must be an int, got True"),
        (5, 2.0, "class_id must be an int, got 2.0"),
        (5, 2.5, "class_id must be an int, got 2.5"),
        (5, True, "class_id must be an int, got True"),
    ],
)
def test_from_frames_refuses_ids_that_are_not_ints(frame, cls, message):
    # a float frame would end a run in a TypeError, and a float class id
    # would be written to the run log as a label its reader refuses
    with pytest.raises(InvalidParam, match=message):
        mk_stream([(frame, [mk_det(frame, cls=cls)])])


def test_python_built_inputs_refuse_values_beyond_int64():
    with pytest.raises(InvalidParam, match="frame index outside int64"):
        mk_stream([(2**63, [])])
    with pytest.raises(InvalidParam, match="class_id outside int64"):
        mk_stream([(0, [mk_det(0, cls=10**20)])])
    assert mk_stream([(2**63 - 1, [mk_det(2**63 - 1, cls=-(2**63))])]).n_detections == 1
    with pytest.raises(InvalidParam, match="still_label outside int64"):
        SemanticRecord(0, 0, 0.5, 0.5, 1, 2**63, 0.0, 0.0)


def test_a_semantic_record_refuses_a_payload_of_no_bytes():
    with pytest.raises(InvalidParam, match="payload_bytes must be > 0, got 0"):
        SemanticRecord(0, 0, 0.5, 0.5, 1, 1, 0.0, 0.0, payload_bytes=0)


@pytest.mark.parametrize("value", [math.inf, math.nan, 10**400], ids=["inf", "nan", "10**400"])
@pytest.mark.parametrize("name", ["video_entropy", "still_entropy"])
def test_a_semantic_record_refuses_an_entropy_no_run_log_can_hold(name, value):
    # a run given such a record wrote a tx line that read_jsonl refuses
    with pytest.raises(InvalidParam, match=f"^{name} must be finite, got "):
        replace(SemanticRecord(0, 0, 0.5, 0.5, 1, 1, 0.0, 0.0), **{name: value})


@pytest.mark.parametrize("value", ["inf", "nan", "1e400"])
def test_a_sidecar_row_keeps_its_message_for_a_non_finite_entropy(value):
    with pytest.raises(ParseError, match=f"^line 1: non-finite still_entropy: '{value}'$"):
        parse_sidecar_csv(f"10,4,0.2,0.3,7,7,1.9,{value}\n")


@pytest.mark.parametrize(
    "frames,message",
    [
        ([(0, [mk_det(0, cls=2.0)]), (0, [])], "class_id must be an int, got 2.0"),
        ([(0, [mk_det(0, x=1e308, w=1e308)]), (1.0, [])], "box edge beyond the float range"),
        ([(0, [mk_det(1, cls=2.0)])], "detection frame 1 does not match entry 0"),
        ([(0, [mk_det(0, cls=2**63), mk_det(1)])], "class_id outside int64"),
        ([(0, []), (0, [mk_det(0, cls=2.0)])], "frame indices must strictly increase at 0"),
        # a negative entry would fail only in run, and one below int64 in an
        # OverflowError from processed_frame_range
        ([(-5, []), (0, [mk_det(0)])], "frame_index must be >= 0, got -5"),
        ([(-(2**70), [])], f"frame_index must be >= 0, got {-(2**70)}"),
        ([(0, [mk_det(0, cls=2.0)]), (-5, [])], "class_id must be an int, got 2.0"),
        ([(3, []), (-5, [])], "frame indices must strictly increase at -5"),
    ],
    ids=[
        "class_then_frame",
        "box_then_frame",
        "frame_then_class",
        "row_order",
        "entry_first",
        "negative_entry",
        "entry_below_int64",
        "class_then_negative_entry",
        "order_then_negative_entry",
    ],
)
def test_from_frames_raises_the_first_error_entry_by_entry(frames, message):
    # an entry's frame checks, then each of its detections' frame, class
    # and box, before the next entry
    with pytest.raises(InvalidParam) as exc:
        mk_stream(frames)
    assert str(exc.value).startswith(message)


def test_a_stream_gives_new_equal_detections_with_float_confidences():
    det = mk_det(3, x=50, y=20, conf=1, cls=4, hint=2**64)
    stream = mk_stream([(3, [det, mk_det(3, x=90.0)])])
    got = stream.detections_at(3)
    assert got == stream.frames[0][1] == (replace(det, confidence=1.0), mk_det(3, x=90.0))
    assert got[0] is not det and type(got[0].confidence) is float
    assert got[0].bbox is det.bbox


@pytest.mark.parametrize(
    "box,values",
    [
        (dict(x=1e308, w=1e308), "x=1e+308 y=0.0 w=1e+308 h=10.0"),
        (dict(y=1.7e308, h=1e307), "x=0.0 y=1.7e+308 w=10.0 h=1e+307"),
        # ints that no float can hold, even where their sum could
        (dict(x=-(10**400)), f"x={-(10**400)} y=0.0 w=10.0 h=10.0"),
        (dict(x=-(10**400), w=10**400), f"x={-(10**400)} y=0.0 w={10**400} h=10.0"),
    ],
    ids=["right", "bottom", "int", "ints"],
)
def test_from_frames_refuses_a_box_edge_beyond_the_float_range(box, values):
    # such a box overflowed the pair IoU: a RuntimeWarning, a NaN IoU, and
    # a new track for the same box on every frame
    with pytest.raises(InvalidParam) as exc:
        mk_stream([(0, [mk_det(0)]), (5, [mk_det(5, **box)])])
    assert str(exc.value) == f"box edge beyond the float range: {values}"


@pytest.mark.parametrize(
    "box,values",
    [
        (dict(w=1e200, h=1e200), "w=1e+200 h=1e+200"),
        # w * h is in the range, the two areas of a union are not
        (dict(w=1e154, h=1e154), "w=1e+154 h=1e+154"),
    ],
    ids=["square", "union"],
)
def test_from_frames_refuses_a_box_area_beyond_the_float_range(box, values):
    with pytest.raises(InvalidParam) as exc:
        mk_stream([(0, [mk_det(0)]), (5, [mk_det(5, **box)])])
    assert str(exc.value) == f"box area beyond the float range: {values}"


def test_the_largest_box_from_frames_takes_keeps_one_track():
    # x + w and 2 * w * h are just inside the float range, so the IoU of the
    # box with itself is 1 on every frame and no warning is raised
    frames = [(f, [mk_det(f, x=8e307, w=8e307, h=1.0)]) for f in (0, 5, 10)]
    cfg = replace(low_regime_cfg("M2"), cost=CostModel(resize_edge=128))
    log = run(mk_stream(frames), None, cfg)
    assert {ev.track_id for ev in log.class_events} == {0}


@pytest.mark.parametrize(
    "parse,row,message",
    [
        (parse_generic_csv, "1e20,-1,0,0,5,5,0.5,0", "frame outside int64"),
        (parse_generic_csv, "0,-1,0,0,5,5,0.5,-1e20", "class outside int64"),
        (parse_uavdt_gt, "9223372036854775808,1,0,0,5,5,0,0,1", "frame outside int64"),
        (parse_visdrone_mot, "1,1,0,0,5,5,0.5,1e20,0,0", "category outside int64"),
    ],
)
def test_parsers_refuse_ids_beyond_int64(parse, row, message):
    with pytest.raises(ParseError, match=f"line 2: {message}"):
        parse("# first line\n" + row + "\n")


@pytest.mark.parametrize(
    "parse,row,message",
    [
        (parse_generic_csv, "0,-1,1e308,0,1e308,5,0.5,0", "box edge beyond the float range"),
        (parse_generic_csv, "0,-1,0,1.7e308,5,1e307,0.5,0", "box edge beyond the float range"),
        # the box of the FOUND on pairwise_iou: its area is beyond the range
        (parse_generic_csv, "5,-1,10,10,1e200,1e200,0.5,0", "box area beyond the float range"),
        (parse_generic_csv, "0,-1,0,0,1e154,1e154,0.5,0", "box area beyond the float range"),
        (parse_uavdt_gt, "1,1,1e308,0,1e308,5,0,0,1", "box edge beyond the float range"),
        (parse_visdrone_mot, "1,1,0,0,1e200,1e200,0.5,1,0,0", "box area beyond the float range"),
    ],
)
def test_parsers_refuse_boxes_beyond_the_float_range(parse, row, message):
    with pytest.raises(ParseError, match=f"line 2: {message}"):
        parse("# first line\n" + row + "\n")


def test_the_largest_box_the_parsers_take_stays_finite():
    # x + w and 2 * w * h are just inside the float range
    stream = parse_generic_csv("0,-1,8e307,0,8e307,1,0.5,0\n0,-1,0,0,1e154,8.9e153,0.5,0\n")
    assert stream.n_detections == 2


@pytest.mark.parametrize(
    "parse,rows,frames",
    [
        # beyond 2**53 a float read of these would give ...992 and ...996
        (
            parse_generic_csv,
            "9007199254740993,-1,0,0,5,5,0.5,0\n9007199254740995,-1,0,0,5,5,0.5,0\n",
            (9007199254740993, 9007199254740995),
        ),
        # inside int64, but 2**63 as a float
        (parse_uavdt_gt, "9223372036854775800,1,0,0,5,5,0,0,1\n", (9223372036854775799,)),
        # other spellings still read as float does
        (parse_generic_csv, "5.0,-1,0,0,5,5,0.5,0\n1e1,-1,0,0,5,5,0.5,0\n", (5, 10)),
    ],
)
def test_integer_fields_are_read_exactly(parse, rows, frames):
    stream = parse(rows)
    assert stream.frame_indices == frames


@pytest.mark.parametrize(
    "parse,row,message",
    [
        (parse_generic_csv, "2.5,-1,0,0,5,5,0.5,0", "non-integral frame: '2.5'"),
        # int(float()) would read this as frame 0, past the negative-frame check
        (parse_generic_csv, "-0.5,-1,0,0,5,5,0.5,0", "non-integral frame: '-0.5'"),
        (parse_generic_csv, "0,3.5,0,0,5,5,0.5,0", "non-integral track_hint: '3.5'"),
        (parse_generic_csv, "0,-1,0,0,5,5,0.5,1.7", "non-integral class: '1.7'"),
        (parse_uavdt_gt, "1.5,1,0,0,5,5,0,0,1", "non-integral frame: '1.5'"),
        (parse_uavdt_gt, "1,2.5,0,0,5,5,0,0,1", "non-integral target_id: '2.5'"),
        (parse_uavdt_gt, "1,1,0,0,5,5,0,0,1.7", "non-integral category: '1.7'"),
        (parse_visdrone_mot, "2.5,1,0,0,5,5,0.5,1,0,0", "non-integral frame: '2.5'"),
        (parse_visdrone_mot, "1,2.5,0,0,5,5,0.5,1,0,0", "non-integral target_id: '2.5'"),
        (parse_visdrone_mot, "1,1,0,0,5,5,0.5,1.7,0,0", "non-integral category: '1.7'"),
    ],
)
def test_parsers_refuse_non_integral_integer_fields(parse, row, message):
    with pytest.raises(ParseError, match=f"line 2: {re.escape(message)}$"):
        parse("# first line\n" + row + "\n")
    errors: list[ParseError] = []
    stream = parse("# first line\n" + row + "\n", errors_out=errors)
    assert (stream.n_detections, [e.line_no for e in errors]) == (0, [2])


@pytest.mark.parametrize(
    "row,message",
    [
        ("10.5,4,0.2,0.3,7,7,1.9,1.1", "non-integral frame: '10.5'"),
        ("10,4.5,0.2,0.3,7,7,1.9,1.1", "non-integral track: '4.5'"),
        ("10,4,0.2,0.3,7.5,7,1.9,1.1", "non-integral video_label: '7.5'"),
        ("10,4,0.2,0.3,7,7.5,1.9,1.1", "non-integral still_label: '7.5'"),
        ("10,4,0.2,0.3,7,7,1.9,1.1,1500.9", "non-integral payload_bytes: '1500.9'"),
    ],
)
def test_sidecar_refuses_non_integral_integer_fields(row, message):
    with pytest.raises(ParseError, match=f"line 1: {re.escape(message)}$"):
        parse_sidecar_csv(row + "\n")


def test_integral_spellings_of_integer_fields_still_read():
    stream = parse_generic_csv("5.0,-1,0,0,5,5,0.5,2e0\n5e0,3.0,0,0,5,5,0.5,-0.0\n")
    dets = stream.detections_at(5)
    assert [(d.class_id, d.track_hint) for d in dets] == [(2, None), (0, 3)]
    rec = parse_sidecar_csv("1e1,4.0,0.2,0.3,7.0,7e0,1.9,1.1,1.5e3\n").get(10, 4)
    assert (rec.video_label, rec.still_label, rec.payload_bytes) == (7, 7, 1500)


def test_ids_near_two_to_the_53_are_read_exactly():
    stream = parse_visdrone_mot("1,9007199254740993,0,0,5,5,0.5,9007199254740995,0,0\n")
    det = stream.detections_at(0)[0]
    assert (det.track_hint, det.class_id) == (9007199254740993, 9007199254740995)
    sidecar = parse_sidecar_csv("9007199254740993,9007199254740995,0.2,0.3,7,7,1.9,1.1\n")
    assert (9007199254740993, 9007199254740995) in sidecar
    # an integer literal beyond the float range stays non-finite
    with pytest.raises(ParseError, match="line 1: non-finite payload_bytes"):
        parse_sidecar_csv("1,2,0.2,0.3,7,7,1.9,1.1," + "9" * 400 + "\n")


def test_stream_properties():
    stream = mk_stream([(2, [mk_det(2)]), (7, []), (9, [mk_det(9), mk_det(9, x=50)])])
    assert stream.first_frame == 2
    assert stream.last_frame == 9
    assert stream.n_detections == 3
    empty = mk_stream([])
    assert empty.first_frame is None
    assert empty.last_frame is None
    assert empty.n_detections == 0


# --- writer round trip ------------------------------------------------------


def test_write_then_parse_round_trips():
    stream = gen_synthetic(seed=7, n_frames=40, mean_objects=3.0, clock=FrameClock())
    # drop empty frames first: they are not representable in the CSV
    dense = DetectionStream.from_frames(
        stream.clock, ((f, d) for f, d in stream.frames if d)
    )
    again = parse_generic_csv(write_generic_csv(dense))
    assert again == dense


def test_round_trip_drops_empty_frames():
    stream = mk_stream([(0, [mk_det(0)]), (1, []), (2, [mk_det(2)])])
    again = parse_generic_csv(write_generic_csv(stream))
    assert [f for f, _ in again.frames] == [0, 2]
    assert again.n_detections == 2


def test_writer_keeps_given_integer_coordinates():
    det = mk_det(4, x=50, y=20, w=10, h=12, conf=1, cls=3, hint=2**64)
    stream = mk_stream([(1, []), (4, [det, mk_det(4, x=0.5)])])
    rows = write_generic_csv(stream).splitlines()[3:]
    assert rows == [f"4,{2**64},50,20,10,12,1.0,3", "4,-1,0.5,0.0,10.0,10.0,0.9,0"]


def test_writer_embeds_clock():
    stream = mk_stream([(0, [mk_det(0)])], clock=FrameClock(fps=24.0, frame_stride=3))
    assert parse_generic_csv(write_generic_csv(stream)).clock == stream.clock


@given(seed=st.integers(0, 2**32 - 1))
def test_round_trip_property(seed):
    stream = gen_synthetic(seed=seed, n_frames=20, mean_objects=2.0, clock=FrameClock())
    dense = DetectionStream.from_frames(
        stream.clock, ((f, d) for f, d in stream.frames if d)
    )
    assert parse_generic_csv(write_generic_csv(dense)) == dense


# --- synthetic generator ----------------------------------------------------


def test_gen_synthetic_deterministic():
    a = gen_synthetic(seed=1, n_frames=60, mean_objects=5.0, clock=FrameClock())
    b = gen_synthetic(seed=1, n_frames=60, mean_objects=5.0, clock=FrameClock())
    assert a == b


def test_gen_synthetic_golden_count():
    stream = gen_synthetic(seed=1, n_frames=60, mean_objects=5.0, clock=FrameClock())
    assert stream.n_detections == 242


def test_gen_synthetic_all_frames_present():
    stream = gen_synthetic(seed=3, n_frames=50, mean_objects=1.0, clock=FrameClock())
    assert [f for f, _ in stream.frames] == list(range(50))


def test_gen_synthetic_zero_objects():
    stream = gen_synthetic(seed=0, n_frames=10, mean_objects=0.0, clock=FrameClock())
    assert stream.n_detections == 0
    assert len(stream.frames) == 10


def test_gen_synthetic_detections_in_bounds():
    stream = gen_synthetic(
        seed=9, n_frames=80, mean_objects=4.0, clock=FrameClock(), frame_w=640.0, frame_h=480.0
    )
    assert stream.n_detections > 0
    for det in (d for _, dets in stream.frames for d in dets):
        assert 0.0 <= det.confidence <= 1.0
        assert det.bbox.x >= 0.0
        assert det.bbox.y >= 0.0
        assert 8.0 <= det.bbox.w <= 80.0
        assert 8.0 <= det.bbox.h <= 60.0
        assert 0 <= det.class_id < 5
        assert det.track_hint is not None


def test_gen_synthetic_validates_args():
    with pytest.raises(InvalidParam):
        gen_synthetic(seed=0, n_frames=0, mean_objects=1.0, clock=FrameClock())
    with pytest.raises(InvalidParam):
        gen_synthetic(seed=0, n_frames=10, mean_objects=-1.0, clock=FrameClock())
    for mean_objects in (float("inf"), float("nan")):
        with pytest.raises(InvalidParam, match="mean_objects must be finite"):
            gen_synthetic(seed=0, n_frames=10, mean_objects=mean_objects, clock=FrameClock())
    for name, size in (("frame_w", float("inf")), ("frame_h", float("nan"))):
        with pytest.raises(InvalidParam, match=f"{name} must be finite, got {size}"):
            gen_synthetic(0, 10, 0.0, FrameClock(), **{name: size})


# --- confidence noise -------------------------------------------------------


#: sha256 of the generic CSV of a seeded synthetic stream with seeded
#: confidence noise, pinned while both still built a ``Detection`` per row.
NOISY_CSV_SHA256 = "ef7f1951c5826744c59037598ac4af07c1ec50cc146565273289cf6578898dcb"


def test_noisy_synthetic_csv_keeps_its_bytes():
    stream = gen_synthetic(1, 300, 5.0, FrameClock())
    text = write_generic_csv(inject_confidence_noise(stream, 0.3, seed=3))
    assert hashlib.sha256(text.encode()).hexdigest() == NOISY_CSV_SHA256



def test_inject_confidence_noise_lowers_within_bound():
    stream = gen_synthetic(seed=2, n_frames=30, mean_objects=4.0, clock=FrameClock())
    noisy = inject_confidence_noise(stream, amount=0.3, seed=11)
    assert noisy.clock == stream.clock
    before_dets = [d for _, dets in stream.frames for d in dets]
    after_dets = [d for _, dets in noisy.frames for d in dets]
    for before, after in zip(before_dets, after_dets):
        assert after.bbox == before.bbox
        assert after.confidence <= before.confidence
        assert after.confidence >= max(before.confidence - 0.3, 0.0) - 1e-12
        assert after.confidence >= 0.0


def test_inject_confidence_noise_deterministic():
    stream = gen_synthetic(seed=2, n_frames=30, mean_objects=4.0, clock=FrameClock())
    assert inject_confidence_noise(stream, 0.2, seed=5) == inject_confidence_noise(
        stream, 0.2, seed=5
    )


def test_inject_confidence_noise_zero_amount_is_identity():
    stream = gen_synthetic(seed=2, n_frames=10, mean_objects=2.0, clock=FrameClock())
    assert inject_confidence_noise(stream, 0.0, seed=5) == stream


def test_inject_confidence_noise_rejects_negative():
    stream = mk_stream([(0, [mk_det(0)])])
    with pytest.raises(InvalidParam):
        inject_confidence_noise(stream, -0.1, seed=0)


@pytest.mark.parametrize("amount", [math.inf, math.nan])
def test_inject_confidence_noise_rejects_a_non_finite_amount(amount):
    stream = mk_stream([(0, [mk_det(0)])])
    with pytest.raises(InvalidParam) as exc:
        inject_confidence_noise(stream, amount, seed=0)
    assert str(exc.value) == f"noise amount must be finite and >= 0, got {amount}"
