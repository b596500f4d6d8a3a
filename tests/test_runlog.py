import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from roitel import (
    BBox,
    RoitelError,
    BudgetConfig,
    ClassEvent,
    FrameClock,
    ParseError,
    RunLog,
    TransmissionRecord,
    read_jsonl,
)
from roitel import _text, metrics, runlog, semantic
from roitel.metrics import aggregate_run, emit_report
from roitel.runlog import CLASS_SOURCE_STILL, CLASS_SOURCE_VIDEO, to_jsonl_lines
from helpers import (
    SizedReadsOnly,
    block_verdicts,
    fold_facts,
    fold_result,
    json_lines,
    plain_checks,
    read_and_aggregate,
    read_outcome,
)


def sample_log() -> RunLog:
    log = RunLog(
        variant="M5",
        clock=FrameClock(fps=15.0, frame_stride=5),
        budget=BudgetConfig(b_total=0.8e6, b_video=0.65e6, b_roi=0.15e6, window_s=2.0),
        base_bitrate_bps=0.801e6,
        raw_candidate_count=42,
        rejected_budget=3,
        rejected_threshold=12,
        processed_frame_indices=(0, 5, 10),
        first_frame=0,
        last_frame=10,
        detection_conf_mean=0.6125,
        duration_s=52.54,
        config_echo={"policy.variant": "M5", "clock.fps": "15.0"},
    )
    log.transmissions.append(
        TransmissionRecord(
            frame_index=5,
            t_s=5 / 15.0,
            track_id=2,
            bbox=BBox(10.0, 20.0, 30.0, 40.0),
            cost_bits=11200.0,
            score=6.7e-5,
            u_term=0.4,
            s_small_term=0.5,
            n_term=1.0,
            video_conf=0.2,
            still_conf=0.35,
            video_label=7,
            still_label=7,
            video_entropy=1.9,
            still_entropy=1.1,
        )
    )
    log.transmissions.append(
        TransmissionRecord(
            frame_index=10,
            t_s=10 / 15.0,
            track_id=0,
            bbox=BBox(0.0, 0.0, 16.0, 16.0),
            cost_bits=3200.0,
            score=1.2e-4,
            u_term=0.9,
            s_small_term=0.75,
            n_term=1.0,
        )
    )
    log.class_events.append(
        ClassEvent(frame_index=0, t_s=0.0, track_id=2, label=4, source=CLASS_SOURCE_VIDEO)
    )
    log.class_events.append(
        ClassEvent(frame_index=5, t_s=5 / 15.0, track_id=2, label=7, source=CLASS_SOURCE_STILL)
    )
    return log


def test_round_trip_preserves_everything():
    log = sample_log()
    again = read_jsonl("\n".join(to_jsonl_lines(log)) + "\n")
    assert again.variant == log.variant
    assert again.clock == log.clock
    assert again.budget == log.budget
    assert again.base_bitrate_bps == log.base_bitrate_bps
    assert again.raw_candidate_count == log.raw_candidate_count
    assert again.rejected_budget == log.rejected_budget
    assert again.rejected_threshold == log.rejected_threshold
    assert again.processed_frame_indices == log.processed_frame_indices
    assert again.first_frame == log.first_frame
    assert again.last_frame == log.last_frame
    assert again.detection_conf_mean == log.detection_conf_mean
    assert again.duration_s == log.duration_s
    assert again.config_echo == log.config_echo
    assert again.transmissions == log.transmissions
    assert again.class_events == log.class_events


def test_serialization_is_deterministic():
    a = "\n".join(to_jsonl_lines(sample_log()))
    b = "\n".join(to_jsonl_lines(sample_log()))
    assert a == b


def test_missing_semantics_round_trip_as_none():
    log = sample_log()
    again = read_jsonl("\n".join(to_jsonl_lines(log)) + "\n")
    bare = again.transmissions[1]
    assert bare.still_conf is None
    assert not bare.has_semantics
    assert again.transmissions[0].has_semantics


def test_records_are_immutable_hashable_named_tuples_with_a_fixed_repr():
    tx, bare = sample_log().transmissions
    ev = ClassEvent(0, 0.0, 1, 2, CLASS_SOURCE_VIDEO)
    assert repr(ev) == "ClassEvent(frame_index=0, t_s=0.0, track_id=1, label=2, source='video')"
    assert repr(tx) == (
        "TransmissionRecord(frame_index=5, t_s=0.3333333333333333, track_id=2, "
        "bbox=BBox(x=10.0, y=20.0, w=30.0, h=40.0), cost_bits=11200.0, score=6.7e-05, "
        "u_term=0.4, s_small_term=0.5, n_term=1.0, video_conf=0.2, still_conf=0.35, "
        "video_label=7, still_label=7, video_entropy=1.9, still_entropy=1.1)"
    )
    for record, name in ((tx, "score"), (ev, "label"), (ev, "extra")):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    assert tx.has_semantics and not bare.has_semantics
    assert not tx._replace(still_conf=None).has_semantics
    moved = tx._replace(frame_index=10)
    assert moved.frame_index == 10 and moved[1:] == tx[1:] and tx.frame_index == 5
    assert tx._asdict()["bbox"] == BBox(10.0, 20.0, 30.0, 40.0)
    assert hash(tx._replace()) == hash(tx)
    assert len({tx, tx._replace(), bare, ev, ev._replace()}) == 3


def test_derived_totals():
    log = sample_log()
    assert log.processed_frames == 3
    assert math.fsum(tx.cost_bits for tx in log.transmissions) == 11200.0 + 3200.0


def test_header_is_first_line_and_tagged():
    lines = list(to_jsonl_lines(sample_log()))
    header = json.loads(lines[0])
    assert header["kind"] == "roitel-runlog"
    assert header["version"] == 1
    assert header["b_total_bps"] == 0.8e6
    assert header["processed_frame_indices"] == [0, 5, 10]
    kinds = [json.loads(ln)["kind"] for ln in lines[1:]]
    assert kinds == ["tx", "tx", "class", "class"]


def test_the_header_table_names_each_header_attribute_once():
    paths = [path for path, _ in runlog._HEADER_FIELDS.values()]
    assert len(set(paths)) == len(paths)
    # the owners, in RunLog's field order
    owners = list(dict.fromkeys(path.partition(".")[0] for path in paths))
    records = ("transmissions", "class_events")
    assert owners == [f.name for f in fields(RunLog) if f.name not in records]
    for owner, parts in (("clock", FrameClock), ("budget", BudgetConfig)):
        named = [path.partition(".")[2] for path in paths if path.startswith(owner + ".")]
        assert named == [f.name for f in fields(parts)]


def test_read_rejects_empty():
    with pytest.raises(ParseError, match="empty"):
        read_jsonl("")


def test_read_rejects_non_runlog_header():
    with pytest.raises(ParseError, match="not a run log header"):
        read_jsonl('{"kind": "something-else"}\n')
    with pytest.raises(ParseError, match="not a run log header"):
        read_jsonl("[1, 2, 3]\n")


def test_read_rejects_wrong_version():
    header = json.loads(next(iter(to_jsonl_lines(sample_log()))))
    header["version"] = 99
    with pytest.raises(ParseError, match="version"):
        read_jsonl(json.dumps(header) + "\n")


def test_read_rejects_damaged_json_with_line_number():
    lines = list(to_jsonl_lines(sample_log()))
    lines[2] = lines[2][:-5]  # truncate mid-object
    with pytest.raises(ParseError) as exc:
        read_jsonl("\n".join(lines))
    assert exc.value.line_no == 3


def test_read_rejects_unknown_kind():
    lines = list(to_jsonl_lines(sample_log()))
    lines.append('{"kind": "mystery"}')
    with pytest.raises(ParseError, match="unknown record kind"):
        read_jsonl("\n".join(lines))


def test_read_rejects_bad_class_source():
    lines = list(to_jsonl_lines(sample_log()))
    ev = json.loads(lines[-1])
    ev["source"] = "radio"
    lines[-1] = json.dumps(ev)
    with pytest.raises(ParseError, match="class source"):
        read_jsonl("\n".join(lines))


def test_read_rejects_missing_field():
    lines = list(to_jsonl_lines(sample_log()))
    tx = json.loads(lines[1])
    del tx["cost_bits"]
    lines[1] = json.dumps(tx)
    with pytest.raises(ParseError, match="cost_bits"):
        read_jsonl("\n".join(lines))


def test_read_rejects_malformed_bbox():
    lines = list(to_jsonl_lines(sample_log()))
    tx = json.loads(lines[1])
    tx["bbox"] = [1.0, 2.0]
    lines[1] = json.dumps(tx)
    with pytest.raises(ParseError, match="bad bbox"):
        read_jsonl("\n".join(lines))


class Raw:
    """A JSON literal that ``dumps`` writes as is: ``json`` cannot write
    ``1e400``, a literal that ``float`` reads as an infinity."""

    def __init__(self, text: str):
        self.text = text

    def __repr__(self) -> str:
        return f"Raw({self.text!r})"


def dumps(obj) -> str:
    """``json.dumps``, with each ``Raw`` value written as its text."""
    raws: list[str] = []

    def mark(value):
        if not isinstance(value, Raw):
            raise TypeError(value)
        raws.append(value.text)
        return f"\0raw{len(raws) - 1}"

    text = json.dumps(obj, default=mark)
    for i, raw in enumerate(raws):
        text = text.replace(json.dumps(f"\0raw{i}"), raw)
    return text


def damaged(index: int, key: str, value) -> str:
    """The sample log with field ``key`` of line ``index`` (0-based) set to
    ``value``."""
    lines = list(to_jsonl_lines(sample_log()))
    obj = json.loads(lines[index])
    obj[key] = value
    lines[index] = dumps(obj)
    return "\n".join(lines)


@pytest.mark.parametrize(
    "index,key,value,fragment",
    [
        (0, "fps", "abc", "'fps' must be a number"),
        (0, "variant", None, "'variant' must be a string"),
        (0, "frame_stride", 2.5, "'frame_stride' must be an integer"),
        (0, "raw_candidates", True, "'raw_candidates' must be an integer"),
        (0, "config", [1, 2], "'config' must be an object"),
        (0, "config", {"seed": 1}, "bad config echo"),
        (0, "config", {"policy.note": "a\nb,c"}, "bad config echo"),
        (0, "config", {"policy.note": "a\u2028b"}, "bad config echo"),
        (0, "config", {"policy\rnote": "a"}, "bad config echo"),
        (0, "processed_frame_indices", 5, "'processed_frame_indices' must be a list"),
        (0, "processed_frame_indices", [0, "5"], "bad processed_frame_indices"),
        (
            0,
            "processed_frame_indices",
            [0, 5, 5],
            "bad processed_frame_indices: entry 2, 5, does not exceed the entry before it, 5",
        ),
        (
            0,
            "processed_frame_indices",
            [10, 5, 15],
            "bad processed_frame_indices: entry 1, 5, does not exceed the entry before it, 10",
        ),
        (0, "duration_s", "52", "'duration_s' must be a number or null"),
        (0, "fps", -1.0, "fps must be > 0"),
        (0, "b_total_bps", -1.0, "b_total must be >= 0"),
        (1, "cost_bits", "x", "'cost_bits' must be a number"),
        (1, "bbox", [0.0, 0.0, 0.0, 10.0], "bbox extent must be positive"),
        (1, "bbox", [0.0, 0.0, "1", 10.0], "bad bbox"),
        (1, "still_conf", None, "semantic fields must be all set or all null"),
        (1, "video_label", 7.5, "'video_label' must be an integer or null"),
        (4, "label", {}, "'label' must be an integer"),
        (4, "source", 3, "'source' must be a string"),
        (0, "processed_frame_indices", [0, 5, 10**400], "integer beyond the float range"),
        (1, "cost_bits", 10**400, "integer beyond the float range"),
        (1, "bbox", [0.0, 0.0, 10**400, 10.0], "integer beyond the float range"),
        (4, "frame", 10**400, "integer beyond the float range"),
        (0, "fps", Raw("1e400"), "non-finite number 1e400"),
        (1, "cost_bits", Raw("1e400"), "non-finite number 1e400"),
        (1, "bbox", [0.0, 0.0, Raw("-1e400"), 10.0], "non-finite number -1e400"),
        (4, "t_s", Raw("-1e400"), "non-finite number -1e400"),
        (0, "raw_candidates", -1, "raw_candidates must be >= 0, got -1"),
        (0, "rejected_threshold", -1, "rejected_threshold must be >= 0, got -1"),
        (0, "rejected_budget", -3, "rejected_budget must be >= 0, got -3"),
        # transmissions + rejected_threshold + rejected_budget = 2 + 12 + 3
        (0, "raw_candidates", 16, "rejected_budget = 17 exceeds raw_candidates = 16"),
        (1, "bbox", [True, 0.0, 10.0, 10.0], "bad bbox"),
        (1, "bbox", [0.0, 0.0, 10.0, 10.0, 1.0], "bad bbox"),
    ],
)
def test_read_rejects_wrong_types_and_refused_values_with_line_number(
    index, key, value, fragment
):
    with pytest.raises(ParseError, match=fragment) as exc:
        read_jsonl(damaged(index, key, value))
    assert exc.value.line_no == index + 1


def test_processed_frames_out_of_order_name_one_entry_of_a_long_list():
    frames = list(range(0, 1_000_001, 5))
    frames[-1] = 5  # the duration, read from the first and the last, would be 1/3 s
    with pytest.raises(ParseError) as exc:
        read_jsonl(damaged(0, "processed_frame_indices", frames))
    assert str(exc.value) == (
        "line 1: bad processed_frame_indices: entry 200000, 5, "
        "does not exceed the entry before it, 999995"
    )


def test_integers_up_to_the_float_range_are_read():
    lines = list(to_jsonl_lines(sample_log()))
    obj = json.loads(lines[1])
    obj["cost_bits"] = 10**308
    lines[1] = json.dumps(obj)
    assert read_jsonl("\n".join(lines)).transmissions[0].cost_bits == 10**308


def test_blank_lines_count_in_line_numbers():
    lines = list(to_jsonl_lines(sample_log()))
    lines[2] = lines[2][:-5]  # truncate mid-object
    text = "\n" + "\n".join(lines[:2]) + "\n\n  \n" + "\n".join(lines[2:])
    with pytest.raises(ParseError) as exc:
        read_jsonl(text)
    assert exc.value.line_no == 6
    with pytest.raises(ParseError, match="not a run log header") as exc:
        read_jsonl("\n\n[1]\n")
    assert exc.value.line_no == 3
    # a clean log with blank lines reads as the log
    assert read_jsonl("\n\n" + "\n\n".join(to_jsonl_lines(sample_log()))) == sample_log()


@pytest.mark.parametrize("record", ["[1]", "5", '"tx"', "null"])
def test_read_rejects_a_record_that_is_not_an_object(record):
    lines = list(to_jsonl_lines(sample_log()))
    lines[2] = record
    with pytest.raises(ParseError, match="expected a JSON object") as exc:
        read_jsonl("\n".join(lines))
    assert exc.value.line_no == 3


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"])
def test_read_rejects_non_finite_numbers(literal):
    lines = list(to_jsonl_lines(sample_log()))
    lines[1] = lines[1].replace('"cost_bits": 11200.0', f'"cost_bits": {literal}')
    with pytest.raises(ParseError, match="non-finite") as exc:
        read_jsonl("\n".join(lines))
    assert exc.value.line_no == 2


#: What a damaged field may hold instead of its value.
damage = st.one_of(
    st.text(max_size=3),
    st.lists(st.integers(-2, 2), max_size=4),
    st.none(),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2),
    st.integers(-(10**6), -1),
    st.floats(-1e6, -1e-3),
    st.just(10**400),
    st.sampled_from([Raw("1e400"), Raw("-1e400")]),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_damaged_logs_fail_only_with_parse_errors(data):
    lines = list(to_jsonl_lines(sample_log()))
    index = data.draw(st.integers(0, len(lines) - 1))
    if data.draw(st.booleans()):
        obj = json.loads(lines[index])
        key = data.draw(st.sampled_from(sorted(obj)))
        inner = obj[key]
        if isinstance(inner, (list, dict)) and inner and data.draw(st.booleans()):
            # damage one element of a list or one value of an object
            slots = sorted(inner) if isinstance(inner, dict) else range(len(inner))
            slot = data.draw(st.sampled_from(slots))
            inner[slot] = data.draw(damage)
        else:
            obj[key] = data.draw(damage)
        lines[index] = dumps(obj)
    else:
        lines[index] = data.draw(st.sampled_from(["[1]", "[]", "7", "null", '"tx"', "true"]))
    try:
        log = read_jsonl("\n".join(lines))
    except ParseError:
        return
    # what the reader accepts, the report aggregates or refuses cleanly
    try:
        emit_report([(log.variant, aggregate_run(log))])
    except RoitelError:
        pass


# --- writer templates ---------------------------------------------------------

finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.integers(-(10**20), 10**20)
)
extent = st.one_of(st.floats(min_value=5e-324, allow_infinity=False), st.integers(1, 10**20))
maybe = st.one_of(st.none(), finite)


@st.composite
def transmissions(draw):
    return TransmissionRecord(
        draw(st.integers(0, 10**9)),
        draw(finite),
        draw(st.integers(0, 10**9)),
        BBox(draw(finite), draw(finite), draw(extent), draw(extent)),
        *[draw(finite) for _ in range(5)],
        *[draw(maybe) for _ in range(6)],
    )


class_events = st.builds(
    ClassEvent, st.integers(0, 10**9), finite, st.integers(0, 10**9), st.integers(), st.text()
)


@settings(max_examples=200, deadline=None)
@given(txs=st.lists(transmissions(), max_size=4), events=st.lists(class_events, max_size=4))
def test_templates_write_what_json_dumps_writes(txs, events):
    log = sample_log()
    log.transmissions, log.class_events = txs, events
    assert list(to_jsonl_lines(log)) == json_lines(log)


def test_class_lines_share_text_only_with_the_same_frame_and_time_objects():
    # 0.0 == -0.0 and 1 == 1.0, but each value writes its own repr
    minus_zero = -0.0
    log = sample_log()
    log.transmissions = []
    log.class_events = [
        ClassEvent(1, 0.0, 7, 2, CLASS_SOURCE_VIDEO),
        ClassEvent(1, minus_zero, 8, 3, CLASS_SOURCE_VIDEO),
        ClassEvent(1.0, minus_zero, 9, 4, CLASS_SOURCE_VIDEO),
        ClassEvent(1.0, minus_zero, 9, 5, CLASS_SOURCE_STILL),
    ]
    assert list(to_jsonl_lines(log))[1:] == [
        '{"frame": 1, "kind": "class", "label": 2, "source": "video", "t_s": 0.0, "track": 7}',
        '{"frame": 1, "kind": "class", "label": 3, "source": "video", "t_s": -0.0, "track": 8}',
        '{"frame": 1.0, "kind": "class", "label": 4, "source": "video", "t_s": -0.0, "track": 9}',
        '{"frame": 1.0, "kind": "class", "label": 5, "source": "still", "t_s": -0.0, "track": 9}',
    ]


def test_the_templates_and_patterns_derived_from_the_tables_are_the_hand_written_ones():
    # the strings the writer and the block reader used before they were
    # derived from _TX_FIELDS and _CLASS_FIELDS
    assert runlog._TX_LINE == (
        '{"bbox": [%r, %r, %r, %r], "cost_bits": %r, "frame": %r, "kind": "tx", "n": %r, '
        '"s_small": %r, "score": %r, "still_conf": %s, "still_entropy": %s, '
        '"still_label": %s, "t_s": %r, "track": %r, "u": %r, "video_conf": %s, '
        '"video_entropy": %s, "video_label": %s}'
    )
    assert runlog._CLASS_HEAD == '{"frame": %r, "kind": "class", "label": '
    assert runlog._CLASS_MIDDLE == ', "source": %s, "t_s": %r, "track": '
    pinned = [
        (runlog._TX_PATTERN, 1137, "95f662e0517f6081"),
        (runlog._CLASS_PATTERN, 225, "5efa8d269df6a2fc"),
    ]
    for pattern, size, digest in pinned:
        assert len(pattern.pattern) == size
        assert hashlib.sha256(pattern.pattern.encode()).hexdigest()[:16] == digest


def test_the_classifier_fields_are_the_semantic_tx_fields_in_order():
    # the engine builds a tx record from the sidecar's semantics by position
    classifier = [f.name for f in fields(semantic.SemanticRecord)][2:8]
    assert classifier == [*TransmissionRecord._fields[9:]]
    assert semantic._SEMANTICS.names == TransmissionRecord._fields[9:]
    assert [semantic._SEMANTICS[name].kind for name in classifier] == list("ffiiff")


def test_the_run_log_layer_reads_and_writes_without_numpy():
    # semantic and bare tx records, and class events of both sources
    log = sample_log()
    assert {tx.has_semantics for tx in log.transmissions} == {True, False}
    assert {ev.source for ev in log.class_events} == {CLASS_SOURCE_VIDEO, CLASS_SOURCE_STILL}
    text = "".join(line + "\n" for line in to_jsonl_lines(log))
    tests = Path(__file__).parent
    script, package = tests / "runlog_without_numpy.py", tests.parent / "src" / "roitel"
    done = subprocess.run(
        [sys.executable, str(script), str(package)],
        input=text,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == text


# --- the block check and the line path ----------------------------------------


def read_checked(monkeypatch, text: str):
    """The log ``read_jsonl`` reads from ``text``, and whether the block
    check, ``_block_records``, took each block it was given."""
    verdicts = block_verdicts(monkeypatch, runlog, "_block_records")
    return read_jsonl(text), verdicts


@pytest.mark.parametrize("end", ["", "\n"])
def test_the_block_check_takes_what_the_writer_writes(monkeypatch, end):
    text = "\n".join(to_jsonl_lines(sample_log())) + end
    assert read_checked(monkeypatch, text) == (sample_log(), [True])


def test_empty_lines_leave_every_block_to_the_block_check(monkeypatch):
    header, *records = to_jsonl_lines(sample_log())
    text = "\n".join(["", header, "", *records[:2], "", *records[2:], "", ""])
    assert read_checked(monkeypatch, text) == (sample_log(), [True])


@pytest.mark.parametrize("blank", [" \t", " ", "\t\t  "])
@pytest.mark.parametrize("index", [0, 1, 3, 99])  # 99: after the last line
def test_a_line_of_spaces_and_tabs_leaves_the_block_to_the_block_check(
    monkeypatch, index, blank
):
    lines = list(to_jsonl_lines(sample_log()))
    lines.insert(index, blank)
    verdicts = block_verdicts(monkeypatch, runlog, "_block_records")
    for text in ("\n".join(lines), "\n".join(lines) + "\n"):
        assert runlog._read_lines(text) == read_jsonl(text) == sample_log()
    assert verdicts == [True, True]


@pytest.mark.parametrize("index", [0, 1, 3])
@pytest.mark.parametrize("blank", [" \x1f", "\x1f"])
def test_a_line_of_other_whitespace_sends_its_block_to_the_line_reader(
    monkeypatch, index, blank
):
    # before the header it is the line reader's anyway, with the header
    lines = list(to_jsonl_lines(sample_log()))
    lines.insert(index, blank)
    text = "\n".join(lines)
    assert read_checked(monkeypatch, text) == (sample_log(), [index == 0])


@pytest.mark.parametrize("index", [0, 1, 3])
@pytest.mark.parametrize("pad", [" {}", "{}\t"])
def test_whitespace_around_a_record_sends_its_block_to_the_line_reader(
    monkeypatch, index, pad
):
    # the header is the line reader's, which strips the whitespace
    lines = list(to_jsonl_lines(sample_log()))
    lines[index] = pad.format(lines[index])
    text = "\n".join(lines)
    assert read_checked(monkeypatch, text) == (sample_log(), [index == 0])


def tx_line_with(prefix: str) -> str:
    """The sample log with ``prefix`` written right after the first tx
    record's opening brace."""
    lines = list(to_jsonl_lines(sample_log()))
    lines[1] = "{" + prefix + lines[1][1:]
    return "\n".join(lines)


def two_records_on_line(lines: list[str], index: int, sep: str) -> list[str]:
    """``lines`` with a copy of the last record appended to line ``index``."""
    lines = list(lines)
    lines[index] += sep + lines[-1]
    return lines


def line_damage_cases() -> dict[str, str]:
    lines = list(to_jsonl_lines(sample_log()))
    bbox_split = lines[1].replace("[10.0, ", "[10.0,\n", 1)
    # an unknown key holding a list of objects, split after an object
    objects_split = '{"extra": [{"a": 1}\n{"b": 2}], ' + lines[1][1:]
    return {
        "a value spans two lines": "\n".join([lines[0], bbox_split, *lines[2:]]),
        "duplicate key hides 1e400": tx_line_with('"cost_bits": 1e400, '),
        "duplicate key hides 10**400": tx_line_with('"frame": 1' + "0" * 400 + ", "),
        "unknown key holds 1e400": tx_line_with('"extra": 1e400, '),
        "two records on one line": "\n".join(two_records_on_line(lines, 3, " ")),
        # the last line of a file has no "\n" to find after its record
        "a stray character ends the file": "\n".join(lines) + "}",
        # either split keeps the value count, with two records on one line
        "bbox split across lines": "\n".join(
            two_records_on_line([lines[0], bbox_split, *lines[2:]], 2, ", ")
        ),
        "object list split across lines": "\n".join(
            two_records_on_line([lines[0], objects_split, *lines[2:]], 2, ", ")
        ),
        "carriage return as whitespace": "\n".join(
            [lines[0], lines[1].replace(", ", ",\r", 1), *lines[2:]]
        ),
        "line separator in a config value": "\n".join(
            [lines[0].replace('"15.0"', '"15\u20280"'), *lines[1:]]
        ),
        # int() reads it, JSON does not
        "a leading zero in a class line": "\n".join(
            [*lines[:-1], lines[-1].replace('"track": 2}', '"track": 02}')]
        ),
    }


def test_numbers_whose_sum_is_beyond_the_float_range_pass_the_block_check(monkeypatch):
    log = sample_log()
    log.transmissions *= 2
    log.transmissions[0] = log.transmissions[0]._replace(cost_bits=1e308)
    log.transmissions[1] = log.transmissions[1]._replace(score=1.7e308, u_term=1.7e308)
    log.class_events[0] = log.class_events[0]._replace(label=2**1000)
    text = "\n".join(to_jsonl_lines(log))
    assert runlog._read_lines(text) == log
    assert read_checked(monkeypatch, text) == (log, [True])


def test_one_decode_reads_a_blocks_tx_records(monkeypatch):
    log = replace(sample_log(), raw_candidate_count=55)
    log.transmissions *= 20
    text = "\n".join(to_jsonl_lines(log))
    assert len(text) < _text.BLOCK  # one block
    plain, calls = runlog._PLAIN, []

    class CountedDecoder:
        def __getattr__(self, name):
            method = getattr(plain, name)

            def counted(*args):
                calls.append(name)
                return method(*args)

            return counted

    monkeypatch.setattr(runlog, "_PLAIN", CountedDecoder())
    assert read_checked(monkeypatch, text) == (log, [True])
    assert len(log.transmissions) == 40 and len(calls) == 1


#: Respellings of a tx line, valid JSON that the writer never writes, and
#: whether the block check takes the block: only where the template, with
#: JSON's grammar for each literal, still matches the line.
RESPELLINGS = {
    "keys in another order": (
        lambda line: json.dumps(dict(reversed(json.loads(line).items()))),
        False,
    ),
    "compact separators": (
        lambda line: json.dumps(json.loads(line), separators=(",", ":")),
        False,
    ),
    "a capital E exponent": (lambda line: line.replace("e-05", "E-05"), True),
    "a -0 integer": (lambda line: line.replace('"frame": 5,', '"frame": -0,'), True),
}


@pytest.mark.parametrize("case", sorted(RESPELLINGS))
def test_a_tx_line_in_another_spelling_reads_as_the_line_reader_reads_it(monkeypatch, case):
    respell, taken = RESPELLINGS[case]
    lines = list(to_jsonl_lines(sample_log()))
    line, lines[1] = lines[1], respell(lines[1])
    assert lines[1] != line
    text = "\n".join(lines)
    assert read_checked(monkeypatch, text) == (runlog._read_lines(text), [taken])


@pytest.mark.parametrize("case", sorted(line_damage_cases()))
def test_the_line_reader_reads_what_it_refuses(monkeypatch, case):
    # a damaged header never reaches the block check
    text = line_damage_cases()[case]
    expected = read_outcome(runlog._read_lines, text)
    assert expected[0] == "raised"
    verdicts = block_verdicts(monkeypatch, runlog, "_block_records")
    assert read_outcome(read_jsonl, text) == expected
    assert not all(verdicts) or not verdicts


@st.composite
def line_damaged_logs(draw):
    """The sample log with one to three line-level damages."""
    lines = list(to_jsonl_lines(sample_log()))
    newline = "\n"
    for _ in range(draw(st.integers(1, 3))):
        op = draw(
            st.sampled_from(
                ["merge", "two on one", "split bbox", "break in echo", "break in record",
                 "blank", "crlf"]
            )
        )
        if op == "merge" and len(lines) > 1:
            i = draw(st.integers(0, len(lines) - 2))
            lines[i : i + 2] = [lines[i] + draw(st.sampled_from(["", " ", ", "])) + lines[i + 1]]
        elif op == "two on one":
            i = draw(st.integers(0, len(lines) - 1))
            record = draw(st.sampled_from(lines))
            lines[i] += draw(st.sampled_from(["", " ", ", ", ","])) + record
        elif op == "split bbox":
            with_bbox = [i for i, line in enumerate(lines) if '"bbox": [' in line]
            if with_bbox:
                i = draw(st.sampled_from(with_bbox))
                head, tail = lines[i].split('"bbox": [', 1)
                close = tail.find("]")
                cut = draw(st.integers(0, close if close >= 0 else len(tail)))
                lines[i : i + 1] = [head + '"bbox": [' + tail[:cut], tail[cut:]]
        elif op == "break in echo":
            char = draw(st.sampled_from(["\u2028", "\u2029", "\r", "\x0c", "\x85", "\x1c"]))
            lines = [line.replace('"15.0"', '"15' + char + '0"', 1) for line in lines]
        elif op == "break in record":
            i = draw(st.integers(0, len(lines) - 1))
            lines[i] = lines[i].replace(", ", "," + draw(st.sampled_from(["\r", "\x0c"])), 1)
        elif op == "blank":
            i = draw(st.integers(0, len(lines)))
            lines.insert(i, draw(st.sampled_from(["", " ", "\t", "  \t ", " \x1f"])))
        else:
            newline = "\r\n"
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@settings(max_examples=400, deadline=None)
@given(text=line_damaged_logs())
def test_line_damage_reads_as_the_line_reader_reads_it(text):
    assert read_outcome(read_jsonl, text) == read_outcome(runlog._read_lines, text)


# --- reading an open file ---------------------------------------------------


def read_from_file(text: str, block: int):
    """``read_outcome`` of ``read_jsonl`` on ``text`` written to a file and
    opened as the CLI opens it, read in blocks of ``block`` characters."""
    with tempfile.TemporaryFile("w+", encoding="utf-8") as f, mock.patch.object(
        _text, "BLOCK", block
    ):
        f.write(text)
        f.seek(0)
        return read_outcome(read_jsonl, f)


@st.composite
def written_logs(draw):
    """The text of a run log of drawn records, as the writer writes it."""
    log = sample_log()
    log.transmissions = draw(st.lists(transmissions(), max_size=6))
    log.class_events = draw(st.lists(class_events, max_size=6))
    return "\n".join(to_jsonl_lines(log)) + draw(st.sampled_from(["", "\n"]))


@pytest.mark.parametrize("block", [8, 40, 1 << 16])
@settings(max_examples=150, deadline=None)
@given(text=st.one_of(written_logs(), line_damaged_logs()))
def test_a_file_reads_as_the_line_reader_reads_its_text(block, text):
    assert read_from_file(text, block) == read_outcome(runlog._read_lines, text)


@pytest.mark.parametrize("block", [8, 40, 1 << 16])
@settings(max_examples=100, deadline=None)
@given(text=st.one_of(written_logs(), line_damaged_logs()))
def test_a_fold_reports_as_the_whole_log_does(block, text):
    with mock.patch.object(_text, "BLOCK", block):
        got = fold_facts(fold_result(metrics.fold_jsonl, text))
    assert got == fold_facts(fold_result(read_and_aggregate, text))


def sparse_log() -> RunLog:
    """The sample log over 200,001 processed frames: a header of 1.6 MB."""
    log = sample_log()
    log.processed_frame_indices = tuple(range(0, 1_000_001, 5))
    log.last_frame = 1_000_000
    return log


@pytest.mark.parametrize(
    "case",
    ["no final newline", "header only", "header only, no newline", "empty", "sparse header"],
)
def test_edge_cases_read_alike_from_a_str_and_a_file(case):
    header, *records = to_jsonl_lines(sample_log())
    text = {
        "no final newline": "\n".join([header, *records]),
        "header only": header + "\n",
        "header only, no newline": header,
        "empty": "",
        "sparse header": "\n".join(to_jsonl_lines(sparse_log())) + "\n",
    }[case]
    expected = read_outcome(runlog._read_lines, text)
    assert read_outcome(read_jsonl, text) == expected
    assert read_from_file(text, _text.BLOCK) == expected


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_a_str_with_other_line_ends_passes_the_block_check(monkeypatch, newline):
    text = newline.join(to_jsonl_lines(sample_log())) + newline
    assert runlog._read_lines(text) == sample_log()
    assert read_checked(monkeypatch, text) == (sample_log(), [True])


def test_a_pipe_is_read_in_blocks():
    text = "\n".join(to_jsonl_lines(sample_log())) + "\n"
    read_end, write_end = os.pipe()
    os.write(write_end, text.encode("utf-8"))
    os.close(write_end)
    with open(read_end, encoding="utf-8") as f:
        assert not f.seekable()
        assert read_jsonl(f) == sample_log()


def long_log() -> RunLog:
    """The sample log with enough records for many blocks of 256
    characters."""
    log = sample_log()
    log.class_events *= 20
    log.raw_candidate_count = 100
    return log


@pytest.mark.parametrize("tail", ["\x0c\n", "\x0c\n[1]\n", "\n\x0c\n\n"])
def test_a_form_feed_in_the_last_block_sends_only_that_block_to_the_line_reader(
    monkeypatch, tail
):
    lines = list(to_jsonl_lines(long_log()))
    text = "\n".join(lines) + "\n" + tail
    monkeypatch.setattr(_text, "BLOCK", 256)
    verdicts = block_verdicts(monkeypatch, runlog, "_block_records")
    if "[1]" in tail:
        with pytest.raises(ParseError) as exc:
            read_jsonl(text)
        # a form feed ends a line, as str.splitlines numbers them
        assert exc.value.line_no == len(lines) + 3
        assert str(exc.value) == f"line {len(lines) + 3}: expected a JSON object, got [1]"
    else:
        assert read_jsonl(text) == long_log()
    assert len(verdicts) > 10
    assert verdicts == [True] * (len(verdicts) - 1) + [False]


@pytest.mark.parametrize("source", [str, SizedReadsOnly])
def test_a_fold_takes_every_block(monkeypatch, source):
    log = long_log()
    log.transmissions *= 20
    text = "\n".join(to_jsonl_lines(log)) + "\n"
    monkeypatch.setattr(_text, "BLOCK", 256)
    header, report = metrics.fold_jsonl(source(text))
    assert header == replace(log, transmissions=[], class_events=[])
    assert report == aggregate_run(log)
    assert report.selected_rois == 40


def test_a_file_read_only_in_sized_reads_reads_like_its_text(monkeypatch):
    text = "\n".join(to_jsonl_lines(long_log())) + "\n"
    monkeypatch.setattr(_text, "BLOCK", 256)
    assert read_jsonl(SizedReadsOnly(text)) == read_jsonl(text) == long_log()


@pytest.mark.parametrize("index", [0, 2])
def test_deep_nesting_is_a_parse_error(index):
    lines = list(to_jsonl_lines(sample_log()))
    lines[index] = "[" * 100_000
    with pytest.raises(ParseError, match="bad JSON: maximum recursion depth") as exc:
        read_jsonl("\n".join(lines))
    assert exc.value.line_no == index + 1


def test_accountability_error_is_at_the_header_line():
    text = "\n\n" + damaged(0, "rejected_threshold", 38)
    with pytest.raises(ParseError, match="= 43 exceeds raw_candidates = 42") as exc:
        read_jsonl(text)
    assert exc.value.line_no == 3


def test_each_block_of_a_log_is_checked_for_plain_ascii_once(monkeypatch):
    # line_blocks checks each block once, and the block check takes its verdict
    text = "\n".join(to_jsonl_lines(long_log())) + "\n"
    monkeypatch.setattr(_text, "BLOCK", 256)
    blocks = [numbered[1] for numbered in _text.line_blocks(_text.text_file(text))]
    checks = plain_checks(monkeypatch)
    assert read_jsonl(text) == long_log()
    assert len(blocks) > 10
    assert checks == blocks
