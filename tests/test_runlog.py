import json
import math

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
from roitel import runlog
from roitel.metrics import aggregate_run, emit_report
from roitel.runlog import CLASS_SOURCE_STILL, CLASS_SOURCE_VIDEO, to_jsonl_lines
from helpers import json_lines, read_outcome


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
        (0, "processed_frame_indices", 5, "'processed_frame_indices' must be a list"),
        (0, "processed_frame_indices", [0, "5"], "bad processed_frame_indices"),
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


# --- one-pass reader ----------------------------------------------------------


def test_one_pass_reads_what_the_writer_writes():
    text = "\n".join(to_jsonl_lines(sample_log()))
    for clean in (text, text + "\n"):
        assert runlog._read_one_pass(clean) == sample_log()


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
    }


@pytest.mark.parametrize("case", sorted(line_damage_cases()))
def test_one_pass_falls_back_where_the_line_reader_refuses(case):
    text = line_damage_cases()[case]
    expected = read_outcome(runlog._read_lines, text)
    assert expected[0] == "raised"
    assert runlog._read_one_pass(text) is None
    assert read_outcome(read_jsonl, text) == expected


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
            lines.insert(i, draw(st.sampled_from(["", " ", "\t", "  \t "])))
        else:
            newline = "\r\n"
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@settings(max_examples=400, deadline=None)
@given(text=line_damaged_logs())
def test_line_damage_reads_as_the_line_reader_reads_it(text):
    assert read_outcome(read_jsonl, text) == read_outcome(runlog._read_lines, text)


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
