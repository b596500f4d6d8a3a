"""The vectorised ingest pass against the row parser it stands in for.

Every public detection and sidecar parse in the suite is already
cross-checked by the autouse fixtures in ``conftest.py``; the tests here feed both parsers
generated and mutated files, pin where the vectorised pass must step aside,
and check that it is actually taken on clean input.
"""

import importlib.util
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from roitel import (
    _text,
    DetectionStream,
    FrameClock,
    ParseError,
    gen_synthetic,
    ingest,
    inject_confidence_noise,
    parse_generic_csv,
    parse_sidecar_csv,
    parse_uavdt_gt,
    parse_visdrone_mot,
    semantic,
    write_generic_csv,
)
from conftest import parse_outcome
from helpers import SizedReadsOnly, block_verdicts, parse_rows, plain_checks

GENERIC, UAVDT, VISDRONE = ingest._GENERIC, ingest._UAVDT, ingest._VISDRONE

#: layout name -> (public parser, row-parser layout, a small valid file)
LAYOUTS = {
    "generic": (
        parse_generic_csv,
        GENERIC,
        "# roitel detections v1\n"
        "# clock: fps=15.0 stride=5\n"
        "0,-1,10,20,30,40,0.9,2\n"
        "0,3,1.5,2.5,8,9,0.25,1\n"
        "1,3,2.5,3.5,8,9,0.5,1\n"
        "2,-1,100,50,20,10,1,0\n",
    ),
    "uavdt": (
        parse_uavdt_gt,
        UAVDT,
        "1,3,100,50,20,10,0,0,1\n1,4,10,5,2,1,1,2,2\n2,3,101,51,20,10,0,0,1\n",
    ),
    "visdrone": (
        parse_visdrone_mot,
        VISDRONE,
        "1,5,0,0,10,10,0.8,2,0,0\n2,5,1,1,10,10,1.5,2,0,0\n3,6,2,2,10,10,-0.5,2,0,0\n",
    ),
}

SIDECAR_BASE = (
    "# columns: frame,track,video_conf,still_conf,video_label,still_label,"
    "video_entropy,still_entropy,payload_bytes\n"
    "10,4,0.20,0.35,7,7,1.9,1.1,1300\n"
    "10,5,0.2,0.3,7,7,1.9,1.1\n"
    "15,4,0.2,0.3,1,2,0.5,0.1,900\n"
)


def columns(text, layout):
    """The stream the parser reads from ``text`` if the block check,
    ``_block_columns``, takes every block, else None."""
    with pytest.MonkeyPatch.context() as patch:
        verdicts = block_verdicts(patch, ingest, "_block_columns")
        try:
            stream = ingest._parse_detections(text, layout, None)
        except ParseError:
            stream = None
    return stream if all(verdicts) else None


def row_parse(layout):
    return lambda text, errors_out: parse_rows(text, layout, errors_out)


def public_parse(parser):
    return lambda text, errors_out: parser(text, errors_out=errors_out)


def assert_agrees_with_row_parser(name, text):
    parser, layout, _ = LAYOUTS[name]
    for collect in (False, True):
        # any exception other than ParseError fails the test here
        expected = parse_outcome(row_parse(layout), text, collect)
        assert parse_outcome(public_parse(parser), text, collect) == expected


# --- fuzzing ------------------------------------------------------------------

TOKENS = [*"0123456789.,-+eE_# \t", "\r", "\x0c", "\x1c", " ", "inf", "nan"]
TOKENS += ["\n", "\n\n", "\n# note\n", "\n   \n", "1e400", "1e20", "\r\n"]

mutation = st.tuples(
    st.sampled_from(["insert", "replace", "delete", "swap_lines"]),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.sampled_from(TOKENS),
)


def mutate(text, mutations):
    for op, a, b, token in mutations:
        if op == "swap_lines":
            lines = text.split("\n")
            i, j = a % len(lines), b % len(lines)
            lines[i], lines[j] = lines[j], lines[i]
            text = "\n".join(lines)
            continue
        pos = a % (len(text) + 1)
        if op == "insert":
            text = text[:pos] + token + text[pos:]
        elif op == "replace":
            text = text[:pos] + token + text[pos + 1 :]
        else:
            text = text[:pos] + text[pos + 1 :]
    return text


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(sorted(LAYOUTS)),
    mutations=st.lists(mutation, min_size=1, max_size=6),
)
def test_mutated_files_parse_like_the_row_parser(name, mutations):
    assert_agrees_with_row_parser(name, mutate(LAYOUTS[name][2], mutations))


def int_text(value):
    """Spellings of an integer field that float(s) reads as ``value``."""
    sign = "-" if value < 0 else ""
    mag = abs(value)
    return st.sampled_from(
        [
            str(value),
            f"{value}.0",
            f"{value}e0",
            f"{sign}{mag * 10}e-1",
            f" {value}\t",
            f"+{value}" if value >= 0 else str(value),
        ]
    )


def float_text(value):
    return st.sampled_from(
        [repr(value), f"{value:.2f}", f"{value:.3e}", f" {value!r} ", f"{value:.6g}"]
    )


def field(kind):
    if kind == "frame":
        return st.integers(0, 6).flatmap(int_text)
    if kind == "frame1":
        return st.integers(1, 6).flatmap(int_text)
    if kind == "int":
        return st.integers(-3, 6).flatmap(int_text)
    if kind == "pos":
        return st.floats(0.5, 500.0).flatmap(float_text)
    if kind == "unit":
        return st.sampled_from(["0", "1", "1.0", "0.5", ".25", "-0.0", "0.999"]) | st.floats(
            0.0, 1.0
        ).map(repr)
    if kind == "score":
        return st.floats(-2.0, 2.0).flatmap(float_text) | st.just("-0.0")
    return st.floats(-1000.0, 2000.0).flatmap(float_text)  # any finite coordinate


ROW_KINDS = {
    "generic": ["frame", "int", "any", "any", "pos", "pos", "unit", "int"],
    "uavdt": ["frame1", "int", "any", "any", "pos", "pos", "int", "int", "int"],
    "visdrone": ["frame1", "int", "any", "any", "pos", "pos", "score", "int", "int", "int"],
}


@st.composite
def generated_file(draw, name):
    row = st.tuples(*(field(kind) for kind in ROW_KINDS[name])).map(",".join)
    rows = draw(st.lists(row, max_size=12))  # frames come in any order
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(rows) + eol
    if draw(st.booleans()):
        text = "# generated\n# clock: fps=30.0 stride=2\n\n" + text
    return mutate(text, draw(st.lists(mutation, max_size=2)))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(LAYOUTS)))
def test_generated_files_parse_like_the_row_parser(data, name):
    assert_agrees_with_row_parser(name, data.draw(generated_file(name)))


@settings(max_examples=200, deadline=None)
@given(mutations=st.lists(mutation, min_size=1, max_size=6))
def test_mutated_sidecars_fail_only_with_parse_errors(mutations):
    text = mutate(SIDECAR_BASE, mutations)
    try:
        parse_sidecar_csv(text)
        raised = None
    except ParseError as err:
        raised = err.line_no
    errors: list[ParseError] = []
    parse_sidecar_csv(text, errors_out=errors)
    assert raised == (errors[0].line_no if errors else None)


# --- non-finite and huge numbers ----------------------------------------------

#: (parser, a valid row, the columns the parser reads)
NUMERIC_ROWS = {
    "generic": (parse_generic_csv, "0,-1,10,20,30,40,0.9,2", range(8)),
    "uavdt": (parse_uavdt_gt, "1,3,100,50,20,10,0,0,1", [0, 1, 2, 3, 4, 5, 8]),
    "visdrone": (parse_visdrone_mot, "1,5,0,0,10,10,0.8,2,0,0", range(8)),
    "sidecar": (parse_sidecar_csv, "10,4,0.20,0.35,7,7,1.9,1.1,1300", range(9)),
}


@pytest.mark.parametrize("token", ["inf", "-inf", "nan", "1e400"])
@pytest.mark.parametrize(
    "name,column",
    [(name, col) for name, (_, _, cols) in NUMERIC_ROWS.items() for col in cols],
)
def test_non_finite_numbers_are_line_exact_parse_errors(name, column, token):
    parse, good, _ = NUMERIC_ROWS[name]
    fields = good.split(",")
    fields[column] = token
    text = f"{good}\n{','.join(fields)}\n"
    with pytest.raises(ParseError, match="non-finite") as exc:
        parse(text)
    assert exc.value.line_no == 2
    errors: list[ParseError] = []
    parsed = parse(text, errors_out=errors)
    assert [e.line_no for e in errors] == [2]
    assert (len(parsed) if name == "sidecar" else parsed.n_detections) == 1


#: the values of a bad clock comment -> the reason its error gives
BAD_CLOCKS = {
    "fps=0 stride=1": "fps must be > 0, got 0.0",
    "fps=inf stride=5": "expected 'fps=<number> stride=<integer>'",
    "fps=1e400 stride=5": "fps must be finite, got inf",
    "fps=15 stride=x": "expected 'fps=<number> stride=<integer>'",
    "fps=30 stride=2 extra": "expected 'fps=<number> stride=<integer>'",
    f"fps=15 stride={2**63}": f"frame_stride outside int64: {2**63}",
}


@pytest.mark.parametrize("values", list(BAD_CLOCKS))
def test_bad_clock_comment_is_a_line_exact_parse_error(values):
    text = f"0,-1,0,0,5,5,0.5,0\n# clock: {values}\n1,-1,0,0,5,5,1.5,0\n"
    assert columns(text, GENERIC) is None  # the vectorised pass steps aside
    with pytest.raises(ParseError) as exc:
        parse_generic_csv(text)
    assert exc.value.line_no == 2
    assert str(exc.value) == f"line 2: bad clock comment: {BAD_CLOCKS[values]}"
    errors: list[ParseError] = []
    stream = parse_generic_csv(text, errors_out=errors)
    assert [e.line_no for e in errors] == [2, 3]
    assert stream.clock == FrameClock()


# --- where the vectorised pass steps aside ------------------------------------

GOOD = "0,-1,10,20,30,40,0.9,2\n"


@pytest.mark.parametrize(
    "text",
    [
        GOOD + "1,-1,10,20,30,40,0.9,1#x\n",  # loadtxt would read 1#x as 1
        GOOD + "1,-1,10,20\x0c30,40,0.9,1\n",  # splitlines breaks on \x0c
        GOOD + "1,-1,10,20 30,40,0.9,1\n",
        GOOD + "1,-1,10,20\x1c,30,40,0.9,1\n",
        GOOD + "1,1e20,10,20,30,40,0.9,1\n",  # beyond int64, exact in Python
        GOOD + "1,-1,10,20,30,40,0.9,1e20\n",  # a class beyond int64 is refused
        GOOD + "1.5,-1,10,20,30,40,0.9,1\n",  # a non-integral frame is refused
        GOOD + "1,7.9,10,20,30,40,0.9,1\n",
        GOOD + "1,-1,10,20,30,40,0.9,-0.5\n",
        GOOD + "1,-1,1_0,20,30,40,0.9,1\n",  # float() reads 1_0
        GOOD + "1,-1,١٠,20,30,40,0.9,1\n",  # non-ASCII digits
        GOOD + "1,-1,1\ud800,20,30,40,0.9,1\n",  # a str may hold a lone surrogate
        GOOD + "1,-1,10,20,30,40,0.9,1,\n",
        GOOD + "   \n1,-1,10,20,30,40,0.9\n",
    ],
)
def test_vectorised_pass_defers_to_the_row_parser(text):
    assert columns(text, GENERIC) is None
    assert_agrees_with_row_parser("generic", text)


def test_huge_ids_keep_their_exact_value():
    # a hint may exceed int64; a class may reach the int64 floor, which the
    # vectorised pass leaves to the row parser
    stream = parse_generic_csv(GOOD + "1,1e20,10,20,30,40,0.9,-9223372036854775808\n")
    det = stream.detections_at(1)[0]
    assert det.track_hint == 10**20
    assert det.class_id == -(2**63)


@pytest.mark.parametrize(
    "name,text",
    [
        ("generic", write_generic_csv(gen_synthetic(5, 40, 3.0, FrameClock()))),
        ("generic", "# only comments\n\n"),
        ("generic", ""),
        ("generic", "# c\r\n0,-1,1,2,3,4,0.5,0\r\n\r\n  1 , 2 ,1,2,3,4,0.5,0\t\r\n"),
        ("generic", "3,-1,1,2,3,4,0.5,0\n0,-2,1,2,3,4,-0.0,0\n3,7.0,5,6,7,8,1,-1e0\n"),
        ("generic", GOOD + "1,-1,10,20,30,40,0.9,1\r2,-1,10,20,30,40,0.9,1\n"),  # \r ends a line
        ("uavdt", LAYOUTS["uavdt"][2]),
        ("visdrone", LAYOUTS["visdrone"][2]),
    ],
)
def test_vectorised_pass_takes_clean_input(name, text):
    _, layout, _ = LAYOUTS[name]
    assert columns(text, layout) is not None
    columnar = parse_outcome(lambda t, e: columns(t, layout), text, False)
    assert columnar == parse_outcome(row_parse(layout), text, False)


def test_frames_keep_file_order_within_a_frame():
    text = "2,1,1,1,5,5,0.5,0\n0,-1,0,0,5,5,0.5,0\n2,2,9,9,5,5,0.5,0\n1,4,3,3,5,5,0.5,0\n"
    stream = columns(text, GENERIC)
    assert stream.frame_indices == (0, 1, 2)
    assert [d.track_hint for d in stream.detections_at(2)] == [1, 2]
    assert stream.detections_at(3) == ()
    assert [d.frame_index for _, dets in stream.frames for d in dets] == [0, 1, 2, 2]


# --- reading an open file -----------------------------------------------------


@pytest.fixture(scope="module")
def file_path(tmp_path_factory):
    return tmp_path_factory.mktemp("parse") / "detections.csv"


def file_outcome(name, path, text, collect):
    """What parsing ``text`` written to ``path`` gives, read as the CLI
    reads ``--input``."""
    parser = LAYOUTS[name][0]
    path.write_bytes(text.encode("utf-8"))
    with open(path, encoding="utf-8") as f:
        return parse_outcome(lambda _, e: parser(f, errors_out=e), None, collect)


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    name=st.sampled_from(sorted(LAYOUTS)),
    block=st.sampled_from([8, 40, 1 << 20]),
)
def test_a_file_parses_like_its_text(file_path, data, name, block):
    mutated = st.lists(mutation, min_size=1, max_size=6).map(
        lambda mutations: mutate(LAYOUTS[name][2], mutations)
    )
    text = data.draw(generated_file(name) | mutated)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_text, "BLOCK", block)
        for collect in (False, True):
            expected = parse_outcome(public_parse(LAYOUTS[name][0]), text, collect)
            assert file_outcome(name, file_path, text, collect) == expected


CLOCKED = "0,-1,1,2,3,4,0.5,0\n# clock: fps=30.0 stride=2\n1,-1,1,2,3,4,0.5,0\n"


@pytest.mark.parametrize("block", range(1, 60))
def test_a_clock_comment_across_a_block_boundary_is_read(monkeypatch, block):
    # a block is completed to whole lines, so every block size, shorter than
    # the longest line too, takes the vectorised pass
    monkeypatch.setattr(_text, "BLOCK", block)
    stream = columns(CLOCKED, GENERIC)
    assert stream is not None
    assert stream.clock == FrameClock(fps=30.0, frame_stride=2)
    assert_agrees_with_row_parser("generic", CLOCKED)


@pytest.mark.parametrize(
    "text",
    [
        CLOCKED,
        GOOD + "1,-1,10,20,30,40,0.9,1#x\n",
        GOOD + "  # an indented comment\n",
        GOOD + "  # clock: fps=30.0 stride=2\n",
        GOOD + " \t \n" + GOOD,
        GOOD + "1,-1,10,20,30,40,0.9,1\r2,-1,10,20,30,40,0.9,1\r",
        GOOD + "1,-1,10,20,30,40,0.9,1",
        "",
        "# only\n# comments\n\n# clock: fps=30.0 stride=2",
        GOOD * 4 + "1,-1,10,20,30,40,0.9,1  # café\n",
        GOOD * 4 + "1,-1,10,20,30,40,0.9,١\n",
    ],
)
def test_explicit_files_parse_like_the_row_parser(monkeypatch, file_path, text):
    # a small block puts the later lines of each file in a later block
    monkeypatch.setattr(_text, "BLOCK", 32)
    for collect in (False, True):
        expected = parse_outcome(row_parse(GENERIC), text, collect)
        assert file_outcome("generic", file_path, text, collect) == expected


#: A clean stream long enough for many blocks of ``SMALL_BLOCK`` characters.
LONG = write_generic_csv(gen_synthetic(5, 40, 3.0, FrameClock()))
SMALL_BLOCK = 256


@pytest.mark.parametrize("tail", ["   \n", "   \n1,2\n# clock: fps=1 stride=x\n", "1,-1,5"])
def test_a_doubtful_last_block_is_all_the_row_parser_reads(monkeypatch, tail):
    text = LONG + tail
    monkeypatch.setattr(_text, "BLOCK", SMALL_BLOCK)
    verdicts = block_verdicts(monkeypatch, ingest, "_block_columns")
    for collect in (False, True):
        expected = parse_outcome(row_parse(GENERIC), text, collect)
        assert parse_outcome(public_parse(parse_generic_csv), text, collect) == expected
    n = len(verdicts) // 2
    assert n > 10
    assert verdicts == 2 * ([True] * (n - 1) + [False])


def test_each_block_of_a_detection_file_is_checked_for_plain_ascii_once(monkeypatch):
    # line_blocks checks each block once, and the block check takes its verdict
    monkeypatch.setattr(_text, "BLOCK", SMALL_BLOCK)
    blocks = [numbered[1] for numbered in _text.line_blocks(_text.text_file(LONG))]
    checks = plain_checks(monkeypatch)
    parse_generic_csv(LONG)
    assert len(blocks) > 10
    assert checks == blocks


def test_a_doubtful_block_keeps_the_line_numbers_of_the_whole_text(monkeypatch):
    lines = LONG.splitlines()
    lines[-1] += " \x0c 1,2"  # a line end of str.splitlines, then a short row
    text = "\n".join(lines) + "\n\n\u2028x\n"  # and another
    monkeypatch.setattr(_text, "BLOCK", SMALL_BLOCK)
    errors: list[ParseError] = []
    parse_generic_csv(text, errors_out=errors)
    n = len(lines)
    assert [(e.line_no, str(e).split(": ", 1)[1]) for e in errors] == [
        (n + 1, "expected 8 columns, got 2"),
        (n + 4, "expected 8 columns, got 1"),
    ]


#: parser name -> (parser, a clean text), for the parsers of every input
READERS = {
    "generic": (parse_generic_csv, LONG),
    "visdrone": (parse_visdrone_mot, LAYOUTS["visdrone"][2] * 20),
    "sidecar": (parse_sidecar_csv, SIDECAR_BASE + "".join(
        f"{frame},4,0.2,0.3,1,2,0.5,0.1,{frame + 1}\n" for frame in range(20, 80)
    )),
}


@pytest.mark.parametrize("name", sorted(READERS))
def test_a_file_read_only_in_sized_reads_parses_like_its_text(monkeypatch, name):
    parse, text = READERS[name]
    monkeypatch.setattr(_text, "BLOCK", SMALL_BLOCK)
    expected = parse(text)
    got = parse(SizedReadsOnly(text))
    if name == "sidecar":
        assert len(got) == len(expected) == 63
        assert got.records == expected.records
    else:
        assert got.n_detections == expected.n_detections > 40
        assert repr(got.frames) == repr(expected.frames)


def test_the_join_holds_one_column_at_a_time(monkeypatch, tmp_path):
    """A parse peaks within 2.2 times its stream's columns: joining every
    column at once kept each column's pieces alive until the last was
    joined (2.6 times on this file). It reads a file, as a ``str`` source
    also holds its UTF-8 bytes, which would hide the join."""
    monkeypatch.undo()  # the cross-check's row parse would count in the peak
    path = tmp_path / "detections.csv"
    path.write_text(write_generic_csv(gen_synthetic(1, 4000, 20, FrameClock())))
    with open(path, encoding="utf-8") as f:
        tracemalloc.start()
        try:
            rows = parse_generic_csv(f)._rows
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    held = sum(c.nbytes for c in (rows.boxes, rows.hint, rows.has_hint, rows.conf, rows.cls))
    assert peak <= 2.2 * held


def sidecar_outcome(text, collect, path=None):
    """What parsing the sidecar ``text`` gives, from the ``str`` or, with
    ``path``, from a file: its records and collected errors, or the error,
    each with its type."""
    errors: list[ParseError] = []
    try:
        if path is None:
            sidecar = parse_sidecar_csv(text, errors if collect else None)
        else:
            path.write_bytes(text.encode("utf-8"))
            with open(path, encoding="utf-8") as f:
                sidecar = parse_sidecar_csv(f, errors if collect else None)
    except ParseError as err:
        return (type(err), err.line_no, str(err))
    return repr(sidecar.records), [(type(e), e.line_no, str(e)) for e in errors]


@settings(max_examples=150, deadline=None)
@given(
    mutations=st.lists(mutation, min_size=1, max_size=6),
    repeats=st.integers(1, 4),
    block=st.sampled_from([8, 40]),
)
def test_a_sidecar_in_blocks_parses_as_in_one_block(file_path, mutations, repeats, block):
    # a repeated row is a DuplicateKey, in a later block than its first
    text = mutate(SIDECAR_BASE * repeats, mutations)
    for collect in (False, True):
        whole = sidecar_outcome(text, collect)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_text, "BLOCK", block)
            assert sidecar_outcome(text, collect) == whole
            assert sidecar_outcome(text, collect, file_path) == whole


def benchmark_generator():
    """``perfbench/gen.py``, which writes the benchmark's inputs."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def test_a_sidecar_of_the_benchmark_generator_sends_no_block_to_the_row_parser(
    monkeypatch, tmp_path
):
    # a header comment, then rows of 4-decimal floats, nine in ten with a
    # payload column, so a block mixes 8- and 9-field rows
    det, side = tmp_path / "det.csv", tmp_path / "side.csv"
    benchmark_generator().write_generic(det, 1, 200, 10, side)
    rows = side.read_text().splitlines()[1:]
    assert {row.count(",") for row in rows} == {7, 8}
    monkeypatch.setattr(_text, "BLOCK", 1024)
    verdicts = block_verdicts(monkeypatch, semantic, "_sidecar_block")
    with open(side, encoding="utf-8") as f:
        assert len(parse_sidecar_csv(f)) == len(rows) == 400
    assert len(verdicts) > 10 and all(verdicts)


# --- confidence noise over parsed and packed tables ---------------------------


@pytest.mark.parametrize("name", ["generic", "visdrone"])
def test_confidence_noise_is_the_same_over_columns_and_objects(name):
    parser, layout, _ = LAYOUTS[name]
    text = write_generic_csv(gen_synthetic(8, 60, 4.0, FrameClock()))
    if name == "visdrone":
        text = "".join(
            f"{d.frame_index + 1},{d.track_hint},{d.bbox.x!r},{d.bbox.y!r},{d.bbox.w!r},"
            f"{d.bbox.h!r},{d.confidence * 1.4 - 0.2!r},{d.class_id},0,0\n"
            for _, dets in parse_generic_csv(text).frames
            for d in dets
        )
    columnar = columns(text, layout)
    objects = DetectionStream.from_frames(columnar.clock, columnar.frames)
    # one table holds the parser's columns, the other was packed from objects
    assert isinstance(columnar._rows.bboxes, ingest._BoxRows)
    assert type(objects._rows.bboxes) is tuple
    for amount in (0.0, 0.2, 1.5):
        a = inject_confidence_noise(columnar, amount, seed=3)
        b = inject_confidence_noise(objects, amount, seed=3)
        assert repr(a.frames) == repr(b.frames)
        assert a.frame_indices == b.frame_indices
