import json
from dataclasses import replace
from functools import partial
from itertools import starmap

import pytest
from hypothesis import settings

from roitel import BBox, ParseError, RoitelError, cli, engine, ingest, metrics, runlog, semantic
from roitel.runlog import TransmissionRecord, collect, to_jsonl_lines
from helpers import (
    block_verdicts,
    class_obj,
    fold_facts,
    fold_result,
    json_lines,
    parse_rows,
    read_and_aggregate,
    read_outcome,
    ref_associate,
    scalar_schedule,
    tx_obj,
)

# Property tests must behave identically run to run.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


def stream_facts(stream, errors):
    """A parsed stream and the errors collected with it, in a form that
    tells -0.0 from 0.0 and 1 from 1.0."""
    return (
        stream.clock,
        stream.frame_indices,
        stream.n_detections,
        repr(stream.frames),
        [(e.line_no, str(e)) for e in errors],
    )


def parse_outcome(parse, text, collect):
    """What one detection parse gives: the stream and the collected errors,
    or the error."""
    errors: list[ParseError] = []
    try:
        stream = parse(text, errors if collect else None)
    except ParseError as err:
        return ("raised", err.line_no, str(err))
    return stream_facts(stream, errors)


class Tee:
    """A text file that keeps a copy of all that is read from ``f``."""

    def __init__(self, f):
        self.f, self.copy = f, []

    def read(self, size):
        return self._kept(self.f.read(size))

    def readline(self):
        return self._kept(self.f.readline())

    def _kept(self, text):
        self.copy.append(text)
        return text


def read_text(source, tee) -> str:
    """The whole text of ``source``, read through ``tee``: what was read,
    then the rest in sized reads, as a pipe may demand."""
    if isinstance(source, str):
        return source
    return "".join(tee.copy) + "".join(iter(partial(source.read, 1 << 16), ""))


@pytest.fixture(autouse=True)
def cross_check_detection_parses(monkeypatch):
    """Every detection parse in the suite is checked against the row parser
    on the whole text: the same stream, the same collected errors, or the
    same ParseError. A file is parsed once, through a ``Tee``; after a
    ParseError its rest is read in sized reads, as a pipe may demand, and
    the row parser reads all that was read."""
    public = ingest._parse_detections

    def checked(source, layout, errors_out):
        tee = source if isinstance(source, str) else Tee(source)
        errors: list[ParseError] = []
        try:
            result = public(tee, layout, None if errors_out is None else errors)
            got = stream_facts(result, errors)
        except ParseError as err:
            result, got = err, ("raised", err.line_no, str(err))
        collect = errors_out is not None
        text = read_text(source, tee)
        assert got == parse_outcome(lambda t, e: parse_rows(t, layout, e), text, collect)
        if isinstance(result, ParseError):
            raise result
        if collect:
            errors_out.extend(errors)
        return result

    monkeypatch.setattr(ingest, "_parse_detections", checked)


def error_facts(errors):
    return [(type(e), e.line_no, str(e)) for e in errors]


def sidecar_facts(sidecar, errors):
    """A parsed sidecar and the errors collected with it: its size, its
    records in file order, in a form that tells -0.0 from 0.0 and 1 from
    1.0, and each error with its type."""
    return len(sidecar), repr(list(sidecar.records.values())), error_facts(errors)


def row_sidecar_outcome(text, collect):
    """What the sidecar row parser gives on the whole text: its records and
    the collected errors, or the error."""
    errors: list[ParseError] = []
    try:
        _, records = semantic._row_records(text, 1, errors if collect else None)
    except ParseError as err:
        return ("raised", type(err), err.line_no, str(err))
    return len(records), repr(records), error_facts(errors)


@pytest.fixture(autouse=True)
def cross_check_sidecar_parses(monkeypatch):
    """Every sidecar parse in the suite is checked against the row parser
    on the whole text: the same records in file order, the same collected
    errors, or the same error, each with its type, line and message. A file
    is parsed once, through a ``Tee``, as a detection file is."""
    read = semantic._read_sidecar

    def checked(source, errors_out):
        tee = source if isinstance(source, str) else Tee(source)
        collect = errors_out is not None
        errors: list[ParseError] = []
        try:
            result = read(tee, errors if collect else None)
            got = sidecar_facts(result, errors)
        except ParseError as err:
            result, got = err, ("raised", type(err), err.line_no, str(err))
        assert got == row_sidecar_outcome(read_text(source, tee), collect)
        if isinstance(result, ParseError):
            raise result
        if collect:
            errors_out.extend(errors)
        return result

    monkeypatch.setattr(semantic, "_read_sidecar", checked)


def association_outcome(associate, args):
    """Every frame one association pass yields, up to its error if any."""
    frames = []
    try:
        frames.extend(associate(*args))
    except Exception as err:  # compared, then re-raised by the caller
        return frames, err
    return frames, None


def frame_facts(frame, sidecar):
    """One associated frame in a form that tells -0.0 from 0.0, 1 from 1.0
    and an int64 column from a float64 one; with the record of ``sidecar``
    each row's sidecar row names, and whether the frame's ``semantics`` is
    the sidecar's column."""
    frame_index, now, cols = frame
    arrays = (
        cols.track_id,
        cols.created,
        cols.conf,
        cols.area,
        cols.cost_bits,
        cols.class_id,
        cols.video_change,
        cols.records,
    )
    records = [sidecar.record(row) if row >= 0 else None for row in cols.records.tolist()]
    return (
        frame_index,
        repr(now),
        repr(tuple(cols.bboxes)),
        repr(records),
        cols.semantics is (None if sidecar is None else sidecar.semantics),
        [(str(a.dtype), repr(a.tolist())) for a in arrays],
    )


@pytest.fixture(autouse=True)
def cross_check_association(monkeypatch):
    """Every association pass in the suite is checked against the
    dict-based oracle in ``helpers``: the same frames, columns and boxes,
    or the same error after the same frames."""
    columnar = engine.associate

    def checked(*args):
        expected, expected_err = association_outcome(ref_associate, args)
        got, err = association_outcome(columnar, args)
        sidecar = args[1]
        facts = [frame_facts(frame, sidecar) for frame in got]
        assert facts == [frame_facts(frame, sidecar) for frame in expected]
        assert (type(err), str(err)) == (type(expected_err), str(expected_err))
        yield from got
        if err is not None:
            raise err

    monkeypatch.setattr(engine, "associate", checked)


def schedule_outcome(log, err):
    """What one scheduling pass gives: the log, in forms that tell -0.0
    from 0.0, 1 from 1.0 and a NumPy scalar from a float, or the error."""
    if err is not None:
        return (type(err), str(err))
    return (repr(log), "\n".join(to_jsonl_lines(log)))


def collected(parts):
    """The ``RunLog`` of a copy of ``parts``, whose header is left as it is."""
    header, *blocks = parts
    return collect(iter([replace(header, transmissions=[], class_events=[]), *blocks]))


@pytest.fixture(autouse=True)
def cross_check_scheduling(monkeypatch):
    """Every scheduling pass in the suite is checked against the scalar
    oracle in ``helpers``: the same run log, or the same error. Frames are
    replayed to both passes up to any error the association pass raised.
    The pass runs whole before its first part is given; then its parts are
    given, up to the error it raised, which is raised after them."""
    columnar = engine._schedule

    def checked(frames, span, cfg):
        seen, failure = [], None
        try:
            for frame in frames:
                seen.append(frame)
        except Exception as err:
            failure = err

        def replay():
            yield from seen
            if failure is not None:
                raise failure

        try:
            expected, err = scalar_schedule(replay(), span, cfg), None
        except Exception as error:  # compared, then re-raised below
            expected, err = None, error
        parts, got_err = [], None
        try:
            parts.extend(columnar(replay(), span, cfg))
        except Exception as error:
            got_err = error
        got = None if got_err is not None else collected(parts)
        assert schedule_outcome(got, got_err) == schedule_outcome(expected, err)
        yield from parts
        if got_err is not None:
            raise got_err

    monkeypatch.setattr(engine, "_schedule", checked)


def tx_rows(cols):
    """The tx records of a block of parts' columns, their boxes built."""
    return map(TransmissionRecord, *cols[:3], starmap(BBox, cols[3]), *cols[4:])


@pytest.fixture(autouse=True)
def cross_check_runlog_writes(monkeypatch):
    """Every record the suite writes, from a run's parts or a library log,
    is checked against ``json.dumps`` with sorted keys; the header is
    written by ``json.dumps`` itself."""
    tx_lines, class_lines = runlog.tx_lines, runlog.class_lines

    def checked_tx(cols):
        lines = list(tx_lines(cols))
        for tx, line in zip(tx_rows(cols), lines, strict=True):
            assert line == json.dumps(tx_obj(tx), sort_keys=True)
        return iter(lines)

    def checked_class(cols):
        lines = list(class_lines(cols))
        for ev, line in zip(map(runlog.ClassEvent, *cols), lines, strict=True):
            assert line == json.dumps(class_obj(ev), sort_keys=True)
        return iter(lines)

    monkeypatch.setattr(runlog, "tx_lines", checked_tx)
    monkeypatch.setattr(runlog, "class_lines", checked_class)


@pytest.fixture(autouse=True)
def cross_check_cli_logs(monkeypatch):
    """Every run log the CLI writes in the suite is checked against the
    library run of the same inputs and config: once the command succeeds,
    each log file must hold ``to_jsonl_lines`` of ``runlog.collect`` of the
    parts it was written from, which is what ``engine.run`` gives, and its
    report must be ``metrics.aggregate_run`` of that log."""
    write_log = cli._write_log
    expected = {}  # each log's path -> the library log's text

    def checked_write(stage, path, parts):
        kept = []

        def teed():
            for part in parts:
                kept.append(part)
                yield part

        log, rep = write_log(stage, path, teed())
        library = collected(kept)
        assert metrics.aggregate_run(library) == rep
        expected[path] = "".join(line + "\n" for line in to_jsonl_lines(library))
        return log, rep

    def checked_command(command):
        def checked(args):
            expected.clear()
            rc = command(args)
            for path, text in expected.items():
                assert path.read_text() == text
            return rc

        return checked

    monkeypatch.setattr(cli, "_write_log", checked_write)
    for name in ("cmd_simulate", "cmd_sweep"):
        monkeypatch.setattr(cli, name, checked_command(getattr(cli, name)))


@pytest.fixture(autouse=True)
def cross_check_runlog_reads(monkeypatch):
    """Every run-log read in the suite, by ``read_jsonl`` or by a fold, is
    checked against the line reader on the whole text: the same log, or the
    same ParseError. No block of a log the writer wrote may go to the line
    reader: ``_block_records`` must take each, so that only the header line
    takes the line path. The fixture holds its own references, so a test may
    patch the module's. It reads every block before it gives any: the
    header, then each block's columns and events, built once."""
    read_blocks, lines = runlog._read_blocks, runlog._read_lines

    def checked(blocks):
        blocks = list(blocks)
        text = "".join(block for _, block, _ in blocks)
        expected = read_outcome(lines, text)
        failure = None
        with monkeypatch.context() as patch:
            verdicts = block_verdicts(patch, runlog, "_block_records")
            parts = read_blocks(blocks)
            try:
                header = next(parts)
                records = [tuple([list(col) for col in cols] for cols in part) for part in parts]
                log = collected([header, *records])
                got = ("read", repr(log))
            except ParseError as err:
                failure, got = err, ("raised", err.line_no, str(err))
        assert got == expected
        if failure is not None:
            raise failure
        if False in verdicts:
            written = "\n".join(json_lines(log))
            assert text not in (written, written + "\n"), "a clean block took the line path"
        yield header
        yield from records

    monkeypatch.setattr(runlog, "_read_blocks", checked)


@pytest.fixture(autouse=True)
def cross_check_folds(monkeypatch):
    """Every fold in the suite is checked against
    ``aggregate_run(read_jsonl(text))`` on the whole text: the same header
    and report, or the same error and line number. A file is folded once,
    through a ``Tee``."""
    fold = metrics.fold_jsonl

    def checked(source):
        tee = source if isinstance(source, str) else Tee(source)
        result = fold_result(fold, tee)
        expected = fold_result(read_and_aggregate, read_text(source, tee))
        assert fold_facts(result) == fold_facts(expected)
        if isinstance(result, RoitelError):
            raise result
        return result

    monkeypatch.setattr(metrics, "fold_jsonl", checked)
