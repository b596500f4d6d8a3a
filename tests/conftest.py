import json
from functools import partial

import pytest
from hypothesis import settings

from roitel import ParseError, engine, ingest, runlog
from roitel.runlog import to_jsonl_lines
from helpers import (
    block_verdicts,
    class_obj,
    json_lines,
    parse_rows,
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
        if isinstance(source, str):
            text = source
        else:
            text = "".join(tee.copy) + "".join(iter(partial(source.read, 1 << 16), ""))
        collect = errors_out is not None
        assert got == parse_outcome(lambda t, e: parse_rows(t, layout, e), text, collect)
        if isinstance(result, ParseError):
            raise result
        if collect:
            errors_out.extend(errors)
        return result

    monkeypatch.setattr(ingest, "_parse_detections", checked)


def association_outcome(associate, args):
    """Every frame one association pass yields, up to its error if any."""
    frames = []
    try:
        frames.extend(associate(*args))
    except Exception as err:  # compared, then re-raised by the caller
        return frames, err
    return frames, None


def frame_facts(frame):
    """One associated frame in a form that tells -0.0 from 0.0, 1 from 1.0
    and an int64 column from a float64 one."""
    frame_index, now, cols = frame
    arrays = (cols.track_id, cols.created, cols.conf, cols.area, cols.cost_bits, cols.class_id)
    return (
        frame_index,
        repr(now),
        repr(tuple(cols.bboxes)),
        repr(cols.records),
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
        assert list(map(frame_facts, got)) == list(map(frame_facts, expected))
        assert (type(err), str(err)) == (type(expected_err), str(expected_err))
        yield from got
        if err is not None:
            raise err

    monkeypatch.setattr(engine, "associate", checked)


def schedule_outcome(schedule, frames, stream, cfg):
    """What one scheduling pass gives: the log, in forms that tell -0.0
    from 0.0, 1 from 1.0 and a NumPy scalar from a float, or the error."""
    try:
        log = schedule(frames(), stream, cfg)
    except Exception as err:  # compared, then re-raised by the caller
        return (type(err), str(err)), err
    return (repr(log), "\n".join(to_jsonl_lines(log))), log


@pytest.fixture(autouse=True)
def cross_check_scheduling(monkeypatch):
    """Every scheduling pass in the suite is checked against the scalar
    oracle in ``helpers``: the same run log, or the same error. Frames are
    replayed to both passes up to any error the association pass raised."""
    columnar = engine._schedule

    def checked(frames, stream, cfg):
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

        expected, _ = schedule_outcome(scalar_schedule, replay, stream, cfg)
        got, result = schedule_outcome(columnar, replay, stream, cfg)
        assert got == expected
        if isinstance(result, Exception):
            raise result
        return result

    monkeypatch.setattr(engine, "_schedule", checked)


@pytest.fixture(autouse=True)
def cross_check_runlog_writes(monkeypatch):
    """Every record the suite writes is checked against ``json.dumps`` with
    sorted keys; the header is written by ``json.dumps`` itself."""
    tx_line, class_line = runlog._tx_line, runlog._class_line

    def checked_tx(tx):
        line = tx_line(tx)
        assert line == json.dumps(tx_obj(tx), sort_keys=True)
        return line

    def checked_class(ev):
        line = class_line(ev)
        assert line == json.dumps(class_obj(ev), sort_keys=True)
        return line

    monkeypatch.setattr(runlog, "_tx_line", checked_tx)
    monkeypatch.setattr(runlog, "_class_line", checked_class)


@pytest.fixture(autouse=True)
def cross_check_runlog_reads(monkeypatch):
    """Every run-log read in the suite is checked against the line reader
    on the whole text: the same log, or the same ParseError. No block of a
    log the writer wrote may go to the line reader: ``_block_records`` must
    take each, so that only the header line takes the line path. The
    fixture holds its own references, so a test may patch the module's."""
    read_blocks, lines = runlog._read_blocks, runlog._read_lines

    def checked(blocks):
        blocks = list(blocks)
        text = "".join(block for _, block, _ in blocks)
        expected = read_outcome(lines, text)
        with monkeypatch.context() as patch:
            verdicts = block_verdicts(patch, runlog, "_block_records")
            try:
                result = read_blocks(blocks)
                got = ("read", repr(result))
            except ParseError as err:
                result, got = err, ("raised", err.line_no, str(err))
        assert got == expected
        if isinstance(result, ParseError):
            raise result
        if False in verdicts:
            written = "\n".join(json_lines(result))
            assert text not in (written, written + "\n"), "a clean block took the line path"
        return result

    monkeypatch.setattr(runlog, "_read_blocks", checked)
