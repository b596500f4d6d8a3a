import json

import pytest
from hypothesis import settings

from roitel import ParseError, engine, ingest, runlog
from roitel.runlog import to_jsonl_lines
from helpers import class_obj, json_lines, read_outcome, scalar_schedule, tx_obj

# Property tests must behave identically run to run.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


def parse_outcome(parse, text, collect):
    """What one detection parse gives, in a form that tells -0.0 from 0.0
    and 1 from 1.0: the stream and the collected errors, or the error."""
    errors: list[ParseError] = []
    try:
        stream = parse(text, errors if collect else None)
    except ParseError as err:
        return ("raised", err.line_no, str(err))
    return (
        stream.clock,
        stream.frame_indices,
        stream.n_detections,
        repr(stream.frames),
        [(e.line_no, str(e)) for e in errors],
    )


@pytest.fixture(autouse=True)
def cross_check_detection_parses(monkeypatch):
    """Every detection parse in the suite is checked against the row parser:
    the same stream, the same collected errors, or the same ParseError."""
    public = ingest._parse_detections

    def checked(text, layout, clock, errors_out):
        collect = errors_out is not None
        expected = parse_outcome(
            lambda t, e: ingest._parse_rows(t, layout, clock, e), text, collect
        )
        got = parse_outcome(lambda t, e: public(t, layout, clock, e), text, collect)
        assert got == expected
        return public(text, layout, clock, errors_out)

    monkeypatch.setattr(ingest, "_parse_detections", checked)


def schedule_outcome(schedule, frames, stream, cfg, config_echo):
    """What one scheduling pass gives: the log, in forms that tell -0.0
    from 0.0, 1 from 1.0 and a NumPy scalar from a float, or the error."""
    try:
        log = schedule(frames(), stream, cfg, config_echo)
    except Exception as err:  # compared, then re-raised by the caller
        return (type(err), str(err)), err
    return (repr(log), "\n".join(to_jsonl_lines(log))), log


@pytest.fixture(autouse=True)
def cross_check_scheduling(monkeypatch):
    """Every scheduling pass in the suite is checked against the scalar
    oracle in ``helpers``: the same run log, or the same error. Frames are
    replayed to both passes up to any error the association pass raised."""
    columnar = engine._schedule

    def checked(frames, stream, cfg, config_echo):
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

        expected, _ = schedule_outcome(scalar_schedule, replay, stream, cfg, config_echo)
        got, result = schedule_outcome(columnar, replay, stream, cfg, config_echo)
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
    """Every run-log read in the suite is checked against the line reader:
    a log the one-pass reader gives must be the line reader's, and the
    one-pass reader must not fall back on a log the writer wrote (the line
    reader's error or log is then the outcome by construction)."""
    one_pass = runlog._read_one_pass

    def checked(text):
        log = one_pass(text)
        expected = read_outcome(runlog._read_lines, text)
        if log is not None:
            assert ("read", repr(log)) == expected
        elif expected[0] == "read":
            written = "\n".join(json_lines(runlog._read_lines(text)))
            assert text not in (written, written + "\n"), "one pass fell back on a clean log"
        return log

    monkeypatch.setattr(runlog, "_read_one_pass", checked)
