import pytest
from hypothesis import settings

from roitel import ParseError, engine, ingest
from roitel.runlog import to_jsonl_lines
from helpers import scalar_schedule

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
