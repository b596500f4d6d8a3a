import pytest
from hypothesis import settings

from roitel import ParseError, ingest

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
