"""Exception types shared across the package."""


class RoitelError(Exception):
    """Base class for all roitel errors."""


class InvalidParam(RoitelError):
    """A value violates a documented precondition or type invariant."""


class ConfigError(RoitelError):
    """A run or policy configuration is incomplete or inconsistent."""


class BudgetConfigError(ConfigError):
    """The bitrate split violates b_video + b_roi <= b_total."""


class ParseError(RoitelError):
    """An input file line could not be parsed.

    Carries the 1-based line number so diagnostics can point at the file.
    """

    def __init__(self, line_no: int, reason: str):
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"line {line_no}: {reason}")


class DuplicateKey(ParseError):
    """Two sidecar records share the same (frame, track) key.

    ``line_no`` is the later record's line, or its 1-based position in a
    record list that did not come from a file.
    """

    def __init__(self, line_no: int, frame_index: int, track_id: int):
        self.frame_index = frame_index
        self.track_id = track_id
        super().__init__(
            line_no, f"duplicate sidecar key (frame={frame_index}, track={track_id})"
        )


class OutOfOrderFrame(RoitelError):
    """Tracker stepped with a frame index that does not increase."""


class BudgetViolation(RoitelError):
    """A commit was attempted that the ledger does not admit."""


class DuplicateLabel(RoitelError):
    """Two report rows share the same label."""
