"""ROI transmission cost estimation and rolling-window bitrate accounting.

The ledger enforces that ROI bits inside any trailing window of length
``window_s`` never exceed ``b_roi * window_s``. Admission is inclusive at
exactly the cap, and the window is half-open: an entry stops counting the
instant it is exactly ``window_s`` old. ``CostModel`` lives in ``domain``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import reduce
from operator import add

from .domain import CostModel
from .errors import BudgetViolation, InvalidParam


def estimate_cost(w, h, model: CostModel):
    """Estimated transmission cost in bits of an ROI crop of a ``w`` by
    ``h`` box; always > 0. The same expression serves floats and NumPy
    arrays; with ``resize_edge`` set, the cost is one number whatever the
    boxes."""
    if model.resize_edge is not None:
        area = model.resize_edge * model.resize_edge
    else:
        scale = 1.0 + 2.0 * model.pad_ratio
        area = (w * scale) * (h * scale)
    return model.header_bytes * 8.0 + model.bits_per_pixel * area


@dataclass(frozen=True)
class LedgerView:
    """Read-only admissibility snapshot handed to policy decisions.

    Carries the window sum rather than a precomputed headroom so that
    ``window_sum + bits <= cap`` is evaluated with exactly the same
    floating-point expression the ledger itself uses.
    """

    window_sum_bits: float
    cap_bits: float


class BudgetLedger:
    """Time-ordered account of committed ROI bits over a rolling window.

    Commit times and bits are kept for the whole run in two parallel lists
    in commit order, which is time order, so a window is one contiguous
    slice found by bisection.
    """

    def __init__(self, b_roi: float, window_s: float):
        if b_roi < 0:
            raise InvalidParam(f"b_roi must be >= 0, got {b_roi}")
        if not window_s > 0:
            raise InvalidParam(f"window_s must be > 0, got {window_s}")
        self.b_roi = b_roi
        self.window_s = window_s
        self._ts: list[float] = []
        self._bits: list[float] = []
        # (lo, hi, sum of _bits[lo:hi]) of the last window_sum call
        self._last: tuple[int, int, float] = (0, 0, 0)

    @property
    def cap_bits(self) -> float:
        return self.b_roi * self.window_s

    def window_sum(self, now_s: float) -> float:
        """Bits with timestamp in the half-open window (now - window_s, now].

        Adds the entries in commit order, one by one as ``policy.decide``
        does; the builtin ``sum`` compensates rounding from Python 3.12 on.
        A window that starts where the last one did and ends no earlier
        continues the last sum, which is the same additions in the same
        order; any other window is added from its start.
        """
        lo = bisect_right(self._ts, now_s - self.window_s)
        hi = bisect_right(self._ts, now_s, lo)
        last_lo, last_hi, total = self._last
        if lo != last_lo or hi < last_hi:
            total = reduce(add, self._bits[lo:hi], 0)
        elif hi > last_hi:
            total = reduce(add, self._bits[last_hi:hi], total)
        self._last = (lo, hi, total)
        return total

    def admits(self, now_s: float, bits: float) -> bool:
        """True iff committing ``bits`` at ``now_s`` keeps the window under cap.

        Pure query: no state change. Inclusive at exactly the cap.
        """
        if not bits > 0:
            raise InvalidParam(f"bits must be > 0, got {bits}")
        return self.window_sum(now_s) + bits <= self.cap_bits

    def view(self, now_s: float) -> LedgerView:
        return LedgerView(window_sum_bits=self.window_sum(now_s), cap_bits=self.cap_bits)

    def commit(self, now_s: float, bits: float) -> None:
        """Record a transmission.

        Raises BudgetViolation, and records nothing, where ``admits``
        refuses it: the engine's one admission check of each sent row.
        """
        if not self.admits(now_s, bits):
            raise BudgetViolation(
                f"commit of {bits} bits at t={now_s} exceeds cap {self.cap_bits}"
            )
        if self._ts and now_s < self._ts[-1]:
            raise InvalidParam(f"commit time {now_s} precedes last entry {self._ts[-1]}")
        self._ts.append(now_s)
        self._bits.append(bits)
