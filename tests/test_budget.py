import math
import random
from collections import deque

import pytest
from hypothesis import example, given, settings, strategies as st

from roitel import (
    BudgetLedger,
    BudgetViolation,
    CostModel,
    InvalidParam,
    budget,
    estimate_cost,
)
from helpers import RefLedger, compensated_sum


def test_cost_unpadded_formula():
    # 100x100, no pad, no header: 0.55 bits/px * 10000 px
    model = CostModel(header_bytes=0, bits_per_pixel=0.55, pad_ratio=0.0)
    assert estimate_cost(100, 100, model) == pytest.approx(5500.0)


def test_cost_resize_override():
    model = CostModel(header_bytes=400, bits_per_pixel=0.55, resize_edge=128.0)
    bits = estimate_cost(3, 3, model)
    assert bits == pytest.approx(3200 + 0.55 * 16384)
    # ~1.5 KB per resized crop
    assert 1400 < bits / 8 < 1600


def test_cost_pad_ratio_scales_area():
    base = CostModel(header_bytes=0, bits_per_pixel=1.0, pad_ratio=0.0)
    padded = CostModel(header_bytes=0, bits_per_pixel=1.0, pad_ratio=0.5)
    assert estimate_cost(10, 20, padded) == pytest.approx(4.0 * estimate_cost(10, 20, base))


def test_cost_model_validation():
    with pytest.raises(InvalidParam):
        CostModel(bits_per_pixel=0.0)
    with pytest.raises(InvalidParam):
        CostModel(header_bytes=-1)
    with pytest.raises(InvalidParam):
        CostModel(pad_ratio=-0.1)
    with pytest.raises(InvalidParam):
        CostModel(resize_edge=0.0)
    with pytest.raises(InvalidParam, match=r"header_bytes must be in \[0, max float\]"):
        CostModel(header_bytes=10**309)


@pytest.mark.parametrize("builtin_sum", [sum, compensated_sum], ids=["sum", "sum_3_12"])
def test_window_sum_adds_in_commit_order_on_every_python(monkeypatch, builtin_sum):
    # from Python 3.12 on the builtin sum compensates rounding, while
    # decide adds one by one; the ledger must add as decide does
    monkeypatch.setattr(budget, "sum", builtin_sum, raising=False)
    ledger = BudgetLedger(b_roi=1e20, window_s=2.0)
    for bits in (1e16, 1.0, 1.0):
        ledger.commit(0.0, bits)
    assert repr(ledger.window_sum(0.0)) == repr((1e16 + 1.0) + 1.0) == "1e+16"
    assert repr(ledger.window_sum(10.0)) == "0"


def test_admits_arithmetic():
    # 150 kbps over a 2 s window: cap is 300000 bits
    ledger = BudgetLedger(b_roi=150000.0, window_s=2.0)
    assert ledger.cap_bits == 300000.0
    assert ledger.admits(0.0, 60000.0)
    ledger.commit(0.0, 250000.0)
    assert not ledger.admits(0.5, 60000.0)
    # inclusive at exactly the cap
    assert ledger.admits(0.5, 50000.0)


def test_window_is_half_open_on_the_left():
    ledger = BudgetLedger(b_roi=100.0, window_s=2.0)
    ledger.commit(0.0, 200.0)
    # the entry at t=0 sits exactly at now - window for now=2.0: excluded
    assert ledger.window_sum(2.0) == 0.0
    assert ledger.window_sum(1.999) == 200.0
    assert ledger.admits(2.0, 200.0)


def test_commit_expires_old_entries():
    ledger = BudgetLedger(b_roi=100.0, window_s=2.0)
    ledger.commit(0.0, 150.0)
    assert ledger.window_sum(3.0) == 0.0
    ledger.commit(3.0, 150.0)
    assert ledger.window_sum(3.0) == 150.0
    # the entry at t=0 never counts again, however long the run
    assert ledger.window_sum(4.5) == 150.0
    assert ledger.window_sum(5.0) == 0.0


def test_commit_rechecks_admission():
    ledger = BudgetLedger(b_roi=100.0, window_s=1.0)
    ledger.commit(0.0, 100.0)
    with pytest.raises(BudgetViolation):
        ledger.commit(0.5, 1.0)


def test_commit_rejects_time_reversal():
    ledger = BudgetLedger(b_roi=100.0, window_s=1.0)
    ledger.commit(5.0, 10.0)
    with pytest.raises(InvalidParam):
        ledger.commit(4.0, 10.0)


def test_bits_must_be_positive():
    ledger = BudgetLedger(b_roi=100.0, window_s=1.0)
    with pytest.raises(InvalidParam):
        ledger.admits(0.0, 0.0)
    with pytest.raises(InvalidParam):
        ledger.commit(0.0, -5.0)


def test_zero_allocation_admits_nothing():
    ledger = BudgetLedger(b_roi=0.0, window_s=2.0)
    assert not ledger.admits(0.0, 1.0)


def test_view_matches_ledger_admits():
    rng = random.Random(17)
    ledger = BudgetLedger(b_roi=5000.0, window_s=2.0)
    now = 0.0
    for _ in range(300):
        now += rng.uniform(0.0, 0.4)
        bits = float(rng.randint(1, 4000))
        view = ledger.view(now)
        # the expression policy.decide uses
        assert (view.window_sum_bits + bits <= view.cap_bits) == ledger.admits(now, bits)
        if ledger.admits(now, bits):
            ledger.commit(now, bits)


def test_pruning_never_changes_admits():
    # oracle: an unpruned shadow history must answer admits identically
    rng = random.Random(23)
    for trial in range(40):
        window = rng.uniform(0.5, 3.0)
        cap = rng.randint(1000, 50000)
        ledger = BudgetLedger(b_roi=cap / window, window_s=window)
        history: list[tuple[float, int]] = []
        now = 0.0
        for _ in range(120):
            now += rng.uniform(0.0, window / 3)
            bits = rng.randint(1, cap // 2 + 1)
            lo = now - window
            shadow_sum = sum(b for t, b in history if lo < t <= now)
            shadow_admits = shadow_sum + bits <= ledger.cap_bits
            assert ledger.admits(now, bits) == shadow_admits, trial
            if shadow_admits:
                ledger.commit(now, bits)
                history.append((now, bits))


class GeneratorLedger:
    """The ledger as it was: a deque pruned at commit, and a filter over
    every entry for each window sum. ``history`` keeps every entry."""

    def __init__(self, window_s):
        self.window_s = window_s
        self.entries = deque()
        self.history = []

    def window_sum(self, now_s, entries=None):
        lo = now_s - self.window_s
        entries = self.entries if entries is None else entries
        return sum(bits for ts, bits in entries if lo < ts <= now_s)

    def commit(self, now_s, bits):
        lo = now_s - self.window_s
        while self.entries and self.entries[0][0] <= lo:
            self.entries.popleft()
        self.entries.append((now_s, bits))
        self.history.append((now_s, bits))


#: Times on a quarter-second grid, so entries land exactly on window edges.
grid_time = st.integers(0, 40).map(lambda k: k / 4)


@given(
    window_s=st.sampled_from([0.25, 0.5, 1.0, 2.0, 0.3]),
    steps=st.lists(
        st.tuples(
            grid_time,
            st.floats(0.1, 1e6, allow_nan=False),
            st.lists(grid_time, max_size=3),
        ),
        max_size=40,
    ),
)
def test_window_sum_matches_the_generator_it_replaced(window_s, steps):
    # each step commits at a time no earlier than the last one, then asks
    # for window sums at arbitrary times, earlier ones included. The ledger
    # keeps every entry, so it answers for any time as a filter over the
    # whole history does; from the last commit on, which is where a run
    # asks, that is what the pruned generator answered too.
    ledger = BudgetLedger(b_roi=1e12, window_s=window_s)
    model = GeneratorLedger(window_s)
    now = 0.0
    for advance, bits, queries in steps:
        now += advance / 8
        ledger.commit(now, bits)
        model.commit(now, bits)
        for t in [now, now - window_s, now + window_s, *queries]:
            got = repr(ledger.window_sum(t))
            assert got == repr(model.window_sum(t, model.history)), t
            if t >= now:
                assert got == repr(model.window_sum(t)), t


#: Bits whose sums round differently in another order.
rounding_bits = st.one_of(
    st.sampled_from([0.1, 0.2, 0.3, 1 / 3, 1.0, 1e16]),
    st.floats(1e-3, 1e17, allow_nan=False),
)


@settings(derandomize=True, max_examples=300)
@given(
    window_s=st.sampled_from([0.25, 0.5, 1.0, 2.0, 0.3]),
    cap=st.sampled_from([math.inf, 4.0, 1e16]),
    ops=st.lists(
        st.one_of(
            # commit after 0 to 4 quarter seconds: equal timestamps included
            st.tuples(st.just("commit"), st.integers(0, 4), rounding_bits),
            # ask at any grid time: back in time, or past every entry
            st.tuples(st.just("query"), grid_time, st.none()),
        ),
        max_size=60,
    ),
)
@example(
    window_s=1.0,
    cap=math.inf,
    ops=[
        ("query", 0.0, None),  # an empty ledger
        ("commit", 0, 0.1),
        ("commit", 0, 0.2),  # an equal timestamp
        ("commit", 2, 0.3),
        ("query", 0.75, None),
        ("query", 0.25, None),  # back in time: the window ends earlier
        ("query", 1.0, None),  # the entries at 0 are exactly window_s old
        ("query", 1.25, None),
        ("query", 1.5, None),  # the window has slid past every entry
        ("commit", 4, 1e16),
        ("commit", 0, 1.0),
        ("query", 1.5, None),
        ("query", 0.5, None),
    ],
)
def test_kept_window_sum_matches_the_from_scratch_sum(window_s, cap, ops):
    # the ledger continues its last window sum where it can; the reference
    # adds every window from its start. Both add in commit order, so every
    # answer, and every admission, is the same to the last bit
    ledger = BudgetLedger(b_roi=cap / window_s, window_s=window_s)
    ref = RefLedger(b_roi=cap / window_s, window_s=window_s)
    now = 0.0
    for op, arg, bits in ops:
        if op == "commit":
            now += arg / 4
            admitted = ref.admits(now, bits)
            assert ledger.admits(now, bits) == admitted
            if admitted:
                ledger.commit(now, bits)
                ref.commit(now, bits)
            times = [now]
        else:
            times = [arg, arg - window_s, arg + window_s]
        for t in times:
            assert repr(ledger.window_sum(t)) == repr(ref.window_sum(t)), (op, t)
            assert ledger.view(t) == ref.view(t)


def test_an_empty_window_sums_to_int_zero():
    ledger = BudgetLedger(b_roi=100.0, window_s=1.0)
    assert repr(ledger.window_sum(0.0)) == "0"
    ledger.commit(0.0, 0.5)
    ledger.commit(0.5, 0.25)
    assert repr(ledger.window_sum(0.5)) == "0.75"
    # the window has slid past both entries, then steps back onto them
    assert repr(ledger.window_sum(1.5)) == "0"
    assert repr(ledger.window_sum(0.75)) == "0.75"
    assert repr(ledger.window_sum(1.0)) == "0.25"
    assert repr(ledger.window_sum(-1.0)) == "0"
