import random

import pytest
from hypothesis import given, settings, strategies as st

from roitel import InvalidParam, OutOfOrderFrame, Tracker, TrackerConfig
from helpers import RefTracker, greedy_match, mk_det


def test_cold_start_spawns_in_list_order():
    tr = Tracker()
    out = tr.step(0, [mk_det(0, x=0), mk_det(0, x=100)])
    assert [(tid, is_new) for _, tid, is_new in out] == [(0, True), (1, True)]


def test_static_object_keeps_one_id():
    tr = Tracker(TrackerConfig(iou_min=0.3))
    ids = []
    news = []
    for f in (0, 5, 10):
        out = tr.step(f, [mk_det(f, x=50, y=50)])
        ids.append(out[0][1])
        news.append(out[0][2])
    assert ids == [0, 0, 0]
    assert news == [True, False, False]


def test_greedy_is_mandated_over_optimal_assignment():
    # cross IoUs: (t0,d0)=0.6, (t0,d1)=0.5, (t1,d0)=0.55, (t1,d1)=0.1
    # greedy takes (t0,d0) and then (t1,d1) fails the threshold, so only one
    # pair matches.  The maximum-IoU-sum assignment would instead pick
    # (t0,d1),(t1,d0) with sum 1.05 > 0.7 -- the tracker must not do that.
    import numpy as np

    m = np.array([[0.6, 0.5], [0.55, 0.1]])
    assert greedy_match(m, 0.3) == [(0, 0)]


def test_track_retires_after_max_misses():
    # two consecutive misses: the track lives on and takes the box back
    tr = Tracker(TrackerConfig(max_misses=2))
    tr.step(0, [mk_det(0, x=0)])
    tr.step(1, [])
    tr.step(2, [])
    assert list(tr.step(3, [mk_det(3, x=0)])) == [(mk_det(3, x=0), 0, False)]
    # third consecutive miss: retired, so a reappearing box spawns a fresh
    # id, never id 0 again
    tr = Tracker(TrackerConfig(max_misses=2))
    tr.step(0, [mk_det(0, x=0)])
    tr.step(1, [])
    tr.step(2, [])
    tr.step(3, [])
    out = tr.step(4, [mk_det(4, x=0)])
    assert out[0][1] == 1
    assert out[0][2] is True


def test_out_of_order_frame_rejected():
    tr = Tracker()
    tr.step(5, [])
    with pytest.raises(OutOfOrderFrame):
        tr.step(5, [])
    with pytest.raises(OutOfOrderFrame):
        tr.step(4, [])


@pytest.mark.parametrize(
    "det,message",
    [
        (
            mk_det(0, x=1e308, w=1e308),
            "box edge beyond the float range: x=1e+308 y=0.0 w=1e+308 h=10.0",
        ),
        (mk_det(0, w=1e200, h=1e200), "box area beyond the float range: w=1e+200 h=1e+200"),
        (mk_det(0, cls=2**63), "class_id outside int64: 9223372036854775808"),
        (mk_det(0, cls=1.0), "class_id must be an int, got 1.0"),
    ],
    ids=["edge", "area", "class_2_63", "class_float"],
)
def test_a_list_step_refuses_what_a_stream_refuses(det, message):
    tr = Tracker()
    with pytest.raises(InvalidParam) as exc:
        tr.step(0, [mk_det(0, x=50), det])
    assert str(exc.value) == message


def test_hint_association_bypasses_iou():
    tr = Tracker(TrackerConfig(use_hints=True))
    tr.step(0, [mk_det(0, x=0, hint=7), mk_det(0, x=100, hint=9)])
    # same hints, boxes teleported far away: hints keep identities
    out = tr.step(5, [mk_det(5, x=500, hint=9), mk_det(5, x=900, hint=7)])
    by_hint = {det.track_hint: tid for det, tid, _ in out}
    assert by_hint == {9: 1, 7: 0}
    assert all(not is_new for _, _, is_new in out)


def test_hint_bijection_property():
    # consistent hints: track ids are a stable relabeling of hint ids
    rng = random.Random(5)
    tr = Tracker(TrackerConfig(use_hints=True, max_misses=50))
    mapping = {}
    for f in range(0, 60, 5):
        dets = [
            mk_det(f, x=hint * 50 + rng.uniform(-2, 2), hint=hint)
            for hint in (3, 8, 11)
        ]
        for det, tid, _ in tr.step(f, dets):
            if det.track_hint in mapping:
                assert mapping[det.track_hint] == tid
            else:
                mapping[det.track_hint] = tid
    assert len(set(mapping.values())) == len(mapping)


@pytest.mark.parametrize("hint", [7, 2**63 - 1, 2**63, 10**30])
def test_a_retired_hinted_track_leaves_its_hint_to_a_new_id(hint):
    # hint 3 keeps its track live beside the one of ``hint``, which misses
    # two steps and retires; its hint's next detection spawns a new id
    cfg = TrackerConfig(use_hints=True, max_misses=1)
    steps = [
        (0, [mk_det(0, x=0, hint=hint), mk_det(0, x=100, hint=3)]),
        (5, [mk_det(5, x=100, hint=3)]),
        (10, [mk_det(10, x=500, hint=hint), mk_det(10, x=100, hint=3)]),
        (15, [mk_det(15, x=100, hint=3)]),
        (20, [mk_det(20, x=100, hint=3)]),
        (25, [mk_det(25, x=500, hint=hint), mk_det(25, x=100, hint=3)]),
    ]
    tr, ref = Tracker(cfg), RefTracker(cfg)
    got = [[(tid, new) for _, tid, new in tr.step(f, dets)] for f, dets in steps]
    assert got == [
        [(0, True), (1, True)],
        [(1, False)],
        [(0, False), (1, False)],  # one miss: still live, and far from its box
        [(1, False)],
        [(1, False)],
        [(2, True), (1, False)],  # two misses: retired with its hint
    ]
    assert got == [[(tid, new) for _, tid, new in ref.step(f, dets)] for f, dets in steps]


def test_ids_never_reused_random_runs():
    max_misses = 1
    rng = random.Random(41)
    for _ in range(30):
        tr = Tracker(TrackerConfig(iou_min=0.3, max_misses=max_misses))
        last_seen: dict[int, int] = {}  # track id -> step it was last returned on
        for step, f in enumerate(range(0, 100, 5)):
            n = rng.randint(0, 5)
            dets = [
                mk_det(f, x=rng.uniform(0, 300), y=rng.uniform(0, 300), w=20, h=20)
                for _ in range(n)
            ]
            for _, tid, is_new in tr.step(f, dets):
                if is_new:
                    assert tid not in last_seen
                else:
                    # a track unmatched for more than max_misses steps is
                    # retired and never returns
                    assert step - last_seen[tid] <= max_misses + 1
                last_seen[tid] = step


def test_assignment_count_bound():
    tr = Tracker()
    tr.step(0, [mk_det(0, x=0), mk_det(0, x=30)])
    out = tr.step(5, [mk_det(5, x=0), mk_det(5, x=30), mk_det(5, x=60)])
    matched = [tid for _, tid, is_new in out if not is_new]
    assert len(matched) <= 2


# coarse grids, so boxes repeat and overlap, and IoUs tie
corner = st.sampled_from([0, 5, 10, 20, 40])
extent = st.sampled_from([5, 10, 20])
hint = st.one_of(st.none(), st.integers(0, 3))
frame_rows = st.one_of(
    st.just([]),  # retires every track under max_misses=0
    st.lists(st.tuples(corner, corner, extent, extent, hint), min_size=1, max_size=6),
)


@settings(max_examples=300)
@given(
    frames=st.lists(frame_rows, min_size=1, max_size=12),
    iou_min=st.sampled_from([0.0, 0.3, 1.0]),
    max_misses=st.sampled_from([0, 1, 3]),
    use_hints=st.booleans(),
)
def test_step_matches_the_reference_tracker(frames, iou_min, max_misses, use_hints):
    # hinted and unhinted rows, repeated hints and boxes, and empty frames
    cfg = TrackerConfig(iou_min=iou_min, max_misses=max_misses, use_hints=use_hints)
    tr, ref = Tracker(cfg), RefTracker(cfg)
    for f, rows in enumerate(frames):
        dets = [mk_det(f, x=x, y=y, w=w, h=h, hint=hint) for x, y, w, h, hint in rows]
        got = [(tid, new) for _, tid, new in tr.step(f, dets)]
        assert got == [(tid, new) for _, tid, new in ref.step(f, dets)]
        assert len(tr._ids) == len(ref._tracks)
