import math
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, strategies as st

from roitel import (
    BBox,
    ConfigError,
    FrameColumns,
    InvalidParam,
    LedgerView,
    PolicyConfig,
)
from roitel import policy
from roitel.domain import DEFAULT_AREA_REF, DEFAULT_WEIGHTS
from roitel.policy import NEVER_REFINED, RoiCandidate, make_candidate
from helpers import CandidateContext, as_block, box_numbers, scalar_decide, score_roi

OPEN_VIEW = LedgerView(window_sum_bits=0.0, cap_bits=1e12)


def ctx(
    tid,
    *,
    frame=0,
    score=1.0,
    cost=1000.0,
    conf=0.5,
    created=0,
    last_refined=None,
    area=100.0,
):
    side = math.sqrt(area)
    cand = RoiCandidate(
        frame_index=frame,
        track_id=tid,
        bbox=BBox(0.0, 0.0, side, side),
        u_term=0.5,
        s_small_term=0.5,
        n_term=1.0,
        cost_bits=cost,
        score=score,
    )
    return CandidateContext(
        candidate=cand,
        confidence=conf,
        created_frame=created,
        last_refined_frame=last_refined,
    )


Picked = namedtuple("Picked", "selected rejected_budget rejected_threshold")


def decide(frame_index, contexts, view, cfg):
    """The columnar decision over ``contexts``, checked against the scalar
    one, with the selected rows as their candidates; each context's
    candidate must be on ``frame_index``."""
    got = policy.decide(frame_index, as_block(frame_index, contexts), view, cfg)
    assert got == scalar_decide(frame_index, contexts, view, cfg)
    return Picked(
        tuple(contexts[row].candidate for row in got.selected),
        got.rejected_budget,
        got.rejected_threshold,
    )


# --- score terms ------------------------------------------------------------
#
# Each term is checked through make_candidate, the scalar reference, and a
# one-row score_block, which must give the same bits or the same error.

SCORED = PolicyConfig(variant="M5", score_threshold=0.0)
TERMS = ("u_term", "s_small_term", "n_term", "score")


def frame_columns(rows):
    """One frame's columns, and the last-refined column, for ``rows`` of
    (confidence, bbox, last refined frame or None, cost_bits); row ``i`` is
    track ``10 + i``."""
    confs, bboxes, refined, costs = zip(*rows)
    n = len(rows)
    cols = FrameColumns(
        xywh=box_numbers(bboxes),
        records=np.full(n, -1, dtype=np.int64),
        track_id=np.arange(10, 10 + n, dtype=np.int64),
        created=np.zeros(n, dtype=np.int64),
        conf=np.array(confs, dtype=np.float64),
        area=np.array([b.area() for b in bboxes], dtype=np.float64),
        cost_bits=np.array(costs, dtype=np.float64),
        class_id=np.zeros(n, dtype=np.int64),
        video_change=np.zeros(n, dtype=bool),
    )
    last = [NEVER_REFINED if r is None else r for r in refined]
    return cols, np.array(last, dtype=np.int64)


def assert_block_matches(frame, rows, cfg):
    """make_candidate over ``rows`` in order, up to the first error: the
    candidates and that error's text, or None. score_block over ``rows``
    must raise the same text, or else give the same terms and scores bit for
    bit."""
    cands, error = [], None
    for tid, (conf, bbox, refined, cost) in enumerate(rows, start=10):
        try:
            cands.append(make_candidate(frame, tid, bbox, conf, refined, cost, cfg))
        except InvalidParam as err:
            error = str(err)
            break
    cols, last = frame_columns(rows)
    terms = policy.frame_terms([cols], cols.conf, cfg)[0]
    if error is not None:
        with pytest.raises(InvalidParam) as exc:
            policy.score_block(frame, cols, last, cfg, terms)
        assert str(exc.value) == error
    else:
        block = policy.score_block(frame, cols, last, cfg, terms)
        for name in TERMS:
            assert [v.hex() for v in getattr(block, name).tolist()] == [
                getattr(c, name).hex() for c in cands
            ]
    return cands, error


def scored(
    conf=0.5, bbox=BBox(0, 0, 10.0, 10.0), refined=None, cost=1000.0, frame=0, cfg=SCORED
):
    """The candidate of a one-row block, or its error raised."""
    cands, error = assert_block_matches(frame, [(conf, bbox, refined, cost)], cfg)
    if error is not None:
        raise InvalidParam(error)
    return cands[0]


def test_uncertainty_term_values():
    assert scored(conf=1.0).u_term == 0.0
    assert scored(conf=0.0).u_term == 1.0
    assert scored(conf=0.159).u_term == 1.0 - 0.159


@pytest.mark.parametrize("bad", [-0.1, 1.1])
def test_a_confidence_out_of_range_is_refused(bad):
    with pytest.raises(InvalidParam, match=r"confidence must be in \[0,1\]"):
        scored(conf=bad)


def test_size_term_boundaries():
    assert DEFAULT_AREA_REF == 1024.0
    assert scored(bbox=BBox(0, 0, 32.0, 32.0)).s_small_term == 0.0  # area == ref
    assert scored(bbox=BBox(0, 0, 16.0, 32.0)).s_small_term == 0.5  # half of ref
    assert scored(bbox=BBox(0, 0, 96.0, 32.0)).s_small_term == 0.0  # 3x ref, clamped
    assert scored(bbox=BBox(0, 0, 1.0, 1.0)).s_small_term == pytest.approx(1.0 - 1.0 / 1024.0)


def test_novelty_term_cooldown_boundary():
    assert SCORED.cooldown_frames == 30
    assert scored(frame=100, refined=None).n_term == 1.0
    assert scored(frame=100, refined=98).n_term == 0.0  # refined 2 frames ago
    assert scored(frame=100, refined=70).n_term == 0.0  # exactly at cooldown
    assert scored(frame=100, refined=69).n_term == 1.0  # one past cooldown


def test_score_known_value():
    # u 0.8, s 0.5, n 1.0: 0.5*0.8 + 0.3*0.5 + 0.2*1.0 = 0.75 over 10000 bits
    cand = scored(conf=0.2, bbox=BBox(0, 0, 16.0, 32.0), cost=10000.0)
    assert (cand.u_term, cand.s_small_term, cand.n_term) == (0.8, 0.5, 1.0)
    assert cand.score == 7.5e-5


def test_score_zero_numerator():
    # confident, at the size reference and refined within the cooldown
    cand = scored(conf=1.0, bbox=BBox(0, 0, 32.0, 32.0), refined=0, cost=5000.0, frame=1)
    assert (cand.u_term, cand.s_small_term, cand.n_term, cand.score) == (0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("cost", [0.0, -10.0])
def test_a_non_positive_cost_is_refused(cost):
    with pytest.raises(InvalidParam, match="cost_bits must be > 0"):
        scored(cost=cost)


@given(
    conf=st.floats(0, 1),
    side=st.floats(0.5, 64.0),
    refined=st.sampled_from([None, 0]),
    cost=st.floats(1.0, 1e9),
)
def test_doubling_the_cost_halves_the_score(conf, side, refined, cost):
    # power-of-two cost scaling is exact in binary floating point
    bbox = BBox(0, 0, side, side)
    once = scored(conf=conf, bbox=bbox, refined=refined, cost=cost, frame=1)
    twice = scored(conf=conf, bbox=bbox, refined=refined, cost=2.0 * cost, frame=1)
    assert twice.score == once.score / 2.0


# --- make_candidate and score_block -----------------------------------------


def test_make_candidate_default_terms():
    cand = make_candidate(
        frame_index=10,
        track_id=4,
        bbox=BBox(0, 0, 16.0, 32.0),
        confidence=0.8,
        last_refined_frame=None,
        cost_bits=10000.0,
        cfg=SCORED,
    )
    assert cand.u_term == pytest.approx(0.2)
    assert cand.s_small_term == 0.5  # area 512 against default ref 1024
    assert cand.n_term == 1.0
    assert cand.score == score_roi(
        cand.u_term, cand.s_small_term, cand.n_term, 10000.0, DEFAULT_WEIGHTS
    )


def test_make_candidate_area_threshold_becomes_size_ref():
    cfg = PolicyConfig(variant="M4", area_threshold=2048.0)
    assert scored(bbox=BBox(0, 0, 32.0, 32.0), cfg=cfg).s_small_term == 0.5  # 1024 / 2048
    # 1024 / DEFAULT_AREA_REF
    assert scored(bbox=BBox(0, 0, 32.0, 32.0)).s_small_term == 0.0


#: What a bad row holds: a confidence outside [0, 1], a cost that is not
#: positive, or a cost so small that large weights overflow the score.
BAD_VALUES = {"conf": [-0.5, 1.5, math.nan], "cost": [0.0, -5.0, math.nan, 1e-10]}


@st.composite
def scored_blocks(draw):
    """1-8 rows of (confidence, bbox, last refined frame, cost_bits) at
    frame 50, with bad values at some random rows."""
    row = st.tuples(
        st.floats(0, 1),
        st.builds(BBox, st.just(0.0), st.just(0.0), st.floats(0.5, 64.0), st.floats(0.5, 64.0)),
        st.sampled_from([None, 0, 20, 49]),
        st.floats(1.0, 1e9),
    )
    rows = [list(r) for r in draw(st.lists(row, min_size=1, max_size=8))]
    for index in draw(st.lists(st.integers(0, len(rows) - 1), max_size=3)):
        field = draw(st.sampled_from(sorted(BAD_VALUES)))
        rows[index][0 if field == "conf" else 3] = draw(st.sampled_from(BAD_VALUES[field]))
    return [tuple(r) for r in rows]


@given(
    rows=scored_blocks(),
    weights=st.sampled_from([DEFAULT_WEIGHTS, (1e300, 1e300, 1e300)]),
    area_threshold=st.sampled_from([None, 512.0, 2048.0]),
)
def test_score_block_raises_what_make_candidate_raises_first(rows, weights, area_threshold):
    cfg = PolicyConfig(variant="M5", area_threshold=area_threshold, weights=weights)
    assert_block_matches(50, rows, cfg)


# --- trigger rules ----------------------------------------------------------


def test_m0_never_selects():
    d = decide(0, [ctx(0), ctx(1)], OPEN_VIEW, PolicyConfig(variant="M0"))
    assert d.selected == ()
    assert d.rejected_threshold == 2
    assert d.rejected_budget == 0


def test_m1_period_boundary_inclusive():
    cfg = PolicyConfig(variant="M1", period_frames=15)
    # never refined: measured from creation
    assert decide(14, [ctx(0, frame=14, created=0)], OPEN_VIEW, cfg).selected == ()
    assert len(decide(15, [ctx(0, frame=15, created=0)], OPEN_VIEW, cfg).selected) == 1
    # refined at 10: measured from the refinement
    assert (
        decide(24, [ctx(0, frame=24, created=0, last_refined=10)], OPEN_VIEW, cfg).selected
        == ()
    )
    assert (
        len(decide(25, [ctx(0, frame=25, created=0, last_refined=10)], OPEN_VIEW, cfg).selected)
        == 1
    )


def test_m2_selects_only_new_tracks():
    cfg = PolicyConfig(variant="M2")
    d = decide(3, [ctx(0, frame=3, created=3), ctx(1, frame=3, created=0)], OPEN_VIEW, cfg)
    assert [c.track_id for c in d.selected] == [0]
    assert d.rejected_threshold == 1


def test_m3_confidence_strictly_below():
    cfg = PolicyConfig(variant="M3", conf_threshold=0.5)
    assert len(decide(0, [ctx(0, conf=0.49)], OPEN_VIEW, cfg).selected) == 1
    assert decide(0, [ctx(0, conf=0.5)], OPEN_VIEW, cfg).selected == ()
    assert decide(0, [ctx(0, conf=0.51)], OPEN_VIEW, cfg).selected == ()


def test_m4_area_strictly_below():
    cfg = PolicyConfig(variant="M4", area_threshold=1024.0)
    assert len(decide(0, [ctx(0, area=1023.9)], OPEN_VIEW, cfg).selected) == 1
    assert decide(0, [ctx(0, area=1024.0)], OPEN_VIEW, cfg).selected == ()


def test_m5_score_strictly_above():
    cfg = PolicyConfig(variant="M5", score_threshold=1e-4)
    assert decide(0, [ctx(0, score=1e-4)], OPEN_VIEW, cfg).selected == ()
    assert len(decide(0, [ctx(0, score=1.001e-4)], OPEN_VIEW, cfg).selected) == 1


@pytest.mark.parametrize(
    "variant,missing",
    [("M3", "conf_threshold"), ("M4", "area_threshold"), ("M5", "score_threshold")],
)
def test_threshold_variants_require_their_parameter(variant, missing):
    cfg = PolicyConfig(variant=variant)
    with pytest.raises(ConfigError, match=missing):
        decide(0, [ctx(0)], OPEN_VIEW, cfg)


# --- presets ----------------------------------------------------------------


def test_preset_permissive_default_gate():
    cfg = PolicyConfig(variant="preset_permissive")
    assert len(decide(0, [ctx(0, conf=0.25)], OPEN_VIEW, cfg).selected) == 1  # inclusive
    assert decide(0, [ctx(0, conf=0.249)], OPEN_VIEW, cfg).selected == ()


def test_preset_permissive_gate_override():
    cfg = PolicyConfig(variant="preset_permissive", conf_threshold=0.6)
    assert decide(0, [ctx(0, conf=0.5)], OPEN_VIEW, cfg).selected == ()
    assert len(decide(0, [ctx(0, conf=0.6)], OPEN_VIEW, cfg).selected) == 1


def test_preset_permissive_is_unlimited():
    cfg = PolicyConfig(variant="preset_permissive")
    many = [ctx(i, conf=0.9, score=1.0 / (i + 1)) for i in range(20)]
    d = decide(0, many, OPEN_VIEW, cfg)
    assert len(d.selected) == 20


def test_preset_conf_size_requires_both_gates():
    cfg = PolicyConfig(variant="preset_conf_size_top1")
    ok = ctx(0, conf=0.3, area=1023.0)
    big = ctx(1, conf=0.9, area=1024.0)
    dim = ctx(2, conf=0.29, area=100.0)
    d = decide(0, [ok, big, dim], OPEN_VIEW, cfg)
    assert [c.track_id for c in d.selected] == [0]
    assert d.rejected_threshold == 2


def test_preset_conf_size_takes_top_one():
    cfg = PolicyConfig(variant="preset_conf_size_top1")
    a = ctx(5, conf=0.9, area=100.0, score=2.0)
    b = ctx(3, conf=0.9, area=100.0, score=3.0)
    d = decide(0, [a, b], OPEN_VIEW, cfg)
    assert [c.track_id for c in d.selected] == [3]


def test_preset_strict_small_only_ignores_confidence():
    cfg = PolicyConfig(variant="preset_strict_small_only")
    d = decide(0, [ctx(0, conf=0.0, area=500.0)], OPEN_VIEW, cfg)
    assert len(d.selected) == 1
    assert decide(0, [ctx(0, conf=0.99, area=2000.0)], OPEN_VIEW, cfg).selected == ()


def test_preset_balanced_takes_top_two():
    cfg = PolicyConfig(variant="preset_balanced_top2")
    cands = [ctx(i, score=float(10 - i)) for i in range(5)]
    d = decide(0, cands, OPEN_VIEW, cfg)
    assert [c.track_id for c in d.selected] == [0, 1]


def test_preset_balanced_requires_positive_score():
    cfg = PolicyConfig(variant="preset_balanced_top2")
    d = decide(0, [ctx(0, score=0.0)], OPEN_VIEW, cfg)
    assert d.selected == ()
    assert d.rejected_threshold == 1


def test_explicit_top_k_overrides_preset_default():
    cfg = PolicyConfig(variant="preset_balanced_top2", top_k=4)
    cands = [ctx(i, score=float(10 - i)) for i in range(6)]
    d = decide(0, cands, OPEN_VIEW, cfg)
    assert len(d.selected) == 4


def test_m5_default_top_one():
    cfg = PolicyConfig(variant="M5", score_threshold=0.0)
    d = decide(0, [ctx(0, score=1.0), ctx(1, score=2.0)], OPEN_VIEW, cfg)
    assert [c.track_id for c in d.selected] == [1]
    # the runner-up was eligible, just beyond top-k: not a rejection
    assert d.rejected_budget == 0
    assert d.rejected_threshold == 0


# --- ordering and budget interaction ----------------------------------------


def test_selection_orders_by_score_then_track_id():
    cfg = PolicyConfig(variant="M3", conf_threshold=1.0)
    cands = [
        ctx(3, score=0.5, conf=0.5),
        ctx(7, score=0.9, conf=0.5),
        ctx(2, score=0.9, conf=0.5),
    ]
    d = decide(0, cands, OPEN_VIEW, cfg)
    assert [c.track_id for c in d.selected] == [2, 7, 3]


def test_budget_rejections_are_counted():
    cfg = PolicyConfig(variant="M3", conf_threshold=1.0)
    view = LedgerView(window_sum_bits=0.0, cap_bits=250.0)
    cands = [
        ctx(0, score=0.9, cost=100.0, conf=0.5),
        ctx(1, score=0.8, cost=100.0, conf=0.5),
        ctx(2, score=0.7, cost=100.0, conf=0.5),
    ]
    d = decide(0, cands, view, cfg)
    assert [c.track_id for c in d.selected] == [0, 1]
    assert d.rejected_budget == 1
    assert d.rejected_threshold == 0


def test_budget_cap_is_inclusive():
    cfg = PolicyConfig(variant="M3", conf_threshold=1.0)
    view = LedgerView(window_sum_bits=150.0, cap_bits=250.0)
    d = decide(0, [ctx(0, cost=100.0, conf=0.5)], view, cfg)
    assert len(d.selected) == 1  # 150 + 100 == 250 admits


def test_budget_rejection_does_not_stop_cheaper_later_candidates():
    # a large candidate blocked by budget still lets a smaller one through
    cfg = PolicyConfig(variant="M3", conf_threshold=1.0)
    view = LedgerView(window_sum_bits=0.0, cap_bits=100.0)
    d = decide(
        0,
        [ctx(0, score=0.9, cost=500.0, conf=0.5), ctx(1, score=0.1, cost=80.0, conf=0.5)],
        view,
        cfg,
    )
    assert [c.track_id for c in d.selected] == [1]
    assert d.rejected_budget == 1


def test_decide_is_pure():
    cfg = PolicyConfig(variant="M5", score_threshold=0.0)
    view = LedgerView(window_sum_bits=10.0, cap_bits=1000.0)
    cands = [ctx(0, score=1.0), ctx(1, score=2.0)]
    first = decide(0, cands, view, cfg)
    second = decide(0, cands, view, cfg)
    assert first == second
    assert view.window_sum_bits == 10.0


@given(thresholds=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2))
def test_m5_threshold_monotonicity(thresholds):
    lo, hi = sorted(thresholds)
    cands = [ctx(i, score=s) for i, s in enumerate([0.1, 0.3, 0.5, 0.7, 0.9])]
    sel_lo = decide(
        0, cands, OPEN_VIEW, PolicyConfig(variant="M5", score_threshold=lo, top_k=10)
    ).selected
    sel_hi = decide(
        0, cands, OPEN_VIEW, PolicyConfig(variant="M5", score_threshold=hi, top_k=10)
    ).selected
    assert {c.track_id for c in sel_hi} <= {c.track_id for c in sel_lo}


def test_m5_winner_invariant_under_uniform_cost_scaling():
    # doubling every cost halves every score but keeps the argmax
    base = [
        (0, 0.8, 0.5, 1.0, 4000.0),
        (1, 0.3, 0.9, 1.0, 2000.0),
        (2, 0.9, 0.1, 0.0, 1000.0),
    ]

    def run(scale):
        cands = []
        for tid, u, s, n, cost in base:
            c = cost * scale
            cand = RoiCandidate(
                frame_index=0,
                track_id=tid,
                bbox=BBox(0, 0, 10, 10),
                u_term=u,
                s_small_term=s,
                n_term=n,
                cost_bits=c,
                score=score_roi(u, s, n, c, DEFAULT_WEIGHTS),
            )
            cands.append(
                CandidateContext(
                    candidate=cand,
                    confidence=0.5,
                    created_frame=0,
                    last_refined_frame=None,
                )
            )
        cfg = PolicyConfig(variant="M5", score_threshold=0.0)
        return decide(0, cands, OPEN_VIEW, cfg).selected[0].track_id

    assert run(1.0) == run(2.0) == run(4.0)
