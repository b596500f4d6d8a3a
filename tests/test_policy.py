import math
from collections import namedtuple

import pytest
from hypothesis import given, strategies as st

from roitel import (
    BBox,
    ConfigError,
    InvalidParam,
    LedgerView,
    PolicyConfig,
    RoiCandidate,
    make_candidate,
    novelty_term,
    score_roi,
    size_term,
    uncertainty_term,
)
from roitel import policy
from roitel.domain import DEFAULT_AREA_REF, DEFAULT_WEIGHTS
from helpers import CandidateContext, as_block, scalar_decide

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


# --- term functions ---------------------------------------------------------


def test_uncertainty_term_values():
    assert uncertainty_term(1.0) == 0.0
    assert uncertainty_term(0.0) == 1.0
    assert uncertainty_term(0.159) == 1.0 - 0.159


@pytest.mark.parametrize("bad", [-0.1, 1.1])
def test_uncertainty_term_rejects_out_of_range(bad):
    with pytest.raises(InvalidParam):
        uncertainty_term(bad)


def test_size_term_boundaries():
    ref = 1024.0
    assert size_term(BBox(0, 0, 32.0, 32.0), ref) == 0.0  # area == ref
    assert size_term(BBox(0, 0, 16.0, 32.0), ref) == 0.5  # half of ref
    assert size_term(BBox(0, 0, 96.0, 32.0), ref) == 0.0  # 3x ref, clamped
    assert size_term(BBox(0, 0, 1.0, 1.0), ref) == pytest.approx(1.0 - 1.0 / 1024.0)


def test_size_term_rejects_bad_ref():
    with pytest.raises(InvalidParam):
        size_term(BBox(0, 0, 10, 10), 0.0)


def test_novelty_term_cooldown_boundary():
    assert novelty_term(None, 100, 30) == 1.0
    assert novelty_term(98, 100, 30) == 0.0  # refined 2 frames ago
    assert novelty_term(70, 100, 30) == 0.0  # exactly at cooldown
    assert novelty_term(69, 100, 30) == 1.0  # one past cooldown


def test_score_roi_known_value():
    # 0.5*0.8 + 0.3*0.5 + 0.2*1.0 = 0.75 over 10000 bits
    assert score_roi(0.8, 0.5, 1.0, 10000.0, DEFAULT_WEIGHTS) == 7.5e-5


def test_score_roi_zero_numerator():
    assert score_roi(0.0, 0.0, 0.0, 5000.0, DEFAULT_WEIGHTS) == 0.0


def test_score_roi_rejects_nonpositive_cost():
    with pytest.raises(InvalidParam):
        score_roi(0.5, 0.5, 0.5, 0.0, DEFAULT_WEIGHTS)
    with pytest.raises(InvalidParam):
        score_roi(0.5, 0.5, 0.5, -10.0, DEFAULT_WEIGHTS)


@given(
    u=st.floats(0, 1),
    s=st.floats(0, 1),
    n=st.sampled_from([0.0, 1.0]),
    cost=st.floats(1.0, 1e9),
)
def test_score_roi_doubling_cost_halves_score(u, s, n, cost):
    # power-of-two cost scaling is exact in binary floating point
    assert score_roi(u, s, n, 2.0 * cost, DEFAULT_WEIGHTS) == score_roi(
        u, s, n, cost, DEFAULT_WEIGHTS
    ) / 2.0


# --- make_candidate ---------------------------------------------------------


def test_make_candidate_default_terms():
    cfg = PolicyConfig(variant="M5", score_threshold=0.0)
    cand = make_candidate(
        frame_index=10,
        track_id=4,
        bbox=BBox(0, 0, 16.0, 32.0),
        confidence=0.8,
        last_refined_frame=None,
        cost_bits=10000.0,
        cfg=cfg,
    )
    assert cand.u_term == pytest.approx(0.2)
    assert cand.s_small_term == 0.5  # area 512 against default ref 1024
    assert cand.n_term == 1.0
    assert cand.score == score_roi(
        cand.u_term, cand.s_small_term, cand.n_term, 10000.0, DEFAULT_WEIGHTS
    )


def test_make_candidate_area_threshold_becomes_size_ref():
    cfg = PolicyConfig(variant="M4", area_threshold=2048.0)
    cand = make_candidate(0, 0, BBox(0, 0, 32.0, 32.0), 0.9, None, 1000.0, cfg)
    assert cand.s_small_term == 0.5  # 1024 / 2048
    default_cfg = PolicyConfig(variant="M5", score_threshold=0.0)
    cand2 = make_candidate(0, 0, BBox(0, 0, 32.0, 32.0), 0.9, None, 1000.0, default_cfg)
    assert cand2.s_small_term == 0.0  # 1024 / DEFAULT_AREA_REF
    assert DEFAULT_AREA_REF == 1024.0


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
