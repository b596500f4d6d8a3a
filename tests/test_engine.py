import hashlib
import math
import weakref
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from roitel import (
    BBox,
    BudgetConfig,
    ConfigError,
    CostModel,
    FrameClock,
    FrameColumns,
    InvalidParam,
    POLICY_VARIANTS,
    PolicyConfig,
    SemanticRecord,
    SemanticSidecar,
    TrackerConfig,
    estimate_cost,
    gen_synthetic,
    parse_generic_csv,
    run,
    sweep,
    write_generic_csv,
)
from roitel.config import build_config
from roitel.domain import DEFAULT_WEIGHTS
from roitel import budget, engine, ingest, policy
from roitel.engine import processed_frame_range
from roitel.runlog import CLASS_SOURCE_STILL, CLASS_SOURCE_VIDEO, collect, to_jsonl_lines
from helpers import (
    compensated_sum,
    low_regime_cfg,
    mk_det,
    mk_stream,
    novelty_term,
    score_roi,
    size_term,
    uncertainty_term,
)


def synthetic():
    return gen_synthetic(seed=1, n_frames=60, mean_objects=5.0, clock=FrameClock())


# --- processed frame selection ----------------------------------------------


def test_processed_frame_range():
    assert processed_frame_range(0, 20, 5) == [0, 5, 10, 15, 20]
    assert processed_frame_range(1, 19, 5) == [5, 10, 15]
    assert processed_frame_range(3, 4, 5) == []
    assert processed_frame_range(0, 0, 1) == [0]
    assert processed_frame_range(7, 7, 7) == [7]


def test_stride_determines_processed_frames():
    stream = mk_stream(
        [(f, [mk_det(f, x=50.0)]) for f in range(1, 20)],
        clock=FrameClock(fps=15.0, frame_stride=5),
    )
    log = run(stream, None, low_regime_cfg("M0"))
    assert log.processed_frame_indices == (5, 10, 15)
    assert log.raw_candidate_count == 3  # one candidate per processed frame
    assert log.first_frame == 1
    assert log.last_frame == 19


def test_empty_stream_yields_empty_log():
    log = run(mk_stream([]), None, low_regime_cfg("M5"))
    assert log.transmissions == []
    assert log.processed_frame_indices == ()
    assert log.first_frame is None
    assert log.raw_candidate_count == 0
    assert log.detection_conf_mean == 0.0


def test_frames_without_rows_skip_the_scheduling_pass(monkeypatch):
    calls = []

    def counted(fn):
        def wrapper(frame_index, block, *args):
            calls.append((fn.__name__, frame_index, len(block)))
            return fn(frame_index, block, *args)

        return wrapper

    monkeypatch.setattr(policy, "score_block", counted(policy.score_block))
    monkeypatch.setattr(policy, "decide", counted(policy.decide))
    stream = mk_stream([(0, [mk_det(0)]), (1000, [mk_det(1000, x=50.0)])])
    log = run(stream, None, low_regime_cfg("M5"))
    # the log still lists every processed frame of the span
    assert log.processed_frame_indices == tuple(range(0, 1001, 5))
    assert calls == [
        ("score_block", 0, 1),
        ("decide", 0, 1),
        ("score_block", 1000, 1),
        ("decide", 1000, 1),
    ]


@pytest.mark.parametrize(
    "frames,message",
    [
        # an empty processed frame still has its timestamp checked
        ([(0, [mk_det(0)]), (100, [mk_det(100)])], "t_s is not finite at frame 20: fps is 1e-307"),
        # on a frame with rows, a bad cost is reported before a bad timestamp
        (
            [(0, []), (20, [mk_det(20, w=1e5, h=1e5)])],
            "cost_bits is not finite at frame 20, track 0: inf",
        ),
    ],
)
def test_the_first_bad_processed_frame_names_itself(frames, message):
    # 15 / 1e-307 is finite, 20 / 1e-307 is not; at 1e300 bits a pixel a
    # 10x10 box costs a finite 1.69e302 bits, a 1e5x1e5 box does not
    cfg = replace(
        low_regime_cfg("M5"),
        clock=FrameClock(fps=1e-307, frame_stride=5),
        cost=CostModel(bits_per_pixel=1e300),
    )
    with pytest.raises(InvalidParam) as exc:
        run(mk_stream(frames), None, cfg)
    assert str(exc.value) == message


def test_span_with_no_processed_frames():
    stream = mk_stream([(3, [mk_det(3)]), (4, [mk_det(4)])])
    log = run(stream, None, low_regime_cfg("M5"))
    assert log.processed_frame_indices == ()
    assert log.raw_candidate_count == 0
    assert (log.first_frame, log.last_frame) == (3, 4)


# --- basic policy-through-engine behavior -------------------------------------


def test_m0_never_transmits():
    log = run(synthetic(), None, low_regime_cfg("M0"))
    assert log.transmissions == []
    assert math.fsum(tx.cost_bits for tx in log.transmissions) == 0.0
    assert log.rejected_threshold == log.raw_candidate_count
    assert log.rejected_budget == 0


def test_m2_transmits_each_track_once_at_spawn():
    # one object entering at frame 10, visible at every processed frame after
    frames = [(0, [])] + [(f, [mk_det(f, x=50.0)]) for f in (10, 15, 20)]
    stream = mk_stream(frames)
    log = run(stream, None, low_regime_cfg("M2"))
    assert [(tx.frame_index, tx.track_id) for tx in log.transmissions] == [(10, 0)]


def test_m1_periodic_cadence():
    stream = mk_stream([(f, [mk_det(f, x=50.0)]) for f in range(0, 60, 5)])
    log = run(stream, None, low_regime_cfg("M1", period_frames=15))
    assert [tx.frame_index for tx in log.transmissions] == [15, 30, 45]
    assert all(tx.track_id == 0 for tx in log.transmissions)


def test_transmission_timestamps_follow_clock():
    stream = mk_stream([(f, [mk_det(f, x=50.0)]) for f in (10, 15, 20)])
    log = run(stream, None, low_regime_cfg("M2"))
    assert log.transmissions[0].t_s == 10 / 15.0


def test_detection_conf_mean():
    stream = mk_stream([(0, [mk_det(0, x=0.0, conf=0.4), mk_det(0, x=100.0, conf=0.8)])])
    log = run(stream, None, low_regime_cfg("M0"))
    assert log.detection_conf_mean == (0.4 + 0.8) / 2


def test_base_bitrate_defaults_to_video_allocation():
    log = run(synthetic(), None, low_regime_cfg("M0"))
    assert log.base_bitrate_bps == 0.65e6
    measured = run(synthetic(), None, low_regime_cfg("M0", base_measured=0.801e6))
    assert measured.base_bitrate_bps == 0.801e6


def test_config_echo_recorded():
    log = run(synthetic(), None, low_regime_cfg("M5"))
    assert log.config_echo["policy.variant"] == "M5"


# --- budget interaction: independent replay oracle ---------------------------


def contention_setup():
    boxes = [BBox(200.0 * i, 50.0, 10.0, 10.0) for i in range(3)]
    confs = [0.3 + 0.12 * i for i in range(3)]
    frames = []
    for f in range(0, 60, 5):
        dets = [
            mk_det(f, x=b.x, y=b.y, w=b.w, h=b.h, conf=c)
            for b, c in zip(boxes, confs)
        ]
        frames.append((f, dets))
    cfg = replace(
        low_regime_cfg("M5", top_k=3),
        budget=BudgetConfig(b_total=0.66e6, b_video=0.65e6, b_roi=4200.0, window_s=2.0),
    )
    return mk_stream(frames), cfg, boxes, confs


def test_tight_budget_matches_independent_replay():
    stream, cfg, boxes, confs = contention_setup()
    log = run(stream, None, cfg)

    # replay the schedule with a hand-rolled window account
    cap = cfg.budget.b_roi * cfg.budget.window_s
    w = cfg.budget.window_s
    costs = [estimate_cost(b.w, b.h, cfg.cost) for b in boxes]
    last_refined: dict[int, int] = {}
    entries: list[tuple[float, float]] = []
    expected: list[tuple[int, int]] = []
    for frame in range(0, 60, 5):
        now = cfg.clock.timestamp(frame)
        cands = []
        for tid in range(3):
            u = uncertainty_term(confs[tid])
            s = size_term(boxes[tid], 1024.0)
            n = novelty_term(last_refined.get(tid), frame, cfg.policy.cooldown_frames)
            cands.append((score_roi(u, s, n, costs[tid], DEFAULT_WEIGHTS), tid))
        cands = [(sc, tid) for sc, tid in cands if sc > 0.0]
        cands.sort(key=lambda t: (-t[0], t[1]))
        sim = sum(b for ts, b in entries if now - w < ts <= now)
        taken = 0
        for sc, tid in cands:
            if taken >= 3:
                break
            if sim + costs[tid] <= cap:
                entries.append((now, costs[tid]))
                sim = sim + costs[tid]
                expected.append((frame, tid))
                last_refined[tid] = frame
                taken += 1

    got = [(tx.frame_index, tx.track_id) for tx in log.transmissions]
    assert got == expected
    assert len(expected) > 3  # the scenario actually rotates under contention
    assert log.rejected_budget > 0


def test_windowed_budget_never_exceeded():
    stream, cfg, _, _ = contention_setup()
    # maximal pressure: every candidate triggers, no top-k limit
    cfg = replace(cfg, policy=PolicyConfig(variant="M3", conf_threshold=1.0))
    log = run(stream, None, cfg)
    cap = cfg.budget.b_roi * cfg.budget.window_s
    txs = [(tx.t_s, tx.cost_bits) for tx in log.transmissions]
    for i, (t_i, _) in enumerate(txs):
        window = sum(bits for t_j, bits in txs[: i + 1] if t_i - 2.0 < t_j <= t_i)
        assert window <= cap
    # with an unlimited top-k every candidate is either sent or counted
    assert (
        len(log.transmissions) + log.rejected_budget + log.rejected_threshold
        == log.raw_candidate_count
    )


def test_zero_roi_allocation_blocks_all_transmissions():
    cfg = replace(
        low_regime_cfg("M5"),
        budget=BudgetConfig(b_total=0.8e6, b_video=0.65e6, b_roi=0.0, window_s=2.0),
    )
    log = run(synthetic(), None, cfg)
    assert log.transmissions == []
    assert log.rejected_budget > 0


# --- sidecar integration ------------------------------------------------------


def sidecar_record(frame, track, *, still_conf=0.35, still_label=7, payload=None):
    return SemanticRecord(
        frame_index=frame,
        track_id=track,
        video_conf=0.20,
        still_conf=still_conf,
        video_label=4,
        still_label=still_label,
        video_entropy=1.9,
        still_entropy=1.1,
        payload_bytes=payload,
    )


def test_sidecar_payload_overrides_cost_estimate():
    stream = mk_stream([(10, [mk_det(10, x=50.0, hint=17)])])
    sidecar = SemanticSidecar([sidecar_record(10, 17, payload=1300)])
    log = run(stream, sidecar, low_regime_cfg("M2"))
    assert len(log.transmissions) == 1
    tx = log.transmissions[0]
    assert tx.cost_bits == 1300 * 8.0
    assert tx.still_conf == 0.35
    assert tx.video_conf == 0.20
    assert tx.has_semantics


def test_sidecar_lookup_prefers_annotation_hint_over_track_id():
    # the only object gets tracker id 0 but carries hint 17; records exist
    # under both keys and the hinted one must win
    stream = mk_stream([(10, [mk_det(10, x=50.0, hint=17)])])
    sidecar = SemanticSidecar(
        [
            sidecar_record(10, 0, still_conf=0.99),
            sidecar_record(10, 17, still_conf=0.35),
        ]
    )
    log = run(stream, sidecar, low_regime_cfg("M2"))
    assert log.transmissions[0].still_conf == 0.35


def test_sidecar_falls_back_to_track_id_without_hint():
    stream = mk_stream([(10, [mk_det(10, x=50.0)])])  # no hint: tracker id 0
    sidecar = SemanticSidecar([sidecar_record(10, 0)])
    log = run(stream, sidecar, low_regime_cfg("M2"))
    assert log.transmissions[0].still_conf == 0.35


def test_transmission_without_sidecar_entry_has_no_semantics():
    stream = mk_stream([(10, [mk_det(10, x=50.0, hint=17)])])
    sidecar = SemanticSidecar([sidecar_record(99, 17)])  # wrong frame
    log = run(stream, sidecar, low_regime_cfg("M2"))
    assert not log.transmissions[0].has_semantics
    bbox = log.transmissions[0].bbox
    assert log.transmissions[0].cost_bits == estimate_cost(bbox.w, bbox.h, low_regime_cfg("M2").cost)


# --- class timeline -----------------------------------------------------------


def test_video_class_changes_are_events():
    frames = [
        (0, [mk_det(0, x=50.0, cls=4)]),
        (5, [mk_det(5, x=50.0, cls=4)]),
        (10, [mk_det(10, x=50.0, cls=5)]),
    ]
    log = run(mk_stream(frames), None, low_regime_cfg("M0"))
    assert [(ev.frame_index, ev.label, ev.source) for ev in log.class_events] == [
        (0, 4, CLASS_SOURCE_VIDEO),
        (10, 5, CLASS_SOURCE_VIDEO),
    ]


def test_still_label_pins_the_class():
    # transmit once at spawn; afterwards the video stream changes its mind,
    # but the still-derived label stays authoritative
    frames = [
        (10, [mk_det(10, x=50.0, cls=4, hint=17)]),
        (15, [mk_det(15, x=50.0, cls=5, hint=17)]),
        (20, [mk_det(20, x=50.0, cls=6, hint=17)]),
    ]
    sidecar = SemanticSidecar([sidecar_record(10, 17, still_label=7)])
    log = run(mk_stream(frames), sidecar, low_regime_cfg("M2"))
    assert [(ev.frame_index, ev.label, ev.source) for ev in log.class_events] == [
        (10, 4, CLASS_SOURCE_VIDEO),
        (10, 7, CLASS_SOURCE_STILL),
    ]


def test_still_event_only_on_label_change():
    # two transmissions with the same still label: one still event
    frames = [
        (0, [mk_det(0, x=50.0, cls=7, hint=17)]),
        (15, [mk_det(15, x=50.0, cls=7, hint=17)]),
        (30, [mk_det(30, x=50.0, cls=7, hint=17)]),
    ]
    sidecar = SemanticSidecar(
        [sidecar_record(15, 17, still_label=7), sidecar_record(30, 17, still_label=7)]
    )
    log = run(mk_stream(frames), sidecar, low_regime_cfg("M1", period_frames=15))
    assert [tx.frame_index for tx in log.transmissions] == [15, 30]
    stills = [ev for ev in log.class_events if ev.source == CLASS_SOURCE_STILL]
    assert stills == []  # still label equals the standing video label 7


def test_still_event_emitted_when_label_differs():
    frames = [(10, [mk_det(10, x=50.0, cls=4, hint=17)])]
    sidecar = SemanticSidecar([sidecar_record(10, 17, still_label=9)])
    log = run(mk_stream(frames), sidecar, low_regime_cfg("M2"))
    stills = [ev for ev in log.class_events if ev.source == CLASS_SOURCE_STILL]
    assert [(ev.frame_index, ev.track_id, ev.label) for ev in stills] == [(10, 0, 9)]


# --- sweep --------------------------------------------------------------------


def test_sweep_runs_share_the_stream():
    stream = synthetic()
    results = list(sweep(stream, None, low_regime_cfg("M5"), ["M0", "M2", "M5"]))
    assert [name for name, _ in results] == ["M0", "M2", "M5"]
    raw_counts = {log.raw_candidate_count for _, log in results}
    assert len(raw_counts) == 1  # identical tracking workload per variant
    assert results[0][1].transmissions == []


def test_sweep_accepts_policy_configs():
    results = list(
        sweep(
            synthetic(),
            None,
            low_regime_cfg("M5"),
            ["M0", PolicyConfig(variant="M3", conf_threshold=0.5)],
        )
    )
    assert [name for name, _ in results] == ["M0", "M3"]
    assert results[1][1].config_echo["policy.variant"] == "M3"


def test_sweep_is_deterministic():
    a = sweep(synthetic(), None, low_regime_cfg("M5"), ["M1", "M5"])
    b = sweep(synthetic(), None, low_regime_cfg("M5"), ["M1", "M5"])
    for (_, log_a), (_, log_b) in zip(a, b):
        assert list(to_jsonl_lines(log_a)) == list(to_jsonl_lines(log_b))


def test_sweep_rejects_empty_variant_list():
    with pytest.raises(InvalidParam):
        sweep(synthetic(), None, low_regime_cfg("M5"), [])


def test_sweep_variant_string_inherits_base_policy_params():
    base = low_regime_cfg("M5", cooldown_frames=7)
    results = list(sweep(synthetic(), None, base, ["M1"]))
    assert results[0][1].config_echo["policy.cooldown_frames"] == "7"


# --- one association pass, many schedules ------------------------------------


def sweep_case(use_hints: bool):
    """A 300-frame stream, half of it without hints, with a sidecar that
    covers every other processed detection and gives ``payload_bytes`` on
    two records in three. Unhinted records are keyed by small ids so some
    of them meet tracker ids. Thresholds are set so every variant runs, and
    the budget binds."""
    source = gen_synthetic(seed=1, n_frames=300, mean_objects=5.0, clock=FrameClock())
    stream = mk_stream(
        (f, [d if d.track_hint % 2 == 0 else replace(d, track_hint=None) for d in dets])
        for f, dets in source.frames
    )
    records = {}
    for i, det in enumerate(d for _, dets in stream.frames for d in dets):
        if det.frame_index % 5 or i % 2:
            continue
        key = (det.frame_index, det.track_hint if det.track_hint is not None else i % 40)
        if key in records:
            continue
        records[key] = SemanticRecord(
            frame_index=key[0],
            track_id=key[1],
            video_conf=(i % 10) / 10.0,
            still_conf=(i % 7) / 7.0,
            video_label=i % 5,
            still_label=(i // 3) % 5,
            video_entropy=(i % 11) / 5.0,
            still_entropy=(i % 13) / 7.0,
            payload_bytes=None if i % 3 == 0 else 600 + (i * 37) % 1500,
        )
    base = replace(
        low_regime_cfg("M5", conf_threshold=0.6, area_threshold=1500.0),
        budget=BudgetConfig(b_total=0.8e6, b_video=0.65e6, b_roi=20_000.0, window_s=2.0),
        tracker=TrackerConfig(use_hints=use_hints),
    )
    return stream, SemanticSidecar(records.values()), base


@pytest.mark.parametrize("use_hints", [False, True])
def test_sweep_matches_sequential_runs(use_hints):
    stream, sidecar, base = sweep_case(use_hints)
    swept = list(sweep(stream, sidecar, base, list(POLICY_VARIANTS)))
    assert [name for name, _ in swept] == list(POLICY_VARIANTS)
    for variant, log in swept:
        alone = run(stream, sidecar, replace(base, policy=replace(base.policy, variant=variant)))
        assert list(to_jsonl_lines(log)) == list(to_jsonl_lines(alone)), variant
    # the case has sidecar hits and misses and a binding budget
    txs = [tx for _, log in swept for tx in log.transmissions]
    assert any(tx.has_semantics for tx in txs)
    assert any(not tx.has_semantics for tx in txs)
    assert any(log.rejected_budget for _, log in swept)


def test_sweep_associates_once(monkeypatch):
    from roitel import engine

    steps = []

    class CountingTracker(engine.Tracker):
        def step(self, frame_index, detections):
            steps.append(frame_index)
            return super().step(frame_index, detections)

    monkeypatch.setattr(engine, "Tracker", CountingTracker)
    stream, sidecar, base = sweep_case(False)
    results = list(sweep(stream, sidecar, base, list(POLICY_VARIANTS)))
    assert steps == list(results[0][1].processed_frame_indices)


def test_sweep_schedules_each_variant_after_the_last_log_is_dropped(monkeypatch):
    schedule = engine._schedule
    yielded = []  # a weak reference to each log the sweep has yielded
    alive_when_scheduled = []

    def schedule_after_drop(frames, span, cfg):
        alive_when_scheduled.append([ref() is not None for ref in yielded])
        return schedule(frames, span, cfg)

    monkeypatch.setattr(engine, "_schedule", schedule_after_drop)
    stream, sidecar, base = sweep_case(False)
    results = sweep(stream, sidecar, base, ["M0", "M4", "M5"])
    assert alive_when_scheduled == []  # nothing is scheduled until asked
    variants = []
    for variant, log in results:
        variants.append(variant)
        yielded.append(weakref.ref(log))
        del log
    assert variants == ["M0", "M4", "M5"]
    assert alive_when_scheduled == [[], [False], [False, False]]


def test_a_sweep_keeps_no_stream_once_it_has_associated():
    """Scheduling reads the associated frames and the stream's span, so the
    stream is freed as soon as its caller drops it."""
    stream, sidecar, base = sweep_case(True)
    expected = dict(sweep(stream, sidecar, base, ["M0", "M4"]))
    stream_ref = weakref.ref(stream)
    results = sweep(stream, sidecar, base, ["M0", "M4"])
    del stream
    assert stream_ref() is None
    got = {variant: "\n".join(to_jsonl_lines(log)) for variant, log in results}
    assert got == {variant: "\n".join(to_jsonl_lines(log)) for variant, log in expected.items()}


#: sha256 of each run log of ``sweep_case`` swept over every variant, as
#: written by the engine before association and scheduling were split.
PINNED_RUNLOG_SHA256 = {
    False: {
        "M0": "05eea9ec1242f183d88cfde2be64970cfd5d4080429c6fc1d5c318e44d5d634a",
        "M1": "b1c0f86ce61de87107845638b31330ad2ed9ef25822075fdffe13d18a1d7d610",
        "M2": "414c75a7ec62bded5b4c3c8564c2167b0dc39d5cb24a35862a6e40288313e019",
        "M3": "8e3e6f250582a9d3e6e0c8f83db5f0b15528c24cd1597bab6b18d11a6c2330fe",
        "M4": "7a90e0a86b901c506cb9f1b4b935cd0237f11536160e2b4574a65a759491c05f",
        "M5": "2d6231f6ed21b10cb7ec8ab219593a938de0eac5f754c8f520c8ccc9e4d23262",
        "preset_permissive": "4d357ee2734326adbc446117e7f272b38f81ff8cc85c421d055db97f4b38edbf",
        "preset_conf_size_top1": "f85a3600353ba6053fa6e931c8f7344d79b9568679e4cd5c65d199497ce45eb8",
        "preset_strict_small_only": "f667c6aa0dec5b522700f29953985da4ed7671f2d0af3c480fc9b6a86bb36035",
        "preset_balanced_top2": "c989331e9dae64badddf04bd11eb6242c99d235e22c96db8f6d66be17642cb8c",
    },
    True: {
        "M0": "3fb7003929d7d395e70213fbd3d78f56a41e9c10b3561d23a714ad360001d4fd",
        "M1": "e3858f3f6e31c1b79f8962f2ac1666c3e08623f633e0a4b415ffa83c84e834f1",
        "M2": "89f982191812123e138fc37293ee0eb747cc342912cc035fc443da9c11c0ed85",
        "M3": "417eafd313be84fb5cc1ec5a0c00b5fb5a42748b6ae62af55522f0f179542e85",
        "M4": "af5e85fa70d98c7f7df0fc514ee4313ecbb6f613c75f2f8d0c7216d25ec016e9",
        "M5": "d2da9cc2d240749343524f0f7575b9712098d560ee262bcfa5f1e92de45767bc",
        "preset_permissive": "d8b9459e9ec0f065061c202f8fec507b38012c97de711c724969ab103b38f37b",
        "preset_conf_size_top1": "3c35d7da55b32eaa6cc49caa285f342efa0553e0251761dd0c50e91c7e1aa5b3",
        "preset_strict_small_only": "1603a22c062e7543d5f5c8d70f2387bb2705320cdbd358bea535527e52f35e47",
        "preset_balanced_top2": "69130febc7a290d1ad84f0ba4a65bc68cf7416f90fa759b150a8b1db6683a4fd",
    },
}


#: Frames per scheduling block, the default among them; each splits
#: ``sweep_case``'s 60 processed frames into several blocks.
BLOCK_FRAMES = [1, 2, 7, engine._BLOCK_FRAMES]


@pytest.mark.parametrize("block_frames", BLOCK_FRAMES)
@pytest.mark.parametrize("use_hints", [False, True])
def test_sweep_runlogs_keep_their_bytes(monkeypatch, use_hints, block_frames):
    monkeypatch.setattr(engine, "_BLOCK_FRAMES", block_frames)
    stream, sidecar, base = sweep_case(use_hints)
    got = {
        variant: hashlib.sha256(("\n".join(to_jsonl_lines(log)) + "\n").encode()).hexdigest()
        for variant, log in sweep(stream, sidecar, base, list(POLICY_VARIANTS))
    }
    assert got == PINNED_RUNLOG_SHA256[use_hints]


# --- columnar scheduling pass -------------------------------------------------
#
# The conftest fixture checks each of these runs against the scalar oracle
# too; the asserts here pin what the cases are about.


def test_tied_scores_go_to_the_lower_track_id():
    # identical boxes and confidences, so equal scores; on frame 5 the
    # detections come in the other order, so row 0 is track 1
    a, b = dict(y=0.0), dict(y=300.0)
    frames = [(0, [mk_det(0, **a), mk_det(0, **b)]), (5, [mk_det(5, **b), mk_det(5, **a)])]
    log = run(mk_stream(frames), None, low_regime_cfg("M5", cooldown_frames=0))
    assert [(tx.frame_index, tx.track_id) for tx in log.transmissions] == [(0, 0), (5, 0)]


def schedule_with_a_bad_confidence(stream, cfg, row):
    """Schedule ``stream`` with a confidence of 1.5, which no stream holds,
    set on row ``row`` of its last associated frame."""
    frames = list(engine.associate(stream, None, cfg.clock, cfg.tracker, cfg.cost))
    frame_index, now, cols = frames[-1]
    conf = cols.conf.copy()
    conf[row] = 1.5
    frames[-1] = (frame_index, now, replace(cols, conf=conf))
    return collect(engine._schedule(frames, (stream.first_frame, stream.last_frame), cfg))


@pytest.mark.parametrize(
    "bad_conf_row,zero_cost_row,message",
    [
        (1, 0, "cost_bits must be > 0, got 0.0"),
        (0, 1, "confidence must be in [0,1], got 1.5"),
        (0, 0, "confidence must be in [0,1], got 1.5"),
    ],
)
def test_the_first_bad_row_raises_the_scalar_error(bad_conf_row, zero_cost_row, message):
    # a box this small costs 0.0 bits once the header is free
    tiny = dict(w=1e-200, h=1e-200)
    dets = [mk_det(5, x=100.0 * i) for i in range(3)]
    dets[zero_cost_row] = mk_det(5, x=100.0 * zero_cost_row, **tiny)
    cfg = replace(low_regime_cfg("M5"), cost=CostModel(header_bytes=0))
    stream = mk_stream([(0, [mk_det(0, x=900.0)]), (5, dets)])
    with pytest.raises(InvalidParam) as exc:
        schedule_with_a_bad_confidence(stream, cfg, bad_conf_row)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "bad_conf_row,overflow_row,message",
    [
        (2, 1, "score is not finite at frame 5, track 2: inf"),
        (0, 1, "confidence must be in [0,1], got 1.5"),
    ],
)
def test_the_first_row_with_an_overflowing_score_raises_the_scalar_error(
    bad_conf_row, overflow_row, message
):
    # the weights stay finite on every other row; the tiny box's cost sends
    # its score beyond the float range
    dets = [mk_det(5, x=100.0 * i) for i in range(3)]
    dets[overflow_row] = mk_det(5, x=100.0 * overflow_row, w=1e-10, h=1e-10)
    cfg = replace(low_regime_cfg("M5"), cost=CostModel(header_bytes=0))
    cfg = replace(cfg, policy=replace(cfg.policy, weights=(1e300, 1e300, 1e300)))
    stream = mk_stream([(0, [mk_det(0, x=900.0)]), (5, dets)])
    with pytest.raises(InvalidParam) as exc:
        schedule_with_a_bad_confidence(stream, cfg, bad_conf_row)
    assert str(exc.value) == message


@pytest.mark.parametrize("block_frames", [1, engine._BLOCK_FRAMES])
def test_a_scheduling_error_before_an_association_error_comes_first(monkeypatch, block_frames):
    # frame 0's box costs 0.0 bits, which scheduling refuses; frame 5's cost
    # is beyond the float range, which association refuses
    monkeypatch.setattr(engine, "_BLOCK_FRAMES", block_frames)
    stream = parse_generic_csv("0,1,10,10,1e-200,1e-200,0.5,1\n5,2,10,10,9e153,9e153,0.5,1\n")
    cfg = build_config(
        {
            "cost.pad_ratio": "10",
            "cost.header_bytes": "0",
            "policy.variant": "M4",
            "policy.area_threshold": "1500",
            "eval.duration_s": "1",
        }
    )
    with pytest.raises(InvalidParam) as exc:
        run(stream, None, cfg)
    assert str(exc.value) == "cost_bits must be > 0, got 0.0"


def test_a_cost_beyond_the_float_range_is_refused():
    # the box is in the float range; its cost at 1e300 bits a pixel is not
    frames = [(0, [mk_det(0), mk_det(0, x=100.0, w=1e5, h=1e5)])]
    cfg = replace(low_regime_cfg("M5"), cost=CostModel(bits_per_pixel=1e300))
    with pytest.raises(InvalidParam) as exc:
        run(mk_stream(frames), None, cfg)
    assert str(exc.value) == "cost_bits is not finite at frame 0, track 1: inf"


@pytest.mark.parametrize("builtin_sum", [sum, compensated_sum], ids=["sum", "sum_3_12"])
def test_commit_recheck_admits_what_decide_admits_at_the_cap(monkeypatch, builtin_sum):
    # seven 12211.2-bit crops fill the 85478.4-bit window exactly when added
    # one by one, as decide adds; a compensated window sum refuses the 7th
    monkeypatch.setattr(budget, "sum", builtin_sum, raising=False)
    cfg = replace(
        low_regime_cfg("preset_permissive"),
        budget=BudgetConfig(b_total=0.8e6, b_video=0.65e6, b_roi=42739.2, window_s=2.0),
        cost=CostModel(resize_edge=128.0),
    )
    log = run(mk_stream([(0, [mk_det(0, x=100.0 * i) for i in range(7)])]), None, cfg)
    assert len(log.transmissions) == 7
    assert log.rejected_budget == 0


def test_top_k_cut_leaves_rows_unaccounted():
    frames = [(f, [mk_det(f, x=100.0 * i, conf=0.5) for i in range(3)]) for f in (0, 5)]
    log = run(mk_stream(frames), None, low_regime_cfg("M5"))
    assert len(log.transmissions) == 2  # top-1 on each frame
    assert (log.rejected_threshold, log.rejected_budget) == (0, 0)
    assert log.raw_candidate_count - len(log.transmissions) == 4


def test_frames_without_detections_evaluate_no_trigger():
    # M3 without its threshold fails only once a frame has a candidate
    cfg = replace(low_regime_cfg("M0"), policy=PolicyConfig(variant="M3"))
    log = run(mk_stream([(0, []), (5, []), (10, [])]), None, cfg)
    assert log.processed_frame_indices == (0, 5, 10)
    assert log.raw_candidate_count == 0
    frames = [(0, []), (5, [mk_det(5, x=50.0)]), (10, []), (15, [mk_det(15, x=50.0)])]
    log = run(mk_stream(frames), None, low_regime_cfg("M2"))
    assert [tx.frame_index for tx in log.transmissions] == [5]
    with pytest.raises(ConfigError, match="conf_threshold"):
        run(mk_stream(frames), None, cfg)


def test_integer_boxes_stay_integers_in_transmissions():
    frames = [(0, [mk_det(0, x=50, y=20, w=10, h=12)])]
    log = run(mk_stream(frames), None, low_regime_cfg("M2"))
    bbox = log.transmissions[0].bbox
    assert [type(v) for v in (bbox.x, bbox.y, bbox.w, bbox.h)] == [int] * 4
    tx_line = list(to_jsonl_lines(log))[1]
    assert '"bbox": [50, 20, 10, 12]' in tx_line


def hand_frame(frame_index, dets, track_ids, created, last_class):
    """One association-pass frame built by hand, at 15 fps. ``last_class``
    holds each track's class on its last hand frame, as the association
    pass keeps it for the video class marks."""
    video_change = [
        c == frame_index or last_class.get(t) != d.class_id
        for d, t, c in zip(dets, track_ids, created)
    ]
    last_class.update(zip(track_ids, (d.class_id for d in dets)))
    costs = [estimate_cost(d.bbox.w, d.bbox.h, CostModel()) for d in dets]
    cols = FrameColumns(
        bboxes=tuple(d.bbox for d in dets),
        records=np.full(len(dets), -1, dtype=np.int64),
        track_id=np.array(track_ids, dtype=np.int64),
        created=np.array(created, dtype=np.int64),
        conf=np.array([d.confidence for d in dets], dtype=np.float64),
        area=np.array([d.bbox.w * d.bbox.h for d in dets], dtype=np.float64),
        cost_bits=np.array(costs, dtype=np.float64),
        class_id=np.array([d.class_id for d in dets], dtype=np.int64),
        video_change=np.array(video_change, dtype=bool),
    )
    return frame_index, frame_index / 15.0, cols


def test_track_ids_beyond_the_per_track_tables_grow_them():
    rows = [
        (0, [mk_det(0, cls=1), mk_det(0, x=50.0, cls=2)], [0, 1], [0, 0]),
        (5, [mk_det(5, cls=3), mk_det(5, x=50.0, cls=2)], [1000, 1], [5, 0]),
        (10, [mk_det(10, cls=4)], [1000], [5]),
    ]
    stream = mk_stream([(f, dets) for f, dets, _, _ in rows])
    span = (stream.first_frame, stream.last_frame)
    last_class = {}
    frames = [hand_frame(*r, last_class) for r in rows]
    log = collect(engine._schedule(frames, span, low_regime_cfg("M2")))
    assert [(tx.frame_index, tx.track_id) for tx in log.transmissions] == [
        (0, 0),
        (0, 1),
        (5, 1000),
    ]
    assert [(ev.frame_index, ev.track_id, ev.label) for ev in log.class_events] == [
        (0, 0, 1),
        (0, 1, 2),
        (5, 1000, 3),
        (10, 1000, 4),
    ]


def test_created_marks_exactly_the_tracks_spawned_on_the_frame():
    # frames 25 to 40 are empty, and the tracks age across them
    stream = mk_stream((f, dets) for f, dets in synthetic().frames if not 25 <= f <= 40)
    tracker = engine.Tracker(TrackerConfig())
    frames = engine.associate(stream, None, stream.clock, TrackerConfig(), CostModel())
    yielded = {frame_index: cols for frame_index, _, cols in frames}
    for frame_index in processed_frame_range(stream.first_frame, stream.last_frame, 5):
        out = tracker.step(frame_index, list(stream.detections_at(frame_index)))
        cols = yielded.pop(frame_index, None)
        assert (cols is None) == (not out)
        if out:
            assert (cols.created == frame_index).tolist() == [is_new for *_, is_new in out]
    assert not yielded


def test_far_apart_boxes_neither_warn_nor_split_a_track():
    # the y-overlap of a box at y = 1e308 with one at y = -1e308 overflows
    # to -inf; the IoU clips it to 0, so the far box keeps its one track
    far = "0,1e308,1e-300,1e300,0.5,0"
    text = "".join(f"{f},-1,{far}\n" for f in (0, 5, 10)) + "5,-1,0,-1e308,1e-300,1e300,0.5,0\n"
    log = run(parse_generic_csv(text), None, low_regime_cfg("M2"))
    assert [(tx.frame_index, tx.track_id) for tx in log.transmissions] == [(0, 0), (5, 1)]
    assert {ev.track_id for ev in log.class_events} == {0, 1}


def test_hints_beyond_int64_extend_tracks_and_key_the_sidecar():
    # a repeated hint spawns a second track, and the newer track of a hint
    # is the one a later detection extends
    big = 2**64
    frames = [
        (f, [mk_det(f, hint=big), mk_det(f, x=100.0, hint=big), mk_det(f, x=300.0)])
        for f in (0, 5)
    ]
    cfg = replace(low_regime_cfg("M2"), tracker=TrackerConfig(use_hints=True))
    log = run(mk_stream(frames), SemanticSidecar([sidecar_record(5, big)]), cfg)
    assert [(tx.frame_index, tx.track_id) for tx in log.transmissions] == [
        (0, 0),
        (0, 1),
        (0, 2),
        (5, 3),
    ]
    assert [tx.has_semantics for tx in log.transmissions] == [False] * 3 + [True]


def test_hints_then_the_zero_iou_tail_at_iou_min_0():
    # hinted rows claim their tracks first; of the tracks left, a box
    # overlapping nothing still extends the free track at iou_min = 0, in
    # ascending order, and a new hint spawns
    first = [mk_det(0, x=0.0, hint=7), mk_det(0, x=100.0), mk_det(0, x=300.0)]
    second = [
        mk_det(5, x=600.0),
        mk_det(5, x=2.0, hint=7),
        mk_det(5, x=900.0),
        mk_det(5, x=303.0),
        mk_det(5, x=2.0, hint=9),
    ]
    frames = [(0, first), (5, second), (10, [mk_det(10, x=1000.0)])]
    cfg = low_regime_cfg("preset_permissive", cooldown_frames=0)
    cfg = replace(cfg, tracker=TrackerConfig(use_hints=True, iou_min=0.0))
    log = run(mk_stream(frames), None, cfg)
    tracks = sorted((tx.frame_index, tx.bbox.x, tx.track_id) for tx in log.transmissions)
    assert tracks == [
        (0, 0.0, 0),
        (0, 100.0, 1),
        (0, 300.0, 2),
        (5, 2.0, 0),
        (5, 2.0, 3),
        (5, 303.0, 2),
        (5, 600.0, 1),
        (5, 900.0, 4),
        (10, 1000.0, 0),
    ]


#: sha256 of the run log of a ``from_frames`` stream with integer boxes, an
#: ``int`` confidence and hints of ``2**64`` and ``None``, under hint
#: association with a sidecar, pinned while such a stream kept its
#: ``Detection`` objects.
OBJECT_STREAM_RUNLOG_SHA256 = "7ac4ec7d144b5d041f77ad6e53c72d088356c398990044b7ccca5ff82a9a9624"


@pytest.mark.parametrize("block_frames", BLOCK_FRAMES)
def test_object_stream_runlog_keeps_its_bytes(monkeypatch, block_frames):
    monkeypatch.setattr(engine, "_BLOCK_FRAMES", block_frames)
    big = 2**64
    frames = [
        (
            f,
            [
                mk_det(f, x=40 + 3 * f, y=20, w=12, h=9, conf=1, cls=2, hint=big),
                mk_det(f, x=300, y=100 + f, w=30, h=16, conf=0.55, cls=4),
            ],
        )
        for f in (0, 5, 10, 15)
    ]
    sidecar = SemanticSidecar([sidecar_record(5, big, payload=700), sidecar_record(10, 1)])
    cfg = low_regime_cfg("preset_permissive", cooldown_frames=0)
    cfg = replace(cfg, tracker=TrackerConfig(use_hints=True))
    log = run(mk_stream(frames), sidecar, cfg)
    assert [tx.cost_bits for tx in log.transmissions if tx.frame_index == 5][1] == 5600.0
    digest = hashlib.sha256(("\n".join(to_jsonl_lines(log)) + "\n").encode()).hexdigest()
    assert digest == OBJECT_STREAM_RUNLOG_SHA256


def test_a_parsed_stream_is_tracked_without_detection_objects(monkeypatch):
    stream = parse_generic_csv(write_generic_csv(synthetic()))

    def refused(*args):
        raise AssertionError("a Detection was built")

    monkeypatch.setattr(ingest, "Detection", refused)
    tracker = engine.Tracker(TrackerConfig(use_hints=True))
    steps = [tracker.step(f, stream.block_at(f)) for f in range(0, 60, 5)]
    assert sum(int(step.is_new.sum()) for step in steps) > 0
    with pytest.raises(AssertionError, match="a Detection was built"):
        steps[-1][0]


@pytest.mark.parametrize("huge", [2**63 - 1, 2**63])
def test_huge_cooldown_and_period_compare_exactly(huge):
    # a never-refined track stays novel and a refined one stays in its
    # cooldown, however long; M1's period is compared exactly too
    frames = [(f, [mk_det(f, x=50.0, conf=0.5)]) for f in range(0, 30, 5)]
    log = run(mk_stream(frames), None, low_regime_cfg("M5", cooldown_frames=huge))
    assert [tx.n_term for tx in log.transmissions] == [1.0] + [0.0] * 5
    log = run(mk_stream(frames), None, low_regime_cfg("M1", period_frames=huge))
    assert not log.transmissions


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    stride=st.integers(1, 5),
    int_boxes=st.booleans(),
    policy=st.fixed_dictionaries(
        {
            "period_frames": st.integers(1, 20),
            "conf_threshold": st.floats(0.0, 1.0),
            "area_threshold": st.sampled_from([50.0, 400.0, 1024, 3000.0]),
            "score_threshold": st.sampled_from([0.0, 1e-5, 5e-5]),
            "top_k": st.none() | st.integers(1, 4),
            "cooldown_frames": st.integers(0, 20),
            "weights": st.tuples(*[st.sampled_from([0.0, 0.2, 0.5, 1, 2.5])] * 3),
        }
    ),
    b_roi=st.sampled_from([0.0, 3000.0, 20_000.0, 150_000.0]),
)
def test_random_sweeps_match_the_scalar_pass(seed, stride, int_boxes, policy, b_roi):
    # the conftest fixture compares every variant's pass with the scalar
    # one; this test only makes the inputs varied: integer boxes give tied
    # areas and scores, a small b_roi binds the ledger
    clock = FrameClock(fps=15.0, frame_stride=stride)
    stream = gen_synthetic(seed=seed, n_frames=30, mean_objects=4.0, clock=clock)
    if int_boxes:
        stream = mk_stream(
            (
                (f, [replace(d, bbox=BBox(*(max(1, round(v)) for v in astuple(d.bbox)))) for d in dets])
                for f, dets in stream.frames
            ),
            clock=clock,
        )
    base = replace(
        low_regime_cfg("M5", **policy),
        clock=clock,
        budget=BudgetConfig(b_total=0.8e6, b_video=0.65e6, b_roi=b_roi, window_s=2.0),
    )
    logs = list(sweep(stream, None, base, list(POLICY_VARIANTS)))
    assert len(logs) == len(POLICY_VARIANTS)
