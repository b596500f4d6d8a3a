"""Acceptance gate: ten end-to-end checks, one verdict line each.

Each check prints ``ACCEPTANCE C<n> PASS|FAIL`` with capture suspended so
the verdicts stay visible in ordinary captured pytest runs. Tolerances are
pinned as constants next to the values they guard; the numeric targets are
the pilot-deployment report values this simulator is built to reproduce
arithmetically.
"""

import math
import random
from dataclasses import replace

import pytest

from roitel import (
    BBox,
    BudgetConfig,
    BudgetLedger,
    Detection,
    FrameClock,
    PolicyConfig,
    RunLog,
    SemanticRecord,
    SemanticSidecar,
    Tracker,
    TrackerConfig,
    TransmissionRecord,
    aggregate,
    aggregate_run,
    decide,
    gen_synthetic,
    run,
)
from roitel.budget import LedgerView
from roitel.cli import main as cli_main
from roitel.domain import DEFAULT_WEIGHTS
from roitel.policy import RoiCandidate
from roitel.runlog import CLASS_SOURCE_STILL
from helpers import (
    CandidateContext,
    as_block,
    iou,
    low_regime_cfg,
    mk_det,
    mk_stream,
    score_roi,
)

# pilot report targets and tolerances
RATE_TOL_HZ = 0.005
BITRATE_TOL_MBPS = 0.0002
SHARE_TOL = 0.0005
RATIO_TOL = 0.001

PILOT_BASE_BPS = 0.801e6
PILOT_DURATION_S = 52.54


@pytest.fixture
def checked(capfd):
    """Run a check body and print its ACCEPTANCE verdict past capture."""

    def _verdict(cid: str, ok: bool) -> None:
        with capfd.disabled():
            print(f"ACCEPTANCE {cid} {'PASS' if ok else 'FAIL'}", flush=True)

    def _run(cid: str, body) -> None:
        try:
            body()
        except BaseException:
            _verdict(cid, False)
            raise
        _verdict(cid, True)

    return _run


def _uniform_log(n_tx: int, payload_bytes: float) -> RunLog:
    log = RunLog(
        variant="X",
        clock=FrameClock(fps=15.0, frame_stride=5),
        budget=BudgetConfig(b_total=0.8e6, b_video=0.65e6, b_roi=0.15e6),
        base_bitrate_bps=PILOT_BASE_BPS,
        raw_candidate_count=325,
        processed_frame_indices=tuple(range(0, 300, 5)),
    )
    for i in range(n_tx):
        log.transmissions.append(
            TransmissionRecord(
                frame_index=(i % 60) * 5,
                t_s=(i % 60) / 3.0,
                track_id=i,
                bbox=BBox(0.0, 0.0, 20.0, 20.0),
                cost_bits=payload_bytes * 8.0,
                score=1e-4,
                u_term=0.5,
                s_small_term=0.5,
                n_term=1.0,
            )
        )
    return log


def test_c1_pilot_rate_bitrate_share_identities(checked):
    def body():
        for n_tx, payload, rate, mbps, share in (
            (59, 1364.0, 1.123, 0.0123, 0.0151),
            (110, 1540.0, 2.094, 0.0258, 0.0312),
        ):
            rep = aggregate(_uniform_log(n_tx, payload), PILOT_BASE_BPS, PILOT_DURATION_S)
            assert abs(rep.roi_rate_hz - rate) <= RATE_TOL_HZ, rep.roi_rate_hz
            assert abs(rep.roi_bitrate_bps / 1e6 - mbps) <= BITRATE_TOL_MBPS
            assert abs(rep.bitrate_share - share) <= SHARE_TOL
            assert rep.mean_payload_bytes == payload

    checked("C1", body)


def test_c2_selection_ratio_and_coverage_identities(checked):
    def body():
        # sparse selectors touch distinct frames; dense ones wrap around
        for n_tx, ratio, coverage in (
            (59, 0.182, 59 / 60),
            (57, 0.175, 57 / 60),
            (110, 0.338, None),
            (178, 0.548, None),
        ):
            log = _uniform_log(n_tx, 1400.0)
            if coverage is not None:
                # one transmission per processed frame for the first n_tx frames
                log.transmissions = [
                    tx._replace(frame_index=i * 5) for i, tx in enumerate(log.transmissions)
                ]
            rep = aggregate(log, PILOT_BASE_BPS, PILOT_DURATION_S)
            assert rep.selected_rois == n_tx
            assert abs(rep.selection_ratio - ratio) <= RATIO_TOL, (n_tx, rep.selection_ratio)
            if coverage is not None:
                assert abs(rep.frame_coverage - coverage) <= RATIO_TOL

    checked("C2", body)


def test_c3_rolling_window_is_never_overdrawn(checked):
    def body():
        rng = random.Random(1234)
        violations = []
        for trace in range(1000):
            window_s = rng.choice([0.5, 1.0, 2.0, 4.0])
            b_roi = float(rng.randint(1_000, 40_000))
            ledger = BudgetLedger(b_roi, window_s)
            cap = b_roi * window_s
            integer_bits = trace % 10 < 7  # mix exact and fractional payloads
            t = 0.0
            history: list[tuple[float, float]] = []
            for _ in range(rng.randint(20, 120)):
                t += rng.uniform(0.01, 0.8)
                if integer_bits:
                    bits = float(rng.randint(100, 20_000))
                else:
                    bits = rng.uniform(100.0, 20_000.0)
                if ledger.admits(t, bits):
                    ledger.commit(t, bits)
                    history.append((t, bits))
            # independent trailing-window account over the full history
            for i, (t_i, _) in enumerate(history):
                window = sum(
                    b for t_j, b in history[: i + 1] if t_i - window_s < t_j <= t_i
                )
                if window > cap:
                    violations.append((trace, t_i, window, cap))
        assert not violations, (
            f"{len(violations)} trailing-window overdraws; first: "
            f"trace={violations[0][0]} t={violations[0][1]:.3f} "
            f"window_bits={violations[0][2]:.1f} cap_bits={violations[0][3]:.1f}"
        )

    checked("C3", body)


def test_c4_utility_policy_matches_exhaustive_search(checked):
    def body():
        rng = random.Random(77)
        steps = 600
        for _ in range(steps):
            n = rng.randint(0, 8)
            contexts = []
            for tid in range(n):
                cost = rng.uniform(100.0, 5000.0)
                u, s = rng.random(), rng.random()
                nv = float(rng.randint(0, 1))
                cand = RoiCandidate(
                    frame_index=0,
                    track_id=tid,
                    bbox=BBox(0.0, 0.0, 10.0, 10.0),
                    u_term=u,
                    s_small_term=s,
                    n_term=nv,
                    cost_bits=cost,
                    score=score_roi(u, s, nv, cost, DEFAULT_WEIGHTS),
                )
                contexts.append(
                    CandidateContext(
                        candidate=cand,
                        confidence=rng.random(),
                        created_frame=0,
                        last_refined_frame=None,
                    )
                )
            threshold = rng.uniform(0.0, 3e-4)
            cap = rng.uniform(500.0, 6000.0)
            used = rng.uniform(0.0, cap)
            view = LedgerView(window_sum_bits=used, cap_bits=cap)
            cfg = PolicyConfig(variant="M5", score_threshold=threshold)

            rows = decide(0, as_block(0, contexts), view, cfg).selected
            got = tuple(contexts[row].candidate for row in rows)

            admissible = [
                ctx.candidate
                for ctx in contexts
                if ctx.candidate.score > threshold
                and used + ctx.candidate.cost_bits <= cap
            ]
            if not admissible:
                assert got == ()
            else:
                best = sorted(admissible, key=lambda c: (-c.score, c.track_id))[0]
                assert got == (best,)

    checked("C4", body)


def test_c5_disabled_policy_costs_exactly_the_base_stream(checked):
    def body():
        budgets = [
            BudgetConfig(b_total=0.80e6, b_video=0.80e6, b_roi=0.0),
            BudgetConfig(b_total=0.80e6, b_video=0.65e6, b_roi=0.15e6),
            BudgetConfig(b_total=1.40e6, b_video=1.40e6, b_roi=0.0),
            BudgetConfig(b_total=1.40e6, b_video=1.20e6, b_roi=0.20e6),
        ]
        for seed in range(100):
            stream = gen_synthetic(
                seed=seed, n_frames=60, mean_objects=1.0 + seed % 7, clock=FrameClock()
            )
            cfg = replace(low_regime_cfg("M0"), budget=budgets[seed % 4])
            log = run(stream, None, cfg)
            assert log.transmissions == []
            assert math.fsum(tx.cost_bits for tx in log.transmissions) == 0.0
            rep = aggregate(log, log.base_bitrate_bps, 10.0)
            assert rep.roi_bitrate_bps == 0.0
            assert rep.base_bitrate_bps == cfg.budget.b_video

    checked("C5", body)


def test_c6_matched_budget_holds_across_regimes_and_policies(checked):
    def body():
        budgets = [
            BudgetConfig(b_total=0.80e6, b_video=0.80e6, b_roi=0.0),
            BudgetConfig(b_total=0.80e6, b_video=0.65e6, b_roi=0.15e6),
            BudgetConfig(b_total=1.40e6, b_video=1.40e6, b_roi=0.0),
            BudgetConfig(b_total=1.40e6, b_video=1.20e6, b_roi=0.20e6),
        ]
        policies = [
            PolicyConfig(variant="M0"),
            PolicyConfig(variant="M1", period_frames=15),
            PolicyConfig(variant="M2"),
            PolicyConfig(variant="M3", conf_threshold=0.5),
            PolicyConfig(variant="M4", area_threshold=1024.0),
            PolicyConfig(variant="M5", score_threshold=0.0),
            PolicyConfig(variant="preset_permissive"),
            PolicyConfig(variant="preset_conf_size_top1"),
            PolicyConfig(variant="preset_strict_small_only"),
            PolicyConfig(variant="preset_balanced_top2"),
        ]
        for seed in (1, 2, 3):
            stream = gen_synthetic(
                seed=seed, n_frames=300, mean_objects=5.0, clock=FrameClock()
            )
            for budget in budgets:
                for pol in policies:
                    cfg = replace(low_regime_cfg("M0"), budget=budget, policy=pol)
                    rep = aggregate_run(run(stream, None, cfg))
                    total = rep.base_bitrate_bps + rep.roi_bitrate_bps
                    assert total <= budget.b_total + 1e-9, (
                        f"{pol.variant} under {budget.b_video/1e6:.2f}/"
                        f"{budget.b_roi/1e6:.2f} Mbps spent {total/1e6:.4f} Mbps"
                    )

    checked("C6", body)


def test_c7_score_unit_value_and_homogeneity(checked):
    def body():
        assert score_roi(0.8, 0.5, 1.0, 10000.0, DEFAULT_WEIGHTS) == 7.5e-5
        base = score_roi(0.8, 0.5, 1.0, 10000.0, DEFAULT_WEIGHTS)
        assert score_roi(0.8, 0.5, 1.0, 2.0 * 10000.0, DEFAULT_WEIGHTS) == base / 2.0
        assert math.isclose(
            score_roi(0.8, 0.5, 1.0, 10.0 * 10000.0, DEFAULT_WEIGHTS),
            base / 10.0,
            rel_tol=1e-12,
        )

    checked("C7", body)


def test_c8_still_labels_replace_video_labels_at_transmission(checked):
    def body():
        hints = (10, 20, 30)
        frames = []
        for f in range(0, 60, 5):
            dets = [
                mk_det(f, x=200.0 * i, y=50.0, conf=0.5, cls=4, hint=h)
                for i, h in enumerate(hints)
            ]
            frames.append((f, dets))
        stream = mk_stream(frames)

        records = []
        for f in (15, 30, 45):
            for h in hints:
                records.append(
                    SemanticRecord(
                        frame_index=f,
                        track_id=h,
                        video_conf=0.2,
                        still_conf=0.6,
                        video_label=4,
                        still_label=100 + f + h,  # always a new label
                        video_entropy=2.0,
                        still_entropy=0.5,
                    )
                )
        sidecar = SemanticSidecar(records)

        log = run(stream, sidecar, low_regime_cfg("M1", period_frames=15))
        assert len(log.transmissions) == 9  # 3 tracks x 3 refresh points
        assert all(tx.has_semantics for tx in log.transmissions)

        rep = aggregate_run(log)
        assert rep.prediction_change_rate == 1.0

        still_events = [ev for ev in log.class_events if ev.source == CLASS_SOURCE_STILL]
        assert {(ev.track_id, ev.frame_index) for ev in still_events} == {
            (tx.track_id, tx.frame_index) for tx in log.transmissions
        }
        # each timeline switch carries the transmitted label
        by_key = {(tx.track_id, tx.frame_index): tx.still_label for tx in log.transmissions}
        for ev in still_events:
            assert ev.label == by_key[(ev.track_id, ev.frame_index)]

    checked("C8", body)


def test_c9_sweeps_are_byte_reproducible(checked, tmp_path):
    def body():
        src = tmp_path / "detections.csv"
        assert (
            cli_main(
                ["gen-synthetic", "--seed", "1", "--n-frames", "300", "--out", str(src)]
            )
            == 0
        )
        dirs = (tmp_path / "first", tmp_path / "second")
        for out_dir in dirs:
            rc = cli_main(
                [
                    "sweep",
                    "--input",
                    str(src),
                    "--variants",
                    "M0,M1,M2,M5,preset_permissive,preset_conf_size_top1,"
                    "preset_strict_small_only,preset_balanced_top2",
                    "--set",
                    "policy.score_threshold=0.0",
                    "--out-dir",
                    str(out_dir),
                ]
            )
            assert rc == 0
        names = sorted(p.name for p in dirs[0].iterdir())
        assert sorted(p.name for p in dirs[1].iterdir()) == names
        assert "report.csv" in names and "selection.csv" in names
        for name in names:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name

    checked("C9", body)


def test_c10_association_matches_exhaustive_greedy(checked):
    def body():
        rng = random.Random(4242)

        def rand_box():
            return BBox(
                rng.uniform(0.0, 100.0),
                rng.uniform(0.0, 100.0),
                rng.uniform(5.0, 40.0),
                rng.uniform(5.0, 40.0),
            )

        for _ in range(500):
            n_tracks = rng.randint(0, 6)
            n_dets = rng.randint(0, 6)
            iou_min = rng.choice([0.1, 0.3, 0.5])
            prev = [rand_box() for _ in range(n_tracks)]
            new = [rand_box() for _ in range(n_dets)]

            tracker = Tracker(TrackerConfig(iou_min=iou_min))
            tracker.step(0, [Detection(0, b, 0.9, 0) for b in prev])
            out = tracker.step(1, [Detection(1, b, 0.9, 0) for b in new])

            # exhaustive greedy: scan all pairs by IoU desc, row, col
            pairs = [
                (iou(prev[ti], new[di]), ti, di)
                for ti in range(n_tracks)
                for di in range(n_dets)
                if iou(prev[ti], new[di]) >= iou_min
            ]
            pairs.sort(key=lambda p: (-p[0], p[1], p[2]))
            used_t, used_d, expected = set(), set(), {}
            for _, ti, di in pairs:
                if ti not in used_t and di not in used_d:
                    used_t.add(ti)
                    used_d.add(di)
                    expected[di] = ti
            next_id = n_tracks
            for di in range(n_dets):
                if di not in expected:
                    expected[di] = next_id
                    next_id += 1

            got = {i: tid for i, (_, tid, _) in enumerate(out)}
            assert got == expected, (prev, new, iou_min)
            for i, (_, tid, is_new) in enumerate(out):
                assert is_new == (tid >= n_tracks)

        # ids are never reused, even across retirement churn
        for seed in range(30):
            r = random.Random(seed)
            tracker = Tracker(TrackerConfig(max_misses=0))
            seen: set[int] = set()
            high_water = -1
            for f in range(40):
                dets = [Detection(f, rand_box(), 0.9, 0) for _ in range(r.randint(0, 4))]
                for _, tid, is_new in tracker.step(f, dets):
                    if is_new:
                        assert tid > high_water
                        high_water = tid
                    assert not (is_new and tid in seen)
                    seen.add(tid)

    checked("C10", body)
