import hashlib
import json
import os
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import pytest

import roitel
from roitel import (
    FrameClock,
    _text,
    cli,
    engine,
    gen_synthetic,
    ingest,
    metrics,
    read_jsonl,
    runlog,
    semantic,
)
from roitel.cli import main
from roitel.metrics import REPORT_COLUMNS
from helpers import block_verdicts


@pytest.fixture()
def detections_csv(tmp_path):
    path = tmp_path / "detections.csv"
    rc = main(
        [
            "gen-synthetic",
            "--seed",
            "1",
            "--n-frames",
            "300",
            "--mean-objects",
            "5.0",
            "--out",
            str(path),
        ]
    )
    assert rc == 0
    return path


def simulate(tmp_path, detections_csv, *extra):
    out_dir = tmp_path / "out"
    argv = [
        "simulate",
        "--input",
        str(detections_csv),
        "--out-dir",
        str(out_dir),
        "--set",
        "policy.score_threshold=0.0",
        *extra,
    ]
    return main(argv), out_dir


# --- gen-synthetic ------------------------------------------------------------


def test_gen_synthetic_stdout(capsys):
    assert main(["gen-synthetic", "--n-frames", "60", "--out", "-"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# roitel detections v1\n")
    assert "# clock: fps=15.0 stride=5" in out


def test_gen_synthetic_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["gen-synthetic", "--out", str(a)]) == 0
    assert main(["gen-synthetic", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


#: sha256 of ``gen-synthetic --seed 1``, pinned while the generator still
#: built a ``Detection`` per row.
GEN_SYNTHETIC_SEED_1_SHA256 = "1aa825a37339f22a99dc42bdee65ddfa16a7963062de5da5410fc531fcc4c86f"


def test_gen_synthetic_keeps_its_bytes(tmp_path):
    path = tmp_path / "d.csv"
    assert main(["gen-synthetic", "--seed", "1", "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GEN_SYNTHETIC_SEED_1_SHA256


@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("--mean-objects", "inf", "mean_objects must be finite, got inf"),
        ("--mean-objects", "nan", "mean_objects must be finite, got nan"),
        ("--fps", "inf", "fps must be finite, got inf"),
        ("--mean-objects", "1e307", "object count is not finite: mean_objects=1e+307"),
    ],
)
def test_gen_synthetic_refuses_non_finite_values(tmp_path, capsys, flag, value, message):
    out = tmp_path / "d.csv"
    assert main(["gen-synthetic", flag, value, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("--stride", str(2**63), f"frame_stride outside int64: {2**63}"),
        ("--n-frames", str(10**400), f"frame index outside int64: {10**400 - 1}"),
    ],
    ids=["stride", "n_frames"],
)
def test_gen_synthetic_refuses_values_beyond_int64(tmp_path, capsys, flag, value, message):
    out = tmp_path / "d.csv"
    assert main(["gen-synthetic", flag, value, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_gen_synthetic_golden_row_count(detections_csv):
    rows = [
        ln
        for ln in detections_csv.read_text().splitlines()
        if ln and not ln.startswith("#")
    ]
    assert len(rows) == 1355  # seed 1, 300 frames, 5 mean objects


# --- simulate -----------------------------------------------------------------


def test_simulate_writes_runlog_and_report(tmp_path, detections_csv, capsys):
    rc, out_dir = simulate(tmp_path, detections_csv)
    assert rc == 0
    captured = capsys.readouterr()
    assert (out_dir / "runlog.jsonl").is_file()
    assert (out_dir / "report.csv").is_file()
    for column in REPORT_COLUMNS:
        assert f"{column} = " in captured.out
    assert "policy = M5" in captured.out
    assert "wrote" in captured.err

    log = read_jsonl((out_dir / "runlog.jsonl").read_text())
    assert log.variant == "M5"
    # seed-1 synthetic starts at frame 10 once empty frames are dropped,
    # so the strided walk covers 10..295
    assert log.processed_frames == 58
    assert (log.first_frame, log.last_frame) == (10, 299)
    assert len(log.transmissions) > 0
    assert log.config_echo["policy.score_threshold"] == "0.0"


def test_simulate_semantic_columns_absent_without_sidecar(tmp_path, detections_csv, capsys):
    rc, _ = simulate(tmp_path, detections_csv)
    assert rc == 0
    out = capsys.readouterr().out
    assert "video_conf = n/a" in out
    assert "still_conf = n/a" in out


def test_simulate_report_format_markdown(tmp_path, detections_csv):
    rc, out_dir = simulate(tmp_path, detections_csv, "--report-format", "markdown")
    assert rc == 0
    assert (out_dir / "report.md").is_file()
    assert (out_dir / "report.md").read_text().startswith("| policy |")


def test_simulate_default_m5_needs_its_threshold(tmp_path, detections_csv, capsys):
    out_dir = tmp_path / "out"
    rc = main(
        ["simulate", "--input", str(detections_csv), "--out-dir", str(out_dir)]
    )
    assert rc == 1
    assert "score_threshold" in capsys.readouterr().err


def test_simulate_unknown_set_key_fails(tmp_path, detections_csv, capsys):
    rc, _ = simulate(tmp_path, detections_csv, "--set", "policy.scorethreshold=0")
    assert rc == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_simulate_first_bad_section_sets_the_exit_code(tmp_path, detections_csv, capsys):
    rc, _ = simulate(
        tmp_path, detections_csv, "--set", "clock.fps=0", "--set", "budget.b_total=-1"
    )
    assert rc == 1
    assert "fps must be > 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "setting,message",
    [
        ("tracker.iou_min=1.5", "iou_min must be in [0,1], got 1.5"),
        ("tracker.iou_min=-0.1", "iou_min must be in [0,1], got -0.1"),
        ("tracker.max_misses=-1", "max_misses must be >= 0, got -1"),
        ("policy.area_threshold=0", "area_threshold must be > 0, got 0.0"),
        ("policy.cooldown_frames=-1", "cooldown_frames must be >= 0, got -1"),
        ("base_bitrate_measured=-1", "base_bitrate_measured must be >= 0, got -1.0"),
        (f"clock.frame_stride={2**63}", f"frame_stride outside int64: {2**63}"),
    ],
)
def test_an_out_of_range_setting_exits_1(tmp_path, detections_csv, capsys, setting, message):
    rc, out_dir = simulate(tmp_path, detections_csv, "--set", setting)
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_dir.exists()


def test_simulate_rejects_a_non_finite_budget(tmp_path, detections_csv, capsys):
    rc, _ = simulate(tmp_path, detections_csv, "--set", "budget.b_total=nan")
    assert rc == 1
    assert "error: bad value for budget.b_total: 'nan'" in capsys.readouterr().err


def test_simulate_budget_violation_exits_2(tmp_path, detections_csv, capsys):
    rc, _ = simulate(tmp_path, detections_csv, "--set", "budget.b_video=900000")
    assert rc == 2
    assert "budget violation" in capsys.readouterr().err


def test_simulate_parse_error_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("0,-1,10,20,30,40,1.5,2\n")
    rc = main(
        [
            "simulate",
            "--input",
            str(bad),
            "--out-dir",
            str(tmp_path / "out"),
            "--set",
            "policy.score_threshold=0.0",
        ]
    )
    assert rc == 1
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "detections,sidecar,message",
    [
        ("0,-1,10,20,30,40,0.9,1\n0,-1,90,20,30,40,0.9,1e20\n", None, "line 2: class"),
        ("1e20,-1,10,20,30,40,0.9,1\n", None, "line 1: frame"),
        ("0,4,10,20,30,40,0.9,1\n", "0,4,0.2,0.35,7,1e20,1.9,1.1\n", "line 1: still_label"),
    ],
)
def test_an_id_beyond_int64_is_a_parse_error(tmp_path, capsys, detections, sidecar, message):
    message += " outside int64: 100000000000000000000"
    dets = tmp_path / "dets.csv"
    dets.write_text(detections)
    extra, bad = [], dets
    if sidecar is not None:
        bad = tmp_path / "side.csv"
        bad.write_text(sidecar)
        extra = ["--sidecar", str(bad)]
    rc, out_dir = simulate(tmp_path, dets, *extra)
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_dir.exists()
    assert main(["validate", "--input", str(dets), *extra]) == 1
    assert f"violation: {bad}: {message}\n" in capsys.readouterr().err


def test_simulate_missing_input_exits_1(tmp_path, capsys):
    rc = main(
        [
            "simulate",
            "--input",
            str(tmp_path / "nope.csv"),
            "--out-dir",
            str(tmp_path / "out"),
        ]
    )
    assert rc == 1


def not_utf8(path):
    """``path`` with byte 0xe9, which is not UTF-8, on its last line."""
    path.write_bytes(path.read_bytes() + b"# caf\xe9\n")
    return path


def pad_runlog(path, size=100 * 1024):
    """Repeat the last record of the run log at ``path``, a class event,
    until the log holds at least ``size`` bytes."""
    text = path.read_text()
    last = text.splitlines()[-1] + "\n"
    path.write_text(text + last * (size // len(last) + 1))
    return path


@pytest.mark.parametrize(
    "kind,command",
    [
        ("input", "simulate"),
        ("input", "sweep"),
        ("input", "validate"),
        ("sidecar", "simulate"),
        ("sidecar", "validate"),
        ("config", "simulate"),
        ("report", "report"),
        # the reader has decoded its first block when it meets the byte
        ("late report", "report"),
    ],
)
def test_a_file_that_is_not_utf8_exits_1_naming_it(
    tmp_path, detections_csv, capsys, kind, command
):
    side = tmp_path / "side.csv"
    side.write_text("0,1,0.2,0.35,7,7,1.9,1.1\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("policy.score_threshold = 0.0\n")
    bad = {"input": detections_csv, "sidecar": side, "config": cfg}.get(kind)
    if command == "report":
        assert simulate(tmp_path, detections_csv)[0] == 0
        bad = tmp_path / "out" / "runlog.jsonl"
        if kind == "late report":
            pad_runlog(bad)
        argv = ["report", str(bad)]
    else:
        argv = [command, "--input", str(detections_csv), "--sidecar", str(side)]
        if command != "validate":
            argv += ["--out-dir", str(tmp_path / "run"), "--config", str(cfg)]
        if command == "sweep":
            argv += ["--variants", "M5,M0"]
    not_utf8(bad)
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: {bad}: not UTF-8 text: invalid continuation byte (byte 0xe9)\n"


def test_a_clean_simulate_never_calls_the_row_parser(
    tmp_path, detections_csv, monkeypatch
):
    side = tmp_path / "side.csv"
    side.write_text("0,1,0.2,0.35,7,7,1.9,1.1\n")
    calls = []
    monkeypatch.setattr(cli, "_read_text", lambda *args: calls.append(args))
    verdicts = block_verdicts(monkeypatch, ingest, "_block_columns")
    side_verdicts = block_verdicts(monkeypatch, semantic, "_sidecar_block")
    rc, _ = simulate(tmp_path, detections_csv, "--sidecar", str(side))
    assert rc == 0
    assert calls == []
    assert verdicts and all(verdicts)
    assert side_verdicts == [True]


def test_a_clean_report_never_reads_a_whole_log(tmp_path, detections_csv, monkeypatch, capsys):
    out_dir = tmp_path / "sweep"
    assert run_sweep(out_dir, detections_csv) == 0
    logs = [str(pad_runlog(out_dir / "runlog_M5.jsonl")), str(out_dir / "runlog_M2.jsonl")]
    calls = []
    monkeypatch.setattr(cli, "_read_text", lambda *args: calls.append(args))
    verdicts = block_verdicts(monkeypatch, runlog, "_block_records")
    capsys.readouterr()
    assert main(["report", *logs]) == 0
    assert calls == []
    assert len(verdicts) > 2 and all(verdicts)


def test_report_reads_a_log_from_a_pipe(tmp_path, detections_csv, capsys):
    rc, out_dir = simulate(tmp_path, detections_csv)
    assert rc == 0
    log_path = out_dir / "runlog.jsonl"
    capsys.readouterr()
    assert main(["report", str(log_path)]) == 0
    expected = capsys.readouterr().out
    # a pipe, which cannot seek, is the child's standard input
    src = str(Path(roitel.__file__).resolve().parent.parent)
    piped = subprocess.run(
        [sys.executable, "-m", "roitel.cli", "report", "/dev/stdin"],
        input=log_path.read_bytes(),
        capture_output=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    assert piped.stdout.decode("utf-8") == expected


def test_simulate_config_file_plus_override(tmp_path, detections_csv):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("policy.variant = M1\npolicy.period_frames = 30\n")
    out_dir = tmp_path / "out"
    rc = main(
        [
            "simulate",
            "--input",
            str(detections_csv),
            "--config",
            str(cfg),
            "--set",
            "policy.period_frames=45",
            "--out-dir",
            str(out_dir),
        ]
    )
    assert rc == 0
    log = read_jsonl((out_dir / "runlog.jsonl").read_text())
    assert log.variant == "M1"
    assert log.config_echo["policy.period_frames"] == "45"


def test_conf_noise_lowers_mean_confidence(tmp_path, detections_csv):
    rc_a, dir_a = simulate(tmp_path / "a", detections_csv)
    rc_b, dir_b = simulate(tmp_path / "b", detections_csv, "--conf-noise", "0.3")
    assert rc_a == rc_b == 0
    clean = read_jsonl((dir_a / "runlog.jsonl").read_text())
    noisy = read_jsonl((dir_b / "runlog.jsonl").read_text())
    assert noisy.detection_conf_mean < clean.detection_conf_mean


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("amount", ["nan", "-1", "inf"])
def test_conf_noise_must_be_finite_and_non_negative(tmp_path, detections_csv, capsys, command, amount):
    argv = [command, "--input", str(detections_csv), "--out-dir", str(tmp_path / "out")]
    argv += ["--set", "policy.score_threshold=0.0", "--conf-noise", amount]
    if command == "sweep":
        argv += ["--variants", "M5,M0"]
    assert main(argv) == 1
    assert "--conf-noise must be finite and >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize(
    "setting,message",
    [
        # the weighted sum overflows on the first frame with a transmission
        ("policy.weights=1.7e308,1.7e308,1.7e308", "score is not finite at frame 10, track 0: inf"),
        # frame 20 / 1e-307 is beyond the float range
        ("clock.fps=1e-307", "t_s is not finite at frame 20: fps is 1e-307"),
    ],
)
def test_a_run_that_overflows_a_record_exits_1_before_writing(
    tmp_path, capsys, command, setting, message
):
    stream = tmp_path / "g60.csv"
    assert main(["gen-synthetic", "--seed", "1", "--n-frames", "60", "--out", str(stream)]) == 0
    argv = [command, "--input", str(stream), "--out-dir", str(tmp_path / "out")]
    argv += ["--set", "policy.score_threshold=0.0", "--set", setting]
    if command == "sweep":
        argv += ["--variants", "M5,M0"]
    capsys.readouterr()
    # warnings are errors in this suite, so an overflow warning fails here too
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_sweep_fails_as_simulate_of_its_first_variant_does(tmp_path, capsys):
    # frame 0's box costs 0.0 bits, which scheduling refuses; frame 5's cost
    # is beyond the float range, which association refuses
    stream = tmp_path / "bad.csv"
    stream.write_text("0,1,10,10,1e-200,1e-200,0.5,1\n5,2,10,10,9e153,9e153,0.5,1\n")
    sets = ["cost.pad_ratio=10", "cost.header_bytes=0", "policy.variant=M4"]
    sets += ["policy.area_threshold=1500", "eval.duration_s=1"]
    errors = []
    for command in (["simulate"], ["sweep", "--variants", "M4,M0"]):
        out = tmp_path / command[0]
        argv = [*command, "--input", str(stream), "--out-dir", str(out)]
        argv += [arg for item in sets for arg in ("--set", item)]
        capsys.readouterr()
        assert main(argv) == 1
        errors.append(capsys.readouterr().err)
        assert not out.exists()
    assert errors == ["error: cost_bits must be > 0, got 0.0\n"] * 2


def tracks_at_0_and_5(n: int) -> str:
    """Tracks 1..n at frames 0 and 5, which the default clock processes."""
    return "".join(f"{f},{t},{90 * t},10,20,20,0.5,1\n" for f in (0, 5) for t in range(1, n + 1))


TWO_TRACKS = tracks_at_0_and_5(2)


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize(
    "stream,sidecar,settings,message",
    [
        # 2 ROIs over 1e-320 s
        (
            TWO_TRACKS,
            None,
            ["eval.duration_s=1e-320"],
            "roi_rate_hz = inf is not finite for duration_s = 1e-320",
        ),
        # a duration derived from the frame span: 5 frames at 1e308 fps
        (
            TWO_TRACKS,
            None,
            ["clock.fps=1e308", "budget.b_roi=1e300", "budget.b_total=1e301"],
            "roi_bitrate_bps = inf is not finite for duration_s = 5e-308",
        ),
        # two entropy gains of 1.7e308, at frame 0, overflow their sum
        (
            TWO_TRACKS,
            "".join(f"0,{t},0.5,0.6,1,1,1.7e308,0\n" for t in (1, 2)),
            [],
            "mean_entropy_gain = inf is not finite for duration_s = 0.3333333333333333",
        ),
        # three costs of 8e307 bits overflow their sum under an infinite cap
        (
            tracks_at_0_and_5(3),
            "".join(f"0,{t},0.5,0.6,1,1,0.5,0.4,{10**307}\n" for t in (1, 2, 3)),
            ["budget.b_roi=1e308", "budget.b_total=1e308", "budget.b_video=0"],
            "roi_bitrate_bps = inf is not finite for duration_s = 0.3333333333333333",
        ),
    ],
    ids=["duration", "derived duration", "entropy sum", "cost sum"],
)
def test_a_report_beyond_the_float_range_exits_1_before_writing_it(
    tmp_path, capsys, command, stream, sidecar, settings, message
):
    dets = tmp_path / "dets.csv"
    dets.write_text(stream)
    out = tmp_path / "out"
    argv = [command, "--input", str(dets), "--out-dir", str(out), "--report-format", "json"]
    if sidecar is not None:
        (tmp_path / "side.csv").write_text(sidecar)
        argv += ["--sidecar", str(tmp_path / "side.csv")]
    # M2 sends each track once, when it is new: the ROIs at frame 0
    argv += ["--variants", "M2"] if command == "sweep" else ["--set", "policy.variant=M2"]
    for setting in settings:
        argv += ["--set", setting]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "validate"])
def test_a_header_beyond_the_float_range_exits_1(tmp_path, detections_csv, capsys, command):
    side = tmp_path / "side.csv"
    side.write_text("0,0,0.2,0.35,7,7,1.9,1.1\n")
    argv = [command, "--input", str(detections_csv), "--set", f"cost.header_bytes={10**400}"]
    if command == "simulate":
        argv += ["--out-dir", str(tmp_path / "out")]
    else:
        argv += ["--sidecar", str(side)]
    assert main(argv) == 1
    assert "header_bytes must be in [0, max float], got 1000" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_zero_conf_noise_is_a_no_op(tmp_path, detections_csv):
    rc_a, dir_a = simulate(tmp_path / "a", detections_csv)
    rc_b, dir_b = simulate(tmp_path / "b", detections_csv, "--conf-noise", "0")
    assert rc_a == rc_b == 0
    assert (dir_a / "runlog.jsonl").read_bytes() == (dir_b / "runlog.jsonl").read_bytes()


def uavdt_csv(tmp_path):
    """A UAVDT ground-truth file (confidence 1.0) of a seeded synthetic stream."""
    stream = gen_synthetic(seed=4, n_frames=200, mean_objects=6.0, clock=FrameClock())
    path = tmp_path / "gt.txt"
    path.write_text(
        "".join(
            f"{d.frame_index + 1},{d.track_hint},{d.bbox.x!r},{d.bbox.y!r},"
            f"{d.bbox.w!r},{d.bbox.h!r},0,1,{d.class_id}\n"
            for _, dets in stream.frames
            for d in dets
        )
    )
    return path


#: sha256 of the run log of ``simulate --conf-noise 0.2 --set seed=3``,
#: pinned before the parsers stored streams as NumPy columns.
CONF_NOISE_RUNLOG_SHA256 = {
    "generic": "02852a4b482a086bacb46d18e1009a2eb3c61112fcb0ed25751fe9d9a7a1a585",
    "uavdt": "90ed24baf4a7848974251bd5d7b5fe1ca44d085cec239ee5feddc640d49abc5b",
}


@pytest.mark.parametrize("fmt", sorted(CONF_NOISE_RUNLOG_SHA256))
def test_conf_noise_runlog_keeps_its_bytes(tmp_path, detections_csv, fmt):
    path = detections_csv if fmt == "generic" else uavdt_csv(tmp_path)
    noise = ("--format", fmt, "--conf-noise", "0.2", "--set", "seed=3")
    rc, out_dir = simulate(tmp_path, path, *noise)
    assert rc == 0
    digest = hashlib.sha256((out_dir / "runlog.jsonl").read_bytes()).hexdigest()
    assert digest == CONF_NOISE_RUNLOG_SHA256[fmt]


def visdrone_txt(tmp_path):
    """A VisDrone file of a seeded synthetic stream in which every fifth
    object is seen twice per frame under its one target id, so hint
    association both extends and spawns tracks."""
    stream = gen_synthetic(seed=5, n_frames=120, mean_objects=8.0, clock=FrameClock())
    lines = []
    for _, dets in stream.frames:
        for d in dets:
            b = d.bbox
            row = f"{d.frame_index + 1},{d.track_hint},{b.x!r},{b.y!r},{b.w!r},{b.h!r}"
            lines.append(f"{row},{d.confidence!r},{d.class_id},0,1\n")
            if d.track_hint % 5 == 0:
                lines.append(f"{d.frame_index + 1},{d.track_hint},{b.x + 3.5!r},{b.y!r},"
                             f"{b.w!r},{b.h!r},{d.confidence / 2!r},{d.class_id},1,0\n")
    path = tmp_path / "vd.txt"
    path.write_text("".join(lines))
    return path


def hintless_csv_and_sidecar(tmp_path):
    """A generic CSV where every third object has no hint, and a sidecar
    keyed by hint where there is one and by a guessed track id elsewhere;
    two in three records carry ``payload_bytes``."""
    stream = gen_synthetic(seed=6, n_frames=150, mean_objects=6.0, clock=FrameClock())
    rows, keys = [], {}
    for frame, dets in stream.frames:
        for d in dets:
            b = d.bbox
            hint = -1 if d.track_hint % 3 == 0 else d.track_hint
            rows.append(f"{frame},{hint},{b.x!r},{b.y!r},{b.w!r},{b.h!r},"
                        f"{d.confidence!r},{d.class_id}\n")
            if frame % 5 == 0:
                keys[(frame, hint if hint >= 0 else d.track_hint % 40)] = len(keys)
    side = []
    for (frame, track), i in keys.items():
        payload = "" if i % 3 == 0 else f",{300 + (i * 53) % 2000}"
        side.append(f"{frame},{track},0.{i % 9 + 1},0.{(i * 7) % 9 + 1},{i % 4},{(i // 2) % 4},"
                    f"{(i % 5) / 4!r},{(i % 3) / 2!r}{payload}\n")
    dets, sidecar = tmp_path / "hintless.csv", tmp_path / "side.csv"
    dets.write_text("".join(rows))
    sidecar.write_text("".join(side))
    return dets, sidecar


#: sha256 of the run logs of three parsed-stream runs that no benchmark
#: workload makes, pinned before association ran on NumPy columns: hint
#: association at stride 1, the zero-IoU pairing of ``iou_min = 0``, and a
#: sidecar run whose costs come from ``payload_bytes`` and ``resize_edge``.
PARSED_RUNLOG_SHA256 = {
    "visdrone_hints": "49cd01cb50c68a34fde6b4f37674471ce003fe5e42c4c53cafc49ce093f89b0c",
    "iou_min_0": "56fc9bbf393a611eead31ac936139a9d9a3bf2137cbb6c3fe35b29d7098c11a6",
    "sidecar_resize": "a1d3051601c18ca3334e8b9575d6bc8b316c7401780f5b1cd9d0a2f3a531eb7f",
}


@pytest.mark.parametrize("case", sorted(PARSED_RUNLOG_SHA256))
def test_parsed_stream_runlogs_keep_their_bytes(tmp_path, detections_csv, case):
    if case == "visdrone_hints":
        extra = ("--format", "visdrone", "--set", "tracker.use_hints=true")
        extra += ("--set", "clock.frame_stride=1")
        rc, out_dir = simulate(tmp_path, visdrone_txt(tmp_path), *extra)
    elif case == "iou_min_0":
        rc, out_dir = simulate(tmp_path, detections_csv, "--set", "tracker.iou_min=0")
    else:
        dets, side = hintless_csv_and_sidecar(tmp_path)
        extra = ("--sidecar", str(side), "--set", "cost.resize_edge=96")
        extra += ("--set", "tracker.max_misses=0")
        rc, out_dir = simulate(tmp_path, dets, *extra)
    assert rc == 0
    digest = hashlib.sha256((out_dir / "runlog.jsonl").read_bytes()).hexdigest()
    assert digest == PARSED_RUNLOG_SHA256[case]


def test_clock_comment_sets_the_run_clock(tmp_path):
    """Per key: --set beats --config, which beats the file's clock comment,
    which beats the schema default."""
    path = tmp_path / "d.csv"
    argv = ["gen-synthetic", "--seed", "1", "--n-frames", "60", "--fps", "30", "--stride", "1"]
    assert main([*argv, "--out", str(path)]) == 0
    bare = tmp_path / "bare.csv"
    bare.write_text("".join(ln for ln in path.read_text().splitlines(True) if ln[0] != "#"))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("clock.frame_stride = 2\n")

    def run_clock(path, *extra):
        rc, out_dir = simulate(tmp_path, path, *extra)
        assert rc == 0
        log = read_jsonl((out_dir / "runlog.jsonl").read_text())
        # the config echo records the clock the run used
        assert log.config_echo["clock.fps"] == repr(log.clock.fps)
        assert log.config_echo["clock.frame_stride"] == str(log.clock.frame_stride)
        stride = log.clock.frame_stride
        assert log.processed_frame_indices[0] == log.first_frame + -log.first_frame % stride
        return log.clock.fps, stride

    assert run_clock(path) == (30.0, 1)
    assert run_clock(path, "--config", str(cfg)) == (30.0, 2)
    assert run_clock(path, "--config", str(cfg), "--set", "clock.frame_stride=5") == (30.0, 5)
    assert run_clock(path, "--set", "clock.fps=10") == (10.0, 1)
    assert run_clock(bare) == (15.0, 5)


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["simulate"])  # missing required arguments
    assert exc.value.code == 2


# --- sweep --------------------------------------------------------------------


def run_sweep(out_dir, detections_csv, *extra):
    return main(
        [
            "sweep",
            "--input",
            str(detections_csv),
            "--variants",
            "M0,M2,M5",
            "--set",
            "policy.score_threshold=0.0",
            "--out-dir",
            str(out_dir),
            *extra,
        ]
    )


def test_sweep_writes_per_variant_logs_and_tables(tmp_path, detections_csv, capsys):
    out_dir = tmp_path / "sweep"
    assert run_sweep(out_dir, detections_csv) == 0
    captured = capsys.readouterr()
    for v in ("M0", "M2", "M5"):
        assert (out_dir / f"runlog_{v}.jsonl").is_file()
    assert (out_dir / "report.csv").is_file()
    assert (out_dir / "selection.csv").is_file()
    assert "policy,rois," in captured.out
    assert "policy,selected_rois," in captured.out
    m0 = read_jsonl((out_dir / "runlog_M0.jsonl").read_text())
    assert m0.transmissions == []


def test_sweep_is_byte_deterministic(tmp_path, detections_csv):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert run_sweep(dir_a, detections_csv) == 0
    assert run_sweep(dir_b, detections_csv) == 0
    names = sorted(p.name for p in dir_a.iterdir())
    assert names == sorted(p.name for p in dir_b.iterdir())
    for name in names:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name


def test_sweep_rejects_empty_variant_list(tmp_path, detections_csv, capsys):
    rc = main(
        [
            "sweep",
            "--input",
            str(detections_csv),
            "--variants",
            " , ",
            "--out-dir",
            str(tmp_path / "o"),
        ]
    )
    assert rc == 1
    assert "at least one variant" in capsys.readouterr().err


def test_sweep_refuses_a_repeated_variant_before_reading_input(tmp_path, detections_csv, capsys):
    out_dir = tmp_path / "o"
    for path in (detections_csv, tmp_path / "missing.csv"):
        argv = ["sweep", "--input", str(path), "--variants", "M0,M5,M0", "--out-dir", str(out_dir)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: sweep lists variant 'M0' more than once\n"
    assert not out_dir.exists()


def test_a_sweep_that_cannot_aggregate_writes_no_log(tmp_path, capsys):
    # one processed frame: no duration can be derived for any variant
    dets = tmp_path / "one.csv"
    dets.write_text("0,-1,10,10,20,20,0.5,1\n")
    out_dir = tmp_path / "o"
    argv = ["sweep", "--input", str(dets), "--variants", "M0,M5", "--out-dir", str(out_dir)]
    assert main([*argv, "--set", "policy.score_threshold=0"]) == 1
    err = capsys.readouterr().err
    assert err == "error: cannot derive a duration from fewer than two processed frames; " \
        "set eval.duration_s\n"
    assert not out_dir.exists()


#: A sweep whose last variant fails after the first one's log is written:
#: in scheduling (M3 without its threshold), and in aggregation (M5's rate
#: over a duration of 1e-320 is inf), with the error each exits on.
LAST_VARIANT_FAILS = {
    "scheduling": (["--variants", "M0,M3"], "error: policy M3 requires conf_threshold\n"),
    "aggregation": (
        [
            "--variants",
            "M0,M5",
            "--set",
            "eval.duration_s=1e-320",
            "--set",
            "policy.score_threshold=0",
        ],
        "error: roi_rate_hz = inf is not finite for duration_s = 1e-320\n",
    ),
}


def dir_bytes(path):
    """Each file's bytes by name, hidden files included; none if ``path``
    does not exist."""
    return {p.name: p.read_bytes() for p in path.iterdir()} if path.exists() else {}


@pytest.mark.parametrize("earlier_sweep", [False, True])
@pytest.mark.parametrize("stage", sorted(LAST_VARIANT_FAILS))
def test_a_sweep_whose_last_variant_fails_leaves_no_log(
    tmp_path, detections_csv, capsys, stage, earlier_sweep
):
    extra, error = LAST_VARIANT_FAILS[stage]
    out_dir = tmp_path / "o"
    if earlier_sweep:
        # its runlog_M0.jsonl echoes another config than the failing sweep's
        assert run_sweep(out_dir, detections_csv) == 0
        capsys.readouterr()
    before = dir_bytes(out_dir)
    argv = ["sweep", "--input", str(detections_csv), *extra, "--out-dir", str(out_dir)]
    assert main(argv) == 1
    assert capsys.readouterr().err == error
    assert dir_bytes(out_dir) == before


def test_an_interrupted_sweep_leaves_no_log(tmp_path, detections_csv, monkeypatch):
    aggregate_run = metrics.aggregate_run
    calls = []

    def interrupted_on_the_last_variant(log):
        calls.append(log.variant)
        if log.variant == "M5":
            raise KeyboardInterrupt
        return aggregate_run(log)

    monkeypatch.setattr(metrics, "aggregate_run", interrupted_on_the_last_variant)
    out_dir = tmp_path / "o"
    with pytest.raises(KeyboardInterrupt):
        run_sweep(out_dir, detections_csv)
    assert calls == ["M0", "M2", "M5"]
    assert dir_bytes(out_dir) == {}


# --- every command's files take their names together, or not at all --------


def no_part_files(path):
    return not [p for p in path.rglob("*") if p.name.endswith(".part")]


def spill_files(path):
    return sorted(p.name for p in path.rglob("*.spill"))


def spilled_on_each_fold(monkeypatch, stop_at=None):
    """Patch the fold of each block of a log: before it, the name of each
    spill file still open and the bytes written to it are recorded; on the
    ``stop_at``-th block, counted over every log, a KeyboardInterrupt is
    raised instead."""
    spill, add = cli._Stage.spill, metrics._Tally.add
    opened, spilled = [], []

    def opened_spill(stage, path, kind):
        opened.append(spill(stage, path, kind))
        return opened[-1]

    def recorded(tally, cols):
        spilled.append(sorted((Path(fp.name).name, fp.tell()) for fp in opened if not fp.closed))
        if len(spilled) == stop_at:
            raise KeyboardInterrupt
        add(tally, cols)

    monkeypatch.setattr(cli._Stage, "spill", opened_spill)
    monkeypatch.setattr(metrics._Tally, "add", recorded)
    return spilled


def test_an_interrupted_simulate_changes_no_earlier_file(tmp_path, detections_csv, monkeypatch):
    rc, out_dir = simulate(tmp_path, detections_csv)
    assert rc == 0
    before = dir_bytes(out_dir)
    # the 60 processed frames are two scheduling blocks: the interrupt comes
    # once both blocks' lines are spilled, before the log's file is written
    spilled = spilled_on_each_fold(monkeypatch, stop_at=2)
    with pytest.raises(KeyboardInterrupt):
        simulate(tmp_path, detections_csv, "--set", "seed=7")
    names = [".runlog.jsonl.class.spill", ".runlog.jsonl.tx.spill"]
    assert [name for name, _ in spilled[-1]] == names
    assert all(size > 0 for _, size in spilled[-1])
    assert dir_bytes(out_dir) == before
    assert not spill_files(tmp_path)


def test_an_interrupted_sweep_leaves_no_spill_file(tmp_path, detections_csv, monkeypatch):
    out_dir = tmp_path / "o"
    # M0's two blocks, then M2's first: M0's log is staged, M2's spilled
    spilled = spilled_on_each_fold(monkeypatch, stop_at=3)
    with pytest.raises(KeyboardInterrupt):
        run_sweep(out_dir, detections_csv)
    names = [".runlog_M2.jsonl.class.spill", ".runlog_M2.jsonl.tx.spill"]
    assert [name for name, _ in spilled[-1]] == names
    assert all(size > 0 for _, size in spilled[-1])
    assert not out_dir.exists()
    assert not spill_files(tmp_path)


def overflowing_score_csv(tmp_path):
    """A stream whose frame 200, the 41st processed one and so in the second
    scheduling block, holds a box whose score is beyond the float range
    under ``OVERFLOW_SETS``."""
    rows = [f"{f},1,10,10,20,20,0.5,1\n" for f in range(0, 200, 5)]
    rows.append("200,2,100,100,1e-10,1e-10,0.5,1\n")
    path = tmp_path / "overflow.csv"
    path.write_text("".join(rows))
    return path


OVERFLOW_SETS = [
    "--set", "cost.header_bytes=0",
    "--set", "policy.weights=1e300,1e300,1e300",
    "--set", "policy.score_threshold=0",
]


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_a_run_that_fails_in_scheduling_leaves_no_spill_file(
    tmp_path, monkeypatch, capsys, command
):
    out_dir = tmp_path / "o"
    argv = [command, "--input", str(overflowing_score_csv(tmp_path)), "--out-dir", str(out_dir)]
    if command == "sweep":
        argv += ["--variants", "M5,M0"]
    spilled = spilled_on_each_fold(monkeypatch)
    assert main([*argv, *OVERFLOW_SETS]) == 1
    err = capsys.readouterr().err
    assert err == "error: score is not finite at frame 200, track 1: inf\n"
    # the first block's lines were spilled before the second block failed
    assert spilled and all(size > 0 for _, size in spilled[-1])
    assert not out_dir.exists()
    assert not spill_files(tmp_path)


def test_an_interrupted_sweep_changes_no_earlier_file(tmp_path, detections_csv, monkeypatch):
    out_dir = tmp_path / "o"
    argv = ["sweep", "--input", str(detections_csv), "--variants", "M0,M5", "--out-dir", str(out_dir)]
    argv += ["--set", "policy.score_threshold=0.0"]
    assert main(argv) == 0
    before = dir_bytes(out_dir)
    assert sorted(before) == ["report.csv", "runlog_M0.jsonl", "runlog_M5.jsonl", "selection.csv"]

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(metrics, "emit_selection_report", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main([*argv, "--set", "seed=7"])  # other logs: their config echo differs
    assert dir_bytes(out_dir) == before


class CutFile:
    """A file open for writing whose first write stops halfway with a
    KeyboardInterrupt, as a Ctrl-C there would."""

    def __init__(self, fp):
        self.fp = fp

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fp.close()

    def write(self, text):
        self.fp.write(text[: len(text) // 2])
        raise KeyboardInterrupt

    def writelines(self, texts):
        for text in texts:
            self.write(text)


@pytest.mark.parametrize("command", ["report", "gen-synthetic"])
def test_an_interrupted_write_changes_no_earlier_file(
    tmp_path, detections_csv, monkeypatch, capsys, command
):
    rc, out_dir = simulate(tmp_path, detections_csv)
    assert rc == 0
    dest = tmp_path / "dest"
    if command == "report":
        argv = ["report", str(out_dir / "runlog.jsonl"), "--out", str(dest)]
        interrupted = [*argv, "--report-format", "json"]
    else:
        argv = ["gen-synthetic", "--n-frames", "60", "--out", str(dest)]
        interrupted = [*argv, "--seed", "2"]
    assert main(argv) == 0
    before = dest.read_bytes()

    def opened(file, mode="r", **kwargs):
        fp = open(file, mode, **kwargs)
        return CutFile(fp) if "w" in mode else fp

    monkeypatch.setattr(cli, "open", opened, raising=False)
    with pytest.raises(KeyboardInterrupt):
        main(interrupted)
    assert dest.read_bytes() == before
    assert no_part_files(tmp_path)


def test_report_writes_a_fifo_in_place(tmp_path, detections_csv, capsys):
    """A rename cannot replace a FIFO, so its reader gets the report."""
    rc, out_dir = simulate(tmp_path, detections_csv)
    assert rc == 0
    log = str(out_dir / "runlog.jsonl")
    capsys.readouterr()
    assert main(["report", log]) == 0
    expected = capsys.readouterr().out
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    read = []
    reader = threading.Thread(target=lambda: read.append(fifo.read_text()), daemon=True)
    reader.start()
    assert main(["report", log, "--out", str(fifo)]) == 0
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert read == [expected]
    assert fifo.is_fifo()
    assert no_part_files(tmp_path)


def test_report_through_a_symlink_replaces_the_file_it_names(tmp_path, detections_csv, capsys):
    rc, out_dir = simulate(tmp_path, detections_csv)
    assert rc == 0
    log = str(out_dir / "runlog.jsonl")
    capsys.readouterr()
    assert main(["report", log]) == 0
    expected = capsys.readouterr().out
    (tmp_path / "real").mkdir()
    target = tmp_path / "real" / "report.csv"
    target.write_text("earlier\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    assert main(["report", log, "--out", str(link)]) == 0
    assert link.is_symlink()
    assert target.read_text() == expected
    assert no_part_files(tmp_path)


class Columns(list):
    """A list that can be weakly referenced."""


def test_a_sweep_drops_each_log_before_the_next_variant_is_scheduled(tmp_path, monkeypatch):
    """Nor does it keep an earlier log's boxes, the parsed stream or the
    parsed sidecar: a parsed stream gathers a transmitted row's box numbers
    for that log's block alone, and only the associated frames outlive the
    association pass. A log is its header and each block's columns."""
    parse_stream, parse_sidecar = ingest.parse_generic_csv, cli._parse_sidecar
    schedule = engine._schedule
    inputs = []  # weak references to the parsed stream and the parsed sidecar
    scheduled = []  # weak references to each log's header and blocks, and to its box columns
    alive_when_scheduled = []

    def parsed_stream(source, errors_out=None):
        stream = parse_stream(source, errors_out=errors_out)
        inputs.append(weakref.ref(stream))
        return stream

    def parsed_sidecar(args):
        sidecar = parse_sidecar(args)
        inputs.append(weakref.ref(sidecar))
        return sidecar

    def tracked(frames, span, cfg):
        alive_when_scheduled.append(
            (
                [ref() is not None for ref in inputs],
                [(alive(log), alive(boxes)) for log, boxes in scheduled],
            )
        )
        parts = schedule(frames, span, cfg)
        header = next(parts)
        refs = [weakref.ref(header)], []
        scheduled.append(refs)
        yield header
        for tx_cols, class_cols in parts:
            tx_cols, boxes = Columns(tx_cols), Columns(tx_cols[3])
            tx_cols[3] = boxes
            refs[0].append(weakref.ref(tx_cols))
            if boxes:
                refs[1].append(weakref.ref(boxes))
            yield tx_cols, class_cols

    def alive(refs):
        return any(ref() is not None for ref in refs)

    monkeypatch.setattr(ingest, "parse_generic_csv", parsed_stream)
    monkeypatch.setattr(cli, "_parse_sidecar", parsed_sidecar)
    monkeypatch.setattr(engine, "_schedule", tracked)
    dets, side = hintless_csv_and_sidecar(tmp_path)
    assert run_sweep(tmp_path / "o", dets, "--sidecar", str(side)) == 0
    assert all(boxes for _, boxes in scheduled[1:])  # M0 transmits nothing
    assert alive_when_scheduled == [
        ([False, False], []),
        ([False, False], [(False, False)]),
        ([False, False], [(False, False), (False, False)]),
    ]


#: Runs each argument list given as JSON on standard input through
#: ``roitel.cli.main``, then ``engine.run`` over the last one's inputs, and
#: prints, as JSON, how many ``BBox``, ``TransmissionRecord`` and
#: ``ClassEvent`` objects each built.
COUNT_RECORDS = """
import json, sys
from collections import Counter
from roitel import cli, config, domain, engine, ingest, runlog, semantic

built = Counter()
post_init = domain.BBox.__post_init__

def counted_post_init(box):
    built["BBox"] += 1
    post_init(box)

domain.BBox.__post_init__ = counted_post_init
for cls in (runlog.TransmissionRecord, runlog.ClassEvent):
    new, make = cls.__new__, cls._make.__func__

    def counted_new(kind, *args, _new=new, **kwargs):
        built[kind.__name__] += 1
        return _new(kind, *args, **kwargs)

    def counted_make(kind, values, _make=make):
        built[kind.__name__] += 1
        return _make(kind, values)

    cls.__new__, cls._make = staticmethod(counted_new), classmethod(counted_make)

counts = []
for argv in json.load(sys.stdin):
    built.clear()
    assert cli.main(argv) == 0
    counts.append(dict(built))
built.clear()
with open(argv[argv.index("--input") + 1]) as fp:
    stream = ingest.parse_generic_csv(fp)
with open(argv[argv.index("--sidecar") + 1]) as fp:
    sidecar = semantic.parse_sidecar_csv(fp)
cfg = config.build_config({"policy.variant": "M2"})
log = engine.run(stream, sidecar, cfg)
assert log.transmissions and log.class_events
counts.append(dict(built))
print(json.dumps(counts))
"""


def test_simulate_and_sweep_build_no_record_object(tmp_path):
    """The CLI writes and folds each run from the scheduling pass's columns:
    it builds no box, transmission record or class event. The library run
    of the same inputs builds each, so the count sees them."""
    dets, side = hintless_csv_and_sidecar(tmp_path)
    common = ["--input", str(dets), "--sidecar", str(side), "--set", "policy.score_threshold=0"]
    argvs = [
        ["simulate", *common, "--set", "policy.variant=M2", "--out-dir", str(tmp_path / "s")],
        ["sweep", *common, "--variants", "M1,M2,M5", "--out-dir", str(tmp_path / "w")],
    ]
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", COUNT_RECORDS],
        input=json.dumps(argvs),
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 0, done.stderr
    simulated, swept, library = json.loads(done.stdout.splitlines()[-1])
    assert simulated == swept == {}
    assert set(library) == {"BBox", "TransmissionRecord", "ClassEvent"}


# --- report -------------------------------------------------------------------


def test_report_reaggregates_run_logs(tmp_path, detections_csv, capsys):
    out_dir = tmp_path / "sweep"
    assert run_sweep(out_dir, detections_csv) == 0
    capsys.readouterr()
    rc = main(
        [
            "report",
            str(out_dir / "runlog_M2.jsonl"),
            str(out_dir / "runlog_M5.jsonl"),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert lines[0] == ",".join(REPORT_COLUMNS)
    assert lines[1].startswith("M2,")
    assert lines[2].startswith("M5,")


def test_report_drops_each_log_before_the_next_is_read(tmp_path, detections_csv, monkeypatch):
    out_dir = tmp_path / "sweep"
    assert run_sweep(out_dir, detections_csv) == 0
    fold = metrics.fold_jsonl
    returned = []  # a weak reference to each log read so far
    alive_when_read = []

    def tracked(fp):
        alive_when_read.append([ref() is not None for ref in returned])
        log, rep = fold(fp)
        returned.append(weakref.ref(log))
        return log, rep

    monkeypatch.setattr(metrics, "fold_jsonl", tracked)
    logs = [str(out_dir / f"runlog_{v}.jsonl") for v in ("M0", "M2", "M5")]
    assert main(["report", *logs]) == 0
    assert alive_when_read == [[], [False], [False, False]]


def test_report_rows_match_simulate_report(tmp_path, detections_csv, capsys):
    out_dir = tmp_path / "sweep"
    assert run_sweep(out_dir, detections_csv) == 0
    capsys.readouterr()
    rc = main(
        [
            "report",
            str(out_dir / "runlog_M0.jsonl"),
            str(out_dir / "runlog_M2.jsonl"),
            str(out_dir / "runlog_M5.jsonl"),
        ]
    )
    assert rc == 0
    regenerated = [
        ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("#")
    ]
    original = [
        ln
        for ln in (out_dir / "report.csv").read_text().splitlines()
        if not ln.startswith("#")
    ]
    assert regenerated == original


def test_report_custom_labels_and_out_file(tmp_path, detections_csv, capsys):
    out_dir = tmp_path / "sweep"
    assert run_sweep(out_dir, detections_csv) == 0
    dest = tmp_path / "combined.json"
    rc = main(
        [
            "report",
            str(out_dir / "runlog_M2.jsonl"),
            str(out_dir / "runlog_M5.jsonl"),
            "--labels",
            "event,utility",
            "--report-format",
            "json",
            "--out",
            str(dest),
        ]
    )
    assert rc == 0
    obj = json.loads(dest.read_text())
    assert [row["policy"] for row in obj["rows"]] == ["event", "utility"]


def test_report_label_count_mismatch(tmp_path, detections_csv, capsys):
    out_dir = tmp_path / "sweep"
    assert run_sweep(out_dir, detections_csv) == 0
    rc = main(["report", str(out_dir / "runlog_M2.jsonl"), "--labels", "a,b"])
    assert rc == 1
    assert "--labels" in capsys.readouterr().err


@pytest.mark.parametrize("labels", ["x,", " ", "", "a, ,b"])
def test_report_refuses_an_empty_label_before_reading_a_log(
    tmp_path, detections_csv, capsys, monkeypatch, labels
):
    out_dir = tmp_path / "sweep"
    assert run_sweep(out_dir, detections_csv) == 0
    capsys.readouterr()
    read = []
    monkeypatch.setattr(metrics, "fold_jsonl", read.append)
    logs = [str(out_dir / f"runlog_{v}.jsonl") for v in ("M0", "M2", "M5")]
    assert main(["report", *logs[: len(labels.split(","))], "--labels", labels]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "",
        f"error: --labels holds an empty label: {labels!r}\n",
    )
    assert read == []


@pytest.mark.parametrize("fmt", ["csv", "markdown"])
@pytest.mark.parametrize("labels", ["a|b", "a\nb", "a\rb"])
def test_report_refuses_a_label_no_table_can_hold(tmp_path, detections_csv, capsys, labels, fmt):
    out_dir = tmp_path / "sweep"
    assert run_sweep(out_dir, detections_csv) == 0
    capsys.readouterr()
    log = str(out_dir / "runlog_M2.jsonl")
    assert main(["report", log, "--labels", labels, "--report-format", fmt]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "",
        f"error: report label {labels!r} holds '|', ',' or a line break\n",
    )


def test_report_refuses_a_log_variant_no_table_can_hold(tmp_path, detections_csv, capsys):
    out_dir = tmp_path / "sweep"
    assert run_sweep(out_dir, detections_csv) == 0
    capsys.readouterr()
    path = out_dir / "runlog_M2.jsonl"
    damage_runlog(path, 0, set_field("variant", "x|y"))
    assert main(["report", str(path), "--report-format", "markdown"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "",
        "error: report label 'x|y' holds '|', ',' or a line break\n",
    )


@pytest.mark.parametrize("variant", ["", " \t"])
def test_report_refuses_a_log_variant_that_names_no_row(
    tmp_path, detections_csv, capsys, variant
):
    rc, out_dir = simulate(tmp_path, detections_csv)
    assert rc == 0
    path = out_dir / "runlog.jsonl"
    damage_runlog(path, 0, set_field("variant", variant))
    capsys.readouterr()
    assert main(["report", str(path)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "",
        f"error: report label {variant!r} is empty or only whitespace\n",
    )


def test_report_refuses_a_log_variant_no_csv_cell_can_hold(tmp_path, detections_csv, capsys):
    out_dir = tmp_path / "sweep"
    assert run_sweep(out_dir, detections_csv) == 0
    path = out_dir / "runlog_M2.jsonl"
    damage_runlog(path, 0, set_field("variant", "x,y"))
    dest = tmp_path / "report.csv"
    dest.write_text("earlier\n")
    capsys.readouterr()
    for out in ([], ["--out", str(dest)]):
        assert main(["report", str(path), *out]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "",
            "error: report label 'x,y' holds '|', ',' or a line break\n",
        )
    assert dest.read_bytes() == b"earlier\n"


def test_eval_lambda_cls_reaches_every_report(tmp_path, capsys):
    """A non-default weight runs through ``simulate``, ``sweep`` and
    ``report``: each gives the proxy that ``aggregate`` gives at that weight."""
    dets, side = hintless_csv_and_sidecar(tmp_path)
    inputs = ["--input", str(dets), "--sidecar", str(side), "--report-format", "json"]
    settings = ["--set", "policy.score_threshold=0.0", "--set", "eval.lambda_cls=0.5"]
    sim, swp = tmp_path / "sim", tmp_path / "sweep"
    assert main(["simulate", *inputs, *settings, "--out-dir", str(sim)]) == 0
    assert main(["sweep", *inputs, *settings, "--variants", "M2,M5", "--out-dir", str(swp)]) == 0

    def proxies(report_text):
        return [row["extra"]["combined_utility_proxy"] for row in json.loads(report_text)["rows"]]

    runs = [
        (sim / "report.json", [sim / "runlog.jsonl"]),
        (swp / "report.json", [swp / "runlog_M2.jsonl", swp / "runlog_M5.jsonl"]),
    ]
    for written, logs in runs:
        capsys.readouterr()
        assert main(["report", *map(str, logs), "--report-format", "json"]) == 0
        assert proxies(capsys.readouterr().out) == proxies(written.read_text())
        expected = []
        for path in logs:
            log = read_jsonl(path.read_text())
            rep = metrics.aggregate(
                log, log.base_bitrate_bps, metrics.derive_duration(log), lambda_cls=0.5
            )
            assert rep.semantic_count > 0
            expected.append(rep.combined_utility)
        assert proxies(written.read_text()) == expected


def test_report_duplicate_default_labels(tmp_path, detections_csv, capsys):
    out_dir = tmp_path / "sweep"
    assert run_sweep(out_dir, detections_csv) == 0
    rc = main(
        ["report", str(out_dir / "runlog_M5.jsonl"), str(out_dir / "runlog_M5.jsonl")]
    )
    assert rc == 1
    assert "duplicate" in capsys.readouterr().err


def damage_runlog(path, index, edit):
    """Rewrite line ``index`` (0-based) of a run log: ``edit`` maps the
    decoded record to its new JSON text."""
    lines = path.read_text().splitlines()
    lines[index] = edit(json.loads(lines[index]))
    path.write_text("\n".join(lines) + "\n")


def set_field(key, value):
    return lambda obj: json.dumps({**obj, key: value})


@pytest.mark.parametrize(
    "index,edit,message",
    [
        (0, set_field("fps", "abc"), "error: line 1: field 'fps' must be a number"),
        (1, lambda obj: "[1]", "error: line 2: expected a JSON object"),
        (
            0,
            set_field("config", {"eval.lambda_cls": "abc"}),
            "error: bad value for eval.lambda_cls: 'abc'",
        ),
        (
            0,
            set_field("processed_frame_indices", [0, 5, 10**400]),
            "error: line 1: bad JSON: integer beyond the float range",
        ),
        # a line break in the echo would write a bare line into the report
        (
            0,
            set_field("config", {"policy.note": "a\nb,c"}),
            "error: line 1: bad config echo: {'policy.note': 'a\\nb,c'}",
        ),
    ],
)
def test_report_on_a_damaged_log_exits_1(
    tmp_path, detections_csv, capsys, index, edit, message
):
    rc, out_dir = simulate(tmp_path, detections_csv)
    assert rc == 0
    log_path = out_dir / "runlog.jsonl"
    damage_runlog(log_path, index, edit)
    capsys.readouterr()
    assert main(["report", str(log_path)]) == 1
    # the error names the log it came from
    assert f"error: {log_path}: {message.removeprefix('error: ')}" in capsys.readouterr().err


def test_report_refuses_processed_frames_that_do_not_increase(tmp_path, detections_csv, capsys):
    # the duration is read from the first and the last processed frame
    rc, out_dir = simulate(tmp_path, detections_csv)
    assert rc == 0
    log_path = out_dir / "runlog.jsonl"
    frames = json.loads(log_path.read_text().splitlines()[0])["processed_frame_indices"]
    damage_runlog(log_path, 0, set_field("processed_frame_indices", [*frames[:-1], 5]))
    capsys.readouterr()
    assert main(["report", str(log_path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {log_path}: line 1: bad processed_frame_indices: entry {len(frames) - 1}, 5, "
        f"does not exceed the entry before it, {frames[-2]}\n"
    )


def test_report_names_the_damaged_log_among_several(tmp_path, detections_csv, capsys):
    rc, out_dir = simulate(tmp_path, detections_csv)
    assert rc == 0
    good = out_dir / "runlog.jsonl"
    bad = tmp_path / "bad.jsonl"
    bad.write_text(good.read_text())
    damage_runlog(bad, 0, set_field("fps", "abc"))
    capsys.readouterr()
    assert main(["report", str(good), str(bad), "--labels", "a,b"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {bad}: line 1: field 'fps' must be a number, got 'abc'\n"


def test_report_names_a_damaged_line_after_the_first_block(tmp_path, detections_csv, capsys):
    rc, out_dir = simulate(tmp_path, detections_csv)
    assert rc == 0
    log_path = pad_runlog(out_dir / "runlog.jsonl")
    n_lines = len(log_path.read_text().splitlines())
    damage_runlog(log_path, n_lines - 1, lambda obj: "[1]")
    capsys.readouterr()
    assert main(["report", str(log_path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {log_path}: line {n_lines}: expected a JSON object, got [1]\n"


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("duration_s", 1e-320, "roi_rate_hz = inf is not finite for duration_s = 1e-320"),
        # the log's two tx costs of 1e308 bits overflow their sum
        (
            "cost_bits",
            1e308,
            "roi_bitrate_bps = inf is not finite for duration_s = 0.3333333333333333",
        ),
    ],
)
def test_report_on_a_log_beyond_the_float_range_exits_1(tmp_path, capsys, key, value, message):
    dets = tmp_path / "dets.csv"
    dets.write_text(TWO_TRACKS)
    rc, out_dir = simulate(tmp_path, dets)
    assert rc == 0
    log_path = out_dir / "runlog.jsonl"
    objs = [json.loads(line) for line in log_path.read_text().splitlines()]
    for obj in objs:
        if key in obj:
            obj[key] = value
    log_path.write_text("".join(json.dumps(obj, sort_keys=True) + "\n" for obj in objs))
    capsys.readouterr()
    assert main(["report", str(log_path), "--report-format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {log_path}: {message}\n"
    assert captured.out == ""


# --- validate -----------------------------------------------------------------


def test_validate_clean_input(tmp_path, detections_csv, capsys):
    rc = main(["validate", "--input", str(detections_csv)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "frames: 290" in out  # 10 of 300 synthetic frames are empty
    assert "detections: 1355" in out


def test_validate_reports_every_bad_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "0,-1,10,20,30,40,0.9,2\n"
        "1,-1,10,20,30,40,1.5,2\n"
        "2,-1,10,20,0,40,0.9,2\n"
    )
    rc = main(["validate", "--input", str(bad)])
    assert rc == 1
    captured = capsys.readouterr()
    assert "detections: 1" in captured.out
    assert "line 2" in captured.err
    assert "line 3" in captured.err


def test_validate_budget_violation_exits_2(tmp_path, detections_csv, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("budget.b_video = 900000\n")
    rc = main(["validate", "--input", str(detections_csv), "--config", str(cfg)])
    assert rc == 2
    assert "violation" in capsys.readouterr().err


def test_validate_applies_set_without_config(detections_csv, capsys):
    rc = main(["validate", "--input", str(detections_csv), "--set", "budget.b_roi=9e9"])
    assert rc == 2
    assert "violation: config:" in capsys.readouterr().err


def test_validate_rejects_unknown_set_key_without_config(detections_csv, capsys):
    rc = main(["validate", "--input", str(detections_csv), "--set", "nonsense.key=1"])
    assert rc == 1
    assert "unknown config keys: nonsense.key" in capsys.readouterr().err


def test_validate_sidecar_counts_and_unknown_warning(tmp_path, detections_csv, capsys):
    side = tmp_path / "side.csv"
    # hint 0 exists in the synthetic stream at frame 0? use a real key:
    # frame/track pairs from the stream itself plus one unknown pair
    from roitel import parse_generic_csv

    stream = parse_generic_csv(detections_csv.read_text())
    det = stream.frames[0][1][0]
    side.write_text(
        f"{det.frame_index},{det.track_hint},0.2,0.35,7,7,1.9,1.1\n"
        "99999,777,0.2,0.35,7,7,1.9,1.1\n"
    )
    rc = main(["validate", "--input", str(detections_csv), "--sidecar", str(side)])
    assert rc == 0  # coverage gaps are legal
    captured = capsys.readouterr()
    assert "sidecar records: 2" in captured.out
    assert "sidecar matched: 1" in captured.out
    assert "unknown (frame,track)" in captured.err


@pytest.mark.parametrize("block", [8, 1 << 16])  # 8: each line is a block
def test_validate_lists_a_duplicate_sidecar_key_and_later_bad_lines(
    tmp_path, detections_csv, capsys, monkeypatch, block
):
    monkeypatch.setattr(_text, "BLOCK", block)
    side = tmp_path / "side.csv"
    side.write_text(
        "10,4,0.2,0.35,7,7,1.9,1.1\n"
        "10,4,0.2,0.35,7,7,1.9,1.1\n"
        "11,4,1.2,0.35,7,7,1.9,1.1\n"
    )
    rc = main(["validate", "--input", str(detections_csv), "--sidecar", str(side)])
    assert rc == 1
    captured = capsys.readouterr()
    assert "sidecar records: 1" in captured.out
    assert f"{side}: line 2: duplicate sidecar key (frame=10, track=4)" in captured.err
    assert f"{side}: line 3: video_conf" in captured.err


SIDECAR_ROW = "0.2,0.35,7,7,1.9,1.1"


def one_object_csv(tmp_path, hint: int):
    """One still object on frames 0..5; the default stride processes 0 and 5."""
    path = tmp_path / "one.csv"
    path.write_text("".join(f"{f},{hint},50,50,10,10,0.9,0\n" for f in range(6)))
    return path


def test_validate_sidecar_matches_tracker_ids_without_hints(tmp_path, capsys):
    dets = one_object_csv(tmp_path, hint=-1)
    side = tmp_path / "side.csv"
    side.write_text(f"0,0,{SIDECAR_ROW}\n5,0,{SIDECAR_ROW}\n")
    assert main(["validate", "--input", str(dets), "--sidecar", str(side)]) == 0
    captured = capsys.readouterr()
    assert "sidecar matched: 2" in captured.out
    assert "unknown" not in captured.err
    # the engine does use both records
    rc, _ = simulate(tmp_path, dets, "--sidecar", str(side))
    assert rc == 0
    assert "video_conf = 0.200" in capsys.readouterr().out


def test_validate_sidecar_skips_unprocessed_frames(tmp_path, capsys):
    dets = one_object_csv(tmp_path, hint=4)
    side = tmp_path / "side.csv"
    side.write_text(f"3,4,{SIDECAR_ROW}\n5,4,{SIDECAR_ROW}\n")
    assert main(["validate", "--input", str(dets), "--sidecar", str(side)]) == 0
    captured = capsys.readouterr()
    assert "sidecar matched: 1" in captured.out
    assert "warning: 1 sidecar records reference unknown" in captured.err
    # a stride of 1 processes frame 3 too
    argv = ["validate", "--input", str(dets), "--sidecar", str(side)]
    assert main([*argv, "--set", "clock.frame_stride=1"]) == 0
    assert "sidecar matched: 2" in capsys.readouterr().out


def test_validate_uses_the_clock_comment(tmp_path, capsys):
    dets = one_object_csv(tmp_path, hint=4)
    dets.write_text("# clock: fps=15.0 stride=1\n" + dets.read_text())
    side = tmp_path / "side.csv"
    side.write_text(f"3,4,{SIDECAR_ROW}\n5,4,{SIDECAR_ROW}\n")
    assert main(["validate", "--input", str(dets), "--sidecar", str(side)]) == 0
    assert "sidecar matched: 2" in capsys.readouterr().out
    argv = ["validate", "--input", str(dets), "--sidecar", str(side)]
    assert main([*argv, "--set", "clock.frame_stride=5"]) == 0
    assert "sidecar matched: 1" in capsys.readouterr().out


def test_validate_counts_a_record_two_detections_look_up_once(tmp_path, capsys):
    # two far-apart detections of frame 0 share hint 4, so both look up
    # the one record keyed (0, 4); the other record matches nothing
    dets = tmp_path / "shared.csv"
    dets.write_text("0,4,50,50,10,10,0.9,0\n0,4,500,300,10,10,0.8,1\n")
    side = tmp_path / "side.csv"
    side.write_text(f"0,4,{SIDECAR_ROW}\n0,5,{SIDECAR_ROW}\n")
    assert main(["validate", "--input", str(dets), "--sidecar", str(side)]) == 0
    captured = capsys.readouterr()
    assert "sidecar records: 2\nsidecar matched: 1\n" in captured.out
    assert "warning: 1 sidecar records reference unknown" in captured.err
