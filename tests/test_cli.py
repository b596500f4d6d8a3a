import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import roitel
from roitel import FrameClock, cli, gen_synthetic, ingest, read_jsonl, runlog
from roitel.cli import main
from roitel.metrics import REPORT_COLUMNS


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
            argv += ["--variants", "M0,M5"]
    not_utf8(bad)
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: {bad}: not UTF-8 text: invalid continuation byte (byte 0xe9)\n"


def test_a_clean_simulate_never_calls_the_row_parser(
    tmp_path, detections_csv, monkeypatch
):
    calls = []
    monkeypatch.setattr(ingest, "_parse_rows", lambda *args: calls.append(args))
    rc, _ = simulate(tmp_path, detections_csv)
    assert rc == 0
    assert calls == []


def test_a_clean_report_never_reads_a_whole_log(tmp_path, detections_csv, monkeypatch, capsys):
    out_dir = tmp_path / "sweep"
    assert run_sweep(out_dir, detections_csv) == 0
    logs = [str(pad_runlog(out_dir / "runlog_M5.jsonl")), str(out_dir / "runlog_M2.jsonl")]
    calls = []
    monkeypatch.setattr(cli, "_read_text", lambda *args: calls.append(args))
    monkeypatch.setattr(runlog, "_read_lines", lambda *args: calls.append(args))
    capsys.readouterr()
    assert main(["report", *logs]) == 0
    assert calls == []


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
        argv += ["--variants", "M0,M5"]
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
        argv += ["--variants", "M0,M5"]
    capsys.readouterr()
    # warnings are errors in this suite, so an overflow warning fails here too
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


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


def test_validate_lists_a_duplicate_sidecar_key_and_later_bad_lines(
    tmp_path, detections_csv, capsys
):
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
