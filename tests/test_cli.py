import hashlib
import json

import pytest

from roitel import FrameClock, gen_synthetic, read_jsonl
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
            for d in stream.iter_detections()
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
    det = next(stream.iter_detections())
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
