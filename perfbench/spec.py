"""What the benchmark runs and what it reports.

Each workload stresses a different layer of roitel (see ``why``); sizes are
chosen so that one operation takes a couple of seconds on a 2-core
container, which lets a run of ``run_seconds`` collect several fresh-process
samples for its medians. ``BENCHMARK.json`` repeats the names, the whys and
the per-layer metric list; ``selftest.py`` checks that the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import gen

POLICY_VARIANTS = (
    "M0",
    "M1",
    "M2",
    "M3",
    "M4",
    "M5",
    "preset_permissive",
    "preset_conf_size_top1",
    "preset_strict_small_only",
    "preset_balanced_top2",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    frames: int
    objects: int
    config_sets: tuple[str, ...]
    #: Policy variants run by the workload's simulate or sweep, in report
    #: order; each is one operation, and the closing ``report`` is one more.
    variants: tuple[str, ...]

    def make_inputs(self, in_dir: Path, seed: int, frames: int, objects: int) -> dict[str, Path]:
        in_dir.mkdir(parents=True, exist_ok=True)
        det = in_dir / "detections.csv"
        if self.name == "simulate_long":
            gen.write_generic(det, seed, frames, objects)
            return {"detections": det}
        if self.name == "sweep_sidecar":
            sidecar = in_dir / "sidecar.csv"
            gen.write_generic(det, seed, frames, objects, sidecar)
            return {"detections": det, "sidecar": sidecar}
        gen.write_visdrone(det, seed, frames, objects)
        return {"detections": det}

    def commands(self, inputs: dict[str, Path], out_dir: Path) -> list[list[str]]:
        """The CLI argument lists one operation runs, in order."""
        sets = [arg for item in self.config_sets for arg in ("--set", item)]
        run = ["--input", str(inputs["detections"]), "--out-dir", str(out_dir), *sets]
        if self.name == "sweep_sidecar":
            first = ["sweep", *run, "--sidecar", str(inputs["sidecar"])]
            first += ["--variants", ",".join(self.variants)]
            logs = [str(out_dir / f"runlog_{v}.jsonl") for v in self.variants]
        else:
            first = ["simulate", *run]
            if self.name == "dense_visdrone":
                first += ["--format", "visdrone"]
            logs = [str(out_dir / "runlog.jsonl")]
        return [first, ["report", *logs, "--out", str(out_dir / "rereport.csv")]]

    def run_logs(self, out_dir: Path) -> list[Path]:
        if self.name == "sweep_sidecar":
            return [out_dir / f"runlog_{v}.jsonl" for v in self.variants]
        return [out_dir / "runlog.jsonl"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="simulate_long",
            why="long generic CSV, 20 objects/frame, M5 at stride 5, no sidecar: parse is "
            "most of the time, so ingest speed and memory show here",
            frames=4000,
            objects=20,
            config_sets=("policy.score_threshold=0",),
            variants=("M5",),
        ),
        Workload(
            name="sweep_sidecar",
            why="all ten policies over one stream with a full sidecar, then report: "
            "tracker, policy, ledger, run-log write and re-read run ten times",
            frames=1000,
            objects=20,
            config_sets=(
                "policy.conf_threshold=0.6",
                "policy.area_threshold=1500",
                "policy.score_threshold=0",
            ),
            variants=POLICY_VARIANTS,
        ),
        Workload(
            name="dense_visdrone",
            why="short VisDrone stream, 250 objects/frame, preset_permissive at stride 1: "
            "250x250 IoU association, big sorts in decide, a binding ledger",
            frames=150,
            objects=250,
            config_sets=("policy.variant=preset_permissive", "clock.frame_stride=1"),
            variants=("preset_permissive",),
        ),
    )
}

#: Sizes for the self-test: every layer still runs, in well under a second.
TINY = {"simulate_long": (60, 6), "sweep_sidecar": (40, 6), "dense_visdrone": (12, 40)}

END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("setup_s", "s", "lower", 0.25),
)

#: (name, unit, better, the end-to-end metric and workload it should move).
PER_LAYER = (
    ("ingest.parse_s", "s", "lower", "wall_s, peak_rss_mb on simulate_long; sweep_sidecar a little"),
    ("ingest.parse_us_per_det", "us", "lower", "wall_s on simulate_long"),
    ("ingest.detections", "count", "higher", "none: input size, for the per-detection ratios"),
    ("ingest.input_mb", "MB", "lower", "none: input size"),
    ("ingest.rss_growth_mb", "MB", "lower", "peak_rss_mb on simulate_long"),
    ("ingest.sidecar_parse_s", "s", "lower", "wall_s on sweep_sidecar"),
    ("ingest.sidecar_records", "count", "higher", "none: sidecar size"),
    ("kernels.associate_s", "s", "lower", "wall_s on dense_visdrone; hardly simulate_long"),
    ("kernels.calls", "count", "lower", "wall_s on dense_visdrone"),
    ("kernels.iou_pairs", "count", "lower", "wall_s on dense_visdrone"),
    ("kernels.match_ratio", "ratio", "higher", "none: association quality guard"),
    ("tracker.step_self_s", "s", "lower", "wall_s on dense_visdrone and sweep_sidecar"),
    ("tracker.steps", "count", "lower", "wall_s on sweep_sidecar (track once per sweep)"),
    ("tracker.step_p50_us", "us", "lower", "wall_s on dense_visdrone"),
    ("tracker.step_p99_us", "us", "lower", "wall_s on dense_visdrone"),
    ("tracker.spawned", "count", "lower", "wall_s on sweep_sidecar"),
    ("tracker.ids_per_hint", "ratio", "lower", "none: fragmentation guard"),
    ("policy.make_candidate_s", "s", "lower", "wall_s on dense_visdrone and sweep_sidecar"),
    ("policy.candidates", "count", "lower", "wall_s on sweep_sidecar"),
    ("policy.decide_s", "s", "lower", "wall_s on dense_visdrone and sweep_sidecar"),
    ("policy.selected", "count", "higher", "none: behaviour guard"),
    ("policy.rejected_threshold", "count", "lower", "none: behaviour guard"),
    ("policy.rejected_budget", "count", "lower", "none: behaviour guard"),
    ("policy.unaccounted", "count", "lower", "none: top-k cut, accounting guard"),
    ("policy.selection_ratio", "ratio", "higher", "none: behaviour guard"),
    ("budget.estimate_cost_s", "s", "lower", "wall_s on dense_visdrone"),
    ("budget.ledger_s", "s", "lower", "wall_s on dense_visdrone"),
    ("budget.commits", "count", "higher", "none: behaviour guard"),
    ("budget.recheck_rejects", "count", "lower", "none: commit-time re-check guard"),
    ("budget.peak_fill", "ratio", "higher", "none: ledger pressure"),
    ("budget.binding_frames", "count", "lower", "none: ledger pressure"),
    ("engine.run_s", "s", "lower", "wall_s on sweep_sidecar"),
    ("engine.self_s", "s", "lower", "wall_s on sweep_sidecar"),
    ("engine.runs", "count", "lower", "wall_s on sweep_sidecar"),
    ("runlog.serialize_s", "s", "lower", "wall_s on sweep_sidecar"),
    ("runlog.bytes", "count", "lower", "wall_s on sweep_sidecar"),
    ("runlog.read_s", "s", "lower", "wall_s on sweep_sidecar"),
    ("metrics.aggregate_s", "s", "lower", "none: guard, small everywhere"),
    ("metrics.emit_s", "s", "lower", "none: guard, small everywhere"),
    ("cli.other_s", "s", "lower", "none: guard (file I/O, argparse, config)"),
    ("trace.wall_s", "s", "lower", "none: traced wall time the self times add up to"),
    ("trace.overhead_ratio", "ratio", "lower", "none: tracing cost"),
)

#: Code paths no workload runs; a change confined to them shows no number.
UNMEASURED = (
    "tracker.use_hints=true (association by annotation id)",
    "the UAVDT layout (ingest.parse_uavdt_gt)",
    "roitel validate",
    "roitel gen-synthetic",
    "--conf-noise and the json/markdown report formats",
)
