"""Per-layer spans, recorded from outside the program.

``install`` replaces the functions and classes that ``roitel.cli`` and
``roitel.engine`` reach through module attributes with timed wrappers, so
the traced run executes the same code as an untraced one. A span's self
time is its duration minus the time of the spans it encloses; the self
times of all spans plus ``cli.other_s`` add up to the traced wall time.
"""

from __future__ import annotations

import resource
from collections import Counter, defaultdict
from itertools import count
from time import perf_counter

# span name -> per-layer metric that receives its self time
SELF_TIME_METRIC = {
    "ingest.parse": "ingest.parse_s",
    "ingest.sidecar": "ingest.sidecar_parse_s",
    "kernels.greedy_associate": "kernels.associate_s",
    "tracker.step": "tracker.step_self_s",
    "policy.make_candidate": "policy.make_candidate_s",
    "policy.decide": "policy.decide_s",
    "budget.estimate_cost": "budget.estimate_cost_s",
    "budget.view": "budget.ledger_s",
    "budget.admits": "budget.ledger_s",
    "budget.commit": "budget.ledger_s",
    "engine.run": "engine.self_s",
    "engine.sweep": "engine.self_s",
    "runlog.to_jsonl_lines": "runlog.serialize_s",
    "runlog.read_jsonl": "runlog.read_s",
    "metrics.aggregate_run": "metrics.aggregate_s",
    "metrics.emit_report": "metrics.emit_s",
    "metrics.emit_selection_report": "metrics.emit_s",
}


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Span totals, self times and counts for one process."""

    def __init__(self):
        self._open: list[list[float]] = []  # child time of each open span
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.step_s: list[float] = []
        self.peak_fill = 0.0
        self.hints: set = set()

    def wrap(self, name, fn, after=None):
        """Time ``fn`` as span ``name``; ``after(args, result, seconds)``
        then runs outside the span to record counts."""
        stack = self._open

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self.total[name] += dt
                self.self_time[name] += dt - children[0]
                self.calls[name] += 1
                if stack:
                    stack[-1][0] += dt
            if after is not None:
                after(args, result, dt)
            return result

        return traced

    def top_level_seconds(self) -> float:
        return sum(self.self_time.values())


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the CLI path crosses."""
    from roitel import cli, engine, ingest, kernels, metrics, policy, runlog

    t = tracer
    c = t.counts

    def parse(fn):
        def measured(*args, **kwargs):
            before = _max_rss_mb()
            stream = fn(*args, **kwargs)
            c["rss_growth_mb"] += _max_rss_mb() - before
            c["detections"] += stream.n_detections
            return stream

        return t.wrap("ingest.parse", measured)

    for name in ("parse_generic_csv", "parse_visdrone_mot", "parse_uavdt_gt"):
        setattr(ingest, name, parse(getattr(ingest, name)))

    def after_sidecar(args, sidecar, dt):
        c["sidecar_records"] += len(sidecar) if sidecar is not None else 0

    # The CLI's sidecar stage, which is a no-op without --sidecar.
    cli._parse_sidecar = t.wrap("ingest.sidecar", cli._parse_sidecar, after_sidecar)

    def after_associate(args, matches, dt):
        n, m = len(args[0]), len(args[1])
        c["iou_pairs"] += n * m
        c["offered"] += m
        c["matches"] += len(matches)

    kernels.greedy_associate = t.wrap(
        "kernels.greedy_associate", kernels.greedy_associate, after_associate
    )

    serials = count()

    def after_step(args, assignments, dt):
        # Track ids are never reused, so the distinct ids a tracker returns
        # are exactly the ones it returned with is_new set.
        serial = args[0].bench_serial
        t.step_s.append(dt)
        c["spawned"] += sum(is_new for _, _, is_new in assignments)
        t.hints.update(
            (serial, det.track_hint) for det, _, _ in assignments if det.track_hint is not None
        )

    base_tracker = engine.Tracker

    class TracedTracker(base_tracker):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.bench_serial = next(serials)

        step = t.wrap("tracker.step", base_tracker.step, after_step)

    engine.Tracker = TracedTracker

    def after_view(args, view, dt):
        if view.cap_bits > 0:
            t.peak_fill = max(t.peak_fill, view.window_sum_bits / view.cap_bits)

    def after_admits(args, ok, dt):
        if not ok:
            c["recheck_rejects"] += 1

    def after_commit(args, result, dt):
        c["commits"] += 1

    base_ledger = engine.BudgetLedger

    class TracedLedger(base_ledger):
        view = t.wrap("budget.view", base_ledger.view, after_view)
        admits = t.wrap("budget.admits", base_ledger.admits, after_admits)
        commit = t.wrap("budget.commit", base_ledger.commit, after_commit)

    engine.BudgetLedger = TracedLedger
    engine.estimate_cost = t.wrap("budget.estimate_cost", engine.estimate_cost)

    def after_decide(args, decision, dt):
        c["raw"] += len(args[1])
        c["selected"] += len(decision.selected)
        c["rejected_threshold"] += decision.rejected_threshold
        c["rejected_budget"] += decision.rejected_budget
        if decision.rejected_budget:
            c["binding_frames"] += 1

    policy.make_candidate = t.wrap("policy.make_candidate", policy.make_candidate)
    policy.decide = t.wrap("policy.decide", policy.decide, after_decide)

    engine.run = t.wrap("engine.run", engine.run)
    engine.sweep = t.wrap("engine.sweep", engine.sweep)

    def serialize(fn):
        def consumed(log):
            return list(fn(log))

        return consumed

    def after_serialize(args, lines, dt):
        c["runlog_bytes"] += sum(len(line) + 1 for line in lines)

    runlog.to_jsonl_lines = t.wrap(
        "runlog.to_jsonl_lines", serialize(runlog.to_jsonl_lines), after_serialize
    )
    runlog.read_jsonl = t.wrap("runlog.read_jsonl", runlog.read_jsonl)
    for name in ("aggregate_run", "emit_report", "emit_selection_report"):
        setattr(metrics, name, t.wrap(f"metrics.{name}", getattr(metrics, name)))


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(int(q * len(sorted_values)), len(sorted_values) - 1)]


def layer_metrics(tracer: Tracer, wall_s: float, input_mb: float) -> dict[str, float]:
    """Per-layer metrics of one traced operation (without the overhead ratio)."""
    t = tracer
    c = t.counts
    out: dict[str, float] = defaultdict(float)
    for span, metric in SELF_TIME_METRIC.items():
        out[metric] += t.self_time.get(span, 0.0)
    steps = sorted(t.step_s)
    detections = c["detections"]
    out.update(
        {
            "ingest.parse_us_per_det": out["ingest.parse_s"] / detections * 1e6
            if detections
            else 0.0,
            "ingest.detections": detections,
            "ingest.input_mb": input_mb,
            "ingest.rss_growth_mb": c["rss_growth_mb"],
            "ingest.sidecar_records": c["sidecar_records"],
            "kernels.calls": t.calls["kernels.greedy_associate"],
            "kernels.iou_pairs": c["iou_pairs"],
            "kernels.match_ratio": c["matches"] / c["offered"] if c["offered"] else 0.0,
            "tracker.steps": len(steps),
            "tracker.step_p50_us": _percentile(steps, 0.50) * 1e6,
            "tracker.step_p99_us": _percentile(steps, 0.99) * 1e6,
            "tracker.spawned": c["spawned"],
            "tracker.ids_per_hint": c["spawned"] / len(t.hints) if t.hints else 0.0,
            "policy.candidates": t.calls["policy.make_candidate"],
            "policy.selected": c["selected"],
            "policy.rejected_threshold": c["rejected_threshold"],
            "policy.rejected_budget": c["rejected_budget"],
            "policy.unaccounted": c["raw"]
            - c["selected"]
            - c["rejected_threshold"]
            - c["rejected_budget"],
            "policy.selection_ratio": c["selected"] / c["raw"] if c["raw"] else 0.0,
            "budget.commits": c["commits"],
            "budget.recheck_rejects": c["recheck_rejects"],
            "budget.peak_fill": t.peak_fill,
            "budget.binding_frames": c["binding_frames"],
            "engine.run_s": t.total.get("engine.run", 0.0),
            "engine.runs": t.calls["engine.run"],
            "runlog.bytes": c["runlog_bytes"],
            "cli.other_s": wall_s - t.top_level_seconds(),
            "trace.wall_s": wall_s,
        }
    )
    return dict(out)
