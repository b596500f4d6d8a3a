"""End-to-end and per-layer benchmark of the roitel CLI.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Writes the workload's inputs from ``--seed`` (pinned by sha256 in
``pins.json`` for the seeds listed there; a pinned seed whose inputs hash
differently is refused), then runs operations back to back for ``--seconds``
seconds. Each operation is a fresh ``worker.py`` process that imports roitel
from ``src/`` and calls ``roitel.cli.main`` exactly as the ``roitel``
command does. Every operation's outputs are checked (see ``checks.py``).

``--trace 0`` reports the end-to-end metrics as medians over operations;
``wall_s`` and ``setup_s`` are scaled to a reference CPU speed (see
``worker.py``), and the unscaled medians are printed next to them.
``--trace 1`` alternates untraced and traced operations and reports the
per-layer metrics of the median traced one, plus traced over untraced wall
time. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from spec import END_TO_END, PER_LAYER, UNMEASURED, WORKLOADS
from worker import REF_NOMINAL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"
MIN_OPS = 3
#: Stop starting operations after this long, so a slow program still exits
#: within three minutes.
DEADLINE_S = 120.0


def load_pins() -> dict:
    return json.loads((HERE / "pins.json").read_text(encoding="utf-8"))


def run_op(workload, inputs, op_dir: Path, trace: bool, input_mb: float, timeout: float):
    """Run one operation in a fresh worker process; returns (result, out_dir)."""
    out_dir = op_dir / "out"
    spec_path = op_dir / "spec.json"
    result_path = op_dir / "result.json"
    op_dir.mkdir(parents=True)
    spec_path.write_text(
        json.dumps(
            {
                "src": str(ROOT / "src"),
                "commands": workload.commands(inputs, out_dir),
                "config_sets": list(workload.config_sets),
                "trace": trace,
                "input_mb": input_mb,
                "result": str(result_path),
            }
        ),
        encoding="utf-8",
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(spec_path)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0 or not result_path.exists():
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(result_path.read_text(encoding="utf-8")), out_dir


def measure(workload, seed: int, seconds: float, trace: bool, work: Path):
    """Make the inputs, run operations for ``seconds``, check every one.

    Returns a dict with the samples and check totals, or raises SystemExit
    when the inputs do not match their pins.
    """
    inputs = workload.make_inputs(work / "inputs", seed, workload.frames, workload.objects)
    hashes = {name: checks.sha256_file(path) for name, path in inputs.items()}
    pin = load_pins().get(workload.name, {}).get(str(seed))
    if pin is not None and pin["inputs"] != hashes:
        raise SystemExit(
            f"inputs for {workload.name} seed {seed} differ from pins.json: "
            f"{hashes} != {pin['inputs']}; refusing to time them"
        )
    golden = pin["rows"] if pin is not None else None
    input_mb = inputs["detections"].stat().st_size / 1e6

    samples = {"untraced": [], "traced": []}
    attempted = failed = 0
    problems: list[str] = []
    env = None
    start = time.perf_counter()
    k = 0
    while True:
        elapsed = time.perf_counter() - start
        kinds = ("untraced", "traced") if trace else ("untraced",)
        done = min(len(samples[kind]) for kind in kinds)
        if (elapsed >= seconds and done >= MIN_OPS) or elapsed >= DEADLINE_S:
            break
        traced = trace and k % 2 == 1
        op_dir = work / f"op{k}"
        k += 1
        try:
            result, out_dir = run_op(
                workload, inputs, op_dir, traced, input_mb, timeout=DEADLINE_S + 45 - elapsed
            )
        except (RuntimeError, subprocess.TimeoutExpired) as err:
            attempted += len(workload.variants) + 1
            failed += len(workload.variants) + 1
            problems.append(f"op{k - 1}: {err}")
            shutil.rmtree(op_dir, ignore_errors=True)
            continue
        check = checks.check_op(workload, out_dir, result["exit_codes"], golden)
        attempted += check.attempted
        failed += check.failed
        problems.extend(
            f"op{k - 1}: {p}" for p in check.problems + result["errors"] + result["messages"]
        )
        samples["traced" if traced else "untraced"].append(result)
        env = env or result["env"]
        shutil.rmtree(op_dir)
    return {
        "hashes": hashes,
        "pinned": pin is not None,
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "env": env,
    }


def _median_by_wall(results: list[dict]) -> dict:
    ordered = sorted(results, key=lambda r: r["wall_s"])
    return ordered[(len(ordered) - 1) // 2]


def report(workload, seed: int, trace: bool, m: dict) -> dict:
    """Print the human-readable lines and return the metrics object."""
    print(f"workload {workload.name}  seed {seed}  trace {int(trace)}")
    print(f"env {json.dumps(m['env'], sort_keys=True)}")
    pinned = "pinned" if m["pinned"] else "not pinned: golden row digests not checked"
    print(f"inputs {json.dumps(m['hashes'], sort_keys=True)} ({pinned})")
    for problem in m["problems"][:20]:
        print(f"FAILED {problem}")
    ratio = m["failed"] / m["attempted"] if m["attempted"] else 1.0
    print(f"failed_ops_ratio = {ratio} ({m['failed']} of {m['attempted']} operations)")

    untraced = m["samples"]["untraced"]
    metrics = {}
    if not trace:
        for name, unit, _, _ in END_TO_END:
            values = [r[name] for r in untraced]
            value = statistics.median(values)
            metrics[name] = {"value": value, "unit": unit}
            print(
                f"{name} = {value:.6f} {unit} (median of {len(values)}; "
                f"min {min(values):.6f}, max {max(values):.6f})"
            )
        for name in ("wall_raw_s", "setup_raw_s"):
            print(f"{name} = {statistics.median(r[name] for r in untraced):.6f} s (median, unscaled)")
        refs = [ref for r in untraced for ref in r["reference_s"]]
        print(f"reference loop = {statistics.median(refs):.6f} s (median; nominal {REF_NOMINAL_S} s)")
        return metrics

    traced = m["samples"]["traced"]
    chosen = _median_by_wall(traced)
    layers = dict(chosen["layers"])
    layers["trace.overhead_ratio"] = statistics.median(r["wall_s"] for r in traced) / (
        statistics.median(r["wall_s"] for r in untraced)
    )
    for name, unit, _, moves in PER_LAYER:
        metrics[name] = {"value": layers[name], "unit": unit}
        print(f"{name} = {layers[name]} {unit}  [moves: {moves}]")
    print(
        f"layer self times + cli.other_s = {chosen['layers_self_sum'] + layers['cli.other_s']} s"
        f" against trace.wall_s = {layers['trace.wall_s']} s "
        f"({len(traced)} traced, {len(untraced)} untraced operations)"
    )
    print("unmeasured by any workload: " + "; ".join(UNMEASURED))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "roitel" / "__init__.py").is_file():
        print(f"error: no roitel source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = WORK_ROOT / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        m = measure(workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    if not m["samples"]["untraced"] or (args.trace and not m["samples"]["traced"]):
        for problem in m["problems"][:20]:
            print(f"FAILED {problem}", file=sys.stderr)
        print("error: no operation completed", file=sys.stderr)
        return 1
    metrics = report(workload, args.seed, bool(args.trace), m)
    print(
        json.dumps(
            {
                "correct": m["failed"] == 0,
                "attempted": m["attempted"],
                "failed": m["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
