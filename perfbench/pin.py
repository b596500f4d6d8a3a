"""Regenerate ``pins.json``: input sha256 and golden row digests per seed.

Usage: python3 perfbench/pin.py FIRST_SEED LAST_SEED

Runs one operation per workload and seed with the current source tree and
refuses to pin any output that fails its checks. Rerun it only when a
change is meant to alter the inputs or the reports, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
from run import HERE, WORK_ROOT, run_op
from spec import WORKLOADS


def pin_seed(workload, seed: int) -> dict:
    work = WORK_ROOT / f"pin-{workload.name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = workload.make_inputs(work / "inputs", seed, workload.frames, workload.objects)
        input_mb = inputs["detections"].stat().st_size / 1e6
        result, out_dir = run_op(workload, inputs, work / "op", False, input_mb, timeout=170)
        check = checks.check_op(workload, out_dir, result["exit_codes"], None)
        if check.failed:
            raise SystemExit(f"{workload.name} seed {seed} fails its checks: {check.problems}")
        return {
            "inputs": {name: checks.sha256_file(path) for name, path in inputs.items()},
            "rows": check.digests,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(first: int, last: int) -> int:
    path = HERE / "pins.json"
    pins = json.loads(path.read_text(encoding="utf-8"))
    for workload in WORKLOADS.values():
        seeds = pins.setdefault(workload.name, {})
        for seed in range(first, last + 1):
            seeds[str(seed)] = pin_seed(workload, seed)
            print(f"pinned {workload.name} seed {seed}", flush=True)
    for name, seeds in pins.items():
        pins[name] = dict(sorted(seeds.items(), key=lambda kv: int(kv[0])))
    path.write_text(json.dumps(pins, indent=1, sort_keys=False) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]), int(sys.argv[2])))
