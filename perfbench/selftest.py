"""Self-test of the benchmark at tiny sizes.

Usage: python3 perfbench/selftest.py

Runs every workload once untraced and once traced and requires its checks
to pass, then shows that the checks cannot pass vacuously: a wrong golden
digest and a hand-built overdrawn run log are each counted as a failed
operation. It also checks that ``BENCHMARK.json`` agrees with ``spec.py``
and that the benchmark refuses to run without the roitel source tree.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

import checks
from run import HERE, ROOT, WORK_ROOT, run_op
from spec import END_TO_END, PER_LAYER, TINY, WORKLOADS
from spans import SELF_TIME_METRIC

WORK = WORK_ROOT / f"selftest-{os.getpid()}"


def tiny_op(name: str, traced: bool, seed: int = 1):
    workload = WORKLOADS[name]
    op_dir = WORK / f"{name}-{int(traced)}"
    shutil.rmtree(op_dir, ignore_errors=True)
    inputs = workload.make_inputs(op_dir / "inputs", seed, *TINY[name])
    result, out_dir = run_op(workload, inputs, op_dir / "op", traced, 0.0, timeout=120)
    return workload, result, out_dir


def overdrawn_runlog() -> str:
    """Two 1500-bit sends one second apart under a 2000-bit window cap."""
    header = {
        "kind": "roitel-runlog",
        "version": 1,
        "b_roi_bps": 1000.0,
        "window_s": 2.0,
        "raw_candidates": 2,
        "rejected_threshold": 0,
        "rejected_budget": 0,
    }
    txs = [{"kind": "tx", "frame": f, "t_s": f / 15.0, "cost_bits": 1500.0} for f in (15, 30)]
    return "\n".join(json.dumps(obj, sort_keys=True) for obj in [header, *txs]) + "\n"


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    def test_benchmark_json_matches_spec(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual(
            bench["workloads"], [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]
        )
        self.assertEqual(
            bench["end_to_end"],
            [{"name": n, "unit": u, "better": b, "bound": d} for n, u, b, d in END_TO_END],
        )
        self.assertEqual(
            bench["per_layer"], [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER]
        )

    def test_every_workload_passes_its_checks(self):
        for name in WORKLOADS:
            for traced in (False, True):
                with self.subTest(workload=name, traced=traced):
                    workload, result, out_dir = tiny_op(name, traced)
                    check = checks.check_op(workload, out_dir, result["exit_codes"], None)
                    self.assertEqual(check.problems, [])
                    self.assertEqual(check.attempted, len(workload.variants) + 1)
                    self.assertEqual(check.failed, 0)
                    self.assertEqual(result["exit_codes"], [0, 0])
                    self.assertTrue(all(check.digests))
                    if traced:
                        layers = result["layers"]
                        missing = {n for n, *_ in PER_LAYER} - set(layers) - {
                            "trace.overhead_ratio"
                        }
                        self.assertEqual(missing, set())
                        self_times = sum(layers[m] for m in set(SELF_TIME_METRIC.values()))
                        self.assertAlmostEqual(
                            self_times + layers["cli.other_s"], layers["trace.wall_s"], places=9
                        )

    def test_wrong_golden_digest_is_a_failed_operation(self):
        workload, result, out_dir = tiny_op("sweep_sidecar", False)
        good = checks.check_op(workload, out_dir, result["exit_codes"], None).digests
        self.assertEqual(checks.check_op(workload, out_dir, result["exit_codes"], good).failed, 0)
        wrong = list(good)
        wrong[3] = "0" * 64
        check = checks.check_op(workload, out_dir, result["exit_codes"], wrong)
        self.assertEqual(check.failed, 1)
        self.assertIn("pinned digest", check.problems[0])

    def test_overdrawn_runlog_is_a_failed_operation(self):
        workload, result, out_dir = tiny_op("simulate_long", False)
        (out_dir / "runlog.jsonl").write_text(overdrawn_runlog(), encoding="utf-8")
        check = checks.check_op(workload, out_dir, result["exit_codes"], None)
        self.assertEqual(check.failed, 1)
        self.assertIn("window overdrawn", " ".join(check.problems))

    def test_outcomes_above_candidates_are_reported(self):
        path = WORK / "overcounted.jsonl"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(overdrawn_runlog().replace('"rejected_budget": 0', '"rejected_budget": 5'))
        self.assertIn("exceeds raw_candidates", " ".join(checks.runlog_problems(path)))

    def test_failed_command_fails_every_operation(self):
        workload, result, out_dir = tiny_op("sweep_sidecar", False)
        check = checks.check_op(workload, out_dir, [1, 1], None)
        self.assertEqual(check.failed, check.attempted)

    def test_refuses_to_run_without_the_source_tree(self):
        bare = WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "simulate_long"]
            + ["--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=170,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)

    def test_pins_cover_every_workload(self):
        pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))
        for name, workload in WORKLOADS.items():
            self.assertIn(name, pins)
            for seed, pin in pins[name].items():
                self.assertEqual(len(pin["rows"]), len(workload.variants), (name, seed))
                self.assertEqual(set(pin["inputs"]), {"detections"} | (
                    {"sidecar"} if name == "sweep_sidecar" else set()
                ))


if __name__ == "__main__":
    unittest.main()
