"""Output checks for one benchmark operation.

An operation is one policy run checked end to end (a simulate is one, a
sweep is one per variant) plus the closing ``roitel report``, which is one
more. A policy run fails when its command exits non-zero or raises, when
its report row (and selection row) does not match the pinned digest, or
when its run log overdraws the rolling window or counts more outcomes than
candidates. The report operation fails when its rows differ from the rows
of the report the simulate or sweep wrote.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional


@dataclass
class OpCheck:
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def table_rows(path: Path) -> list[str]:
    """Header and data lines of a CSV report; ``#`` config echo lines are
    left out (``report`` echoes the first log's config, not the sweep's)."""
    text = path.read_text(encoding="utf-8")
    return [line for line in text.splitlines() if line and not line.startswith("#")]


def runlog_problems(path: Path) -> list[str]:
    """Re-check a run log: the rolling window is never overdrawn, and
    ``selected + rejected_threshold + rejected_budget <= raw_candidates``."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    cap = header["b_roi_bps"] * header["window_s"]
    window_s = header["window_s"]
    problems = []
    entries: deque = deque()
    selected = 0
    for line in lines[1:]:
        if '"kind": "tx"' not in line:
            continue
        tx = json.loads(line)
        now, bits = tx["t_s"], tx["cost_bits"]
        selected += 1
        # Same expression and summation order as BudgetLedger.admits, so a
        # boundary case cannot disagree with the ledger.
        lo = now - window_s
        while entries and entries[0][0] <= lo:
            entries.popleft()
        if not sum(b for ts, b in entries if lo < ts <= now) + bits <= cap:
            problems.append(f"{path.name}: window overdrawn at t={now} frame {tx['frame']}")
        entries.append((now, bits))
    outcomes = selected + header["rejected_threshold"] + header["rejected_budget"]
    if outcomes > header["raw_candidates"]:
        problems.append(
            f"{path.name}: selected + rejected = {outcomes} exceeds "
            f"raw_candidates = {header['raw_candidates']}"
        )
    return problems


def row_digests(out_dir: Path, variants, with_selection: bool) -> list[Optional[str]]:
    """sha256 per variant of its report row (plus its selection row), each
    with its table header; None where the row is missing or mislabeled."""
    tables = [table_rows(out_dir / "report.csv")]
    if with_selection:
        tables.append(table_rows(out_dir / "selection.csv"))
    digests = []
    for i, variant in enumerate(variants, start=1):
        if any(i >= len(t) or not t[i].startswith(variant + ",") for t in tables):
            digests.append(None)
            continue
        text = "\n".join(line for t in tables for line in (t[0], t[i]))
        digests.append(hashlib.sha256(text.encode("utf-8")).hexdigest())
    return digests


def check_op(workload, out_dir: Path, exit_codes, golden: Optional[list[str]]) -> OpCheck:
    variants = workload.variants
    result = OpCheck(attempted=len(variants) + 1)
    failed = [False] * len(variants)
    run_code, report_code = (list(exit_codes) + [None, None])[:2]

    def fail(i, problem):
        failed[i] = True
        result.problems.append(f"{variants[i]}: {problem}")

    report_rows = None
    if run_code != 0:
        for i in range(len(variants)):
            fail(i, f"command exited with {run_code}")
    else:
        try:
            digests = row_digests(out_dir, variants, workload.name == "sweep_sidecar")
            report_rows = table_rows(out_dir / "report.csv")
        except (OSError, ValueError) as err:
            digests = [None] * len(variants)
            result.problems.append(f"cannot read the report: {err}")
        result.digests = [d or "" for d in digests]
        for i, (log_path, digest) in enumerate(zip(workload.run_logs(out_dir), digests)):
            if digest is None:
                fail(i, "report or selection row missing or mislabeled")
            elif golden is not None and digest != golden[i]:
                fail(i, "report row differs from the pinned digest")
            try:
                problems = runlog_problems(log_path)
            except (OSError, ValueError, KeyError, IndexError) as err:
                problems = [f"{log_path.name}: unreadable run log: {err!r}"]
            for problem in problems:
                fail(i, problem)

    report_ok = report_code == 0 and report_rows is not None
    if report_ok:
        try:
            report_ok = table_rows(out_dir / "rereport.csv") == report_rows
        except OSError:
            report_ok = False
    if not report_ok:
        result.problems.append(f"report: exit {report_code}, rows differ from report.csv")
    result.failed = sum(failed) + (0 if report_ok else 1)
    return result
