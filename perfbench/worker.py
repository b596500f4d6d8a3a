"""One benchmark operation in a fresh process.

Usage: python3 worker.py SPEC.json

SPEC names the source tree to import roitel from, the CLI argument lists to
run, the ``--set`` overrides for the set-up config, whether to trace, and
where to write the result JSON. The process measures its own set-up time,
the wall time of the CLI calls, and its own peak RSS.

The host this benchmark was built on shares its cores with other tenants,
and their load changes how fast the same code runs by up to 60% over
seconds to minutes. So the process also times a fixed reference loop before
the set-up, between set-up and the CLI calls, and after them, and reports
``setup_s`` and ``wall_s`` scaled to the reference loop's nominal speed:
measured seconds times ``REF_NOMINAL_S`` over the mean of the two loops that
bracket the interval. The raw seconds are reported next to them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

#: Time of ``reference_s`` on an otherwise idle core of the 2-vCPU host the
#: benchmark was built on; scaled times read as seconds at that speed.
REF_NOMINAL_S = 0.055


def reference_s() -> float:
    """Seconds taken by a fixed mix of integer arithmetic and of parsing and
    sorting small rows, the two kinds of work roitel does: the host's speed."""
    t0 = perf_counter()
    total = 0
    for i in range(400_000):
        total += i * i
    rows = []
    for i in range(12_000):
        f = f"{i},{i % 97},{i * 0.37:.2f},{(i * 7) % 1000 * 0.11:.2f},0.{i % 9973:04d}".split(",")
        rows.append((int(f[0]), int(f[1]), float(f[2]), float(f[3]), float(f[4])))
    rows.sort(key=lambda r: (-r[4], r[3]))
    return perf_counter() - t0


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    src = str(Path(spec["src"]).resolve())
    sys.path.insert(0, src)

    ref_before_setup = reference_s()
    t0 = perf_counter()
    import roitel
    import roitel.cli
    from roitel import config

    config.apply_overrides(config.build_config({}), spec["config_sets"])
    setup_s = perf_counter() - t0
    if not str(Path(roitel.__file__).resolve()).startswith(src + os.sep):
        raise SystemExit(f"roitel was imported from {roitel.__file__}, not from {src}")

    ref_before_cli = reference_s()
    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    exit_codes: list = []
    errors: list[str] = []
    sink = io.StringIO()
    t1 = perf_counter()
    for argv in spec["commands"]:
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                exit_codes.append(roitel.cli.main(argv))
        except SystemExit as exc:  # argparse rejects a command line this way
            exit_codes.append(exc.code)
        except Exception:  # noqa: BLE001 - a raising command is a failed operation
            exit_codes.append(None)
            errors.append(traceback.format_exc())
    wall_s = perf_counter() - t1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ref_after_cli = reference_s()

    result = {
        "setup_s": setup_s * REF_NOMINAL_S * 2 / (ref_before_setup + ref_before_cli),
        "wall_s": wall_s * REF_NOMINAL_S * 2 / (ref_before_cli + ref_after_cli),
        "setup_raw_s": setup_s,
        "wall_raw_s": wall_s,
        "reference_s": [ref_before_setup, ref_before_cli, ref_after_cli],
        "peak_rss_mb": peak_rss_mb,
        "exit_codes": exit_codes,
        "errors": errors,
        "messages": [sink.getvalue()[-2000:]] if any(code != 0 for code in exit_codes) else [],
        "env": environment(roitel),
    }
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer, wall_s, spec["input_mb"])
        result["layers_self_sum"] = tracer.top_level_seconds()
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


def environment(roitel) -> dict:
    import platform

    import numpy

    try:
        import roitel._fastassoc  # noqa: F401

        fastassoc = True
    except ImportError:
        fastassoc = False
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": roitel.backend_name(),
        "fastassoc_imports": fastassoc,
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
