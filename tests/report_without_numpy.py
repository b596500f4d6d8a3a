"""Fold a run log into its report through ``roitel.metrics``, with NumPy
blocked.

Usage: python3 tests/report_without_numpy.py SRC_ROITEL_DIR FORMAT < runlog.jsonl > report

NumPy and the package's ``__init__`` are kept out as in
``runlog_without_numpy.py``. The log on standard input is folded by
``fold_jsonl`` and its report written to standard output by ``emit_report``
in FORMAT (csv, json or markdown), labelled by the log's variant and echoing
its config, as ``roitel report`` writes it. The ``roitel`` modules loaded
are listed on standard error, one a line.
"""

import sys

from runlog_without_numpy import block_numpy


def main() -> None:
    block_numpy(sys.argv[1])
    from roitel import metrics

    log, rep = metrics.fold_jsonl(sys.stdin)
    sys.stdout.write(metrics.emit_report([(log.variant, rep)], sys.argv[2], log.config_echo))
    loaded = sorted(name for name in sys.modules if name.startswith("roitel."))
    print(*loaded, sep="\n", file=sys.stderr)


if __name__ == "__main__":
    main()
