"""Rewrite a run log through ``roitel.runlog`` alone, with NumPy blocked.

Usage: python3 tests/runlog_without_numpy.py SRC_ROITEL_DIR < runlog.jsonl > copy.jsonl

A bare module whose ``__path__`` is SRC_ROITEL_DIR stands in for the
``roitel`` package, so the package's ``__init__``, which imports NumPy, does
not run, and any import of NumPy raises ImportError. The log on standard
input is read by ``read_jsonl`` and by ``iter_jsonl``, which must give the
same lines, and written to standard output by ``to_jsonl_lines``: a log
that the writer wrote comes back byte for byte.
"""

import sys
import types

package = types.ModuleType("roitel")
package.__path__ = [sys.argv[1]]
sys.modules["roitel"] = package
sys.modules["numpy"] = None

from roitel import runlog  # noqa: E402

text = sys.stdin.read()
log = runlog.read_jsonl(text)
parts = runlog.iter_jsonl(text)
folded = next(parts)
for tx_cols, class_events in parts:
    folded.transmissions += map(runlog.TransmissionRecord, *tx_cols)
    folded.class_events += class_events
lines = list(runlog.to_jsonl_lines(log))
if list(runlog.to_jsonl_lines(folded)) != lines:
    sys.exit("iter_jsonl and read_jsonl read different logs")
sys.stdout.writelines(line + "\n" for line in lines)
