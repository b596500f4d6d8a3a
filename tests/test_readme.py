"""The README's library example runs as written, and the package exports
the names it lists."""

import re
from pathlib import Path

import roitel

README = Path(__file__).resolve().parent.parent / "README.md"


def library_snippet() -> str:
    """The first ```python block of the README's "Library use" section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_library_use_snippet_runs(capsys):
    exec(compile(library_snippet(), str(README), "exec"), {"__name__": "readme"})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[1].endswith(" 99")


def test_every_exported_name_resolves():
    assert len(set(roitel.__all__)) == len(roitel.__all__)
    for name in roitel.__all__:
        assert getattr(roitel, name) is not None, name
    # the IoU references live in the test helpers, not in the package
    for name in ("greedy_match", "iou", "pairwise_iou"):
        assert name not in roitel.__all__ and not hasattr(roitel, name), name
