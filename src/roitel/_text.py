"""The text layer every reader shares: a source as a text file, and that
file in numbered blocks of whole lines, each read once."""

from __future__ import annotations

import io
from typing import Iterator, TextIO, Union

#: Line ends of ``str.splitlines`` other than ``\n`` that ASCII text can
#: hold; a file opened with universal newlines holds no ``\r``.
_OTHER_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e"

#: Characters ``line_blocks`` reads at a time before it completes the last
#: line, so a block holds at least one whole line, however long. It sizes a
#: detection parser's ``np.loadtxt`` calls and the dicts the run-log reader
#: frees before the next block: blocks of 256 KiB or more leave the garbage
#: collector more dicts to walk, reading a sweep's logs about 20% slower.
BLOCK = 1 << 16


def text_file(source: Union[str, TextIO]) -> TextIO:
    """``source`` as a text file: a ``str`` is read as a file opened with
    universal newlines reads it, and a file is read from where it stands,
    only in reads of a given size, so a pipe does as well as a file."""
    if isinstance(source, str):
        # one byte per ASCII character, where a StringIO holds four
        data = io.BytesIO(source.encode("utf-8", "surrogatepass"))
        return io.TextIOWrapper(data, encoding="utf-8", errors="surrogatepass")
    return source


def plain_ascii(text: str) -> bool:
    """Whether ``text`` is ASCII that only ``\\n`` breaks into lines, as
    ``str.splitlines`` breaks them at more."""
    return text.isascii() and not any(c in text for c in _OTHER_BREAKS)


def line_blocks(f: TextIO) -> Iterator[tuple[int, str, bool]]:
    """The rest of ``f`` in blocks of whole lines, each with the number
    ``str.splitlines`` gives its first line in the rest of ``f`` as one
    text, and its ``plain_ascii`` verdict; only the last block may lack ``\\n``."""
    line_no = 1
    while block := f.read(BLOCK):
        block += "" if block.endswith("\n") else f.readline()
        plain = plain_ascii(block)
        yield line_no, block, plain
        # counting is cheaper than splitting, and equal in plain ASCII
        line_no += block.count("\n") if plain else len(block.splitlines())
