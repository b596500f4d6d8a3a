"""The text layer the detection parsers and the run-log reader share: a
source as a seekable text file, and that file in blocks of whole lines."""

from __future__ import annotations

import io
from typing import Iterator, TextIO, Union

#: Line ends of ``str.splitlines`` other than ``\n`` that ASCII text can
#: hold; a file opened with universal newlines holds no ``\r``.
_OTHER_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e"

#: Characters ``line_blocks`` reads at a time before it completes the last
#: line, so a block holds at least one whole line, however long. The
#: run-log reader frees a block's dicts before the next block: blocks of
#: 256 KiB or more leave the garbage collector more dicts to walk and read
#: a sweep's logs about 20% slower.
BLOCK = 1 << 16


def text_file(source: Union[str, TextIO]) -> TextIO:
    """``source`` as a seekable text file: a ``str`` is read as a file opened
    with universal newlines reads it, and a file that cannot seek, such as a
    pipe, is read once."""
    if isinstance(source, str):
        # one byte per ASCII character, where a StringIO holds four
        data = io.BytesIO(source.encode("utf-8", "surrogatepass"))
        return io.TextIOWrapper(data, encoding="utf-8", errors="surrogatepass")
    if not source.seekable():
        return text_file(source.read())
    return source


def plain_ascii(text: str) -> bool:
    """Whether ``text`` is ASCII that only ``\\n`` breaks into lines, as
    ``str.splitlines`` breaks them at more."""
    return text.isascii() and not any(c in text for c in _OTHER_BREAKS)


def line_blocks(f: TextIO) -> Iterator[str]:
    """The rest of ``f`` in blocks of whole lines; only the file's last line
    may lack its ``\\n``."""
    while block := f.read(BLOCK):
        yield block if block.endswith("\n") else block + f.readline()
