"""Reading line-oriented input: bounded newline splitting, timestamp checks.

Trace files and daemon feeds are read in fixed-size binary chunks and
split on ``\\n`` by hand. Without a bound, a line that never ends is
carried from chunk to chunk: it is held in memory whole, and re-joining
and re-splitting it on every chunk costs time quadratic in its length.
:class:`LineSplitter` gives a line up once its unterminated fragment
grows past :data:`_MAX_LINE_BYTES`. It reports the line once as ``None``,
so the caller counts one malformed line and later line numbers stay
aligned, then skips the line's remaining bytes through the next newline.
:func:`iter_chunk_lines` is the one reader over a whole binary handle;
only the daemon's feed task, which must hold a partial line back while
it tails a growing file, drives a splitter by hand.

:func:`decode_json_line` is the JSON decode and :func:`valid_timestamp`
the timestamp check that both line formats (stream events and trace
records) apply to a line and to a decoded field.
"""

from __future__ import annotations

import json
import math
from typing import IO, Iterator

__all__ = [
    "CHUNK_SIZE", "OVERLONG_LINE", "LineSplitter", "decode_json_line", "iter_chunk_lines",
    "valid_timestamp",
]

# Generated trace records and feed events are under 200 bytes.
_MAX_LINE_BYTES = 1 << 20

#: Raw bytes per read for :func:`iter_chunk_lines` (1 MiB).
CHUNK_SIZE = 1 << 20

#: The malformed-line message for a line the splitter gave up on.
OVERLONG_LINE = f"line exceeds {_MAX_LINE_BYTES} bytes without a newline"


class LineSplitter:
    """Split raw chunks into ``\\n``-terminated lines, bounding the carry."""

    def __init__(self) -> None:
        self._fragment = b""
        self._skipping = False

    def feed(self, chunk: bytes) -> list[bytes | None]:
        """The lines *chunk* completes, in order; ``None`` is an overlong line."""
        if self._skipping:
            cut = chunk.find(b"\n")
            if cut < 0:
                return []
            self._skipping = False
            chunk = chunk[cut + 1:]
        lines: list[bytes | None]
        *lines, self._fragment = (self._fragment + chunk).split(b"\n")
        if len(self._fragment) > _MAX_LINE_BYTES:
            lines.append(None)
            self._fragment = b""
            self._skipping = True
        return lines

    def finish(self) -> bytes:
        """The unterminated tail at end of input (``b""`` if none)."""
        fragment, self._fragment = self._fragment, b""
        return fragment


def iter_chunk_lines(
    handle: IO[bytes], chunk_size: int = CHUNK_SIZE
) -> Iterator[bytes | None]:
    """Split a binary stream into lines, *chunk_size* raw bytes at a time.

    ``None`` stands for a line the splitter gave up on as overlong; an
    unterminated final line is yielded as it stands.
    """
    splitter = LineSplitter()
    while True:
        chunk = handle.read(chunk_size)
        if not chunk:
            break
        yield from splitter.feed(chunk)
    tail = splitter.finish()
    if tail:
        yield tail


_scan_once = json.JSONDecoder().scan_once


def decode_json_line(line: str) -> object:
    """The JSON value *line* holds, read with one scan of the decoder.

    ``json.loads`` wraps the same scanner in a whitespace pass on each
    side. A line the scanner reads to its last character needs neither;
    any other line (surrounding whitespace, trailing data, a decode
    error) goes through ``json.loads``, so the value and each error text
    are its own. Every failure is a ``ValueError``: a ``JSONDecodeError``,
    a number past ``int()``'s digit limit, or nesting past the
    interpreter's recursion limit (re-raised as a ``ValueError`` with
    the same text), so one hostile line cannot stop a reader.
    """
    try:
        value, end = _scan_once(line, 0)
        if end == len(line):
            return value
    except (StopIteration, ValueError, RecursionError):
        pass
    try:
        return json.loads(line)
    except RecursionError as error:
        raise ValueError(str(error)) from error


def valid_timestamp(value: object) -> bool:
    """Whether a decoded field is a usable time: a finite int or float.

    ``json.loads`` yields ``NaN``, ``Infinity`` and integers beyond float
    range; any of them would pin a replay clock for good.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond float range
        return False
