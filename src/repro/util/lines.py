"""Newline splitting of chunked byte streams, with a bound on line length.

Trace files and daemon feeds are read in fixed-size binary chunks and
split on ``\\n`` by hand. Without a bound, a line that never ends is
carried from chunk to chunk: it is held in memory whole, and re-joining
and re-splitting it on every chunk costs time quadratic in its length.
:class:`LineSplitter` gives a line up once its unterminated fragment
grows past :data:`_MAX_LINE_BYTES`. It reports the line once as ``None``,
so the caller counts one malformed line and later line numbers stay
aligned, then skips the line's remaining bytes through the next newline.
"""

from __future__ import annotations

__all__ = ["OVERLONG_LINE", "LineSplitter"]

# Generated trace records and feed events are under 200 bytes.
_MAX_LINE_BYTES = 1 << 20

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
