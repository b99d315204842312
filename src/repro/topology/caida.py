"""Reading and writing CAIDA AS-relationship files.

The paper's simulator "constructs a topology of 42,697 interconnected router
objects as it reads a list of 139,156 provider/customer/peer relationships
obtained from CAIDA". This environment has no network access, so experiments
default to the calibrated synthetic topology — but this module implements the
real file formats, so a downloaded CAIDA snapshot reproduces the paper at
full scale with no code changes:

* **serial-1** (``as-rel.txt``): ``<as1>|<as2>|<rel>`` with ``rel`` −1 for
  *as1 is provider of as2*, 0 for peers. Some historical datasets also use
  1 or 2 for sibling links; both are accepted here and mapped to SIBLING.
* **serial-2** (``as-rel2.txt``): same plus a trailing ``|<source>`` column.

ASN fields are plain ASCII decimal numbers in 1..2^32−1, the range the
trace reader (:mod:`repro.ingest.records`) enforces; a sign, padding, an
underscore, a non-ASCII byte or any other text is a
:class:`CaidaFormatError` naming the line, and so is a record that
conflicts with an earlier one.

Files are read by :func:`load_caida_mmap`, always strictly;
:func:`loads_caida` parses text already in memory, and with
``strict=False`` skips conflicting records instead.

Comment lines start with ``#`` and are preserved on a best-effort basis when
writing.
"""

from __future__ import annotations

import gzip
import io
import mmap
from pathlib import Path
from typing import Iterable, Iterator

from repro.topology.asgraph import ASGraph, TopologyError
from repro.topology.relationships import Relationship

__all__ = [
    "load_caida_mmap",
    "loads_caida",
    "dump_caida",
    "CaidaFormatError",
]

_P2C = -1
_P2P = 0
_SIBLING_CODES = (1, 2)
_RELATIONSHIP_OF_CODE = {
    _P2C: Relationship.CUSTOMER,  # as1 provider of as2
    _P2P: Relationship.PEER,
    **{code: Relationship.SIBLING for code in _SIBLING_CODES},
}
_MAX_ASN = 2**32 - 1


class CaidaFormatError(ValueError):
    """Raised for lines that do not parse as AS-relationship records."""


def _parse_asn(text: str, line_number: int) -> int:
    """An ASN field: 1 to 10 ASCII digits worth 1..2^32-1, nothing else
    (``int`` alone would also take signs, ``_`` and padding)."""
    if not (text.isascii() and text.isdigit()):
        raise CaidaFormatError(f"line {line_number}: ASN {text!r} is not a plain number")
    value = int(text) if len(text) <= 10 else 0  # more digits are out of range
    if not 0 < value <= _MAX_ASN:
        raise CaidaFormatError(f"line {line_number}: ASN {text} outside 1..2^32-1")
    return value


def _interned_asn(text: str, line_number: int, asns: dict[str | int, int]) -> int:
    """Parse a new ASN *text* into *asns*, reusing the ``int`` of an
    earlier text with the same value ("7" and "007")."""
    value = _parse_asn(text, line_number)
    value = asns.setdefault(value, value)
    asns[text] = value
    return value


def _parse_line(
    line: str, line_number: int, asns: dict[str | int, int]
) -> tuple[int, int, Relationship] | None:
    """One record, or ``None`` for a blank or comment line.

    *asns* holds this load's ASNs, by text and by value: an AS named in
    many records is one ``int`` object in the graph, not one per record,
    and each distinct text is checked once.
    """
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    fields = stripped.split("|")
    if len(fields) not in (3, 4):  # serial-1 or serial-2
        raise CaidaFormatError(
            f"line {line_number}: expected 3 or 4 '|'-separated fields, got {len(fields)}"
        )
    as1 = asns.get(fields[0])
    if as1 is None:
        as1 = _interned_asn(fields[0], line_number, asns)
    as2 = asns.get(fields[1])
    if as2 is None:
        as2 = _interned_asn(fields[1], line_number, asns)
    try:
        code = int(fields[2])
    except ValueError as exc:
        raise CaidaFormatError(f"line {line_number}: non-numeric field") from exc
    relationship = _RELATIONSHIP_OF_CODE.get(code)
    if relationship is None:
        raise CaidaFormatError(f"line {line_number}: unknown relationship code {code}")
    return as1, as2, relationship


def loads_caida(text: str, *, strict: bool = True) -> ASGraph:
    """Parse AS-relationship *text* into an :class:`ASGraph`.

    With ``strict=False``, duplicate/conflicting records are skipped instead
    of raising — real snapshots occasionally contain both a p2p and a p2c
    record for a pair.
    """
    return _read(io.StringIO(text), strict=strict)


def _read(handle: Iterable[str], *, strict: bool) -> ASGraph:
    graph = ASGraph()
    add_link = graph.add_link
    asns: dict[str | int, int] = {}  # this load's ASNs, dropped with it
    for line_number, line in enumerate(handle, start=1):
        record = _parse_line(line, line_number, asns)
        if record is None:
            continue
        try:
            add_link(*record)
        except TopologyError as error:
            if strict:
                raise CaidaFormatError(f"line {line_number}: {error}") from error
    return graph


def load_caida_mmap(path: str | Path) -> ASGraph:
    """Load an AS-relationship file without materializing it in memory.

    Plain files are memory-mapped and parsed line by line straight out
    of the page cache — the kernel streams pages in and evicts them
    behind the cursor, so a full 42,697-AS snapshot costs one graph, not
    one graph plus one file copy. ``.gz`` files cannot be mapped
    usefully; they are read line by line from the decompressing stream,
    with the same bounded-memory property. Empty files parse to an
    empty graph (``mmap`` rejects zero-length maps, hence the guard).
    A byte that is not ASCII decodes to U+FFFD, so a field holding one
    fails its parse with the line's number; in a comment or the serial-2
    source column it is ignored.
    """
    path = Path(path)
    if path.suffix == ".gz":
        return _read(_gzip_lines(path), strict=True)
    if path.stat().st_size == 0:
        return ASGraph()
    with path.open("rb") as handle:
        with mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ) as mapped:
            return _read(_mmap_lines(mapped), strict=True)


def _mmap_lines(mapped: mmap.mmap) -> Iterator[str]:
    while True:
        raw = mapped.readline()
        if not raw:
            return
        yield raw.decode("ascii", "replace")


def _gzip_lines(path: Path) -> Iterator[str]:
    with gzip.open(path, "rb") as handle:
        for raw in handle:
            yield raw.decode("ascii", "replace")


def dumps_caida(graph: ASGraph, *, serial: int = 1, source: str = "repro") -> str:
    """Serialize *graph* in CAIDA serial-1 (default) or serial-2 format."""
    if serial not in (1, 2):
        raise ValueError(f"unsupported serial format {serial}")
    lines = [f"# {len(graph)} ASes, {graph.edge_count()} links (repro export)"]
    suffix = f"|{source}" if serial == 2 else ""
    for asn, neighbor, relationship in graph.edges():
        if relationship is Relationship.CUSTOMER:
            code = _P2C
        elif relationship is Relationship.PEER:
            code = _P2P
        else:
            code = _SIBLING_CODES[0]
        lines.append(f"{asn}|{neighbor}|{code}{suffix}")
    return "\n".join(lines) + "\n"


def dump_caida(graph: ASGraph, path: str | Path) -> None:
    """Write *graph* to *path* in serial-1 format (gzip if the suffix is ``.gz``)."""
    path = Path(path)
    text = dumps_caida(graph)
    if path.suffix == ".gz":
        with gzip.open(path, "wt", encoding="ascii") as handle:
            handle.write(text)
    else:
        path.write_text(text, encoding="ascii")
