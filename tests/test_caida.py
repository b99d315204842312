"""Unit tests for CAIDA AS-relationship file I/O."""

import gzip

import pytest

from repro.topology.caida import (
    CaidaFormatError,
    dump_caida,
    dumps_caida,
    load_caida,
    load_caida_mmap,
    loads_caida,
)
from repro.topology.relationships import Relationship

SAMPLE = """# serial-1 sample
1|2|0
1|10|-1
2|20|-1
10|30|-1
30|31|1
"""


class TestParsing:
    def test_loads_basic(self):
        graph = loads_caida(SAMPLE)
        assert len(graph) == 6
        assert graph.relationship(1, 2) is Relationship.PEER
        assert graph.relationship(1, 10) is Relationship.CUSTOMER
        assert graph.relationship(10, 1) is Relationship.PROVIDER
        assert graph.relationship(30, 31) is Relationship.SIBLING

    def test_comments_and_blank_lines_skipped(self):
        graph = loads_caida("# hi\n\n1|2|0\n")
        assert graph.edge_count() == 1

    def test_serial2_source_column(self):
        graph = loads_caida("1|2|-1|bgp\n")
        assert graph.relationship(1, 2) is Relationship.CUSTOMER

    @pytest.mark.parametrize("line", ["1|2", "1|2|9", "a|2|0", "1|2|0|x|y"])
    def test_malformed_lines_raise(self, line):
        with pytest.raises(CaidaFormatError):
            loads_caida(line)

    # int() alone takes signs, underscores and padding, and no range.
    @pytest.mark.parametrize(
        "line",
        ["-5|2|-1", "0|2|-1", "4294967296|2|-1", "1_000|2|0", " +7 |2|0",
         "7|+2|0", "7| 2|0", "7|\u0662|0", "7|2\u00b2|0", "1" * 5000 + "|2|0"],
        ids=["negative", "zero", "past-2^32-1", "underscore", "padded-sign",
             "sign", "padding", "arabic-indic", "superscript", "5000-digits"],
    )
    def test_asn_fields_are_plain_numbers_in_range(self, line, tmp_path):
        with pytest.raises(CaidaFormatError, match="line 2"):
            loads_caida(f"1|2|0\n{line}\n")
        path = tmp_path / "topo.txt"
        path.write_text(f"1|2|0\n{line}\n", encoding="utf-8")
        with pytest.raises(CaidaFormatError, match="line 2"):
            load_caida_mmap(path)
        if line.isascii():
            with pytest.raises(CaidaFormatError, match="line 2"):
                load_caida(path)

    def test_asn_range_ends_are_accepted(self):
        graph = loads_caida("1|4294967295|-1\n0007|8|0\n")
        assert graph.relationship(1, 4294967295) is Relationship.CUSTOMER
        assert graph.relationship(7, 8) is Relationship.PEER

    def test_conflicting_records_strict(self):
        text = "1|2|0\n1|2|-1\n"
        with pytest.raises(Exception):
            loads_caida(text, strict=True)
        graph = loads_caida(text, strict=False)
        assert graph.relationship(1, 2) is Relationship.PEER  # first wins


class TestRoundTrip:
    def test_dump_load_preserves_graph(self, mini_graph):
        text = dumps_caida(mini_graph)
        restored = loads_caida(text)
        assert restored.asns() == mini_graph.asns()
        assert restored.edge_count() == mini_graph.edge_count()
        for a, b, rel in mini_graph.edges():
            assert restored.relationship(a, b) is rel

    def test_serial2_emits_source(self, mini_graph):
        text = dumps_caida(mini_graph, serial=2, source="unit")
        data_lines = [line for line in text.splitlines() if not line.startswith("#")]
        assert all(line.endswith("|unit") for line in data_lines)
        restored = loads_caida(text)
        assert restored.edge_count() == mini_graph.edge_count()

    def test_unsupported_serial(self, mini_graph):
        with pytest.raises(ValueError):
            dumps_caida(mini_graph, serial=3)

    def test_file_round_trip(self, mini_graph, tmp_path):
        path = tmp_path / "topo.txt"
        dump_caida(mini_graph, path)
        assert load_caida(path).edge_count() == mini_graph.edge_count()

    def test_gzip_round_trip(self, mini_graph, tmp_path):
        path = tmp_path / "topo.txt.gz"
        dump_caida(mini_graph, path)
        with gzip.open(path, "rt") as handle:
            assert handle.readline().startswith("#")
        assert load_caida(path).edge_count() == mini_graph.edge_count()

    def test_sibling_round_trip(self):
        graph = loads_caida("5|6|1\n")
        assert loads_caida(dumps_caida(graph)).relationship(5, 6) is Relationship.SIBLING


class TestMmapLoader:
    """load_caida_mmap must agree with load_caida on every input shape."""

    def _assert_same(self, mini_graph, path):
        mapped = load_caida_mmap(path)
        direct = load_caida(path)
        assert mapped.asns() == direct.asns() == mini_graph.asns()
        assert mapped.edge_count() == direct.edge_count()
        for a, b, rel in direct.edges():
            assert mapped.relationship(a, b) is rel

    def test_plain_file(self, mini_graph, tmp_path):
        path = tmp_path / "topo.txt"
        dump_caida(mini_graph, path)
        self._assert_same(mini_graph, path)

    def test_gzip_fallback(self, mini_graph, tmp_path):
        path = tmp_path / "topo.txt.gz"
        dump_caida(mini_graph, path)
        self._assert_same(mini_graph, path)

    def test_no_trailing_newline(self, tmp_path):
        path = tmp_path / "topo.txt"
        path.write_text("1|2|0\n1|10|-1", encoding="ascii")  # no final \n
        assert load_caida_mmap(path).edge_count() == 2

    def test_gzip_without_trailing_newline_matches_plain_file(self, tmp_path):
        text = "# serial-1\n1|2|0\n1|10|-1\n2|20|-1"  # no final \n
        plain = tmp_path / "topo.txt"
        plain.write_text(text, encoding="ascii")
        packed = tmp_path / "topo.txt.gz"
        with gzip.open(packed, "wt", encoding="ascii") as handle:
            handle.write(text)
        expected = load_caida_mmap(plain)
        loaded = load_caida_mmap(packed)
        assert expected.edge_count() == 3
        assert loaded.asns() == expected.asns()
        assert sorted(loaded.edges()) == sorted(expected.edges())

    def test_empty_file(self, tmp_path):
        path = tmp_path / "topo.txt"
        path.write_text("", encoding="ascii")
        assert len(load_caida_mmap(path)) == 0

    def test_strict_errors_still_carry_line_numbers(self, tmp_path):
        path = tmp_path / "topo.txt"
        path.write_text("1|2|0\n1|2\n", encoding="ascii")
        with pytest.raises(CaidaFormatError, match="line 2"):
            load_caida_mmap(path)
