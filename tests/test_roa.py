"""Unit tests for ROAs and the RFC 6483 validation algorithm."""

import pytest

from repro.prefixes.prefix import Prefix
from repro.registry.roa import RoaTable, RouteOriginAuthorization, ValidationState


def p(text: str) -> Prefix:
    return Prefix.parse(text)


class TestRoa:
    def test_authorizes_exact(self):
        roa = RouteOriginAuthorization(p("10.0.0.0/16"), 65001)
        assert roa.authorizes(p("10.0.0.0/16"), 65001)

    def test_wrong_origin_not_authorized(self):
        roa = RouteOriginAuthorization(p("10.0.0.0/16"), 65001)
        assert not roa.authorizes(p("10.0.0.0/16"), 65002)

    def test_max_length_defaults_to_prefix_length(self):
        roa = RouteOriginAuthorization(p("10.0.0.0/16"), 65001)
        assert roa.effective_max_length == 16
        assert not roa.authorizes(p("10.0.128.0/17"), 65001)

    def test_max_length_permits_more_specifics(self):
        roa = RouteOriginAuthorization(p("10.0.0.0/16"), 65001, max_length=20)
        assert roa.authorizes(p("10.0.16.0/20"), 65001)
        assert not roa.authorizes(p("10.0.16.0/21"), 65001)

    def test_max_length_bounds_checked(self):
        with pytest.raises(ValueError):
            RouteOriginAuthorization(p("10.0.0.0/16"), 65001, max_length=8)
        with pytest.raises(ValueError):
            RouteOriginAuthorization(p("10.0.0.0/16"), 65001, max_length=33)

class TestRoaTable:
    @pytest.fixture
    def table(self) -> RoaTable:
        return RoaTable([
            RouteOriginAuthorization(p("10.0.0.0/16"), 65001),
            RouteOriginAuthorization(p("10.1.0.0/16"), 65002, max_length=24),
        ])

    def test_valid(self, table):
        assert table.validate(p("10.0.0.0/16"), 65001) is ValidationState.VALID

    def test_invalid_wrong_origin(self, table):
        assert table.validate(p("10.0.0.0/16"), 65999) is ValidationState.INVALID

    def test_invalid_too_specific(self, table):
        assert table.validate(p("10.0.0.0/24"), 65001) is ValidationState.INVALID

    def test_valid_within_max_length(self, table):
        assert table.validate(p("10.1.2.0/24"), 65002) is ValidationState.VALID

    def test_not_found_for_uncovered_space(self, table):
        assert table.validate(p("192.168.0.0/16"), 65001) is ValidationState.NOT_FOUND

    def test_multiple_roas_any_match_wins(self, table):
        table.add(RouteOriginAuthorization(p("10.0.0.0/16"), 65077))
        assert table.validate(p("10.0.0.0/16"), 65077) is ValidationState.VALID
        assert table.validate(p("10.0.0.0/16"), 65001) is ValidationState.VALID

    def test_add_is_idempotent(self, table):
        before = len(table)
        table.add(RouteOriginAuthorization(p("10.0.0.0/16"), 65001))
        assert len(table) == before

    def test_remove(self, table):
        roa = RouteOriginAuthorization(p("10.0.0.0/16"), 65001)
        table.remove(roa)
        assert table.validate(p("10.0.0.0/16"), 65001) is ValidationState.NOT_FOUND
        with pytest.raises(KeyError):
            table.remove(roa)

    def test_version_moves_only_when_the_table_changes(self, table):
        roa = RouteOriginAuthorization(p("10.9.0.0/16"), 65009)
        version = table.version
        table.add(roa)
        assert table.version == version + 1
        table.add(roa)  # already present: nothing changed
        assert table.version == version + 1
        table.remove(roa)
        assert table.version == version + 2
        with pytest.raises(KeyError):
            table.remove(roa)
        assert table.version == version + 2

    def test_covering_collects_ancestors(self, table):
        table.add(RouteOriginAuthorization(p("10.0.0.0/8"), 65000))
        covering = table.covering(p("10.0.0.0/24"))
        assert {roa.origin_asn for roa in covering} == {65000, 65001}

    def test_iteration(self, table):
        assert {roa.origin_asn for roa in table} == {65001, 65002}
