"""Unit tests for routes and the single-entry RIB."""

import pytest

from repro.bgp.routes import Rib, Route
from repro.prefixes.prefix import Prefix
from repro.topology.relationships import RouteClass

P = Prefix.parse("10.0.0.0/8")


class TestRoute:
    def test_origin_route(self):
        route = Route(P, RouteClass.ORIGIN, (), 7)
        assert route.length == 0
        assert route.origin == 7

    def test_learned_route(self):
        route = Route(P, RouteClass.CUSTOMER, (3, 7), 7)
        assert route.length == 2

    def test_path_must_end_at_origin(self):
        with pytest.raises(ValueError):
            Route(P, RouteClass.CUSTOMER, (3, 4), 7)

    def test_empty_path_only_for_origin_class(self):
        with pytest.raises(ValueError):
            Route(P, RouteClass.PEER, (), 7)

    def test_extend_prepends_and_reclassifies(self):
        origin = Route(P, RouteClass.ORIGIN, (), 7)
        hop1 = origin.extend(7, RouteClass.CUSTOMER)
        assert hop1.path == (7,)
        assert hop1.length == 1
        assert hop1.route_class is RouteClass.CUSTOMER
        hop2 = hop1.extend(3, RouteClass.PROVIDER)
        assert hop2.path == (3, 7)
        assert hop2.route_class is RouteClass.PROVIDER
        assert hop2.origin == 7

    def test_contains_node(self):
        route = Route(P, RouteClass.CUSTOMER, (3, 7), 7)
        assert route.contains_node(3)
        assert route.contains_node(7)
        assert not route.contains_node(4)


class TestRib:
    def test_install_and_get(self):
        rib = Rib()
        route = Route(P, RouteClass.ORIGIN, (), 1)
        rib.install(route)
        assert rib.get(P) is route
        assert P in rib
        assert len(rib) == 1

    def test_one_entry_per_prefix(self):
        rib = Rib()
        rib.install(Route(P, RouteClass.ORIGIN, (), 1))
        replacement = Route(P, RouteClass.CUSTOMER, (2,), 2)
        rib.install(replacement)
        assert rib.get(P) is replacement
        assert len(rib) == 1

    def test_multiple_prefixes(self):
        rib = Rib()
        other = Prefix.parse("11.0.0.0/8")
        rib.install(Route(P, RouteClass.ORIGIN, (), 1))
        rib.install(Route(other, RouteClass.ORIGIN, (), 1))
        assert len(rib) == 2
        assert {route.prefix for route in rib} == {P, other}

    def test_get_missing(self):
        assert Rib().get(P) is None
