"""Test-side writes into a :class:`~repro.bgp.engine.RouteState`.

The engine never writes a cell outside its kernels, so building a state
from per-node columns and corrupting one cell on purpose live here, on
top of the packed layout's own ``_pack``.
"""

from __future__ import annotations

from repro.bgp.engine import RouteState, _pack


def state_of(origin, route_class, length, parent, origin_of) -> RouteState:
    """A state of the given per-node fields: packed from Python
    sequences, kept as they are from numpy arrays."""
    if isinstance(route_class, (list, tuple)):
        return RouteState(origin, list(map(_pack, route_class, length, parent, origin_of)))
    return RouteState(origin, arrays=(route_class, length, parent, origin_of))


def set_route(state: RouteState, node: int, *, cls=None, length=None, parent=None, origin_of=None):
    """Overwrite the given fields of *node*'s route, keeping the rest.

    A frozen state raises as its representation does: a tuple
    ``TypeError``, a read-only array ``ValueError``. A field the packed
    layout cannot hold raises ``ValueError``.
    """
    fields = [
        old if new is None else new
        for old, new in zip(state.route(node), (cls, length, parent, origin_of))
    ]
    if state.routes is not None:
        state.routes[node] = _pack(*fields)
    else:
        for array, value in zip(state.arrays, fields):
            array[node] = value
