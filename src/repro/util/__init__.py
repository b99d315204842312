"""Shared utilities: deterministic RNG streams, CCDF statistics, tables."""

from repro.util.ccdf import CcdfCurve, ccdf, describe
from repro.util.rng import make_rng
from repro.util.tables import render_table

__all__ = [
    "CcdfCurve",
    "ccdf",
    "describe",
    "make_rng",
    "render_table",
]
