"""Hijack scenarios, outcomes and the hijack laboratory.

:class:`HijackLab` is imported on first use of ``repro.attacks.HijackLab``,
not here: the lab imports :mod:`repro.defense`, whose drop decision is the
detection package's judge, and the judge reads the scenario kinds from
this package. A package init that loaded the lab would close that loop,
and whichever of ``repro.attacks``, ``repro.defense`` and
``repro.detection`` a program imported first would find another of them
half-initialised.
"""

from typing import TYPE_CHECKING

from repro.attacks.scenario import (
    AttackOutcome,
    HijackKind,
    HijackScenario,
    PathKind,
    synthetic_forged_path,
)

if TYPE_CHECKING:
    from repro.attacks.lab import HijackLab

__all__ = [
    "AttackOutcome",
    "HijackKind",
    "HijackLab",
    "HijackScenario",
    "PathKind",
    "synthetic_forged_path",
]


def __getattr__(name: str) -> object:
    if name == "HijackLab":
        from repro.attacks.lab import HijackLab

        globals()["HijackLab"] = HijackLab
        return HijackLab
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
