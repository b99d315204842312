"""Event-driven BGP update streaming over the batch simulator's core.

The batch layers answer "what is the converged outcome of this attack?";
this package answers "what happens *while it is happening*": typed
announce/withdraw/ROA/defense events (:mod:`~repro.stream.events`),
incremental convergence that keeps per-prefix routing state live and
checksum-identical to cold recomputation (:mod:`~repro.stream
.incremental`), a replay engine with a simulated clock, bounded queue
and batch coalescing (:mod:`~repro.stream.replay`), and an online
monitor measuring detection latency (:mod:`~repro.stream.monitor`).
"""

from repro.stream.events import (
    Announce,
    DefenseActivate,
    RoaPublish,
    RoaRevoke,
    StreamEvent,
    StreamFormatError,
    Withdraw,
    compile_campaign,
    compile_scenario,
    event_to_dict,
    parse_event_line,
    read_events,
    write_events,
)
from repro.stream.incremental import AnnounceEntry, PrefixLedger, full_converge
from repro.stream.monitor import MonitorReport, OnlineMonitor, StreamAlarm
from repro.stream.replay import ReplayReport, StreamReplayer

__all__ = [
    "Announce",
    "AnnounceEntry",
    "DefenseActivate",
    "MonitorReport",
    "OnlineMonitor",
    "PrefixLedger",
    "ReplayReport",
    "RoaPublish",
    "RoaRevoke",
    "StreamAlarm",
    "StreamEvent",
    "StreamFormatError",
    "StreamReplayer",
    "Withdraw",
    "compile_campaign",
    "compile_scenario",
    "event_to_dict",
    "full_converge",
    "parse_event_line",
    "read_events",
    "write_events",
]
