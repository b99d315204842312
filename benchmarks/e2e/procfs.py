"""CPU and peak memory of a process, read from /proc (Linux only).

``ru_maxrss`` is not used for the peak: a child inherits its parent's
high-water mark across ``fork``/``exec``, so a worker spawned by a
harness holding 300 MB of generated inputs would report 300 MB before
it allocated anything. ``VmHWM`` belongs to the address space and starts
afresh at ``exec``.
"""

from __future__ import annotations

import os
from pathlib import Path


def cpu_seconds(pid: int | str = "self") -> float:
    """User plus system CPU the process has used so far."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: int | str = "self") -> float:
    """The process's resident-set high-water mark, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")
