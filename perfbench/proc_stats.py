"""Host CPU time and peak memory of this process and its pool workers.

Pool workers are the live ``multiprocessing`` children; their figures
come from ``/proc`` (Linux), the parent's from ``getrusage``.
"""

from __future__ import annotations

import multiprocessing
import os
import resource
from typing import Dict

_TICKS = os.sysconf("SC_CLK_TCK")


def worker_pids():
    return sorted(child.pid for child in multiprocessing.active_children())


def _worker_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as handle:
        # The command name may hold spaces; the fields after it do not.
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS


def _worker_peak_rss_kib(pid: int) -> int:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for process {pid}")


def cpu_times() -> Dict[int, float]:
    """CPU seconds so far, keyed by pid (0 is this process)."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    times = {0: usage.ru_utime + usage.ru_stime}
    for pid in worker_pids():
        times[pid] = _worker_cpu_s(pid)
    return times


def cpu_delta(before: Dict[int, float], after: Dict[int, float]) -> float:
    """CPU seconds spent between two :func:`cpu_times` readings.

    A worker first seen in ``after`` counts from zero."""
    return sum(value - before.get(pid, 0.0) for pid, value in after.items())


def peak_rss_mib() -> float:
    """Peak resident memory of this process plus each live worker."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in worker_pids():
        kib += _worker_peak_rss_kib(pid)
    return kib / 1024.0
