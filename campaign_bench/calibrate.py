"""Host-speed calibration: times in reference seconds.

The benchmark's host is shared, and its speed drifts by 10-30% over
seconds to minutes; the program's CPU time moves with its wall time,
so the slowdown is per instruction, not waiting.  A fixed,
program-independent probe (a pure-Python integer loop, which touches
no data the program could have evicted) runs between units, once per
``EVERY_S`` of work since the last probes, in the process that drives
the campaign.  Its mean time over a campaign says how fast the host
ran then, and every time the campaign reports is scaled by
``REFERENCE_S / mean probe time``: the seconds it would have taken on
a host where the probe takes ``REFERENCE_S``.  The probe's own time is
kept out of every interval it interrupts.  A run keeps all its
processes on one vCPU (:func:`pin_to_one_cpu`), so that the probe
times the vCPU that does the work, the socket worker's included.

The host also stops the vCPU outright now and then, for up to a fifth
of a campaign; the program's CPU time does not count those stops, but
its wall time does.  That vCPU's steal counter (:func:`steal_s`) says
how long they lasted, and every wall interval the benchmark reports
leaves them out, as the probes' own times do.
"""

from __future__ import annotations

import os
from time import perf_counter, process_time

#: probe time on the reference host (2-vCPU Xeon VM)
REFERENCE_S = 0.010
#: work per probe, in seconds: probing takes about a sixth of the time
EVERY_S = 0.05
#: loop length of one probe
PROBE_ITERATIONS = 100_000


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one vCPU.

    Affinity is inherited, so a timed campaign, and a socket master and
    its worker, share the vCPU the probe measures.  The master and
    worker hand units to each other by context switches, not by waking
    an idle vCPU, which a busy host delays by milliseconds.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def steal_s() -> float:
    """Seconds the host has kept this process's vCPUs from running: the
    steal column of their lines in ``/proc/stat`` (exact once
    :func:`pin_to_one_cpu` has left one vCPU)."""
    cpus = {f"cpu{cpu}" for cpu in os.sched_getaffinity(0)}
    with open("/proc/stat") as stat:
        ticks = sum(
            int(fields[8]) for fields in map(str.split, stat) if fields[0] in cpus
        )
    return ticks / os.sysconf("SC_CLK_TCK")


def probe() -> int:
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
    return total


class Calibrator:
    """Probe once per ``EVERY_S`` of work and keep the totals to subtract."""

    def __init__(self) -> None:
        #: wall, CPU and steal seconds spent probing
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.steal_s = 0.0
        self.samples: list[float] = []
        self._last = perf_counter()

    def tick(self) -> None:
        """Call between two units: one probe per ``EVERY_S`` of work
        since the last probes, so long units get as much probing as many
        short ones."""
        due = int((perf_counter() - self._last) / EVERY_S)
        if not due:
            return
        cpu = process_time()
        stolen = steal_s()
        begin = perf_counter()
        for _ in range(due):
            start = perf_counter()
            probe()
            self.samples.append(perf_counter() - start)
        self._last = perf_counter()
        self.wall_s += self._last - begin
        self.cpu_s += process_time() - cpu
        self.steal_s += steal_s() - stolen

    def factor(self) -> float:
        """Reference seconds per measured second over the probes so far."""
        if not self.samples:
            raise RuntimeError("no calibration probe ran")
        return REFERENCE_S * len(self.samples) / (sum(self.samples) - self.steal_s)
