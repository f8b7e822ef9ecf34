"""How fast is the host right now?  A probe that runs beside the workload.

This benchmark runs on a few cores of a shared host whose speed moves
between regimes about 1.5x apart: for minutes at a time, and also
within milliseconds.  CPU time moves with wall time, so it is the
processor itself that slows, not the scheduler taking it away.  Raw
walls of identical code therefore spread by up to 40% between runs, and
no statistic over one run's repeats can remove a regime that outlasts
the run.

What does remove it is measuring the host while the workload runs.  A
CPU-time interval timer interrupts the (single) thread every few
milliseconds and the handler times one fixed piece of interpreter work:
heap pushes and pops, dictionary reads, method calls on preallocated
objects, nothing from :mod:`repro`, nothing the garbage collector
tracks.  ``REFERENCE_S / piece time`` is the host's speed at that
instant relative to a reference host.  Sampled uniformly in CPU time,
its mean times the CPU time the workload got is the integral of speed
over the work, i.e. the CPU time the same work takes on the reference
host.  That, as a share of the window's wall, is the window's
``factor``; every wall measured inside the window is multiplied by it.

Times are the thread's CPU time, so what the hypervisor steals and what
the process waits for the disk is left out as well.
(``time.process_time`` stops advancing on this kernel once a profiling
timer is armed; ``time.thread_time`` does not, and there is one thread.)

The reference is about this container's class of host when nothing else
runs on it, so reference-host figures read like its quiet-hour walls.
"""

from __future__ import annotations

import heapq
import signal
import time
from dataclasses import dataclass

# One probe every INTERVAL_S of CPU time; a piece takes about 5% of that.
INTERVAL_S = 0.008
# The piece's duration on the reference host.
REFERENCE_S = 375e-6

_PIECE_STEPS = 700


class _Cell:
    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = 0

    def add(self, amount: int) -> int:
        self.total += amount
        return self.total


_CELLS = [_Cell() for _ in range(256)]
_TABLE = {index: index * 3 for index in range(256)}
_HEAP: list[int] = []


def piece() -> int:
    """The fixed work a probe times.  Allocates integers only, so it
    never moves the workload's garbage-collection schedule."""
    heap = _HEAP
    push, pop = heapq.heappush, heapq.heappop
    for step in range(_PIECE_STEPS):
        push(heap, ((step * 7919) % 10007) * 256 + (step & 255))
    checksum = 0
    cells, table = _CELLS, _TABLE
    while heap:
        value = pop(heap)
        slot = value & 255
        checksum += cells[slot].add(value >> 8) + table[slot]
    return checksum


@dataclass(frozen=True)
class Window:
    """Host speed over one stretch of wall time."""

    wall_s: float
    # Share of the wall this process was on a CPU at all: the rest was
    # stolen by the hypervisor or spent waiting for the disk.
    on_cpu_share: float
    probes: int
    # Share of that CPU time spent inside the probe.
    probe_share: float
    # Mean of ``REFERENCE_S / piece time``: 1.0 on the reference host.
    speed: float

    @property
    def factor(self) -> float:
        """Multiply a wall measured in this window by this to get the
        CPU time the workload alone takes on the reference host."""
        return self.on_cpu_share * (1.0 - self.probe_share) * self.speed


class HostSpeedProbe:
    """``with HostSpeedProbe() as probe:`` arms the timer; ``mark()``
    before and ``window(mark)`` after a stretch of work give its
    :class:`Window`.  Main thread only, as signals are."""

    def __init__(self) -> None:
        self._durations: list[float] = []
        self._busy = False
        self._previous = None

    def _on_timer(self, _signum, _frame) -> None:
        if self._busy:  # a tick that arrived inside the previous probe
            return
        self._busy = True
        started = time.thread_time()
        piece()
        self._durations.append(time.thread_time() - started)
        self._busy = False

    def __enter__(self) -> HostSpeedProbe:
        for _ in range(20):  # first-call costs are not host speed
            piece()
        self._previous = signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def mark(self) -> tuple[int, float, float]:
        return len(self._durations), time.perf_counter(), time.thread_time()

    def window(self, mark: tuple[int, float, float]) -> Window:
        first, wall_started, cpu_started = mark
        wall = time.perf_counter() - wall_started
        cpu = time.thread_time() - cpu_started
        durations = self._durations[first:]
        if not durations:
            raise RuntimeError(
                f"no host-speed probe fired in a window of {wall:.4f} s"
            )
        return Window(
            wall_s=wall,
            on_cpu_share=cpu / wall,
            probes=len(durations),
            probe_share=sum(durations) / cpu,
            speed=sum(REFERENCE_S / d for d in durations) / len(durations),
        )
