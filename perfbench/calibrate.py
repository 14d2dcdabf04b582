"""A fixed reference loop that measures how fast the host runs right now.

The host's speed drifts by tens of percent within minutes, as other
tenants load the machine, so raw wall-clock throughput of one run says
as much about the neighbours as about the program. The benchmark
therefore slices each simulation into short stretches and runs this
loop between them. The loop is a small discrete-event simulation of its
own (an event heap, an immediate lane, per-disk queues, slotted request
objects) so that it exercises the interpreter the way the program does.
It belongs to the benchmark, not to the program, so a change to the
program cannot change it.

A stretch of program time ``t`` measured next to calibration times
``c`` is worth ``t * REFERENCE_S / c`` reference seconds: the time it
would have taken on a host that runs this loop in ``REFERENCE_S``.
"""

from __future__ import annotations

import gc
import heapq
import random
import time
import typing
from collections import deque

#: Events one calibration dispatches.
EVENTS = 3000

#: Seconds one calibration takes on the reference host (a quiet 2-vCPU
#: x86-64 VM, Python 3.11). Only scales the reported numbers.
REFERENCE_S = 0.0105

DISKS = 21
TABLE_UNITS = 1 << 16


class _Request:
    __slots__ = ("unit", "disk", "arrived")

    def __init__(self, unit: int, disk: int, arrived: float):
        self.unit = unit
        self.disk = disk
        self.arrived = arrived


class _ReferenceLoop:
    """Poisson arrivals to 21 queues served nearest-unit-first."""

    def __init__(self):
        self.rng = random.Random(1992)
        self.heap: list = []
        self.immediate: deque = deque()
        self.seq = 0
        self.now = 0.0
        self.table = [(unit * 7919) % DISKS for unit in range(TABLE_UNITS)]
        self.queues: typing.List[list] = [[] for _ in range(DISKS)]
        self.busy = [False] * DISKS
        self.response: typing.Dict[int, float] = {}

    def at(self, delay: float, action, argument) -> None:
        self.seq += 1
        if delay:
            heapq.heappush(self.heap, (self.now + delay, self.seq, action, argument))
        else:
            self.immediate.append((action, argument))

    def arrive(self, _argument) -> None:
        unit = self.rng.randrange(TABLE_UNITS)
        request = _Request(unit, self.table[unit], self.now)
        self.queues[request.disk].append(request)
        if not self.busy[request.disk]:
            self.at(0.0, self.serve, request.disk)
        self.at(self.rng.expovariate(0.2), self.arrive, None)

    def serve(self, disk: int) -> None:
        queue = self.queues[disk]
        if not queue:
            self.busy[disk] = False
            return
        self.busy[disk] = True
        best = min(range(len(queue)), key=lambda i: abs(queue[i].unit - TABLE_UNITS // 2))
        request = queue.pop(best)
        self.at(5.0 + (request.unit % 97) * 0.1, self.finish, request)

    def finish(self, request: _Request) -> None:
        self.response[request.disk] = (
            self.response.get(request.disk, 0.0) + self.now - request.arrived
        )
        self.at(0.0, self.serve, request.disk)

    def run(self, events: int) -> None:
        self.at(0.0, self.arrive, None)
        for _ in range(events):
            if self.immediate:
                action, argument = self.immediate.popleft()
            else:
                self.now, _seq, action, argument = heapq.heappop(self.heap)
            action(argument)


def calibrate() -> float:
    """Seconds the reference loop takes now.

    The collector is off while it runs, so the program's live objects
    (which a collection would scan) cannot slow it down.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _ReferenceLoop().run(EVENTS)
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Host time in reference seconds, from calibrations around each stretch."""

    def __init__(self):
        self.last = calibrate()
        self.reference_s = 0.0

    def add(self, seconds: float) -> None:
        """Count a stretch of ``seconds`` just measured; calibrates after it."""
        now = calibrate()
        self.reference_s += seconds * REFERENCE_S / ((self.last + now) / 2.0)
        self.last = now
