"""Shortest-positioning-time-first scheduling.

SSTF ranks candidates by cylinder distance alone; SPTF ranks them by
their full physical service time — seek *plus* rotational latency plus
transfer — evaluated from the drive's current head position and the
platter phase at the moment the head frees up. Rotational latency is
the same order of magnitude as a short seek on the paper's drives, so
SPTF finds wins SSTF cannot see (a slightly farther cylinder whose
target sector is about to rotate under the head).

Each pop prices the whole queue in one scalar loop,
:func:`repro.disk.drive.queue_service_times`, which returns exactly the
times :func:`~repro.disk.drive.service_components` would. It reads each
candidate's track runs from ``request.runs``, split once by
:meth:`~repro.disk.drive.Disk.submit`: a request that waits through
many pops is not re-split on each of them.
"""

from __future__ import annotations

import typing

from repro.disk.drive import queue_service_times
from repro.disk.scheduling.base import Scheduler


class SptfScheduler(Scheduler):
    """Service the queued request with the smallest physical service time.

    Ties break toward the earlier arrival: the queue is kept in arrival
    order and the pop takes the first strict minimum. Requires
    :meth:`bind_disk` (the drive's seek table, clock and spec price the
    candidates) and queued requests carrying their ``runs``, as
    :meth:`~repro.disk.drive.Disk.submit` leaves them;
    :class:`~repro.disk.drive.Disk` binds any scheduler that asks during
    construction.
    """

    def __init__(self):
        self._queue: typing.List = []
        self._disk = None
        self._pricing: typing.Tuple = ()

    def bind_disk(self, disk) -> None:
        """Attach the drive whose physical state prices candidates."""
        self._disk = disk
        spec = disk.spec
        self._pricing = (
            disk.seek_model.table,
            spec.sector_time_ms,
            spec.sectors_per_track,
            spec.head_switch_ms,
        )

    def push(self, request) -> None:
        self._queue.append(request)

    def pop(self, head_cylinder: int, direction: int):
        queue = self._queue
        if len(queue) == 1:
            return queue.pop()
        disk = self._disk
        if disk is None:
            raise RuntimeError(
                "SptfScheduler needs bind_disk() before pop() — construct it "
                "through make_scheduler()/Disk, which bind automatically"
            )
        times = queue_service_times(queue, head_cylinder, disk.env.now, *self._pricing)
        # min() keeps the first of equal values, index() finds the first
        # occurrence: together, the first strict minimum in arrival order.
        return queue.pop(times.index(min(times)))

    def __len__(self) -> int:
        return len(self._queue)
