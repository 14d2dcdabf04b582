"""CVSCAN scheduling (Geist & Daniel 1987), used by the paper's arrays.

CVSCAN is a continuum between SSTF and SCAN: the next request is the
one minimizing head travel distance, but requests *behind* the current
direction of travel are penalized by a constant bias ``R``. ``R = 0``
degenerates to SSTF; ``R -> infinity`` degenerates to SCAN. Geist &
Daniel report that a small bias (a fraction of the total cylinder span)
captures most of SCAN's fairness while keeping SSTF's throughput; we
default the bias to 20 % of the cylinder count.
"""

from __future__ import annotations

from repro.disk.scheduling.base import Scheduler


class CvscanScheduler(Scheduler):
    """SSTF/SCAN continuum with directional bias ``R``.

    Parameters
    ----------
    cylinders:
        Disk size; the default bias is ``bias_fraction * cylinders``.
    bias_fraction:
        ``R`` as a fraction of the cylinder span.
    """

    def __init__(self, cylinders: int, bias_fraction: float = 0.2):
        if cylinders < 1:
            raise ValueError(f"cylinders must be positive, got {cylinders}")
        if bias_fraction < 0:
            raise ValueError(f"bias fraction must be >= 0, got {bias_fraction}")
        self.bias = bias_fraction * cylinders
        self._queue: list = []
        self._arrival = 0

    def push(self, request) -> None:
        self._queue.append((self._arrival, request))
        self._arrival += 1

    def pop(self, head_cylinder: int, direction: int):
        queue = self._queue
        if len(queue) == 1:
            # The paper's arrays queue 1-2 requests per disk on average:
            # a lone request is the argmin without any pricing.
            return queue.pop()[1]
        # An open-coded argmin over (biased distance, arrival): this runs
        # once per serviced request over an O(queue) scan, and the
        # closure-based min(key=...) spelling showed up in profiles.
        direction = 1 if direction >= 0 else -1
        bias = self.bias
        best_index = 0
        best_cost = None
        for index, (arrival, request) in enumerate(queue):
            delta = request.cylinder - head_cylinder
            distance = float(abs(delta))
            if delta * direction < 0:
                distance += bias
            cost = (distance, arrival)
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_index = index
        return queue.pop(best_index)[1]

    def __len__(self) -> int:
        return len(self._queue)
