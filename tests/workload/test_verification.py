"""WorkloadBase read verification against overlapping writes.

A hand-driven controller completes requests at chosen instants and in a
chosen order, so same-instant races are exact instead of left to the
disk model.
"""

from repro.array.datastore import initial_data_pattern
from repro.sim import Environment
from repro.workload.base import WorkloadBase
from tests.conftest import build_array

UNIT = 5


class _ManualController:
    """Accepts requests and completes them only when the test says so."""

    def __init__(self):
        self.env = Environment()
        self.addressing = build_array(with_datastore=False).addressing
        self.datastore = object()  # any store switches verification on
        self.pending = {}

    def submit(self, request):
        request.submit_ms = self.env.now
        done = self.env.event()
        self.pending[id(request)] = (request, done)
        return done

    def complete(self, *requests, read_value=None):
        """Complete ``requests`` now, in the given order."""
        for request in requests:
            _request, done = self.pending.pop(id(request))
            request.complete_ms = self.env.now
            if not request.is_write:
                request.read_values = [read_value] * request.num_units
            done.succeed(request)


class _Harness:
    def __init__(self):
        self.controller = _ManualController()
        self.workload = WorkloadBase(self.controller)
        self.env = self.controller.env

    def submit(self, is_write, value=None):
        values = [value] if is_write else None
        self.workload._submit(UNIT, is_write, 1, values)
        return list(self.controller.pending.values())[-1][0]

    def at(self, ms):
        self.env.run(until=ms)

    def settle(self):
        self.env.run()


def _initial(controller):
    address = controller.addressing.logical_unit_address(UNIT)
    return initial_data_pattern(address.disk, address.offset)


class TestOverlappingWrites:
    def _race(self, read_value):
        """Read overlaps a write that completes at the read's instant, first."""
        h = _Harness()
        first = h.submit(True, 0xA)
        h.at(1.0)
        h.controller.complete(first)
        h.at(2.0)
        read = h.submit(False)
        h.at(3.0)
        second = h.submit(True, 0xB)
        h.at(4.0)
        h.controller.complete(second, read, read_value=read_value)
        h.settle()
        return h.workload

    def test_same_instant_write_completion_accepts_old_value(self):
        # The write leaves the in-flight set before the read is
        # accounted; the value it replaced is still legitimate.
        assert self._race(0xA).integrity_errors == []

    def test_same_instant_write_completion_accepts_new_value(self):
        assert self._race(0xB).integrity_errors == []

    def test_wrong_value_is_still_flagged(self):
        workload = self._race(0xBAD)
        assert len(workload.integrity_errors) == 1
        assert "read 0xbad" in workload.integrity_errors[0]

    def test_value_replaced_before_the_read_began_is_flagged(self):
        # 0xA was overwritten while an older read was in flight, but
        # before this read was submitted: this read cannot see it.
        h = _Harness()
        first = h.submit(True, 0xA)
        h.at(1.0)
        h.controller.complete(first)
        older_read = h.submit(False)
        second = h.submit(True, 0xB)
        h.at(2.0)
        h.controller.complete(second)
        h.at(3.0)
        read = h.submit(False)
        h.at(4.0)
        h.controller.complete(older_read, read_value=0xA)
        h.controller.complete(read, read_value=0xA)
        h.settle()
        errors = h.workload.integrity_errors
        assert len(errors) == 1 and "expected 0xb" in errors[0]

    def test_never_written_unit_accepts_initial_pattern_across_a_race(self):
        h = _Harness()
        read = h.submit(False)
        write = h.submit(True, 0xC)
        h.at(1.0)
        h.controller.complete(write, read, read_value=_initial(h.controller))
        h.settle()
        assert h.workload.integrity_errors == []
