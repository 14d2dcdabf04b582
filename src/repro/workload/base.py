"""Shared workload mechanics: submission, completion, verification.

Both the synthetic generator and the trace replayer funnel requests
through this base class, which owns response recording, the
drained-event protocol, and read verification against expected
contents when the controller carries a data store.
"""

from __future__ import annotations

import collections
import typing

from repro.array.controller import ArrayController
from repro.array.datastore import initial_data_pattern
from repro.array.requests import UserRequest
from repro.workload.recorder import ResponseRecorder


class WorkloadBase:
    """Request submission and bookkeeping common to all workloads."""

    def __init__(
        self,
        controller: ArrayController,
        recorder: typing.Optional[ResponseRecorder] = None,
    ):
        self.controller = controller
        self.recorder = recorder if recorder is not None else ResponseRecorder()
        self.submitted = 0
        self.completed = 0
        self.integrity_errors: typing.List[str] = []
        self.verify = controller.datastore is not None
        self._expected: typing.Dict[int, int] = {}
        self._inflight_writes: typing.Dict[int, int] = {}
        #: Submit time of each in-flight read, keyed by request id, in
        #: submission order: the first entry is the oldest read.
        self._inflight_reads: typing.Dict[int, float] = {}
        #: ``(complete_ms, unit, replaced value)`` of each unit write that
        #: completed while a read was in flight, in completion order
        #: (value None: the initial pattern).
        self._superseded: typing.Deque[
            typing.Tuple[float, int, typing.Optional[int]]
        ] = collections.deque()
        self._verification_paused_until = -1.0
        self._stopped = False
        self._generator_done = False
        self._drained = None

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Stop issuing new requests (in-flight ones still complete)."""
        self._stopped = True

    def drained(self):
        """Event firing once generation ended and all requests completed."""
        self._drained = self.controller.env.event()
        self._maybe_drain()
        return self._drained

    def pause_verification(self) -> None:
        """Suspend read verification for requests submitted before now.

        Call at fault-injection instants: requests in flight across the
        failure may legitimately observe pre-failure state.
        """
        self._verification_paused_until = self.controller.env.now

    def _maybe_drain(self) -> None:
        if (
            self._drained is not None
            and not self._drained.triggered
            and self._generator_done
            and self.completed == self.submitted
        ):
            self._drained.succeed()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def _submit(self, logical_unit: int, is_write: bool, num_units: int,
                values: typing.Optional[typing.List[int]] = None) -> None:
        if is_write and self.verify and values is None:
            raise ValueError("verifying workloads must supply write values")
        if is_write and values is not None:
            for i in range(num_units):
                unit = logical_unit + i
                self._inflight_writes[unit] = self._inflight_writes.get(unit, 0) + 1
        request = UserRequest(
            logical_unit=logical_unit,
            is_write=is_write,
            num_units=num_units,
            values=values,
        )
        self.submitted += 1
        done = self.controller.submit(request)
        if self.verify and not is_write:
            self._inflight_reads[id(request)] = request.submit_ms
        self.controller.env.process(
            self._await_completion(request, done), name="workload-complete"
        )

    def _await_completion(self, request: UserRequest, done):
        yield done
        self.completed += 1
        self.recorder.record(
            complete_ms=request.complete_ms,
            response_ms=request.response_ms,
            is_write=request.is_write,
        )
        if self.verify:
            self._account(request)
        self._maybe_drain()

    # ------------------------------------------------------------------
    # Verification bookkeeping
    # ------------------------------------------------------------------
    def _account(self, request: UserRequest) -> None:
        """Check a completed read, or record a completed write.

        A read may return the unit's value at its submission or the
        value of any write whose lifetime overlapped the read's. While a
        write to the unit is still in flight, any value is accepted. A
        write that completed during the read (even at the read's own
        completion instant) leaves the value it replaced in
        ``_superseded``, so that value is accepted too.
        """
        if request.is_write:
            # The oldest in-flight read was submitted first (dicts keep
            # insertion order); no read can accept a value replaced
            # before it.
            oldest_read_ms = next(iter(self._inflight_reads.values()), None)
            superseded = self._superseded
            while superseded and (
                oldest_read_ms is None or superseded[0][0] < oldest_read_ms
            ):
                superseded.popleft()
            for i, unit in enumerate(request.units()):
                if oldest_read_ms is not None:
                    superseded.append(
                        (request.complete_ms, unit, self._expected.get(unit))
                    )
                self._expected[unit] = request.values[i]
                remaining = self._inflight_writes.get(unit, 0) - 1
                if remaining <= 0:
                    self._inflight_writes.pop(unit, None)
                else:
                    self._inflight_writes[unit] = remaining
            return
        self._inflight_reads.pop(id(request), None)
        if request.submit_ms < self._verification_paused_until:
            return
        for i, unit in enumerate(request.units()):
            if unit in self._inflight_writes:
                continue  # racing write: either value is legitimate
            expected = self._value_or_initial(unit, self._expected.get(unit))
            actual = request.read_values[i]
            if actual == expected:
                continue
            if any(
                done_unit == unit
                and done_ms >= request.submit_ms
                and self._value_or_initial(unit, value) == actual
                for done_ms, done_unit, value in self._superseded
            ):
                continue  # the value a write overlapping this read replaced
            self.integrity_errors.append(
                f"unit {unit}: read {actual:#x}, expected {expected:#x} "
                f"(completed at {request.complete_ms:.3f} ms)"
            )

    def _value_or_initial(self, unit: int, value: typing.Optional[int]) -> int:
        if value is not None:
            return value
        # Never written: the unit must still hold its initial pattern.
        address = self.controller.addressing.logical_unit_address(unit)
        return initial_data_pattern(address.disk, address.offset)
