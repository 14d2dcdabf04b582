"""SPTF scheduling: whole-queue pricing and the first-strict-minimum pop."""

import typing

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.disk import IBM_0661, DiskGeometry, SeekModel, queue_service_times
from repro.disk.drive import service_components
from repro.disk.scheduling.sptf import SptfScheduler

SPT = IBM_0661.sectors_per_track
TOTAL = IBM_0661.total_sectors
GEOMETRY = DiskGeometry(IBM_0661)
SEEK = SeekModel.for_spec(IBM_0661)


class Candidate(typing.NamedTuple):
    """A queued request as SPTF sees it: ``runs`` as Disk.submit sets it."""

    start_sector: int
    sector_count: int
    runs: typing.Tuple


def _candidate(start: int, count: int) -> Candidate:
    return Candidate(start, count, GEOMETRY.split_by_track(start, count))


def _clamp(start: int, count: int) -> Candidate:
    return _candidate(start, min(count, TOTAL - start))


def _reference_time(request, head_cylinder: int, start_ms: float) -> float:
    """One candidate priced through the per-request reference path."""
    return service_components(
        GEOMETRY.split_by_track(request.start_sector, request.sector_count),
        head_cylinder,
        1,
        start_ms,
        SEEK.seek_time,
        IBM_0661.sector_time_ms,
        IBM_0661.sectors_per_track,
        IBM_0661.head_switch_ms,
    )[0]


def _priced(queue, head_cylinder: int, start_ms: float) -> typing.List[float]:
    return queue_service_times(
        queue,
        head_cylinder,
        start_ms,
        SEEK.table,
        IBM_0661.sector_time_ms,
        IBM_0661.sectors_per_track,
        IBM_0661.head_switch_ms,
    )


#: Random queues biased toward interesting shapes: single sectors,
#: exact-track transfers, and multi-track chains (head switches and
#: cylinder crossings inside one request).
_queues = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=TOTAL - 1),
        st.one_of(
            st.integers(min_value=1, max_value=8),
            st.sampled_from([SPT, SPT + 3, 2 * SPT, 3 * SPT]),
        ),
    ),
    min_size=1,
    max_size=24,
).map(lambda raw: [_clamp(start, count) for start, count in raw])
_heads = st.integers(min_value=0, max_value=IBM_0661.cylinders - 1)
_starts = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


class _FakeEnv:
    def __init__(self, now: float):
        self.now = now


class _FakeDisk:
    """The attributes SptfScheduler.bind_disk reads off a Disk."""

    spec = IBM_0661
    seek_model = SEEK

    def __init__(self, now: float = 12.5):
        self.env = _FakeEnv(now)


class TestQueuePricing:
    @given(_queues, _heads, _starts)
    @settings(max_examples=150, deadline=None)
    def test_matches_service_components_bit_for_bit(self, queue, head, start_ms):
        # EXACT float equality: any ULP of drift could change which
        # candidate SPTF pops, and with it the whole simulation.
        assert _priced(queue, head, start_ms) == [
            _reference_time(request, head, start_ms) for request in queue
        ]

    def test_multi_track_candidates_next_to_single_sector(self):
        # A three-track chain pays head switches after its first run, a
        # chain across a cylinder boundary pays a seek mid-request; the
        # single-sector neighbour must be priced from the untouched state.
        boundary = IBM_0661.sectors_per_cylinder
        queue = [
            _candidate(5, 1),
            _candidate(10 * SPT, 3 * SPT),
            _candidate(boundary - SPT // 2, 2 * SPT),
        ]
        assert queue[2].runs[-1].cylinder == 1
        assert _priced(queue, 3, 7.25) == [
            _reference_time(request, 3, 7.25) for request in queue
        ]

    def test_empty_queue_prices_nothing(self):
        assert _priced([], 0, 0.0) == []


class TestSptfPop:
    @given(_queues, _heads, _starts)
    @settings(max_examples=150, deadline=None)
    def test_pop_is_first_strict_minimum(self, queue, head, start_ms):
        scheduler = SptfScheduler()
        scheduler.bind_disk(_FakeDisk(start_ms))
        for request in queue:
            scheduler.push(request)
        times = [_reference_time(request, head, start_ms) for request in queue]
        best = 0
        for index, candidate in enumerate(times):
            if candidate < times[best]:
                best = index
        popped = scheduler.pop(head, 1)
        assert popped is queue[best]
        assert len(scheduler) == len(queue) - 1

    def test_tie_breaks_toward_earlier_arrival(self):
        scheduler = SptfScheduler()
        scheduler.bind_disk(_FakeDisk())
        first, twin = _candidate(4 * SPT, 2), _candidate(4 * SPT, 2)
        scheduler.push(first)
        scheduler.push(twin)
        assert scheduler.pop(0, 1) is first
        assert scheduler.pop(0, 1) is twin

    def test_pop_without_bind_disk_raises(self):
        scheduler = SptfScheduler()
        scheduler.push(_candidate(0, 1))
        scheduler.push(_candidate(100, 1))
        with pytest.raises(RuntimeError, match="bind_disk"):
            scheduler.pop(0, 1)

    def test_singleton_queue_skips_pricing(self):
        # One queued request needs no pricing, hence no bound disk.
        scheduler = SptfScheduler()
        only = _candidate(7, 2)
        scheduler.push(only)
        assert scheduler.pop(0, 1) is only
