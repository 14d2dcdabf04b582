"""Unit tests for the disk drive server process."""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.disk import IBM_0661, Disk, DiskRequest, DiskStats, scaled_spec
from repro.disk.drive import KIND_RECON, KIND_USER, service_components
from repro.sim import Environment


def run_accesses(disk, env, accesses):
    """Drive a closed-loop sequence of (sector, count, is_write)."""

    def body(env):
        for sector, count, is_write in accesses:
            yield disk.access(sector, count, is_write=is_write)

    process = env.process(body(env))
    env.run(until=process)


class TestServiceTiming:
    def test_single_access_components(self):
        env = Environment()
        disk = Disk(env, IBM_0661, policy="fifo")
        run_accesses(disk, env, [(0, 8, False)])
        stats = disk.stats
        # Head starts at cylinder 0 so there is no seek; the transfer is
        # exactly 8 sector times; sectors 0..7 start under the head at
        # t=0, so rotation is zero too.
        assert stats.total_seek_ms == 0.0
        assert stats.total_rotation_ms == pytest.approx(0.0, abs=1e-9)
        assert stats.total_transfer_ms == pytest.approx(8 * IBM_0661.sector_time_ms)

    def test_seek_charged_for_cylinder_moves(self):
        env = Environment()
        disk = Disk(env, IBM_0661, policy="fifo")
        far_sector = 500 * IBM_0661.sectors_per_cylinder
        run_accesses(disk, env, [(far_sector, 8, False)])
        assert disk.stats.total_seek_ms == pytest.approx(
            disk.seek_model.seek_time(500)
        )
        assert disk.head_cylinder == 500

    def test_rotational_wait_bounded_by_one_revolution(self):
        env = Environment()
        disk = Disk(env, scaled_spec(5), policy="fifo")
        rng = random.Random(3)
        accesses = [(rng.randrange(disk.spec.total_sectors // 8) * 8, 8, False) for _ in range(50)]
        run_accesses(disk, env, accesses)
        assert disk.stats.total_rotation_ms <= 50 * disk.spec.revolution_ms

    def test_sequential_track_crossing_uses_skew(self):
        env = Environment()
        disk = Disk(env, IBM_0661, policy="fifo")
        # Read two whole tracks in one request: the head switch lands
        # exactly on the skewed sector 0 of track 1 — zero rotation.
        run_accesses(disk, env, [(0, 96, False)])
        assert disk.stats.total_rotation_ms == pytest.approx(0.0, abs=1e-9)
        assert disk.stats.total_seek_ms == pytest.approx(IBM_0661.head_switch_ms)

    def test_random_read_capacity_matches_paper(self):
        # Section 6: "disks capable of a maximum of about 46 random 4 KB
        # reads per second".
        env = Environment()
        disk = Disk(env, IBM_0661, policy="fifo")
        rng = random.Random(42)
        n = 500
        accesses = [
            (rng.randrange(IBM_0661.total_sectors // 8) * 8, 8, False) for _ in range(n)
        ]
        run_accesses(disk, env, accesses)
        rate = n / (env.now / 1000.0)
        assert rate == pytest.approx(46.0, rel=0.05)

    def test_sequential_full_scan_near_physical_floor(self):
        # Sequential whole-disk read must approach (and never beat) one
        # revolution per track.
        spec = scaled_spec(20)
        env = Environment()
        disk = Disk(env, spec, policy="fifo")
        chunk = spec.sectors_per_cylinder
        accesses = [(s, chunk, False) for s in range(0, spec.total_sectors, chunk)]
        run_accesses(disk, env, accesses)
        floor = spec.full_scan_min_ms()
        assert floor <= env.now <= floor * 1.25


class TestQueueing:
    def test_busy_server_queues_requests(self):
        env = Environment()
        disk = Disk(env, IBM_0661, policy="fifo")
        first = disk.access(0, 8, is_write=False)
        second = disk.access(8, 8, is_write=False)
        env.run()
        assert second.value.start_service_ms >= first.value.complete_ms

    def test_wakeup_after_idle(self):
        env = Environment()
        disk = Disk(env, IBM_0661, policy="fifo")

        def late_submitter(env):
            yield env.timeout(100.0)
            done = disk.access(0, 8, is_write=False)
            request = yield done
            return request.submit_ms

        process = env.process(late_submitter(env))
        assert env.run(until=process) == 100.0

    def test_queue_length_visible(self):
        env = Environment()
        disk = Disk(env, IBM_0661)
        for unit in range(5):
            disk.access(unit * 8, 8, is_write=False)
        assert disk.queue_length >= 4  # one may already be in service


class TestStats:
    def test_kind_accounting(self):
        env = Environment()
        disk = Disk(env, IBM_0661, policy="fifo")
        disk.access(0, 8, is_write=False, kind=KIND_USER)
        disk.access(8, 8, is_write=True, kind=KIND_RECON)
        env.run()
        assert disk.stats.completed == 2
        assert disk.stats.completed_by_kind == {KIND_USER: 1, KIND_RECON: 1}

    def test_busy_time_accumulates(self):
        env = Environment()
        disk = Disk(env, IBM_0661, policy="fifo")
        run_accesses(disk, env, [(0, 8, False), (96, 8, False)])
        assert disk.stats.busy_ms == pytest.approx(env.now)

    def test_response_decomposition(self):
        env = Environment()
        disk = Disk(env, IBM_0661, policy="fifo")
        done = disk.access(0, 8, is_write=False)
        env.run()
        request = done.value
        assert request.response_ms == pytest.approx(
            request.queue_wait_ms + request.service_ms
        )

    def test_empty_request_rejected(self):
        env = Environment()
        disk = Disk(env, IBM_0661)
        with pytest.raises(ValueError):
            disk.submit(DiskRequest(start_sector=0, sector_count=0, is_write=False))


class TestSubmitBounds:
    @pytest.mark.parametrize("start", [-1, -96, IBM_0661.total_sectors,
                                       IBM_0661.total_sectors + 8])
    def test_start_sector_outside_disk_rejected(self, start):
        env = Environment()
        disk = Disk(env, IBM_0661)
        with pytest.raises(ValueError, match="outside disk"):
            disk.submit(DiskRequest(start, 1, False))
        assert disk.queue_length == 0

    def test_first_and_last_sector_accepted(self):
        env = Environment()
        disk = Disk(env, IBM_0661, policy="fifo")
        last = disk.submit(DiskRequest(IBM_0661.total_sectors - 1, 1, False))
        first = disk.submit(DiskRequest(0, 1, False))
        env.run()
        assert last.value.cylinder == IBM_0661.cylinders - 1
        assert first.value.cylinder == 0


class TestDeterminism:
    def test_identical_runs_identical_timings(self):
        def simulate():
            env = Environment()
            disk = Disk(env, IBM_0661, policy="cvscan")
            rng = random.Random(7)
            accesses = [
                (rng.randrange(IBM_0661.total_sectors // 8) * 8, 8, False)
                for _ in range(100)
            ]
            run_accesses(disk, env, accesses)
            return env.now

        assert simulate() == simulate()


SPT = IBM_0661.sectors_per_track
SPC = IBM_0661.sectors_per_cylinder
TOTAL = IBM_0661.total_sectors


@st.composite
def _requests(draw):
    """One (delay, start, count, is_write, kind) arrival.

    Starts are biased to just before track and cylinder boundaries and
    counts to whole tracks, so transfers switch heads on one cylinder
    and cross into the next cylinder, not only stay inside one track.
    """
    start = draw(st.one_of(
        st.integers(min_value=0, max_value=TOTAL - 1),
        st.integers(min_value=1, max_value=TOTAL // SPT - 1).map(lambda t: t * SPT - 2),
        st.integers(min_value=1, max_value=TOTAL // SPC - 1).map(lambda c: c * SPC - 3),
    ))
    count = draw(st.one_of(
        st.integers(min_value=1, max_value=8),
        st.sampled_from([SPT, SPT + 3, 2 * SPT, SPC + 5]),
    ))
    return (
        draw(st.sampled_from([0.0, 0.5, 3.0, 12.0, 40.0])),
        start,
        min(count, TOTAL - start),
        draw(st.booleans()),
        draw(st.sampled_from([KIND_USER, KIND_RECON])),
    )


class TestFusedServiceLoop:
    """The server loop prices requests inline; it must equal a replay
    of the same service order through ``service_components``."""

    @pytest.mark.parametrize("policy", ["cvscan", "fifo", "sptf"])
    @settings(max_examples=40, deadline=None)
    @given(
        stream=st.lists(_requests(), min_size=1, max_size=30),
        since_ms=st.sampled_from([0.0, 25.0, 150.0]),
    )
    def test_matches_service_components_replay(self, policy, stream, since_ms):
        env = Environment()
        disk = Disk(env, IBM_0661, policy=policy)
        disk.stats.busy_window.since_ms = since_ms
        submitted = []

        def arrivals(env):
            for delay, start, count, is_write, kind in stream:
                if delay:
                    yield env.timeout(delay)
                request = DiskRequest(start, count, is_write, kind)
                disk.submit(request)
                submitted.append(request)

        env.process(arrivals(env))
        env.run()

        expected = DiskStats()
        expected.busy_window.since_ms = since_ms
        head, direction = 0, 1
        free_at = 0.0
        for request in sorted(submitted, key=lambda r: r.start_service_ms):
            start = max(request.submit_ms, free_at)
            service, seek, rotation, transfer, head, direction = service_components(
                disk.geometry.split_by_track(request.start_sector, request.sector_count),
                head,
                direction,
                start,
                disk.seek_model.seek_time,
                IBM_0661.sector_time_ms,
                SPT,
                IBM_0661.head_switch_ms,
            )
            free_at = start + service
            assert request.start_service_ms == start
            assert request.complete_ms == free_at

            expected.completed += 1
            by_kind = expected.completed_by_kind
            by_kind[request.kind] = by_kind.get(request.kind, 0) + 1
            expected.busy_ms += free_at - start
            expected.busy_window.add(start, free_at)
            expected.total_service_ms += free_at - start
            expected.total_queue_wait_ms += start - request.submit_ms
            expected.total_seek_ms += seek
            expected.total_rotation_ms += rotation
            expected.total_transfer_ms += transfer
        assert disk.stats == expected
        assert (disk.head_cylinder, disk.direction) == (head, direction)
