"""The disk drive server process.

Each :class:`Disk` is a single server inside the event-driven
simulation: requests are submitted to its scheduler queue; the drive
process services one request at a time, advancing the clock by a
physically-computed service time (seek + rotational latency + transfer,
split per track with skew-aware head switches), then fires the
request's completion event.

The drive is deliberately *not* work-preserving: service time depends
on the head position left by the previous request and on the platter's
rotational phase at the moment service starts — the properties the
paper shows the Muntz & Lui analytic model cannot capture.

Every figure's run pays this per-access path millions of times, so it
is kept to the fewest Python frames that do simulation work:

- :meth:`Disk.submit` bounds-checks the start sector, derives the
  cylinder and creates the completion event inline, then pushes onto
  the scheduler and wakes an idle server;
- :meth:`Disk._run` is one server loop. It prices each request with the
  arithmetic of :func:`service_components` written out inline (the same
  float adds in the same order, with the seek table indexed directly)
  and does the :class:`DiskStats` bookkeeping in place.

Two cases take the *delegating* path instead, calling
``self._service_time`` per request: a drive with ``track_buffer=True``,
and any subclass overriding ``_service_time`` (such as
:class:`~repro.disk.constant.ConstantRateDisk`). The inline loop
equals a replay through :func:`service_components` bit for bit, per
request and in the final :class:`DiskStats`, pinned by a hypothesis
property in ``tests/disk/test_drive.py``.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

from repro.disk.geometry import DiskGeometry
from repro.disk.scheduling.base import Scheduler, make_scheduler
from repro.disk.seek import SeekModel
from repro.disk.specs import DiskSpec
from repro.metrics.accumulators import WindowedDuration
from repro.sim.events import PENDING, Event, Timeout

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim import Environment

#: Request provenance tags used by the statistics and the paper's
#: user-vs-reconstruction accounting.
KIND_USER = "user"
KIND_RECON = "recon"


def service_components(
    runs: typing.Sequence,
    head_cylinder: int,
    direction: int,
    start_ms: float,
    seek_time: typing.Callable[[int], float],
    sector_time_ms: float,
    sectors_per_track: int,
    head_switch_ms: float,
) -> typing.Tuple[float, float, float, float, int, int]:
    """Pure scalar service-time math for one request's track runs.

    Per run the clock takes the seek (or head switch), then the
    rotational wait, then the transfer; :func:`queue_service_times`
    prices SPTF candidates with the same adds in the same order.

    Returns ``(service_ms, seek_ms, rotation_ms, transfer_ms,
    head_cylinder, direction)`` where the last two are the head state
    after the transfer.
    """
    clock = start_ms
    seek_ms = rotation_ms = transfer_ms = 0.0
    current_cylinder = head_cylinder
    for index, run in enumerate(runs):
        if run.cylinder != current_cylinder:
            this_seek = seek_time(abs(run.cylinder - current_cylinder))
            direction = 1 if run.cylinder > current_cylinder else -1
            current_cylinder = run.cylinder
            seek_ms += this_seek
            clock += this_seek
        elif index > 0:
            # Same cylinder, next head: pay the switch settle time.
            switch = head_switch_ms
            seek_ms += switch
            clock += switch
        position = (clock / sector_time_ms) % sectors_per_track
        slots_to_wait = (run.rotational_start - position) % sectors_per_track
        # Float round-off can turn an exact hit (wait 0) into a wait
        # of one full revolution minus epsilon; snap it back to zero.
        if slots_to_wait > sectors_per_track - 1e-6:
            slots_to_wait = 0.0
        wait = slots_to_wait * sector_time_ms
        rotation_ms += wait
        clock += wait
        transfer = run.count * sector_time_ms
        transfer_ms += transfer
        clock += transfer
    return (
        clock - start_ms,
        seek_ms,
        rotation_ms,
        transfer_ms,
        current_cylinder,
        direction,
    )


def queue_service_times(
    requests: typing.Iterable,
    head_cylinder: int,
    start_ms: float,
    split_by_track: typing.Callable[[int, int], typing.Sequence],
    seek_table: typing.Sequence[float],
    sector_time_ms: float,
    sectors_per_track: int,
    head_switch_ms: float,
) -> typing.List[float]:
    """Service time of each queued request, were it serviced next.

    Every candidate is priced from the same head cylinder and platter
    phase. The result equals ``service_components(...)[0]`` per request
    bit for bit (pinned by ``tests/disk/test_sptf.py``): one loop with
    the seek table indexed directly and no per-candidate call.
    """
    snap = sectors_per_track - 1e-6
    times = []
    for request in requests:
        clock = start_ms
        cylinder = head_cylinder
        first = True
        for run in split_by_track(request.start_sector, request.sector_count):
            if run.cylinder != cylinder:
                clock += seek_table[abs(run.cylinder - cylinder)]
                cylinder = run.cylinder
            elif not first:
                clock += head_switch_ms
            first = False
            position = (clock / sector_time_ms) % sectors_per_track
            slots_to_wait = (run.rotational_start - position) % sectors_per_track
            if slots_to_wait > snap:
                slots_to_wait = 0.0
            clock += slots_to_wait * sector_time_ms
            clock += run.count * sector_time_ms
        times.append(clock - start_ms)
    return times


class DiskRequest:
    """One physical disk access.

    ``done`` fires with the completion time when the transfer finishes.

    A plain ``__slots__`` class rather than a dataclass: hundreds of
    thousands are allocated per scenario, and the per-instance dict is
    measurable. (``@dataclass(slots=True)`` needs Python 3.10; the CI
    matrix starts at 3.9.)
    """

    __slots__ = (
        "start_sector",
        "sector_count",
        "is_write",
        "kind",
        "done",
        "submit_ms",
        "start_service_ms",
        "complete_ms",
        "cylinder",
        "error",
    )

    def __init__(
        self,
        start_sector: int,
        sector_count: int,
        is_write: bool,
        kind: str = KIND_USER,
        done: object = None,
        submit_ms: float = 0.0,
        start_service_ms: float = 0.0,
        complete_ms: float = 0.0,
        cylinder: int = 0,
        error: typing.Optional[str] = None,
    ):
        self.start_sector = start_sector
        self.sector_count = sector_count
        self.is_write = is_write
        self.kind = kind
        self.done = done  # Event, attached at submit time
        self.submit_ms = submit_ms
        self.start_service_ms = start_service_ms
        self.complete_ms = complete_ms
        self.cylinder = cylinder  # cached for the scheduler
        #: Error outcome: None on success, else ``"media"`` / ``"timeout"``
        #: (see :mod:`repro.faults.state`). Only ever set when the disk
        #: carries a fault state.
        self.error = error

    def __repr__(self) -> str:
        op = "write" if self.is_write else "read"
        return (
            f"<DiskRequest {op} [{self.start_sector}, "
            f"{self.start_sector + self.sector_count}) kind={self.kind}>"
        )

    @property
    def queue_wait_ms(self) -> float:
        return self.start_service_ms - self.submit_ms

    @property
    def service_ms(self) -> float:
        return self.complete_ms - self.start_service_ms

    @property
    def response_ms(self) -> float:
        return self.complete_ms - self.submit_ms


@dataclass
class DiskStats:
    """Cumulative per-disk counters, updated in place by :meth:`Disk._run`.

    Per completed request: ``busy_ms`` and ``total_service_ms`` add
    ``complete_ms - start_service_ms`` (fault penalties included),
    ``total_queue_wait_ms`` adds ``start_service_ms - submit_ms``, and
    ``busy_window`` adds the service interval clipped to its
    ``since_ms``.
    """

    completed: int = 0
    completed_by_kind: typing.Dict[str, int] = field(default_factory=dict)
    buffer_hits: int = 0
    busy_ms: float = 0.0
    total_service_ms: float = 0.0
    total_queue_wait_ms: float = 0.0
    total_seek_ms: float = 0.0
    total_rotation_ms: float = 0.0
    total_transfer_ms: float = 0.0
    #: Busy time clipped to the measurement window: the controller sets
    #: ``busy_window.since_ms`` to the scenario's warmup boundary, so
    #: utilization excludes the warm-up ramp (``busy_ms`` above remains
    #: the raw whole-run total).
    busy_window: WindowedDuration = field(default_factory=WindowedDuration)

    def mean_service_ms(self) -> float:
        return self.total_service_ms / self.completed if self.completed else 0.0


class Disk:
    """One disk drive: queue, head state, and the server process."""

    def __init__(
        self,
        env: "Environment",
        spec: DiskSpec,
        disk_id: int = 0,
        scheduler: typing.Optional[Scheduler] = None,
        policy: str = "cvscan",
        track_buffer: bool = False,
        buffer_hit_ms: float = 0.5,
    ):
        self.env = env
        self.spec = spec
        self.disk_id = disk_id
        self.geometry = DiskGeometry(spec)
        self.seek_model = SeekModel.for_spec(spec)
        # DiskSpec derives these on every property read; the service-time
        # loop reads them per track run, so snapshot them once. The spec
        # is frozen, so the snapshot cannot go stale.
        self._sector_time_ms = spec.sector_time_ms
        self._sectors_per_track = spec.sectors_per_track
        self._head_switch_ms = spec.head_switch_ms
        self._total_sectors = spec.total_sectors
        self._sectors_per_cylinder = spec.sectors_per_cylinder
        self.scheduler = scheduler if scheduler is not None else make_scheduler(
            policy, spec.cylinders
        )
        # Position-aware policies (SPTF) price candidates off the live
        # drive state: give them the drive if they ask for it.
        bind = getattr(self.scheduler, "bind_disk", None)
        if bind is not None:
            bind(self)
        self.head_cylinder = 0
        self.direction = 1
        self.stats = DiskStats()
        #: Optional single-track read buffer (the 0661 had one). A read
        #: wholly inside the most recently read track is served from the
        #: buffer at ``buffer_hit_ms``; any write to that track
        #: invalidates it. Off by default — the paper's driver used no
        #: caching.
        self.track_buffer = track_buffer
        self.buffer_hit_ms = buffer_hit_ms
        self._buffered_track: typing.Optional[typing.Tuple[int, int]] = None
        #: Optional fault model (:class:`repro.faults.state.DiskFaultState`).
        #: None keeps the drive's behavior — timing and completions —
        #: bit-identical to a fault-free build.
        self.fault_state = None
        #: Optional waiting-queue depth gauge
        #: (:class:`repro.metrics.accumulators.TimeWeightedGauge`),
        #: attached by the controller when a metrics registry is in
        #: play. None keeps submit/pop free of any extra work.
        self.queue_gauge = None
        self._idle_wakeup = None
        self._process = env.process(self._run(), name=f"disk-{disk_id}")

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, request: DiskRequest):
        """Queue a request; returns the request's completion event.

        Raises ``ValueError`` for an empty transfer or a start sector
        outside the disk. The bounds check and cylinder division are
        :meth:`DiskGeometry.cylinder_of` written out inline.
        """
        if request.sector_count < 1:
            raise ValueError("requests must transfer at least one sector")
        start_sector = request.start_sector
        if not 0 <= start_sector < self._total_sectors:
            raise ValueError(
                f"sector {start_sector} outside disk of {self._total_sectors} sectors"
            )
        env = self.env
        request.done = done = Event(env)
        request.submit_ms = submit_ms = env.now
        request.cylinder = start_sector // self._sectors_per_cylinder
        self.scheduler.push(request)
        if self.queue_gauge is not None:
            self.queue_gauge.add(1, submit_ms)
        wakeup = self._idle_wakeup
        if wakeup is not None and wakeup._state == PENDING:
            wakeup.succeed()
        return done

    def access(self, start_sector: int, sector_count: int, is_write: bool,
               kind: str = KIND_USER):
        """Convenience: build and submit a request, returning its event."""
        request = DiskRequest(
            start_sector=start_sector,
            sector_count=sector_count,
            is_write=is_write,
            kind=kind,
        )
        return self.submit(request)

    @property
    def queue_length(self) -> int:
        return len(self.scheduler)

    # ------------------------------------------------------------------
    # Server process
    # ------------------------------------------------------------------
    def _run(self):
        # env / scheduler / stats and the spec-derived constants never
        # change over the drive's life; the loop runs once per serviced
        # request, so bind them once. `scheduler.pop` stays a per-request
        # lookup: instrumentation may patch it on the instance.
        env = self.env
        scheduler = self.scheduler
        stats = self.stats
        completed_by_kind = stats.completed_by_kind
        split_by_track = self.geometry.split_by_track
        seek_table = self.seek_model.table
        sector_time_ms = self._sector_time_ms
        sectors_per_track = self._sectors_per_track
        head_switch_ms = self._head_switch_ms
        snap = sectors_per_track - 1e-6
        delegating = type(self)._service_time is not Disk._service_time
        while True:
            while not scheduler:
                self._idle_wakeup = wakeup = Event(env)
                yield wakeup
            self._idle_wakeup = None
            request = scheduler.pop(self.head_cylinder, self.direction)
            request.start_service_ms = start_ms = env.now
            if self.queue_gauge is not None:
                self.queue_gauge.add(-1, start_ms)
            if delegating or self.track_buffer:
                service_ms, seek_ms, rotation_ms, transfer_ms = self._service_time(request)
            else:
                # service_components() inline: the same float adds in
                # the same order, so the timings are bit-identical.
                clock = start_ms
                seek_ms = rotation_ms = transfer_ms = 0.0
                cylinder = self.head_cylinder
                direction = self.direction
                first = True
                for run in split_by_track(request.start_sector, request.sector_count):
                    run_cylinder = run.cylinder
                    if run_cylinder != cylinder:
                        if run_cylinder > cylinder:
                            this_seek = seek_table[run_cylinder - cylinder]
                            direction = 1
                        else:
                            this_seek = seek_table[cylinder - run_cylinder]
                            direction = -1
                        cylinder = run_cylinder
                        seek_ms += this_seek
                        clock += this_seek
                    elif not first:
                        # Same cylinder, next head: the switch settle time.
                        seek_ms += head_switch_ms
                        clock += head_switch_ms
                    first = False
                    position = (clock / sector_time_ms) % sectors_per_track
                    slots_to_wait = (run.rotational_start - position) % sectors_per_track
                    if slots_to_wait > snap:
                        slots_to_wait = 0.0
                    wait = slots_to_wait * sector_time_ms
                    rotation_ms += wait
                    clock += wait
                    transfer = run.count * sector_time_ms
                    transfer_ms += transfer
                    clock += transfer
                service_ms = clock - start_ms
                self.head_cylinder = cylinder
                self.direction = direction
            yield Timeout(env, service_ms)
            if self.fault_state is not None:
                error, penalty_ms = self.fault_state.outcome_for(
                    request.start_sector, request.sector_count, request.is_write
                )
                if penalty_ms > 0:
                    yield Timeout(env, penalty_ms)
                request.error = error
            request.complete_ms = complete_ms = env.now
            # DiskStats bookkeeping, with the busy interval clipped to
            # the measurement window (WindowedDuration.add inline; the
            # clock never runs backwards, so the interval is never
            # inverted).
            stats.completed += 1
            kind = request.kind
            completed_by_kind[kind] = completed_by_kind.get(kind, 0) + 1
            busy_ms = complete_ms - start_ms
            stats.busy_ms += busy_ms
            window = stats.busy_window
            since_ms = window.since_ms
            clipped = complete_ms - (since_ms if since_ms > start_ms else start_ms)
            if clipped > 0.0:
                window.total_ms += clipped
            stats.total_service_ms += busy_ms
            stats.total_queue_wait_ms += start_ms - request.submit_ms
            stats.total_seek_ms += seek_ms
            stats.total_rotation_ms += rotation_ms
            stats.total_transfer_ms += transfer_ms
            request.done.succeed(request)

    # ------------------------------------------------------------------
    # Physical timing
    # ------------------------------------------------------------------
    def _service_time(self, request: DiskRequest) -> typing.Tuple[float, float, float, float]:
        """Compute service time; updates head cylinder and direction.

        Only the delegating path calls this (``track_buffer=True``);
        subclasses override it to replace the physical model.
        """
        runs = self.geometry.split_by_track(request.start_sector, request.sector_count)
        if self.track_buffer:
            tracks = {(run.cylinder, run.track) for run in runs}
            if (
                not request.is_write
                and len(tracks) == 1
                and next(iter(tracks)) == self._buffered_track
            ):
                # Whole read served from the track buffer: no mechanical work.
                self.stats.buffer_hits += 1
                return self.buffer_hit_ms, 0.0, 0.0, self.buffer_hit_ms
            if request.is_write and self._buffered_track in tracks:
                self._buffered_track = None
            elif not request.is_write:
                self._buffered_track = (runs[-1].cylinder, runs[-1].track)
        service_ms, seek_ms, rotation_ms, transfer_ms, cylinder, direction = (
            service_components(
                runs,
                self.head_cylinder,
                self.direction,
                self.env.now,
                self.seek_model.seek_time,
                self._sector_time_ms,
                self._sectors_per_track,
                self._head_switch_ms,
            )
        )
        self.head_cylinder = cylinder
        self.direction = direction
        return service_ms, seek_ms, rotation_ms, transfer_ms

    def __repr__(self) -> str:
        return (
            f"<Disk {self.disk_id} {self.spec.name} head@{self.head_cylinder} "
            f"queue={self.queue_length}>"
        )
