"""The benchmark's three workloads: shapes, request streams, assembly, gate.

Each workload is one of the paper's operating modes on a fixed array
shape (see README.md for why each was chosen). The benchmark generates
the open-loop request stream itself from the seed and hands it to the
program only through :class:`repro.workload.trace.TraceWorkload`; the
array is assembled from the public API alone.
"""

from __future__ import annotations

import random
import time
import typing
from dataclasses import dataclass, field

from repro.array.addressing import ArrayAddressing
from repro.array.controller import ArrayController
from repro.array.datastore import initial_data_pattern
from repro.array.faults import DataLossError
from repro.array.requests import UserRequest
from repro.experiments.builders import build_layout
from repro.experiments.scales import get_scale
from repro.metrics.stats import percentile
from repro.recon.algorithms import BASELINE, REDIRECT_PIGGYBACK
from repro.recon.sweeper import Reconstructor
from repro.sim.environment import Environment
from repro.workload.recorder import ResponseRecorder
from repro.workload.trace import TraceRecord, TraceWorkload

FAULT_FREE = "fault-free"
REBUILD = "rebuild"
DEGRADED = "degraded"


@dataclass(frozen=True)
class Shape:
    """One workload: the array, its fault state, and its traffic."""

    name: str
    num_disks: int
    stripe_size: int
    syndromes: int
    layout: str
    policy: str
    scale: str
    mode: str
    datastore: bool
    rate_per_s: float
    write_fraction: float
    #: Share of accesses that are aligned ``wide_units``-unit accesses;
    #: the rest touch one 4 KB unit.
    wide_fraction: float
    wide_units: int
    #: Length of the generated arrival stream, simulated ms. A rebuild
    #: workload stops replaying when reconstruction completes, so its
    #: stream only has to outlast the rebuild.
    stream_ms: float
    #: Simulated ms per slice of the run (about 50 ms of host time).
    slice_ms: float
    recon_workers: int = 0


SHAPES: typing.Dict[str, Shape] = {
    shape.name: shape
    for shape in (
        Shape(
            name="oltp_ff", num_disks=21, stripe_size=5, syndromes=1,
            layout="table", policy="cvscan", scale="small", mode=FAULT_FREE,
            datastore=False, rate_per_s=210.0, write_fraction=0.5,
            wide_fraction=0.0, wide_units=1, stream_ms=60_000.0,
            slice_ms=2_000.0,
        ),
        Shape(
            name="rebuild_rp", num_disks=21, stripe_size=5, syndromes=1,
            layout="table", policy="cvscan", scale="small", mode=REBUILD,
            datastore=True, rate_per_s=210.0, write_fraction=0.5,
            wide_fraction=0.0, wide_units=1, stream_ms=150_000.0,
            slice_ms=1_000.0, recon_workers=8,
        ),
        Shape(
            name="pq_wide", num_disks=31, stripe_size=6, syndromes=2,
            layout="prime", policy="sptf", scale="tiny", mode=DEGRADED,
            datastore=True, rate_per_s=300.0, write_fraction=0.8,
            wide_fraction=0.25, wide_units=4, stream_ms=20_000.0,
            slice_ms=300.0,
        ),
    )
}


def make_stream(shape: Shape, seed: int, num_data_units: int) -> typing.List[TraceRecord]:
    """The workload's open-loop Poisson request stream for ``seed``.

    Addresses are uniform over the data space, aligned to the access
    size; a wide access on a layout with ``wide_units`` data units per
    stripe is a full-stripe access.
    """
    rng = random.Random(f"perfbench/{shape.name}/{seed}")
    rate_per_ms = shape.rate_per_s / 1000.0
    records = []
    at_ms = rng.expovariate(rate_per_ms)
    while at_ms < shape.stream_ms:
        units = shape.wide_units if rng.random() < shape.wide_fraction else 1
        start = rng.randrange(num_data_units // units) * units
        is_write = rng.random() < shape.write_fraction
        records.append(TraceRecord(at_ms, is_write, start, units))
        at_ms += rng.expovariate(rate_per_ms)
    return records


def data_units(shape: Shape) -> int:
    """Addressable data units of the shape's array."""
    layout = build_layout(
        shape.num_disks, shape.stripe_size, syndromes=shape.syndromes,
        layout=shape.layout,
    )
    return ArrayAddressing(layout, get_scale(shape.scale).spec()).num_data_units


@dataclass
class Array:
    """One assembled array, ready to run, plus its set-up timings."""

    shape: Shape
    env: Environment
    controller: ArrayController
    workload: TraceWorkload
    recorder: ResponseRecorder
    reconstructor: typing.Optional[Reconstructor]
    requests: typing.List[UserRequest]
    setup_s: float
    layout_build_s: float
    controller_init_s: float
    #: Simulated instant the last request completed (set by :func:`drive`).
    end_ms: float = 0.0


def assemble(shape: Shape, stream: typing.Sequence[TraceRecord], seed: int) -> Array:
    """Build layout, addressing and controller, inject the fault, load the stream.

    The whole body is the timed set-up. Every submitted request is
    kept (by a pass-through around ``controller.submit``) so the gate
    can check read values after the run.
    """
    scale = get_scale(shape.scale)
    started = time.perf_counter()
    layout = build_layout(
        shape.num_disks, shape.stripe_size, syndromes=shape.syndromes,
        layout=shape.layout,
    )
    layout_done = time.perf_counter()
    addressing = ArrayAddressing(layout, scale.spec())
    env = Environment()
    controller = ArrayController(
        env,
        addressing,
        policy=shape.policy,
        algorithm=REDIRECT_PIGGYBACK if shape.mode == REBUILD else BASELINE,
        with_datastore=shape.datastore,
    )
    controller_done = time.perf_counter()
    reconstructor = None
    if shape.mode != FAULT_FREE:
        controller.fail_disk(0)
    if shape.mode == REBUILD:
        controller.install_replacement()
        reconstructor = Reconstructor(controller, workers=shape.recon_workers)
    recorder = ResponseRecorder(warmup_ms=scale.warmup_ms)
    workload = TraceWorkload(controller, stream, recorder=recorder, seed=seed)
    setup_s = time.perf_counter() - started

    requests: typing.List[UserRequest] = []
    submit = controller.submit

    def keep(request):
        requests.append(request)
        return submit(request)

    controller.submit = keep
    return Array(
        shape=shape, env=env, controller=controller, workload=workload,
        recorder=recorder, reconstructor=reconstructor, requests=requests,
        setup_s=setup_s, layout_build_s=layout_done - started,
        controller_init_s=controller_done - layout_done,
    )


def drive(array: Array, on_slice: typing.Optional[typing.Callable[[float], None]] = None) -> float:
    """Run the array until every request has completed; returns host seconds.

    Fault-free and degraded workloads replay the whole stream. The
    rebuild workload replays until reconstruction completes, then stops
    issuing and drains what is in flight. The run advances in slices of
    ``shape.slice_ms`` simulated time, handing each slice's host seconds
    to ``on_slice``; ``Environment.run`` with a time bound adds no
    events, so the slices leave the dispatch order untouched.
    """
    env, workload = array.env, array.workload
    if array.reconstructor is not None:
        array.reconstructor.start().callbacks.append(lambda _event: workload.stop())
    workload.run()
    drained = workload.drained()
    drained.callbacks.append(lambda _event: setattr(array, "end_ms", env.now))
    host_s = 0.0
    until = env.now
    while not drained.triggered:
        if env.peek() == float("inf"):
            raise RuntimeError("the schedule ran dry before every request completed")
        until += array.shape.slice_ms
        started = time.perf_counter()
        env.run(until=until)
        elapsed = time.perf_counter() - started
        host_s += elapsed
        if on_slice is not None:
            on_slice(elapsed)
    return host_s


@dataclass
class Outcome:
    """What one run of a workload produced: simulated results and the gate."""

    host_s: float
    submitted: int
    completed: int
    resp_samples: int
    resp_p50_ms: float
    resp_p99_ms: float
    by_path: typing.Dict[str, int]
    disk_services: int
    disk_totals_ms: typing.Dict[str, float]
    sim_end_ms: float
    program_integrity_errors: int
    rebuild_ms: float = 0.0
    rebuild_units: int = 0
    recon_cycles: int = 0
    recon_user_built: int = 0
    read_phase_ms_mean: float = 0.0
    write_phase_ms_mean: float = 0.0
    #: Gate: operations attempted and failed, with one line per failure kind.
    attempted: int = 0
    failed: int = 0
    failures: typing.List[str] = field(default_factory=list)

    def fingerprint(self) -> tuple:
        """Every simulated output; identical across passes of one seed."""
        return (
            self.submitted, self.completed, self.resp_samples, self.resp_p50_ms,
            self.resp_p99_ms, tuple(sorted(self.by_path.items())),
            self.disk_services, tuple(sorted(self.disk_totals_ms.items())),
            self.sim_end_ms, self.program_integrity_errors, self.rebuild_ms,
            self.rebuild_units, self.recon_cycles, self.recon_user_built,
            self.read_phase_ms_mean, self.write_phase_ms_mean,
        )


def run_once(array: Array, runner: typing.Callable[[Array], float] = drive) -> Outcome:
    """Run ``array`` to quiescence with ``runner``, then summarize and gate it.

    ``runner`` is :func:`drive` or a wrapper that observes it (tracing,
    profiling); the gate runs after it returns, unobserved.
    """
    try:
        host_s = runner(array)
    except DataLossError as error:
        submitted = array.workload.submitted
        return Outcome(
            host_s=0.0, submitted=submitted, completed=0, resp_samples=0,
            resp_p50_ms=0.0, resp_p99_ms=0.0, by_path={}, disk_services=0,
            disk_totals_ms={}, sim_end_ms=array.env.now,
            program_integrity_errors=0, attempted=max(submitted, 1),
            failed=max(submitted, 1), failures=[f"DataLossError: {error}"],
        )
    return summarize(array, host_s)


def summarize(array: Array, host_s: float) -> Outcome:
    """The simulated outputs of a finished run, gated."""
    controller, workload = array.controller, array.workload
    responses = sorted(array.recorder.responses())
    disks = controller.disks
    outcome = Outcome(
        host_s=host_s,
        submitted=workload.submitted,
        completed=workload.completed,
        resp_samples=len(responses),
        resp_p50_ms=percentile(responses, 0.5) if responses else 0.0,
        resp_p99_ms=percentile(responses, 0.99) if responses else 0.0,
        by_path=dict(controller.stats.by_path),
        disk_services=sum(disk.stats.completed for disk in disks),
        disk_totals_ms={
            "seek": sum(disk.stats.total_seek_ms for disk in disks),
            "rotation": sum(disk.stats.total_rotation_ms for disk in disks),
            "transfer": sum(disk.stats.total_transfer_ms for disk in disks),
            "queue_wait": sum(disk.stats.total_queue_wait_ms for disk in disks),
        },
        sim_end_ms=array.end_ms,
        program_integrity_errors=len(workload.integrity_errors),
    )
    if array.reconstructor is not None:
        result = array.reconstructor.result()
        cycles = result.cycles
        outcome.rebuild_ms = result.reconstruction_time_ms
        outcome.rebuild_units = array.reconstructor.status.built_count
        outcome.recon_cycles = len(cycles)
        outcome.recon_user_built = result.user_built_units
        if cycles:
            outcome.read_phase_ms_mean = sum(c.read_phase_ms for c in cycles) / len(cycles)
            outcome.write_phase_ms_mean = sum(c.write_phase_ms for c in cycles) / len(cycles)
    gate(array, outcome)
    return outcome


def gate(array: Array, outcome: Outcome) -> None:
    """The correctness gate: count failed operations against attempted ones.

    Operations are the user requests and, on the rebuild workload, the
    units to rebuild. A request fails if it never completed, touched
    lost data, or (with a datastore) read a value no serialization of
    the overlapping writes explains. A rebuild unit fails if it was not
    rebuilt; a stripe left parity-inconsistent at quiescence or a lock
    still held counts as one failure each.
    """
    controller = array.controller
    failures = outcome.failures
    attempted = outcome.submitted
    failed = 0
    incomplete = outcome.submitted - outcome.completed
    if incomplete:
        failures.append(f"{incomplete} requests never completed")
        failed += incomplete
    lost = sum(1 for request in array.requests if request.lost_units)
    if lost:
        failures.append(f"{lost} requests touched lost data")
        failed += lost
    if controller.datastore is not None:
        wrong = wrong_reads(array)
        if wrong:
            failures.append(f"{len(wrong)} reads returned an impossible value")
            failed += len(wrong)
    held = controller.locks.held_count
    if held:
        failures.append(f"{held} stripe locks still held at quiescence")
        failed += held
    if array.reconstructor is not None:
        status = array.reconstructor.status
        attempted += status.total_units
        unbuilt = status.total_units - status.built_count
        if unbuilt:
            failures.append(f"{unbuilt} units not rebuilt")
            failed += unbuilt
        if controller.faults.failed_disks:
            failures.append("array not returned to fault-free operation")
            failed += 1
        datastore = controller.datastore
        inconsistent = sum(
            1
            for stripe in range(controller.addressing.num_stripes)
            if not datastore.stripe_is_consistent(stripe)
        )
        if inconsistent:
            failures.append(f"{inconsistent} stripes parity-inconsistent at quiescence")
            failed += inconsistent
    outcome.attempted = max(attempted, 1)
    outcome.failed = failed


def wrong_reads(array: Array) -> typing.List[UserRequest]:
    """Reads whose value no ordering of the overlapping writes explains.

    A read unit may return the value of the last write to that unit
    that completed no later than the read's submission (or the unit's
    initial pattern), or the value of any write whose lifetime overlaps
    the read's, endpoints included. This is the same check as the
    workload's own verifier, except that overlap is judged over the
    read's whole lifetime rather than only at its completion.
    """
    writes: typing.Dict[int, typing.List[typing.Tuple[float, float, int]]] = {}
    for request in array.requests:
        if request.is_write:
            for index, unit in enumerate(request.units()):
                writes.setdefault(unit, []).append(
                    (request.submit_ms, request.complete_ms, request.values[index])
                )
    addressing = array.controller.addressing
    wrong = []
    for request in array.requests:
        if request.is_write:
            continue
        for index, unit in enumerate(request.units()):
            history = writes.get(unit, ())
            allowed = set()
            last_done = None
            for submit_ms, complete_ms, value in history:
                if complete_ms <= request.submit_ms:
                    if last_done is None or complete_ms > last_done:
                        last_done, allowed_last = complete_ms, {value}
                    elif complete_ms == last_done:
                        allowed_last.add(value)
                if submit_ms <= request.complete_ms and complete_ms >= request.submit_ms:
                    allowed.add(value)
            if last_done is None:
                address = addressing.logical_unit_address(unit)
                allowed.add(initial_data_pattern(address.disk, address.offset))
            else:
                allowed |= allowed_last
            if request.read_values[index] not in allowed:
                wrong.append(request)
                break
    return wrong
