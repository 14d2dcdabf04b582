"""Per-request objects are freed by reference counting alone.

Every user request spawns processes, events and disk requests. If any
of them forms a reference cycle, it outlives the request until
CPython's cyclic collector finds it, and the collector's pauses then
grow with the request rate (about 20 objects per request used to need
it, a fifth of the run time). These tests run the paper's three modes
with the collector off and check that a forced collection afterwards
finds only a small constant amount of garbage, no more for a run twice
as long.
"""

from __future__ import annotations

import gc

import pytest

from repro.array import ArrayAddressing, ArrayController
from repro.disk import DiskRequest, scaled_spec
from repro.experiments.builders import build_layout
from repro.recon import Reconstructor
from repro.recon.algorithms import REDIRECT_PIGGYBACK
from repro.sim import Environment
from repro.workload import SyntheticWorkload, WorkloadConfig
from tests.conftest import build_array

#: Garbage a run may leave regardless of its length: a replaced disk's
#: parked server process (its generator frame holds the disk, which
#: holds the process) and the like.
CONSTANT_GARBAGE = 16


def _workload(controller, rate_per_s: float, seed: int) -> SyntheticWorkload:
    workload = SyntheticWorkload(
        controller,
        WorkloadConfig(access_rate_per_s=rate_per_s, read_fraction=0.5, seed=seed),
    )
    workload.run(duration_ms=float("inf"))
    return workload


def fault_free(run_ms: float):
    """Fault-free C=21 G=5, the array of Figures 6-1 and 6-2."""
    array = build_array(num_disks=21, stripe_size=5, with_datastore=False)
    _workload(array.controller, 210.0, 1992)
    array.env.run(until=run_ms)
    return array


def degraded_pq(run_ms: float):
    """Degraded P+Q on the prime C=13 layout, with the data store."""
    layout = build_layout(13, 5, syndromes=2, layout="prime")
    env = Environment()
    controller = ArrayController(
        env, ArrayAddressing(layout, scaled_spec(10)), policy="sptf",
        with_datastore=True,
    )
    controller.fail_disk(0)
    _workload(controller, 150.0, 7)
    env.run(until=run_ms)
    return controller


def rebuild(run_ms: float):
    """Redirect+piggyback rebuild under load, C=21 G=5, data store on."""
    array = build_array(
        num_disks=21, stripe_size=5, algorithm=REDIRECT_PIGGYBACK,
        with_datastore=True,
    )
    _workload(array.controller, 210.0, 11)
    array.controller.fail_disk(0)
    array.controller.install_replacement()
    Reconstructor(array.controller, workers=8).start()
    array.env.run(until=run_ms)
    return array


def cyclic_garbage(scenario, run_ms: float) -> int:
    """Objects only the cyclic collector frees, left by ``scenario``.

    The scenario's array stays referenced while collecting, so only
    what the run discarded counts.
    """
    gc.collect()
    gc.disable()
    try:
        alive = scenario(run_ms)
        found = gc.collect()
    finally:
        gc.enable()
    del alive
    return found


@pytest.mark.parametrize(
    "scenario, run_ms",
    [(fault_free, 1_000.0), (degraded_pq, 1_000.0), (rebuild, 1_000.0)],
    ids=["fault_free", "degraded_pq", "rebuild"],
)
def test_garbage_does_not_grow_with_run_length(scenario, run_ms):
    short = cyclic_garbage(scenario, run_ms)
    long = cyclic_garbage(scenario, 2 * run_ms)
    assert short <= CONSTANT_GARBAGE, f"{short} cyclic objects after {run_ms} ms"
    assert long <= short, f"{short} cyclic objects after {run_ms} ms, {long} after twice"


def test_finished_process_drops_its_generator():
    env = Environment()

    def body():
        yield env.timeout(1.0)

    def failing():
        yield env.timeout(1.0)
        raise KeyError("boom")

    def bad_yield():
        yield 42

    processes = [env.process(body()), env.process(failing()), env.process(bad_yield())]
    for process in processes[1:]:
        process.callbacks.append(lambda event: setattr(event, "defused", True))
    env.run()
    for process in processes:
        assert not process.is_alive
        assert process._generator is None
        assert process._send is None and process._throw is None
        assert process._resume_cb is None


def test_completed_requests_drop_their_done_event():
    array = build_array(num_disks=5, stripe_size=4, with_datastore=True)
    disk_request = DiskRequest(0, 8, False)
    disk_done = array.controller.disks[1].submit(disk_request)
    user_done = array.controller.write(3, [17])
    array.env.run(until=user_done)
    array.env.run(until=disk_done)
    assert disk_done.value is disk_request and disk_request.done is None
    user_request = user_done.value
    assert user_request.done is None and user_request.complete_ms > 0.0
