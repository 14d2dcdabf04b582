"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload oltp_ff --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing attached to
the program. ``--trace 1`` measures the per-layer metrics instead:
traced passes interleaved with untraced ones (their ratio is the
tracing overhead), then one ``cProfile`` pass for self time by layer.
Either way the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; progress goes
to standard error. Spans of the last traced pass are written to
``.perfbench-out/`` in the checkout.

Every pass of one run replays the same stream, so every simulated
output must repeat exactly across passes, traced or not; a mismatch
fails the run like any other correctness failure.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import typing
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit(f"perfbench: no program to measure: {ROOT}/src/repro is missing")
sys.path.insert(0, os.path.join(ROOT, "src"))

from calibrate import Clock  # noqa: E402
from layers import LayerTracer, profiled  # noqa: E402
from workloads import (  # noqa: E402
    SHAPES,
    Outcome,
    assemble,
    data_units,
    drive,
    make_stream,
    run_once,
)

#: Every path label :class:`repro.array.controller.ArrayController` records.
ACCESS_PATHS = (
    "read", "redirected-read", "on-the-fly-read", "double-degraded-read",
    "repaired-read", "rmw-write", "small-stripe-write", "large-write",
    "reconstruct-write", "fold-write", "data-only-write", "pq-rmw-write",
    "pq-degraded-write", "pq-reconstruct-write", "pq-fold-write", "data-loss",
)

#: (name, unit) of the metrics ``--trace 0`` prints.
END_TO_END = (
    ("requests_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_mem_mb", "MB"),
    ("sim_resp_p50_ms", "ms"),
    ("sim_resp_p99_ms", "ms"),
)

#: (name, unit) of the metrics ``--trace 1`` prints.
PER_LAYER = (
    ("sim.events_per_request", "1/request"),
    ("sim.processes_per_request", "1/request"),
    ("sim.schedules_per_request", "1/request"),
    ("sim.self_share", "share"),
    ("disk.services_per_request", "1/request"),
    ("disk.sched_pops", "count"),
    ("disk.sched_pop_us", "us"),
    ("disk.sched_queue_mean", "count"),
    ("disk.sched_queue_max", "count"),
    ("disk.self_share", "share"),
    ("disk.seek_ms", "ms"),
    ("disk.rotation_ms", "ms"),
    ("disk.transfer_ms", "ms"),
    ("disk.queue_wait_ms", "ms"),
    *((f"array.paths.{path}", "share") for path in ACCESS_PATHS),
    ("array.gf_calls_per_request", "1/request"),
    ("array.gf_us", "us"),
    ("array.lock_acquires_per_request", "1/request"),
    ("array.lock_wait_ms", "ms"),
    ("array.controller_init_s", "s"),
    ("array.self_share", "share"),
    ("layout.calls_per_request", "1/request"),
    ("layout.ns_per_call", "ns"),
    ("layout.build_s", "s"),
    ("layout.self_share", "share"),
    ("workload.submitted", "count"),
    ("workload.completed", "count"),
    ("workload.integrity_errors", "count"),
    ("workload.self_share", "share"),
    ("recon.units_rebuilt", "count"),
    ("recon.user_built_units", "count"),
    ("recon.cycles", "count"),
    ("recon.read_phase_ms_mean", "ms"),
    ("recon.write_phase_ms_mean", "ms"),
    ("recon.self_share", "share"),
    ("other.self_share", "share"),
    ("rebuild_units_per_s", "1/s"),
    ("sim_rebuild_s", "s"),
    ("sim_resp_samples", "count"),
    ("host.raw_requests_per_s", "1/s"),
    ("trace.overhead_share", "share"),
    ("trace.spans", "count"),
)

#: Passes per run at the least, so every median has three samples and
#: every run compares passes against each other.
MIN_PASSES = 3

OUT_DIR = os.path.join(ROOT, ".perfbench-out")


@dataclass
class Pass:
    """Host timings of one pass; ``*_ref_s`` are in reference seconds."""

    kind: str
    outcome: Outcome
    setup_ref_s: float
    layout_build_s: float
    controller_init_s: float
    run_ref_s: float

    @property
    def rate(self) -> float:
        """Completed requests per reference second (0 if the pass never ran)."""
        return self.outcome.completed / self.run_ref_s if self.run_ref_s else 0.0

    @property
    def raw_rate(self) -> float:
        """Completed requests per wall-clock second (0 if the pass never ran)."""
        host_s = self.outcome.host_s
        return self.outcome.completed / host_s if host_s else 0.0


class Run:
    """One run: the stream, and every pass made over it."""

    def __init__(self, workload: str, seed: int):
        self.shape = SHAPES[workload]
        self.seed = seed
        self.stream = make_stream(self.shape, seed, data_units(self.shape))
        self.passes: typing.List[Pass] = []
        self.problems: typing.List[str] = []
        self.shares: typing.Dict[str, float] = {}

    def one_pass(self, tracer: typing.Optional[LayerTracer] = None,
                 profile: bool = False) -> Pass:
        """Assemble a fresh array and run it once; records the pass.

        Plain and traced passes are timed on a :class:`Clock`, which
        calibrates before and after the set-up and after every slice of
        the run. The profiled pass is not calibrated, so the profile
        holds the program alone.
        """
        gc.collect()
        clock = Clock()
        array = assemble(self.shape, self.stream, self.seed)
        clock.add(array.setup_s)
        setup_ref_s = clock.reference_s

        def runner(array):
            if profile:
                host_s, self.shares = profiled(lambda: drive(array))
                return host_s
            if tracer is None:
                return drive(array, clock.add)
            tracer.attach(array.controller)
            try:
                return drive(array, clock.add)
            finally:
                tracer.detach()

        outcome = run_once(array, runner)
        kind = "traced" if tracer else "profiled" if profile else "plain"
        if self.passes and outcome.fingerprint() != self.passes[0].outcome.fingerprint():
            self.problems.append(f"a {kind} pass changed the simulated outputs")
        self.problems.extend(outcome.failures)
        done = Pass(
            kind=kind, outcome=outcome, setup_ref_s=setup_ref_s,
            layout_build_s=array.layout_build_s,
            controller_init_s=array.controller_init_s,
            run_ref_s=clock.reference_s - setup_ref_s,
        )
        self.passes.append(done)
        print(
            f"pass {len(self.passes)} {kind}: setup {array.setup_s:.4f} s "
            f"({setup_ref_s:.4f} ref), run {outcome.host_s:.4f} s "
            f"({done.run_ref_s:.4f} ref), {outcome.completed} requests",
            file=sys.stderr,
        )
        return done

    def kind(self, kind: str) -> typing.List[Pass]:
        """The passes of one kind (plain, traced or profiled), in order."""
        return [done for done in self.passes if done.kind == kind]

    def result(self, metrics: typing.Dict[str, float],
               names: typing.Sequence[typing.Tuple[str, str]]) -> dict:
        for problem in sorted(set(self.problems)):
            print(f"FAIL {self.shape.name} seed {self.seed}: {problem}", file=sys.stderr)
        return {
            "correct": not self.problems,
            "attempted": sum(done.outcome.attempted for done in self.passes),
            "failed": sum(done.outcome.failed for done in self.passes),
            "metrics": {
                name: {"value": metrics[name], "unit": unit} for name, unit in names
            },
        }


def untraced(run: Run, seconds: float) -> dict:
    """End-to-end metrics: plain passes for ``seconds``, medians reported."""
    deadline = time.perf_counter() + seconds
    while len(run.passes) < MIN_PASSES or time.perf_counter() < deadline:
        run.one_pass()
    plain = run.kind("plain")
    first = plain[0].outcome
    metrics = {
        "requests_per_s": statistics.median(done.rate for done in plain),
        "setup_s": statistics.median(done.setup_ref_s for done in plain),
        "peak_mem_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_resp_p50_ms": first.resp_p50_ms,
        "sim_resp_p99_ms": first.resp_p99_ms,
    }
    return run.result(metrics, END_TO_END)


def traced(run: Run, seconds: float) -> dict:
    """Per-layer metrics: plain and traced passes alternate, then a profile."""
    deadline = time.perf_counter() + seconds
    tracer = None
    while len(run.kind("traced")) < MIN_PASSES or time.perf_counter() < deadline:
        run.one_pass()
        tracer = LayerTracer()
        run.one_pass(tracer)
    run.one_pass(profile=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.save(os.path.join(OUT_DIR, f"spans-{run.shape.name}-seed{run.seed}.txt.gz"))

    plain = run.kind("plain")
    plain_ref_s = statistics.median(done.run_ref_s for done in plain)
    outcome = plain[0].outcome
    requests = max(outcome.completed, 1)
    services = max(outcome.disk_services, 1)
    paths_total = max(sum(outcome.by_path.values()), 1)
    pops = tracer.pop_queue_lengths
    waits = tracer.lock_waits_ms
    metrics = {
        "sim.events_per_request": tracer.events / requests,
        "sim.processes_per_request": tracer.count("sim.process") / requests,
        "sim.schedules_per_request": tracer.count("sim.schedule") / requests,
        "disk.services_per_request": outcome.disk_services / requests,
        "disk.sched_pops": len(pops),
        "disk.sched_pop_us": tracer.entry_ns["disk"] / max(len(pops), 1) / 1e3,
        "disk.sched_queue_mean": sum(pops) / max(len(pops), 1),
        "disk.sched_queue_max": max(pops, default=0),
        **{
            f"disk.{part}_ms": outcome.disk_totals_ms[part] / services
            for part in ("seek", "rotation", "transfer", "queue_wait")
        },
        **{
            f"array.paths.{path}": outcome.by_path.get(path, 0) / paths_total
            for path in ACCESS_PATHS
        },
        "array.gf_calls_per_request": tracer.entries["array.gf"] / requests,
        "array.gf_us": (
            tracer.entry_ns["array.gf"] / max(tracer.entries["array.gf"], 1) / 1e3
        ),
        "array.lock_acquires_per_request": len(waits) / requests,
        "array.lock_wait_ms": sum(waits) / max(len(waits), 1),
        "array.controller_init_s": statistics.median(d.controller_init_s for d in run.passes),
        "layout.calls_per_request": tracer.entries["layout"] / requests,
        "layout.ns_per_call": tracer.entry_ns["layout"] / max(tracer.entries["layout"], 1),
        "layout.build_s": statistics.median(d.layout_build_s for d in run.passes),
        "workload.submitted": outcome.submitted,
        "workload.completed": outcome.completed,
        "workload.integrity_errors": outcome.program_integrity_errors,
        "recon.units_rebuilt": outcome.rebuild_units,
        "recon.user_built_units": outcome.recon_user_built,
        "recon.cycles": outcome.recon_cycles,
        "recon.read_phase_ms_mean": outcome.read_phase_ms_mean,
        "recon.write_phase_ms_mean": outcome.write_phase_ms_mean,
        "rebuild_units_per_s": outcome.rebuild_units / plain_ref_s,
        "sim_rebuild_s": outcome.rebuild_ms / 1000.0,
        "sim_resp_samples": outcome.resp_samples,
        "host.raw_requests_per_s": statistics.median(done.raw_rate for done in plain),
        "trace.overhead_share": (
            statistics.median(done.run_ref_s for done in run.kind("traced")) / plain_ref_s
            - 1.0
        ),
        "trace.spans": len(tracer.span_name),
    }
    metrics.update({f"{layer}.self_share": share for layer, share in run.shares.items()})
    return run.result(metrics, PER_LAYER)


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run = Run(args.workload, args.seed)
    result = (traced if args.trace else untraced)(run, args.seconds)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
