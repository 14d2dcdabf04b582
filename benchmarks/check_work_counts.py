"""Check the repository benchmark's simulated work counts exactly.

Usage, from anywhere::

    python benchmarks/check_work_counts.py

For each workload ``BENCHMARK.json`` names, the script runs the
benchmark's own command twice at seed 1::

    python3 perfbench/run.py --workload W --seed 1 --seconds 1 --trace 0
    python3 perfbench/run.py --workload W --seed 1 --seconds 1 --trace 1

Both runs must report ``correct: true`` and ``failed: 0``. Every metric
the simulation alone decides is then compared exactly against the
committed ``benchmarks/work_counts.json``: ``sim_resp_p50_ms`` and
``sim_resp_p99_ms`` from the first run, and every metric of the second
except the host timings (:func:`is_host_timing`). The simulator is
deterministic, so these values repeat bit for bit on one Python version;
a difference means the change moved simulated work.

On any difference the script prints each differing metric with its
committed and measured values and exits 1. Its last line of standard
output is always the whole measured document, so a change that moves a
count on purpose refreshes the committed file with::

    python benchmarks/check_work_counts.py | tail -1 > benchmarks/work_counts.json

and says in CHANGES.md which counts moved and why.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import typing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMITTED = os.path.join(ROOT, "benchmarks", "work_counts.json")
SEED = 1

#: The ``--trace 0`` metrics that are simulated rather than timed.
SIMULATED_END_TO_END = ("sim_resp_p50_ms", "sim_resp_p99_ms")

#: ``--trace 1`` metrics measured on the host clock (besides ``*.self_share``).
HOST_TIMINGS = frozenset({
    "disk.sched_pop_us",
    "array.gf_us",
    "array.controller_init_s",
    "layout.ns_per_call",
    "layout.build_s",
    "rebuild_units_per_s",
    "host.raw_requests_per_s",
    "trace.overhead_share",
})

Document = typing.Dict[str, typing.Dict[str, float]]


def is_host_timing(name: str) -> bool:
    """Whether a ``--trace 1`` metric depends on host time, not simulation."""
    return name in HOST_TIMINGS or name.endswith(".self_share")


def workloads() -> typing.List[str]:
    """The workload names ``BENCHMARK.json`` declares, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [workload["name"] for workload in json.load(fh)["workloads"]]


def run_perfbench(workload: str, trace: int, problems: typing.List[str]) -> dict:
    """One ``perfbench/run.py`` run's metric values; failures go to ``problems``."""
    argv = [
        sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
        "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        problems.append(f"{workload} --trace {trace}: no JSON result (exit {proc.returncode})")
        return {}
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(
            f"{workload} --trace {trace}: correct={result.get('correct')} "
            f"failed={result.get('failed')} (exit {proc.returncode})"
        )
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def measure(workload: str, problems: typing.List[str]) -> typing.Dict[str, float]:
    """The gated metrics of one workload at seed 1."""
    end_to_end = run_perfbench(workload, 0, problems)
    per_layer = run_perfbench(workload, 1, problems)
    gated = {name: end_to_end[name] for name in SIMULATED_END_TO_END if name in end_to_end}
    gated.update(
        (name, value) for name, value in per_layer.items() if not is_host_timing(name)
    )
    return gated


def compare(committed: Document, measured: Document) -> typing.List[str]:
    """One line per workload or metric that differs; empty when identical."""
    problems = []
    for workload in sorted(committed.keys() | measured.keys()):
        if workload not in measured:
            problems.append(f"{workload}: workload committed but not measured")
            continue
        if workload not in committed:
            problems.append(f"{workload}: workload measured but not committed")
            continue
        want, got = committed[workload], measured[workload]
        for name in sorted(want.keys() | got.keys()):
            if name not in got:
                problems.append(f"{workload} {name}: committed {want[name]!r}, not measured")
            elif name not in want:
                problems.append(f"{workload} {name}: not committed, measured {got[name]!r}")
            elif want[name] != got[name]:
                problems.append(
                    f"{workload} {name}: committed {want[name]!r}, measured {got[name]!r}"
                )
    return problems


def main() -> int:
    problems: typing.List[str] = []
    measured = {}
    for workload in workloads():
        print(f"measuring {workload}", file=sys.stderr)
        measured[workload] = measure(workload, problems)
    try:
        with open(COMMITTED, encoding="utf-8") as fh:
            committed = json.load(fh)
    except FileNotFoundError:
        problems.append(f"{os.path.relpath(COMMITTED, ROOT)} is missing")
    else:
        problems.extend(compare(committed, measured))
    for problem in problems:
        print(f"FAIL {problem}")
    print(json.dumps(measured, sort_keys=True))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
