"""The exact work-count gate: its comparison and its committed document.

``benchmarks/check_work_counts.py`` runs the repository benchmark and
compares its simulated counts against ``benchmarks/work_counts.json``.
Running it takes minutes, so CI runs it as its own job; these tests pin
the comparison it decides with and the shape of the committed file.
"""

import json
import math
import os

from benchmarks import check_work_counts as gate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(name):
    with open(os.path.join(ROOT, name), encoding="utf-8") as fh:
        return json.load(fh)


def document():
    return {
        "oltp_ff": {"disk.sched_pops": 30752, "sim.events_per_request": 15.667927869908228},
        "pq_wide": {"disk.sched_pops": 35925, "sim_resp_p99_ms": 141.5},
    }


class TestCompare:
    def test_identical_documents_pass(self):
        assert gate.compare(document(), document()) == []

    def test_changed_value_is_named_with_both_values(self):
        measured = document()
        measured["oltp_ff"]["disk.sched_pops"] = 30753
        assert gate.compare(document(), measured) == [
            "oltp_ff disk.sched_pops: committed 30752, measured 30753"
        ]

    def test_last_bit_of_a_float_counts(self):
        measured = document()
        value = measured["oltp_ff"]["sim.events_per_request"]
        measured["oltp_ff"]["sim.events_per_request"] = math.nextafter(value, math.inf)
        [problem] = gate.compare(document(), measured)
        assert problem.startswith("oltp_ff sim.events_per_request:")

    def test_missing_metric_is_named(self):
        measured = document()
        del measured["pq_wide"]["sim_resp_p99_ms"]
        assert gate.compare(document(), measured) == [
            "pq_wide sim_resp_p99_ms: committed 141.5, not measured"
        ]

    def test_uncommitted_metric_is_named(self):
        committed = document()
        del committed["pq_wide"]["sim_resp_p99_ms"]
        assert gate.compare(committed, document()) == [
            "pq_wide sim_resp_p99_ms: not committed, measured 141.5"
        ]

    def test_missing_workload_is_named(self):
        measured = document()
        del measured["pq_wide"]
        assert gate.compare(document(), measured) == [
            "pq_wide: workload committed but not measured"
        ]
        assert gate.compare(measured, document()) == [
            "pq_wide: workload measured but not committed"
        ]


class TestCommittedCounts:
    def test_lists_exactly_the_benchmark_workloads(self):
        assert sorted(load("benchmarks/work_counts.json")) == sorted(gate.workloads())

    def test_gates_only_declared_simulated_metrics(self):
        benchmark = load("BENCHMARK.json")
        end_to_end = {metric["name"] for metric in benchmark["end_to_end"]}
        per_layer = {metric["name"] for metric in benchmark["per_layer"]}
        for workload, metrics in load("benchmarks/work_counts.json").items():
            for name in metrics:
                if name in end_to_end:
                    assert name in gate.SIMULATED_END_TO_END, (workload, name)
                else:
                    assert name in per_layer, (workload, name)
                    assert not gate.is_host_timing(name), (workload, name)

    def test_host_timings_name_declared_metrics(self):
        per_layer = {metric["name"] for metric in load("BENCHMARK.json")["per_layer"]}
        assert gate.HOST_TIMINGS <= per_layer
