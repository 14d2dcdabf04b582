"""Tests of the benchmark itself: determinism, names, and the correctness gate.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stdout
from types import SimpleNamespace

import pytest
import run
import workloads
from repro.array.requests import UserRequest

BENCHMARK_JSON = os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")


def _stream(name: str, seed: int):
    shape = workloads.SHAPES[name]
    return workloads.make_stream(shape, seed, workloads.data_units(shape))


def test_same_seed_gives_same_stream_and_same_simulated_outputs():
    assert _stream("pq_wide", 3) == _stream("pq_wide", 3)
    first, second = run.Run("oltp_ff", 3), run.Run("oltp_ff", 3)
    assert first.stream == second.stream
    one, two = first.one_pass(), second.one_pass()
    assert one.outcome.fingerprint() == two.outcome.fingerprint()
    assert one.outcome.failed == 0 and not first.problems


def test_different_seed_gives_different_stream():
    for name in workloads.SHAPES:
        assert _stream(name, 1) != _stream(name, 2)


def test_declared_metrics_match_benchmark_json():
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        declared = json.load(handle)
    assert sorted(w["name"] for w in declared["workloads"]) == sorted(workloads.SHAPES)
    for key, names in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert [(m["name"], m["unit"]) for m in declared[key]] == list(names)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metric_names_match_benchmark_json(trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", "oltp_ff", "--seed", "5", "--seconds", "0",
                         "--trace", trace])
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert code == 0
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == dict(expected)
    if trace == "1":
        assert list(tmp_path.iterdir()), "spans were not written"


def test_gate_trips_on_one_corrupted_datastore_unit():
    shape = workloads.SHAPES["rebuild_rp"]
    stream = workloads.make_stream(shape, 4, workloads.data_units(shape))
    array = workloads.assemble(shape, stream, 4)
    controller = array.controller
    # A stripe clear of the failed disk: neither the sweep nor a degraded
    # path ever recomputes its parity, so the corruption must survive.
    stripe = next(
        s for s in range(controller.addressing.num_stripes)
        if all(unit.disk != 0 for unit in controller.layout.stripe_units(s))
    )
    parity = controller.layout.parity_unit(stripe)
    datastore = controller.datastore
    datastore.write_unit(
        parity.disk, parity.offset, datastore.read_unit(parity.disk, parity.offset) ^ 1
    )
    outcome = workloads.run_once(array)
    assert outcome.failed >= 1
    assert any("parity-inconsistent" in failure for failure in outcome.failures)


def _request(unit, is_write, submit_ms, complete_ms, value):
    request = UserRequest(logical_unit=unit, is_write=is_write,
                          values=[value] if is_write else None)
    request.submit_ms, request.complete_ms = submit_ms, complete_ms
    request.read_values = [] if is_write else [value]
    return request


def _fake_array(requests):
    address = SimpleNamespace(disk=1, offset=2)
    addressing = SimpleNamespace(logical_unit_address=lambda unit: address)
    return SimpleNamespace(requests=requests,
                           controller=SimpleNamespace(addressing=addressing))


def test_read_overlapping_a_write_that_completes_with_it_may_return_either_value():
    # The case the workload's own verifier misreports: the write was in
    # flight during the read and both complete at the same instant, so
    # the old value is legitimate.
    old = _request(7, True, 0.0, 1.0, 0xA)
    new = _request(7, True, 2.0, 5.0, 0xB)
    read_old = _request(7, False, 3.0, 5.0, 0xA)
    read_new = _request(7, False, 3.0, 5.0, 0xB)
    assert workloads.wrong_reads(_fake_array([old, new, read_old, read_new])) == []


def test_read_of_a_stale_value_is_wrong():
    old = _request(7, True, 0.0, 1.0, 0xA)
    new = _request(7, True, 2.0, 3.0, 0xB)
    stale = _request(7, False, 4.0, 6.0, 0xA)
    assert workloads.wrong_reads(_fake_array([old, new, stale])) == [stale]
