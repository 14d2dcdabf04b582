"""Benchmark orchestration: selection, repeats, documents on disk."""

import pytest

from repro.bench import harness
from repro.bench.harness import (
    BenchOptions,
    benchmark_names,
    default_output_path,
    load_document,
    run_benchmarks,
    write_document,
)
from repro.bench.schema import BenchSchemaError, validate_document


@pytest.fixture
def stub_registries(monkeypatch):
    """Replace the real suites with instant, countable stand-ins."""
    micro_walls = iter([0.3, 0.1, 0.2])
    calls = {"micro": 0, "macro_scales": []}

    def stub_micro():
        calls["micro"] += 1
        wall = next(micro_walls)
        return {"events": 100.0, "wall_s": wall, "events_per_s": 100.0 / wall}

    def stub_macro(scale):
        calls["macro_scales"].append(scale)
        return {"wall_s": 1.0, "ios_per_s": 42.0}

    monkeypatch.setattr(harness, "MICRO_BENCHMARKS", {"kernel.stub": stub_micro})
    monkeypatch.setattr(harness, "LAYOUT_BENCHMARKS", {})
    monkeypatch.setattr(harness, "MACRO_BENCHMARKS", {"macro.stub": stub_macro})
    return calls


class TestBenchOptions:
    def test_defaults_select_everything(self, stub_registries):
        assert BenchOptions().selected() == ["kernel.stub", "macro.stub"]

    def test_only_filters_in_canonical_order(self, stub_registries):
        options = BenchOptions(only=("macro.stub", "kernel.stub"))
        assert options.selected() == ["kernel.stub", "macro.stub"]

    def test_unknown_benchmark_rejected(self, stub_registries):
        with pytest.raises(ValueError, match="unknown benchmark"):
            BenchOptions(only=("kernel.nope",))

    def test_repeat_must_be_positive(self):
        with pytest.raises(ValueError):
            BenchOptions(repeat=0)


class TestRunBenchmarks:
    def test_document_is_schema_valid(self, stub_registries):
        document = run_benchmarks(BenchOptions(repeat=1))
        validate_document(document)
        assert set(document["results"]) == {"kernel.stub", "macro.stub"}

    def test_fastest_repeat_is_recorded(self, stub_registries):
        document = run_benchmarks(BenchOptions(only=("kernel.stub",), repeat=3))
        entry = document["results"]["kernel.stub"]
        assert stub_registries["micro"] == 3
        assert entry["wall_s"] == 0.1  # the middle, fastest attempt won

    def test_macro_receives_the_scale(self, stub_registries):
        run_benchmarks(BenchOptions(only=("macro.stub",), scale="small", repeat=2))
        assert stub_registries["macro_scales"] == ["small", "small"]

    def test_log_callback_sees_every_attempt(self, stub_registries):
        lines = []
        run_benchmarks(BenchOptions(repeat=1), log=lines.append)
        assert len(lines) == 2 and all("wall=" in line for line in lines)


class TestDocumentsOnDisk:
    def test_write_then_load_roundtrip(self, stub_registries, tmp_path):
        document = run_benchmarks(BenchOptions(repeat=1))
        path = write_document(document, tmp_path / "deep" / "BENCH_test.json")
        assert path.exists()
        assert load_document(path) == document

    def test_write_rejects_invalid_document(self, tmp_path):
        with pytest.raises(BenchSchemaError):
            write_document({"schema": "nonsense"}, tmp_path / "bad.json")

    def test_load_rejects_tampered_document(self, stub_registries, tmp_path):
        document = run_benchmarks(BenchOptions(repeat=1))
        del document["environment"]
        (tmp_path / "bad.json").write_text(__import__("json").dumps(document))
        with pytest.raises(BenchSchemaError):
            load_document(tmp_path / "bad.json")

    def test_default_output_path_shape(self, tmp_path):
        path = default_output_path(tmp_path)
        assert path.parent == tmp_path
        assert path.name.startswith("BENCH_") and path.suffix == ".json"


class TestRealSuitesSmoke:
    """The actual micro benchmarks, at trivially small sizes."""

    def test_micro_benchmarks_report_events_and_rate(self):
        from repro.bench.micro import (
            cohort_dispatch,
            condition_fanin,
            event_relay,
            timeout_churn,
        )

        for entry in (
            timeout_churn(processes=2, iterations=5),
            event_relay(pairs=1, laps=3),
            condition_fanin(iterations=4, fan=2),
            cohort_dispatch(width=8, heap_width=4, rounds=3),
        ):
            assert entry["events"] > 0
            assert entry["wall_s"] >= 0
            assert entry["events_per_s"] > 0

    def test_registry_names_match_modules(self):
        names = benchmark_names()
        assert names == sorted(names, key=names.index)  # stable, micro first
        assert any(name.startswith("kernel.") for name in names)
        assert any(name.startswith("macro.") for name in names)

    def test_environment_fingerprint_has_required_keys(self):
        from repro.bench.envinfo import environment_fingerprint

        fingerprint = environment_fingerprint()
        for key in ("python", "implementation", "platform", "cpu_count"):
            assert key in fingerprint
