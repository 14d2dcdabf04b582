"""``python -m repro bench`` end to end, with stubbed suites."""

import json

import pytest

from repro.bench import cli, harness


@pytest.fixture
def stub_registries(monkeypatch):
    rate_box = {"rate": 1000.0}

    def stub_micro():
        return {"events": 10.0, "wall_s": 0.01, "events_per_s": rate_box["rate"]}

    monkeypatch.setattr(harness, "MICRO_BENCHMARKS", {"kernel.stub": stub_micro})
    monkeypatch.setattr(harness, "LAYOUT_BENCHMARKS", {})
    monkeypatch.setattr(harness, "MACRO_BENCHMARKS", {})
    return rate_box


def run_cli(args):
    return cli.main(args)


class TestBenchCli:
    def test_no_write_prints_results_only(self, stub_registries, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli(["--no-write", "--repeat", "1"]) == 0
        assert list(tmp_path.glob("BENCH_*.json")) == []
        assert "kernel.stub" in capsys.readouterr().out

    def test_writes_document_by_default(self, stub_registries, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli(["--repeat", "1"]) == 0
        documents = list(tmp_path.glob("BENCH_*.json"))
        assert len(documents) == 1
        assert "kernel.stub" in json.loads(documents[0].read_text())["results"]

    def test_explicit_out_path(self, stub_registries, tmp_path):
        out = tmp_path / "custom.json"
        assert run_cli(["--repeat", "1", "--out", str(out)]) == 0
        assert out.exists()

    def test_write_baseline_then_check_passes(self, stub_registries, tmp_path):
        baseline = tmp_path / "bench-baseline.json"
        assert run_cli(["--repeat", "1", "--no-write", "--write-baseline", str(baseline)]) == 0
        assert baseline.exists()
        assert run_cli(["--repeat", "1", "--no-write", "--check", str(baseline)]) == 0

    def test_check_fails_on_regression_with_escape_hatch_hint(
        self, stub_registries, tmp_path, capsys
    ):
        baseline = tmp_path / "bench-baseline.json"
        assert run_cli(["--repeat", "1", "--no-write", "--write-baseline", str(baseline)]) == 0
        stub_registries["rate"] = 700.0  # -30%: beyond the 25% tolerance
        assert run_cli(["--repeat", "1", "--no-write", "--check", str(baseline)]) == 1
        captured = capsys.readouterr()
        assert "REGRESS" in captured.out
        assert "--write-baseline" in captured.err  # the documented re-baseline hatch

    def test_check_tolerance_flag(self, stub_registries, tmp_path):
        baseline = tmp_path / "bench-baseline.json"
        run_cli(["--repeat", "1", "--no-write", "--write-baseline", str(baseline)])
        stub_registries["rate"] = 700.0
        assert run_cli([
            "--repeat", "1", "--no-write", "--check", str(baseline),
            "--tolerance", "0.4",
        ]) == 0

    def test_missing_baseline_file_is_usage_error(self, stub_registries, tmp_path):
        assert run_cli([
            "--repeat", "1", "--no-write", "--check", str(tmp_path / "absent.json"),
        ]) == 2

    def test_unknown_only_name_is_usage_error(self, stub_registries, capsys):
        assert run_cli(["--only", "kernel.nope", "--no-write"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "only_args",
        [
            ["--only", "kernel.a", "--only", "kernel.b"],
            ["--only", "kernel.a,kernel.b"],
            ["--only", "kernel.b", "--only", "kernel.a,kernel.c"],
        ],
    )
    def test_repeated_and_comma_separated_only_accumulate(
        self, stub_registries, monkeypatch, only_args
    ):
        ran = []

        def stub(name):
            def run():
                ran.append(name)
                return {"events": 10.0, "wall_s": 0.01, "events_per_s": 1000.0}

            return run

        monkeypatch.setattr(harness, "MICRO_BENCHMARKS", {
            name: stub(name) for name in ("kernel.a", "kernel.b", "kernel.c")
        })
        assert run_cli(only_args + ["--repeat", "1", "--no-write"]) == 0
        expected = sorted({n for a in only_args[1::2] for n in a.split(",")})
        assert ran == expected

    def test_repro_cli_routes_bench_subcommand(self, stub_registries, tmp_path, monkeypatch):
        from repro import cli as top_cli

        monkeypatch.chdir(tmp_path)
        assert top_cli.main(["bench", "--repeat", "1", "--no-write"]) == 0


class TestFingerprintNotice:
    def test_foreign_baseline_warns_on_stderr(self, stub_registries, tmp_path, capsys):
        baseline = tmp_path / "bench-baseline.json"
        assert run_cli(["--repeat", "1", "--no-write", "--write-baseline", str(baseline)]) == 0
        doctored = json.loads(baseline.read_text())
        doctored["environment"]["cpu"] = "Imaginary CPU @ 9GHz"
        baseline.write_text(json.dumps(doctored))
        capsys.readouterr()  # drop the write-baseline output
        assert run_cli(["--repeat", "1", "--no-write", "--check", str(baseline)]) == 0
        captured = capsys.readouterr()
        assert "baseline environment differs" in captured.err
        assert "Imaginary CPU" in captured.err

    def test_same_machine_baseline_stays_quiet(self, stub_registries, tmp_path, capsys):
        baseline = tmp_path / "bench-baseline.json"
        assert run_cli(["--repeat", "1", "--no-write", "--write-baseline", str(baseline)]) == 0
        capsys.readouterr()
        assert run_cli(["--repeat", "1", "--no-write", "--check", str(baseline)]) == 0
        assert "baseline environment differs" not in capsys.readouterr().err
