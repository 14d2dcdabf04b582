"""Benchmark orchestration: run suites, assemble and write documents."""

from __future__ import annotations

# simlint: disable-file=DET001 (document timestamps and output filenames are measurement metadata, never simulation inputs)

import datetime
import json
import pathlib
import typing
from dataclasses import dataclass

from repro.bench.envinfo import environment_fingerprint
from repro.bench.layoutperf import LAYOUT_BENCHMARKS
from repro.bench.macro import MACRO_BENCHMARKS
from repro.bench.micro import MICRO_BENCHMARKS
from repro.bench.schema import SCHEMA_ID, validate_document


def benchmark_names() -> typing.List[str]:
    """Every runnable benchmark: micro, then layout, then macro."""
    return list(MICRO_BENCHMARKS) + list(LAYOUT_BENCHMARKS) + list(MACRO_BENCHMARKS)


@dataclass(frozen=True)
class BenchOptions:
    """One ``repro bench`` invocation's policy."""

    scale: str = "tiny"
    repeat: int = 3
    #: Subset of benchmark names to run; None runs everything.
    only: typing.Optional[typing.Tuple[str, ...]] = None

    def __post_init__(self):
        if self.repeat < 1:
            raise ValueError("repeat must be >= 1")
        if self.only is not None:
            known = set(benchmark_names())
            unknown = sorted(set(self.only) - known)
            if unknown:
                raise ValueError(
                    f"unknown benchmark(s) {unknown}; choose from {sorted(known)}"
                )

    def selected(self) -> typing.List[str]:
        names = benchmark_names()
        if self.only is None:
            return names
        return [name for name in names if name in self.only]


def _run_one(name: str, scale: str) -> typing.Dict[str, float]:
    if name in MICRO_BENCHMARKS:
        return MICRO_BENCHMARKS[name]()
    if name in LAYOUT_BENCHMARKS:
        return LAYOUT_BENCHMARKS[name]()
    return MACRO_BENCHMARKS[name](scale)


def run_benchmarks(
    options: typing.Optional[BenchOptions] = None,
    log: typing.Optional[typing.Callable[[str], None]] = None,
) -> typing.Dict[str, typing.Any]:
    """Run the selected suites and return a schema-valid document.

    Each benchmark runs ``options.repeat`` times and the fastest
    repeat (minimum wall-clock) is recorded: the simulated work is
    deterministic, so the fastest run is the one least disturbed by
    the host, which is the quantity worth tracking over commits.
    """
    options = options or BenchOptions()
    log = log or (lambda line: None)
    results: typing.Dict[str, typing.Dict[str, float]] = {}
    for name in options.selected():
        best: typing.Optional[typing.Dict[str, float]] = None
        for attempt in range(options.repeat):
            entry = _run_one(name, options.scale)
            log(
                f"  {name} [{attempt + 1}/{options.repeat}] "
                f"wall={entry['wall_s']:.3f}s"
            )
            if best is None or entry["wall_s"] < best["wall_s"]:
                best = entry
        results[name] = best
    document = {
        "schema": SCHEMA_ID,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "environment": environment_fingerprint(),
        "scale": options.scale,
        "repeat": options.repeat,
        "results": results,
    }
    validate_document(document)
    return document


def default_output_path(directory: typing.Union[str, pathlib.Path] = ".") -> pathlib.Path:
    """``BENCH_<YYYY-MM-DD>.json`` under ``directory``."""
    stamp = datetime.date.today().isoformat()
    return pathlib.Path(directory) / f"BENCH_{stamp}.json"


def write_document(
    document: typing.Mapping[str, typing.Any],
    path: typing.Union[str, pathlib.Path],
) -> pathlib.Path:
    """Validate and write ``document`` as canonical, diff-friendly JSON."""
    validate_document(document)
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def load_document(path: typing.Union[str, pathlib.Path]) -> typing.Dict[str, typing.Any]:
    """Read and validate a bench document from disk."""
    document = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    validate_document(document)
    return document


def format_results(document: typing.Mapping[str, typing.Any]) -> str:
    """Human-readable table of one document's results."""
    lines = [
        f"bench {document['schema']} @ {document['generated_at']}",
        f"scale={document['scale']} repeat={document['repeat']} "
        f"python={document['environment'].get('python')} "
        f"commit={(document['environment'].get('commit') or 'unknown')[:12]}",
    ]
    for name, entry in document["results"].items():
        rates = [
            f"{field}={value:,.0f}"
            for field, value in entry.items()
            if field.endswith("_per_s")
        ]
        lines.append(
            f"  {name:24s} wall={entry['wall_s']:.3f}s  " + "  ".join(rates)
        )
    return "\n".join(lines)
