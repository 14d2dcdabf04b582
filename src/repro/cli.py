"""Command-line interface: ``python -m repro <experiment> [--scale ...]``.

Each experiment name corresponds to one table or figure of the paper
(plus the derived reliability table); ``list`` shows them all.
``--json DIR`` additionally saves each experiment's raw rows as a
self-describing JSON document for downstream comparison (see
:mod:`repro.experiments.persistence`).

Scenario-grid experiments execute through :mod:`repro.sweep`:
``--jobs N`` fans scenario points out over N worker processes, and
results are cached content-addressed on disk (``--no-cache`` opts
out, ``--cache-dir`` relocates the cache), so re-running a figure
replays it from cache — the printed sweep summary shows how many
points were simulated versus served from cache.
"""

from __future__ import annotations

import argparse
import sys
import typing

from repro._version import __version__
from repro.sweep import SweepOptions

Rows = typing.List[dict]
RunResult = typing.Tuple[Rows, str]


def _fig4_3(scale: str, options: SweepOptions) -> RunResult:
    from repro.experiments import fig4_3

    rows = fig4_3.run(scale)
    return rows, fig4_3.format_rows(rows)


def _table5_1(scale: str, options: SweepOptions) -> RunResult:
    from repro.experiments import table5_1

    rows = table5_1.run(scale)
    return rows, table5_1.format_rows(rows)


def _fig6_1(scale: str, options: SweepOptions) -> RunResult:
    from repro.experiments import fig6

    rows = fig6.run_fig6_1(scale, options=options)
    return rows, fig6.format_rows(rows, "Figure 6-1: response time, 100% reads")


def _fig6_2(scale: str, options: SweepOptions) -> RunResult:
    from repro.experiments import fig6

    rows = fig6.run_fig6_2(scale, options=options)
    return rows, fig6.format_rows(rows, "Figure 6-2: response time, 100% writes")


def _fig8_chart(rows: Rows) -> str:
    from repro.experiments.charting import chart_rows

    recon = chart_rows(
        rows, key_fields=["algorithm", "rate"], x_field="alpha",
        y_field="recon_time_s", title="Reconstruction time vs alpha",
    )
    response = chart_rows(
        rows, key_fields=["algorithm", "rate"], x_field="alpha",
        y_field="mean_response_ms", title="User response time vs alpha",
    )
    return f"\n{recon}\n\n{response}"


def _fig8_single(scale: str, options: SweepOptions) -> RunResult:
    from repro.experiments import fig8

    rows = fig8.run_single_thread(scale, options=options)
    text = fig8.format_rows(
        rows,
        "Figures 8-1/8-2: single-thread reconstruction (50% reads, 50% writes)",
    )
    return rows, text + _fig8_chart(rows)


def _fig8_parallel(scale: str, options: SweepOptions) -> RunResult:
    from repro.experiments import fig8

    rows = fig8.run_parallel(scale, options=options)
    text = fig8.format_rows(
        rows,
        "Figures 8-3/8-4: eight-way parallel reconstruction (50% reads, 50% writes)",
    )
    return rows, text + _fig8_chart(rows)


def _table8_1(scale: str, options: SweepOptions) -> RunResult:
    from repro.experiments import table8_1

    rows = table8_1.run(scale, options=options)
    return rows, table8_1.format_rows(rows)


def _fig8_6(scale: str, options: SweepOptions) -> RunResult:
    from repro.experiments import fig8_6

    rows = fig8_6.run(scale, options=options)
    return rows, fig8_6.format_rows(rows)


def _reliability(scale: str, options: SweepOptions) -> RunResult:
    from repro.experiments import reliability

    rows = reliability.run(scale, options=options)
    return rows, reliability.format_rows(rows)


def _campaign(scale: str, options: SweepOptions) -> RunResult:
    from repro.experiments import campaign

    rows = campaign.run(scale, options=options)
    return rows, campaign.format_rows(rows)


def _campaign_pq(scale: str, options: SweepOptions) -> RunResult:
    from repro.experiments import campaign

    rows = campaign.run(scale, options=options, syndromes=2)
    return rows, campaign.format_rows(rows)


def _saturation(scale: str, options: SweepOptions) -> RunResult:
    from repro.experiments import saturation

    rows = saturation.run(scale, options=options)
    return rows, saturation.format_rows(rows)


RunnerFn = typing.Callable[[str, SweepOptions], RunResult]

EXPERIMENTS: typing.Dict[str, typing.Tuple[str, RunnerFn]] = {
    "fig4-3": ("scatter of known block designs", _fig4_3),
    "table5-1": ("simulation configuration", _table5_1),
    "fig6-1": ("fault-free & degraded response time, 100% reads", _fig6_1),
    "fig6-2": ("fault-free & degraded response time, 100% writes", _fig6_2),
    "fig8-1-2": ("single-thread reconstruction time & response time", _fig8_single),
    "fig8-3-4": ("8-way parallel reconstruction time & response time", _fig8_parallel),
    "table8-1": ("reconstruction cycle read/write phases", _table8_1),
    "fig8-6": ("Muntz & Lui model vs simulation", _fig8_6),
    "reliability": ("derived MTTDL from measured repair times", _reliability),
    "campaign": ("Monte Carlo fault campaign: empirical vs Markov MTTDL", _campaign),
    "campaign-pq": (
        "dual-syndrome (P+Q) fault campaign: two-fault MTTDL",
        _campaign_pq,
    ),
    "saturation": ("response time vs offered load (capacity knee)", _saturation),
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce Holland & Gibson, 'Parity Declustering for Continuous "
            "Operation in Redundant Disk Arrays' (ASPLOS 1992)."
        ),
        epilog=(
            "Developer tooling: 'repro lint' runs the simlint determinism "
            "& lock-discipline static analysis — add --project for the "
            "whole-program flow rules (see 'repro lint --help'); "
            "'repro simsan' runs the runtime lock-order sanitizer over "
            "macro scenarios (see 'repro simsan --help'); "
            "'repro report' renders stored scenario results (sweep-cache "
            "entries or result JSON) as per-run metric tables (see "
            "'repro report --help'); 'repro scenario' runs one ad-hoc "
            "scenario point — any width, any layout family (see 'repro "
            "scenario --help'); 'repro serve' runs the simulation "
            "job service and 'repro job' is its client (see 'repro "
            "serve --help' / 'repro job --help'). Performance is measured "
            "from a source checkout by perfbench/run.py, not by a 'repro' "
            "subcommand."
        ),
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["list", "all"],
        help="experiment to run ('list' shows descriptions)",
    )
    parser.add_argument(
        "--scale",
        default="tiny",
        choices=["tiny", "small", "paper"],
        help="simulation scale preset (default: tiny)",
    )
    parser.add_argument(
        "--json",
        metavar="DIR",
        default=None,
        help="also save raw rows as JSON documents under DIR",
    )
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        metavar="N",
        help="simulate N scenario points in parallel worker processes (default: 1)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="always simulate; do not read or write the sweep result cache",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help=(
            "sweep result cache location (default: $REPRO_SWEEP_CACHE or "
            "results/sweep-cache)"
        ),
    )
    return parser


def sweep_options_from_args(args: argparse.Namespace) -> SweepOptions:
    """The sweep execution policy one CLI invocation implies."""
    from repro.sweep import default_cache_dir

    cache = None if args.no_cache else (args.cache_dir or default_cache_dir())
    return SweepOptions(
        jobs=args.jobs, cache=cache, progress=True, stream=sys.stdout
    )


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "lint":
        # Developer tooling rides the same entry point but owns its
        # flags: everything after "lint" belongs to simlint.
        from repro.devtools.simlint.cli import main as lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "simsan":
        # The runtime lock-order sanitizer (simlint's dynamic twin).
        from repro.devtools.simsan.cli import main as simsan_main

        return simsan_main(argv[1:])
    if argv and argv[0] == "report":
        # Same carve-out for the metrics report renderer.
        from repro.metrics.report import main as report_main

        return report_main(argv[1:])
    if argv and argv[0] == "scenario":
        # One ad-hoc scenario point (any width/layout), same cache.
        from repro.experiments.scenario_cli import main as scenario_main

        return scenario_main(argv[1:])
    if argv and argv[0] == "serve":
        # The simulation job service (async HTTP API).
        from repro.service.server import main as serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "job":
        # Client for the job service.
        from repro.service.client import main as job_main

        return job_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.experiment == "list":
        for name, (description, _fn) in sorted(EXPERIMENTS.items()):
            print(f"{name:12s} {description}")
        return 0
    options = sweep_options_from_args(args)
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    from repro.sweep import SweepError

    try:
        for name in names:
            _description, runner = EXPERIMENTS[name]
            rows, text = runner(args.scale, options)
            print(text)
            print()
            if args.json:
                import pathlib

                from repro.experiments.persistence import save_rows

                path = pathlib.Path(args.json) / f"{name}-{args.scale}.json"
                save_rows(path, experiment=name, scale=args.scale, rows=rows)
                print(f"[rows saved to {path}]\n")
    except SweepError as error:
        # Runtime failures exit 1 with a one-line message; usage errors
        # exit 2 (argparse and the subcommand mains share the convention).
        print(f"repro {args.experiment}: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"repro {args.experiment}: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
