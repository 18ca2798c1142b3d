"""Command-line entry point: ``python -m repro`` / ``repro``.

Examples::

    repro list                     # available experiments
    repro platform                 # E1 table for the paper's machine
    repro run e8                   # the headline result, paper scale
    repro run e2 --fast            # quick small-machine version
    repro run all --fast --seed 7  # everything, quickly
    repro sweep e2 --jobs 8        # the same table, in parallel
    repro sweep all --fast         # everything, parallel + cached
"""

from __future__ import annotations

import argparse
import sys
import typing as t

from repro.experiments import ExperimentSettings
from repro.orchestrator import (
    ProgressReporter,
    ResultCache,
    SweepInterrupted,
    SweepOutcome,
    SweepTimeout,
    provider_for,
    run_sweep,
    sweep_experiments,
)
from repro.orchestrator.cache import DEFAULT_CACHE_DIR
from repro.topology.presets import PRESETS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TeaStore scale-up study reproduction (IISWC 2020)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list experiments")

    platform = subparsers.add_parser("platform",
                                     help="print the machine topology (E1)")
    platform.add_argument("--preset", default="rome-1s",
                          choices=sorted(PRESETS))
    platform.add_argument("--json", action="store_true",
                          help="emit the machine spec as JSON")

    apps = subparsers.add_parser(
        "apps", help="list the bundled application specs")
    apps.add_argument("--validate", action="store_true",
                      help="check the committed JSON spec files parse, "
                           "validate, and round-trip byte-stably; exit 1 "
                           "on any problem")
    apps.add_argument("--json", metavar="NAME", default=None,
                      help="print one application's canonical JSON spec")

    experiment_choices = sweep_experiments() + ["all"]
    run = subparsers.add_parser("run", help="run experiments")
    run.add_argument("experiment", choices=experiment_choices,
                     help="experiment id, or 'all'")
    _add_experiment_arguments(run)
    run.add_argument("--figures", metavar="DIR", default=None,
                     help="also write SVG figures to DIR")

    sweep = subparsers.add_parser(
        "sweep",
        help="run experiments as parallel, cached, resumable sweeps")
    sweep.add_argument("experiment", choices=experiment_choices,
                       help="experiment id, or 'all'")
    sweep.add_argument("--jobs", type=int, default=None,
                       help="worker processes (default: all CPUs)")
    _add_experiment_arguments(sweep)
    _add_cache_arguments(sweep)
    sweep.add_argument("--timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-point completion timeout")
    sweep.add_argument("--quiet", action="store_true",
                       help="suppress progress lines")
    sweep.add_argument("--log", metavar="FILE", default=None,
                       help="JSONL run log "
                            "(default: <cache-dir>/last-sweep.jsonl)")

    chaos = subparsers.add_parser(
        "chaos",
        help="run graded chaos campaigns (bottleneck scenario catalog "
             "x resilience grid)")
    chaos.add_argument("action", nargs="?", default="run",
                       choices=("run",),
                       help="campaign action (default: run)")
    chaos.add_argument("--list-scenarios", action="store_true",
                       help="print the builtin scenario catalog and exit")
    chaos.add_argument("--grade", metavar="FILE", default=None,
                       help="re-grade a campaign artifact written by "
                            "--out; exit 1 if any cell grades FAIL")
    chaos.add_argument("--scenarios", action="append", default=None,
                       metavar="NAME",
                       help="limit to one catalog scenario (repeatable; "
                            "default: the full catalog)")
    chaos.add_argument("--modes", action="append", default=None,
                       metavar="MODE", choices=("none", "timeout", "full"),
                       help="limit to one resilience mode (repeatable; "
                            "default: all three)")
    chaos.add_argument("--jobs", type=int, default=1,
                       help="worker processes (default: 1; results are "
                            "byte-identical at any value)")
    # The campaign builds its own deployments, so it cannot shard.
    _add_experiment_arguments(chaos, shards=False)
    _add_cache_arguments(chaos)
    chaos.add_argument("--out", metavar="FILE", default=None,
                       help="write the campaign artifact (settings + "
                            "per-cell payloads) as JSON to FILE")
    return parser


def _add_experiment_arguments(subparser: argparse.ArgumentParser, *,
                              shards: bool = True) -> None:
    """The flags every experiment-running verb shares."""
    from repro.apps.registry import APP_NAMES

    subparser.add_argument("--fast", action="store_true",
                           help="small machine, short windows")
    subparser.add_argument("--preset", default=None,
                           choices=sorted(PRESETS),
                           help="override the machine preset")
    subparser.add_argument("--seed", type=int, default=1)
    subparser.add_argument("--users", type=int, default=None)
    subparser.add_argument(
        "--app", default="teastore", choices=APP_NAMES,
        help="application under test (default: teastore)")
    subparser.add_argument(
        "--cohort-factor", type=int, default=1, metavar="N",
        help="collapse N statistically identical users per weighted "
             "cohort (1 = exact per-user baseline)")
    if shards:
        subparser.add_argument(
            "--shards", type=int, default=1, metavar="N",
            help="partition the population across N sharded deployments "
                 "with window-synced shared services (1 = single process; "
                 "set REPRO_SCALE_JOBS to fan shards out over processes)")
    subparser.add_argument("--markdown", metavar="FILE", default=None,
                           help="also write a markdown report to FILE")
    subparser.add_argument(
        "--kernel", default=None,
        choices=("auto", "python", "compiled"),
        help="event-loop backend (default: REPRO_KERNEL env or auto; "
             "'compiled' fails if the extension is not built)")


def _add_cache_arguments(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument("--no-cache", action="store_true",
                           help="disable the result cache entirely")
    subparser.add_argument("--rerun", action="store_true",
                           help="execute every point even on cache hits "
                                "(and refresh the entries)")
    subparser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                           metavar="DIR",
                           help="result-cache directory "
                                "(default: %(default)s)")


def _apply_kernel_choice(args: argparse.Namespace) -> None:
    """Pin the kernel backend for this process *and* worker processes.

    The session default covers in-process simulators; the environment
    variable carries the choice into sweep worker processes, which
    build their own simulators from a fresh interpreter.
    """
    choice = getattr(args, "kernel", None)
    if choice is None:
        return
    import os

    from repro.sim import kernel

    kernel.set_default_backend(choice)
    os.environ[kernel.KERNEL_ENV] = choice


def _settings_for(args: argparse.Namespace,
                  experiment_id: str) -> ExperimentSettings:
    overrides: dict[str, t.Any] = {"seed": args.seed}
    if args.preset is not None:
        overrides["preset"] = args.preset
    elif experiment_id == "e10" and not args.fast:
        overrides["preset"] = "rome-2s"  # E10 needs two NUMA nodes
    if args.users is not None:
        overrides["users"] = args.users
    overrides["app"] = getattr(args, "app", "teastore")
    if getattr(args, "cohort_factor", 1) != 1:
        overrides["cohort_factor"] = args.cohort_factor
    if getattr(args, "shards", 1) != 1:
        overrides["shards"] = args.shards
    if args.fast:
        if experiment_id == "e10" and "preset" not in overrides:
            overrides["preset"] = "small"  # smallest 2-node machine
        return ExperimentSettings.fast(**overrides)
    return ExperimentSettings.full(**overrides)


def main(argv: t.Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    _apply_kernel_choice(args)

    if args.command == "list":
        for experiment_id in sweep_experiments():
            print(f"{experiment_id:4s} {provider_for(experiment_id).title}")
        return 0

    if args.command == "platform":
        from repro.topology.presets import machine_from_preset
        machine = machine_from_preset(args.preset)
        if args.json:
            import json
            from repro.topology.serialize import machine_to_dict
            print(json.dumps(machine_to_dict(machine), indent=2))
        else:
            print(machine.describe())
        return 0

    verb = {"apps": _run_apps, "run": _run, "sweep": _run_sweeps,
            "chaos": _run_chaos}
    try:
        return verb[args.command](args)
    except SweepInterrupted as interrupted:
        print(interrupted, file=sys.stderr)
        return 130
    except SweepTimeout as timed_out:
        print(timed_out, file=sys.stderr)
        return 1


def _execute(args: argparse.Namespace, experiment_ids: t.Sequence[str], *,
             log: t.TextIO | None = None,
             **options: t.Any) -> t.Iterator[SweepOutcome]:
    """Run each experiment through :func:`run_sweep`, yielding each
    outcome as it completes; ``options`` are ``run_sweep``'s keywords.

    This is the one path from an experiment id to its table.  ``repro
    run`` takes ``run_sweep``'s defaults (in-process, no cache) and no
    progress; ``repro sweep`` adds worker processes, the cache and a
    JSONL run ``log`` with progress lines; ``repro chaos run`` passes
    its catalog subset as ``points``.
    """
    for experiment_id in experiment_ids:
        progress = (None if log is None else
                    ProgressReporter(experiment_id, log=log,
                                     quiet=args.quiet))
        yield run_sweep(experiment_id, _settings_for(args, experiment_id),
                        progress=progress, **options)


def _print_tables(args: argparse.Namespace,
                  **options: t.Any) -> list[SweepOutcome]:
    """``run``/``sweep``: every table, printed as it completes."""
    experiment_ids = (sweep_experiments() if args.experiment == "all"
                      else [args.experiment])
    outcomes = []
    for outcome in _execute(args, experiment_ids, **options):
        print(outcome.result.render())
        print()
        outcomes.append(outcome)
    return outcomes


def _write_markdown(args: argparse.Namespace,
                    outcomes: t.Sequence[SweepOutcome], *,
                    telemetry: bool = False) -> None:
    """``--markdown FILE``: the report, plus sweep telemetry on request."""
    if args.markdown is None:
        return
    from repro.report import build_report

    settings = _settings_for(args, outcomes[0].stats.experiment)
    report = build_report(
        [outcome.result for outcome in outcomes],
        machine=settings.machine(),
        sweep_stats=([outcome.stats.to_dict() for outcome in outcomes]
                     if telemetry else None))
    with open(args.markdown, "w", encoding="utf-8") as handle:
        handle.write(report)
    print(f"markdown report written to {args.markdown}")


def _run(args: argparse.Namespace) -> int:
    """The ``repro run`` verb: the sweep in-process, uncached."""
    outcomes = _print_tables(args)
    _write_markdown(args, outcomes)
    if args.figures is not None:
        from repro.experiments.figures import write_figures
        written = write_figures([outcome.result for outcome in outcomes],
                                args.figures)
        print(f"{len(written)} figures written to {args.figures}")
    return 0


def _run_apps(args: argparse.Namespace) -> int:
    """The ``repro apps`` verb: bundled spec listing and lint gate."""
    from repro.apps.registry import APP_NAMES, get_app, verify_bundled

    if args.validate:
        problems = verify_bundled()
        for problem in problems:
            print(f"SPEC PROBLEM: {problem}", file=sys.stderr)
        if problems:
            return 1
        print(f"{len(APP_NAMES)} bundled specs validated: "
              f"{', '.join(APP_NAMES)}")
        return 0
    if args.json is not None:
        print(get_app(args.json).dumps(), end="")
        return 0
    for name in APP_NAMES:
        spec = get_app(name)
        roles = ", ".join(f"{role}={service}"
                          for role, service in sorted(spec.chaos_targets.items()))
        print(f"{name:10s} {len(spec.services):2d} services  "
              f"sessions: {', '.join(s.name for s in spec.sessions)}")
        print(f"{'':10s} {spec.description}")
        print(f"{'':10s} chaos roles: {roles}")
    return 0


def _run_sweeps(args: argparse.Namespace) -> int:
    """The ``repro sweep`` verb: parallel, cached, resumable runs."""
    import os
    import pathlib

    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    if jobs < 1:
        print(f"--jobs must be >= 1 (got {jobs})", file=sys.stderr)
        return 2
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    log_path = pathlib.Path(
        args.log or os.path.join(args.cache_dir, "last-sweep.jsonl"))
    log_path.parent.mkdir(parents=True, exist_ok=True)
    with open(log_path, "w", encoding="utf-8") as log:
        outcomes = _print_tables(args, log=log, jobs=jobs, cache=cache,
                                 rerun=args.rerun,
                                 point_timeout=args.timeout)
    _write_markdown(args, outcomes, telemetry=True)
    return 0


def _run_chaos(args: argparse.Namespace) -> int:
    """The ``repro chaos`` verb: graded campaigns over the catalog."""
    import json

    from repro.chaos import campaign, catalog, grading

    if args.list_scenarios:
        app = _settings_for(args, "chaos").application()
        for scenario in catalog.builtin_catalog(app):
            faults = (", ".join(str(f["kind"]) for f in scenario.faults)
                      or "none")
            print(f"{scenario.name:18s} {scenario.bottleneck_class:26s} "
                  f"target={scenario.target:14s} "
                  f"({scenario.target_for(app)}) faults={faults}")
            print(f"{'':18s} {scenario.description}")
        return 0

    if args.grade is not None:
        with open(args.grade, encoding="utf-8") as handle:
            artifact = json.load(handle)
        settings = ExperimentSettings.from_dict(artifact["settings"])
        payloads = artifact["payloads"]
        reports = campaign.cascades_from_payloads(payloads)
        graded_catalog = catalog.builtin_catalog(settings.application())
        failed = False
        for payload, report in zip(payloads, reports):
            scenario = catalog.scenario_by_name(payload["scenario"],
                                                graded_catalog)
            grade = grading.grade_scenario(
                scenario, report,
                error_rate=float(payload["error_rate"]),
                window=settings.duration)
            failed = failed or grade.grade == "FAIL"
            print(f"{payload['scenario']}/{payload['resilience']}: "
                  f"{grade.grade}")
            for reason in grade.reasons:
                print(f"  - {reason}")
        return 1 if failed else 0

    if args.jobs < 1:
        print(f"--jobs must be >= 1 (got {args.jobs})", file=sys.stderr)
        return 2
    settings = _settings_for(args, "chaos")
    points = campaign.campaign_points(settings, args.scenarios, args.modes)
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    [outcome] = _execute(args, ["chaos"], jobs=args.jobs, cache=cache,
                         rerun=args.rerun, points=points)
    print(outcome.result.render())
    if args.out is not None:
        artifact = {"settings": settings.to_dict(),
                    "payloads": list(outcome.payloads)}
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(artifact, handle, indent=2, sort_keys=True)
        print(f"campaign artifact written to {args.out}")
    _write_markdown(args, [outcome])
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
