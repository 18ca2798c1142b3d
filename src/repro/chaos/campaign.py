"""Chaos campaign runner: catalog × resilience grids through the sweeps.

One campaign **cell** is (scenario, resilience mode): deploy the active
application (``settings.app``; TeaStore by default) with the mode's
:func:`~repro.services.resilience.resilience_preset`, inject the
scenario's schedule, measure one warmup/measure window with the app's
default session load, and — for chaos cells — trace the measurement
window so the :mod:`~repro.chaos.cascade` analyzer can attribute the
damage and the :mod:`~repro.chaos.grading` grader can pass verdict.

:func:`execute_cell` is *the* cell implementation: experiment E13 wraps
it with ``trace=False`` (its historical payloads carry no cascade, and
skipping the tracer keeps its perf profile), while campaign cells run it
with ``trace=True``.  Both paths drive the identical deployment /
injector / workload sequence, so a campaign cell and an E13 cell with
the same schedule and seed produce byte-identical metrics.

Cells are registered as the ``chaos`` sweep provider, so campaigns run
through the ordinary orchestrator pool and cache: scenario definitions
travel *inside* each sweep point's parameters (JSON-native
:meth:`~repro.chaos.catalog.Scenario.to_dict` form), making points
self-contained, picklable, and cacheable — and results byte-identical
at any ``--jobs``.
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.chaos.cascade import (
    CascadeReport,
    ServiceImpact,
    analyze_cascade,
)
from repro.chaos.catalog import Scenario, builtin_catalog, scenario_by_name
from repro.chaos.grading import GradeResult, grade_scenario
from repro.experiments.common import (
    ExperimentResult,
    ExperimentSettings,
    Row,
    build_application,
    require_unsharded,
)
from repro.orchestrator import plan
from repro.services.deployment import Deployment
from repro.services.resilience import (
    RESILIENCE_MODES,
    ResilienceConfig,
    resilience_preset,
)
from repro.tracing.collector import TraceCollector
from repro.workload.cohorts import closed_workload
from repro.workload.faults import FaultInjector
from repro.workload.runner import RunResult, run_experiment

TITLE = "Chaos campaign: bottleneck scenarios x resilience grid"

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.apps.spec import ApplicationSpec


@dataclasses.dataclass
class CellOutcome:
    """Everything one executed campaign cell exposes for analysis."""

    result: RunResult
    injector: FaultInjector
    deployment: Deployment
    #: Spans of the measurement window (None when ``trace`` was off).
    tracer: TraceCollector | None


def execute_cell(settings: ExperimentSettings,
                 schedule: t.Sequence[t.Mapping[str, t.Any]],
                 resilience: ResilienceConfig | None,
                 *, trace: bool = False) -> CellOutcome:
    """Deploy, inject, and measure one fault × resilience cell.

    With ``trace`` a :class:`TraceCollector` is attached between warmup
    and measurement (via :func:`run_experiment`'s ``on_measure_start``
    hook), so it sees exactly the measurement window.  Tracing reads
    completed requests only — it draws no random numbers and schedules
    no events — so traced and untraced cells stay byte-identical on
    every metric.
    """
    deployment = Deployment(settings.machine(), seed=settings.seed,
                            memory_config=settings.memory_config,
                            resilience=resilience)
    store = build_application(settings, deployment)
    injector = FaultInjector(deployment)
    injector.apply(schedule)
    workload = closed_workload(
        deployment, store.session_factory(),
        n_users=settings.users, think_time=settings.think_time,
        cohort_factor=settings.cohort_factor)

    tracer = TraceCollector() if trace else None

    def attach_tracer() -> None:
        deployment.tracer = tracer

    result = run_experiment(
        deployment, workload,
        warmup=settings.warmup, duration=settings.duration,
        on_measure_start=attach_tracer if trace else None)
    return CellOutcome(result=result, injector=injector,
                       deployment=deployment, tracer=tracer)


def fault_window(scenario: Scenario, settings: ExperimentSettings,
                 app: "ApplicationSpec | None" = None
                 ) -> tuple[float, float] | None:
    """The [start, end] envelope of a scenario's faults in sim time.

    The envelope spans from the earliest injection to the latest lift:
    a windowed fault lifts after its ``duration``, a kill "lifts" when
    its replacement registers (``restore_after``), and an open-ended
    fault stays active until the measurement window closes.  The end is
    clipped to the window so recovery analysis never reaches past the
    observed data.  ``None`` for a fault-free scenario.
    """
    schedule = scenario.schedule(settings, app)
    if not schedule:
        return None
    window_end = settings.warmup + settings.duration
    starts = []
    ends = []
    for entry in schedule:
        start = float(entry["time"])
        if "duration" in entry:
            end = start + float(entry["duration"])
        elif "restore_after" in entry:
            end = start + float(entry["restore_after"])
        else:
            end = window_end
        starts.append(start)
        ends.append(end)
    return min(starts), min(max(ends), window_end)


def run_cell(settings: ExperimentSettings, scenario: Scenario,
             mode: str) -> plan.Payload:
    """Execute one (scenario, mode) cell and fold in cascade + grade."""
    app = settings.application()
    target = scenario.target_for(app)
    schedule = scenario.schedule(settings, app)
    outcome = execute_cell(settings, schedule,
                           resilience_preset(mode), trace=True)
    result = outcome.result
    window = fault_window(scenario, settings, app)
    tracer = t.cast(TraceCollector, outcome.tracer)
    cascade = analyze_cascade(
        tracer.table,
        target=target,
        window_start=settings.warmup,
        window_end=settings.warmup + settings.duration,
        fault_start=None if window is None else window[0],
        fault_end=None if window is None else window[1])
    served = result.completed + result.errors
    error_rate = (result.errors / served) if served else 0.0
    grade = grade_scenario(scenario, cascade,
                           error_rate=error_rate,
                           window=settings.duration)
    stats = outcome.deployment.resilience_stats
    return {
        "scenario": scenario.name,
        "bottleneck_class": scenario.bottleneck_class,
        "target": target,
        "resilience": mode,
        "throughput_rps": result.throughput,
        "p99_ms": result.latency_p99 * 1e3,
        "error_rate": error_rate,
        "degraded": stats.degraded,
        "retry_amplification": stats.retry_amplification(),
        "timeouts": stats.timeouts,
        "breaker_opens": sum(b.opened_count
                             for b in outcome.deployment.breakers),
        "faults": len(outcome.injector.events),
        "cascade": cascade.to_dict(),
        "grade": grade.to_dict(),
    }


# ----------------------------------------------------------------------
# Sweep provider (runs campaigns through the orchestrator pool/cache)
# ----------------------------------------------------------------------
def sweep_points(settings: ExperimentSettings,
                 scenarios: t.Sequence[Scenario] | None = None,
                 modes: t.Sequence[str] | None = None
                 ) -> list[plan.SweepPoint]:
    """One point per (scenario, mode) cell; builtin catalog × all modes
    by default.

    The scenario's full JSON-native definition rides inside the point's
    parameters, so custom catalogs flow through the pool and cache
    exactly like the builtin one.  The default catalog is derived
    against the active application, so its role bindings are validated
    eagerly, before any cell runs; so is a sharded run.
    """
    require_unsharded(settings, "the chaos campaign")
    if scenarios is None:
        scenarios = builtin_catalog(settings.application())
    modes = RESILIENCE_MODES if modes is None else modes
    points = []
    index = 0
    for scenario in scenarios:
        for mode in modes:
            points.append(plan.SweepPoint(
                "chaos", index, scenario.name,
                f"{scenario.name}/{mode}", settings,
                params=(("resilience", mode),
                        ("scenario", scenario.to_dict()))))
            index += 1
    return points


def run_sweep_point(point: plan.SweepPoint) -> plan.Payload:
    """Execute one campaign cell from its self-contained point."""
    scenario = Scenario.from_dict(point.param("scenario"))
    return run_cell(point.settings, scenario, point.param("resilience"))


def assemble_sweep(settings: ExperimentSettings,
                   payloads: t.Sequence[plan.Payload]) -> ExperimentResult:
    """Fold campaign cells into the graded table plus the verdict rollup."""
    rows: list[Row] = []
    for payload in payloads:
        cascade = t.cast(dict, payload["cascade"])
        grade = t.cast(dict, payload["grade"])
        blast = t.cast(list, cascade["blast_radius"])
        rows.append({
            "scenario": payload["scenario"],
            "class": payload["bottleneck_class"],
            "resilience": payload["resilience"],
            "grade": grade["grade"],
            "blast": "+".join(blast) if blast else "-",
            "depth": cascade["propagation_depth"],
            "ttr_s": cascade["time_to_recover_s"],
            "p99_ms": payload["p99_ms"],
            "error_pct": 100.0 * t.cast(float, payload["error_rate"]),
            "throughput_rps": payload["throughput_rps"],
        })
    notes = []
    tally = {grade: 0 for grade in ("PASS", "DEGRADED", "FAIL")}
    for payload in payloads:
        tally[t.cast(dict, payload["grade"])["grade"]] += 1
    notes.append(
        f"verdicts: {tally['PASS']} PASS, {tally['DEGRADED']} DEGRADED, "
        f"{tally['FAIL']} FAIL over {len(payloads)} cells")
    for payload in payloads:
        grade = t.cast(dict, payload["grade"])
        for reason in grade["reasons"]:
            notes.append(f"{payload['scenario']}/{payload['resilience']} "
                         f"{grade['grade']}: {reason}")
    anomalies = sorted({
        service
        for payload in payloads
        for service in t.cast(dict, payload["cascade"])["anomalies"]})
    if anomalies:
        notes.append(f"unattributed degradation observed in: "
                     f"{', '.join(anomalies)}")
    return ExperimentResult("CHAOS", TITLE, rows, notes=notes)


def run(settings: ExperimentSettings | None = None) -> ExperimentResult:
    """The full builtin campaign, sequentially (golden-digest entry)."""
    settings = settings or ExperimentSettings.fast()
    points = sweep_points(settings)
    return assemble_sweep(settings,
                          [run_sweep_point(point) for point in points])


def campaign_points(settings: ExperimentSettings,
                    scenario_names: t.Sequence[str] | None = None,
                    modes: t.Sequence[str] | None = None
                    ) -> list[plan.SweepPoint]:
    """Points for a named subset of the builtin catalog (CLI path)."""
    if scenario_names is None:
        scenarios = None
    else:
        catalog = builtin_catalog(settings.application())
        scenarios = [scenario_by_name(name, catalog)
                     for name in scenario_names]
    return sweep_points(settings, scenarios, modes)


def grades_from_payloads(payloads: t.Sequence[plan.Payload]
                         ) -> list[GradeResult]:
    """The per-cell verdicts carried inside campaign payloads."""
    return [GradeResult(scenario=t.cast(dict, p["grade"])["scenario"],
                        grade=t.cast(dict, p["grade"])["grade"],
                        reasons=tuple(t.cast(dict, p["grade"])["reasons"]))
            for p in payloads]


def cascades_from_payloads(payloads: t.Sequence[plan.Payload]
                           ) -> list[CascadeReport]:
    """Rebuilt cascade reports from campaign payloads (for tooling)."""
    reports = []
    for payload in payloads:
        data = t.cast(dict, payload["cascade"])
        reports.append(CascadeReport(
            target=data["target"],
            impacts=tuple(ServiceImpact(**impact)
                          for impact in data["impacts"]),
            blast_radius=tuple(data["blast_radius"]),
            anomalies=tuple(data["anomalies"]),
            propagation_depth=int(data["propagation_depth"]),
            time_to_recover_s=float(data["time_to_recover_s"]),
            recovered=bool(data["recovered"]),
            root_p99_ratio=float(data["root_p99_ratio"]),
            spans=int(data["spans"])))
    return reports


plan.register_sweep("chaos", TITLE, points=sweep_points,
                    run_point=run_sweep_point, assemble=assemble_sweep)
