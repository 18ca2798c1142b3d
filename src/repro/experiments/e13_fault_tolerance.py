"""E13 — Fault tolerance under degraded replicas (extension).

The paper's +22%/−18% headline assumes every replica is healthy.  Related
characterization work (DeathStarBench; the architectural-implications
studies) shows that what actually dominates production tail latency is
inter-service amplification when replicas die, stall, or slow down.  This
experiment opens that workload dimension: a matrix of fault scenarios ×
resilience configurations, each measured with the standard browse load.

Fault scenarios (one schedule each, times placed inside the measurement
window):

* **healthy** — no faults (reference);
* **crash** — one Persistence replica killed, restored later in the
  window;
* **slow** — one Persistence replica inflates its CPU demand 16× for
  most of the window (thermal throttle / noisy neighbor);
* **pause** — the only Recommender replica stalls completely for part of
  the window (GC pause / SIGSTOP).

Resilience configurations:

* **none** — the plain dispatch path (the pre-resilience simulator);
* **timeout** — per-call deadlines plus graceful degradation only;
* **full** — deadlines, budgeted retries with backoff+jitter, circuit
  breakers, and degradation.

Reported per cell: throughput, p99 latency, error rate, degraded-call
count, retry amplification, and breaker trips.  The table quantifies the
resilience claim directly: under the same fault schedule and seed,
``full`` must beat ``none`` on p99 whenever a fault is active.
"""

from __future__ import annotations

import typing as t

from repro._errors import ConfigurationError
from repro.chaos.campaign import execute_cell
from repro.experiments.common import (
    ExperimentResult,
    ExperimentSettings,
    Row,
    require_unsharded,
)
from repro.orchestrator import plan
from repro.services.resilience import ResilienceConfig, resilience_preset

TITLE = "Fault tolerance under degraded replicas"

#: Fault scenarios in table order.
SCENARIOS = ("healthy", "crash", "slow", "pause")

#: Resilience configurations in table order.
MODES = ("none", "timeout", "full")

#: Per-call deadline (seconds) used by the resilient modes — several
#: multiples of the healthy p99, so it only fires on genuinely stuck
#: calls.
CALL_TIMEOUT = 0.25


def resilience_config(mode: str) -> ResilienceConfig | None:
    """The :class:`ResilienceConfig` for one mode name (None = plain).

    Delegates to the canonical
    :func:`~repro.services.resilience.resilience_preset`, keeping this
    module's historical ``ValueError`` contract for unknown names.
    """
    if mode not in MODES:
        raise ValueError(f"unknown resilience mode {mode!r}; "
                         f"choose from {MODES}")
    return resilience_preset(mode, call_timeout=CALL_TIMEOUT)


def fault_schedule(scenario: str,
                   settings: ExperimentSettings
                   ) -> list[dict[str, t.Any]]:
    """The JSON-native fault schedule for one scenario.

    Fault times are placed relative to the measurement window (which
    starts after ``settings.warmup``), so the same scenario scales from
    ``--fast`` to paper-scale settings.
    """
    start = settings.warmup
    window = settings.duration
    if scenario == "healthy":
        return []
    if scenario == "crash":
        return [{"kind": "kill", "time": start + 0.10 * window,
                 "service": "persistence", "replica": 0,
                 "restore_after": 0.50 * window}]
    if scenario == "slow":
        return [{"kind": "slow", "time": start + 0.05 * window,
                 "service": "persistence", "replica": 0,
                 "factor": 16.0, "duration": 0.80 * window}]
    if scenario == "pause":
        return [{"kind": "pause", "time": start + 0.10 * window,
                 "service": "recommender", "replica": 0,
                 "duration": 0.45 * window}]
    raise ValueError(f"unknown fault scenario {scenario!r}; "
                     f"choose from {SCENARIOS}")


def run(settings: ExperimentSettings | None = None) -> ExperimentResult:
    """The full scenario × resilience matrix, sequentially."""
    settings = settings or ExperimentSettings()
    points = sweep_points(settings)
    return assemble_sweep(settings,
                          [run_sweep_point(point) for point in points])


def sweep_points(settings: ExperimentSettings) -> list[plan.SweepPoint]:
    """One independent point per (scenario, resilience mode) cell.

    The fault schedules name TeaStore's services; an application that
    lacks one, or a sharded run, fails here, before any point runs.
    """
    require_unsharded(settings, "E13")
    services = settings.application().service_names()
    missing = sorted({entry["service"] for scenario in SCENARIOS
                      for entry in fault_schedule(scenario, settings)}
                     - set(services))
    if missing:
        raise ConfigurationError(
            f"E13's fault scenarios target {', '.join(missing)}, which "
            f"application {settings.app!r} does not have (its services: "
            f"{', '.join(services)})")
    points = []
    index = 0
    for scenario in SCENARIOS:
        for mode in MODES:
            points.append(plan.SweepPoint(
                "e13", index, scenario, f"{scenario}/{mode}", settings,
                params=(("scenario", scenario), ("resilience", mode))))
            index += 1
    return points


def run_sweep_point(point: plan.SweepPoint) -> plan.Payload:
    """Measure one (scenario, resilience) cell.

    A thin wrapper over the chaos campaign engine's
    :func:`~repro.chaos.campaign.execute_cell` — the same deployment /
    injector / workload sequence a campaign cell runs, untraced.
    """
    settings = point.settings
    scenario = point.param("scenario")
    mode = point.param("resilience")
    outcome = execute_cell(settings, fault_schedule(scenario, settings),
                           resilience_config(mode), trace=False)
    result = outcome.result
    stats = outcome.deployment.resilience_stats
    served = result.completed + result.errors
    return {
        "scenario": scenario,
        "resilience": mode,
        "throughput_rps": result.throughput,
        "p99_ms": result.latency_p99 * 1e3,
        "error_rate": (result.errors / served) if served else 0.0,
        "degraded": stats.degraded,
        "retry_amplification": stats.retry_amplification(),
        "timeouts": stats.timeouts,
        "breaker_opens": sum(b.opened_count
                             for b in outcome.deployment.breakers),
        "faults": len(outcome.injector.events),
    }


def assemble_sweep(settings: ExperimentSettings,
                   payloads: t.Sequence[plan.Payload]) -> ExperimentResult:
    """Fold the cells back into the matrix table plus p99 comparisons."""
    rows: list[Row] = []
    for payload in payloads:
        rows.append({
            "scenario": payload["scenario"],
            "resilience": payload["resilience"],
            "throughput_rps": payload["throughput_rps"],
            "p99_ms": payload["p99_ms"],
            "error_rate_pct": 100.0 * t.cast(float, payload["error_rate"]),
            "degraded": payload["degraded"],
            "retry_amp": payload["retry_amplification"],
            "breaker_opens": payload["breaker_opens"],
        })
    notes = []
    p99 = {(t.cast(str, p["scenario"]), t.cast(str, p["resilience"])):
           t.cast(float, p["p99_ms"]) for p in payloads}
    for scenario in SCENARIOS:
        if scenario == "healthy":
            continue
        base = p99[(scenario, "none")]
        full = p99[(scenario, "full")]
        if base > 0:
            notes.append(
                f"{scenario}: p99 {base:.1f} ms unprotected -> "
                f"{full:.1f} ms with full resilience "
                f"({100.0 * (base - full) / base:+.1f}% tail reduction)")
    amp = max(t.cast(float, p["retry_amplification"]) for p in payloads)
    notes.append(f"retry amplification peaked at {amp:.3f}x "
                 f"(budget caps it at 1.25x)")
    return ExperimentResult("E13", TITLE, rows, notes=notes)


plan.register_sweep("e13", TITLE, points=sweep_points,
                    run_point=run_sweep_point, assemble=assemble_sweep)
