"""E11 — End-to-end latency decomposition (tracing extension).

Traces every request under saturating load and decomposes user-visible
page latency into per-service *exclusive* contributions (time each hop
added after subtracting waits on its own downstream calls).  This extends
the paper's CPU-time breakdown (E5) to latency: the two differ exactly
where queueing, not CPU consumption, dominates — under the write-heavy
buy profile the database's serialized section contributes more latency
than its CPU share suggests.
"""

from __future__ import annotations

import typing as t

from repro.experiments.common import (
    ExperimentResult,
    ExperimentSettings,
    Row,
    build_application,
    require_unsharded,
)
from repro.orchestrator import plan
from repro.services.deployment import Deployment
from repro.tracing.collector import TraceCollector
from repro.workload.cohorts import closed_workload

TITLE = "Per-service latency decomposition (traced, buy profile)"

#: Endpoints decomposed by default.
DEFAULT_ENDPOINTS = ("product", "category", "checkout")

#: The session profile the traced users walk.
SESSION = "buy"


def run(settings: ExperimentSettings | None = None,
        endpoints: t.Sequence[str] = DEFAULT_ENDPOINTS) -> ExperimentResult:
    """One row per (endpoint, service) with exclusive-latency shares."""
    settings = settings or ExperimentSettings()
    points = sweep_points(settings, endpoints)
    return assemble_sweep(settings,
                          [run_sweep_point(point) for point in points])


def sweep_points(settings: ExperimentSettings,
                 endpoints: t.Sequence[str] = DEFAULT_ENDPOINTS
                 ) -> list[plan.SweepPoint]:
    """One point: all endpoints decompose from a single traced run.

    An application without a :data:`SESSION` profile, or a sharded run,
    fails here, before any point runs.
    """
    require_unsharded(settings, "E11")
    settings.application().session(SESSION)
    return [plan.SweepPoint(
        "e11", 0, "trace", "buy-profile", settings,
        params=(("endpoints", tuple(endpoints)),))]


def run_sweep_point(point: plan.SweepPoint) -> plan.Payload:
    """Trace one buy-profile run and decompose every endpoint."""
    settings = point.settings
    machine = settings.machine()
    deployment = Deployment(machine, seed=settings.seed,
                            memory_config=settings.memory_config)
    store = build_application(settings, deployment)
    # The buy profile exercises the checkout path the browse profile
    # lacks.  Moderate load (quarter of the saturating population): the
    # decomposition should expose the *structure* of page latency, not
    # the depth of saturation queues.
    workload = closed_workload(
        deployment, store.session_factory(SESSION),
        n_users=max(64, settings.users // 4),
        think_time=settings.think_time,
        cohort_factor=settings.cohort_factor)
    workload.start()
    deployment.run(until=deployment.sim.now + settings.warmup)
    tracer = TraceCollector()
    deployment.tracer = tracer  # trace the measurement window only
    deployment.run(until=deployment.sim.now + settings.duration)

    rows: list[Row] = []
    for endpoint in point.param("endpoints"):
        breakdown = tracer.breakdown(endpoint)
        total = sum(breakdown.values())
        for service, value in sorted(breakdown.items(),
                                     key=lambda kv: -kv[1]):
            rows.append({
                "endpoint": endpoint,
                "service": service,
                "exclusive_ms": value * 1e3,
                "share_pct": 100.0 * value / total if total > 0 else 0.0,
            })
    return {"rows": rows,
            "spans": len(tracer),
            "roots": len(tracer.roots),
            "mean_latency": tracer.mean_root_latency()}


def assemble_sweep(settings: ExperimentSettings,
                   payloads: t.Sequence[plan.Payload]) -> ExperimentResult:
    """Reattach the tracing summary notes."""
    [payload] = payloads
    rows = [dict(row) for row in payload["rows"]]
    return ExperimentResult(
        "E11", TITLE, rows,
        notes=[
            f"{payload['spans']} spans over {payload['roots']} "
            f"user requests "
            f"(buy profile), mean page latency "
            f"{t.cast(float, payload['mean_latency']) * 1e3:.1f} ms",
            "exclusive time = hop latency minus waits on its own "
            "downstream calls",
        ])


plan.register_sweep("e11", TITLE, points=sweep_points,
                    run_point=run_sweep_point, assemble=assemble_sweep)
