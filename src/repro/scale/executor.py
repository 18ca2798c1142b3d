"""Sharded execution: run one experiment as N deployments and merge.

The driver (:func:`run_sharded`) models cluster scale-out: the user
population is partitioned into contiguous shards (see
:mod:`repro.scale.plan`), each shard runs a complete deployment of the
active application (``settings.app``; TeaStore by default) over the
same warmup/measure timeline, and the shards are
coupled at the shared-resource tier through the conservative window
synchronization in :mod:`repro.scale.sync`:

* **round 0** runs every shard uncoupled and records per-window demand
  at the shared services (Persistence/DB for TeaStore; the spec's
  ``shared_services`` otherwise) and the registry;
* the driver merges the profiles into per-shard inflation schedules;
* the **measured round** replays the same seeds with the schedules
  applied through ``ServiceInstance.demand_factor``, and its per-shard
  payloads — columnar latency samples, utilization, optional span
  tables — merge into one :class:`~repro.workload.runner.RunResult`.

Shards execute on the orchestrator's substrate: worker fan-out uses a
process pool exactly like ``repro sweep`` (``jobs`` or the
``REPRO_SCALE_JOBS`` environment variable), and each shard round is a
synthetic :class:`~repro.orchestrator.plan.SweepPoint` so the
content-addressed :class:`~repro.orchestrator.cache.ResultCache` can
replay unchanged shards for free.  Shard 0's final round always runs in
the driver process so callers get live ``Deployment``/``Application``
objects back, mirroring the single-process ``run_store`` contract.

Every payload is JSON-native and every merge folds shard payloads in
shard order, so the merged result is a pure function of
``(settings, users, seed, config)`` — identical at any ``jobs`` and
with or without the cache.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import os
import typing as t

from repro._errors import ConfigurationError
from repro.apps.runtime import Application
from repro.experiments.common import ExperimentSettings, build_application
from repro.metrics.latency import LatencyRecorder
from repro.metrics.utilization import UtilizationProbe
from repro.scale.plan import (
    ScaleConfig,
    ShardPlan,
    ShardSpec,
    plan_shards,
)
from repro.scale.sync import (
    InflationProfile,
    SyncReport,
    inflation_profiles,
    merge_demand,
)
from repro.services.deployment import Deployment
from repro.tracing.collector import SpanTable, TraceCollector
from repro.workload.cohorts import CohortWorkload
from repro.workload.runner import RunResult

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.orchestrator.cache import ResultCache

#: JSON-native result of one shard round.
Payload = dict[str, t.Any]

#: Environment override for shard-level process fan-out (the CLI `run`
#: path has no --jobs flag; sweeps already parallelize across points).
JOBS_ENV = "REPRO_SCALE_JOBS"


@dataclasses.dataclass(frozen=True)
class ShardTask:
    """Everything one worker process needs to run one shard round."""

    settings: ExperimentSettings
    spec: ShardSpec
    seed: int
    boundaries: tuple[float, ...]
    warmup_windows: int
    shared_services: tuple[str, ...]
    #: Sorted ``(service, per-window factor schedule)`` pairs; empty in
    #: the discovery round.
    background: tuple[tuple[str, tuple[float, ...]], ...] = ()
    trace: bool = False


def run_shard(task: ShardTask) -> Payload:
    """Execute one shard round (the process-pool entry point)."""
    payload, __, __, __ = _run_shard_objects(task)
    return payload


def _run_shard_objects(task: ShardTask
                       ) -> tuple[Payload, Deployment, Application,
                                  TraceCollector | None]:
    """One shard round, returning the live objects alongside the payload.

    Replicates :func:`repro.workload.runner.run_experiment`'s phase
    semantics on the shared window grid: the warmup/measure split is an
    exact boundary, so resetting the recorder and opening the meter and
    probe there observes exactly what a single ``run(until=warmup)``
    call would have produced.
    """
    settings = task.settings
    deployment = Deployment(settings.machine(), seed=task.seed,
                            memory_config=settings.memory_config)
    store = build_application(settings, deployment)
    workload = CohortWorkload(deployment, store.session_factory(),
                              n_users=task.spec.n_users,
                              think_time=settings.think_time,
                              cohorts=task.spec.cohorts)
    workload.start()
    probe = UtilizationProbe(deployment.scheduler, deployment.groups())
    background = dict(task.background)
    shared = [(service, store.replicas(service))
              for service in task.shared_services
              if store.replicas(service)]
    demand: dict[str, list[int]] = {service: [] for service, __ in shared}
    last = {service: sum(replica.completed for replica in replicas)
            for service, replicas in shared}
    lookups: list[int] = []
    last_lookups = deployment.registry.lookups
    tracer: TraceCollector | None = None

    def open_measurement() -> TraceCollector | None:
        workload.latency.reset()
        workload.meter.start_window()
        probe.start()
        if task.trace:
            collector = TraceCollector()
            deployment.tracer = collector
            return collector
        return None

    if task.warmup_windows == 0:
        tracer = open_measurement()
    for k, t_end in enumerate(task.boundaries):
        for service, replicas in shared:
            schedule = background.get(service)
            factor = schedule[k] if schedule is not None else 1.0
            for replica in replicas:
                replica.demand_factor = factor
        deployment.run(until=t_end)
        for service, replicas in shared:
            total = sum(replica.completed for replica in replicas)
            demand[service].append(total - last[service])
            last[service] = total
        lookups.append(deployment.registry.lookups - last_lookups)
        last_lookups = deployment.registry.lookups
        if k == task.warmup_windows - 1:
            tracer = open_measurement()
    workload.meter.stop_window()
    probe.stop()

    payload: Payload = {
        "shard": task.spec.index,
        "users": task.spec.n_users,
        "user_base": task.spec.user_base,
        "cohorts": len(task.spec.cohorts),
        "completed": workload.meter.window_count,
        "errors": workload.errors,
        # The *measured* window length (a float subtraction of clock
        # values), so merged throughput divides by exactly what the
        # single-process meter divides by — identical grids give every
        # shard the same value.
        "window_duration": workload.meter.window_duration,
        "machine_utilization": probe.machine_utilization(),
        "service_utilization": probe.group_utilization(),
        "service_share": probe.group_share(),
        "latency": workload.latency.to_payload(),
        "demand": demand,
        "lookups": lookups,
    }
    if tracer is not None:
        payload["spans"] = tracer.table.to_payload()
    return payload, deployment, store, tracer


def _config_dict(config: ScaleConfig) -> dict[str, t.Any]:
    """The scale config as a JSON-native cache-key fragment."""
    values = dataclasses.asdict(config)
    values["shared_services"] = list(config.shared_services)
    return values


def _point_for(task: ShardTask, round_index: int, users: int, seed: int,
               config: ScaleConfig):
    """A synthetic sweep point identifying one shard round in the cache.

    The identity covers everything that determines the payload: the
    settings snapshot, the population/seed, the shard index, the full
    scale config (window grid + coupling model), the round's background
    schedules, and whether spans were collected.
    """
    from repro.orchestrator.plan import SweepPoint
    background = [[service, list(schedule)]
                  for service, schedule in task.background]
    return SweepPoint(
        experiment="scale", index=task.spec.index, kind="shard",
        label=f"shard {task.spec.index} round {round_index}",
        settings=task.settings,
        params=(("users", users), ("seed", seed),
                ("shard", task.spec.index), ("round", round_index),
                ("scale", _config_dict(config)),
                ("background", background),
                ("trace", task.trace)))


def _execute_round(tasks: list[ShardTask], round_index: int, users: int,
                   seed: int, config: ScaleConfig, jobs: int,
                   cache: "ResultCache | None", keep_objects: bool
                   ) -> tuple[list[Payload], Deployment | None,
                              Application | None, TraceCollector | None]:
    """Run one round of every shard; returns payloads in shard order.

    With ``keep_objects`` (the final round) shard 0 always executes in
    the driver process — never from the cache — so its deployment and
    store come back live.  Other shards consult the cache first, then
    fan out over a process pool when ``jobs > 1``.
    """
    from repro.orchestrator.cache import canonical_payload
    payloads: list[Payload | None] = [None] * len(tasks)
    pending: list[int] = []
    for i, task in enumerate(tasks):
        if keep_objects and i == 0:
            continue
        if cache is not None:
            hit = cache.get(_point_for(task, round_index, users, seed,
                                       config))
            if hit is not None:
                payloads[i] = hit
                continue
        pending.append(i)
    if jobs > 1 and len(pending) > 1:
        workers = min(jobs, len(pending))
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=workers) as pool:
            futures = {i: pool.submit(run_shard, tasks[i]) for i in pending}
            for i in pending:
                payloads[i] = futures[i].result()
    else:
        for i in pending:
            payloads[i] = run_shard(tasks[i])
    deployment: Deployment | None = None
    store: Application | None = None
    tracer: TraceCollector | None = None
    if keep_objects:
        payloads[0], deployment, store, tracer = _run_shard_objects(tasks[0])
        pending.insert(0, 0)
    if cache is not None:
        # Freshly computed payloads take one canonical round trip so a
        # cache-hit replay is byte-identical to the original run, then
        # land in the cache (shard 0's final round stays uncached: it
        # must re-execute anyway to materialize the live objects).
        for i in pending:
            payloads[i] = canonical_payload(
                t.cast(Payload, payloads[i]))
            if not (keep_objects and i == 0):
                cache.put(_point_for(tasks[i], round_index, users, seed,
                                     config), payloads[i])
    return t.cast("list[Payload]", payloads), deployment, store, tracer


def _merge_results(payloads: t.Sequence[Payload],
                   duration: float) -> RunResult:
    """Fold per-shard payloads into one cluster-level result.

    Counts sum; latency samples pool in shard order (percentiles over
    the union); utilizations average across shards with equal weight —
    every shard is one machine of the modeled cluster, and all shards
    measure the same window, so ``sum(completed) / duration`` is the
    cluster throughput.
    """
    completed = sum(p["completed"] for p in payloads)
    errors = sum(p["errors"] for p in payloads)
    window_duration = payloads[0]["window_duration"]
    latency = LatencyRecorder()
    for payload in payloads:
        latency.extend_from_payload(payload["latency"])
    if latency.count == 0:
        raise ConfigurationError(
            "no requests completed inside the measurement window; "
            "increase duration or check the workload wiring")
    n = len(payloads)
    machine_utilization = sum(p["machine_utilization"]
                              for p in payloads) / n
    service_names: list[str] = []
    for payload in payloads:
        for name in payload["service_utilization"]:
            if name not in service_names:
                service_names.append(name)
    service_utilization = {
        name: sum(p["service_utilization"].get(name, 0.0)
                  for p in payloads) / n
        for name in service_names}
    service_share = {
        name: sum(p["service_share"].get(name, 0.0)
                  for p in payloads) / n
        for name in service_names}
    return RunResult(
        throughput=completed / window_duration,
        latency_mean=latency.mean(),
        latency_p50=latency.p50(),
        latency_p95=latency.p95(),
        latency_p99=latency.p99(),
        completed=completed,
        errors=errors,
        duration=duration,
        machine_utilization=machine_utilization,
        service_utilization=service_utilization,
        service_share=service_share,
        latency_by_endpoint={
            tag: (latency.mean(tag), latency.p99(tag))
            for tag in latency.tags},
    )


@dataclasses.dataclass
class ScaleOutcome:
    """Everything a sharded run produces."""

    #: The merged cluster-level measurement.
    result: RunResult
    #: Shard 0's live deployment (executed in the driver process).
    deployment: Deployment
    #: Shard 0's live store.
    store: Application
    #: The partitioning and sync grid that ran.
    plan: ShardPlan
    #: Demand totals, factor schedules, and registry telemetry.
    sync: SyncReport
    #: Final-round payloads, in shard order.
    shard_payloads: list[Payload]
    #: Merged span table when tracing was requested, else ``None``.
    spans: SpanTable | None = None


def run_sharded(settings: ExperimentSettings,
                users: int | None = None,
                seed: int | None = None, *,
                config: ScaleConfig | None = None,
                jobs: int | None = None,
                cache: "ResultCache | None" = None,
                trace: bool = False) -> ScaleOutcome:
    """Run one default-session measurement as a sharded cluster.

    ``config`` defaults to the settings' ``shards``/``cohort_factor``
    with the standard coupling model (shared services come from the
    active application's spec); ``jobs`` defaults to the
    ``REPRO_SCALE_JOBS`` environment variable (else sequential).  The
    result is deterministic for fixed ``(settings, users, seed,
    config)`` regardless of ``jobs`` and cache state.
    """
    users = settings.users if users is None else users
    seed = settings.seed if seed is None else seed
    if config is None:
        config = ScaleConfig(
            shards=settings.shards, cohort_factor=settings.cohort_factor,
            shared_services=settings.application().shared_services)
    if jobs is None:
        jobs = int(os.environ.get(JOBS_ENV, "1") or "1")
    plan = plan_shards(users, config, settings.warmup, settings.duration)

    def tasks_for(factors: "list[InflationProfile] | None",
                  trace_round: bool) -> list[ShardTask]:
        tasks = []
        for i, spec in enumerate(plan.shards):
            background: tuple[tuple[str, tuple[float, ...]], ...] = ()
            if factors is not None:
                background = tuple(sorted(factors[i].items()))
            tasks.append(ShardTask(
                settings=settings, spec=spec, seed=seed,
                boundaries=plan.boundaries,
                warmup_windows=plan.warmup_windows,
                shared_services=config.shared_services,
                background=background, trace=trace_round))
        return tasks

    factors: "list[InflationProfile] | None" = None
    payloads: list[Payload] = []
    demand_profiles: list[dict[str, list[int]]] = []
    lookup_profiles: list[list[int]] = []
    deployment: Deployment | None = None
    store: Application | None = None
    for round_index in range(config.sync_rounds + 1):
        final = round_index == config.sync_rounds
        tasks = tasks_for(factors, trace and final)
        payloads, deployment, store, __ = _execute_round(
            tasks, round_index, users, seed, config, jobs, cache,
            keep_objects=final)
        demand_profiles = [p["demand"] for p in payloads]
        lookup_profiles = [p["lookups"] for p in payloads]
        if not final:
            factors = inflation_profiles(demand_profiles, config,
                                         plan.n_windows)
    report = SyncReport(
        boundaries=plan.boundaries,
        total_demand=merge_demand(demand_profiles, plan.n_windows),
        registry_lookups=lookup_profiles,
        factors=(factors if factors is not None
                 else [{} for __ in plan.shards]))
    result = _merge_results(payloads, settings.duration)
    spans = (SpanTable.merged([p["spans"] for p in payloads])
             if trace else None)
    return ScaleOutcome(result=result,
                        deployment=t.cast(Deployment, deployment),
                        store=t.cast(Application, store), plan=plan,
                        sync=report, shard_payloads=payloads, spans=spans)
