"""E9 — Microarchitectural characterization vs SPEC-class workloads.

Runs the application's services (TeaStore by default) under load and
the SPEC-class batch kernels through the same synthetic-counter
pipeline, producing the paper's contrast table: microservices show low
IPC, heavy L1i pressure, and a large front-end-bound fraction — nothing
like the loop kernels general-purpose server CPUs are tuned against.
"""

from __future__ import annotations

import typing as t

from repro.experiments.common import (
    ExperimentResult,
    ExperimentSettings,
    Row,
    run_store,
)
from repro.metrics.hwcounters import CounterBank
from repro.orchestrator import plan
from repro.spec.kernels import KERNEL_NAMES, run_batch_kernels

TITLE = "Microarchitectural characterization: TeaStore vs SPEC-class"


def run(settings: ExperimentSettings | None = None,
        kernel_bursts: int = 150) -> ExperimentResult:
    """One row per workload (the application's services + three
    kernels)."""
    settings = settings or ExperimentSettings()
    points = sweep_points(settings, kernel_bursts)
    return assemble_sweep(settings,
                          [run_sweep_point(point) for point in points])


def sweep_points(settings: ExperimentSettings,
                 kernel_bursts: int = 150) -> list[plan.SweepPoint]:
    """Two points: the traced store run and the batch-kernel bursts.

    The counter bank keys totals by workload name, so the two halves
    are independent and can run in separate processes.
    """
    return [
        plan.SweepPoint("e9", 0, "services", f"{settings.app}-services",
                        settings),
        plan.SweepPoint("e9", 1, "kernels", "spec-kernels", settings,
                        params=(("kernel_bursts", int(kernel_bursts)),)),
    ]


def _counter_row(bank: CounterBank, name: str, klass: str) -> Row:
    totals = bank.totals(name)
    return {
        "workload": name,
        "class": klass,
        "ipc": totals.ipc,
        "l1i_mpki": totals.l1i_mpki,
        "l2_mpki": totals.l2_mpki,
        "l3_mpki": totals.l3_mpki,
        "branch_mpki": totals.branch_mpki,
        "frontend_bound": totals.frontend_bound_fraction,
        "memory_bound": totals.memory_bound_fraction,
    }


def run_sweep_point(point: plan.SweepPoint) -> plan.Payload:
    """Run one half of the contrast table through the counter model."""
    settings = point.settings
    machine = settings.machine()
    bank = CounterBank()
    if point.kind == "services":
        run_store(settings, machine=machine, counter_sink=bank)
        rows = [_counter_row(bank, name, "microservice")
                for name in settings.application().service_names()]
    else:
        run_batch_kernels(machine, bank,
                          bursts_per_kernel=point.param("kernel_bursts"),
                          seed=settings.seed)
        rows = [_counter_row(bank, name, "spec-class")
                for name in KERNEL_NAMES]
    return {"rows": rows}


def assemble_sweep(settings: ExperimentSettings,
                   payloads: t.Sequence[plan.Payload]) -> ExperimentResult:
    """Concatenate both halves and compute the contrast notes."""
    rows: list[Row] = [dict(row) for payload in payloads
                       for row in payload["rows"]]
    services = [r for r in rows if r["class"] == "microservice"]
    kernels = [r for r in rows if r["class"] == "spec-class"]

    def avg(rows_subset: list[Row], key: str) -> float:
        return sum(t.cast(float, r[key]) for r in rows_subset) / len(rows_subset)

    notes = [
        f"mean IPC: microservices {avg(services, 'ipc'):.2f} vs "
        f"SPEC-class {avg(kernels, 'ipc'):.2f}",
        f"mean L1i MPKI: microservices {avg(services, 'l1i_mpki'):.1f} vs "
        f"SPEC-class {avg(kernels, 'l1i_mpki'):.1f}",
        "microservices are front-end hungry; SPEC-class kernels live "
        "in L1i",
    ]
    return ExperimentResult("E9", TITLE, rows, notes=notes)


plan.register_sweep("e9", TITLE, points=sweep_points,
                    run_point=run_sweep_point, assemble=assemble_sweep)
