"""E8 — The headline result.

The paper: exploiting per-service scaling properties and processor
topology yields **+22% throughput and −18% latency** over a
performance-tuned baseline.  The reproduction applies the same recipe:

1. run the tuned baseline (good replica counts, generous thread pools,
   no pinning) and profile per-service CPU consumption;
2. derive CCX budgets from the measured weights;
3. deploy the scaling-aware, CCX-pinned configuration
   (:func:`~repro.placement.policies.ccx_aware_auto`: one replica per L3
   domain, database kept singular) and measure again.

The second measurement depends on the first, so the whole recipe is one
sweep point.
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.experiments.common import (
    ExperimentResult,
    ExperimentSettings,
    default_counts,
    run_store,
)
from repro.orchestrator import plan
from repro.placement.allocation import Allocation
from repro.placement.policies import ccx_aware_auto, unpinned
from repro.placement.scaling import weights_from_utilization
from repro.workload.runner import RunResult

TITLE = "Optimized (topology + scaling aware) vs performance-tuned baseline"


@dataclasses.dataclass(frozen=True)
class HeadlineOutcome:
    """The numbers EXPERIMENTS.md compares against the paper."""

    baseline: RunResult
    optimized: RunResult
    allocation: Allocation

    @property
    def throughput_uplift(self) -> float:
        """Fractional throughput gain (paper: 0.22)."""
        return self.optimized.throughput / self.baseline.throughput - 1.0

    @property
    def mean_latency_reduction(self) -> float:
        """Fractional mean-latency reduction (paper: 0.18)."""
        return 1.0 - self.optimized.latency_mean / self.baseline.latency_mean

    @property
    def p99_latency_reduction(self) -> float:
        """Fractional p99 reduction."""
        return 1.0 - self.optimized.latency_p99 / self.baseline.latency_p99


def measure(settings: ExperimentSettings | None = None) -> HeadlineOutcome:
    """Run the full recipe and return both measurements."""
    settings = settings or ExperimentSettings()
    machine = settings.machine()
    counts = default_counts(settings)

    baseline_result, __, __ = run_store(
        settings, machine=machine,
        allocation=unpinned(machine, counts))
    weights = weights_from_utilization(baseline_result.service_utilization)
    allocation = ccx_aware_auto(machine, weights, fixed_counts={"db": 1})
    optimized_result, __, __ = run_store(settings, machine=machine,
                                         allocation=allocation)
    return HeadlineOutcome(baseline_result, optimized_result, allocation)


def run(settings: ExperimentSettings | None = None) -> ExperimentResult:
    """Two rows (baseline, optimized) plus the uplift note."""
    settings = settings or ExperimentSettings()
    return assemble_sweep(settings, [run_sweep_point(point)
                                     for point in sweep_points(settings)])


def sweep_points(settings: ExperimentSettings) -> list[plan.SweepPoint]:
    """One point: the tuned baseline, then the optimized deployment
    budgeted with the baseline's measured CPU weights."""
    return [plan.SweepPoint("e8", 0, "headline", "baseline+optimized",
                            settings)]


def _measurement(config: str, result: RunResult) -> plan.Payload:
    return {
        "row": {
            "config": config,
            "throughput_rps": result.throughput,
            "latency_mean_ms": result.latency_mean * 1e3,
            "latency_p99_ms": result.latency_p99 * 1e3,
            "machine_util": result.machine_utilization,
        },
        "throughput": result.throughput,
        "latency_mean": result.latency_mean,
        "latency_p99": result.latency_p99,
    }


def run_sweep_point(point: plan.SweepPoint) -> plan.Payload:
    """Measure both sides of the headline comparison."""
    outcome = measure(point.settings)
    return {"baseline": _measurement("tuned baseline", outcome.baseline),
            "optimized": _measurement("optimized", outcome.optimized),
            "replica_counts": outcome.allocation.replica_counts()}


def assemble_sweep(settings: ExperimentSettings,
                   payloads: t.Sequence[plan.Payload]) -> ExperimentResult:
    """The two-row table and the uplift notes."""
    [payload] = payloads
    baseline, optimized = payload["baseline"], payload["optimized"]
    rows = [dict(baseline["row"]), dict(optimized["row"])]
    uplift = (t.cast(float, optimized["throughput"])
              / t.cast(float, baseline["throughput"]) - 1.0)
    mean_reduction = 1.0 - (t.cast(float, optimized["latency_mean"])
                            / t.cast(float, baseline["latency_mean"]))
    p99_reduction = 1.0 - (t.cast(float, optimized["latency_p99"])
                           / t.cast(float, baseline["latency_p99"]))
    notes = [
        f"throughput uplift: {100 * uplift:+.1f}% "
        f"(paper: +22%)",
        f"mean latency change: "
        f"{-100 * mean_reduction:+.1f}% (paper: -18%)",
        f"p99 latency change: "
        f"{-100 * p99_reduction:+.1f}%",
        f"optimized replica counts: "
        f"{payload['replica_counts']}",
    ]
    return ExperimentResult("E8", TITLE, rows, notes=notes)


plan.register_sweep("e8", TITLE, points=sweep_points,
                    run_point=run_sweep_point, assemble=assemble_sweep)
