"""E7 — Placement-policy comparison.

Runs identical replica counts under every placement policy.  Pinning at
NUMA-node granularity helps little on a single-node socket; confining each
replica to its own L3 domain (CCX-aware) is where the paper's gains come
from.
"""

from __future__ import annotations

import typing as t

from repro.experiments.common import (
    ExperimentResult,
    ExperimentSettings,
    Row,
    default_counts,
    run_store,
)
from repro.orchestrator import plan
from repro.placement.policies import ccx_aware, node_spread, unpinned
from repro.placement.scaling import weights_from_utilization

TITLE = "Placement policies at fixed replica counts"

#: Policies in table order; the first is the comparison baseline.
POLICY_ORDER = ("unpinned", "node_spread", "ccx_aware")


def run(settings: ExperimentSettings | None = None) -> ExperimentResult:
    """One row per policy; uplift is relative to the unpinned baseline."""
    settings = settings or ExperimentSettings()
    return assemble_sweep(settings, [run_sweep_point(point)
                                     for point in sweep_points(settings)])


def sweep_points(settings: ExperimentSettings) -> list[plan.SweepPoint]:
    """Two independent points: {unpinned, ccx_aware} and {node_spread}.

    ``ccx_aware`` budgets with the CPU weights profiled on the unpinned
    baseline, so the two share a point: the baseline is measured once,
    sequentially or swept.
    """
    return [plan.SweepPoint("e7", index, "policy", "+".join(policies),
                            settings, params=(("policies", policies),))
            for index, policies in enumerate(
                (("unpinned", "ccx_aware"), ("node_spread",)))]


def run_sweep_point(point: plan.SweepPoint) -> plan.Payload:
    """Measure the point's policies in order; one row each."""
    settings = point.settings
    machine = settings.machine()
    counts = default_counts(settings)
    rows = []
    weights: t.Mapping[str, float] = {}  # profiled by the unpinned run
    for policy in point.param("policies"):
        if policy == "unpinned":
            allocation = unpinned(machine, counts)
        elif policy == "node_spread":
            allocation = node_spread(machine, counts)
        elif policy == "ccx_aware":
            allocation = ccx_aware(machine, counts, weights)
        else:
            raise ValueError(f"unknown placement policy {policy!r}")
        result, __, __ = run_store(settings, machine=machine,
                                   allocation=allocation)
        if policy == "unpinned":
            weights = weights_from_utilization(result.service_utilization)
        rows.append({
            "policy": policy,
            "throughput_rps": result.throughput,
            "latency_mean_ms": result.latency_mean * 1e3,
            "latency_p99_ms": result.latency_p99 * 1e3,
            "machine_util": result.machine_utilization,
        })
    return {"rows": rows}


def assemble_sweep(settings: ExperimentSettings,
                   payloads: t.Sequence[plan.Payload]) -> ExperimentResult:
    """Rows in :data:`POLICY_ORDER`, uplifts against unpinned."""
    by_policy = {row["policy"]: row
                 for payload in payloads for row in payload["rows"]}
    baseline_rps = t.cast(float, by_policy["unpinned"]["throughput_rps"])
    rows: list[Row] = []
    for policy in POLICY_ORDER:
        row = dict(by_policy[policy])
        row["uplift_pct"] = 100.0 * (t.cast(float, row["throughput_rps"])
                                     / baseline_rps - 1.0)
        rows.append(row)
    best = max(rows, key=lambda r: t.cast(float, r["throughput_rps"]))
    return ExperimentResult(
        "E7", TITLE, rows,
        notes=[f"best policy: {best['policy']} "
               f"(+{t.cast(float, best['uplift_pct']):.1f}% vs unpinned)"])


plan.register_sweep("e7", TITLE, points=sweep_points,
                    run_point=run_sweep_point, assemble=assemble_sweep)
