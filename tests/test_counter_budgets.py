"""Deterministic work budgets for the points the benchmark does not run.

simbench (``benchmarks/simbench/``) times four workloads.  The points
below cover what it skips: Boutique, the small E2 load point of every
bundled application, E8's CCX-pinned placement and an E13 fault cell.
Instead of timing them, each pins three counters of the work the
simulator does, read from the same attributes as simbench's
``deployment_counts``:

* ``sim.events`` — the kernel's insertion counter;
* ``cpu.bursts`` — bursts the CPU scheduler dispatched;
* ``services.rpc_messages`` — messages the RPC fabric sent.

Counters cannot flake: every backend must reproduce the python
reference exactly, and none may exceed its budget.  A change that
lowers a count lowers its budget here too.
"""

import dataclasses
import functools
import typing as t

import pytest

from repro.chaos.campaign import execute_cell
from repro.experiments import e13_fault_tolerance
from repro.experiments.common import default_counts, run_store
from repro.placement.policies import ccx_aware_auto, unpinned
from repro.placement.scaling import weights_from_utilization
from repro.services.deployment import Deployment
from repro.sim import kernel

from tests._kernels import backend_params
from tests.golden import cases

COUNTERS = ("sim.events", "cpu.bursts", "services.rpc_messages")


def _e2(app: str) -> Deployment:
    """E2's ``users=50`` point with ``app`` under test."""
    settings = dataclasses.replace(cases.settings_for("e2", 1), app=app)
    __, deployment, __ = run_store(settings, users=50)
    return deployment


def _e8(optimized: bool) -> Deployment:
    """One side of E8, as ``e8_headline.measure`` builds it."""
    settings = cases.settings_for("e8", 1)
    machine = settings.machine()
    baseline, deployment, __ = run_store(
        settings, machine=machine,
        allocation=unpinned(machine, default_counts(settings)))
    if not optimized:
        return deployment
    weights = weights_from_utilization(baseline.service_utilization)
    allocation = ccx_aware_auto(machine, weights, fixed_counts={"db": 1})
    __, deployment, __ = run_store(settings, machine=machine,
                                   allocation=allocation)
    return deployment


def _e13_slow_full() -> Deployment:
    settings = cases.settings_for("e13", 1)
    outcome = execute_cell(
        settings, e13_fault_tolerance.fault_schedule("slow", settings),
        e13_fault_tolerance.resilience_config("full"))
    return outcome.deployment


#: Point → (how to run it, budget per counter in :data:`COUNTERS` order).
POINTS: dict[str, tuple[t.Callable[[], Deployment], tuple[int, int, int]]] = {
    "e2-teastore": (functools.partial(_e2, "teastore"), (4314, 617, 886)),
    "e2-boutique": (functools.partial(_e2, "boutique"), (6253, 893, 1382)),
    "e2-socialnet": (functools.partial(_e2, "socialnet"),
                     (5719, 824, 1209)),
    "e8-baseline": (functools.partial(_e8, False), (6668, 1168, 1661)),
    "e8-optimized": (functools.partial(_e8, True), (7029, 1218, 1735)),
    "e13-slow-full": (_e13_slow_full, (2864, 293, 419)),
}


@functools.cache
def _counts(point: str, backend: str) -> tuple[int, int, int]:
    run, __ = POINTS[point]
    with kernel.use_backend(backend):
        deployment = run()
    return (deployment.sim._kernel.counter,
            deployment.scheduler.bursts_dispatched,
            deployment.rpc.messages_sent)


@pytest.mark.parametrize("backend", backend_params())
@pytest.mark.parametrize("point", sorted(POINTS))
def test_counters_within_budget(point, backend):
    counts = _counts(point, backend)
    assert counts == _counts(point, "python"), \
        f"{backend} backend diverges from the python reference"
    __, budgets = POINTS[point]
    over = {name: f"{count} > {budget}" for name, count, budget
            in zip(COUNTERS, counts, budgets) if count > budget}
    assert not over, f"{point} over budget: {over}"
