"""Differential tests: the resilient call machine against its reference.

:class:`repro.services.deployment._ResilientCall` replaced a generator
driven as a ``Process`` (kept in ``tests/_resilience_reference.py``).
The machine pushes the same kernel entries at the same points, minus
the finished process's own no-op trigger, so every surviving entry
keeps its (time, counter) order.  Run both ways, a system must give:

* the same client outcomes at the same simulated times, the same
  ``ResilienceStats``, breaker states and per-replica tallies, and the
  same final clock;
* a kernel counter lower by exactly one per resolved call.

The random systems reuse the harness of
``tests/test_resilience_properties.py``: its configs (deadline or none,
retries, zero backoff, breakers, degradation), its kill / slow / pause
faults and its echo service, with the fabric's hop latency either zero
(as that harness sets it) or the default 25 µs.
"""

import contextlib
import dataclasses
import itertools
import typing as t

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._units import us
from repro.chaos.campaign import execute_cell
from repro.experiments import e13_fault_tolerance
from repro.orchestrator.cache import canonical_json
from repro.services import instance as instance_module
from repro.services import request as request_module
from repro.services.resilience import ResilienceConfig
from repro.sim import kernel
from repro.workload import FaultInjector

from tests._kernels import backend_params
from tests._resilience_reference import reference_calls
from tests.golden import cases
from tests.test_resilience_properties import (
    STOP_AT,
    apply_faults,
    build_system,
    configs,
    fault_entries,
)

BACKENDS = backend_params()

#: Past every client's last call, deadline, backoff and fault window.
HORIZON = 5.0

IMPLEMENTATIONS = {"reference": reference_calls,
                   "machine": contextlib.nullcontext}


@contextlib.contextmanager
def fresh_ids() -> t.Iterator[None]:
    """Number replicas and requests from zero, as in a fresh process,
    so error messages that name them compare across the two runs."""
    saved = instance_module._instance_ids, request_module._request_ids
    instance_module._instance_ids = itertools.count()
    request_module._request_ids = itertools.count()
    try:
        yield
    finally:
        instance_module._instance_ids, request_module._request_ids = saved


def drive(deployment, n_clients: int, trace: list) -> None:
    """``n_clients`` protected callers; ``trace`` gets one
    ``(time, client, outcome)`` row per resolved call."""
    def client(index: int):
        sim = deployment.sim
        while sim.now < STOP_AT:
            done = deployment.dispatch("svc", "op")
            try:
                value = yield done
            except Exception as exc:
                outcome: object = (type(exc).__name__, str(exc))
            else:
                outcome = value
            trace.append((sim.now, index, outcome))
            yield sim.timeout(0.004)

    for index in range(n_clients):
        deployment.sim.process(client(index))


@dataclasses.dataclass
class Run:
    trace: list
    stats: dict
    breakers: list
    replicas: list
    clock: float
    events: int
    resolved: int


def run_system(implementation: str, backend: str, seed: int, replicas: int,
               config: ResilienceConfig, fallback: bool, entries: list,
               kill: bool, hop_latency: float) -> Run:
    with kernel.use_backend(backend), fresh_ids(), \
            IMPLEMENTATIONS[implementation]():
        deployment = build_system(seed, replicas, config, fallback)
        deployment.rpc.hop_latency = hop_latency
        built = list(deployment.instances)
        apply_faults(deployment, FaultInjector(deployment), replicas,
                     entries, kill)
        trace: list = []
        drive(deployment, 4, trace)
        deployment.run(until=HORIZON)
    # Killed replicas leave deployment.instances; restored ones join it.
    every = built + [i for i in deployment.instances if i not in built]
    stats = deployment.resilience_stats
    return Run(
        trace=trace,
        stats=stats.to_dict(),
        breakers=[vars(breaker) for breaker in deployment.breakers],
        replicas=[(i.completed, i.rejected, i.failed, i.expired)
                  for i in every],
        clock=deployment.sim.now,
        events=deployment.sim._kernel.counter,
        resolved=stats.resolved())


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16),
       replicas=st.integers(min_value=1, max_value=3),
       config=configs,
       fallback=st.booleans(),
       entries=fault_entries,
       kill=st.booleans(),
       hop_latency=st.sampled_from([0.0, us(25.0)]))
def test_property_machine_matches_reference(backend, seed, replicas, config,
                                            fallback, entries, kill,
                                            hop_latency):
    args = (backend, seed, replicas, config, fallback, entries, kill,
            hop_latency)
    reference = run_system("reference", *args)
    machine = run_system("machine", *args)
    assert machine.trace == reference.trace
    assert machine.stats == reference.stats
    assert machine.breakers == reference.breakers
    assert machine.replicas == reference.replicas
    assert machine.clock == reference.clock
    # The finished process's trigger is the one entry the machine drops.
    assert reference.events - machine.events == machine.resolved


@pytest.mark.parametrize("backend", BACKENDS)
def test_e13_slow_full_cell_matches_reference(backend):
    settings = cases.settings_for("e13", 1)
    schedule = e13_fault_tolerance.fault_schedule("slow", settings)
    config = e13_fault_tolerance.resilience_config("full")
    outcomes = {}
    for implementation, context in IMPLEMENTATIONS.items():
        with kernel.use_backend(backend), context():
            outcomes[implementation] = execute_cell(settings, schedule,
                                                    config)
    reference, machine = outcomes["reference"], outcomes["machine"]
    assert (canonical_json(dataclasses.asdict(machine.result))
            == canonical_json(dataclasses.asdict(reference.result)))
    stats = machine.deployment.resilience_stats
    assert stats.to_dict() == reference.deployment.resilience_stats.to_dict()
    assert stats.resolved() > 0
    assert (reference.deployment.sim._kernel.counter
            - machine.deployment.sim._kernel.counter) == stats.resolved()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("implementation", sorted(IMPLEMENTATIONS))
def test_response_triggered_at_the_deadline_still_wins(backend,
                                                      implementation):
    # The handler finishes on a timeout scheduled before the call, due
    # exactly at the call's deadline.  It fires first (lower counter),
    # so the response is triggered, though not yet processed, when the
    # deadline entry fires: the AnyOf counted it as a winner.
    config = ResilienceConfig(timeout=0.01)
    outcomes = []
    with kernel.use_backend(backend), IMPLEMENTATIONS[implementation]():
        deployment = build_system(1, 1, config, fallback=False)
        sim = deployment.sim
        gate = sim.timeout(0.01)

        def on_gate(ctx):
            yield gate
            return "on time"

        deployment.specs["svc"].add_endpoint("gated", on_gate)

        def client():
            try:
                outcomes.append((yield deployment.dispatch("svc", "gated")))
            except Exception as exc:
                outcomes.append(type(exc).__name__)

        sim.process(client())
        deployment.run()
    assert outcomes == ["on time"]
    assert deployment.resilience_stats.timeouts == 0


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("implementation", sorted(IMPLEMENTATIONS))
def test_unexpected_exception_escalates_from_run(backend, implementation):
    # A caller that resolves the call's event itself makes the call's
    # own resolution raise; the error must surface from Simulator.run,
    # at the same simulated time under both implementations.
    config = ResilienceConfig(timeout=0.05)
    with kernel.use_backend(backend), IMPLEMENTATIONS[implementation]():
        deployment = build_system(1, 1, config, fallback=False)
        outer = deployment.dispatch("svc", "op")
        outer.succeed("early")
        with pytest.raises(Exception, match="already been triggered"):
            deployment.run()
    assert deployment.sim.now == pytest.approx(0.001, abs=1e-4)
    assert deployment.resilience_stats.successes == 1
