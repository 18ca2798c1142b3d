"""Targeted tests for paths not covered elsewhere."""

import pytest

from repro._errors import AnalysisError, SimulationError
from repro._units import ms
from repro.cpu import CpuBurst, CpuScheduler, FlatFrequencyModel, SmtModel, TaskGroup
from repro.metrics.hwcounters import CounterBank, CounterTotals
from repro.sim import AllOf, AnyOf, Interrupt, Resource, Simulator
from repro.topology import CpuSet, dual_socket_rome, machine_from_preset


# ---------------------------------------------------------------------------
# Topology: the big machines
# ---------------------------------------------------------------------------

def test_dual_socket_numbering_first_threads_cover_both_sockets():
    machine = dual_socket_rome()
    first = machine.first_threads()
    assert len(first) == 128  # 2 × 64 physical cores
    sockets = {machine.cpu(i).socket.index for i in first}
    assert sockets == {0, 1}
    # Siblings occupy ids 128..255.
    assert machine.sibling(0).index == 128
    assert machine.sibling(64).index == 192


def test_nps4_nodes_have_equal_cpu_counts():
    machine = machine_from_preset("rome-1s-nps4")
    sizes = [len(machine.cpus_in_node(n)) for n in range(4)]
    assert sizes == [32, 32, 32, 32]


def test_medium_machine_shape():
    machine = machine_from_preset("medium")
    assert machine.n_logical_cpus == 64
    assert len(machine.ccxs) == 8


# ---------------------------------------------------------------------------
# Simulation kernel corners
# ---------------------------------------------------------------------------

def test_condition_of_conditions():
    sim = Simulator()
    a = sim.timeout(1.0, value="a")
    b = sim.timeout(2.0, value="b")
    c = sim.timeout(9.0, value="c")
    outer = AllOf(sim, [AnyOf(sim, [a, c]), b])
    done_at = []

    def proc():
        yield outer
        done_at.append(sim.now)

    sim.process(proc())
    sim.run(until=3.0)
    assert done_at == [2.0]


def test_interrupt_while_waiting_on_resource():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    resource.acquire()  # hold it forever
    interrupted = []

    def waiter():
        try:
            yield resource.acquire()
        except Interrupt:
            interrupted.append(sim.now)

    process = sim.process(waiter())
    sim.call_in(1.0, lambda: process.interrupt())
    sim.run()
    assert interrupted == [1.0]


def test_process_cannot_interrupt_itself():
    sim = Simulator()

    def selfish():
        yield sim.timeout(1.0)

    process = sim.process(selfish())
    sim.run(until=0.5)
    # Force the illegal state the guard protects against.
    process._waiting_on = process
    with pytest.raises(SimulationError):
        process.interrupt()
    process._waiting_on = None
    sim.run()


# ---------------------------------------------------------------------------
# Counters
# ---------------------------------------------------------------------------

def test_counter_totals_guards():
    totals = CounterTotals()
    with pytest.raises(AnalysisError):
        __ = totals.ipc
    with pytest.raises(AnalysisError):
        __ = totals.l1i_mpki
    with pytest.raises(AnalysisError):
        __ = totals.frontend_bound_fraction
    with pytest.raises(AnalysisError):
        __ = totals.memory_bound_fraction


def test_counter_bank_unknown_name():
    with pytest.raises(AnalysisError):
        CounterBank().totals("ghost")


def test_counter_bank_ignores_profileless_groups():
    from repro.memory import MemorySystemModel
    from repro.topology import tiny_machine
    machine = tiny_machine()
    bank = CounterBank()
    model = MemorySystemModel(machine, counter_sink=bank)
    group = TaskGroup("bare", machine.all_cpus())  # no profile

    class FakeBurst:
        def __init__(self):
            self.group = group
            self.demand = ms(1.0)

    model.on_burst_complete(FakeBurst(), machine.cpu(0), ms(1.0))
    assert bank.names == []


# ---------------------------------------------------------------------------
# Scheduler: stealing actually happens
# ---------------------------------------------------------------------------

def test_steal_counter_increments():
    from repro.topology import tiny_machine
    sim = Simulator()
    machine = tiny_machine()
    scheduler = CpuScheduler(sim, machine, smt_model=SmtModel(2.0),
                             frequency_model=FlatFrequencyModel())
    # Saturate cpu 0 with a pinned long burst, then queue wide bursts on
    # it; when other cpus finish their own short work they must steal.
    pinned = TaskGroup("pinned", CpuSet.single(0))
    wide = TaskGroup("wide", CpuSet([0, 1]))
    scheduler.submit(CpuBurst(ms(10.0), pinned, sim.event()))
    # Fill cpu 1 briefly so the wide burst must initially queue on cpu 0.
    blocker = TaskGroup("blocker", CpuSet.single(1))
    scheduler.submit(CpuBurst(ms(1.0), blocker, sim.event()))
    scheduler.submit(CpuBurst(ms(1.0), wide, sim.event()))
    sim.run()
    assert scheduler.bursts_stolen >= 1


# ---------------------------------------------------------------------------
# Latency-by-endpoint reporting
# ---------------------------------------------------------------------------

def test_run_result_latency_by_endpoint():
    from repro.apps import deploy_application
    from repro.services import Deployment
    from repro.topology import small_numa_machine
    from repro.workload import ClosedLoopWorkload, run_experiment

    from ._apps import teastore_spec

    deployment = Deployment(small_numa_machine(), seed=1)
    store = deploy_application(deployment, teastore_spec())
    workload = ClosedLoopWorkload(
        deployment, store.session_factory(),
        n_users=24, think_time=0.03)
    result = run_experiment(deployment, workload, warmup=0.8, duration=2.0)
    assert "category" in result.latency_by_endpoint
    for mean, p99 in result.latency_by_endpoint.values():
        assert 0 < mean <= p99
    # Category pages (fan-out + previews) cost more than logout.
    assert (result.latency_by_endpoint["category"][0]
            > result.latency_by_endpoint["logout"][0])