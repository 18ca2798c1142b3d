"""Unit + property tests for the CPU scheduler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._errors import SchedulingError
from repro.cpu import (
    CpuBurst,
    CpuScheduler,
    FlatFrequencyModel,
    SmtModel,
    TaskGroup,
)
from repro._units import ms
from repro.sim import Simulator
from repro.topology import CpuSet, Machine, MachineSpec, tiny_machine


def make_scheduler(machine=None, smt_yield=1.3, online=None):
    """A scheduler with flat frequency so wall times are hand-checkable."""
    sim = Simulator()
    machine = machine or tiny_machine()
    scheduler = CpuScheduler(
        sim, machine, online=online,
        smt_model=SmtModel(smt_yield),
        frequency_model=FlatFrequencyModel())
    return sim, machine, scheduler


def run_burst(sim, scheduler, group, demand):
    burst = CpuBurst(demand, group, sim.event())
    scheduler.submit(burst)
    return burst


def test_single_burst_runs_at_nominal_speed():
    sim, machine, scheduler = make_scheduler()
    group = TaskGroup("g", machine.all_cpus())
    burst = run_burst(sim, scheduler, group, ms(2.0))
    sim.run()
    assert burst.finished_at == pytest.approx(ms(2.0))
    assert burst.wall_time == pytest.approx(ms(2.0))
    assert burst.queueing_delay == 0.0


def test_done_event_succeeds_with_none():
    sim, machine, scheduler = make_scheduler()
    group = TaskGroup("g", machine.all_cpus())
    burst = run_burst(sim, scheduler, group, ms(1.0))
    sim.run()
    assert burst.done.triggered
    assert burst.done.ok
    # Not the burst: that would tie burst and event in a reference cycle.
    assert burst.done.value is None


def test_zero_demand_completes_immediately():
    sim, machine, scheduler = make_scheduler()
    group = TaskGroup("g", machine.all_cpus())
    burst = run_burst(sim, scheduler, group, 0.0)
    sim.run()
    assert burst.finished_at == 0.0


def test_two_bursts_prefer_distinct_physical_cores():
    sim, machine, scheduler = make_scheduler()
    group = TaskGroup("g", machine.all_cpus())
    a = run_burst(sim, scheduler, group, ms(1.0))
    b = run_burst(sim, scheduler, group, ms(1.0))
    sim.run()
    core_a = machine.cpu(a.cpu_index).core.index
    core_b = machine.cpu(b.cpu_index).core.index
    assert core_a != core_b
    # No SMT sharing → both finish at nominal time.
    assert a.wall_time == pytest.approx(ms(1.0))
    assert b.wall_time == pytest.approx(ms(1.0))


def test_smt_pair_slows_both_threads():
    sim, machine, scheduler = make_scheduler(smt_yield=1.3)
    # Restrict to both threads of physical core 0 (tiny machine: cpus 0, 4).
    pair = machine.cpus_in_core(0)
    group = TaskGroup("g", pair)
    a = run_burst(sim, scheduler, group, ms(1.0))
    b = run_burst(sim, scheduler, group, ms(1.0))
    sim.run()
    # Both co-run the whole time at rate 0.65.
    expected = ms(1.0) / 0.65
    assert a.wall_time == pytest.approx(expected)
    assert b.wall_time == pytest.approx(expected)


def test_smt_re_rating_mid_burst():
    sim, machine, scheduler = make_scheduler(smt_yield=1.3)
    pair = machine.cpus_in_core(0)
    group = TaskGroup("g", pair)
    a = run_burst(sim, scheduler, group, ms(2.0))

    # b arrives 1ms in; a has 1ms of demand left, now at rate 0.65.
    def late_submit():
        run_burst(sim, scheduler, group, ms(10.0))

    sim.call_in(ms(1.0), late_submit)
    sim.run()
    expected_a = ms(1.0) + ms(1.0) / 0.65
    assert a.finished_at == pytest.approx(expected_a)


def test_sibling_speeds_up_when_partner_finishes():
    sim, machine, scheduler = make_scheduler(smt_yield=1.3)
    pair = machine.cpus_in_core(0)
    group = TaskGroup("g", pair)
    short = run_burst(sim, scheduler, group, ms(0.65))  # 1ms at rate 0.65
    long = run_burst(sim, scheduler, group, ms(2.0))
    sim.run()
    # Both co-run until short finishes at t=1ms (0.65ms demand / 0.65).
    assert short.finished_at == pytest.approx(ms(1.0))
    # long executed 0.65ms of demand in that window, then runs alone.
    expected_long = ms(1.0) + (ms(2.0) - ms(0.65)) / 1.0
    assert long.finished_at == pytest.approx(expected_long)


def test_queueing_fifo_on_single_cpu():
    sim, machine, scheduler = make_scheduler()
    group = TaskGroup("g", CpuSet.single(0))
    bursts = [run_burst(sim, scheduler, group, ms(1.0)) for __ in range(3)]
    sim.run()
    finishes = [b.finished_at for b in bursts]
    assert finishes == sorted(finishes)
    assert finishes[-1] == pytest.approx(ms(3.0))
    assert bursts[2].queueing_delay == pytest.approx(ms(2.0))


def test_work_stealing_respects_affinity():
    sim, machine, scheduler = make_scheduler()
    # Pin a long burst to cpu 0, queue two more behind it; cpu 1 may only
    # run group_b work, so it must steal only the group_b burst.
    group_a = TaskGroup("a", CpuSet.single(0))
    group_b = TaskGroup("b", CpuSet([0, 1]))
    blocker = run_burst(sim, scheduler, group_a, ms(5.0))
    queued_a = run_burst(sim, scheduler, group_a, ms(1.0))
    stealable_b = run_burst(sim, scheduler, group_b, ms(1.0))
    sim.run()
    assert blocker.cpu_index == 0
    assert stealable_b.cpu_index == 1  # placed or stolen onto cpu 1
    assert queued_a.cpu_index == 0
    assert queued_a.started_at >= blocker.finished_at


def test_steal_happens_when_cpu_goes_idle():
    sim, machine, scheduler = make_scheduler()
    # Saturate both threads of core 0 with pinned work, then queue extra
    # bursts allowed anywhere; they should be executed by other cpus only
    # if affinity permits. Here affinity is pinned to cpu 0 only, then a
    # wide burst is queued; when cpu 1 finishes its own work it steals it.
    pinned = TaskGroup("pinned", CpuSet.single(0))
    wide = TaskGroup("wide", CpuSet([0, 1]))
    run_burst(sim, scheduler, pinned, ms(4.0))
    run_burst(sim, scheduler, wide, ms(1.0))  # goes to idle cpu 1 directly
    first = run_burst(sim, scheduler, wide, ms(1.0))  # queues (0 and 1 busy)
    sim.run()
    assert scheduler.bursts_stolen >= 0  # stealing path exercised or direct
    assert first.finished_at is not None
    assert first.cpu_index == 1  # cpu 1 frees up first (1ms vs 4ms)


def test_submit_offline_affinity_raises():
    sim, machine, scheduler = make_scheduler(online=CpuSet([0, 1]))
    group = TaskGroup("g", CpuSet.single(5))
    with pytest.raises(SchedulingError):
        run_burst(sim, scheduler, group, ms(1.0))


def test_online_subset_is_respected():
    machine = tiny_machine()
    sim, machine, scheduler = make_scheduler(
        machine=machine, online=CpuSet([0, 1]))
    group = TaskGroup("g", machine.all_cpus())
    bursts = [run_burst(sim, scheduler, group, ms(1.0)) for __ in range(4)]
    sim.run()
    assert all(b.cpu_index in (0, 1) for b in bursts)


def test_online_validation():
    sim = Simulator()
    machine = tiny_machine()
    with pytest.raises(SchedulingError):
        CpuScheduler(sim, machine, online=CpuSet())
    with pytest.raises(SchedulingError):
        CpuScheduler(sim, machine, online=CpuSet([99]))


def test_busy_time_accounting_matches_wall_time():
    sim, machine, scheduler = make_scheduler(smt_yield=2.0)
    group = TaskGroup("g", machine.all_cpus())
    bursts = [run_burst(sim, scheduler, group, ms(1.5)) for __ in range(10)]
    sim.run()
    total_wall = sum(b.wall_time for b in bursts)
    assert scheduler.total_busy_time() == pytest.approx(total_wall)


def test_group_accounting():
    sim, machine, scheduler = make_scheduler()
    group = TaskGroup("g", machine.all_cpus())
    run_burst(sim, scheduler, group, ms(1.0))
    run_burst(sim, scheduler, group, ms(2.0))
    sim.run()
    assert group.bursts_completed == 2
    assert group.cpu_time == pytest.approx(ms(3.0))
    assert group.last_ccx is not None


def test_cache_affine_placement_prefers_last_ccx():
    sim, machine, scheduler = make_scheduler()
    group = TaskGroup("g", machine.all_cpus())
    first = run_burst(sim, scheduler, group, ms(1.0))
    sim.run()
    first_ccx = machine.cpu(first.cpu_index).ccx.index
    assert group.last_ccx == first_ccx
    # An idle machine: next burst should return to the same CCX even
    # though all cpus are idle.
    second = run_burst(sim, scheduler, group, ms(1.0))
    sim.run()
    assert machine.cpu(second.cpu_index).ccx.index == first_ccx


def test_boost_speeds_up_lone_burst():
    sim = Simulator()
    machine = tiny_machine()
    scheduler = CpuScheduler(sim, machine, smt_model=SmtModel(1.3))
    group = TaskGroup("g", machine.all_cpus())
    burst = CpuBurst(ms(1.0), group, sim.event())
    scheduler.submit(burst)
    sim.run()
    boost = machine.spec.max_boost_ghz / machine.spec.base_freq_ghz
    assert burst.wall_time == pytest.approx(ms(1.0) / boost)


def test_queue_depth_and_repr():
    sim, machine, scheduler = make_scheduler()
    group = TaskGroup("g", CpuSet.single(0))
    for __ in range(3):
        run_burst(sim, scheduler, group, ms(1.0))
    assert scheduler.queue_depth() == 2
    assert "running" in repr(scheduler)
    sim.run()
    assert scheduler.queue_depth() == 0


@settings(max_examples=30, deadline=None)
@given(demands=st.lists(st.floats(min_value=0.0001, max_value=0.01),
                        min_size=1, max_size=30),
       seed_cpu_count=st.sampled_from([1, 2, 4]))
def test_property_all_bursts_complete_and_work_is_conserved(
        demands, seed_cpu_count):
    sim = Simulator()
    machine = Machine(MachineSpec(
        name="prop", ccds_per_socket=1, ccxs_per_ccd=1,
        cores_per_ccx=seed_cpu_count, threads_per_core=1))
    scheduler = CpuScheduler(sim, machine,
                             smt_model=SmtModel(2.0),
                             frequency_model=FlatFrequencyModel())
    group = TaskGroup("g", machine.all_cpus())
    bursts = []
    for demand in demands:
        burst = CpuBurst(demand, group, sim.event())
        scheduler.submit(burst)
        bursts.append(burst)
    sim.run()
    assert all(b.finished_at is not None for b in bursts)
    # With rate exactly 1.0 everywhere, busy time equals total demand.
    assert scheduler.total_busy_time() == pytest.approx(sum(demands))
    assert scheduler.queue_depth() == 0


@settings(max_examples=20, deadline=None)
@given(demands=st.lists(st.floats(min_value=0.0001, max_value=0.005),
                        min_size=2, max_size=20))
def test_property_smt_never_loses_work(demands):
    sim = Simulator()
    machine = tiny_machine()
    scheduler = CpuScheduler(sim, machine,
                             smt_model=SmtModel(1.3),
                             frequency_model=FlatFrequencyModel())
    group = TaskGroup("g", machine.all_cpus())
    bursts = []
    for demand in demands:
        burst = CpuBurst(demand, group, sim.event())
        scheduler.submit(burst)
        bursts.append(burst)
    sim.run()
    assert all(b.finished_at is not None for b in bursts)
    for burst in bursts:
        # Slowdowns can only stretch wall time, never shrink below demand.
        assert burst.wall_time >= burst.demand * 0.999
