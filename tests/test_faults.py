"""Tests for fault injection and crash semantics."""

import pytest

from repro._errors import ConfigurationError, ServiceUnavailableError
from repro._units import ms
from repro.cpu import FlatFrequencyModel, SmtModel
from repro.memory import WorkloadProfile
from repro.services import Deployment, ServiceSpec
from repro.topology import small_numa_machine, tiny_machine
from repro.workload import ClosedLoopWorkload, FaultInjector, run_experiment
from repro.apps import deploy_application

from ._apps import teastore_spec


def echo_system(replicas=2, demand=ms(1.0)):
    deployment = Deployment(tiny_machine(), seed=0,
                            smt_model=SmtModel(2.0),
                            frequency_model=FlatFrequencyModel())
    deployment.rpc.hop_latency = 0.0
    profile = WorkloadProfile("svc", 1024, 1024, 0.1, 0.1)
    spec = ServiceSpec("svc", profile, workers=2)

    @spec.endpoint("op")
    def op(ctx):
        yield ctx.submit_demand(demand)
        return "ok"

    for __ in range(replicas):
        deployment.add_instance(spec)
    return deployment


def session(user_id):
    while True:
        yield ("svc", "op", None)


def test_shutdown_fails_queued_requests_but_finishes_inflight():
    deployment = echo_system(replicas=1, demand=ms(10.0))
    deployment.run(until=0.0)  # boot workers
    inflight = [deployment.dispatch("svc", "op") for __ in range(2)]
    queued = deployment.dispatch("svc", "op")
    queued.defuse()
    instance = deployment.registry.instances_of("svc")[0]
    instance.shutdown()
    for event in inflight:
        event.defuse()
    deployment.run()
    # The two in worker hands completed; the queued one failed.
    assert all(e.ok for e in inflight)
    assert not queued.ok
    assert isinstance(queued.value, ServiceUnavailableError)


def test_shutdown_rejects_new_requests():
    deployment = echo_system(replicas=1)
    instance = deployment.registry.instances_of("svc")[0]
    instance.shutdown()
    done = deployment.dispatch("svc", "op")
    done.defuse()
    deployment.run()
    assert not done.ok
    assert isinstance(done.value, ServiceUnavailableError)
    assert instance.rejected >= 1


def test_kill_reroutes_to_survivor():
    deployment = echo_system(replicas=2)
    injector = FaultInjector(deployment)
    injector.kill_at(0.5, "svc", replica_index=0)
    workload = ClosedLoopWorkload(deployment, session,
                                  n_users=2, think_time=0.01)
    workload.start()
    deployment.run(until=2.0)
    assert len(injector.kills()) == 1
    survivors = deployment.registry.instances_of("svc")
    assert len(survivors) == 1
    # Work continued after the kill (errors possible at the instant of
    # the kill, but the system keeps serving).
    completed_after = survivors[0].completed
    assert completed_after > 50


def test_kill_and_restore_cycle():
    deployment = echo_system(replicas=2)
    injector = FaultInjector(deployment)
    injector.kill_at(0.5, "svc", replica_index=0, restore_after=0.5)
    workload = ClosedLoopWorkload(deployment, session,
                                  n_users=4, think_time=0.01)
    workload.start()
    deployment.run(until=2.0)
    assert len(injector.kills()) == 1
    assert len(injector.restores()) == 1
    assert len(deployment.registry.instances_of("svc")) == 2
    restored = injector.restores()[0]
    assert restored.time == pytest.approx(1.0)


def test_restored_replica_matches_dead_one():
    deployment = echo_system(replicas=1)
    original = deployment.registry.instances_of("svc")[0]
    original_affinity = original.affinity
    injector = FaultInjector(deployment)
    injector.kill_at(0.2, "svc", restore_after=0.3)
    # Keep one more replica so the registry is never empty.
    deployment.add_instance(original.spec)
    deployment.run(until=1.0)
    replacement = [i for i in deployment.registry.instances_of("svc")
                   if i.instance_id != original.instance_id]
    assert any(i.affinity == original_affinity for i in replacement)


def test_fault_validation():
    deployment = echo_system()
    injector = FaultInjector(deployment)
    with pytest.raises(ConfigurationError):
        injector.kill_at(-1.0, "svc")
    with pytest.raises(ConfigurationError):
        injector.kill_at(1.0, "svc", restore_after=0.0)
    injector.kill_at(0.5, "svc", replica_index=99)
    with pytest.raises(ConfigurationError):
        deployment.run(until=1.0)  # resolves at fire time → invalid index


def test_teastore_survives_webui_replica_loss():
    """Integration: kill one WebUI replica mid-run; the store keeps
    serving through the remaining ones with only transient errors."""
    deployment = Deployment(small_numa_machine(), seed=2)
    store = deploy_application(deployment, teastore_spec())
    injector = FaultInjector(deployment)
    injector.kill_at(1.5, "webui", replica_index=0)
    workload = ClosedLoopWorkload(
        deployment, store.session_factory(),
        n_users=24, think_time=0.05)
    result = run_experiment(deployment, workload, warmup=1.0, duration=2.0)
    assert len(injector.kills()) == 1
    assert result.throughput > 50
    # Only requests caught in the dying replica's queue may error.
    assert result.errors < result.completed * 0.2
    assert len(store.deployment.registry.instances_of("webui")) == 1


# ----------------------------------------------------------------------
# Windowed-fault composition and edge cases
# ----------------------------------------------------------------------
def test_overlapping_slow_windows_compose_multiplicatively():
    deployment = echo_system(replicas=1)
    instance = deployment.registry.instances_of("svc")[0]
    injector = FaultInjector(deployment)
    injector.slow_at(0.1, "svc", factor=2.0, duration=0.4)   # [0.1, 0.5)
    injector.slow_at(0.2, "svc", factor=3.0, duration=0.1)   # [0.2, 0.3)
    deployment.run(until=0.15)
    assert instance.demand_factor == pytest.approx(2.0)
    deployment.run(until=0.25)
    assert instance.demand_factor == pytest.approx(6.0)
    deployment.run(until=0.35)  # inner window lifted, outer still active
    assert instance.demand_factor == pytest.approx(2.0)
    deployment.run(until=0.55)
    # Exact restore, not approximate: the stack drained completely.
    assert instance.demand_factor == 1.0
    assert len(injector.of_kind("slow")) == 2
    assert len(injector.of_kind("recover")) == 2


def test_overlapping_pause_windows_park_until_last_ends():
    deployment = echo_system(replicas=1)
    instance = deployment.registry.instances_of("svc")[0]
    injector = FaultInjector(deployment)
    injector.pause_at(0.1, "svc", duration=0.3)  # [0.1, 0.4)
    injector.pause_at(0.2, "svc", duration=0.4)  # [0.2, 0.6)
    workload = ClosedLoopWorkload(deployment, session,
                                  n_users=2, think_time=0.01)
    workload.start()
    deployment.run(until=0.25)
    parked = instance.completed
    deployment.run(until=0.55)
    # The first window's end at 0.4 must NOT resume processing: the
    # second window still holds the gate until 0.6.
    assert instance.completed == parked
    deployment.run(until=0.9)
    assert instance.completed > parked
    assert len(injector.of_kind("pause")) == 2
    assert len(injector.of_kind("resume")) == 2


def test_zero_duration_faults_are_rejected():
    deployment = echo_system()
    injector = FaultInjector(deployment)
    with pytest.raises(ConfigurationError):
        injector.slow_at(0.5, "svc", duration=0.0)
    with pytest.raises(ConfigurationError):
        injector.pause_at(0.5, "svc", duration=0.0)
    with pytest.raises(ConfigurationError):
        injector.hog_at(0.5, "svc", duration=0.0)
    with pytest.raises(ConfigurationError):
        injector.netdelay_at(0.5, duration=0.0)
    with pytest.raises(ConfigurationError):
        injector.slow_at(0.5, "svc", factor=0.0)
    with pytest.raises(ConfigurationError):
        injector.netdelay_at(0.5, factor=-1.0)
    with pytest.raises(ConfigurationError):
        injector.hog_at(0.5, "svc", workers=0)
    with pytest.raises(ConfigurationError):
        injector.hog_at(0.5, "svc", intensity=0.0)


def test_fault_on_killed_replica_skips_deterministically():
    deployment = echo_system(replicas=2)
    injector = FaultInjector(deployment)
    injector.kill_at(0.2, "svc", replica_index=1)
    # After the kill only one replica remains, so index 1 is gone; a
    # fault composed into the same schedule degrades to a recorded
    # no-op instead of blowing up the run.
    injector.slow_at(0.5, "svc", replica_index=1, factor=4.0,
                     duration=0.1)
    injector.pause_at(0.6, "svc", replica_index=1, duration=0.1)
    deployment.run(until=1.0)
    assert len(injector.kills()) == 1
    skipped = injector.of_kind("skipped")
    assert len(skipped) == 2
    assert all(event.service == "svc" for event in skipped)
    assert not injector.of_kind("slow")
    assert not injector.of_kind("pause")
    # The surviving replica is untouched.
    survivor = deployment.registry.instances_of("svc")[0]
    assert survivor.demand_factor == 1.0


def test_hog_competes_with_request_handlers():
    deployment = echo_system(replicas=1, demand=ms(2.0))
    injector = FaultInjector(deployment)
    # 16 hog loops over 8 logical CPUs: the whole machine contends.
    injector.hog_at(0.5, "svc", duration=0.5, intensity=4.0, workers=16)
    workload = ClosedLoopWorkload(deployment, session,
                                  n_users=4, think_time=0.01)
    workload.start()
    deployment.run(until=0.5)
    workload.latency.reset()
    deployment.run(until=1.0)
    during = workload.latency.mean()
    workload.latency.reset()
    deployment.run(until=1.6)
    after = workload.latency.mean()
    # Handlers visibly queue behind the hog bursts, then recover.
    assert during > after * 1.5
    assert len(injector.of_kind("hog")) == 1
    assert len(injector.of_kind("hog_end")) == 1


def test_netdelay_stacks_and_restores_base_exactly():
    deployment = echo_system()
    base = 0.00123
    deployment.rpc.hop_latency = base
    injector = FaultInjector(deployment)
    injector.netdelay_at(0.1, factor=3.0, duration=0.2)   # [0.1, 0.3)
    injector.netdelay_at(0.15, factor=5.0, duration=0.3)  # [0.15, 0.45)
    deployment.run(until=0.12)
    assert deployment.rpc.hop_latency == pytest.approx(base * 3.0)
    deployment.run(until=0.2)
    assert deployment.rpc.hop_latency == pytest.approx(base * 15.0)
    deployment.run(until=0.35)
    assert deployment.rpc.hop_latency == pytest.approx(base * 5.0)
    deployment.run(until=0.5)
    # Bitwise restore of the captured base, not a divided-back value.
    assert deployment.rpc.hop_latency == base
    events = injector.of_kind("netdelay") + injector.of_kind("netrestore")
    assert len(events) == 4
    from repro.workload.faults import FABRIC
    assert all(event.service == FABRIC for event in events)


def test_apply_schedules_hog_and_netdelay_kinds():
    deployment = echo_system(replicas=1)
    injector = FaultInjector(deployment)
    injector.apply([
        {"kind": "hog", "time": 0.2, "service": "svc",
         "duration": 0.1, "intensity": 2.0, "workers": 2},
        {"kind": "netdelay", "time": 0.3, "factor": 4.0,
         "duration": 0.1},
    ])
    deployment.run(until=0.6)
    assert len(injector.of_kind("hog")) == 1
    assert len(injector.of_kind("netdelay")) == 1
    assert len(injector.of_kind("netrestore")) == 1


def test_apply_rejects_unknown_kind():
    deployment = echo_system()
    injector = FaultInjector(deployment)
    with pytest.raises(ConfigurationError):
        injector.apply([{"kind": "meteor", "time": 0.5,
                         "service": "svc"}])
