#!/usr/bin/env python3
"""The paper's headline recipe, step by step.

1. Run the performance-tuned baseline (good replica counts, generous
   thread pools, no pinning) and profile where CPU time goes.
2. Turn the profile into per-service CCX budgets.
3. Deploy the topology-aware configuration: one replica per L3 domain for
   every scalable service, the database kept singular on its own CCX
   group.
4. Measure the uplift — the paper reports +22% throughput and −18%
   latency from exactly this kind of exploitation.

Run:  python examples/topology_placement.py
"""

from repro import (
    ClosedLoopWorkload,
    Deployment,
    ccx_aware_auto,
    deploy_application,
    get_app,
    run_experiment,
    single_socket_rome,
    unpinned,
    weights_from_utilization,
)

USERS = 2000
THINK_TIME = 0.125


def measure(machine, app, allocation, label):
    deployment = Deployment(machine, seed=7)
    store = deploy_application(deployment, app,
                               placement=allocation.as_placement())
    workload = ClosedLoopWorkload(
        deployment, store.session_factory(),
        n_users=USERS, think_time=THINK_TIME)
    result = run_experiment(deployment, workload, warmup=1.5, duration=3.0)
    print(f"{label:24s} {result}")
    return result


def main() -> None:
    machine = single_socket_rome()
    app = get_app("teastore")
    counts = {service.name: service.replicas for service in app.services}

    print("step 1: profile the tuned baseline")
    baseline = measure(machine, app, unpinned(machine, counts),
                       "tuned baseline")

    print("\nstep 2: derive CCX budgets from measured CPU weights")
    weights = weights_from_utilization(baseline.service_utilization)
    for service, weight in sorted(weights.items(), key=lambda kv: -kv[1]):
        print(f"  {service:12s} weight {weight:.3f}")

    print("\nstep 3: topology- and scaling-aware placement")
    allocation = ccx_aware_auto(machine, weights, fixed_counts={"db": 1})
    print(f"  replica counts: {allocation.replica_counts()}")
    print(allocation.describe())

    print("\nstep 4: measure the optimized configuration")
    optimized = measure(machine, app, allocation, "optimized")

    uplift = optimized.throughput / baseline.throughput - 1
    latency_cut = 1 - optimized.latency_mean / baseline.latency_mean
    print(f"\nthroughput uplift: {uplift * 100:+.1f}%   (paper: +22%)")
    print(f"latency reduction: {latency_cut * 100:+.1f}%   (paper: -18%)")


if __name__ == "__main__":
    main()
