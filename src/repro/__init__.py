"""repro — reproduction of *Characterizing the Scale-Up Performance of
Microservices using TeaStore* (IISWC 2020).

A discrete-event scale-up simulation platform for microservice workloads
on high-core-count servers:

* :mod:`repro.sim` — simulation kernel;
* :mod:`repro.topology` — server topology (sockets/NUMA/CCD/CCX/SMT);
* :mod:`repro.cpu` — OS-like scheduler, SMT and boost models;
* :mod:`repro.memory` — L3/NUMA performance model;
* :mod:`repro.services` — microservice substrate (instances, RPC, LB);
* :mod:`repro.apps` — applications as JSON specs (TeaStore, Online
  Boutique, a social network) and the runtime that deploys them;
* :mod:`repro.workload` — closed/open-loop load generation;
* :mod:`repro.metrics` — latency/throughput/counters/statistics;
* :mod:`repro.placement` — topology-aware placement (the paper's
  contribution);
* :mod:`repro.analysis` — USL/Amdahl scalability fits;
* :mod:`repro.spec` — SPEC-class comparison kernels;
* :mod:`repro.experiments` — the paper's experiments E1..E10 + ablations.

Quickstart::

    from repro import Deployment, deploy_application, get_app
    from repro import ClosedLoopWorkload, run_experiment, single_socket_rome

    deployment = Deployment(single_socket_rome(), seed=1)
    store = deploy_application(deployment, get_app("teastore"))
    load = ClosedLoopWorkload(deployment, store.session_factory(),
                              n_users=1000, think_time=0.125)
    print(run_experiment(deployment, load))
"""

from repro._errors import (
    AnalysisError,
    ConfigurationError,
    DeadlineExceededError,
    PlacementError,
    ReproError,
    SchedulingError,
    ServiceOverloadError,
    ServiceUnavailableError,
    SimulationError,
    TopologyError,
    WorkloadError,
)
from repro.analysis import fit_amdahl, fit_usl
from repro.apps import deploy_application, get_app
from repro.calibration import calibrate_headline
from repro.memory import MemoryConfig, MemorySystemModel, WorkloadProfile
from repro.metrics import CounterBank, LatencyRecorder, ThroughputMeter
from repro.placement import (
    Allocation,
    ReplicaPlacement,
    ccx_aware,
    ccx_aware_auto,
    node_spread,
    socket_pack,
    unpinned,
    weights_from_utilization,
)
from repro.services import Deployment, ResilienceConfig, ServiceSpec
from repro.sim import Simulator
from repro.topology import (
    CpuSet,
    Machine,
    MachineSpec,
    dual_socket_rome,
    machine_from_preset,
    medium_machine,
    single_socket_rome,
    small_numa_machine,
    tiny_machine,
)
from repro.workload import (
    ClosedLoopWorkload,
    FaultInjector,
    OpenLoopWorkload,
    RunResult,
    run_experiment,
)

__version__ = "1.0.0"

__all__ = [
    "Allocation",
    "AnalysisError",
    "ClosedLoopWorkload",
    "ConfigurationError",
    "CounterBank",
    "CpuSet",
    "DeadlineExceededError",
    "Deployment",
    "FaultInjector",
    "LatencyRecorder",
    "Machine",
    "MachineSpec",
    "MemoryConfig",
    "MemorySystemModel",
    "OpenLoopWorkload",
    "PlacementError",
    "ReplicaPlacement",
    "ReproError",
    "ResilienceConfig",
    "RunResult",
    "SchedulingError",
    "ServiceOverloadError",
    "ServiceSpec",
    "ServiceUnavailableError",
    "SimulationError",
    "Simulator",
    "ThroughputMeter",
    "TopologyError",
    "WorkloadError",
    "WorkloadProfile",
    "calibrate_headline",
    "ccx_aware",
    "ccx_aware_auto",
    "deploy_application",
    "dual_socket_rome",
    "fit_amdahl",
    "fit_usl",
    "get_app",
    "machine_from_preset",
    "medium_machine",
    "node_spread",
    "run_experiment",
    "single_socket_rome",
    "small_numa_machine",
    "socket_pack",
    "tiny_machine",
    "unpinned",
    "weights_from_utilization",
    "__version__",
]
