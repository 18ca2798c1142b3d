"""Experiment harness: one module per paper experiment.

Each module defines its experiment once, as a *sweep provider*
registered with :mod:`repro.orchestrator.plan`: a
``sweep_points(settings)`` / ``run_point(point)`` /
``assemble(settings, payloads)`` triple that decomposes it into
independent points.  The module's ``run(settings) -> ExperimentResult``
is the in-process composition of that triple (some take ladder
arguments for tests and benchmarks); the CLI runs every experiment
through :func:`repro.orchestrator.run_sweep`, in-process for ``repro
run`` and parallel and cached for ``repro sweep``, so both print the
same table byte for byte.  EXPERIMENTS.md records representative output
next to the paper's claims.

| Id  | Module | Reconstructed figure/table |
|-----|--------|-----------------------------|
| E1  | :mod:`~repro.experiments.e1_platform` | platform configuration table |
| E2  | :mod:`~repro.experiments.e2_load_scaling` | throughput/latency vs concurrent users |
| E3  | :mod:`~repro.experiments.e3_core_scaling` | throughput vs logical CPUs enabled |
| E4  | :mod:`~repro.experiments.e4_smt` | SMT on/off sensitivity |
| E5  | :mod:`~repro.experiments.e5_utilization` | per-service CPU breakdown |
| E6  | :mod:`~repro.experiments.e6_service_scaling` | per-service scaling curves + USL fits |
| E7  | :mod:`~repro.experiments.e7_placement` | placement-policy comparison |
| E8  | :mod:`~repro.experiments.e8_headline` | optimized vs tuned baseline (+22%/−18% claim) |
| E9  | :mod:`~repro.experiments.e9_characterization` | microarchitectural contrast vs SPEC-class |
| E10 | :mod:`~repro.experiments.e10_numa` | NUMA locality effects |
| E11 | :mod:`~repro.experiments.e11_latency_breakdown` | traced latency decomposition (extension) |
| E12 | :mod:`~repro.experiments.e12_colocation` | batch-neighbor co-location (extension) |
| E13 | :mod:`~repro.experiments.e13_fault_tolerance` | fault-tolerance matrix (extension) |
| E14 | :mod:`~repro.experiments.e14_cross_app` | cross-application scale-up comparison (extension) |
| A1..A4 | :mod:`~repro.experiments.ablations` | design-choice ablations |
"""

from repro.experiments.common import ExperimentResult, ExperimentSettings

__all__ = ["ExperimentResult", "ExperimentSettings"]
