"""Parallel experiment orchestration with a content-addressed cache.

The experiment suite is a *sweep*: every experiment decomposes into
independent :class:`~repro.orchestrator.plan.SweepPoint` units, which
the executor fans out over a process pool, memoizes in a
content-addressed on-disk cache, and reassembles — in order — into the
experiment's table.  Every CLI verb that runs an experiment (``run``,
``sweep``, ``chaos run``) goes through :func:`run_sweep`.

* :mod:`~repro.orchestrator.plan` — sweep points and the provider
  registry the experiment modules register themselves with;
* :mod:`~repro.orchestrator.executor` — parallel execution, ordered
  reassembly, timeouts, graceful interruption;
* :mod:`~repro.orchestrator.cache` — SHA-256 content-addressed JSONL
  result store under ``.repro-cache/``;
* :mod:`~repro.orchestrator.progress` — human progress lines plus a
  machine-readable JSONL run log, whose ``sweep_end`` records carry
  each sweep's points, cache hits, executed count and wall seconds.

Determinism is the correctness bar: each point carries its own settings
and seed, no state crosses process boundaries, and every payload is
canonicalized through JSON, so a parallel sweep is byte-identical to the
sequential path and to a cache replay.
"""

from repro.orchestrator.cache import ResultCache, code_version
from repro.orchestrator.executor import (
    SweepInterrupted,
    SweepOutcome,
    SweepStats,
    SweepTimeout,
    run_sweep,
)
from repro.orchestrator.plan import (
    SweepPoint,
    SweepProvider,
    plan_sweep,
    provider_for,
    register_sweep,
    sweep_experiments,
)
from repro.orchestrator.progress import ProgressReporter

__all__ = [
    "ProgressReporter",
    "ResultCache",
    "SweepInterrupted",
    "SweepOutcome",
    "SweepPoint",
    "SweepProvider",
    "SweepStats",
    "SweepTimeout",
    "code_version",
    "plan_sweep",
    "provider_for",
    "register_sweep",
    "run_sweep",
    "sweep_experiments",
]
