"""Parallel sweep execution: fan out, cache, reassemble in order.

``run_sweep`` plans an experiment's points, satisfies what it can from
the result cache, fans the misses out over a
``concurrent.futures.ProcessPoolExecutor``, and reassembles the ordered
payloads into the exact :class:`ExperimentResult` the sequential path
produces.  Determinism holds because each point carries its own settings
and seed, workers share no state, and every payload — fresh or cached —
is canonicalized through JSON before assembly.

Interruption and failure semantics:

* Ctrl-C cancels outstanding points and raises
  :class:`SweepInterrupted`; completed points are already in the cache,
  so the next invocation resumes where this one stopped.
* ``point_timeout`` bounds how long the executor waits for the *next*
  point to complete; expiry cancels the remainder and raises
  :class:`SweepTimeout`.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import time
import typing as t

from repro.experiments.common import ExperimentResult, ExperimentSettings
from repro.orchestrator import plan as plan_mod
from repro.orchestrator.cache import ResultCache, canonical_payload
from repro.orchestrator.plan import Payload, SweepPoint
from repro.orchestrator.progress import ProgressReporter


class SweepTimeout(RuntimeError):
    """No sweep point completed within the configured timeout."""


class SweepInterrupted(RuntimeError):
    """The sweep was interrupted; completed points are cached."""

    def __init__(self, experiment: str, done: int, total: int) -> None:
        super().__init__(f"sweep {experiment} interrupted after "
                         f"{done}/{total} points (completed points are "
                         f"cached; rerun to resume)")
        self.experiment = experiment
        self.done = done
        self.total = total


@dataclasses.dataclass(frozen=True)
class PointOutcome:
    """One point's provenance within a sweep."""

    point: SweepPoint
    cached: bool
    wall_seconds: float


@dataclasses.dataclass(frozen=True)
class SweepStats:
    """Telemetry for one experiment's sweep."""

    experiment: str
    jobs: int
    points: int
    cache_hits: int
    executed: int
    wall_seconds: float
    point_wall_seconds: tuple[float, ...]

    def points_per_second(self) -> float:
        """Overall sweep rate (cache hits included)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.points / self.wall_seconds

    def to_dict(self) -> dict[str, t.Any]:
        """JSON-native view for reports."""
        return {
            "experiment": self.experiment,
            "jobs": self.jobs,
            "points": self.points,
            "cache_hits": self.cache_hits,
            "executed": self.executed,
            "wall_seconds": self.wall_seconds,
            "points_per_second": self.points_per_second(),
        }


@dataclasses.dataclass(frozen=True)
class SweepOutcome:
    """What ``run_sweep`` returns: the table plus its telemetry."""

    result: ExperimentResult
    stats: SweepStats
    outcomes: tuple[PointOutcome, ...]
    #: The ordered canonical point payloads the result was assembled
    #: from — consumers needing per-point structure (the chaos grader,
    #: digest tooling) read these instead of re-parsing the table.
    payloads: tuple[Payload, ...] = ()


def execute_point(point: SweepPoint) -> Payload:
    """Run one sweep point and canonicalize its payload.

    Module-level so worker processes can import and unpickle it; the
    provider registry is (re)loaded lazily inside each worker.
    """
    provider = plan_mod.provider_for(point.experiment)
    return canonical_payload(provider.run_point(point))


def _execute_point_timed(point: SweepPoint) -> tuple[Payload, float]:
    started = time.perf_counter()
    payload = execute_point(point)
    return payload, time.perf_counter() - started


def run_sweep(experiment_id: str, settings: ExperimentSettings, *,
              jobs: int = 1,
              cache: ResultCache | None = None,
              rerun: bool = False,
              point_timeout: float | None = None,
              progress: ProgressReporter | None = None,
              points: t.Sequence[SweepPoint] | None = None) -> SweepOutcome:
    """Execute one experiment as a parallel, cached sweep.

    ``jobs`` bounds the worker processes; ``jobs=1`` runs in-process.
    ``rerun`` executes every point even on a cache hit (and refreshes
    the entries); ``cache=None`` disables caching entirely.  ``points``
    overrides the provider's default decomposition — the chaos CLI uses
    this to run catalog subsets; each point still caches on its own
    identity, so subsets and full campaigns share cache entries.
    """
    provider = plan_mod.provider_for(experiment_id)
    points = list(provider.points(settings) if points is None else points)
    started = time.monotonic()
    if progress is not None:
        progress.begin(len(points))

    payloads: list[Payload | None] = [None] * len(points)
    outcomes: list[PointOutcome | None] = [None] * len(points)
    pending: list[int] = []
    for i, point in enumerate(points):
        hit = cache.get(point) if cache is not None and not rerun else None
        if hit is not None:
            payloads[i] = hit
            outcomes[i] = PointOutcome(point, cached=True, wall_seconds=0.0)
            if progress is not None:
                progress.point_done(point, cached=True, wall_seconds=0.0)
        else:
            pending.append(i)

    def record(index: int, payload: Payload, wall: float) -> None:
        point = points[index]
        payloads[index] = payload
        outcomes[index] = PointOutcome(point, cached=False,
                                       wall_seconds=wall)
        if cache is not None:
            cache.put(point, payload)
        if progress is not None:
            progress.point_done(point, cached=False, wall_seconds=wall)

    if len(pending) > 1 and jobs > 1:
        _run_pool(points, pending, record,
                  jobs=min(jobs, len(pending)),
                  point_timeout=point_timeout,
                  experiment=provider.experiment)
    else:
        for index in pending:
            payload, wall = _execute_point_timed(points[index])
            record(index, payload, wall)
            if point_timeout is not None and wall > point_timeout:
                raise SweepTimeout(
                    f"sweep {provider.experiment} timed out: point "
                    f"{points[index].label!r} took {wall:.1f}s "
                    f"(timeout {point_timeout:.1f}s)")

    wall_seconds = time.monotonic() - started
    done = [o for o in outcomes if o is not None]
    stats = SweepStats(
        experiment=provider.experiment,
        jobs=jobs,
        points=len(points),
        cache_hits=sum(1 for o in done if o.cached),
        executed=sum(1 for o in done if not o.cached),
        wall_seconds=wall_seconds,
        point_wall_seconds=tuple(o.wall_seconds for o in done),
    )
    if progress is not None:
        progress.finish(wall_seconds=wall_seconds, executed=stats.executed)
    ordered = tuple(t.cast(Payload, payload) for payload in payloads)
    result = provider.assemble(settings, list(ordered))
    return SweepOutcome(result=result, stats=stats, outcomes=tuple(done),
                        payloads=ordered)


def _run_pool(points: list[SweepPoint], pending: list[int],
              record: t.Callable[[int, Payload, float], None], *,
              jobs: int, point_timeout: float | None,
              experiment: str) -> None:
    """Fan pending points over a process pool; results land in order
    via their indices, so completion order never matters."""
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = {pool.submit(_execute_point_timed, points[index]): index
                   for index in pending}
        remaining = dict(futures)
        try:
            while remaining:
                finished, __ = concurrent.futures.wait(
                    remaining, timeout=point_timeout,
                    return_when=concurrent.futures.FIRST_COMPLETED)
                if not finished:
                    _cancel(pool, remaining)
                    labels = sorted(points[i].label
                                    for i in remaining.values())
                    raise SweepTimeout(
                        f"sweep {experiment} timed out: no point "
                        f"completed within {point_timeout:.1f}s; "
                        f"outstanding: {labels}")
                for future in finished:
                    index = remaining.pop(future)
                    payload, wall = future.result()
                    record(index, payload, wall)
        except KeyboardInterrupt:
            _cancel(pool, remaining)
            raise SweepInterrupted(
                experiment,
                done=len(points) - len(remaining),
                total=len(points)) from None


def _cancel(pool: concurrent.futures.ProcessPoolExecutor,
            remaining: t.Mapping[t.Any, int]) -> None:
    for future in remaining:
        future.cancel()
    pool.shutdown(wait=False, cancel_futures=True)
