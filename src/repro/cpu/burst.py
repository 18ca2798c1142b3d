"""Schedulable CPU work units and their grouping.

A :class:`TaskGroup` stands for one OS-level entity that owns threads — in
this simulator, one microservice instance (or one batch kernel).  All bursts
of a group share an affinity mask, a memory home node, and accounting.

A :class:`CpuBurst` is one non-preemptive slice of CPU demand, expressed in
seconds of execution *at nominal speed* (base clock, warm caches, no SMT
sharing).  The scheduler divides demand by the effective execution rate to
get wall-clock time.
"""

from __future__ import annotations

import itertools
import typing as t

from repro._errors import SchedulingError
from repro.topology.cpuset import CpuSet

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.memory.profile import WorkloadProfile
    from repro.sim.events import Event

_group_ids = itertools.count()


class TaskGroup:
    """A scheduling/accounting group (one service instance, typically)."""

    __slots__ = ("group_id", "name", "affinity", "profile", "home_node",
                 "cpu_time", "last_ccx", "bursts_completed")

    def __init__(self, name: str, affinity: CpuSet,
                 profile: "WorkloadProfile | None" = None,
                 home_node: int = 0):
        if not affinity:
            raise SchedulingError(f"task group {name!r}: empty affinity")
        self.group_id = next(_group_ids)
        self.name = name
        self.affinity = affinity
        #: Memory/cache behaviour descriptor (see repro.memory); optional.
        self.profile = profile
        #: NUMA node holding this group's memory (first-touch placement).
        self.home_node = home_node
        #: Accumulated wall-clock CPU time consumed by this group's bursts.
        self.cpu_time = 0.0
        #: CCX index where this group's bursts last ran (placement hint).
        self.last_ccx: int | None = None
        self.bursts_completed = 0

    def __repr__(self) -> str:
        return f"<TaskGroup {self.name!r} id={self.group_id}>"


class CpuBurst:
    """One non-preemptive unit of CPU demand awaiting execution.

    ``done`` is an event that succeeds with ``None`` once the burst
    finishes; service worker processes yield it.  Its value is not the
    burst: that would form a burst <-> event reference cycle per burst,
    which only the cyclic GC frees, and the simulator suspends GC while
    it runs.
    """

    __slots__ = ("demand", "group", "done", "submitted_at", "started_at",
                 "finished_at", "cpu_index", "wall_time")

    def __init__(self, demand: float, group: TaskGroup, done: "Event"):
        if demand < 0:
            raise SchedulingError(f"negative CPU demand: {demand}")
        self.demand = demand
        self.group = group
        self.done = done
        self.submitted_at: float | None = None
        self.started_at: float | None = None
        self.finished_at: float | None = None
        #: Logical CPU the burst executed on (set at dispatch).
        self.cpu_index: int | None = None
        #: Wall-clock execution time (≥ demand when slowed down).
        self.wall_time: float = 0.0

    @property
    def queueing_delay(self) -> float:
        """Time spent waiting in a run queue before first dispatch."""
        if self.submitted_at is None or self.started_at is None:
            raise SchedulingError("burst has not been dispatched yet")
        return self.started_at - self.submitted_at

    def __repr__(self) -> str:
        return (f"<CpuBurst {self.demand * 1e3:.3f}ms of "
                f"{self.group.name!r}>")
