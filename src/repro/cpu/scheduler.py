"""The OS-like CPU scheduler.

Models the mechanisms the paper's experiments manipulate:

* **Affinity masks.** A burst only ever runs on CPUs in its group's mask
  (the simulated `taskset`/cpuset).
* **Wakeup placement.** A newly runnable burst prefers, in order: an idle
  CPU whose whole physical core is idle inside the group's last CCX; an
  idle whole core anywhere in the mask; any idle CPU in the last CCX; any
  idle CPU.  Failing all of those it queues on the allowed CPU with the
  shortest run queue.  This mirrors Linux CFS's idle-core search plus
  LLC-affine wakeups at the fidelity the study needs.
* **Work stealing.** A CPU that runs out of local work pulls the oldest
  eligible burst from the most loaded queue it is allowed to serve.
* **SMT interaction.** When a burst starts or finishes, the sibling
  thread's in-flight burst is re-rated (its completion re-scheduled).
* **Frequency boost.** Execution rate includes a boost factor sampled at
  burst start from current physical-core occupancy.
* **Memory effects.** Execution rate is divided by the
  :class:`~repro.cpu.perf.PerfModel` CPI inflation for (burst, cpu).

Bursts are non-preemptive; service handlers issue short bursts (≤ a few
milliseconds), so this matches OS behaviour at the timescales that matter
while keeping event counts tractable (see DESIGN.md).
"""

from __future__ import annotations

import collections
import functools
import typing as t

import numpy as np

from repro._errors import SchedulingError
from repro.cpu.burst import CpuBurst
from repro.cpu.frequency import FrequencyModel
from repro.cpu.perf import NullPerfModel, PerfModel
from repro.cpu.smt import SmtModel
from repro.sim.engine import Simulator
from repro.topology.cpuset import CpuSet
from repro.topology.model import Machine

#: Completion guard against zero-rate pathologies.
_MIN_RATE = 1e-9


class _Running:
    """Bookkeeping for the burst currently executing on one CPU."""

    __slots__ = ("burst", "rate", "segment_start", "remaining", "handle")

    def __init__(self, burst: CpuBurst, rate: float, now: float, handle):
        self.burst = burst
        self.rate = rate
        self.segment_start = now
        self.remaining = burst.demand  # demand not yet executed
        self.handle = handle


class CpuScheduler:
    """Dispatches :class:`CpuBurst` objects onto a machine's logical CPUs."""

    def __init__(self, sim: Simulator, machine: Machine,
                 online: CpuSet | None = None,
                 smt_model: SmtModel | None = None,
                 frequency_model: FrequencyModel | None = None,
                 perf_model: PerfModel | None = None):
        self.sim = sim
        self.machine = machine
        self.online = online if online is not None else machine.all_cpus()
        if not self.online:
            raise SchedulingError("online CPU set is empty")
        if not self.online.issubset(machine.all_cpus()):
            raise SchedulingError(
                f"online set {self.online!r} exceeds machine CPUs")
        self.smt_model = smt_model or SmtModel()
        self.frequency_model = frequency_model or FrequencyModel(
            machine.spec.base_freq_ghz, machine.spec.max_boost_ghz)
        self.perf_model = perf_model or NullPerfModel()

        n = machine.n_logical_cpus
        self._running: list[_Running | None] = [None] * n
        self._queues: list[collections.deque[CpuBurst]] = [
            collections.deque() for __ in range(n)]
        self._idle: set[int] = set(self.online)
        self._nonempty_queues: set[int] = set()
        #: Incremental mirror of ``len(self._queues[i])`` so the
        #: shortest-queue scan vectorizes over wide affinity masks.
        self._queue_depths = np.zeros(n, dtype=np.int32)
        self._busy_threads_per_core = [0] * len(machine.cores)
        self.active_cores = 0
        #: Boost denominator: ALL physical cores — offlined cores sit idle
        #: and their power/thermal headroom feeds the active ones, exactly
        #: why few-core configurations clock higher on real parts.
        self.total_cores = len(machine.cores)
        self._busy_time = [0.0] * n
        self.bursts_dispatched = 0
        self.bursts_stolen = 0

        # Hot-path caches.  Topology is immutable for the scheduler's
        # lifetime, both rate models are pure functions of their
        # arguments, and a group's affinity never changes after
        # construction — so all of these are plain memoization, not
        # behavioral state.
        self._cpus = list(machine.cpus)
        self._sibling_index: list[int | None] = [
            (sibling.index if (sibling := machine.sibling(i)) is not None
             else None)
            for i in range(n)]
        self._core_index = [machine.cpu(i).core.index for i in range(n)]
        self._ccx_index = [machine.cpu(i).core.ccx.index for i in range(n)]
        self._complete_callbacks = [functools.partial(self._complete, i)
                                    for i in range(n)]
        #: The kernel's schedule entry point, bound once: completions
        #: and sibling re-rates are the scheduler's hottest scheduling
        #: sites, and this strips an attribute hop per event no matter
        #: which kernel backend is active.
        self._kschedule = sim.schedule
        self._freq_factor = [
            self.frequency_model.factor(active, self.total_cores)
            for active in range(self.total_cores + 1)]
        self._smt_factor = (self.smt_model.factor(False),
                            self.smt_model.factor(True))
        #: group → (sorted tuple, frozenset, int32 array) of online CPUs
        #: in its mask.
        self._allowed_cache: dict[
            object,
            tuple[tuple[int, ...], frozenset[int], np.ndarray]] = {}
        #: cpu → CPUs whose queues could ever hold a burst this CPU may
        #: steal.  A queue on ``v`` only holds bursts of groups allowing
        #: ``v``; CPU ``c`` can steal such a burst only when the group
        #: also allows ``c`` — so victims outside every group mask that
        #: contains ``c`` are provably fruitless and the steal scan
        #: skips them.  Grows monotonically as groups first submit; the
        #: boolean matrix mirrors the sets for the vectorized victim scan.
        self._steal_eligible: list[set[int]] = [set() for __ in range(n)]
        self._steal_eligible_mask = np.zeros((n, n), dtype=bool)
        #: reusable output buffer for the masked-depth victim scan.
        self._steal_scratch = np.zeros(n, dtype=self._queue_depths.dtype)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def submit(self, burst: CpuBurst) -> None:
        """Make a burst runnable; its ``done`` event fires on completion."""
        allowed, allowed_set, allowed_arr = self._allowed_for(burst.group)
        burst.submitted_at = self.sim.now
        # Saturation fast path: with no idle CPU anywhere there is nothing
        # to place on, so skip the placement scan entirely.
        if self._idle:
            cpu_index = self._pick_idle_cpu(burst, allowed, allowed_set)
            if cpu_index is not None:
                self._start(cpu_index, burst)
                return
        queues = self._queues
        if len(allowed) == len(queues):
            # Full mask (unpinned group, every CPU online): the depth
            # mirror already is the allowed view, so argmin it directly
            # without the per-call fancy-index gather.
            target = int(self._queue_depths.argmin())
        elif len(allowed) >= 16:
            # Wide mask: one vectorized argmin over the depth mirror.
            # ``argmin`` keeps the first occurrence of the minimum and
            # ``allowed`` ascends, so the pick matches the scalar scan.
            target = allowed[int(self._queue_depths[allowed_arr].argmin())]
        else:
            target = allowed[0]
            shortest = len(queues[target])
            if shortest:
                for i in allowed[1:]:
                    depth = len(queues[i])
                    if depth < shortest:
                        shortest = depth
                        target = i
                        if not depth:
                            # An empty queue is the global minimum;
                            # ``allowed`` ascends, so the first one found
                            # is the pick.
                            break
        queues[target].append(burst)
        self._queue_depths[target] += 1
        self._nonempty_queues.add(target)

    def _allowed_for(self, group) -> tuple[
            tuple[int, ...], frozenset[int], np.ndarray]:
        allowed = self._allowed_cache.get(group)
        if allowed is None:
            ids = tuple((group.affinity & self.online).ids)
            if not ids:
                raise SchedulingError(
                    f"burst of {group.name!r} has no online CPU in its "
                    f"affinity {group.affinity!r}")
            allowed = (ids, frozenset(ids),
                       np.asarray(ids, dtype=np.int32))
            self._allowed_cache[group] = allowed
            eligible = self._steal_eligible
            for cpu_index in ids:
                eligible[cpu_index].update(ids)
            arr = allowed[2]
            self._steal_eligible_mask[arr[:, None], arr] = True
        return allowed

    def busy_time(self, cpu_index: int) -> float:
        """Accumulated busy wall-clock time of one logical CPU."""
        total = self._busy_time[cpu_index]
        running = self._running[cpu_index]
        if running is not None:
            total += self.sim.now - running.segment_start
        return total

    def total_busy_time(self) -> float:
        """Busy time summed over all logical CPUs."""
        return sum(self.busy_time(i) for i in self.online)

    def queue_depth(self) -> int:
        """Bursts currently waiting in run queues."""
        return sum(len(q) for q in self._queues)

    def is_idle(self, cpu_index: int) -> bool:
        """True when the logical CPU is online and not executing."""
        return cpu_index in self._idle

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def _pick_idle_cpu(self, burst: CpuBurst, allowed: tuple[int, ...],
                       allowed_set: frozenset[int]) -> int | None:
        # Lower score is better: prefer whole idle cores, then cache
        # locality, then low ids (deterministic).  ``allowed`` ascends,
        # so the first perfect score is the global minimum.
        idle = self._idle
        running = self._running
        siblings = self._sibling_index
        ccxs = self._ccx_index
        last_ccx = burst.group.last_ccx
        # Scores are kept as two ints (whole, local) plus the id tiebreak
        # instead of tuples: this scan runs per submission and the tuple
        # allocation/compare dominated it at low load.
        if len(idle) <= 4:
            # Loaded steady state: score just the few idle CPUs.  The
            # explicit id tiebreak picks the same CPU as the ascending
            # mask scan below — the lowest id among the minimal
            # (whole, local) scores.
            best = None
            best_whole = best_local = 2
            for cpu_index in idle:
                if cpu_index not in allowed_set:
                    continue
                sibling = siblings[cpu_index]
                whole = 0 if sibling is None or running[sibling] is None \
                    else 1
                local = 0 if last_ccx is not None \
                    and ccxs[cpu_index] == last_ccx else 1
                if whole != best_whole:
                    if whole > best_whole:
                        continue
                elif local != best_local:
                    if local > best_local:
                        continue
                elif best is not None and cpu_index > best:
                    continue
                best = cpu_index
                best_whole = whole
                best_local = local
            return best
        best = None
        best_whole = best_local = 2
        for cpu_index in allowed:
            if cpu_index not in idle:
                continue
            sibling = siblings[cpu_index]
            whole = 0 if sibling is None or running[sibling] is None else 1
            local = 0 if last_ccx is not None \
                and ccxs[cpu_index] == last_ccx else 1
            if whole != best_whole:
                if whole > best_whole:
                    continue
            elif local >= best_local:
                continue
            best = cpu_index
            best_whole = whole
            best_local = local
            if whole == 0 and local == 0:
                break
        return best

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _rate(self, burst: CpuBurst, cpu_index: int) -> float:
        sibling = self._sibling_index[cpu_index]
        sibling_busy = (sibling is not None
                        and self._running[sibling] is not None)
        inflation = self.perf_model.cpi_inflation(burst, self._cpus[cpu_index])
        if inflation < 1.0:
            inflation = 1.0
        rate = (self._freq_factor[self.active_cores]
                * self._smt_factor[sibling_busy] / inflation)
        return rate if rate > _MIN_RATE else _MIN_RATE

    def _start(self, cpu_index: int, burst: CpuBurst,
               rerate_sibling: bool = True) -> None:
        now = self.sim.now
        burst.started_at = now
        burst.cpu_index = cpu_index
        self._idle.discard(cpu_index)
        core = self._core_index[cpu_index]
        self._busy_threads_per_core[core] += 1
        if self._busy_threads_per_core[core] == 1:
            self.active_cores += 1
        self.perf_model.on_burst_start(burst, self._cpus[cpu_index])
        rate = self._rate(burst, cpu_index)
        # call_in minus the delay validation (demand/rate is never
        # negative): completions are the scheduler's hottest scheduling
        # site, so they go straight to the kernel.
        handle = self._kschedule(now + burst.demand / rate,
                                 self._complete_callbacks[cpu_index])
        self._running[cpu_index] = _Running(burst, rate, now, handle)
        self.bursts_dispatched += 1
        if rerate_sibling:
            self._re_rate_sibling(cpu_index)

    def _complete(self, cpu_index: int) -> None:
        running = self._running[cpu_index]
        assert running is not None, "completion fired on idle CPU"
        now = self.sim.now
        burst = running.burst
        self._busy_time[cpu_index] += now - running.segment_start
        self._running[cpu_index] = None
        core = self._core_index[cpu_index]
        self._busy_threads_per_core[core] -= 1
        if self._busy_threads_per_core[core] == 0:
            self.active_cores -= 1

        burst.finished_at = now
        # started_at is always set by _start here; no cast indirection on
        # the completion hot path.
        wall_time = burst.wall_time = now - burst.started_at  # type: ignore[operator]
        group = burst.group
        group.cpu_time += wall_time
        group.last_ccx = self._ccx_index[cpu_index]
        group.bursts_completed += 1
        self.perf_model.on_burst_complete(
            burst, self._cpus[cpu_index], burst.wall_time)

        # One sibling re-rate after dispatch instead of one before plus
        # one inside _start: the pre-dispatch re-rate would cover zero
        # elapsed time (same timestamp) and its handle is immediately
        # cancelled by the post-dispatch one, so the sibling's
        # remaining/rate/handle end up identical either way, and the
        # sibling's new completion still enqueues after the dispatched
        # burst's (uniform counter shift keeps relative FIFO order).
        self._dispatch_next(cpu_index)
        self._re_rate_sibling(cpu_index)
        # Succeeding with the burst itself would make a burst <-> event
        # cycle that only the (suspended) cyclic GC could free.
        burst.done.succeed(None)

    def _dispatch_next(self, cpu_index: int) -> None:
        queue = self._queues[cpu_index]
        if queue:
            next_burst = queue.popleft()
            self._queue_depths[cpu_index] -= 1
            if not queue:
                self._nonempty_queues.discard(cpu_index)
            self._start(cpu_index, next_burst, rerate_sibling=False)
            return
        stolen = self._steal_for(cpu_index)
        if stolen is not None:
            self.bursts_stolen += 1
            self._start(cpu_index, stolen, rerate_sibling=False)
            return
        self._idle.add(cpu_index)

    def _steal_for(self, cpu_index: int) -> CpuBurst | None:
        """Pull the oldest eligible burst from the most loaded queue."""
        nonempty = self._nonempty_queues
        if not nonempty:
            return None
        queues = self._queues
        # Victims outside this CPU's eligibility set can never yield a
        # steal (see _steal_eligible), so skipping them preserves the
        # traversal's outcome exactly while sparing the queue scans —
        # under pinned placements most cross-CCX victims drop out here.
        # The deepest queue (lowest id on ties) almost always yields an
        # eligible burst, so pick it vectorized — masked argmax over the
        # depth mirror keeps the first (lowest-id) occurrence of the
        # maximum, matching the scalar deepest-then-lowest-id rule —
        # and only sort the full victim order if that choice comes up
        # empty.  Ineligible and empty queues mask to depth 0 and can
        # never win, exactly as the per-victim scan skipped them.
        masked = np.multiply(self._steal_eligible_mask[cpu_index],
                             self._queue_depths, out=self._steal_scratch)
        best = int(masked.argmax())
        if not masked[best]:
            return None
        stolen = self._steal_from(best, cpu_index)
        if stolen is not None:
            return stolen
        eligible = self._steal_eligible[cpu_index]
        for __, victim in sorted((-len(queues[v]), v) for v in nonempty
                                 if v in eligible):
            if victim == best:
                continue
            stolen = self._steal_from(victim, cpu_index)
            if stolen is not None:
                return stolen
        return None

    def _steal_from(self, victim: int, cpu_index: int) -> CpuBurst | None:
        queue = self._queues[victim]
        for position, burst in enumerate(queue):
            if cpu_index in burst.group.affinity:
                del queue[position]
                self._queue_depths[victim] -= 1
                if not queue:
                    self._nonempty_queues.discard(victim)
                return burst
        return None

    def _re_rate_sibling(self, cpu_index: int) -> None:
        sibling = self._sibling_index[cpu_index]
        if sibling is None:
            return
        running = self._running[sibling]
        if running is None:
            return
        sim = self.sim
        now = sim.now
        elapsed = now - running.segment_start
        remaining = running.remaining - elapsed * running.rate
        running.remaining = remaining if remaining > 0.0 else 0.0
        self._busy_time[sibling] += elapsed
        running.segment_start = now
        running.handle.cancel()
        rate = running.rate = self._rate(running.burst, sibling)
        # call_in minus the delay validation (remaining is clamped
        # non-negative above).
        running.handle = self._kschedule(
            now + running.remaining / rate,
            self._complete_callbacks[sibling])

    def __repr__(self) -> str:
        busy = sum(1 for r in self._running if r is not None)
        return (f"<CpuScheduler {busy} running, {self.queue_depth()} queued, "
                f"{len(self._idle)} idle>")


class CompiledCpuScheduler(CpuScheduler):
    """The scheduler with its burst lifecycle run by the C core.

    ``repro.sim._cmodel.SchedCore`` keeps the run queues, idle set,
    depth mirrors, running-burst records, and busy-time accumulators in
    C arrays and executes submit/placement/steal/re-rate/complete
    entirely in C, calling back into Python only where the reference
    does (the perf model's ``on_burst_start`` / ``cpi_inflation`` /
    ``on_burst_complete`` hooks, kernel scheduling, handle cancellation
    and ``done`` completion) — in exactly the reference's order, so
    behavior is byte-identical.  :class:`CpuScheduler` remains the
    line-for-line reference semantics and keeps running under the
    ``python`` backend.

    The base class still precomputes every topology/rate cache; the C
    core reads those caches once at construction, so the two layers can
    never disagree about the machine.
    """

    def __init__(self, sim: Simulator, machine: Machine,
                 online: CpuSet | None = None,
                 smt_model: SmtModel | None = None,
                 frequency_model: FrequencyModel | None = None,
                 perf_model: PerfModel | None = None):
        super().__init__(sim, machine, online=online, smt_model=smt_model,
                         frequency_model=frequency_model,
                         perf_model=perf_model)
        from repro.sim.kernel import model_module
        module = model_module()
        if module is None:  # pragma: no cover - guarded by make_scheduler
            raise SchedulingError(
                "CompiledCpuScheduler requires repro.sim._cmodel; run "
                "'python setup.py build_ext --inplace'")
        #: Online ids in ascending order, read by the C core.
        self._online_ids = sorted(self.online.ids)
        self._core = module.SchedCore(self)

    # The C core registers groups through this callback on first
    # submission; reusing _allowed_for keeps the exact error message
    # (and the base caches coherent, should anything inspect them).
    def _core_register(self, group) -> tuple[int, ...]:
        return self._allowed_for(group)[0]

    # ------------------------------------------------------------------
    # Public API, delegated to the core
    # ------------------------------------------------------------------
    def submit(self, burst: CpuBurst) -> None:
        self._core.submit(burst)

    def busy_time(self, cpu_index: int) -> float:
        return self._core.busy_time(cpu_index)

    def total_busy_time(self) -> float:
        core = self._core
        return sum(core.busy_time(i) for i in self._online_ids)

    def queue_depth(self) -> int:
        return self._core.queue_depth()

    def is_idle(self, cpu_index: int) -> bool:
        return self._core.is_idle(cpu_index)

    # The base initializer writes these counters before the core exists;
    # afterwards the core's counts are authoritative.
    @property
    def bursts_dispatched(self) -> int:
        core = self.__dict__.get("_core")
        if core is None:
            return self.__dict__.get("_shadow_dispatched", 0)
        return core.bursts_dispatched()

    @bursts_dispatched.setter
    def bursts_dispatched(self, value: int) -> None:
        self.__dict__["_shadow_dispatched"] = value

    @property
    def bursts_stolen(self) -> int:
        core = self.__dict__.get("_core")
        if core is None:
            return self.__dict__.get("_shadow_stolen", 0)
        return core.bursts_stolen()

    @bursts_stolen.setter
    def bursts_stolen(self, value: int) -> None:
        self.__dict__["_shadow_stolen"] = value

    def __repr__(self) -> str:
        running, queued, idle = self._core.stats()
        return (f"<CompiledCpuScheduler {running} running, "
                f"{queued} queued, {idle} idle>")


def make_scheduler(sim: Simulator, machine: Machine,
                   online: CpuSet | None = None,
                   smt_model: SmtModel | None = None,
                   frequency_model: FrequencyModel | None = None,
                   perf_model: PerfModel | None = None, *,
                   compiled: bool | None = None) -> CpuScheduler:
    """A scheduler for ``sim``: the C core when the model layer is built
    and the simulator runs the compiled kernel, else the reference.

    ``compiled`` forces the choice (the deployment resolves it once so
    all of its machinery agrees); ``None`` re-derives it from the
    simulator's kernel backend.
    """
    if compiled is None:
        from repro.sim.kernel import model_available
        compiled = (sim.kernel_backend == "compiled" and model_available())
    cls = CompiledCpuScheduler if compiled else CpuScheduler
    return cls(sim, machine, online=online, smt_model=smt_model,
               frequency_model=frequency_model, perf_model=perf_model)
