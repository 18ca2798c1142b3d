"""The system under test: machine + scheduler + memory model + services."""

from __future__ import annotations

import typing as t

from repro._errors import (
    ConfigurationError,
    DeadlineExceededError,
    ServiceUnavailableError,
)
from repro.cpu.frequency import FrequencyModel
from repro.cpu.scheduler import make_scheduler
from repro.cpu.smt import SmtModel
from repro.memory.config import MemoryConfig
from repro.memory.system import MemorySystemModel
from repro.metrics.resilience import ResilienceStats
from repro.services.instance import ServiceInstance
from repro.services.registry import ServiceRegistry
from repro.services.request import Request
from repro.services.resilience import (
    CircuitBreaker,
    ResilienceConfig,
    RetryPolicy,
)
from repro.services.rpc import RpcFabric
from repro.services.spec import ServiceSpec
from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.sim.rand import RandomStreams
from repro.topology.cpuset import CpuSet
from repro.topology.model import Machine

#: Sentinel distinguishing "no fallback registered" from ``None``.
_NO_FALLBACK = object()


class Deployment:
    """Wires all substrates together and hosts service instances.

    One :class:`Deployment` is one experimental configuration: a machine,
    the online CPU set, SMT/frequency/memory models, and a set of placed
    service replicas.  Experiments construct a fresh deployment per
    configuration (nothing is hot-swapped mid-run).
    """

    def __init__(self, machine: Machine,
                 online: CpuSet | None = None,
                 seed: int = 0,
                 smt_model: SmtModel | None = None,
                 frequency_model: FrequencyModel | None = None,
                 memory_config: MemoryConfig | None = None,
                 counter_sink: t.Any | None = None,
                 rpc: RpcFabric | None = None,
                 lb_policy: str = "round_robin",
                 resilience: ResilienceConfig | None = None):
        self.sim = Simulator()
        self.machine = machine
        self.streams = RandomStreams(seed)
        #: Whether the compiled model layer (C scheduler core + C worker
        #: machines) is active.  Resolved once per deployment from the
        #: same selection the kernel backend uses, so a deployment is
        #: all-compiled or all-reference — never a mix.
        from repro.sim.kernel import model_available
        self.compiled_model = (self.sim.kernel_backend == "compiled"
                               and model_available())
        self.memory_model = MemorySystemModel(
            machine, memory_config, counter_sink=counter_sink)
        self.scheduler = make_scheduler(
            self.sim, machine, online=online,
            smt_model=smt_model,
            frequency_model=frequency_model,
            perf_model=self.memory_model,
            compiled=self.compiled_model)
        self.rpc = rpc or RpcFabric(self.sim)
        if self.rpc.sim is not self.sim:
            raise ConfigurationError(
                "rpc fabric must be built on the deployment's simulator")
        self.registry = ServiceRegistry(default_policy=lb_policy)
        self.instances: list[ServiceInstance] = []
        #: Active resilience policy, or ``None`` when the config is
        #: absent/inert — the plain dispatch path is then used verbatim.
        self.resilience = (resilience if resilience is not None
                           and resilience.active else None)
        #: Counters kept by the resilient dispatch path (always present
        #: so callers can read it unconditionally).
        self.resilience_stats = ResilienceStats()
        self._retry_policy = (RetryPolicy(self.resilience, self.streams)
                              if self.resilience is not None else None)
        #: Service name → spec, recorded at first placement so fallbacks
        #: resolve even when every replica of a service is dead.
        self.specs: dict[str, ServiceSpec] = {}
        #: Every breaker ever attached (kills don't remove them), for
        #: whole-run telemetry such as E13's trip counts.
        self.breakers: list[CircuitBreaker] = []
        #: Optional :class:`repro.tracing.TraceCollector`; when set, every
        #: completed request is recorded as a span.
        self.tracer = None

    @property
    def online(self) -> CpuSet:
        """Online logical CPUs of this configuration."""
        return self.scheduler.online

    # ------------------------------------------------------------------
    # Instance management
    # ------------------------------------------------------------------
    def add_instance(self, spec: ServiceSpec,
                     affinity: CpuSet | None = None,
                     home_node: int | None = None) -> ServiceInstance:
        """Place one replica of ``spec``.

        ``affinity`` defaults to every online CPU (the unpinned baseline);
        ``home_node`` defaults to the NUMA node of the lowest CPU in the
        mask (first-touch allocation).
        """
        affinity = affinity if affinity is not None else self.online
        effective = affinity & self.online
        if not effective:
            raise ConfigurationError(
                f"{spec.name}: affinity {affinity.to_string()!r} has no "
                f"online CPU")
        if home_node is None:
            home_node = self.machine.cpu(effective.first()).node.index
        instance = ServiceInstance(self, spec, effective, home_node,
                                   local_id=len(self.instances))
        self.specs.setdefault(spec.name, spec)
        if self.resilience is not None and self.resilience.breaker_enabled:
            instance.breaker = CircuitBreaker.from_config(self.resilience)
            self.breakers.append(instance.breaker)
        self.registry.register(instance)
        self.memory_model.register_for_affinity(instance.group)
        self.instances.append(instance)
        return instance

    def remove_instance(self, instance: ServiceInstance) -> None:
        """Tear one replica down (registry + memory residency)."""
        self.registry.deregister(instance)
        self.memory_model.deregister(instance.group)
        self.instances.remove(instance)

    def groups(self):
        """All replicas' task groups (for utilization probes)."""
        return [instance.group for instance in self.instances]

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------
    def dispatch(self, service_name: str, endpoint: str,
                 payload: object = None,
                 parent: Request | None = None, *,
                 protected: bool = True) -> Event:
        """Route one request to a replica; returns its completion event.

        With an active resilience config the call goes through the
        resilient path: a per-call deadline spanning all attempts,
        caller-side retries under the retry budget, circuit-breaker
        consultation, and (when the target spec registered one) a
        degradation fallback.  Without one, this is a single
        fire-and-forget delivery, exactly as before.

        ``protected=False`` forces the plain path even when resilience
        is configured.  Load generators use it: the resilience layer
        protects *inter-service* RPCs, while the client edge stays
        outside the fabric — exactly like browsers hitting a datacenter
        — so measured end-to-end latency reflects what the internal
        policies deliver rather than client-side request-killing.
        """
        if self.resilience is None or not protected:
            now = self.sim.now
            done = Event(self.sim)
            request = Request(service_name, endpoint, done, payload=payload,
                              parent=parent, created_at=now)
            instance = self.registry.lookup(service_name, now=now)
            self.rpc.deliver(request, instance)
            return done
        if not self.registry.has_service(service_name):
            raise ConfigurationError(
                f"no such service: {service_name!r}; "
                f"known: {self.registry.service_names}")
        outer = Event(self.sim)
        _ResilientCall(self, service_name, endpoint, payload, parent, outer)
        return outer

    def _fallback_for(self, service_name: str, endpoint: str) -> object:
        """The registered fallback payload, or the no-fallback sentinel."""
        spec = self.specs.get(service_name)
        if spec is None or not spec.has_fallback(endpoint):
            return _NO_FALLBACK
        return spec.fallback_for(endpoint)

    def run(self, until: float | None = None) -> None:
        """Advance the simulation."""
        self.sim.run(until=until)


#: What a relay event carries when the deadline, not the response, won
#: an attempt's race.
_DEADLINE = object()


def _lookup(registry: ServiceRegistry, service_name: str, now: float,
            stats: ResilienceStats
            ) -> tuple[ServiceInstance | None, Exception | None]:
    """``registry.lookup`` with the two failures a call survives
    returned, not raised: ``(replica, None)`` or ``(None, error)``.

    A module function, not a method, so the caught error's traceback
    holds no frame that references the call: the call keeps the error
    as its last one, and a frame holding the call would close a cycle.
    """
    try:
        return registry.lookup(service_name, now=now), None
    except ConfigurationError as exc:
        # The service is known but every replica is gone.
        stats.failures += 1
        return None, exc
    except ServiceUnavailableError as exc:
        # Every accepting replica is circuit-open: fail fast.
        stats.breaker_rejected += 1
        return None, exc


class _ResilientCall:
    """One logical resilient call: attempts, backoff, breakers, degradation.

    ``outer`` resolves exactly once — with the response, with a
    fallback payload (degraded), or with the last attempt's failure.

    The deadline spans the *whole logical call* (gRPC semantics), not
    each attempt: an attempt that burns the budget waiting is terminal,
    while fast failures — shed at a dead replica, every breaker open,
    the service deregistered — leave the budget intact and are worth
    retrying.  This is what keeps retry storms from multiplying the very
    timeouts they are meant to mask.

    The call is an event-callback machine, as :class:`_WorkerMachine`
    is for the worker loop: it registers itself as the callback of the
    events it waits for, so a call allocates no generator frame,
    ``Process``, ``Timeout`` or ``AnyOf``.  It puts the same entries
    into the kernel at the same points as the ``Process`` it replaced —
    the bootstrap event; per attempt under a deadline, a deadline entry
    and a relay event where the ``AnyOf`` succeeded or failed; per
    backoff, a heap entry; ``outer``'s trigger — minus the finished
    process's own no-op trigger, so every entry keeps its
    (time, counter) order.  docs/RESILIENCE.md ("How a call runs") says
    why each entry stays and how the race keeps the ``AnyOf``'s rules.
    """

    __slots__ = ("deployment", "sim", "service_name", "endpoint", "payload",
                 "parent", "outer", "deadline", "attempt", "instance",
                 "done", "timer", "wake", "last_error")

    def __init__(self, deployment: Deployment, service_name: str,
                 endpoint: str, payload: object, parent: Request | None,
                 outer: Event):
        self.deployment = deployment
        self.sim = deployment.sim
        self.service_name = service_name
        self.endpoint = endpoint
        self.payload = payload
        self.parent = parent
        self.outer = outer
        self.deadline: float | None = None
        self.attempt = 0
        #: The replica serving the attempt in flight.
        self.instance: ServiceInstance | None = None
        #: The attempt's completion event while its race is open.
        self.done: Event | None = None
        #: The attempt's deadline entry while its race is open.
        self.timer: t.Any = None
        self.last_error: Exception | None = None
        # The bootstrap event.
        self._new_wake().succeed()

    def _new_wake(self) -> Event:
        """A bootstrap or relay event, waking this call when processed."""
        wake = self.wake = Event(self.sim)
        wake.callbacks.append(self)  # type: ignore[union-attr]
        return wake

    def __call__(self, event: Event) -> None:
        try:
            if event is self.done:
                self.done = None
                timer = self.timer
                if timer is None:
                    # No deadline: the response settles the attempt.
                    self._settle(event)
                    return
                # The response beat the deadline: relay its result.
                timer.cancel()
                self.timer = None
                if event._ok:
                    self._new_wake().succeed(event._value)
                else:
                    event._defused = True
                    self._new_wake().fail(event._value)  # type: ignore
            elif event is self.wake:
                self.wake = None
                if self.attempt:
                    self._settle(event)
                    return
                # Bootstrap: the call starts.
                deployment = self.deployment
                deployment.resilience_stats.calls += 1
                timeout = deployment.resilience.timeout  # type: ignore
                if timeout is not None:
                    self.deadline = self.sim.now + timeout
                self._attempt()
            elif not event._ok:
                # A response that lost its race to the deadline: claim
                # its failure, as the AnyOf did.
                event._defused = True
        except BaseException as exc:
            # Escalate as the failed process did: an unclaimed failed
            # event, raised out of Simulator.run on the next slot.
            Event(self.sim).fail(exc)

    def _expire(self) -> None:
        """The deadline fired with the attempt's race still open."""
        # Drop the fired handle: it holds this bound method.
        self.timer = None
        done: t.Any = self.done
        self.done = None
        # The AnyOf's rule: a response triggered but not yet processed
        # still wins.
        self._new_wake().succeed(done._value if done._ok else _DEADLINE)

    def _attempt(self) -> None:
        """Send attempts until one is in flight or the call backs off or
        ends; a failed lookup retries at once."""
        deployment = self.deployment
        sim = self.sim
        stats = deployment.resilience_stats
        deadline = self.deadline
        while True:
            self.attempt = attempt = self.attempt + 1
            stats.attempts += 1
            now = sim.now
            done = Event(sim)
            request = Request(self.service_name, self.endpoint, done,
                              payload=self.payload, parent=self.parent,
                              created_at=now, attempt=attempt,
                              deadline=deadline)
            instance, failure = _lookup(deployment.registry,
                                        self.service_name, now, stats)
            if instance is not None:
                if instance.breaker is not None:
                    instance.breaker.note_dispatch(now)
                deployment.rpc.deliver(request, instance)
                if deadline is not None:
                    # Timeout's arithmetic: call_in(deadline - now).
                    self.timer = sim.schedule(now + (deadline - now),
                                              self._expire)
                self.instance = instance
                self.done = done
                done.callbacks.append(self)  # type: ignore[union-attr]
                return
            if not self._retry_now(failure):  # type: ignore[arg-type]
                return

    def _backoff_over(self) -> None:
        """The backoff entry fired: send the next attempt."""
        try:
            self._attempt()
        except BaseException as exc:
            Event(self.sim).fail(exc)  # as in __call__

    def _settle(self, event: Event) -> None:
        """End the attempt on ``event``: its response, or the relay that
        carries its race's result."""
        stats = self.deployment.resilience_stats
        breaker = self.instance.breaker  # type: ignore[union-attr]
        self.instance = None
        if event._ok:
            value = event._value
            if value is not _DEADLINE:
                stats.successes += 1
                if breaker is not None:
                    breaker.record_success(self.sim.now)
                self.outer.succeed(value)
                return
            stats.timeouts += 1
            failure: Exception = DeadlineExceededError(
                f"{self.service_name}/{self.endpoint} missed its "
                f"{self.deployment.resilience.timeout}s "  # type: ignore
                f"deadline (attempt {self.attempt})")
        else:
            event._defused = True
            if not isinstance(event._value, Exception):
                # Not a failure a call handles: escalate (see __call__).
                raise event._value  # type: ignore[misc]
            failure = event._value
            stats.failures += 1
        if breaker is not None:
            breaker.record_failure(self.sim.now)
        if self._retry_now(failure):
            self._attempt()

    def _retry_now(self, failure: Exception) -> bool:
        """After a failed attempt: True to send the next one at once;
        False when the call backs off or ends."""
        self.last_error = failure
        deployment = self.deployment
        stats = deployment.resilience_stats
        policy = t.cast(RetryPolicy, deployment._retry_policy)
        now = self.sim.now
        deadline = self.deadline
        if ((deadline is not None and now >= deadline)
                or not policy.should_retry(self.attempt, stats)):
            # The deadline covers all attempts, or retries are spent.
            self._give_up()
            return False
        delay = policy.backoff(self.service_name, self.attempt)
        if deadline is not None and now + delay >= deadline:
            self._give_up()  # backing off would outlive the deadline
            return False
        stats.retries += 1
        if delay > 0:
            self.sim.schedule(now + delay, self._backoff_over)
            return False
        return True

    def _give_up(self) -> None:
        """Degrade to the registered fallback, or fail ``outer``."""
        deployment = self.deployment
        stats = deployment.resilience_stats
        if t.cast(ResilienceConfig, deployment.resilience).degradation:
            fallback = deployment._fallback_for(self.service_name,
                                                self.endpoint)
            if fallback is not _NO_FALLBACK:
                stats.degraded += 1
                self.outer.succeed(fallback)
                return
        stats.errors += 1
        self.outer.fail(t.cast(Exception, self.last_error))
