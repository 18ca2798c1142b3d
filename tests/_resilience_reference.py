"""The resilient call as a generator: the reference for its callback machine.

:class:`repro.services.deployment._ResilientCall` runs one logical
resilient call as an event-callback machine.  Before it, the call was
the generator below, driven as a ``Process`` that raced each attempt's
response against a ``Timeout`` through an ``AnyOf``.  It is kept here
unchanged (``self`` became ``deployment``) so the differential tests can
run a system both ways and require identical results.
"""

import contextlib
import typing as t

from repro._errors import (
    ConfigurationError,
    DeadlineExceededError,
    ServiceUnavailableError,
)
from repro.services import deployment as deployment_module
from repro.services.deployment import _NO_FALLBACK, Deployment
from repro.services.instance import ServiceInstance
from repro.services.request import Request
from repro.services.resilience import ResilienceConfig, RetryPolicy
from repro.sim.events import Event


def resilient_call(deployment: Deployment, service_name: str, endpoint: str,
                   payload: object, parent: Request | None,
                   outer: Event) -> t.Generator:
    """One logical call: attempts, backoff, breakers, degradation.

    ``outer`` resolves exactly once — with the response, with a
    fallback payload (degraded), or with the last attempt's failure.

    The deadline spans the *whole logical call* (gRPC semantics),
    not each attempt: an attempt that burns the budget waiting is
    terminal, while fast failures — shed at a dead replica, every
    breaker open, the service deregistered — leave the budget intact
    and are worth retrying.  This is what keeps retry storms from
    multiplying the very timeouts they are meant to mask.
    """
    config = t.cast(ResilienceConfig, deployment.resilience)
    policy = t.cast(RetryPolicy, deployment._retry_policy)
    stats = deployment.resilience_stats
    stats.calls += 1
    deadline = (deployment.sim.now + config.timeout
                if config.timeout is not None else None)
    attempt = 0
    last_error: Exception = ConfigurationError(
        f"call to {service_name}/{endpoint} never attempted")
    while True:
        attempt += 1
        stats.attempts += 1
        done = deployment.sim.event()
        request = Request(service_name, endpoint, done, payload=payload,
                          parent=parent, created_at=deployment.sim.now,
                          attempt=attempt, deadline=deadline)
        instance: ServiceInstance | None = None
        failure: Exception | None = None
        try:
            instance = deployment.registry.lookup(service_name,
                                                  now=deployment.sim.now)
        except ConfigurationError as exc:
            # The service is known but every replica is gone.
            failure = exc
            stats.failures += 1
        except ServiceUnavailableError as exc:
            # Every accepting replica is circuit-open: fail fast.
            failure = exc
            stats.breaker_rejected += 1
        if instance is not None:
            if instance.breaker is not None:
                instance.breaker.note_dispatch(deployment.sim.now)
            deployment.rpc.deliver(request, instance)
            value: object = None
            if deadline is None:
                try:
                    value = yield done
                except Exception as exc:
                    failure = exc
                    stats.failures += 1
            else:
                race = done | deployment.sim.timeout(
                    deadline - deployment.sim.now)
                try:
                    winners = t.cast(dict, (yield race))
                except Exception as exc:
                    failure = exc
                    stats.failures += 1
                else:
                    if done in winners:
                        value = winners[done]
                    else:
                        stats.timeouts += 1
                        failure = DeadlineExceededError(
                            f"{service_name}/{endpoint} missed its "
                            f"{config.timeout}s deadline "
                            f"(attempt {attempt})")
            if failure is None:
                stats.successes += 1
                if instance.breaker is not None:
                    instance.breaker.record_success(deployment.sim.now)
                outer.succeed(value)
                return
            if instance.breaker is not None:
                instance.breaker.record_failure(deployment.sim.now)
        last_error = t.cast(Exception, failure)
        if deadline is not None and deployment.sim.now >= deadline:
            break  # budget burned; the deadline covers all attempts
        if not policy.should_retry(attempt, stats):
            break
        delay = policy.backoff(service_name, attempt)
        if deadline is not None and deployment.sim.now + delay >= deadline:
            break  # backing off would outlive the deadline
        stats.retries += 1
        if delay > 0:
            yield deployment.sim.timeout(delay)
    if config.degradation:
        fallback = deployment._fallback_for(service_name, endpoint)
        if fallback is not _NO_FALLBACK:
            stats.degraded += 1
            outer.succeed(fallback)
            return
    stats.errors += 1
    outer.fail(last_error)


def _start_reference_call(deployment: Deployment, service_name: str,
                          endpoint: str, payload: object,
                          parent: Request | None, outer: Event) -> None:
    """``_ResilientCall``'s signature, driving the generator instead."""
    deployment.sim.process(resilient_call(
        deployment, service_name, endpoint, payload, parent, outer))


@contextlib.contextmanager
def reference_calls() -> t.Iterator[None]:
    """Within the block, resilient dispatch runs the reference generator.

    Run the whole simulation inside the block: a call keeps the
    implementation it started with.
    """
    machine = deployment_module._ResilientCall
    deployment_module._ResilientCall = _start_reference_call  # type: ignore
    try:
        yield
    finally:
        deployment_module._ResilientCall = machine  # type: ignore
