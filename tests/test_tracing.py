"""Unit + integration tests for distributed tracing."""

import tracemalloc

import pytest

from repro._errors import AnalysisError
from repro._units import ms
from repro.cpu import FlatFrequencyModel, SmtModel
from repro.memory import WorkloadProfile
from repro.services import Deployment, ServiceSpec
from repro.tracing import TraceCollector
from repro.tracing.collector import _union_length


def add_span(collector, request_id, parent_id=None, service="svc",
             endpoint="op", created=0.0, enqueued=0.0, started=0.0,
             completed=1.0):
    return collector.add_span(request_id, parent_id, service, endpoint, 0,
                              created, enqueued, started, completed)


# ---------------------------------------------------------------------------
# _union_length
# ---------------------------------------------------------------------------

def test_union_length_empty():
    assert _union_length([]) == 0.0


def test_union_length_disjoint():
    assert _union_length([(0, 1), (2, 3)]) == pytest.approx(2.0)


def test_union_length_overlapping():
    assert _union_length([(0, 2), (1, 3)]) == pytest.approx(3.0)


def test_union_length_nested():
    assert _union_length([(0, 10), (2, 3), (4, 5)]) == pytest.approx(10.0)


def test_union_length_unsorted_input():
    assert _union_length([(5, 6), (0, 2), (1, 3)]) == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# Span / collector mechanics
# ---------------------------------------------------------------------------

def test_span_derived_times():
    span = add_span(TraceCollector(), 1, created=1.0, enqueued=1.1,
                    started=1.4, completed=2.0)
    assert span.duration == pytest.approx(1.0)
    assert span.queue_time == pytest.approx(0.3)
    assert span.service_time == pytest.approx(0.6)


def test_collector_exclusive_time_subtracts_children_union():
    collector = TraceCollector()
    root = add_span(collector, 1, created=0.0, completed=10.0)
    # Two parallel children overlapping 2..5 and 3..7 → union 5.
    add_span(collector, 2, parent_id=1, created=2.0, completed=5.0)
    add_span(collector, 3, parent_id=1, created=3.0, completed=7.0)
    assert collector.exclusive_time(root) == pytest.approx(5.0)


def test_collector_exclusive_time_no_children():
    collector = TraceCollector()
    root = add_span(collector, 1, created=0.0, completed=4.0)
    assert collector.exclusive_time(root) == pytest.approx(4.0)


def test_add_span_builds_queryable_table():
    collector = TraceCollector()
    root = add_span(collector, 1, service="frontend", endpoint="page",
                    created=0.0, completed=4.0)
    child = add_span(collector, 2, parent_id=1, service="backend",
                     created=1.0, completed=2.0)
    assert len(collector) == 2
    assert collector.roots == [root]
    assert collector.children_of(root) == [child]
    assert child.parent_id == 1
    breakdown = collector.breakdown("page")
    assert breakdown["frontend"] == pytest.approx(3.0)
    assert breakdown["backend"] == pytest.approx(1.0)


def test_breakdown_requires_roots():
    with pytest.raises(AnalysisError):
        TraceCollector().breakdown()
    with pytest.raises(AnalysisError):
        TraceCollector().mean_root_latency()


def test_add_span_rejects_negative_ids():
    # The table stores a missing parent as -1, so a negative id would
    # read as "no parent" (or as every root's parent).
    collector = TraceCollector()
    with pytest.raises(AnalysisError):
        add_span(collector, -1)
    with pytest.raises(AnalysisError):
        add_span(collector, 1, parent_id=-1)
    assert len(collector) == 0


def test_recording_a_span_costs_only_its_column_bytes():
    """No per-span Python object: no index entry, no boxed id."""
    collector = TraceCollector()
    table = collector.table
    spans = 100_000
    first = 1_000  # above the small-int cache: every id is a new object
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(spans):
            request_id = first + i
            parent_id = None if i % 5 == 0 else request_id - i % 5
            collector.add_span(request_id, parent_id, "svc", "op", i % 4,
                               0.0, 0.0, 0.0, 1.0)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    column_bytes = sum(column.nbytes for column in (
        table.request_id, table.parent_id, table.instance_id,
        table.service_code, table.endpoint_code, table.created,
        table.enqueued, table.started, table.completed))
    # 64 B of columns per row plus doubling slack; one byte per span of
    # headroom is less than any Python object or list slot would take.
    assert grown / spans <= column_bytes / spans + 1


# ---------------------------------------------------------------------------
# End-to-end tracing through a deployment
# ---------------------------------------------------------------------------

def traced_system():
    from repro.topology import tiny_machine
    deployment = Deployment(tiny_machine(), seed=0,
                            smt_model=SmtModel(2.0),
                            frequency_model=FlatFrequencyModel())
    deployment.rpc.hop_latency = 0.0
    profile = WorkloadProfile("x", 1024, 1024, 0.1, 0.1)

    backend = ServiceSpec("backend", profile, workers=4)

    @backend.endpoint("q")
    def q(ctx):
        yield ctx.submit_demand(ms(2.0))
        return "rows"

    frontend = ServiceSpec("frontend", profile, workers=4)

    @frontend.endpoint("page")
    def page(ctx):
        yield ctx.submit_demand(ms(1.0))
        first = ctx.call("backend", "q")
        second = ctx.call("backend", "q")
        yield ctx.gather(first, second)
        yield ctx.submit_demand(ms(0.5))
        return "html"

    deployment.add_instance(backend)
    deployment.add_instance(frontend)
    deployment.tracer = TraceCollector()
    return deployment


def test_end_to_end_trace_tree():
    deployment = traced_system()
    done = deployment.dispatch("frontend", "page")
    deployment.run()
    assert done.ok
    tracer = deployment.tracer
    assert len(tracer) == 3  # 1 frontend + 2 backend spans
    assert len(tracer.roots) == 1
    root = tracer.roots[0]
    assert root.service == "frontend"
    children = tracer.children_of(root)
    assert len(children) == 2
    assert all(c.service == "backend" for c in children)
    assert len(tracer.trace_of(root)) == 3


def test_end_to_end_exclusive_time_decomposition():
    deployment = traced_system()
    deployment.dispatch("frontend", "page")
    deployment.run()
    tracer = deployment.tracer
    breakdown = tracer.breakdown("page")
    # Frontend own CPU = 1.0 + 0.5 ms; backend calls run in parallel on
    # distinct cores → backend union window ≈ 2ms.
    assert breakdown["frontend"] == pytest.approx(ms(1.5), rel=0.05)
    assert breakdown["backend"] == pytest.approx(ms(2.0), rel=0.05)
    total = sum(breakdown.values())
    assert total == pytest.approx(tracer.mean_root_latency(), rel=0.05)


def test_tracer_reset():
    deployment = traced_system()
    deployment.dispatch("frontend", "page")
    deployment.run()
    deployment.tracer.reset()
    assert len(deployment.tracer) == 0
    assert deployment.tracer.roots == []


def test_breakdown_filters_by_endpoint():
    deployment = traced_system()
    deployment.dispatch("frontend", "page")
    deployment.run()
    with pytest.raises(AnalysisError):
        deployment.tracer.breakdown("missing-endpoint")


def test_chrome_trace_export():
    import json
    deployment = traced_system()
    deployment.dispatch("frontend", "page")
    deployment.dispatch("frontend", "page")
    deployment.run()
    events = deployment.tracer.to_chrome_trace()
    assert len(events) == 6  # 2 roots × 3 spans
    json.dumps(events)  # must be serializable
    for event in events:
        assert event["ph"] == "X"
        assert event["dur"] > 0
        assert "/" in event["name"]
    limited = deployment.tracer.to_chrome_trace(limit_roots=1)
    assert len(limited) == 3
    root_ids = {event["args"]["root_id"] for event in limited}
    assert len(root_ids) == 1


def test_tracing_off_by_default_costs_nothing():
    deployment = traced_system()
    deployment.tracer = None
    done = deployment.dispatch("frontend", "page")
    deployment.run()
    assert done.ok
