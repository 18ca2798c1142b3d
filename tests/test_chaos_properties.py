"""Property-based tests for the chaos campaign engine.

Three invariants the ISSUE's acceptance criteria pin down:

* request conservation — under *any* catalog scenario, the traced root
  spans and the metered completions are exactly the roots whose service
  finished, respectively whose response landed, inside the measurement
  window (faults may fail requests, but never lose or double-count one);
* healthy control — a fault-free run always grades PASS with an empty
  blast radius;
* closure confinement — the analyzer never attributes degradation to a
  service outside the fault target's upstream closure, for arbitrary
  synthetic span tables.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chaos.campaign import execute_cell, run_cell
from repro.chaos.cascade import analyze_cascade
from repro.chaos.catalog import builtin_catalog, scenario_by_name
from repro.experiments.common import ExperimentSettings, build_application
from repro.services.deployment import Deployment
from repro.tracing.collector import TraceCollector
from repro.workload.cohorts import closed_workload
from repro.workload.faults import FaultInjector
from repro.workload.runner import run_experiment

SCENARIO_NAMES = [scenario.name for scenario in builtin_catalog()]


def tiny_settings(seed, users=16):
    return ExperimentSettings.fast(preset="tiny", users=users,
                                   warmup=0.1, duration=0.25, seed=seed)


def traced_from_start(cell_settings, schedule):
    """``execute_cell``'s run with the tracer attached at t=0, not at the
    window start; returns the result, the tracer and the fabric's hop
    latency before any fault."""
    deployment = Deployment(cell_settings.machine(), seed=cell_settings.seed,
                            memory_config=cell_settings.memory_config)
    store = build_application(cell_settings, deployment)
    FaultInjector(deployment).apply(schedule)
    workload = closed_workload(
        deployment, store.session_factory(), n_users=cell_settings.users,
        think_time=cell_settings.think_time,
        cohort_factor=cell_settings.cohort_factor)
    base_hop = deployment.rpc.hop_latency
    deployment.tracer = TraceCollector()
    result = run_experiment(deployment, workload,
                            warmup=cell_settings.warmup,
                            duration=cell_settings.duration)
    return result, deployment.tracer, base_hop


def return_hop(schedule, base_hop, when):
    """The fabric's hop latency at ``when``: the base times every
    netdelay factor whose window is open then."""
    product = 1.0
    for entry in schedule:
        if entry["kind"] != "netdelay":
            continue
        end = entry["time"] + entry.get("duration", math.inf)
        if entry["time"] <= when < end:
            product *= entry["factor"]
    return base_hop * product


def assert_requests_conserved(cell_settings, schedule):
    outcome = execute_cell(cell_settings, schedule, None, trace=True)
    tracer = outcome.tracer
    result, everything, base_hop = traced_from_start(cell_settings,
                                                     schedule)
    assert result == outcome.result  # tracing changes no metric
    start = cell_settings.warmup
    end = start + cell_settings.duration
    roots = everything.roots
    # The tracer records a root when its service finishes it, and is
    # attached after every event at the window start has run: it holds
    # exactly the roots finished in (start, end].  (Request ids come
    # from a process-wide counter, so the two runs' ids differ.)
    def key(span):
        return span.service, span.endpoint, span.created_at, span.completed_at
    assert ([key(span) for span in tracer.roots]
            == [key(span) for span in roots if span.completed_at > start])
    # The meter counts a root when its response reaches the user, one
    # return hop after the root finished, and netdelay faults stretch
    # that hop.  So a root finished before the tracer attached can be
    # metered, and one finished just before the window closes is traced
    # but not metered: metered are the roots whose response lands in
    # (start, end].
    landed = [span.completed_at
              + return_hop(schedule, base_hop, span.completed_at)
              for span in roots]
    assert result.completed == sum(start < at <= end for at in landed)
    # And no span travels backwards in time, faults or not.
    table = tracer.table
    created = table.created.as_array()
    enqueued = table.enqueued.as_array()
    started = table.started.as_array()
    completed = table.completed.as_array()
    assert (created <= enqueued).all()
    assert (enqueued <= started).all()
    assert (started <= completed).all()


@given(seed=st.integers(0, 2**16),
       name=st.sampled_from(SCENARIO_NAMES))
# A root finishes 25 us before the window closes; its response lands
# after it.
@example(seed=1293, name="net-saturation")
# A root finishes before the tracer attaches; its response lands inside.
@example(seed=5803, name="control")
@settings(max_examples=6, deadline=None)
def test_request_conservation_under_any_scenario(seed, name):
    cell_settings = tiny_settings(seed)
    assert_requests_conserved(
        cell_settings, scenario_by_name(name).schedule(cell_settings))


def test_request_conservation_with_the_return_hop_stretched():
    # The fabric runs 80x slow from t=0.3 on, across the window end at
    # 0.35: three roots finished in time for a plain hop, not this one.
    assert_requests_conserved(
        tiny_settings(2), [{"kind": "netdelay", "time": 0.3,
                            "factor": 80.0}])


@given(seed=st.integers(0, 2**16),
       users=st.integers(8, 48),
       mode=st.sampled_from(["none", "timeout", "full"]))
@settings(max_examples=6, deadline=None)
def test_healthy_control_grades_pass_with_zero_blast(seed, users, mode):
    payload = run_cell(tiny_settings(seed, users=users),
                       scenario_by_name("control"), mode)
    assert payload["grade"]["grade"] == "PASS"
    assert payload["grade"]["reasons"] == []
    assert payload["cascade"]["blast_radius"] == []
    assert payload["cascade"]["anomalies"] == []
    assert payload["cascade"]["propagation_depth"] == 0
    assert payload["cascade"]["recovered"] is True
    assert payload["error_rate"] == 0.0


@st.composite
def synthetic_tables(draw):
    """A random span forest over 2–5 services, with a target + fault."""
    n_services = draw(st.integers(2, 5))
    services = [f"s{i}" for i in range(n_services)]
    tracer = TraceCollector()
    rid = 0
    for __ in range(draw(st.integers(1, 20))):
        start = draw(st.integers(0, 95)) / 10.0
        # A random tree: span j hangs off a random earlier span.
        ids = []
        for j in range(draw(st.integers(1, n_services))):
            parent = (None if j == 0
                      else ids[draw(st.integers(0, j - 1))])
            latency = draw(st.integers(1, 40)) / 10.0
            tracer.add_span(rid, parent, services[j], "op", j,
                            created_at=start, enqueued_at=start,
                            started_at=start,
                            completed_at=start + latency)
            ids.append(rid)
            rid += 1
    target = draw(st.sampled_from(services + ["*"]))
    fault_start = draw(st.integers(0, 8))
    fault_end = draw(st.integers(fault_start + 1, 10))
    return tracer.table, target, float(fault_start), float(fault_end)


def observed_upstream_closure(table, target):
    """Independent oracle: target + transitive callers over the table's
    observed service edges (every observed service for the fabric)."""
    names = table.services
    observed = {names.decode(int(code))
                for code in set(table.service_code.as_array().tolist())}
    if target == "*":
        return observed
    if target not in observed:
        return set()
    edges = [(names.decode(a), names.decode(b))
             for a, b in table.service_edges()]
    closure = {target}
    changed = True
    while changed:
        changed = False
        for caller, callee in edges:
            if callee in closure and caller not in closure:
                closure.add(caller)
                changed = True
    return closure


@given(case=synthetic_tables())
@settings(max_examples=50, deadline=None)
def test_attribution_never_escapes_the_upstream_closure(case):
    table, target, fault_start, fault_end = case
    report = analyze_cascade(table, target=target,
                             window_start=0.0, window_end=10.0,
                             fault_start=fault_start,
                             fault_end=fault_end)
    closure = observed_upstream_closure(table, target)
    assert set(report.blast_radius) <= closure
    assert not set(report.anomalies) & closure
    assert not set(report.blast_radius) & set(report.anomalies)
    # The analyzer is a pure function of its inputs.
    again = analyze_cascade(table, target=target,
                            window_start=0.0, window_end=10.0,
                            fault_start=fault_start,
                            fault_end=fault_end)
    assert again.to_dict() == report.to_dict()
