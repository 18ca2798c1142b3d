"""Declarative application specs: validation, round-trip, determinism.

Covers the :mod:`repro.apps` layer introduced with the cross-application
family: eager spec validation (unknown call targets, cycles, negative
demands, broken role bindings), byte-stable JSON round-trips, the
bundled-spec lint gate, ``--app`` plumbing through the experiments, and
per-application determinism smoke digests for the two non-TeaStore
graphs on every kernel backend.
"""

import dataclasses
import hashlib
import json

import pytest

from repro._errors import ConfigurationError
from repro.apps import (
    APP_NAMES,
    deploy_application,
    get_app,
    loads,
    verify_bundled,
)
from repro.apps.spec import (
    ApplicationSpec,
    EndpointDef,
    ServiceDef,
    SessionDef,
)
from repro.chaos.catalog import builtin_catalog, resolve_target
from repro.experiments import e9_characterization, e11_latency_breakdown
from repro.experiments.common import (
    ExperimentSettings,
    default_counts,
    run_store,
)
from repro.placement.policies import unpinned
from repro.services.deployment import Deployment
from repro.sim import kernel
from repro.memory.profile import WorkloadProfile

from tests._kernels import backend_params


def _profile(name):
    return WorkloadProfile(name=name, code_bytes=1 << 20,
                           data_bytes=1 << 20, mem_intensity=0.3,
                           frontend_intensity=0.3)


def _service(name, endpoints, shared_lock=False, demand_weight=0.5):
    return ServiceDef(name=name, profile=_profile(name),
                      replicas=1, workers=4, fast_replicas=1,
                      fast_workers=4, demand_weight=demand_weight,
                      shared_lock=shared_lock, endpoints=endpoints)


def _minimal_spec(**overrides):
    """A tiny two-service app; overrides patch individual fields."""
    values = dict(
        name="mini",
        description="two services",
        services=(
            _service("front", (
                EndpointDef(name="home", steps=(
                    {"op": "compute", "demand": 0.001},
                    {"op": "call", "service": "back",
                     "endpoint": "load"},
                )),
            )),
            _service("back", (
                EndpointDef(name="load", steps=(
                    {"op": "compute", "demand": 0.002},
                )),
            )),
        ),
        sessions=(
            SessionDef(name="browse", service="front", start="home",
                       transitions={"home": (("home", 1.0),)}),
        ),
        default_session="browse",
        chaos_targets={"orchestrator": "front", "hottest": "front",
                       "storage": "back"},
    )
    values.update(overrides)
    return ApplicationSpec(**values)


# ----------------------------------------------------------------------
# Eager validation
# ----------------------------------------------------------------------
def test_minimal_spec_validates():
    spec = _minimal_spec()
    assert spec.call_graph() == {"front": ("back",), "back": ()}


def test_unknown_call_target_service_raises():
    with pytest.raises(ConfigurationError, match="unknown call target"):
        _minimal_spec(services=(
            dataclasses.replace(
                _minimal_spec().services[0],
                endpoints=(EndpointDef(name="home", steps=(
                    {"op": "call", "service": "ghost",
                     "endpoint": "load"},)),)),
            _minimal_spec().services[1],
        ))


def test_unknown_call_target_endpoint_raises():
    with pytest.raises(ConfigurationError, match="unknown call target"):
        _minimal_spec(services=(
            dataclasses.replace(
                _minimal_spec().services[0],
                endpoints=(EndpointDef(name="home", steps=(
                    {"op": "call", "service": "back",
                     "endpoint": "ghost"},)),)),
            _minimal_spec().services[1],
        ))


def test_cyclic_call_graph_raises():
    back = dataclasses.replace(
        _minimal_spec().services[1],
        endpoints=(EndpointDef(name="load", steps=(
            {"op": "call", "service": "front", "endpoint": "home"},)),))
    with pytest.raises(ConfigurationError, match="cyclic call graph"):
        _minimal_spec(services=(_minimal_spec().services[0], back))


def test_negative_demand_raises():
    with pytest.raises(ConfigurationError, match="negative demand"):
        EndpointDef(name="home", steps=(
            {"op": "compute", "demand": -0.001},))


def test_unknown_step_op_raises():
    with pytest.raises(ConfigurationError):
        EndpointDef(name="home", steps=({"op": "teleport"},))


def test_serialized_query_requires_shared_lock():
    back = dataclasses.replace(
        _minimal_spec().services[1],
        endpoints=(EndpointDef(name="load", steps=(
            {"op": "serialized_query", "serial_fraction": 0.5},)),))
    with pytest.raises(ConfigurationError, match="shared_lock"):
        _minimal_spec(services=(_minimal_spec().services[0], back))


def test_session_transition_probabilities_must_sum_to_one():
    with pytest.raises(ConfigurationError):
        _minimal_spec(sessions=(
            SessionDef(name="browse", service="front", start="home",
                       transitions={"home": (("home", 0.5),)}),))


def test_missing_chaos_role_binding_raises():
    with pytest.raises(ConfigurationError):
        _minimal_spec(chaos_targets={"orchestrator": "front"})


def test_chaos_role_bound_to_unknown_service_raises():
    with pytest.raises(ConfigurationError):
        _minimal_spec(chaos_targets={"orchestrator": "front",
                                     "hottest": "front",
                                     "storage": "ghost"})


def test_malformed_json_raises():
    with pytest.raises(ConfigurationError, match="malformed application"):
        loads("{not json")


def test_unknown_app_name_raises():
    with pytest.raises(ConfigurationError, match="unknown application"):
        get_app("webstore")


# ----------------------------------------------------------------------
# Round-trip and the bundled lint gate
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", APP_NAMES)
def test_spec_round_trip_is_byte_stable(name):
    spec = get_app(name)
    text = spec.dumps()
    reloaded = loads(text)
    assert reloaded.dumps() == text
    assert reloaded.to_dict() == spec.to_dict()


def test_verify_bundled_reports_no_problems():
    assert verify_bundled() == []


def test_minimal_spec_round_trips_through_dict():
    spec = _minimal_spec()
    assert ApplicationSpec.from_dict(spec.to_dict()).dumps() == spec.dumps()


# ----------------------------------------------------------------------
# Chaos catalog derivation for the new graphs
# ----------------------------------------------------------------------
def test_boutique_chaos_targets_resolve():
    app = get_app("boutique")
    assert resolve_target("orchestrator", app) == "frontend"
    assert resolve_target("hottest", app) == "currency"
    assert resolve_target("storage", app) == "redis"


def test_socialnet_catalog_derives_blast_from_graph():
    app = get_app("socialnet")
    catalog = builtin_catalog(app)
    db_io = next(s for s in catalog if s.name == "db-io")
    assert db_io.target_for(app) == "post_storage"
    assert db_io.expectation.allowed_blast == (
        "compose", "frontend", "home_timeline", "post_storage",
        "user_timeline")
    fabric = next(s for s in catalog if s.name == "net-saturation")
    assert set(fabric.expectation.allowed_blast) == set(app.service_names())


def test_teastore_catalog_is_unchanged_by_derivation():
    cell = builtin_catalog()[1].to_dict()
    assert cell["expectation"]["allowed_blast"] == ["auth", "webui"]
    assert cell["expectation"]["max_depth"] == 2


# ----------------------------------------------------------------------
# Experiment plumbing
# ----------------------------------------------------------------------
def _settings(app, seed=1):
    return ExperimentSettings.fast(preset="tiny", users=32, warmup=0.1,
                                   duration=0.25, seed=seed, app=app)


def test_default_counts_follow_the_active_application():
    counts = default_counts(_settings("boutique"))
    assert set(counts) == set(get_app("boutique").service_names())
    assert counts["frontend"] == get_app("boutique", fast=True).service(
        "frontend").replicas


def test_run_store_deploys_any_app_per_allocation():
    settings = _settings("boutique")
    counts = default_counts(settings)
    counts["frontend"] += 1
    counts["currency"] += 2
    allocation = unpinned(settings.machine(), counts)
    result, __, store = run_store(settings, allocation=allocation)
    assert store.spec.name == "boutique"
    assert store.replica_counts() == counts
    assert result.completed > 0


def test_e9_reports_the_active_apps_services():
    settings = ExperimentSettings.fast(preset="tiny", users=64, warmup=0.1,
                                       duration=0.9, app="boutique")
    result = e9_characterization.run(settings, kernel_bursts=10)
    services = [row["workload"] for row in result.rows
                if row["class"] == "microservice"]
    assert services == list(get_app("boutique").service_names())
    assert len(result.rows) == len(services) + 3  # plus the kernels


def test_e11_needs_the_buy_session_before_any_point_runs():
    with pytest.raises(ConfigurationError, match="no session 'buy'"):
        e11_latency_breakdown.sweep_points(_settings("boutique"))


def test_replicas_error_names_the_apps_own_services():
    settings = _settings("socialnet")
    deployment = Deployment(settings.machine(), seed=1)
    store = deploy_application(deployment, settings.application())
    with pytest.raises(ConfigurationError) as excinfo:
        store.replicas("webui")
    assert "post_storage" in str(excinfo.value)
    assert "webui" not in str(excinfo.value).split("known:")[1]


# ----------------------------------------------------------------------
# Determinism smoke digests (both kernels, both new apps)
# ----------------------------------------------------------------------
def _run_digest(app, backend):
    with kernel.use_backend(backend):
        result, __, store = run_store(_settings(app))
    material = json.dumps({
        "throughput": result.throughput,
        "p99": result.latency_p99,
        "completed": result.completed,
        "errors": result.errors,
        "per_service": result.service_utilization,
        "counts": store.replica_counts(),
    }, sort_keys=True)
    return hashlib.sha256(material.encode()).hexdigest()


@pytest.mark.parametrize("backend", backend_params())
@pytest.mark.parametrize("app", ("boutique", "socialnet"))
def test_app_runs_are_deterministic_per_kernel(app, backend):
    first = _run_digest(app, backend)
    second = _run_digest(app, backend)
    assert first == second
    result, __, __ = run_store(_settings(app))
    assert result.completed > 0
    assert result.errors == 0


@pytest.mark.parametrize("app", ("boutique", "socialnet"))
def test_app_digests_match_across_kernels(app):
    if not kernel.compiled_available():
        pytest.skip("compiled kernel not built")
    assert _run_digest(app, "python") == _run_digest(app, "compiled")
