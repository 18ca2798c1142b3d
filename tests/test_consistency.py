"""Consistency invariants across the package: catalogs, exports, wiring."""

import repro
from repro.apps import get_app
from repro.experiments import e3_core_scaling
from repro.experiments.common import ExperimentSettings


def _steps(service):
    """``{endpoint: steps}`` of one bundled TeaStore service."""
    return {endpoint.name: endpoint.steps
            for endpoint in get_app("teastore").service(service).endpoints}


def _demands(step):
    """Every CPU demand one step declares (seconds at base clock)."""
    return [value for key, value in step.items()
            if key in ("demand", "hit_demand", "miss_demand")]


def test_public_all_resolves():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.__all__ lists missing {name}"


def test_star_import_is_clean():
    namespace: dict = {}
    exec("from repro import *", namespace)  # noqa: S102 - deliberate
    assert "Deployment" in namespace
    assert "deploy_application" in namespace
    assert "get_app" in namespace


def test_webui_parse_and_render_cover_same_endpoints():
    # Every page parses the request first and renders the template last.
    for steps in _steps("webui").values():
        assert steps[0]["op"] == "compute"
        assert steps[-1]["op"] == "compute"


def test_persistence_ops_have_db_costs():
    # Every Persistence op ends in one DB query costed by its payload.
    for steps in _steps("persistence").values():
        [query] = [step for step in steps if step["op"] == "call"]
        assert query["service"] == "db"
        assert query["payload"] > 0


def test_all_demand_constants_positive():
    app = get_app("teastore")
    demands = [demand
               for service in app.services
               for endpoint in service.endpoints
               for step in endpoint.steps
               for demand in _demands(step)]
    assert len(demands) > 20
    assert all(demand > 0 for demand in demands)


def test_image_miss_costlier_than_hit():
    [full] = _steps("image")["get"]
    [preview] = _steps("image")["get_batch"]
    assert full["miss_demand"] > full["hit_demand"]
    assert preview["miss_demand"] > preview["hit_demand"]
    assert preview["hit_demand"] < full["hit_demand"]  # thumbnails


def test_webui_endpoints_match_catalog_and_profiles():
    app = get_app("teastore")
    webui_endpoints = set(app.service("webui").endpoint_names())
    # Every Markov state of both profiles is a real WebUI endpoint.
    for session in app.sessions:
        assert session.service == "webui"
        assert set(session.transitions) <= webui_endpoints


def test_cli_covers_every_experiment_module(capsys):
    import pkgutil

    import repro.experiments as experiments_package
    from repro import cli

    modules = {name for __, name, __ in pkgutil.iter_modules(
        experiments_package.__path__)}
    experiment_modules = {name for name in modules
                          if name.startswith("e") and name[1].isdigit()}
    assert cli.main(["list"]) == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()
              if line.strip()]
    registered = {experiment_id for experiment_id in listed
                  if experiment_id.startswith("e")}
    # e1..e14 all registered, one per e<N>_* module.
    assert {f"e{i}" for i in range(1, 15)} <= registered
    assert len(experiment_modules) == 14
    assert {name.split("_")[0] for name in experiment_modules} == registered


def test_e3_default_ladder_on_small_machine():
    settings = ExperimentSettings.fast(users=150, warmup=0.4, duration=0.8)
    result = e3_core_scaling.run(settings)  # default cpu_counts path
    counts = result.column("logical_cpus")
    assert counts == [16, 32, 48, 64]


def test_benchmark_files_exist_for_every_experiment():
    import pathlib
    bench_dir = pathlib.Path(__file__).parent.parent / "benchmarks"
    names = {p.stem for p in bench_dir.glob("test_*.py")}
    for i in range(1, 15):
        assert any(f"e{i}_" in name for name in names), f"no bench for e{i}"


def test_version_is_exported():
    assert repro.__version__ == "1.0.0"
