"""Integration tests for the experiment harness (fast settings)."""

import dataclasses

import pytest

from repro.apps import get_app
from repro.experiments import ExperimentSettings
from repro.experiments import (
    ablations,
    e1_platform,
    e2_load_scaling,
    e3_core_scaling,
    e4_smt,
    e5_utilization,
    e6_service_scaling,
    e7_placement,
    e8_headline,
    e9_characterization,
    e10_numa,
    e11_latency_breakdown,
)
from repro._errors import ConfigurationError
from repro.experiments.common import format_table
from repro.orchestrator import plan_sweep


def fast(**overrides):
    values = dict(users=250, warmup=0.5, duration=1.0)
    values.update(overrides)
    return ExperimentSettings.fast(**values)


def test_settings_profiles():
    full = ExperimentSettings.full()
    assert full.preset == "rome-1s"
    quick = ExperimentSettings.fast()
    assert quick.preset == "medium"
    assert quick.users < full.users


def test_application_sized_to_machine():
    fast_app = ExperimentSettings.fast().application()
    assert fast_app.service("webui").replicas == 2
    assert ExperimentSettings.full().application().service(
        "webui").replicas == 4


def test_format_table_alignment_and_empty():
    assert format_table([]) == "(no rows)"
    table = format_table([{"a": 1, "b": 1.23456}, {"a": 200, "b": 7.0}])
    lines = table.splitlines()
    assert len(lines) == 4
    assert "1.235" in table
    assert all(len(line) == len(lines[0]) for line in lines[1:])


def test_e1_platform_rows():
    result = e1_platform.run(ExperimentSettings())
    attributes = {row["attribute"] for row in result.rows}
    assert "logical_cpus" in attributes
    logical = next(r for r in result.rows
                   if r["attribute"] == "logical_cpus")
    assert logical["value"] == 128
    assert "E1" in result.render()


def test_e2_load_scaling_monotone_then_saturating():
    result = e2_load_scaling.run(fast(), user_counts=(25, 100, 400))
    throughputs = result.column("throughput_rps")
    assert throughputs[0] < throughputs[-1]
    latencies = result.column("latency_mean_ms")
    assert latencies[-1] > latencies[0]  # saturation costs latency
    assert result.notes


def test_e3_core_scaling_speedup_grows():
    result = e3_core_scaling.run(fast(), cpu_counts=(16, 32, 64))
    speedups = result.column("speedup")
    assert speedups[0] == pytest.approx(1.0)
    assert speedups[-1] > 1.5
    efficiencies = result.column("efficiency")
    assert all(e <= 1.05 for e in efficiencies)


def test_e3_validates_cpu_counts():
    from repro._errors import ConfigurationError
    with pytest.raises(ConfigurationError):
        e3_core_scaling.run(fast(), cpu_counts=(0,))
    with pytest.raises(ConfigurationError):
        e3_core_scaling.run(fast(), cpu_counts=(10_000,))


def test_e4_smt_gives_uplift():
    result = e4_smt.run(fast(users=600))
    uplifts = result.column("uplift_vs_smt_off")
    assert uplifts[0] == 1.0
    assert uplifts[1] > 1.05  # SMT on beats SMT off


def test_e5_utilization_covers_all_services_and_sums_to_one():
    result = e5_utilization.run(fast())
    services = set(result.column("service"))
    assert services == set(get_app("teastore").profiles())
    shares = result.column("cpu_share_pct")
    assert sum(shares) == pytest.approx(100.0)
    assert shares == sorted(shares, reverse=True)


def test_e6_service_scaling_webui_converts_ccxs_to_throughput():
    result = e6_service_scaling.run(
        fast(users=600),
        sweeps={"webui": (1, 2), "recommender": (1, 2)})
    webui = [r for r in result.rows if r["service"] == "webui"]
    recommender = [r for r in result.rows if r["service"] == "recommender"]
    webui_gain = webui[-1]["throughput_rps"] / webui[0]["throughput_rps"]
    recommender_gain = (recommender[-1]["throughput_rps"]
                        / recommender[0]["throughput_rps"])
    # WebUI is the heavy service: extra CCXs pay; the light Recommender
    # was never the bottleneck, so extra CCXs buy ~nothing.
    assert webui_gain > 1.10
    assert recommender_gain < webui_gain
    assert any("gains stop" in note for note in result.notes)


def test_e6_rejects_oversized_target():
    from repro._errors import ConfigurationError
    with pytest.raises(ConfigurationError):
        e6_service_scaling.run(fast(), sweeps={"webui": (6,)})
    with pytest.raises(ConfigurationError):
        e6_service_scaling.run(fast(), sweeps={"ghost": (1,)})


def test_e6_default_ladders_drop_points_that_do_not_fit():
    # 8 CCXs, 6 services: a target can own at most 8 - 5 = 3 CCXs.
    medium = plan_sweep("e6", fast())
    assert [p.label for p in medium] == [
        f"{service}@{n}ccx" for service in ("webui", "persistence",
                                            "image", "auth")
        for n in (1, 2)]
    rome = plan_sweep("e6", fast(preset="rome-1s"))
    assert len(rome) == sum(map(len, e6_service_scaling.DEFAULT_SWEEPS
                                .values()))
    with pytest.raises(ConfigurationError, match="at least 6 CCXs"):
        plan_sweep("e6", fast(preset="tiny"))


@pytest.mark.parametrize("experiment_id,overrides,match", [
    ("e13", {"app": "socialnet"},
     "persistence, recommender, which application 'socialnet'"),
    ("e13", {"app": "boutique"},
     "persistence, recommender, which application 'boutique'"),
    ("e11", {"shards": 4}, "E11 builds its own deployments"),
    ("e12", {"shards": 4}, "E12 builds its own deployments"),
    ("e13", {"shards": 4}, "E13 builds its own deployments"),
    ("chaos", {"shards": 4}, "chaos campaign builds its own deployments"),
], ids=["e13-socialnet", "e13-boutique", "e11-shards", "e12-shards",
        "e13-shards", "chaos-shards"])
def test_sweep_points_refuse_what_they_cannot_run(experiment_id, overrides,
                                                  match):
    """E13's faults name TeaStore services, and E11/E12/E13/chaos build
    their own deployments: both fail while planning, before any point
    runs, instead of dying mid-run or silently ignoring ``shards``."""
    with pytest.raises(ConfigurationError, match=match):
        plan_sweep(experiment_id, fast(**overrides))


def test_e7_placement_ccx_wins():
    result = e7_placement.run(fast(users=600))
    by_policy = {row["policy"]: row for row in result.rows}
    assert set(by_policy) == {"unpinned", "node_spread", "ccx_aware"}
    assert by_policy["unpinned"]["uplift_pct"] == pytest.approx(0.0)
    assert (by_policy["ccx_aware"]["throughput_rps"]
            >= by_policy["unpinned"]["throughput_rps"] * 0.95)


def test_e8_headline_runs_and_reports():
    result = e8_headline.run(fast(users=600))
    assert len(result.rows) == 2
    assert any("paper: +22%" in note for note in result.notes)
    configs = result.column("config")
    assert configs == ["tuned baseline", "optimized"]


def test_e8_measure_outcome_fields():
    outcome = e8_headline.measure(fast(users=600))
    assert outcome.baseline.throughput > 0
    assert outcome.optimized.throughput > 0
    assert -1.0 < outcome.throughput_uplift < 2.0
    assert outcome.allocation.replica_counts()["db"] == 1


def test_e9_characterization_contrast():
    result = e9_characterization.run(fast(users=400), kernel_bursts=40)
    classes = {row["workload"]: row for row in result.rows}
    assert len(result.rows) == 9  # 6 services + 3 kernels
    webui = classes["webui"]
    spec_int = classes["spec-int-like"]
    assert webui["ipc"] < spec_int["ipc"]
    assert webui["l1i_mpki"] > spec_int["l1i_mpki"]
    assert webui["frontend_bound"] > spec_int["frontend_bound"]


def test_e10_numa_remote_memory_costs_throughput():
    result = e10_numa.run(fast(preset="small", users=300))
    by_config = {row["config"]: row for row in result.rows}
    local = by_config["socket0 + local memory"]["throughput_rps"]
    remote = by_config["socket0 + remote memory"]["throughput_rps"]
    assert remote < local
    assert any("remote memory costs" in note for note in result.notes)


def test_e10_requires_multi_node():
    with pytest.raises(ValueError):
        e10_numa.run(fast(preset="medium"))


def test_e11_latency_breakdown_shares_sum_to_100():
    result = e11_latency_breakdown.run(fast(users=200),
                                       endpoints=("product", "checkout"))
    for endpoint in ("product", "checkout"):
        shares = [r["share_pct"] for r in result.rows
                  if r["endpoint"] == endpoint]
        assert sum(shares) == pytest.approx(100.0)
    assert any("spans" in note for note in result.notes)


def test_e11_db_latency_share_exceeds_its_cpu_share_on_checkout():
    """The tracing extension's point: the serialized DB write path
    contributes more *latency* on checkout than its CPU share suggests."""
    result = e11_latency_breakdown.run(fast(users=300),
                                       endpoints=("checkout",))
    shares = {r["service"]: r["share_pct"] for r in result.rows}
    assert shares["db"] > 25.0
    assert shares["db"] > shares["auth"]


def test_ablation_code_sharing_on_beats_off():
    result = ablations.run_code_sharing(fast(users=600))
    by_config = {row["config"]: row["throughput_rps"]
                 for row in result.rows}
    assert (by_config["code sharing on (real)"]
            >= by_config["code sharing off (ablated)"])


def test_ablation_frequency_boost_matters_at_low_occupancy():
    result = ablations.run_frequency_ablation(fast(users=600),
                                              cpu_counts=(8, 64))
    gains = result.column("boost_gain_pct")
    assert gains[0] > gains[-1] - 1e-9  # partial occupancy gains most
    assert gains[0] > 0


def test_ablation_bandwidth_tightening_costs_throughput():
    result = ablations.run_bandwidth_ablation(
        fast(users=600), capacities=(None, 6.0))
    relatives = result.column("relative")
    assert relatives[0] == 1.0
    assert relatives[-1] < 1.0


def test_ablation_smt_yield_monotone():
    result = ablations.run_smt_yield_ablation(
        fast(users=600), smt_yields=(1.0, 1.3))
    relatives = result.column("relative")
    assert relatives[0] == 1.0
    assert relatives[-1] >= 1.0


def test_experiment_result_render_and_column():
    result = e1_platform.run(ExperimentSettings(preset="tiny"))
    rendered = result.render()
    assert "[E1]" in rendered
    assert "attribute" in rendered
    assert len(result.column("attribute")) == len(result.rows)


def test_settings_are_immutable():
    settings = ExperimentSettings()
    with pytest.raises(dataclasses.FrozenInstanceError):
        settings.seed = 2  # type: ignore[misc]
