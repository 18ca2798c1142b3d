"""End-to-end sweep behaviour: the one registry, parity with ``run()``,
the CLI verb, and progress telemetry."""

import io
import json
import os
import pkgutil
import re
import subprocess
import sys

import pytest

import repro.experiments
from repro import cli
from repro.experiments import ExperimentSettings
from repro.experiments import (
    ablations,
    e1_platform,
    e2_load_scaling,
    e7_placement,
    e8_headline,
)
from repro.orchestrator import (
    ProgressReporter,
    ResultCache,
    plan_sweep,
    provider_for,
    run_sweep,
    sweep_experiments,
)
from repro.report import build_report, sweep_section

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def tiny():
    return ExperimentSettings.fast(preset="tiny", users=48,
                                   warmup=0.1, duration=0.3)


def test_every_cli_experiment_has_a_provider(capsys):
    """Every id ``repro list`` prints and ``repro run``/``sweep`` accept
    has a registered provider; the CLI keeps no table of its own."""
    assert not hasattr(cli, "EXPERIMENTS")
    assert cli.main(["list"]) == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()
              if line.strip()]
    assert listed == sweep_experiments()
    parser = cli._build_parser()
    for experiment_id in listed:
        assert provider_for(experiment_id).title
        for verb in ("run", "sweep"):
            args = parser.parse_args([verb, experiment_id])
            assert args.experiment == experiment_id
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "e99"])
    capsys.readouterr()


def test_fresh_process_registry_has_every_experiment():
    """The registry is complete without help from other imports: a
    fresh interpreter that imports only ``repro.orchestrator`` lists
    every ``e<N>_*`` module plus a1-a4 and chaos, and runs e14."""
    modules = [name for __, name, __ in pkgutil.iter_modules(
        repro.experiments.__path__) if re.fullmatch(r"e\d+_\w+", name)]
    expected = sorted({name.split("_")[0] for name in modules}
                      | {"a1", "a2", "a3", "a4", "chaos"})
    assert len(modules) == 14
    code = """
import json, sys
from repro.orchestrator import run_sweep, sweep_experiments
assert "repro.experiments.e14_cross_app" not in sys.modules
from repro.experiments import ExperimentSettings
settings = ExperimentSettings.fast(preset="tiny", app="socialnet",
                                   users=24, warmup=0.05, duration=0.1)
outcome = run_sweep("e14", settings)
print(json.dumps({"ids": sweep_experiments(),
                  "experiment": outcome.result.experiment,
                  "rows": len(outcome.result.rows)}))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["ids"] == expected
    assert report["experiment"] == "E14" and report["rows"] == 1


def test_table_header_prints_the_registered_title():
    """The title ``repro list`` prints is the one the table header
    prints (checked on the ablations, where the two once disagreed)."""
    settings = ExperimentSettings.fast(preset="tiny", users=24,
                                       warmup=0.05, duration=0.1)
    for experiment_id in ("a1", "a2", "a3", "a4", "e1"):
        result = run_sweep(experiment_id, settings).result
        assert result.experiment.lower() == experiment_id
        assert result.render().startswith(
            f"[{result.experiment}] {provider_for(experiment_id).title}\n")


@pytest.mark.parametrize("module,experiment_id,runs", [
    (e7_placement, "e7", 3),
    (e8_headline, "e8", 2),
])
def test_dependent_experiments_measure_each_run_once(module, experiment_id,
                                                     runs, monkeypatch):
    """E7's ccx_aware and E8's optimized side budget with the baseline's
    profile; the baseline is measured once, sequentially or swept, and
    no point runs more than two simulations."""
    calls = []
    real = module.run_store

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, "run_store", counting)
    settings = ExperimentSettings.fast(preset="medium", users=48,
                                       warmup=0.1, duration=0.3)
    expected = module.run(settings).render()
    assert len(calls) == runs
    calls.clear()
    assert run_sweep(experiment_id, settings,
                     jobs=1).result.render() == expected
    assert len(calls) == runs
    for point in plan_sweep(experiment_id, settings):
        calls.clear()
        provider_for(experiment_id).run_point(point)
        assert 1 <= len(calls) <= 2, point.label


def test_sweep_matches_run_sequential_and_parallel():
    settings = tiny()
    expected = e2_load_scaling.run(settings).render()
    assert run_sweep("e2", settings, jobs=1).result.render() == expected
    assert run_sweep("e2", settings, jobs=4).result.render() == expected


def test_sweep_matches_run_for_ablation():
    settings = tiny()
    expected = ablations.run_code_sharing(settings).render()
    assert run_sweep("a1", settings, jobs=2).result.render() == expected


def test_sweep_matches_run_for_platform():
    settings = tiny()
    expected = e1_platform.run(settings).render()
    assert run_sweep("e1", settings).result.render() == expected


def test_cached_sweep_renders_identically(tmp_path):
    settings = tiny()
    cache = ResultCache(tmp_path)
    first = run_sweep("e2", settings, jobs=2, cache=cache)
    again = run_sweep("e2", settings, jobs=2,
                      cache=ResultCache(tmp_path))  # fresh process-alike
    assert first.result.render() == again.result.render()
    assert again.stats.executed == 0
    assert again.stats.cache_hits == len(plan_sweep("e2", settings))


def test_stats_account_for_every_point():
    settings = tiny()
    outcome = run_sweep("e2", settings, jobs=2)
    assert outcome.stats.points == len(plan_sweep("e2", settings))
    assert outcome.stats.executed == outcome.stats.points
    assert outcome.stats.cache_hits == 0
    assert outcome.stats.points_per_second() > 0
    assert len(outcome.outcomes) == outcome.stats.points
    stats_dict = outcome.stats.to_dict()
    assert stats_dict["experiment"] == "e2"
    assert json.dumps(stats_dict)  # JSON-native


def test_progress_reporter_events_and_lines():
    stream, log = io.StringIO(), io.StringIO()
    progress = ProgressReporter("e2", stream=stream, log=log)
    run_sweep("e2", tiny(), progress=progress)
    events = [json.loads(line) for line in log.getvalue().splitlines()]
    kinds = [event["event"] for event in events]
    assert kinds[0] == "sweep_start" and kinds[-1] == "sweep_end"
    assert kinds.count("point_done") == events[0]["total"]
    assert all(event["experiment"] == "e2" for event in events)
    human = stream.getvalue()
    assert "sweep complete" in human and "[e2]" in human


def test_report_includes_sweep_telemetry():
    settings = tiny()
    outcome = run_sweep("e1", settings)
    report = build_report([outcome.result], machine=settings.machine(),
                          sweep_stats=[outcome.stats.to_dict()])
    assert "## Sweep telemetry" in report
    assert "| e1 |" in report
    assert "Sweep telemetry" in sweep_section([outcome.stats.to_dict()])


def test_cli_sweep_end_to_end(tmp_path, capsys):
    markdown = tmp_path / "report.md"
    log = tmp_path / "cache" / "last-sweep.jsonl"
    argv = ["sweep", "e1", "--fast", "--jobs", "2", "--quiet",
            "--cache-dir", str(tmp_path / "cache"),
            "--markdown", str(markdown)]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert "E1" in first
    assert "## Sweep telemetry" in markdown.read_text()
    events = [json.loads(line) for line in log.read_text().splitlines()]
    assert events[0]["event"] == "sweep_start"
    assert events[-1]["event"] == "sweep_end"
    assert events[-1]["executed"] >= 1

    # The second invocation replays entirely from the cache; its log's
    # sweep_end record says so.
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == first
    [end] = [json.loads(line) for line in log.read_text().splitlines()
             if '"sweep_end"' in line]
    assert end["experiment"] == "e1"
    assert end["executed"] == 0
    assert end["cache_hits"] == end["points"] >= 1


def test_cli_sweep_rejects_bad_jobs(capsys):
    assert cli.main(["sweep", "e1", "--fast", "--jobs", "0"]) == 2
    assert "--jobs" in capsys.readouterr().err
