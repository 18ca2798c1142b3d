"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.orchestrator import provider_for, sweep_experiments


def test_list_prints_every_experiment(capsys):
    # Ids, order and titles all come from the provider registry.
    assert main(["list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"{experiment_id:4s} {provider_for(experiment_id).title}"
                     for experiment_id in sweep_experiments()]
    assert {"e11", "e14", "a4", "chaos"} <= {line.split()[0]
                                             for line in lines}


def test_platform_prints_topology(capsys):
    assert main(["platform", "--preset", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "tiny-1n-8t" in out
    assert "Logical CPUs" in out


def test_platform_default_is_paper_machine(capsys):
    assert main(["platform"]) == 0
    assert "128" in capsys.readouterr().out


def test_run_e1_fast(capsys):
    assert main(["run", "e1", "--fast"]) == 0
    out = capsys.readouterr().out
    assert "[E1]" in out


def test_run_e5_fast_with_overrides(capsys):
    assert main(["run", "e5", "--fast", "--seed", "3",
                 "--users", "120"]) == 0
    out = capsys.readouterr().out
    assert "[E5]" in out
    assert "webui" in out


def test_run_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["run", "e99"])


def test_run_rejects_unknown_preset():
    with pytest.raises(SystemExit):
        main(["run", "e1", "--preset", "mega"])


def test_e10_fast_picks_multi_node_machine(capsys):
    assert main(["run", "e10", "--fast", "--users", "150"]) == 0
    out = capsys.readouterr().out
    assert "[E10]" in out


def test_e11_and_a4_registered():
    # The verbs take their ids from the provider registry.
    from repro import cli

    parser = cli._build_parser()
    for verb in ("run", "sweep"):
        for experiment_id in ("e11", "e14", "a4", "chaos", "all"):
            args = parser.parse_args([verb, experiment_id])
            assert args.experiment == experiment_id


def test_run_e6_fast_fits_the_default_ladders(capsys):
    # The default ladders are sized for the 16-CCX rome machine; on the
    # 8-CCX fast preset E6 keeps the points that fit (1 and 2 CCXs).
    assert main(["run", "e6", "--fast"]) == 0
    assert "[E6]" in capsys.readouterr().out


def test_chaos_has_no_shards_flag():
    # Campaign cells build their own deployments; they cannot shard.
    with pytest.raises(SystemExit):
        main(["chaos", "run", "--fast", "--shards", "2"])


def test_run_e11_fast(capsys):
    assert main(["run", "e11", "--fast", "--users", "200"]) == 0
    out = capsys.readouterr().out
    assert "[E11]" in out
    assert "checkout" in out


def test_platform_json(capsys):
    assert main(["platform", "--preset", "tiny", "--json"]) == 0
    import json
    data = json.loads(capsys.readouterr().out)
    assert data["name"] == "tiny-1n-8t"


def test_run_with_markdown_report(tmp_path, capsys):
    target = tmp_path / "report.md"
    assert main(["run", "e1", "--fast", "--markdown", str(target)]) == 0
    text = target.read_text()
    assert text.startswith("# TeaStore")
    assert "### E1" in text


def test_run_with_explicit_kernel(capsys, monkeypatch):
    from repro.sim import kernel

    monkeypatch.delenv(kernel.KERNEL_ENV, raising=False)
    monkeypatch.setattr(kernel, "_default_backend", None)
    assert main(["run", "e1", "--fast", "--kernel", "python"]) == 0
    import os
    assert os.environ[kernel.KERNEL_ENV] == "python"
    assert kernel.resolve_backend() == "python"


def test_run_with_scale_flags(capsys):
    assert main(["run", "e2", "--fast", "--users", "60",
                 "--shards", "2", "--cohort-factor", "5"]) == 0
    assert "[E2]" in capsys.readouterr().out


def test_scale_flags_reach_settings():
    from repro import cli

    args = cli._build_parser().parse_args(
        ["run", "e1", "--fast", "--shards", "4",
         "--cohort-factor", "250"])
    settings = cli._settings_for(args, "e1")
    assert settings.shards == 4
    assert settings.cohort_factor == 250

    defaults = cli._build_parser().parse_args(["run", "e1", "--fast"])
    plain = cli._settings_for(defaults, "e1")
    assert plain.shards == 1
    assert plain.cohort_factor == 1


def test_sweep_accepts_scale_flags():
    from repro import cli

    args = cli._build_parser().parse_args(
        ["sweep", "e2", "--fast", "--shards", "2",
         "--cohort-factor", "10"])
    settings = cli._settings_for(args, "e2")
    assert settings.shards == 2
    assert settings.cohort_factor == 10
