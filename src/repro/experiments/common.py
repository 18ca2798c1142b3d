"""Shared experiment plumbing: settings, system assembly, tables."""

from __future__ import annotations

import dataclasses
import typing as t

from repro._errors import ConfigurationError
from repro.apps.registry import get_app
from repro.apps.runtime import Application, deploy_application
from repro.apps.spec import ApplicationSpec
from repro.memory.config import MemoryConfig
from repro.placement.allocation import Allocation
from repro.services.deployment import Deployment
from repro.topology.cpuset import CpuSet
from repro.topology.model import Machine
from repro.topology.presets import machine_from_preset
from repro.workload.cohorts import closed_workload
from repro.workload.runner import RunResult, run_experiment

#: One output row of an experiment table.
Row = dict[str, object]


@dataclasses.dataclass(frozen=True)
class ExperimentSettings:
    """Knobs shared by all experiments.

    ``full()`` reproduces the paper's platform scale; ``fast()`` shrinks
    everything so integration tests finish in seconds.
    """

    preset: str = "rome-1s"
    seed: int = 1
    users: int = 2000
    think_time: float = 0.125
    warmup: float = 1.5
    duration: float = 3.0
    #: Users collapsed per weighted cohort (1 = uncompressed; see
    #: :mod:`repro.workload.cohorts`).
    cohort_factor: int = 1
    #: Deployment shards the population is partitioned across (1 = the
    #: classic single-deployment run; see :mod:`repro.scale`).
    shards: int = 1
    #: The application under test (a :mod:`repro.apps` registry name).
    app: str = "teastore"
    memory_config: MemoryConfig = dataclasses.field(
        default_factory=MemoryConfig)

    @classmethod
    def full(cls, **overrides) -> "ExperimentSettings":
        """Paper-scale settings (the defaults)."""
        return cls(**overrides)

    @classmethod
    def fast(cls, **overrides) -> "ExperimentSettings":
        """Small-machine settings for quick runs and tests."""
        values: dict[str, t.Any] = dict(
            preset="medium", users=400, warmup=0.8, duration=1.5)
        values.update(overrides)
        return cls(**values)

    def to_dict(self) -> dict[str, t.Any]:
        """Canonical JSON-native form (nested ``memory_config`` dict).

        This — not ``hash()``, which is salted per process for the str
        fields — is what the sweep cache keys on; two equal settings
        always serialize identically.
        """
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: t.Mapping[str, t.Any]) -> "ExperimentSettings":
        """Inverse of :meth:`to_dict`."""
        values = dict(data)
        memory = values.pop("memory_config", None)
        if memory is not None:
            values["memory_config"] = MemoryConfig(**memory)
        return cls(**values)

    def machine(self) -> Machine:
        """The machine this experiment runs on."""
        return machine_from_preset(self.preset)

    def application(self) -> ApplicationSpec:
        """The active application's spec, sized for this machine (the
        spec's fast sizing on the ``medium``/``small``/``tiny`` presets)."""
        return get_app(self.app,
                       fast=self.preset in ("medium", "small", "tiny"))


@dataclasses.dataclass
class ExperimentResult:
    """Rows plus free-form notes, renderable as an aligned text table."""

    experiment: str
    title: str
    rows: list[Row]
    notes: list[str] = dataclasses.field(default_factory=list)

    def table(self) -> str:
        """The rows as an aligned text table."""
        return format_table(self.rows)

    def render(self) -> str:
        """Header, table, and notes — what the CLI prints."""
        parts = [f"[{self.experiment}] {self.title}", self.table()]
        parts.extend(f"  note: {note}" for note in self.notes)
        return "\n".join(parts)

    def column(self, name: str) -> list[t.Any]:
        """One column across all rows."""
        return [row[name] for row in self.rows]

    def to_markdown(self) -> str:
        """GitHub-flavoured markdown table with notes, for reports."""
        if not self.rows:
            return f"### {self.experiment} — {self.title}\n\n(no rows)\n"
        columns = list(self.rows[0].keys())

        def cell(value: object) -> str:
            if isinstance(value, float):
                return f"{value:.3f}"
            return str(value)

        lines = [f"### {self.experiment} — {self.title}", ""]
        lines.append("| " + " | ".join(columns) + " |")
        lines.append("|" + "|".join("---" for __ in columns) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(cell(row.get(column, ""))
                                           for column in columns) + " |")
        if self.notes:
            lines.append("")
            lines.extend(f"* {note}" for note in self.notes)
        return "\n".join(lines) + "\n"


def format_table(rows: t.Sequence[Row]) -> str:
    """Render dict rows as an aligned text table (3-decimal floats)."""
    if not rows:
        return "(no rows)"
    columns = list(rows[0].keys())

    def cell(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    rendered = [[cell(row.get(column, "")) for column in columns]
                for row in rows]
    widths = [max(len(column), *(len(r[i]) for r in rendered))
              for i, column in enumerate(columns)]
    header = "  ".join(column.ljust(width)
                       for column, width in zip(columns, widths))
    separator = "  ".join("-" * width for width in widths)
    body = [
        "  ".join(value.rjust(width)
                  for value, width in zip(row, widths))
        for row in rendered
    ]
    return "\n".join([header, separator, *body])


_SHARDED_PATH_ONLY = ("sharded execution (settings.shards > 1) supports "
                      "the tuned-baseline run_store path only")


def require_unsharded(settings: ExperimentSettings, experiment: str) -> None:
    """Fail early when an experiment that builds its own deployments is
    asked to shard (it would silently run unsharded)."""
    if settings.shards > 1:
        raise ConfigurationError(
            f"{_SHARDED_PATH_ONLY}; {experiment} builds its own "
            f"deployments, so run it with shards=1")


def run_store(settings: ExperimentSettings,
              machine: Machine | None = None,
              online: CpuSet | None = None,
              allocation: Allocation | None = None,
              counter_sink: t.Any | None = None,
              users: int | None = None,
              seed: int | None = None,
              smt_model: t.Any | None = None,
              frequency_model: t.Any | None = None,
              ) -> tuple[RunResult, Deployment, Application]:
    """Deploy the active application and measure one default-load run.

    The application (``settings.app``) deploys its spec sizing unpinned,
    or per ``allocation`` when one is given, and runs under its default
    session profile.

    With ``settings.shards > 1`` the run is partitioned across shard
    deployments by :func:`repro.scale.executor.run_sharded`; the merged
    result is returned together with shard 0's deployment and store
    (the shard the driver executes in-process).  Sharding covers the
    tuned-baseline path only — machine/placement overrides require
    ``shards == 1``.
    """
    if settings.shards > 1:
        if any(override is not None
               for override in (machine, online, allocation, counter_sink,
                                smt_model, frequency_model)):
            raise ConfigurationError(
                f"{_SHARDED_PATH_ONLY}; drop the machine/placement "
                f"overrides or run with shards=1")
        from repro.scale.executor import run_sharded
        outcome = run_sharded(settings, users=users, seed=seed)
        return outcome.result, outcome.deployment, outcome.store
    machine = machine or settings.machine()
    deployment = Deployment(
        machine,
        online=online,
        seed=seed if seed is not None else settings.seed,
        memory_config=settings.memory_config,
        counter_sink=counter_sink,
        smt_model=smt_model,
        frequency_model=frequency_model)
    store = deploy_application(
        deployment, settings.application(),
        placement=(allocation.as_placement()
                   if allocation is not None else None))
    workload = closed_workload(
        deployment, store.session_factory(),
        n_users=users if users is not None else settings.users,
        think_time=settings.think_time,
        cohort_factor=settings.cohort_factor)
    result = run_experiment(deployment, workload,
                            warmup=settings.warmup,
                            duration=settings.duration)
    return result, deployment, store


def build_application(settings: ExperimentSettings,
                      deployment: Deployment) -> Application:
    """Deploy the active application, untuned, on ``deployment``."""
    return deploy_application(deployment, settings.application())


def default_counts(settings: ExperimentSettings) -> dict[str, int]:
    """The tuned-baseline replica counts of the active application."""
    return {service.name: service.replicas
            for service in settings.application().services}


def percent(value: float) -> float:
    """Fractions → percents, for table readability."""
    return value * 100.0


def require_positive(name: str, value: float) -> None:
    """Guard for experiment parameters."""
    if value <= 0:
        raise ConfigurationError(f"{name} must be positive: {value}")
