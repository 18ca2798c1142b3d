"""Sweep planning: points, providers, and the experiment registry.

A sweep decomposes an experiment into independent
:class:`SweepPoint` units — one simulator run each, or two where a
measurement feeds the next (E7, E8).  Each experiment module registers
a :class:`SweepProvider` (via :func:`register_sweep`) with three
callables:

* ``points(settings)`` — the ordered decomposition;
* ``run_point(point)`` — execute one point, returning a JSON-native
  payload dict (this is what worker processes run);
* ``assemble(settings, payloads)`` — fold the ordered payloads back into
  the :class:`~repro.experiments.common.ExperimentResult`.

The provider is an experiment's only definition: its module's ``run()``
composes the three callables in-process, and every CLI verb runs it
through :func:`~repro.orchestrator.executor.run_sweep`.  The registry is
the one list of experiments — ids, ``all`` order and titles.

Points are picklable value objects: a frozen settings snapshot plus a
small canonical parameter list.  Everything a worker needs travels
inside the point; nothing is shared across process boundaries, which is
what makes parallel execution deterministic.
"""

from __future__ import annotations

import dataclasses
import importlib
import typing as t

from repro._errors import ConfigurationError
from repro.experiments.common import ExperimentResult, ExperimentSettings

#: JSON-native result of executing one sweep point.
Payload = dict[str, t.Any]

_MISSING = object()


@dataclasses.dataclass(frozen=True)
class SweepPoint:
    """One independent unit of sweep work.

    ``params`` is an ordered tuple of ``(name, value)`` pairs with
    JSON-native values; together with the settings snapshot it fully
    determines the point's outcome, so it doubles as the cache-key
    material (see :meth:`identity`).
    """

    experiment: str
    index: int
    kind: str
    label: str
    settings: ExperimentSettings
    params: tuple[tuple[str, t.Any], ...] = ()

    def params_dict(self) -> dict[str, t.Any]:
        """The parameters as a plain dict."""
        return dict(self.params)

    def param(self, name: str, default: t.Any = _MISSING) -> t.Any:
        """One parameter by name; raises ``KeyError`` without a default."""
        for key, value in self.params:
            if key == name:
                return value
        if default is _MISSING:
            raise KeyError(f"sweep point {self.label!r} has no "
                           f"parameter {name!r}")
        return default

    def identity(self) -> dict[str, t.Any]:
        """Canonical JSON-native identity (excludes index/label).

        Two points with equal identity produce equal payloads, so the
        cache keys on exactly this — plus the code version — and nothing
        else.
        """
        return {
            "experiment": self.experiment.lower(),
            "kind": self.kind,
            "params": [[name, value]
                       for name, value in sorted(self.params)],
            "settings": self.settings.to_dict(),
        }


@dataclasses.dataclass(frozen=True)
class SweepProvider:
    """An experiment's sweep decomposition, as registered."""

    experiment: str
    title: str
    points: t.Callable[[ExperimentSettings], t.Sequence[SweepPoint]]
    run_point: t.Callable[[SweepPoint], Payload]
    assemble: t.Callable[[ExperimentSettings, t.Sequence[Payload]],
                         ExperimentResult]


_REGISTRY: dict[str, SweepProvider] = {}

#: Modules that register sweep providers when imported.
PROVIDER_MODULES: tuple[str, ...] = (
    "repro.experiments.e1_platform",
    "repro.experiments.e2_load_scaling",
    "repro.experiments.e3_core_scaling",
    "repro.experiments.e4_smt",
    "repro.experiments.e5_utilization",
    "repro.experiments.e6_service_scaling",
    "repro.experiments.e7_placement",
    "repro.experiments.e8_headline",
    "repro.experiments.e9_characterization",
    "repro.experiments.e10_numa",
    "repro.experiments.e11_latency_breakdown",
    "repro.experiments.e12_colocation",
    "repro.experiments.e13_fault_tolerance",
    "repro.experiments.e14_cross_app",
    "repro.experiments.ablations",
    "repro.chaos.campaign",
)


def register_sweep(experiment: str, title: str, *,
                   points: t.Callable,
                   run_point: t.Callable,
                   assemble: t.Callable) -> SweepProvider:
    """Register an experiment's sweep provider (idempotent)."""
    provider = SweepProvider(experiment.lower(), title,
                             points, run_point, assemble)
    _REGISTRY[provider.experiment] = provider
    return provider


def load_providers() -> None:
    """Import every provider module (safe to call repeatedly)."""
    for module in PROVIDER_MODULES:
        importlib.import_module(module)


def provider_for(experiment_id: str) -> SweepProvider:
    """The registered provider for ``experiment_id`` (e.g. ``"e2"``)."""
    load_providers()
    try:
        return _REGISTRY[experiment_id.lower()]
    except KeyError:
        raise ConfigurationError(
            f"no sweep provider registered for {experiment_id!r}; "
            f"known: {sorted(_REGISTRY)}") from None


def sweep_experiments() -> list[str]:
    """All experiment ids with a registered sweep provider."""
    load_providers()
    return sorted(_REGISTRY)


def plan_sweep(experiment_id: str,
               settings: ExperimentSettings) -> list[SweepPoint]:
    """The ordered sweep decomposition of one experiment."""
    return list(provider_for(experiment_id).points(settings))
