"""The sweep-telemetry artifact: a sweep-performance trajectory.

``repro sweep --bench FILE`` records wall time, worker count, cache
hits, and throughput (points/second) per experiment plus totals, so
future PRs have a perf baseline to compare orchestrator changes
against (the committed one is ``BENCH_sweep.json``).

Schema v2 keeps a *trajectory* — one entry per invocation — rotated so
that the newest :data:`_KEEP_PER_GROUP` entries per
``(experiments, jobs)`` group plus the artifact's first-ever entry
survive, so the file stays bounded no matter how often sweeps run.
v1 artifacts (a single overwritten snapshot) are migrated
transparently: the old snapshot becomes the trajectory's first entry,
preserving the oldest recorded numbers as the fixed reference point.
"""

from __future__ import annotations

import json
import pathlib
import time
import typing as t

from repro._errors import ConfigurationError

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.orchestrator.executor import SweepStats

#: Artifact schema version; bump on layout changes.
BENCH_VERSION = 2

#: Trajectory entries kept per (experiments, jobs) group after an
#: append (plus the first-ever entry).
_KEEP_PER_GROUP = 20


def bench_entry(stats: "t.Sequence[SweepStats]",
                jobs: int) -> dict[str, t.Any]:
    """One trajectory entry as a JSON-native dict."""
    per_experiment = [s.to_dict() for s in stats]
    total_points = sum(s.points for s in stats)
    total_wall = sum(s.wall_seconds for s in stats)
    return {
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "jobs": jobs,
        "experiments": per_experiment,
        "totals": {
            "experiments": len(per_experiment),
            "points": total_points,
            "cache_hits": sum(s.cache_hits for s in stats),
            "executed": sum(s.executed for s in stats),
            "wall_seconds": total_wall,
            "points_per_second": (total_points / total_wall
                                  if total_wall > 0 else 0.0),
        },
    }


def _entry_key(entry: dict[str, t.Any]) -> tuple[tuple[str, ...], int]:
    """The rotation group of one entry: which experiments, how many jobs.

    Sweeps of different experiment sets (or parallelism) are different
    measurements; each group ages out independently so a burst of e2
    sweeps cannot evict the only e8 history.
    """
    experiments = tuple(sorted(
        str(record.get("experiment", "")) for record in
        entry.get("experiments", [])))
    return experiments, int(entry.get("jobs", 0))


def _rotate(entries: list[dict[str, t.Any]]) -> list[dict[str, t.Any]]:
    """Newest :data:`_KEEP_PER_GROUP` per group + the first-ever entry."""
    if not entries:
        return entries
    keep = {0}
    groups: dict[tuple[tuple[str, ...], int], list[int]] = {}
    for index, entry in enumerate(entries):
        groups.setdefault(_entry_key(entry), []).append(index)
    for indices in groups.values():
        keep.update(indices[-_KEEP_PER_GROUP:])
    return [entries[index] for index in sorted(keep)]


def _load_trajectory(target: pathlib.Path) -> list[dict[str, t.Any]]:
    """The existing trajectory, migrating a v1 snapshot in place."""
    payload = json.loads(target.read_text(encoding="utf-8"))
    if payload.get("artifact") != "repro-sweep-bench":
        raise ConfigurationError(
            f"{target} exists but is not a repro-sweep-bench artifact")
    version = payload.get("version", 1)
    if version == BENCH_VERSION:
        return list(payload.get("trajectory", []))
    if version != 1:
        raise ConfigurationError(
            f"{target} has unsupported schema version {version}")
    # v1 was one snapshot, overwritten per run: carry it over as the
    # trajectory's first (and oldest) entry.
    snapshot = {key: value for key, value in payload.items()
                if key not in ("artifact", "version")}
    return [snapshot] if snapshot else []


def append_bench_entry(path: str | pathlib.Path,
                       entry: dict[str, t.Any]) -> dict[str, t.Any]:
    """Append ``entry`` to the artifact at ``path`` (created if absent).

    Reads schema v1 or v2; always writes v2 (rotated trajectory).
    """
    target = pathlib.Path(path)
    trajectory = _load_trajectory(target) if target.exists() else []
    trajectory.append(entry)
    payload = {
        "artifact": "repro-sweep-bench",
        "version": BENCH_VERSION,
        "trajectory": _rotate(trajectory),
    }
    if target.parent != pathlib.Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=2) + "\n",
                      encoding="utf-8")
    return payload


def write_bench_artifact(path: str | pathlib.Path,
                         stats: "t.Sequence[SweepStats]",
                         jobs: int) -> dict[str, t.Any]:
    """Record one sweep invocation in the artifact at ``path``."""
    return append_bench_entry(path, bench_entry(stats, jobs))
