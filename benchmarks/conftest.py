"""Shared fixtures for the benchmark suite.

Every benchmark runs its experiment once (``rounds=1``) at paper scale,
asserts the paper's qualitative shape, and archives the rendered table
under ``benchmarks/output/`` so EXPERIMENTS.md entries are regenerable.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments import ExperimentSettings
from repro.experiments.common import ExperimentResult

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def settings() -> ExperimentSettings:
    """Paper-scale settings shared by all benchmarks."""
    return ExperimentSettings.full(seed=1)


@pytest.fixture()
def archive():
    """Write an experiment's rendered table next to the benchmarks."""
    def write(result: ExperimentResult) -> ExperimentResult:
        OUTPUT_DIR.mkdir(exist_ok=True)
        path = OUTPUT_DIR / f"{result.experiment.lower()}.txt"
        path.write_text(result.render() + "\n")
        return result
    return write


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
