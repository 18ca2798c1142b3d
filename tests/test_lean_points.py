"""A simulated point pays only for simulation.

Two contracts keep a point lean:

* ``import repro`` loads only what a simulated point runs — in
  particular not scipy, which only the analysis fits and confidence
  intervals use;
* hot-path objects form no reference cycles: ``Simulator.run`` suspends
  the cyclic GC, so every cycle a run leaves behind piles up until the
  first collection after it.
"""

import contextlib
import gc
import os
import subprocess
import sys
import types

import pytest

from repro.chaos.campaign import execute_cell
from repro.cpu.burst import CpuBurst
from repro.experiments import common, e13_fault_tolerance
from repro.experiments.common import ExperimentSettings
from repro.services.deployment import Deployment, _ResilientCall
from repro.sim import kernel
from repro.sim.events import Event
from repro.sim.kernel import Handle
from repro.workload import cohorts
from repro.workload.runner import run_experiment

from tests._kernels import backend_params
from tests._resilience_reference import reference_calls

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _run_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def _teastore_point(settings: ExperimentSettings):
    """One closed-loop TeaStore point, ``run_store``'s steps spelled out
    so the live scheduler stays reachable afterwards."""
    deployment = Deployment(settings.machine(), seed=settings.seed,
                            memory_config=settings.memory_config)
    store = common.build_application(settings, deployment)
    workload = cohorts.closed_workload(
        deployment, store.session_factory(), n_users=settings.users,
        think_time=settings.think_time)
    result = run_experiment(deployment, workload, warmup=settings.warmup,
                            duration=settings.duration)
    return deployment, result


@pytest.mark.parametrize("backend", backend_params())
def test_teastore_point_leaves_no_burst_cycles(backend):
    settings = ExperimentSettings.fast(users=200, duration=1.0, seed=1)
    gc.collect()
    flags, enabled = gc.get_debug(), gc.isenabled()
    # Keep the set-up and the gaps between the point's runs from
    # collecting too, so one pass afterwards sees everything left behind.
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        with kernel.use_backend(backend):
            deployment, result = _teastore_point(settings)
        unreachable = gc.collect()
        garbage_types = {type(obj) for obj in gc.garbage}
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    dispatched = deployment.scheduler.bursts_dispatched
    assert result.completed > 0
    assert dispatched > 1000
    # Before bursts stopped carrying themselves as their event's value,
    # a point left two cyclic objects per dispatched burst.
    assert unreachable < dispatched / 10
    assert not any(issubclass(kind, (CpuBurst, Event))
                   for kind in garbage_types)


def _is_call_object(obj: object) -> bool:
    """A resilient call machine, a kernel handle, or a bound method of
    a machine (what a fired deadline handle holds)."""
    handles: tuple[type, ...] = (Handle,)
    compiled = kernel.compiled_module()
    if compiled is not None:
        handles += (compiled.Handle,)
    return (isinstance(obj, (_ResilientCall, *handles))
            or (isinstance(obj, types.MethodType)
                and isinstance(obj.__self__, _ResilientCall)))


@pytest.mark.parametrize("backend", backend_params())
def test_e13_slow_full_cell_leaves_no_call_cycles(backend):
    # E13's slow/full cell as `repro run e13 --fast` runs it: its
    # expired deadlines leave the known residual cycle (PERFORMANCE.md),
    # so the reference path, as at the parent, sets the bar.
    settings = ExperimentSettings.fast(seed=1)
    schedule = e13_fault_tolerance.fault_schedule("slow", settings)
    config = e13_fault_tolerance.resilience_config("full")
    unreachable, leaked = {}, {}
    for implementation, context in (("reference", reference_calls),
                                    ("machine", contextlib.nullcontext)):
        # Until nothing is left: the first pass frees the residual
        # cycles, which were keeping the previous run's deployment.
        while gc.collect():
            pass
        flags, enabled = gc.get_debug(), gc.isenabled()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            with kernel.use_backend(backend), context():
                outcome = execute_cell(settings, schedule, config)
            unreachable[implementation] = gc.collect()
            leaked[implementation] = sum(
                1 for obj in gc.garbage if _is_call_object(obj))
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
            if enabled:
                gc.enable()
        assert outcome.deployment.resilience_stats.timeouts > 0
        del outcome
    assert leaked["machine"] == 0
    assert unreachable["machine"] <= unreachable["reference"]


def test_import_repro_loads_no_scipy():
    proc = _run_python(
        "import sys, repro\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m == 'scipy' or m.startswith('scipy.')))\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_smoke_point_runs_with_scipy_blocked():
    proc = _run_python(
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from repro.cli import main\n"
        "raise SystemExit(main(['run', 'e2', '--fast']))\n")
    assert proc.returncode == 0, proc.stderr
    assert "[E2]" in proc.stdout
