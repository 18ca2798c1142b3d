"""The bundled application registry.

Each bundled application is one JSON spec file under ``specs/``: the
file is the application's only definition (services, demands, sizing,
sessions, chaos bindings), so external tools can consume the schema
without importing Python.  ``get_app`` loads a spec by name and applies
the fast-preset sizing on request.  ``verify_bundled`` pins that the
committed files parse, validate and round-trip byte-stably — CI runs it
as the spec lint gate.
"""

from __future__ import annotations

import pathlib

from repro._errors import ConfigurationError
from repro.apps import spec as spec_mod
from repro.apps.spec import ApplicationSpec

#: The bundled applications, in documentation order.
APP_NAMES = ("teastore", "boutique", "socialnet")

#: Where the bundled JSON specs live.
SPEC_DIR = pathlib.Path(__file__).with_name("specs")


def get_app(name: str, fast: bool = False) -> ApplicationSpec:
    """One bundled application spec (``fast`` applies test-scale sizing)."""
    return load_bundled(name).sized(fast)


def spec_path(name: str) -> pathlib.Path:
    """The bundled JSON file of one application."""
    if name not in APP_NAMES:
        raise ConfigurationError(
            f"unknown application {name!r}; choose from {APP_NAMES}")
    return SPEC_DIR / f"{name}.json"


def load_bundled(name: str) -> ApplicationSpec:
    """Parse and validate one bundled JSON spec file."""
    return spec_mod.load_file(spec_path(name))


def verify_bundled() -> list[str]:
    """Check every bundled JSON file parses, validates and round-trips
    byte-stably.  Returns problem descriptions (empty = all good)."""
    problems: list[str] = []
    for name in APP_NAMES:
        path = spec_path(name)
        if not path.exists():
            problems.append(f"{name}: missing spec file {path}")
            continue
        try:
            text = path.read_text(encoding="utf-8")
            loaded = spec_mod.loads(text)
        except ConfigurationError as exc:
            problems.append(f"{name}: {exc}")
            continue
        if loaded.dumps() != text:
            problems.append(
                f"{name}: {path.name} is not byte-stable canonical JSON "
                f"(rewrite it as ApplicationSpec.dumps() prints it)")
    return problems
