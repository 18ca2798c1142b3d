"""Test-local TeaStore variants, edited from the bundled spec's data."""

from repro.apps import get_app
from repro.apps.spec import ApplicationSpec
from repro.workload.sessions import MarkovSessionProfile

#: Replica counts that fit the 32-lcpu ``small_numa_machine``.
SMALL_REPLICAS = {"webui": 2, "auth": 1, "persistence": 1, "image": 1,
                  "recommender": 1, "db": 1}

#: Worker pools to match :data:`SMALL_REPLICAS`.
SMALL_WORKERS = {"webui": 32, "auth": 8, "persistence": 16, "image": 8,
                 "recommender": 8, "db": 16}


def teastore_spec(replicas=SMALL_REPLICAS, workers=SMALL_WORKERS,
                  steps=None):
    """The bundled TeaStore spec with every service resized and, per
    ``(service, endpoint)`` key of ``steps``, fields of that endpoint's
    steps replaced (e.g. ``{("image", "get"): {"hit_rate": 1.0}}``)."""
    data = get_app("teastore").to_dict()
    for service in data["services"]:
        service["replicas"] = replicas[service["name"]]
        service["workers"] = workers[service["name"]]
        for endpoint in service["endpoints"]:
            key = (service["name"], endpoint["name"])
            for step in endpoint["steps"]:
                step.update((steps or {}).get(key, {}))
    return ApplicationSpec.from_dict(data)


def browse_profile():
    """TeaStore's browse session, as a deployed store builds it."""
    session = get_app("teastore").session("browse")
    return MarkovSessionProfile(session.transitions, start=session.start,
                                service=session.service)
