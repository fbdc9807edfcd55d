"""Names and registration scope of the metric series.

Every series name starts with a layer prefix (:data:`LAYER_PREFIXES`), so
a metrics page groups by architectural layer and two layers never
collide on a name; :class:`~repro.obs.MetricsRegistry` itself refuses a
name that is not snake_case.  ``tests/service/test_metrics.py`` checks
the names a live server exposes against the same prefixes.

The process-wide registry (:func:`repro.obs.registry`) holds what library
code records with no server in sight.  Its series are registered once, at
module scope: importing every ``repro`` module registers all of them, and
driving every entry point afterwards registers nothing new.  A
registration inside a function would run on every call, taking the
registry's lock on the path the instrument observes.  Both checks read a
fresh interpreter that runs this file as a script, because in the test
process an earlier test may already have called such a function.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.api import EnumerationRequest, GraphStore, MiningSession
from repro.distributed import DistributedSession
from repro.generators.erdos_renyi import random_uncertain_graph
from repro.obs import registry
from repro.parallel import parallel_mule
from repro.service import MiningServer, RemoteSession

#: The layer prefix every metric name starts with.
LAYER_PREFIXES = ("engine_", "cache_", "sched_", "jobs_", "http_", "dist_")


def process_series() -> list[str]:
    return sorted(instrument.name for instrument in registry().instruments())


def import_every_module() -> list[str]:
    """Import every ``repro`` module but the ``__main__`` entry points."""
    names = []
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if module.name.rsplit(".", 1)[-1] != "__main__":
            importlib.import_module(module.name)
            names.append(module.name)
    return names


def drive_every_entry_point() -> None:
    """One run through each way in: library, parallel, HTTP, jobs, fleet."""
    graph = random_uncertain_graph(14, 0.5, rng=random.Random(21))
    session = MiningSession(graph)
    # "auto" runs the vector kernel wherever the system compiler is found.
    for kernel in ("python", "auto"):
        session.enumerate(EnumerationRequest(alpha=0.3, kernel=kernel))
    session.enumerate(EnumerationRequest(algorithm="top_k", k=3))
    parallel_mule(graph, 0.3, workers=2, backend="inline")
    request = EnumerationRequest(alpha=0.3)
    with MiningServer(graph, port=0) as server:
        remote = RemoteSession(server.url)
        remote.enumerate(request)
        remote.submit(request).wait()
    with MiningServer(GraphStore(), port=0) as worker:
        with DistributedSession(graph, [worker.url]) as fleet:
            fleet.enumerate(request)


@pytest.fixture(scope="module")
def fresh_process() -> dict:
    src = Path(repro.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, __file__],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


class TestProcessRegistry:
    def test_every_process_series_has_a_layer_prefix(self, fresh_process):
        imported = fresh_process["imported"]
        assert imported, f"no series after importing {fresh_process['modules']}"
        for name in imported:
            assert name.startswith(LAYER_PREFIXES), name

    def test_entry_points_register_no_process_series(self, fresh_process):
        new = sorted(set(fresh_process["driven"]) - set(fresh_process["imported"]))
        assert not new, f"registered on first use, not at import: {new}"


if __name__ == "__main__":
    modules = import_every_module()
    imported = process_series()
    drive_every_entry_point()
    print(json.dumps({"modules": modules, "imported": imported, "driven": process_series()}))
