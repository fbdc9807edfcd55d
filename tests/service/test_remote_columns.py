"""Remote parity through columns.

A ``RemoteSession`` bound to a graph asks ``enumerate`` and ``sweep`` for
their records as columns, and ``RemoteJob`` asks every result stream it
opens; the fleet coordinator reads through ``RemoteJob``.  Each must still
return exactly what a local session returns: the same records in the same
order, bit-identical probabilities, and the same counters and stop reason.
The cases are small adversarial graphs (empty, singleton, a clique exactly
at α and one ulp above it, string labels) and a random graph.  A spy on
the client's decoders shows the answers really came as columns.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.api import EnumerationRequest, GraphStore, MiningSession
from repro.distributed import DistributedSession, WorkerPool
from repro.generators.erdos_renyi import random_uncertain_graph
from repro.service import MiningServer, RemoteSession, codec, connect
from repro.uncertain.graph import UncertainGraph

TRIANGLE = UncertainGraph(
    edges=[(0, 1, 0.5), (1, 2, 0.5), (0, 2, 0.5), (2, 3, 0.5), (3, 4, 1.0)]
)

CASES = {
    "empty": (UncertainGraph(), 0.5),
    "singleton": (UncertainGraph(vertices=[0]), 0.5),
    "clique-at-alpha": (TRIANGLE, 0.125),
    "clique-one-ulp-below-alpha": (TRIANGLE, math.nextafter(0.125, 1.0)),
    "string-labels": (
        UncertainGraph(
            edges=[("a", "b", 0.75), ("b", "c", 0.75), ("a", "c", 1.0), ("c", "d", 0.25)],
            vertices=["e"],
        ),
        0.5,
    ),
    "random": (random_uncertain_graph(16, 0.5, rng=random.Random(7)), 0.05),
}


@pytest.fixture(scope="module")
def server():
    with MiningServer(GraphStore(), port=0) as srv:
        store = connect(srv.url)
        for name, (graph, _) in CASES.items():
            store.add(graph, name=name)
        yield srv


@pytest.fixture()
def forms(monkeypatch):
    """The record form of every outcome and chunk the clients decode."""
    seen: list[str] = []

    def spy(decoder):
        def decode(payload):
            for envelope in payload.get("outcomes", [payload]):
                if envelope.get("final") is not True:
                    seen.append("columns" if "columns" in envelope else "rows")
            return decoder(payload)

        return decode

    for name in ("outcome_from_wire", "outcomes_from_wire", "job_chunk_from_wire"):
        monkeypatch.setattr(codec, name, spy(getattr(codec, name)))
    return seen


def assert_identical(remote, local) -> None:
    remote.assert_matches(local)
    assert [(r.vertices, r.probability.hex()) for r in remote.records] == [
        (r.vertices, r.probability.hex()) for r in local.records
    ]
    assert remote.report.cliques_emitted == local.report.cliques_emitted


@pytest.mark.parametrize("case", sorted(CASES))
def test_graph_bound_enumerate(server, case, forms):
    graph, alpha = CASES[case]
    request = EnumerationRequest(algorithm="mule", alpha=alpha)
    outcome = connect(server.url).session(case).enumerate(request)
    assert_identical(outcome, MiningSession(graph).enumerate(request))
    assert forms == ["columns"]


@pytest.mark.parametrize("case", sorted(CASES))
def test_graph_bound_sweep(server, case, forms):
    graph, alpha = CASES[case]
    alphas = [alpha, 0.25, 0.75]
    outcomes = connect(server.url).session(case).sweep(alphas)
    for remote, local in zip(outcomes, MiningSession(graph).sweep(alphas), strict=True):
        assert_identical(remote, local)
    assert forms == ["columns"] * len(alphas)


@pytest.mark.parametrize("case", sorted(CASES))
def test_job_wait(server, case, forms):
    graph, alpha = CASES[case]
    request = EnumerationRequest(algorithm="mule", alpha=alpha)
    outcome = connect(server.url).session(case).submit(request, page_size=3).wait()
    assert_identical(outcome, MiningSession(graph).enumerate(request))
    pages = -(-len(outcome.records) // 3)
    assert forms == ["columns"] * pages


def test_unbound_session_keeps_v1_rows(forms):
    graph, alpha = CASES["random"]
    request = EnumerationRequest(algorithm="mule", alpha=alpha)
    with MiningServer(graph, port=0) as server:
        outcome = RemoteSession(server.url).enumerate(request)
    assert_identical(outcome, MiningSession(graph).enumerate(request))
    assert forms == ["rows"]


def test_fleet_streams_columns(forms):
    graph, alpha = CASES["random"]
    request = EnumerationRequest(algorithm="mule", alpha=alpha)
    workers = [MiningServer(GraphStore(), port=0).start() for _ in range(2)]
    try:
        pool = WorkerPool([worker.url for worker in workers])
        with DistributedSession(graph, pool, page_size=4) as session:
            outcome = session.enumerate(request)
        pool.close()
    finally:
        for worker in workers:
            worker.close()
    outcome.assert_matches(MiningSession(graph).enumerate(request))
    assert forms and set(forms) == {"columns"}
