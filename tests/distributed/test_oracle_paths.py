"""The packed upload paths against the brute-force oracle.

A graph uploaded through ``RemoteStore.add`` and enumerated through
``RemoteSession``, and a graph shipped by a 2-worker ``DistributedSession``,
both travel as ``graph-columns`` and are fingerprinted and compiled from
the decoded columns on the worker.  Each result must equal the paper's
definition, computed by exhaustive search (the same clique set with the
same exact probabilities), and serial MULE, counters included.

Edge probabilities are multiples of 1/4, so every clique probability is
an exact binary fraction and α can sit exactly on one, or one ulp above.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.api import EnumerationRequest, MiningSession
from repro.api.store import GraphStore
from repro.core.brute_force import brute_force_alpha_maximal_cliques
from repro.distributed import DistributedSession
from repro.service import MiningServer
from repro.service.client import RemoteStore
from repro.uncertain.graph import UncertainGraph

BOUNDED = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

labels = st.one_of(st.integers(min_value=0, max_value=30), st.text("abc", max_size=2))


@st.composite
def cases(draw) -> tuple[UncertainGraph, float]:
    """A graph of at most 12 vertices and an α on or just above a clique."""
    graph = UncertainGraph(vertices=draw(st.lists(labels, max_size=12, unique=True)))
    present = list(graph.vertices())
    for u in present:
        for v in present:
            if repr(u) < repr(v) and draw(st.booleans()):
                graph.add_edge(u, v, draw(st.sampled_from([0.25, 0.5, 0.75, 1.0])))
    # A clique's probability: an edge, or a triangle through it, or 1.0
    # (a singleton).
    alpha = 1.0
    edges = list(graph.edges())
    if edges:
        u, v, alpha = draw(st.sampled_from(edges))
        common = sorted(graph.common_neighbors(u, v), key=repr)
        if common and draw(st.booleans()):
            alpha = graph.clique_probability([u, v, draw(st.sampled_from(common))])
    if alpha < 1.0 and draw(st.booleans()):
        alpha = math.nextafter(alpha, 2.0)
    return graph, alpha


@pytest.fixture(scope="module")
def workers():
    servers = [MiningServer(GraphStore(), port=0, quiet=True).start() for _ in range(2)]
    yield servers
    for server in servers:
        server.close()


def check(outcome, graph: UncertainGraph, alpha: float, serial) -> None:
    oracle = brute_force_alpha_maximal_cliques(graph, alpha)
    found = outcome.records_by_vertices()
    assert found == {record.vertices: record.probability for record in oracle.cliques}
    assert len(found) == outcome.num_cliques
    outcome.assert_matches(serial)


@BOUNDED
@given(cases())
@example((UncertainGraph(), 0.5))
@example((UncertainGraph(vertices=[0, "a"], edges=[(0, "a", 0.5)]), 0.5))
@example((UncertainGraph(vertices=[0, "a"], edges=[(0, "a", 0.5)]), math.nextafter(0.5, 2.0)))
def test_packed_uploads_agree_with_the_oracle(workers, case):
    graph, alpha = case
    request = EnumerationRequest(algorithm="mule", alpha=alpha)
    serial = MiningSession(graph).enumerate(request)

    store = RemoteStore(workers[0].url)
    info = store.add(graph)
    assert info.fingerprint == graph.fingerprint()
    check(store.session(info.fingerprint).enumerate(request), graph, alpha, serial)

    with DistributedSession(graph, [server.url for server in workers]) as fleet:
        check(fleet.enumerate(request), graph, alpha, serial)
