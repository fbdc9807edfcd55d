"""``CompiledGraph.from_graph`` against the edge-walk build it replaced.

The row build must give the same artifact (labels, order flag, index map,
masks and probabilities) with no threshold, at a threshold strictly
between two edge probabilities and at one equal to an edge probability
(Observation 3 keeps ``p >= α``), and the same cliques and counters on
both kernels.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.engine import MuleStrategy
from repro.core.engine.backends import run_kernel_search
from repro.core.engine.compiled import CompiledGraph
from repro.core.engine.controls import RunReport
from repro.core.result import SearchStatistics
from repro.uncertain.graph import UncertainGraph
from tests.oracles.compile_edges import compile_by_edges
from tests.service.test_graph_wire_bytes import graphs

RELAXED = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def artifact(compiled: CompiledGraph) -> tuple:
    return (
        compiled.labels,
        compiled.labels_sorted,
        compiled.index_of,
        compiled.adjacency_mask,
        compiled.adjacency_probability,
    )


def thresholds(graph: UncertainGraph, pick: int) -> list[float | None]:
    """``None``, one edge probability, and a value strictly between two."""
    probabilities = sorted({p for _, _, p in graph.edges()})
    chosen: list[float | None] = [None]
    if probabilities:
        chosen.append(probabilities[pick % len(probabilities)])
    if len(probabilities) >= 2:
        low = pick % (len(probabilities) - 1)
        middle = (probabilities[low] + probabilities[low + 1]) / 2
        if probabilities[low] < middle < probabilities[low + 1]:
            chosen.append(middle)
    return chosen


def search(compiled: CompiledGraph, alpha: float, kernel: str):
    statistics, report = SearchStatistics(), RunReport()
    cliques = [
        (compiled.decode(indices), probability)
        for indices, probability in run_kernel_search(
            compiled, alpha, MuleStrategy(), kernel=kernel,
            statistics=statistics, report=report,
        )
    ]
    return cliques, statistics, report


@RELAXED
@given(graphs(), st.integers(min_value=0, max_value=50))
@example(UncertainGraph(), 0)
@example(UncertainGraph(edges=[(1, 2, 0.5), (2, 3, 0.5), (1, 3, 0.25)]), 0)
def test_rows_build_the_edge_walk_artifact(graph, pick):
    for threshold in thresholds(graph, pick):
        rows = CompiledGraph.from_graph(graph, min_probability=threshold)
        edges = compile_by_edges(graph, min_probability=threshold)
        assert artifact(rows) == artifact(edges), threshold
        alpha = 0.5 if threshold is None else threshold
        for kernel in ("python", "vector"):
            assert search(rows, alpha, kernel) == search(edges, alpha, kernel)


def test_threshold_equal_to_an_edge_keeps_it():
    graph = UncertainGraph(edges=[(1, 2, 0.5), (2, 3, 0.25)])
    compiled = CompiledGraph.from_graph(graph, min_probability=0.5)
    assert compiled.adjacency_mask == [0b010, 0b001, 0b000]
    assert compiled.adjacency_probability == [{1: 0.5}, {0: 0.5}, {}]


@pytest.mark.parametrize("threshold", [None, 0.25, 0.3])
def test_retyped_endpoint_indexes_its_vertex(threshold):
    # Vertex 2's adjacency stores the endpoint 1.0 of vertex 1.
    graph = UncertainGraph(vertices=[2, 1, "iso"])
    graph.add_edge(1.0, 2, 0.5)
    graph.add_edge(2, "iso", 0.25)
    rows = CompiledGraph.from_graph(graph, min_probability=threshold)
    assert artifact(rows) == artifact(compile_by_edges(graph, min_probability=threshold))
