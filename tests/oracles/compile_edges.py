"""The compile stage as it walked ``UncertainGraph.edges()``.

``CompiledGraph.from_graph`` builds each row from the vertex's adjacency;
this is the edge-walk build it replaced, kept as the reference the row
build is pinned against.
"""

from __future__ import annotations

from repro.core.engine.compiled import CompiledGraph
from repro.uncertain.graph import UncertainGraph


def compile_by_edges(
    graph: UncertainGraph, *, min_probability: float | None = None
) -> CompiledGraph:
    """Compile ``graph`` edge by edge, dropping ``p < min_probability``."""
    try:
        ordered = sorted(graph.vertices())
        labels_sorted = True
    except TypeError:
        ordered = sorted(graph.vertices(), key=lambda v: (type(v).__name__, repr(v)))
        labels_sorted = False
    index_of = {v: i for i, v in enumerate(ordered)}
    n = len(ordered)
    adjacency_mask = [0] * n
    adjacency_probability: list[dict[int, float]] = [dict() for _ in range(n)]
    for u, v, p in graph.edges():
        if min_probability is not None and p < min_probability:
            continue
        iu, iv = index_of[u], index_of[v]
        adjacency_mask[iu] |= 1 << iv
        adjacency_mask[iv] |= 1 << iu
        adjacency_probability[iu][iv] = p
        adjacency_probability[iv][iu] = p
    return CompiledGraph(ordered, adjacency_mask, adjacency_probability, labels_sorted)
