"""Shared Neighborhood Filtering on ``UncertainGraph`` copies.

LARGE-MULE's pre-filter (Modani and Dey) as the compile stage ran it
before it moved onto the compiled bitmasks: copy the graph, drop edges
below α with ``prune_edges_below_alpha``, filter with set intersections
(``UncertainGraph.common_neighbors``), then compile what is left.
``CompiledGraph.restrict_shared_neighborhood`` is pinned against it.
"""

from __future__ import annotations

from repro.core.engine.compiled import CompiledGraph
from repro.core.pruning import PruningReport
from repro.errors import ParameterError
from repro.uncertain.graph import UncertainGraph
from repro.uncertain.operations import prune_edges_below_alpha


def shared_neighborhood_filter(
    graph: UncertainGraph,
    size_threshold: int,
    *,
    report: PruningReport | None = None,
) -> UncertainGraph:
    """Return a copy of ``graph`` filtered for cliques of ``size_threshold`` or more.

    Each round drops every edge whose endpoints share fewer than ``t - 2``
    neighbours, then every vertex without ``t - 1`` neighbours it shares
    at least ``t - 2`` neighbours with; rounds repeat until one changes
    nothing.  ``report`` is updated in place: ``rounds`` includes the last,
    unchanged round and ``edges_removed`` counts the edge steps only.

    >>> g = UncertainGraph(edges=[(1, 2, 0.9), (2, 3, 0.9), (1, 3, 0.9), (3, 4, 0.9)])
    >>> sorted(shared_neighborhood_filter(g, 3).vertices())
    [1, 2, 3]
    """
    if size_threshold < 2:
        raise ParameterError(
            f"size_threshold must be at least 2, got {size_threshold}"
        )
    t = size_threshold
    working = graph.copy()
    report = report if report is not None else PruningReport()

    changed = True
    while changed:
        changed = False
        report.rounds += 1

        # Edge filter: an edge inside a clique of size >= t has at least
        # t - 2 common neighbors (the remaining clique members).
        to_remove_edges = [
            (u, v)
            for u, v, _ in working.edges()
            if len(working.common_neighbors(u, v)) < t - 2
        ]
        for u, v in to_remove_edges:
            working.remove_edge(u, v)
        if to_remove_edges:
            changed = True
            report.edges_removed += len(to_remove_edges)

        # Vertex filter: a vertex of a clique of size >= t has at least
        # t - 1 neighbors u that themselves share >= t - 2 neighbors with it.
        to_remove_vertices = []
        for v in working.vertices():
            strong_neighbors = 0
            for u in working.adjacency(v):
                if len(working.common_neighbors(u, v)) >= t - 2:
                    strong_neighbors += 1
                    if strong_neighbors >= t - 1:
                        break
            if strong_neighbors < t - 1:
                to_remove_vertices.append(v)
        for v in to_remove_vertices:
            working.remove_vertex(v)
        if to_remove_vertices:
            changed = True
            report.vertices_removed += len(to_remove_vertices)

    return working


def compile_filtered(
    graph: UncertainGraph,
    *,
    alpha: float | None,
    size_threshold: int,
    report: PruningReport | None = None,
) -> CompiledGraph:
    """Prune a copy at ``alpha``, filter it and compile the survivors."""
    working = graph if alpha is None else prune_edges_below_alpha(graph, alpha)
    working = shared_neighborhood_filter(working, size_threshold, report=report)
    return CompiledGraph.from_graph(working)
