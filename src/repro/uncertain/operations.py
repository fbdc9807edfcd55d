"""Graph-level operations on uncertain graphs.

The most important operation for the paper's algorithms is the
α-threshold edge pruning of Observation 3: any edge with probability below
``α`` can never participate in an α-clique of size ≥ 2, so it can be dropped
before enumeration without changing the output.  The compile stage
applies it on its own, row by row
(:meth:`repro.core.engine.compiled.CompiledGraph.from_graph`), so
:func:`prune_edges_below_alpha` is the graph-level form for callers that
want a pruned copy.  The other helpers here (induced neighborhoods, vertex
filtering, component decomposition) are general utilities of the public
:mod:`repro.uncertain` API; no enumerator calls them.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable

from .graph import UncertainGraph, validate_probability

__all__ = [
    "prune_edges_below_alpha",
    "prune_isolated_vertices",
    "filter_edges",
    "neighborhood_subgraph",
    "connected_components",
    "largest_component",
]

Vertex = Hashable


def prune_edges_below_alpha(
    graph: UncertainGraph, alpha: float, *, drop_isolated: bool = False
) -> UncertainGraph:
    """Return a copy of ``graph`` with every edge of probability < ``alpha`` removed.

    This is the preprocessing justified by Observation 3 of the paper: if
    ``C`` is an α-clique then every edge inside ``C`` has ``p(e) ≥ α``, so
    removing lighter edges preserves all α-cliques (and hence all α-maximal
    cliques) of size at least two.  Singleton α-maximal cliques are also
    preserved because vertices are kept (unless ``drop_isolated`` is set).

    Parameters
    ----------
    graph:
        The input uncertain graph (not modified).
    alpha:
        The probability threshold in ``(0, 1]``.
    drop_isolated:
        When ``True``, vertices left without any incident edge after the
        pruning are removed as well.  Use only when singleton cliques are
        not of interest.

    >>> g = UncertainGraph(edges=[(1, 2, 0.9), (2, 3, 0.1)])
    >>> pruned = prune_edges_below_alpha(g, 0.5)
    >>> pruned.num_edges
    1
    """
    alpha = validate_probability(alpha, what="alpha")
    result = UncertainGraph(vertices=graph.vertices())
    for u, v, p in graph.edges():
        if p >= alpha:
            result.add_edge(u, v, p)
    if drop_isolated:
        result = prune_isolated_vertices(result)
    return result


def prune_isolated_vertices(graph: UncertainGraph) -> UncertainGraph:
    """Return a copy of ``graph`` with all degree-0 vertices removed."""
    keep = [v for v in graph.vertices() if graph.degree(v) > 0]
    return graph.subgraph(keep)


def filter_edges(
    graph: UncertainGraph,
    predicate: Callable[[Vertex, Vertex, float], bool],
) -> UncertainGraph:
    """Return a copy of ``graph`` keeping only edges for which ``predicate`` holds.

    The predicate receives ``(u, v, p)`` for each edge.  All vertices are
    retained.
    """
    result = UncertainGraph(vertices=graph.vertices())
    for u, v, p in graph.edges():
        if predicate(u, v, p):
            result.add_edge(u, v, p)
    return result


def neighborhood_subgraph(
    graph: UncertainGraph, center: Vertex, *, include_center: bool = True
) -> UncertainGraph:
    """Return the uncertain subgraph induced by ``Γ(center)`` (plus the center).

    Useful for ego-network analyses such as the protein-complex example.
    """
    vertices = graph.neighbors(center)
    if include_center:
        vertices = vertices | {center}
    return graph.subgraph(vertices)


def connected_components(graph: UncertainGraph) -> list[set[Vertex]]:
    """Return the connected components of the skeleton as vertex sets.

    Connectivity here ignores probabilities — two vertices are connected when
    a path of possible edges joins them.
    """
    remaining = set(graph.vertices())
    components: list[set[Vertex]] = []
    while remaining:
        root = next(iter(remaining))
        seen = {root}
        stack = [root]
        while stack:
            u = stack.pop()
            for w in graph.adjacency(u):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        components.append(seen)
        remaining -= seen
    return components


def largest_component(graph: UncertainGraph) -> UncertainGraph:
    """Return the uncertain subgraph induced by the largest connected component.

    Returns an empty graph when the input has no vertices.
    """
    components = connected_components(graph)
    if not components:
        return UncertainGraph()
    biggest = max(components, key=len)
    return graph.subgraph(biggest)
