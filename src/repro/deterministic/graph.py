"""Deterministic (certain) undirected simple graph.

This module provides :class:`Graph`, the deterministic substrate that the
uncertain-graph layer uses for skeletons.  The graph is undirected and
simple: no self loops, no parallel edges.  Vertices may be
any hashable object, although the enumeration algorithms in
:mod:`repro.core` relabel vertices to integers internally so that the
"increasing vertex identifier" order used by the paper's depth-first search
is well defined.

The implementation stores adjacency as ``dict[vertex, set[vertex]]`` which
gives O(1) expected-time edge queries and O(deg(v)) neighborhood iteration,
matching the assumptions used in the paper's complexity analysis
(Lemma 10 of the paper assumes constant-time edge-probability lookups; the
same holds for adjacency queries here).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator
from typing import Any

from ..errors import EdgeError, VertexError

__all__ = ["Graph", "normalize_edge"]

Vertex = Hashable
Edge = tuple[Any, Any]


def normalize_edge(u: Vertex, v: Vertex) -> Edge:
    """Return a canonical (sorted) representation of the undirected edge ``{u, v}``.

    Sorting is performed on ``(type name, repr)`` pairs when the endpoints are
    not mutually orderable so that heterogeneous vertex labels still receive a
    deterministic canonical form.

    >>> normalize_edge(3, 1)
    (1, 3)
    >>> normalize_edge("b", "a")
    ('a', 'b')
    """
    if u == v:
        raise EdgeError(f"self-loop on vertex {u!r} is not allowed in a simple graph")
    try:
        return (u, v) if u <= v else (v, u)  # type: ignore[operator]
    except TypeError:
        key_u = (type(u).__name__, repr(u))
        key_v = (type(v).__name__, repr(v))
        return (u, v) if key_u <= key_v else (v, u)


class Graph:
    """An undirected simple graph backed by adjacency sets.

    Parameters
    ----------
    vertices:
        Optional iterable of initial vertices.
    edges:
        Optional iterable of ``(u, v)`` pairs.  Endpoints are added as
        vertices automatically.

    Examples
    --------
    >>> g = Graph(edges=[(1, 2), (2, 3)])
    >>> g.num_vertices, g.num_edges
    (3, 2)
    >>> sorted(g.neighbors(2))
    [1, 3]
    >>> g.has_edge(3, 2)
    True
    """

    def __init__(
        self,
        vertices: Iterable[Vertex] | None = None,
        edges: Iterable[tuple[Vertex, Vertex]] | None = None,
    ) -> None:
        self._adj: dict[Vertex, set[Vertex]] = {}
        if vertices is not None:
            for v in vertices:
                self.add_vertex(v)
        if edges is not None:
            for u, v in edges:
                self.add_edge(u, v)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add_vertex(self, v: Vertex) -> None:
        """Add vertex ``v``; adding an existing vertex is a no-op."""
        if v not in self._adj:
            self._adj[v] = set()

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        """Add the undirected edge ``{u, v}``, creating endpoints as needed.

        Raises
        ------
        EdgeError
            If ``u == v`` (self-loops are not allowed).
        """
        if u == v:
            raise EdgeError(f"self-loop on vertex {u!r} is not allowed in a simple graph")
        self.add_vertex(u)
        self.add_vertex(v)
        self._adj[u].add(v)
        self._adj[v].add(u)

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove the edge ``{u, v}``.

        Raises
        ------
        EdgeError
            If the edge is not present.
        """
        if not self.has_edge(u, v):
            raise EdgeError(f"edge {{{u!r}, {v!r}}} is not in the graph")
        self._adj[u].discard(v)
        self._adj[v].discard(u)

    def remove_vertex(self, v: Vertex) -> None:
        """Remove vertex ``v`` and all incident edges.

        Raises
        ------
        VertexError
            If ``v`` is not present.
        """
        if v not in self._adj:
            raise VertexError(f"vertex {v!r} is not in the graph")
        for u in self._adj[v]:
            self._adj[u].discard(v)
        del self._adj[v]

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        """Number of vertices (``n`` in the paper's notation)."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of edges (``m`` in the paper's notation)."""
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def has_vertex(self, v: Vertex) -> bool:
        """Return ``True`` when ``v`` is a vertex of the graph."""
        return v in self._adj

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Return ``True`` when the undirected edge ``{u, v}`` exists."""
        return u in self._adj and v in self._adj[u]

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over all vertices."""
        return iter(self._adj)

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges exactly once, in canonical orientation."""
        seen: set[Edge] = set()
        for u, nbrs in self._adj.items():
            for v in nbrs:
                e = normalize_edge(u, v)
                if e not in seen:
                    seen.add(e)
                    yield e

    def neighbors(self, v: Vertex) -> set[Vertex]:
        """Return the neighborhood ``Γ(v)`` as a (copied) set.

        Raises
        ------
        VertexError
            If ``v`` is not a vertex of the graph.
        """
        if v not in self._adj:
            raise VertexError(f"vertex {v!r} is not in the graph")
        return set(self._adj[v])

    def adjacency(self, v: Vertex) -> frozenset[Vertex]:
        """Return a read-only view-like frozenset of ``Γ(v)`` without copying semantics.

        This is the preferred accessor inside inner loops because it avoids
        per-call set copies; callers must not mutate the graph while holding
        the returned value.
        """
        if v not in self._adj:
            raise VertexError(f"vertex {v!r} is not in the graph")
        return frozenset(self._adj[v])

    def degree(self, v: Vertex) -> int:
        """Return ``|Γ(v)|``."""
        if v not in self._adj:
            raise VertexError(f"vertex {v!r} is not in the graph")
        return len(self._adj[v])

    def is_clique(self, vertices: Iterable[Vertex]) -> bool:
        """Return ``True`` when ``vertices`` induce a complete subgraph.

        The empty set and singletons are cliques by convention (Definition 1
        of the paper is vacuously satisfied).
        """
        vs = list(vertices)
        for v in vs:
            if v not in self._adj:
                raise VertexError(f"vertex {v!r} is not in the graph")
        for i, u in enumerate(vs):
            nbrs = self._adj[u]
            for v in vs[i + 1 :]:
                if v not in nbrs:
                    return False
        return True

    def common_neighbors(self, u: Vertex, v: Vertex) -> set[Vertex]:
        """Return ``Γ(u) ∩ Γ(v)``."""
        if u not in self._adj:
            raise VertexError(f"vertex {u!r} is not in the graph")
        if v not in self._adj:
            raise VertexError(f"vertex {v!r} is not in the graph")
        return self._adj[u] & self._adj[v]

    def density(self) -> float:
        """Return the edge density ``2m / (n(n-1))`` (0.0 for graphs with < 2 vertices)."""
        n = self.num_vertices
        if n < 2:
            return 0.0
        return 2.0 * self.num_edges / (n * (n - 1))

    # ------------------------------------------------------------------ #
    # Derived graphs
    # ------------------------------------------------------------------ #
    def subgraph(self, vertices: Iterable[Vertex]) -> "Graph":
        """Return the subgraph induced by ``vertices``.

        Vertices not present in the graph are ignored, which makes the method
        convenient for restricting to candidate sets computed elsewhere.
        """
        keep = {v for v in vertices if v in self._adj}
        sub = Graph(vertices=keep)
        for u in keep:
            for v in self._adj[u]:
                if v in keep:
                    sub.add_edge(u, v)
        return sub

    def copy(self) -> "Graph":
        """Return a deep structural copy of the graph."""
        g = Graph()
        g._adj = {v: set(nbrs) for v, nbrs in self._adj.items()}
        return g

    def relabeled(self) -> tuple["Graph", dict[Vertex, int], dict[int, Vertex]]:
        """Return an integer-labelled copy plus forward/backward label maps.

        Vertices are assigned consecutive integers ``1..n`` in sorted order
        (falling back to ``repr`` order for non-orderable labels), mirroring
        the paper's assumption that vertex identifiers are ``1, 2, ..., n``.
        """
        try:
            ordered = sorted(self._adj)
        except TypeError:
            ordered = sorted(self._adj, key=lambda v: (type(v).__name__, repr(v)))
        forward = {v: i + 1 for i, v in enumerate(ordered)}
        backward = {i: v for v, i in forward.items()}
        g = Graph(vertices=forward.values())
        for u, v in self.edges():
            g.add_edge(forward[u], forward[v])
        return g, forward, backward

    # ------------------------------------------------------------------ #
    # Connectivity helpers
    # ------------------------------------------------------------------ #
    def connected_components(self) -> list[set[Vertex]]:
        """Return the connected components as a list of vertex sets."""
        remaining = set(self._adj)
        components: list[set[Vertex]] = []
        while remaining:
            root = next(iter(remaining))
            seen = {root}
            stack = [root]
            while stack:
                u = stack.pop()
                for w in self._adj[u]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            components.append(seen)
            remaining -= seen
        return components

    # ------------------------------------------------------------------ #
    # Dunder methods
    # ------------------------------------------------------------------ #
    def __contains__(self, v: Vertex) -> bool:
        return v in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._adj)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:
        return f"Graph(n={self.num_vertices}, m={self.num_edges})"
