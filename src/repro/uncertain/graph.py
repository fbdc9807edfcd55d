"""The uncertain graph data structure.

An uncertain graph ``G = (V, E, p)`` (Section 2 of the paper) is an
undirected simple graph in which every edge ``e`` carries an independent
existence probability ``p(e) ∈ (0, 1]``.  The graph is a compact
representation of a probability distribution over the ``2^m`` deterministic
subgraphs of ``(V, E)`` — the *possible worlds*.

Design notes
------------
* Adjacency is stored as ``dict[vertex, dict[vertex, float]]`` so that both
  neighborhood iteration and edge-probability lookup are O(1) expected time.
  The paper's complexity analysis (Lemma 10) explicitly assumes constant
  time probability lookups ("the edge probabilities can be stored as a
  HashMap"); this mirrors that assumption.
* Probabilities of exactly ``1.0`` are allowed (a certain edge); ``0`` is
  not, because an impossible edge is equivalent to no edge at all.
* Vertices may be any hashable value.  The enumeration algorithms relabel
  vertices to integers ``1..n`` internally.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Hashable, Iterable, Iterator
from typing import Any

from ..deterministic.graph import Graph, normalize_edge
from ..errors import EdgeError, ProbabilityError, VertexError

__all__ = ["UncertainGraph", "validate_probability"]

#: Lines per digest update in :meth:`UncertainGraph.fingerprint`: a few
#: updates per graph, and memory that stays bounded however large it is.
_FINGERPRINT_BLOCK = 4096

Vertex = Hashable
Edge = tuple[Any, Any]


def _canonical_label(v: Vertex) -> str:
    """Equality-respecting encoding of a vertex label for fingerprinting.

    Python dict keys compare ``1 == 1.0 == True``, so two ``==``-equal
    graphs may hold the "same" vertex under different numeric types;
    encoding numbers by value keeps :meth:`UncertainGraph.fingerprint`
    consistent with ``__eq__``.  Non-numeric labels fall back to
    ``type:repr``.
    """
    if isinstance(v, (bool, int)):
        return f"n{int(v)}"
    if isinstance(v, float):
        if v.is_integer() and abs(v) <= 2.0**53:
            return f"n{int(v)}"
        return f"f{v.hex()}"
    return f"r{type(v).__name__}:{v!r}"


def validate_probability(p: float, *, what: str = "edge probability") -> float:
    """Validate that ``p`` is a real number in ``(0, 1]`` and return it as float.

    Raises
    ------
    ProbabilityError
        If ``p`` is not a finite number in the half-open interval ``(0, 1]``.

    >>> validate_probability(0.5)
    0.5
    """
    try:
        value = float(p)
    except (TypeError, ValueError) as exc:
        raise ProbabilityError(f"{what} must be a number, got {p!r}") from exc
    if math.isnan(value) or math.isinf(value):
        raise ProbabilityError(f"{what} must be finite, got {value!r}")
    if not 0.0 < value <= 1.0:
        raise ProbabilityError(f"{what} must lie in (0, 1], got {value!r}")
    return value


class UncertainGraph:
    """An undirected simple graph with independent edge existence probabilities.

    Parameters
    ----------
    vertices:
        Optional iterable of initial vertices.
    edges:
        Optional iterable of ``(u, v, p)`` triples.

    Examples
    --------
    >>> g = UncertainGraph(edges=[(1, 2, 0.9), (2, 3, 0.5)])
    >>> g.num_vertices, g.num_edges
    (3, 2)
    >>> g.probability(2, 1)
    0.9
    >>> round(g.clique_probability([1, 2]), 3)
    0.9
    """

    def __init__(
        self,
        vertices: Iterable[Vertex] | None = None,
        edges: Iterable[tuple[Vertex, Vertex, float]] | None = None,
    ) -> None:
        self._adj: dict[Vertex, dict[Vertex, float]] = {}
        if vertices is not None:
            for v in vertices:
                self.add_vertex(v)
        if edges is not None:
            for u, v, p in edges:
                self.add_edge(u, v, p)

    @classmethod
    def from_adjacency(
        cls, adjacency: dict[Vertex, dict[Vertex, float]]
    ) -> "UncertainGraph":
        """Adopt a prepared adjacency mapping as a new graph's storage.

        The bulk-construction path for builders that have already checked
        what :meth:`add_edge` checks (the wire decoder): every edge is
        stored in both directions with the same probability, no vertex is
        its own neighbour, and every probability passed
        :func:`validate_probability`.  The mapping is taken over, not
        copied, and not re-validated.

        >>> g = UncertainGraph.from_adjacency({1: {2: 0.5}, 2: {1: 0.5}, 3: {}})
        >>> g == UncertainGraph(vertices=[3], edges=[(1, 2, 0.5)])
        True
        """
        graph = cls()
        graph._adj = adjacency
        return graph

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add_vertex(self, v: Vertex) -> None:
        """Add vertex ``v``; adding an existing vertex is a no-op."""
        if v not in self._adj:
            self._adj[v] = {}

    def add_edge(self, u: Vertex, v: Vertex, probability: float) -> None:
        """Add the edge ``{u, v}`` with the given existence probability.

        Endpoints are created if missing.  Re-adding an existing edge
        overwrites its probability.

        Raises
        ------
        EdgeError
            If ``u == v``.
        ProbabilityError
            If ``probability`` is not in ``(0, 1]``.
        """
        if u == v:
            raise EdgeError(f"self-loop on vertex {u!r} is not allowed in a simple graph")
        p = validate_probability(probability)
        self.add_vertex(u)
        self.add_vertex(v)
        self._adj[u][v] = p
        self._adj[v][u] = p

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove the edge ``{u, v}``.

        Raises
        ------
        EdgeError
            If the edge is not present.
        """
        if not self.has_edge(u, v):
            raise EdgeError(f"edge {{{u!r}, {v!r}}} is not in the graph")
        del self._adj[u][v]
        del self._adj[v][u]

    def remove_vertex(self, v: Vertex) -> None:
        """Remove vertex ``v`` along with all incident edges.

        Raises
        ------
        VertexError
            If ``v`` is not present.
        """
        if v not in self._adj:
            raise VertexError(f"vertex {v!r} is not in the graph")
        for u in list(self._adj[v]):
            del self._adj[u][v]
        del self._adj[v]

    # ------------------------------------------------------------------ #
    # Basic queries
    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of possible edges ``m``."""
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    @property
    def num_possible_worlds(self) -> int:
        """Number of possible worlds, ``2^m`` (exact integer)."""
        return 1 << self.num_edges

    def has_vertex(self, v: Vertex) -> bool:
        """Return ``True`` when ``v`` is a vertex of the graph."""
        return v in self._adj

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Return ``True`` when the possible edge ``{u, v}`` exists."""
        return u in self._adj and v in self._adj[u]

    def probability(self, u: Vertex, v: Vertex) -> float:
        """Return ``p({u, v})``.

        Raises
        ------
        EdgeError
            If the edge is not present in the graph.
        """
        if not self.has_edge(u, v):
            raise EdgeError(f"edge {{{u!r}, {v!r}}} is not in the graph")
        return self._adj[u][v]

    def probability_or(self, u: Vertex, v: Vertex, default: float = 0.0) -> float:
        """Return ``p({u, v})`` or ``default`` when the edge is absent."""
        if u in self._adj:
            return self._adj[u].get(v, default)
        return default

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over all vertices."""
        return iter(self._adj)

    def edges(self) -> Iterator[tuple[Vertex, Vertex, float]]:
        """Iterate over ``(u, v, p)`` triples, each edge exactly once."""
        seen: set[Edge] = set()
        for u, nbrs in self._adj.items():
            for v, p in nbrs.items():
                e = normalize_edge(u, v)
                if e not in seen:
                    seen.add(e)
                    yield (*e, p)

    def neighbors(self, v: Vertex) -> set[Vertex]:
        """Return the neighborhood ``Γ(v)`` as a new set.

        Raises
        ------
        VertexError
            If ``v`` is not a vertex of the graph.
        """
        if v not in self._adj:
            raise VertexError(f"vertex {v!r} is not in the graph")
        return set(self._adj[v])

    def neighbor_probabilities(self, v: Vertex) -> dict[Vertex, float]:
        """Return a copy of the mapping neighbor → edge probability for ``v``."""
        if v not in self._adj:
            raise VertexError(f"vertex {v!r} is not in the graph")
        return dict(self._adj[v])

    def adjacency(self, v: Vertex) -> dict[Vertex, float]:
        """Return the internal adjacency mapping of ``v`` (no copy).

        This is the hot-path accessor used by the enumeration algorithms.
        Callers must not mutate the returned mapping.
        """
        if v not in self._adj:
            raise VertexError(f"vertex {v!r} is not in the graph")
        return self._adj[v]

    def degree(self, v: Vertex) -> int:
        """Return ``|Γ(v)|`` (the number of possible edges at ``v``)."""
        if v not in self._adj:
            raise VertexError(f"vertex {v!r} is not in the graph")
        return len(self._adj[v])

    def expected_degree(self, v: Vertex) -> float:
        """Return the expected degree of ``v``, ``Σ_{u ∈ Γ(v)} p({u, v})``."""
        if v not in self._adj:
            raise VertexError(f"vertex {v!r} is not in the graph")
        return sum(self._adj[v].values())

    # ------------------------------------------------------------------ #
    # Clique-related queries
    # ------------------------------------------------------------------ #
    def is_clique(self, vertices: Iterable[Vertex]) -> bool:
        """Return ``True`` when every pair in ``vertices`` is a possible edge.

        This is clique-ness of the *skeleton* ``(V, E)``; whether the set is
        an α-clique additionally depends on the edge probabilities (see
        :meth:`clique_probability`).
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

    def clique_probability(self, vertices: Iterable[Vertex]) -> float:
        """Return ``clq(C, G)``, the probability that ``vertices`` form a clique.

        Implements Observation 1 of the paper: when the set is a clique of
        the skeleton the probability is the product of its edge
        probabilities, and it is ``0.0`` when any required edge is missing.
        The empty set and singletons have clique probability ``1.0``.

        >>> g = UncertainGraph(edges=[(1, 2, 0.5), (2, 3, 0.5), (1, 3, 0.5)])
        >>> g.clique_probability([1, 2, 3])
        0.125
        """
        vs = list(vertices)
        for u in vs:
            if u not in self._adj:
                raise VertexError(f"vertex {u!r} is not in the graph")
        product = 1.0
        for i, u in enumerate(vs):
            nbrs = self._adj[u]
            for v in vs[i + 1 :]:
                p = nbrs.get(v)
                if p is None:
                    return 0.0
                product *= p
        return product

    def is_alpha_clique(self, vertices: Iterable[Vertex], alpha: float) -> bool:
        """Return ``True`` when ``vertices`` form an α-clique (Definition 3)."""
        alpha = validate_probability(alpha, what="alpha")
        return self.clique_probability(vertices) >= alpha

    def common_neighbors(self, u: Vertex, v: Vertex) -> set[Vertex]:
        """Return ``Γ(u) ∩ Γ(v)``."""
        if u not in self._adj:
            raise VertexError(f"vertex {u!r} is not in the graph")
        if v not in self._adj:
            raise VertexError(f"vertex {v!r} is not in the graph")
        small, large = (
            (self._adj[u], self._adj[v])
            if len(self._adj[u]) <= len(self._adj[v])
            else (self._adj[v], self._adj[u])
        )
        return {w for w in small if w in large}

    # ------------------------------------------------------------------ #
    # Derived graphs
    # ------------------------------------------------------------------ #
    def skeleton(self) -> Graph:
        """Return the deterministic skeleton ``(V, E)`` (probabilities dropped)."""
        g = Graph(vertices=self._adj)
        for u, v, _ in self.edges():
            g.add_edge(u, v)
        return g

    def subgraph(self, vertices: Iterable[Vertex]) -> "UncertainGraph":
        """Return the uncertain subgraph induced by ``vertices``.

        Vertices not present in the graph are ignored.
        """
        keep = {v for v in vertices if v in self._adj}
        sub = UncertainGraph(vertices=keep)
        for u in keep:
            for v, p in self._adj[u].items():
                if v in keep:
                    sub.add_edge(u, v, p)
        return sub

    def copy(self) -> "UncertainGraph":
        """Return a deep structural copy."""
        return UncertainGraph.from_adjacency(
            {v: dict(nbrs) for v, nbrs in self._adj.items()}
        )

    def relabeled(
        self,
    ) -> tuple["UncertainGraph", dict[Vertex, int], dict[int, Vertex]]:
        """Return an integer-labelled copy plus forward/backward label maps.

        Vertices are numbered ``1..n`` in sorted order (falling back to
        ``repr`` order for non-orderable labels), matching the paper's
        assumption that vertex identifiers are ``1, 2, ..., n``.
        """
        try:
            ordered = sorted(self._adj)
        except TypeError:
            ordered = sorted(self._adj, key=lambda v: (type(v).__name__, repr(v)))
        forward = {v: i + 1 for i, v in enumerate(ordered)}
        backward = {i: v for v, i in forward.items()}
        g = UncertainGraph(vertices=forward.values())
        for u, v, p in self.edges():
            g.add_edge(forward[u], forward[v], p)
        return g, forward, backward

    # ------------------------------------------------------------------ #
    # Identity
    # ------------------------------------------------------------------ #
    def fingerprint(self) -> str:
        """Return a stable content hash of the graph (SHA-256 hex digest).

        The hash covers the sorted vertex labels, the sorted edge set and
        the exact bit pattern of every edge probability (``float.hex``), so
        it is independent of insertion order and edge direction: two graphs
        that compare ``==`` produce the same fingerprint.  Numeric labels
        are encoded by value — ``1``, ``1.0`` and ``True`` are the same
        vertex, matching dict-key equality; exotic cross-type-equal labels
        outside int/float/bool (e.g. ``Decimal(1)`` vs ``1``) may still
        hash apart.  It is the key used by shared
        :class:`repro.api.CompiledGraphCache` instances for compiled-graph
        reuse across sessions, and is useful standalone for dataset
        deduplication.

        The fingerprint is recomputed on every call (the graph is mutable);
        cost is O((n + m) log(n + m)).

        >>> a = UncertainGraph(edges=[(1, 2, 0.5), (2, 3, 0.25)])
        >>> b = UncertainGraph(edges=[(3, 2, 0.25), (2, 1, 0.5)])
        >>> a.fingerprint() == b.fingerprint()
        True
        >>> a.fingerprint() == UncertainGraph(edges=[(1, 2, 0.5)]).fingerprint()
        False
        """
        try:
            ordered = sorted(self._adj)
        except TypeError:
            # Canonical-label order (not the compile stage's type/repr
            # order): the fingerprint must assign equal labels equal
            # positions regardless of their concrete type.
            ordered = sorted(self._adj, key=_canonical_label)
        index_of = {v: i for i, v in enumerate(ordered)}
        digest = hashlib.sha256(b"V")
        for start in range(0, len(ordered), _FINGERPRINT_BLOCK):
            block = ordered[start : start + _FINGERPRINT_BLOCK]
            labels = "".join([f"{_canonical_label(v)}\n" for v in block])
            digest.update(labels.encode("utf-8", "backslashreplace"))
        digest.update(b"E")
        edges: list[tuple[int, int, float]] = []
        for u, nbrs in self._adj.items():
            iu = index_of[u]
            for v, p in nbrs.items():
                iv = index_of[v]
                if iu < iv:
                    edges.append((iu, iv, p))
        edges.sort()
        for start in range(0, len(edges), _FINGERPRINT_BLOCK):
            block = edges[start : start + _FINGERPRINT_BLOCK]
            lines = "".join([f"{iu} {iv} {float(p).hex()}\n" for iu, iv, p in block])
            digest.update(lines.encode("ascii"))
        return digest.hexdigest()

    # ------------------------------------------------------------------ #
    # Summary statistics
    # ------------------------------------------------------------------ #
    def density(self) -> float:
        """Return the skeleton edge density ``2m / (n(n-1))``."""
        n = self.num_vertices
        if n < 2:
            return 0.0
        return 2.0 * self.num_edges / (n * (n - 1))

    def expected_num_edges(self) -> float:
        """Return the expected number of edges in a sampled possible world."""
        return sum(p for _, _, p in self.edges())

    def min_probability(self) -> float:
        """Return the smallest edge probability (1.0 for an edgeless graph)."""
        return min((p for _, _, p in self.edges()), default=1.0)

    def max_probability(self) -> float:
        """Return the largest edge probability (1.0 for an edgeless graph)."""
        return max((p for _, _, p in self.edges()), default=1.0)

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
        if not isinstance(other, UncertainGraph):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:
        return f"UncertainGraph(n={self.num_vertices}, m={self.num_edges})"
