"""Maximal cliques of a deterministic graph: Bron–Kerbosch with pivoting."""

from __future__ import annotations

from collections.abc import Iterator

from repro import Graph


def bron_kerbosch_pivot(graph: Graph) -> Iterator[frozenset]:
    """Yield every maximal clique of ``graph`` exactly once.

    At each level a pivot ``u`` maximising ``|P ∩ Γ(u)|`` is taken from
    ``P ∪ X``, and only vertices outside ``Γ(u)`` are branched on (Tomita,
    Tanaka & Takahashi, 2006).  Isolated vertices are singleton cliques; an
    empty graph yields the empty clique once.
    """
    adjacency = {v: graph.adjacency(v) for v in graph.vertices()}

    def expand(r: set, p: set, x: set) -> Iterator[frozenset]:
        if not p and not x:
            yield frozenset(r)
            return
        pivot = max(p | x, key=lambda u: len(p & adjacency[u]))
        for v in list(p - adjacency[pivot]):
            yield from expand(r | {v}, p & adjacency[v], x & adjacency[v])
            p.discard(v)
            x.add(v)

    yield from expand(set(), set(adjacency), set())
