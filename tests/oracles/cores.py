"""Core numbers of a deterministic graph, by min-degree peeling."""

from __future__ import annotations

from collections.abc import Hashable

from repro import Graph


def core_numbers(graph: Graph) -> dict[Hashable, int]:
    """Return the core number of every vertex of ``graph``.

    Vertices are removed one at a time, always one of least remaining
    degree.  A vertex's core number is the largest remaining degree seen at
    any removal up to and including its own (Batagelj & Zaveršnik, 2003).
    Quadratic in the number of vertices, which is fine at test sizes.
    """
    degree = {v: graph.degree(v) for v in graph.vertices()}
    cores: dict[Hashable, int] = {}
    level = 0
    while degree:
        v = min(degree, key=degree.__getitem__)
        level = max(level, degree.pop(v))
        cores[v] = level
        for w in graph.adjacency(v):
            if w in degree:
                degree[w] -= 1
    return cores
