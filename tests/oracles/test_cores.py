"""Unit tests for the core-number oracle."""

from __future__ import annotations

from repro.deterministic.graph import Graph
from repro.generators.erdos_renyi import erdos_renyi_skeleton
from tests.oracles.cores import core_numbers


def complete_graph(n: int) -> Graph:
    return Graph(edges=[(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)])


class TestCoreNumbers:
    def test_complete_graph_core(self):
        cores = core_numbers(complete_graph(5))
        assert set(cores.values()) == {4}

    def test_path_graph_core(self):
        g = Graph(edges=[(1, 2), (2, 3), (3, 4)])
        assert set(core_numbers(g).values()) == {1}

    def test_triangle_with_pendant(self):
        g = Graph(edges=[(1, 2), (2, 3), (1, 3), (3, 4)])
        cores = core_numbers(g)
        assert cores[4] == 1
        assert cores[1] == cores[2] == cores[3] == 2

    def test_empty_graph(self):
        assert core_numbers(Graph()) == {}

    def test_core_number_at_most_degree(self):
        g = erdos_renyi_skeleton(40, 0.15, rng=3)
        cores = core_numbers(g)
        for v in g.vertices():
            assert cores[v] <= g.degree(v)
