"""Unit tests for the Bron–Kerbosch oracle."""

from __future__ import annotations

import pytest

from repro.core.bounds import moon_moser_bound
from repro.core.brute_force import brute_force_alpha_maximal_cliques
from repro.deterministic.graph import Graph
from repro.generators.erdos_renyi import erdos_renyi_skeleton
from repro.uncertain.builder import from_skeleton
from tests.oracles.bron_kerbosch import bron_kerbosch_pivot


def cliques_of(graph: Graph) -> set[frozenset]:
    return set(bron_kerbosch_pivot(graph))


class TestSmallGraphs:
    def test_single_edge(self):
        assert cliques_of(Graph(edges=[(1, 2)])) == {frozenset({1, 2})}

    def test_path(self):
        g = Graph(edges=[(1, 2), (2, 3)])
        assert cliques_of(g) == {frozenset({1, 2}), frozenset({2, 3})}

    def test_triangle_with_pendant(self):
        g = Graph(edges=[(1, 2), (1, 3), (2, 3), (3, 4)])
        assert cliques_of(g) == {frozenset({1, 2, 3}), frozenset({3, 4})}

    def test_isolated_vertex_is_singleton_clique(self):
        g = Graph(edges=[(1, 2)], vertices=[3])
        assert frozenset({3}) in cliques_of(g)

    def test_complete_graph_single_clique(self):
        g = Graph(edges=[(u, v) for u in range(1, 6) for v in range(u + 1, 6)])
        assert cliques_of(g) == {frozenset(range(1, 6))}

    def test_empty_graph_yields_only_the_empty_clique(self):
        assert cliques_of(Graph()) == {frozenset()}

    def test_generator_is_lazy(self):
        generator = bron_kerbosch_pivot(Graph(edges=[(1, 2), (2, 3)]))
        assert isinstance(next(generator), frozenset)


class TestCorrectness:
    @pytest.mark.parametrize("seed", range(8))
    def test_agrees_with_brute_force_on_random_graphs(self, seed):
        # On a certain graph at α = 1, Definition 4 reduces to plain maximality.
        g = erdos_renyi_skeleton(12, 0.4, rng=seed)
        certain = from_skeleton(g, lambda u, v: 1.0)
        assert cliques_of(g) == brute_force_alpha_maximal_cliques(certain, 1.0).vertex_sets()

    @pytest.mark.parametrize("seed", range(5))
    def test_every_output_is_a_maximal_clique(self, seed):
        g = erdos_renyi_skeleton(14, 0.35, rng=100 + seed)
        for clique in bron_kerbosch_pivot(g):
            assert g.is_clique(clique)
            outside = set(g.vertices()) - clique
            assert not any(clique <= g.adjacency(v) for v in outside)

    @pytest.mark.parametrize("seed", range(5))
    def test_no_duplicates(self, seed):
        g = erdos_renyi_skeleton(13, 0.45, rng=200 + seed)
        cliques = list(bron_kerbosch_pivot(g))
        assert len(cliques) == len(set(cliques))

    def test_every_vertex_covered(self):
        g = erdos_renyi_skeleton(20, 0.2, rng=4)
        covered = set()
        for clique in bron_kerbosch_pivot(g):
            covered |= clique
        assert covered == set(g.vertices())

    @pytest.mark.parametrize("n", [3, 6, 9])
    def test_moon_moser_graph_reaches_bound(self, n):
        # Complete multipartite graph with parts of size 3.
        parts = [list(range(i * 3 + 1, i * 3 + 4)) for i in range(n // 3)]
        edges = []
        for i, part_a in enumerate(parts):
            for part_b in parts[i + 1 :]:
                edges.extend((a, b) for a in part_a for b in part_b)
        g = Graph(vertices=range(1, n + 1), edges=edges)
        assert sum(1 for _ in bron_kerbosch_pivot(g)) == moon_moser_bound(n)
