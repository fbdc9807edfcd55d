"""Unit tests for the possible-world oracle."""

from __future__ import annotations

import pytest

from repro.uncertain.graph import UncertainGraph
from tests.oracles.possible_worlds import enumerate_possible_worlds, sample_possible_world


class TestSampleWorld:
    def test_world_has_same_vertices(self, triangle):
        world = sample_possible_world(triangle, rng=1)
        assert set(world.vertices()) == set(triangle.vertices())

    def test_world_edges_subset_of_possible(self, triangle):
        world = sample_possible_world(triangle, rng=2)
        for u, v in world.edges():
            assert triangle.has_edge(u, v)

    def test_certain_edges_always_present(self):
        g = UncertainGraph(edges=[(1, 2, 1.0), (2, 3, 1.0)])
        for seed in range(5):
            world = sample_possible_world(g, rng=seed)
            assert world.num_edges == 2

    def test_seeded_sampling_is_reproducible(self, triangle):
        first = sample_possible_world(triangle, rng=42)
        second = sample_possible_world(triangle, rng=42)
        assert first == second


class TestEnumerateWorlds:
    def test_number_of_worlds(self):
        g = UncertainGraph(edges=[(1, 2, 0.5), (2, 3, 0.25)])
        worlds = list(enumerate_possible_worlds(g))
        assert len(worlds) == g.num_possible_worlds == 4

    def test_each_world_appears_once(self, path_graph):
        edge_sets = [frozenset(world.edges()) for world, _ in enumerate_possible_worlds(path_graph)]
        assert len(set(edge_sets)) == len(edge_sets) == 2**path_graph.num_edges

    def test_probabilities_sum_to_one(self, path_graph):
        total = sum(p for _, p in enumerate_possible_worlds(path_graph))
        assert total == pytest.approx(1.0)

    def test_single_edge_probabilities(self):
        g = UncertainGraph(edges=[(1, 2, 0.25)])
        by_edges = {world.num_edges: p for world, p in enumerate_possible_worlds(g)}
        assert by_edges[1] == pytest.approx(0.25)
        assert by_edges[0] == pytest.approx(0.75)

    def test_empty_world_probability(self):
        g = UncertainGraph(edges=[(1, 2, 0.5), (2, 3, 0.4)])
        by_edges = {world.num_edges: p for world, p in enumerate_possible_worlds(g)}
        assert by_edges[0] == pytest.approx(0.5 * 0.6)

    @pytest.mark.parametrize(
        "fixture, target",
        [
            ("two_cliques", {1, 2, 3}),
            ("two_cliques", {3, 4}),
            ("triangle", {1, 2, 3}),
            ("triangle", {1, 2, 3, 4}),
            ("path_graph", {2, 3}),
        ],
    )
    def test_exact_clique_probability_matches_world_sum(self, request, fixture, target):
        """Σ P(world) over worlds where C is a clique equals clq(C, G)."""
        graph = request.getfixturevalue(fixture)
        total = sum(
            p for world, p in enumerate_possible_worlds(graph) if world.is_clique(target)
        )
        assert total == pytest.approx(graph.clique_probability(target))


class TestSampledFrequencies:
    def test_estimate_close_to_exact(self, two_cliques):
        target = {1, 2, 3}
        samples = 4000
        hits = sum(
            1
            for seed in range(samples)
            if sample_possible_world(two_cliques, rng=seed).is_clique(target)
        )
        assert hits / samples == pytest.approx(
            two_cliques.clique_probability(target), abs=0.05
        )

    def test_certain_clique_always_sampled(self):
        g = UncertainGraph(edges=[(1, 2, 1.0), (2, 3, 1.0), (1, 3, 1.0)])
        assert all(sample_possible_world(g, rng=seed).is_clique({1, 2, 3}) for seed in range(50))
