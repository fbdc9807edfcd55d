"""Property-based tests for possible-world semantics and counting bounds."""

from __future__ import annotations

from math import comb

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.bounds import (
    extremal_uncertain_graph,
    moon_moser_bound,
    uncertain_clique_bound,
)
from repro.core.mule import mule
from tests.oracles.possible_worlds import enumerate_possible_worlds, sample_possible_world

from .strategies import uncertain_graphs

RELAXED = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestSamplingProperties:
    @RELAXED
    @given(graph=uncertain_graphs(max_vertices=7), seed=st.integers(0, 2**16))
    def test_sampled_world_is_a_subgraph(self, graph, seed):
        world = sample_possible_world(graph, rng=seed)
        assert set(world.vertices()) == set(graph.vertices())
        for u, v in world.edges():
            assert graph.has_edge(u, v)

    @RELAXED
    @given(graph=uncertain_graphs(max_vertices=5))
    def test_world_probabilities_form_a_distribution(self, graph):
        if graph.num_edges > 12:
            return
        total = sum(p for _, p in enumerate_possible_worlds(graph))
        assert abs(total - 1.0) <= 1e-9

    @RELAXED
    @given(graph=uncertain_graphs(max_vertices=5))
    def test_clique_probability_equals_world_mass(self, graph):
        """clq(C, G) equals the total probability of worlds where C is a clique."""
        if graph.num_edges > 12 or graph.num_vertices < 2:
            return
        vertices = sorted(graph.vertices())[:3]
        mass = sum(
            p
            for world, p in enumerate_possible_worlds(graph)
            if world.is_clique(vertices)
        )
        assert abs(mass - graph.clique_probability(vertices)) <= 1e-9


class TestBoundProperties:
    @RELAXED
    @given(n=st.integers(min_value=2, max_value=40))
    def test_uncertain_bound_is_central_binomial(self, n):
        assert uncertain_clique_bound(n, 0.5) == comb(n, n // 2)

    @RELAXED
    @given(n=st.integers(min_value=2, max_value=30))
    def test_uncertain_bound_dominates_moon_moser(self, n):
        assert uncertain_clique_bound(n, 0.5) >= moon_moser_bound(n)

    @RELAXED
    @given(
        n=st.integers(min_value=2, max_value=7),
        alpha=st.floats(min_value=0.1, max_value=0.9),
    )
    def test_extremal_graph_attains_bound(self, n, alpha):
        graph = extremal_uncertain_graph(n, alpha)
        result = mule(graph, alpha * (1 - 1e-9))
        assert result.num_cliques == uncertain_clique_bound(n, alpha)

    @RELAXED
    @given(n=st.integers(min_value=1, max_value=60))
    def test_moon_moser_recurrence(self, n):
        """Moon–Moser numbers grow by exactly 3× every 3 vertices."""
        if n <= 2:
            return
        assert moon_moser_bound(n + 3) == 3 * moon_moser_bound(n)
