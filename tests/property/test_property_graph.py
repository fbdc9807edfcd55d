"""Property-based tests for the graph substrates and probability engine."""

from __future__ import annotations

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.uncertain.io import from_json, to_json
from repro.uncertain.operations import prune_edges_below_alpha

from .strategies import alphas, uncertain_graphs

RELAXED = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestGraphInvariants:
    @RELAXED
    @given(graph=uncertain_graphs())
    def test_degree_sum_equals_twice_edges(self, graph):
        assert sum(graph.degree(v) for v in graph.vertices()) == 2 * graph.num_edges

    @RELAXED
    @given(graph=uncertain_graphs())
    def test_expected_degree_at_most_degree(self, graph):
        for v in graph.vertices():
            assert graph.expected_degree(v) <= graph.degree(v) + 1e-9

    @RELAXED
    @given(graph=uncertain_graphs())
    def test_skeleton_preserves_counts(self, graph):
        skeleton = graph.skeleton()
        assert skeleton.num_vertices == graph.num_vertices
        assert skeleton.num_edges == graph.num_edges

    @RELAXED
    @given(graph=uncertain_graphs())
    def test_relabeling_preserves_structure(self, graph):
        relabeled, forward, backward = graph.relabeled()
        assert relabeled.num_vertices == graph.num_vertices
        assert relabeled.num_edges == graph.num_edges
        for u, v, p in graph.edges():
            assert relabeled.probability(forward[u], forward[v]) == p
        assert all(backward[forward[v]] == v for v in graph.vertices())

    @RELAXED
    @given(graph=uncertain_graphs())
    def test_json_round_trip_identity(self, graph):
        assert from_json(to_json(graph)) == graph


class TestCliqueProbabilityProperties:
    @RELAXED
    @given(graph=uncertain_graphs(), alpha=alphas)
    def test_monotonicity_under_subsets(self, graph, alpha):
        """Observation 2: subsets of a vertex set have at least its probability."""
        vertices = sorted(graph.vertices())
        if len(vertices) < 3:
            return
        big = vertices[:4]
        small = big[:-1]
        assert graph.clique_probability(small) >= graph.clique_probability(big)

    @RELAXED
    @given(graph=uncertain_graphs())
    def test_extension_factor_identity(self, graph):
        """clq(C ∪ {v}) == clq(C) · ∏_{u ∈ C} p({u, v}) for every vertex pair sample."""
        vertices = sorted(graph.vertices())
        if len(vertices) < 3:
            return
        base = vertices[:2]
        for v in vertices[2:5]:
            factor = math.prod(graph.probability_or(u, v) for u in base)
            lhs = graph.clique_probability(base + [v])
            rhs = graph.clique_probability(base) * factor
            assert abs(lhs - rhs) <= 1e-12

    @RELAXED
    @given(graph=uncertain_graphs())
    def test_probability_bounds(self, graph):
        vertices = sorted(graph.vertices())
        assert 0.0 <= graph.clique_probability(vertices[:3]) <= 1.0


class TestPruningProperties:
    @RELAXED
    @given(graph=uncertain_graphs(), alpha=alphas)
    def test_pruning_is_idempotent(self, graph, alpha):
        once = prune_edges_below_alpha(graph, alpha)
        twice = prune_edges_below_alpha(once, alpha)
        assert once == twice

    @RELAXED
    @given(graph=uncertain_graphs(), alpha=alphas)
    def test_pruning_never_adds_edges(self, graph, alpha):
        pruned = prune_edges_below_alpha(graph, alpha)
        assert pruned.num_edges <= graph.num_edges
        for u, v, p in pruned.edges():
            assert graph.probability(u, v) == p
            assert p >= alpha

    @RELAXED
    @given(graph=uncertain_graphs(), alpha=alphas)
    def test_pruning_preserves_alpha_clique_status(self, graph, alpha):
        """Observation 3: no α-clique is lost or created by pruning."""
        pruned = prune_edges_below_alpha(graph, alpha)
        vertices = sorted(graph.vertices())
        for size in (2, 3):
            subset = vertices[:size]
            if len(subset) < size:
                continue
            assert (graph.clique_probability(subset) >= alpha) == (
                pruned.clique_probability(subset) >= alpha
            )
