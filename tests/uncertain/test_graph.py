"""Unit tests for the UncertainGraph data structure."""

from __future__ import annotations

import math

import pytest

from repro.errors import EdgeError, ProbabilityError, VertexError
from repro.uncertain.graph import UncertainGraph, validate_probability


@pytest.fixture
def weighted_triangle() -> UncertainGraph:
    return UncertainGraph(edges=[(1, 2, 0.5), (1, 3, 0.4), (2, 3, 0.8), (3, 4, 0.9)])


class TestValidateProbability:
    @pytest.mark.parametrize("p", [1e-9, 0.25, 0.5, 1.0])
    def test_valid_values_pass_through(self, p):
        assert validate_probability(p) == pytest.approx(p)

    @pytest.mark.parametrize("p", [0.0, -0.1, 1.0001, 5])
    def test_out_of_range_rejected(self, p):
        with pytest.raises(ProbabilityError):
            validate_probability(p)

    @pytest.mark.parametrize("p", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, p):
        with pytest.raises(ProbabilityError):
            validate_probability(p)

    def test_non_numeric_rejected(self):
        with pytest.raises(ProbabilityError):
            validate_probability("high")

    def test_integer_one_accepted(self):
        assert validate_probability(1) == 1.0


class TestConstruction:
    def test_empty(self):
        g = UncertainGraph()
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert g.num_possible_worlds == 1

    def test_edges_create_vertices(self):
        g = UncertainGraph(edges=[(1, 2, 0.5), (2, 3, 0.25)])
        assert g.num_vertices == 3
        assert g.num_edges == 2
        assert g.num_possible_worlds == 4

    def test_self_loop_rejected(self):
        with pytest.raises(EdgeError):
            UncertainGraph(edges=[(1, 1, 0.5)])

    def test_invalid_probability_rejected(self):
        with pytest.raises(ProbabilityError):
            UncertainGraph(edges=[(1, 2, 0.0)])
        with pytest.raises(ProbabilityError):
            UncertainGraph(edges=[(1, 2, 1.5)])

    def test_readding_edge_overwrites_probability(self):
        g = UncertainGraph(edges=[(1, 2, 0.5)])
        g.add_edge(1, 2, 0.75)
        assert g.probability(1, 2) == 0.75
        assert g.num_edges == 1


class TestQueries:
    def test_probability_symmetric(self):
        g = UncertainGraph(edges=[(1, 2, 0.6)])
        assert g.probability(1, 2) == 0.6
        assert g.probability(2, 1) == 0.6

    def test_probability_missing_edge(self):
        g = UncertainGraph(edges=[(1, 2, 0.6)])
        with pytest.raises(EdgeError):
            g.probability(1, 3)

    def test_probability_or_default(self):
        g = UncertainGraph(edges=[(1, 2, 0.6)])
        assert g.probability_or(1, 3) == 0.0
        assert g.probability_or(9, 10, default=-1.0) == -1.0

    def test_neighbors_and_degree(self):
        g = UncertainGraph(edges=[(1, 2, 0.5), (1, 3, 0.5)])
        assert g.neighbors(1) == {2, 3}
        assert g.degree(1) == 2
        assert g.degree(3) == 1

    def test_neighbor_probabilities_is_copy(self):
        g = UncertainGraph(edges=[(1, 2, 0.5)])
        mapping = g.neighbor_probabilities(1)
        mapping[2] = 0.1
        assert g.probability(1, 2) == 0.5

    def test_missing_vertex_raises(self):
        g = UncertainGraph()
        with pytest.raises(VertexError):
            g.neighbors(1)
        with pytest.raises(VertexError):
            g.degree(1)
        with pytest.raises(VertexError):
            g.expected_degree(1)

    def test_expected_degree(self):
        g = UncertainGraph(edges=[(1, 2, 0.5), (1, 3, 0.25)])
        assert g.expected_degree(1) == pytest.approx(0.75)

    def test_edges_iteration_unique(self):
        g = UncertainGraph(edges=[(1, 2, 0.5), (2, 3, 0.4)])
        edges = list(g.edges())
        assert len(edges) == 2
        assert all(len(e) == 3 for e in edges)

    def test_common_neighbors(self):
        g = UncertainGraph(edges=[(1, 3, 0.5), (2, 3, 0.5), (1, 4, 0.5), (2, 4, 0.5)])
        assert g.common_neighbors(1, 2) == {3, 4}

    def test_container_protocol(self):
        g = UncertainGraph(edges=[(1, 2, 0.5)])
        assert 1 in g
        assert 5 not in g
        assert len(g) == 2
        assert set(iter(g)) == {1, 2}

    def test_equality(self):
        a = UncertainGraph(edges=[(1, 2, 0.5)])
        b = UncertainGraph(edges=[(2, 1, 0.5)])
        c = UncertainGraph(edges=[(1, 2, 0.6)])
        assert a == b
        assert a != c


class TestCliqueProbability:
    def test_empty_and_singleton(self):
        g = UncertainGraph(vertices=[1])
        assert g.clique_probability([]) == 1.0
        assert g.clique_probability([1]) == 1.0

    def test_observation_one_product(self):
        g = UncertainGraph(edges=[(1, 2, 0.5), (1, 3, 0.5), (2, 3, 0.5)])
        assert g.clique_probability([1, 2, 3]) == pytest.approx(0.125)

    def test_missing_edge_gives_zero(self):
        g = UncertainGraph(edges=[(1, 2, 0.5), (2, 3, 0.5)])
        assert g.clique_probability([1, 2, 3]) == 0.0

    def test_observation_two_monotonicity(self):
        g = UncertainGraph(
            edges=[(1, 2, 0.9), (1, 3, 0.8), (2, 3, 0.7), (1, 4, 0.6), (2, 4, 0.6), (3, 4, 0.6)]
        )
        assert g.clique_probability([1, 2]) >= g.clique_probability([1, 2, 3])
        assert g.clique_probability([1, 2, 3]) >= g.clique_probability([1, 2, 3, 4])

    def test_is_alpha_clique(self):
        g = UncertainGraph(edges=[(1, 2, 0.5)])
        assert g.is_alpha_clique([1, 2], 0.5)
        assert not g.is_alpha_clique([1, 2], 0.51)

    def test_is_alpha_clique_validates_alpha(self):
        g = UncertainGraph(edges=[(1, 2, 0.5)])
        with pytest.raises(ProbabilityError):
            g.is_alpha_clique([1, 2], 0.0)

    def test_unknown_vertex_raises(self):
        g = UncertainGraph(edges=[(1, 2, 0.5)])
        with pytest.raises(VertexError):
            g.clique_probability([1, 99])

    def test_is_alpha_clique_threshold_inclusive(self, weighted_triangle):
        p = weighted_triangle.clique_probability([1, 2, 3])
        assert weighted_triangle.is_alpha_clique([1, 2, 3], p)
        assert not weighted_triangle.is_alpha_clique([1, 2, 3], p + 1e-9)

    def test_singletons_always_alpha_cliques(self, weighted_triangle):
        assert weighted_triangle.is_alpha_clique([1], 1.0)


class TestCliqueExtension:
    """clq(C ∪ {v}) = clq(C) · ∏_{u ∈ C} p({u, v}), the invariant MULE maintains."""

    def test_product_of_connecting_edges(self, weighted_triangle):
        g = weighted_triangle
        ratio = g.clique_probability([1, 2, 3]) / g.clique_probability([1, 2])
        assert ratio == pytest.approx(0.4 * 0.8)

    @pytest.mark.parametrize("v", [3, 4])
    def test_extension_identity(self, weighted_triangle, v):
        clique = [1, 2]
        factor = math.prod(weighted_triangle.probability_or(u, v) for u in clique)
        lhs = weighted_triangle.clique_probability(clique + [v])
        rhs = weighted_triangle.clique_probability(clique) * factor
        assert lhs == pytest.approx(rhs)

    def test_missing_edge_gives_zero(self, weighted_triangle):
        assert weighted_triangle.clique_probability([1, 2, 4]) == 0.0

    def test_extension_of_empty_clique_is_one(self, weighted_triangle):
        assert weighted_triangle.clique_probability([1]) == weighted_triangle.clique_probability([])


class TestDerivedGraphs:
    def test_skeleton_preserves_structure(self, triangle):
        skeleton = triangle.skeleton()
        assert skeleton.num_vertices == triangle.num_vertices
        assert skeleton.num_edges == triangle.num_edges
        assert skeleton.has_edge(3, 4)

    def test_subgraph(self, triangle):
        sub = triangle.subgraph([1, 2, 3])
        assert sub.num_vertices == 3
        assert sub.num_edges == 3
        assert sub.probability(1, 2) == 0.9

    def test_copy_independent(self, triangle):
        clone = triangle.copy()
        clone.add_edge(1, 4, 0.5)
        assert not triangle.has_edge(1, 4)

    def test_relabeled_round_trip(self):
        g = UncertainGraph(edges=[("x", "y", 0.4), ("y", "z", 0.6)])
        relabeled, forward, backward = g.relabeled()
        assert sorted(relabeled.vertices()) == [1, 2, 3]
        for original, new in forward.items():
            assert backward[new] == original
        assert relabeled.probability(forward["x"], forward["y"]) == 0.4

    def test_remove_edge_and_vertex(self):
        g = UncertainGraph(edges=[(1, 2, 0.5), (2, 3, 0.5)])
        g.remove_edge(1, 2)
        assert not g.has_edge(1, 2)
        g.remove_vertex(2)
        assert g.num_vertices == 2
        assert g.num_edges == 0

    def test_remove_missing_raises(self):
        g = UncertainGraph(edges=[(1, 2, 0.5)])
        with pytest.raises(EdgeError):
            g.remove_edge(1, 3)
        with pytest.raises(VertexError):
            g.remove_vertex(42)


class TestSummaries:
    def test_density(self):
        g = UncertainGraph(edges=[(1, 2, 0.5), (2, 3, 0.5), (1, 3, 0.5)])
        assert g.density() == pytest.approx(1.0)

    def test_expected_num_edges(self, path_graph):
        assert path_graph.expected_num_edges() == pytest.approx(0.9 + 0.7 + 0.5 + 0.3)

    def test_probability_extremes(self, path_graph):
        assert path_graph.min_probability() == pytest.approx(0.3)
        assert path_graph.max_probability() == pytest.approx(0.9)

    def test_probability_extremes_empty_graph(self):
        g = UncertainGraph(vertices=[1])
        assert g.min_probability() == 1.0
        assert g.max_probability() == 1.0

    def test_repr(self, triangle):
        assert "n=4" in repr(triangle)
        assert "m=4" in repr(triangle)
