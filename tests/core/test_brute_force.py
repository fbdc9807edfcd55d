"""Unit tests for the brute-force enumeration oracle."""

from __future__ import annotations

import pytest

from repro.core.brute_force import (
    brute_force_alpha_maximal_cliques,
    is_alpha_maximal_clique,
)
from repro.errors import ParameterError, ProbabilityError
from repro.uncertain.graph import UncertainGraph


class TestIsAlphaMaximalClique:
    def test_maximal_triangle(self, triangle):
        assert is_alpha_maximal_clique(triangle, {1, 2, 3}, 0.5)

    def test_extendable_pair_is_not_maximal(self, triangle):
        assert not is_alpha_maximal_clique(triangle, {1, 2}, 0.5)

    def test_below_threshold_is_not_maximal(self, triangle):
        assert not is_alpha_maximal_clique(triangle, {1, 2, 3}, 0.99)

    def test_singleton_isolated_by_pruning(self, triangle):
        # Vertex 4's only edge has probability 0.4 < alpha, so {4} is maximal.
        assert is_alpha_maximal_clique(triangle, {4}, 0.5)

    def test_alpha_validation(self, triangle):
        with pytest.raises(ProbabilityError):
            is_alpha_maximal_clique(triangle, {1}, 0.0)


class TestIsAlphaMaximalCliqueOnCertainGraph:
    """At α = 1 on a certain graph, Definition 4 is plain maximality."""

    @pytest.fixture
    def sample(self) -> UncertainGraph:
        # Two triangles sharing vertex 3 plus a pendant vertex 6.
        edges = [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5), (5, 6)]
        return UncertainGraph(edges=[(u, v, 1.0) for u, v in edges])

    def test_true_for_maximal_triangle(self, sample):
        assert is_alpha_maximal_clique(sample, {1, 2, 3}, 1.0)

    def test_false_for_extendable_edge(self, sample):
        assert not is_alpha_maximal_clique(sample, {1, 2}, 1.0)

    def test_false_for_non_clique(self, sample):
        assert not is_alpha_maximal_clique(sample, {1, 4}, 1.0)

    def test_pendant_edge_is_maximal(self, sample):
        assert is_alpha_maximal_clique(sample, {5, 6}, 1.0)

    def test_empty_set_only_maximal_in_empty_graph(self, sample):
        assert not is_alpha_maximal_clique(sample, set(), 1.0)
        assert is_alpha_maximal_clique(UncertainGraph(), set(), 1.0)

    def test_singleton_isolated_vertex(self):
        assert is_alpha_maximal_clique(UncertainGraph(vertices=[1]), {1}, 1.0)


class TestBruteForce:
    def test_triangle_output(self, triangle):
        result = brute_force_alpha_maximal_cliques(triangle, 0.5)
        assert result.vertex_sets() == {frozenset({1, 2, 3}), frozenset({4})}

    def test_two_cliques_output(self, two_cliques):
        result = brute_force_alpha_maximal_cliques(two_cliques, 0.5)
        assert result.vertex_sets() == {frozenset({1, 2, 3}), frozenset({4, 5, 6})}

    def test_low_alpha_merges_cliques(self, two_cliques):
        # At a very low threshold the weak 3-4 edge becomes usable.
        result = brute_force_alpha_maximal_cliques(two_cliques, 1e-6)
        assert frozenset({3, 4}) in result.vertex_sets()

    def test_alpha_one_gives_deterministic_cliques(self):
        g = UncertainGraph(edges=[(1, 2, 1.0), (2, 3, 1.0), (1, 3, 0.5)])
        result = brute_force_alpha_maximal_cliques(g, 1.0)
        assert result.vertex_sets() == {frozenset({1, 2}), frozenset({2, 3})}

    def test_empty_graph(self):
        result = brute_force_alpha_maximal_cliques(UncertainGraph(), 0.5)
        assert result.num_cliques == 0

    def test_edgeless_graph_yields_singletons(self):
        g = UncertainGraph(vertices=[1, 2, 3])
        result = brute_force_alpha_maximal_cliques(g, 0.5)
        assert result.vertex_sets() == {frozenset({1}), frozenset({2}), frozenset({3})}

    def test_probabilities_recorded(self, triangle):
        result = brute_force_alpha_maximal_cliques(triangle, 0.5)
        by_set = {record.vertices: record.probability for record in result}
        assert by_set[frozenset({1, 2, 3})] == pytest.approx(0.9**3)
        assert by_set[frozenset({4})] == 1.0

    def test_size_limit_enforced(self):
        g = UncertainGraph(vertices=range(30))
        with pytest.raises(ParameterError):
            brute_force_alpha_maximal_cliques(g, 0.5)

    def test_algorithm_label(self, triangle):
        assert brute_force_alpha_maximal_cliques(triangle, 0.5).algorithm == "brute-force"

    def test_verify_passes_on_own_output(self, two_cliques):
        result = brute_force_alpha_maximal_cliques(two_cliques, 0.3)
        result.verify(two_cliques)
