"""Unit tests for LARGE-MULE (Algorithms 5–6)."""

from __future__ import annotations

import pytest

from repro.core.large_mule import (
    LargeMuleConfig,
    iter_large_alpha_maximal_cliques,
    large_mule,
)
from repro.core.mule import mule
from repro.errors import ParameterError, ProbabilityError
from repro.uncertain.graph import UncertainGraph


class TestSmallGraphs:
    def test_only_large_cliques_emitted(self, two_cliques):
        result = large_mule(two_cliques, 0.5, 3)
        assert result.vertex_sets() == {frozenset({1, 2, 3}), frozenset({4, 5, 6})}

    def test_threshold_above_largest_clique(self, two_cliques):
        assert large_mule(two_cliques, 0.5, 4).num_cliques == 0

    def test_threshold_two_drops_singletons(self, triangle):
        result = large_mule(triangle, 0.5, 2)
        assert result.vertex_sets() == {frozenset({1, 2, 3})}

    def test_exact_size_t_is_included(self):
        """The pseudo-code retains cliques of size exactly t (see module docstring)."""
        g = UncertainGraph(edges=[(1, 2, 0.9), (2, 3, 0.9), (1, 3, 0.9)])
        assert large_mule(g, 0.5, 3).num_cliques == 1

    def test_empty_graph(self):
        assert large_mule(UncertainGraph(), 0.5, 3).num_cliques == 0

    def test_everything_pruned_away(self):
        g = UncertainGraph(edges=[(1, 2, 0.9), (3, 4, 0.9)])
        assert large_mule(g, 0.5, 3).num_cliques == 0

    def test_probabilities_recorded(self, two_cliques):
        for record in large_mule(two_cliques, 0.5, 3):
            assert record.probability == pytest.approx(
                two_cliques.clique_probability(record.vertices)
            )


class TestParameters:
    def test_invalid_alpha(self, triangle):
        with pytest.raises(ProbabilityError):
            large_mule(triangle, 0.0, 3)

    def test_invalid_size_threshold(self, triangle):
        with pytest.raises(ParameterError):
            large_mule(triangle, 0.5, 1)

    def test_algorithm_label(self, two_cliques):
        assert large_mule(two_cliques, 0.5, 3).algorithm == "large-mule"


class TestEquivalenceWithFilteredMule:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("t", [2, 3, 4, 5])
    def test_matches_filtered_full_enumeration(self, random_graph_factory, seed, t):
        graph = random_graph_factory(12, density=0.55, seed=seed)
        alpha = 0.1
        expected = {
            c for c in mule(graph, alpha).vertex_sets() if len(c) >= t
        }
        assert large_mule(graph, alpha, t).vertex_sets() == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_shared_neighborhood_toggle_does_not_change_output(
        self, random_graph_factory, seed
    ):
        graph = random_graph_factory(12, density=0.6, seed=30 + seed)
        with_filter = large_mule(
            graph, 0.1, 3, config=LargeMuleConfig(shared_neighborhood_filtering=True)
        )
        without_filter = large_mule(
            graph, 0.1, 3, config=LargeMuleConfig(shared_neighborhood_filtering=False)
        )
        assert with_filter.vertex_sets() == without_filter.vertex_sets()


class TestSearchEffort:
    def test_branch_pruning_reduces_work(self, random_graph_factory):
        graph = random_graph_factory(16, density=0.45, seed=7)
        alpha = 0.05
        full = mule(graph, alpha)
        large = large_mule(graph, alpha, 4)
        assert large.statistics.recursive_calls <= full.statistics.recursive_calls

    def test_pruned_branch_counter(self, random_graph_factory):
        graph = random_graph_factory(14, density=0.5, seed=9)
        # Disable the pre-filter so the |C'| + |I'| < t cut itself is exercised.
        result = large_mule(
            graph,
            0.05,
            4,
            config=LargeMuleConfig(shared_neighborhood_filtering=False),
        )
        assert result.statistics.pruned_branches > 0


class TestGeneratorInterface:
    def test_iterator_yields_pairs(self, two_cliques):
        pairs = list(iter_large_alpha_maximal_cliques(two_cliques, 0.5, 3))
        assert {frozenset(c) for c, _ in pairs} == {
            frozenset({1, 2, 3}),
            frozenset({4, 5, 6}),
        }

    def test_pruning_report_collected(self, two_cliques):
        from repro.api import EnumerationRequest, MiningSession
        from repro.core.pruning import PruningReport

        report = PruningReport()
        list(
            iter_large_alpha_maximal_cliques(
                two_cliques, 0.5, 3, pruning_report=report
            )
        )
        assert report.rounds >= 1

        def counts(report):
            return report.rounds, report.edges_removed, report.vertices_removed

        # Unpruned, the weak 3-4 edge goes in the filter's edge step.
        cold = PruningReport()
        list(
            iter_large_alpha_maximal_cliques(
                two_cliques,
                0.5,
                3,
                config=LargeMuleConfig(prune_edges=False),
                pruning_report=cold,
            )
        )
        assert cold.edges_removed == 1
        # Every stream adds its artifact's counts, a warm one included.
        session = MiningSession(two_cliques)
        request = EnumerationRequest(
            algorithm="large", alpha=0.5, size_threshold=3, prune_edges=False
        )
        session.enumerate(request)
        twice = PruningReport()
        for _ in range(2):
            list(session.stream(request, pruning_report=twice))
        assert counts(twice) == tuple(2 * count for count in counts(cold))
