"""Unit tests for Shared Neighborhood Filtering (Modani & Dey pre-pruning).

Each test runs on the compiled filter and on the graph-level reference.
"""

from __future__ import annotations

import pytest

from repro.core.engine.compiled import CompiledGraph
from repro.core.mule import mule
from repro.core.pruning import PruningReport
from repro.errors import ParameterError
from repro.generators.erdos_renyi import random_uncertain_graph
from repro.uncertain.graph import UncertainGraph
from tests.oracles.shared_neighborhood import shared_neighborhood_filter


def compiled_filter(graph, size_threshold, *, report=None):
    """``CompiledGraph.restrict_shared_neighborhood``, read back as a graph."""
    compiled = CompiledGraph.from_graph(graph).restrict_shared_neighborhood(
        size_threshold
    )
    if report is not None:
        vars(report).update(vars(compiled.pruning_report))
    labels = compiled.labels
    return UncertainGraph.from_adjacency(
        {
            labels[i]: {labels[j]: p for j, p in row.items()}
            for i, row in enumerate(compiled.adjacency_probability)
        }
    )


@pytest.fixture(
    params=[compiled_filter, shared_neighborhood_filter], ids=["compiled", "graph"]
)
def snf(request):
    return request.param


@pytest.fixture
def triangle_with_tail() -> UncertainGraph:
    return UncertainGraph(
        edges=[(1, 2, 0.9), (2, 3, 0.9), (1, 3, 0.9), (3, 4, 0.9), (4, 5, 0.9)]
    )


class TestFilterBehaviour:
    def test_t2_keeps_everything_with_edges(self, snf, triangle_with_tail):
        pruned = snf(triangle_with_tail, 2)
        assert pruned.num_edges == triangle_with_tail.num_edges

    def test_t3_keeps_only_the_triangle(self, snf, triangle_with_tail):
        pruned = snf(triangle_with_tail, 3)
        assert sorted(pruned.vertices()) == [1, 2, 3]
        assert pruned.num_edges == 3

    def test_t4_removes_everything(self, snf, triangle_with_tail):
        pruned = snf(triangle_with_tail, 4)
        assert pruned.num_vertices == 0

    def test_probabilities_preserved(self, snf, triangle_with_tail):
        pruned = snf(triangle_with_tail, 3)
        assert pruned.probability(1, 2) == 0.9

    def test_input_not_modified(self, snf, triangle_with_tail):
        snf(triangle_with_tail, 4)
        assert triangle_with_tail.num_edges == 5

    def test_invalid_threshold(self, snf, triangle_with_tail):
        with pytest.raises(ParameterError):
            snf(triangle_with_tail, 1)

    def test_report_counts(self, snf, triangle_with_tail):
        report = PruningReport()
        snf(triangle_with_tail, 3, report=report)
        assert report.rounds >= 1
        assert report.edges_removed >= 2
        assert report.vertices_removed >= 2
        assert "PruningReport" in repr(report)

    def test_cascading_removals(self, snf):
        """Removing one layer must trigger re-evaluation of the next (fixed point)."""
        # A "fan": triangles sharing consecutive edges; t = 4 unravels it fully.
        g = UncertainGraph(
            edges=[
                (1, 2, 0.9),
                (2, 3, 0.9),
                (1, 3, 0.9),
                (3, 4, 0.9),
                (2, 4, 0.9),
                (4, 5, 0.9),
                (3, 5, 0.9),
            ]
        )
        pruned = snf(g, 4)
        assert pruned.num_vertices == 0


class TestSafety:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("t", [3, 4])
    def test_filter_preserves_large_alpha_maximal_cliques(self, snf, seed, t):
        """Filtering must not lose any α-maximal clique of size ≥ t."""
        graph = random_uncertain_graph(14, 0.55, rng=seed)
        alpha = 0.05
        full = {c for c in mule(graph, alpha).vertex_sets() if len(c) >= t}
        pruned_graph = snf(graph, t)
        pruned_out = {
            c for c in mule(pruned_graph, alpha).vertex_sets() if len(c) >= t
        }
        assert full == pruned_out
