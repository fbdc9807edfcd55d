"""Unit tests for the Section 3 counting bounds and extremal constructions."""

from __future__ import annotations

from math import comb

import pytest

from repro.core.bounds import (
    extremal_clique_size,
    extremal_uncertain_graph,
    is_non_redundant_family,
    moon_moser_bound,
    moon_moser_graph,
    stirling_output_lower_bound,
    uncertain_clique_bound,
)
from repro.core.brute_force import brute_force_alpha_maximal_cliques
from repro.core.mule import mule
from repro.errors import ParameterError, ProbabilityError
from tests.oracles.bron_kerbosch import bron_kerbosch_pivot


class TestMoonMoserBound:
    @pytest.mark.parametrize(
        "n, expected",
        [(0, 1), (1, 1), (2, 2), (3, 3), (4, 4), (5, 6), (6, 9), (7, 12), (8, 18), (9, 27), (12, 81)],
    )
    def test_values(self, n, expected):
        assert moon_moser_bound(n) == expected

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            moon_moser_bound(-1)

    @pytest.mark.parametrize("n", [3, 5, 6, 7, 8, 9])
    def test_moon_moser_graph_attains_bound(self, n):
        graph = moon_moser_graph(n)
        skeleton = graph.skeleton()
        count = sum(1 for _ in bron_kerbosch_pivot(skeleton))
        assert count == moon_moser_bound(n)

    @pytest.mark.parametrize("n, edges", [(3, 0), (6, 9), (7, 16), (8, 21), (9, 27)])
    def test_moon_moser_graph_shape(self, n, edges):
        # Complete multipartite: n² minus the squared part sizes, halved.
        graph = moon_moser_graph(n)
        assert (graph.num_vertices, graph.num_edges) == (n, edges)

    def test_moon_moser_graph_all_certain(self):
        graph = moon_moser_graph(6)
        assert graph.min_probability() == 1.0

    def test_moon_moser_graph_invalid_n(self):
        with pytest.raises(ParameterError):
            moon_moser_graph(0)


class TestUncertainCliqueBound:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 10, 15])
    def test_matches_central_binomial(self, n):
        assert uncertain_clique_bound(n, 0.5) == comb(n, n // 2)

    def test_alpha_one_falls_back_to_moon_moser(self):
        assert uncertain_clique_bound(9, 1.0) == moon_moser_bound(9)

    def test_uncertain_bound_exceeds_deterministic_for_alpha_below_one(self):
        """Theorem 1's bound is strictly larger than Moon–Moser for n ≥ 5."""
        for n in (5, 6, 9, 12):
            assert uncertain_clique_bound(n, 0.5) > moon_moser_bound(n)

    def test_small_n(self):
        assert uncertain_clique_bound(0, 0.5) == 1
        assert uncertain_clique_bound(1, 0.5) == 1

    def test_invalid_inputs(self):
        with pytest.raises(ParameterError):
            uncertain_clique_bound(-3, 0.5)
        with pytest.raises(ProbabilityError):
            uncertain_clique_bound(5, 0.0)


class TestExtremalConstruction:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
    def test_extremal_graph_attains_theorem1_bound(self, n, alpha):
        graph = extremal_uncertain_graph(n, alpha)
        # Guard against floating-point rounding in the κ-fold product.
        result = mule(graph, alpha * (1 - 1e-9))
        assert result.num_cliques == uncertain_clique_bound(n, alpha)

    @pytest.mark.parametrize("n", [4, 6])
    def test_every_maximal_clique_has_size_half_n(self, n):
        graph = extremal_uncertain_graph(n, 0.5)
        result = mule(graph, 0.5 * (1 - 1e-9))
        expected_size = extremal_clique_size(n)
        assert all(record.size == expected_size for record in result)

    def test_structure_is_complete_graph(self):
        graph = extremal_uncertain_graph(6, 0.5)
        assert graph.num_edges == comb(6, 2)

    def test_brute_force_agrees(self):
        graph = extremal_uncertain_graph(6, 0.4)
        alpha = 0.4 * (1 - 1e-9)
        assert (
            brute_force_alpha_maximal_cliques(graph, alpha).num_cliques
            == uncertain_clique_bound(6, 0.4)
        )

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            extremal_uncertain_graph(1, 0.5)
        with pytest.raises(ParameterError):
            extremal_uncertain_graph(5, 1.0)
        with pytest.raises(ProbabilityError):
            extremal_uncertain_graph(5, 0.0)
        with pytest.raises(ParameterError):
            extremal_clique_size(1)


class TestNoGraphExceedsBound:
    """The other half of Theorem 1: no uncertain graph beats C(n, ⌊n/2⌋)."""

    @pytest.mark.parametrize("seed", range(10))
    def test_random_graphs_respect_bound(self, random_graph_factory, seed):
        n = 9
        graph = random_graph_factory(n, density=0.8, seed=seed)
        for alpha in (0.5, 0.1, 0.01):
            result = mule(graph, alpha)
            assert result.num_cliques <= uncertain_clique_bound(n, alpha)

    def test_dense_uniform_graph_respects_bound(self):
        from repro.uncertain.graph import UncertainGraph

        n = 8
        g = UncertainGraph(
            edges=[(u, v, 0.7) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        )
        for alpha in (0.9, 0.5, 0.2, 0.05):
            assert mule(g, alpha).num_cliques <= uncertain_clique_bound(n, alpha)


class TestNonRedundantFamily:
    def test_antichain_accepted(self):
        assert is_non_redundant_family([{1, 2}, {2, 3}, {1, 3}])

    def test_nested_sets_rejected(self):
        assert not is_non_redundant_family([{1, 2}, {1, 2, 3}])

    def test_duplicate_sets_rejected(self):
        assert not is_non_redundant_family([{1, 2}, {2, 1}])

    def test_empty_family_is_non_redundant(self):
        assert is_non_redundant_family([])

    def test_enumeration_output_is_antichain(self, random_graph_factory):
        graph = random_graph_factory(10, density=0.6, seed=5)
        result = mule(graph, 0.1)
        assert is_non_redundant_family(result.vertex_sets())


class TestStirlingLowerBound:
    def test_equals_central_binomial(self):
        assert stirling_output_lower_bound(10) == float(comb(10, 5))

    def test_small_n(self):
        assert stirling_output_lower_bound(0) == 1.0
        assert stirling_output_lower_bound(1) == 1.0

    def test_growth_rate_close_to_2n_over_sqrt_n(self):
        import math

        n = 30
        ratio = stirling_output_lower_bound(n) / (2**n / math.sqrt(n))
        assert 0.1 < ratio < 1.0
