"""Unit tests for the (k, η)-core extension."""

from __future__ import annotations

import random

import pytest

from repro.errors import ParameterError, ProbabilityError
from repro.extensions.uncertain_core import (
    degree_tail_probability,
    eta_degree,
    eta_degrees,
    k_eta_core,
    uncertain_core_decomposition,
)
from repro.generators.erdos_renyi import random_uncertain_graph
from repro.uncertain.graph import UncertainGraph
from tests.oracles.cores import core_numbers


@pytest.fixture
def triangle_with_tail() -> UncertainGraph:
    return UncertainGraph(
        edges=[(1, 2, 0.9), (2, 3, 0.9), (1, 3, 0.9), (3, 4, 0.9), (4, 5, 0.2)]
    )


class TestDegreeTailProbability:
    def test_simple_values(self):
        assert degree_tail_probability([0.5, 0.5], 1) == pytest.approx(0.75)
        assert degree_tail_probability([0.5, 0.5], 2) == pytest.approx(0.25)

    def test_boundaries(self):
        assert degree_tail_probability([], 0) == 1.0
        assert degree_tail_probability([], 1) == 0.0
        assert degree_tail_probability([0.3], 2) == 0.0

    def test_certain_edges(self):
        assert degree_tail_probability([1.0, 1.0, 1.0], 3) == pytest.approx(1.0)

    def test_matches_monte_carlo(self):
        rng = random.Random(7)
        probabilities = [rng.uniform(0.1, 0.9) for _ in range(6)]
        k = 3
        exact = degree_tail_probability(probabilities, k)
        samples = 4000
        hits = 0
        for _ in range(samples):
            degree = sum(1 for p in probabilities if rng.random() < p)
            if degree >= k:
                hits += 1
        assert hits / samples == pytest.approx(exact, abs=0.05)

    def test_tail_is_monotone_in_k(self):
        probabilities = [0.4, 0.7, 0.2, 0.9]
        tails = [degree_tail_probability(probabilities, k) for k in range(6)]
        assert tails == sorted(tails, reverse=True)


class TestEtaDegree:
    def test_definition(self):
        g = UncertainGraph(edges=[(1, 2, 0.9), (1, 3, 0.9)])
        assert eta_degree(g, 1, 0.8) == 2
        assert eta_degree(g, 1, 0.95) == 1
        assert eta_degree(g, 2, 0.5) == 1

    def test_isolated_vertex(self):
        g = UncertainGraph(vertices=[1])
        assert eta_degree(g, 1, 0.5) == 0

    def test_eta_one_requires_certain_edges(self):
        g = UncertainGraph(edges=[(1, 2, 1.0), (1, 3, 0.99)])
        assert eta_degree(g, 1, 1.0) == 1

    def test_monotone_in_eta(self):
        g = UncertainGraph(edges=[(1, 2, 0.6), (1, 3, 0.7), (1, 4, 0.8)])
        degrees = [eta_degree(g, 1, eta) for eta in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert degrees == sorted(degrees, reverse=True)

    def test_at_most_skeleton_degree(self):
        g = random_uncertain_graph(15, 0.4, rng=3)
        for v in g.vertices():
            assert eta_degree(g, v, 0.3) <= g.degree(v)

    def test_invalid_eta(self):
        g = UncertainGraph(edges=[(1, 2, 0.5)])
        with pytest.raises(ProbabilityError):
            eta_degree(g, 1, 0.0)

    def test_eta_degrees_covers_all_vertices(self, triangle_with_tail):
        degrees = eta_degrees(triangle_with_tail, 0.5)
        assert set(degrees) == set(triangle_with_tail.vertices())


class TestCoreDecomposition:
    def test_triangle_with_tail(self, triangle_with_tail):
        cores = uncertain_core_decomposition(triangle_with_tail, 0.5)
        assert cores[5] == 0  # its only edge has probability 0.2 < eta
        assert cores[4] == 1
        assert cores[1] == cores[2] == cores[3] == 2

    def test_core_number_at_most_eta_degree(self):
        g = random_uncertain_graph(18, 0.35, rng=5)
        eta = 0.4
        cores = uncertain_core_decomposition(g, eta)
        degrees = eta_degrees(g, eta)
        assert all(cores[v] <= degrees[v] for v in g.vertices())

    def test_higher_eta_never_increases_core_numbers(self):
        g = random_uncertain_graph(16, 0.4, rng=9)
        low = uncertain_core_decomposition(g, 0.2)
        high = uncertain_core_decomposition(g, 0.8)
        assert all(high[v] <= low[v] for v in g.vertices())

    def test_certain_graph_matches_deterministic_cores(self):
        from repro.uncertain.builder import from_skeleton
        from repro.generators.erdos_renyi import erdos_renyi_skeleton

        skeleton = erdos_renyi_skeleton(20, 0.3, rng=11)
        certain = from_skeleton(skeleton, lambda u, v: 1.0)
        uncertain_cores = uncertain_core_decomposition(certain, 1.0)
        deterministic_cores = core_numbers(skeleton)
        assert uncertain_cores == deterministic_cores

    def test_certain_complete_graph(self):
        g = UncertainGraph(edges=[(u, v, 1.0) for u in range(1, 7) for v in range(u + 1, 7)])
        assert set(uncertain_core_decomposition(g, 1.0).values()) == {5}

    def test_certain_tree_cores_are_one(self):
        g = UncertainGraph(edges=[(1, 2, 1.0), (1, 3, 1.0), (3, 4, 1.0), (3, 5, 1.0)])
        assert set(uncertain_core_decomposition(g, 1.0).values()) == {1}

    def test_empty_graph(self):
        assert uncertain_core_decomposition(UncertainGraph(), 0.5) == {}


class TestKEtaCore:
    def test_core_membership_consistent_with_decomposition(self):
        g = random_uncertain_graph(15, 0.45, rng=13)
        eta = 0.3
        cores = uncertain_core_decomposition(g, eta)
        for k in (1, 2, 3):
            members = set(k_eta_core(g, k, eta).vertices())
            expected = {v for v, c in cores.items() if c >= k}
            assert members == expected

    def test_every_member_satisfies_degree_requirement(self, triangle_with_tail):
        core = k_eta_core(triangle_with_tail, 2, 0.5)
        for v in core.vertices():
            assert eta_degree(core, v, 0.5) >= 2

    def test_k_zero_returns_whole_graph(self, triangle_with_tail):
        core = k_eta_core(triangle_with_tail, 0, 0.5)
        assert set(core.vertices()) == set(triangle_with_tail.vertices())

    def test_pendant_vertex_outside_two_core(self):
        g = UncertainGraph(edges=[(1, 2, 1.0), (2, 3, 1.0), (1, 3, 1.0), (3, 4, 1.0)])
        assert set(k_eta_core(g, 2, 1.0).vertices()) == {1, 2, 3}

    def test_isolated_vertex_outside_one_core(self):
        g = UncertainGraph(edges=[(1, 2, 1.0), (2, 3, 1.0), (1, 3, 1.0)], vertices=[9])
        assert set(k_eta_core(g, 1, 1.0).vertices()) == {1, 2, 3}

    def test_negative_k_rejected(self, triangle_with_tail):
        with pytest.raises(ParameterError):
            k_eta_core(triangle_with_tail, -1, 0.5)

    def test_cliques_live_inside_cores(self):
        """Every α-maximal clique of size k+1 lies inside the (k, η)-core for η ≤ α."""
        from repro.core.mule import mule

        g = random_uncertain_graph(14, 0.5, rng=21)
        alpha = 0.3
        result = mule(g, alpha)
        core = set(k_eta_core(g, 2, alpha).vertices())
        for record in result:
            if record.size >= 3:
                assert set(record.vertices) <= core
