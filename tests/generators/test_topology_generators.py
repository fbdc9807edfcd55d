"""Unit tests for the graph topology generators (BA, ER)."""

from __future__ import annotations

import pytest

from repro.errors import ParameterError
from repro.generators.barabasi_albert import (
    barabasi_albert_skeleton,
    barabasi_albert_uncertain,
)
from repro.generators.erdos_renyi import (
    erdos_renyi_skeleton,
    erdos_renyi_uncertain,
    random_uncertain_graph,
)


class TestBarabasiAlbert:
    def test_vertex_and_edge_counts(self):
        n, m_attach = 200, 5
        g = barabasi_albert_skeleton(n, m_attach, rng=1)
        assert g.num_vertices == n
        seed_edges = m_attach * (m_attach + 1) // 2
        expected_edges = seed_edges + (n - m_attach - 1) * m_attach
        assert g.num_edges == expected_edges

    def test_paper_configuration_edge_density(self):
        g = barabasi_albert_uncertain(500, 10, rng=2)
        # The paper's BA graphs have roughly 10 edges per vertex.
        assert 9 <= g.num_edges / g.num_vertices <= 11

    def test_degree_distribution_is_skewed(self):
        g = barabasi_albert_skeleton(400, 4, rng=3)
        degrees = sorted(g.degree(v) for v in g.vertices())
        assert degrees[-1] > 4 * degrees[len(degrees) // 2]

    def test_reproducibility(self):
        a = barabasi_albert_uncertain(100, 3, rng=9)
        b = barabasi_albert_uncertain(100, 3, rng=9)
        assert a == b

    def test_probabilities_in_range(self):
        g = barabasi_albert_uncertain(100, 3, rng=4)
        assert all(0.0 < p <= 1.0 for _, _, p in g.edges())

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            barabasi_albert_skeleton(0, 2)
        with pytest.raises(ParameterError):
            barabasi_albert_skeleton(10, 0)
        with pytest.raises(ParameterError):
            barabasi_albert_skeleton(5, 5)


class TestErdosRenyi:
    def test_empty_probability_gives_no_edges(self):
        assert erdos_renyi_skeleton(50, 0.0, rng=1).num_edges == 0

    def test_full_probability_gives_complete_graph(self):
        g = erdos_renyi_skeleton(20, 1.0, rng=1)
        assert g.num_edges == 20 * 19 // 2

    def test_edge_count_near_expectation(self):
        n, p = 100, 0.3
        g = erdos_renyi_skeleton(n, p, rng=5)
        expected = p * n * (n - 1) / 2
        assert 0.8 * expected <= g.num_edges <= 1.2 * expected

    def test_reproducibility(self):
        assert erdos_renyi_skeleton(40, 0.25, rng=6) == erdos_renyi_skeleton(40, 0.25, rng=6)

    def test_uncertain_variant_probabilities(self):
        g = erdos_renyi_uncertain(30, 0.4, rng=7)
        assert all(0.0 < p <= 1.0 for _, _, p in g.edges())

    def test_random_uncertain_graph_probability_floor(self):
        g = random_uncertain_graph(30, 0.5, min_edge_probability=0.2, rng=8)
        assert all(p >= 0.2 for _, _, p in g.edges())

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            erdos_renyi_skeleton(-1, 0.5)
        with pytest.raises(ParameterError):
            erdos_renyi_skeleton(10, 1.5)

