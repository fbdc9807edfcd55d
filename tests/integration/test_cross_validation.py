"""Integration tests: all enumerators agree on the same inputs.

These tests tie the whole stack together: generators build inputs, the
three independent enumerators (MULE, DFS-NOIP, brute force) plus the
deterministic Bron--Kerbosch oracle must produce identical outputs wherever
their domains overlap, and ``EnumerationResult.verify`` must accept all of it.
"""

from __future__ import annotations

import itertools

import pytest

from repro.analysis.statistics import clique_statistics
from repro.core.bounds import uncertain_clique_bound
from repro.core.brute_force import brute_force_alpha_maximal_cliques
from repro.core.dfs_noip import dfs_noip
from repro.core.fast_mule import fast_mule
from repro.core.large_mule import large_mule
from repro.core.mule import mule
from repro.generators.erdos_renyi import erdos_renyi_skeleton, random_uncertain_graph
from repro.generators.ppi import ppi_like_graph
from repro.generators.social import collaboration_graph
from repro.uncertain.builder import from_skeleton
from repro.uncertain.graph import UncertainGraph
from tests.oracles.bron_kerbosch import bron_kerbosch_pivot


ENUMERATORS = {
    "mule": mule,
    "fast-mule": fast_mule,
    "dfs-noip": dfs_noip,
    "brute-force": brute_force_alpha_maximal_cliques,
}

# Small certain graphs as (edges, extra vertices, maximal cliques).
SMALL_CERTAIN_GRAPHS = {
    "single_edge": ([(1, 2)], [], [{1, 2}]),
    "path": ([(1, 2), (2, 3)], [], [{1, 2}, {2, 3}]),
    "triangle_with_pendant": ([(1, 2), (1, 3), (2, 3), (3, 4)], [], [{1, 2, 3}, {3, 4}]),
    "isolated_vertex": ([(1, 2)], [3], [{1, 2}, {3}]),
    "complete_graph": (list(itertools.combinations(range(1, 6), 2)), [], [set(range(1, 6))]),
    # The enumerators report nothing for an empty graph, where the
    # Bron–Kerbosch oracle yields the empty clique once.
    "empty_graph": ([], [], []),
}


def certain_graph(edges, vertices=()) -> UncertainGraph:
    """Return the uncertain graph whose every edge has probability 1."""
    return UncertainGraph(edges=[(u, v, 1.0) for u, v in edges], vertices=vertices)


def with_cliques(graph: UncertainGraph, cliques, probability: float) -> UncertainGraph:
    """Make every vertex set in ``cliques`` a clique of ``probability`` edges."""
    for clique in cliques:
        for u, v in itertools.combinations(sorted(clique), 2):
            graph.add_edge(u, v, probability)
    return graph


class TestThreeWayAgreement:
    @pytest.mark.parametrize("seed", range(15))
    def test_mule_dfsnoip_bruteforce_agree(self, seed):
        graph = random_uncertain_graph(8, 0.55, rng=seed)
        for alpha in (0.7, 0.3, 0.05):
            sets_mule = mule(graph, alpha).vertex_sets()
            sets_noip = dfs_noip(graph, alpha).vertex_sets()
            sets_brute = brute_force_alpha_maximal_cliques(graph, alpha).vertex_sets()
            assert sets_mule == sets_noip == sets_brute

    @pytest.mark.parametrize("density", [0.2, 0.5, 0.8])
    def test_agreement_across_densities(self, density):
        graph = random_uncertain_graph(9, density, rng=99)
        alpha = 0.1
        assert (
            mule(graph, alpha).vertex_sets()
            == brute_force_alpha_maximal_cliques(graph, alpha).vertex_sets()
        )

    def test_mule_and_dfs_noip_agree_on_two_cliques(self, two_cliques):
        assert mule(two_cliques, 0.5).vertex_sets() == dfs_noip(two_cliques, 0.5).vertex_sets()

    def test_different_alpha_results_differ(self, two_cliques):
        # At a tiny threshold the weak 3–4 edge becomes an α-clique.
        assert mule(two_cliques, 0.5).vertex_sets() != mule(two_cliques, 1e-6).vertex_sets()

    def test_agreement_on_planted_partition(self):
        background = random_uncertain_graph(12, 0.05, max_edge_probability=0.2, rng=5)
        graph = with_cliques(background, [range(1, 5), range(5, 9), range(9, 13)], 0.8)
        for alpha in (0.5, 0.1):
            assert mule(graph, alpha).vertex_sets() == dfs_noip(graph, alpha).vertex_sets()


class TestDeterministicDegenerateCase:
    @pytest.mark.parametrize("seed", range(6))
    def test_certain_graph_alpha_one_equals_bron_kerbosch(self, seed):
        skeleton = erdos_renyi_skeleton(14, 0.35, rng=seed)
        certain = from_skeleton(skeleton, lambda u, v: 1.0)
        result = mule(certain, 1.0)
        assert result.vertex_sets() == set(bron_kerbosch_pivot(skeleton))

    def test_certain_graph_any_alpha_equals_bron_kerbosch(self):
        skeleton = erdos_renyi_skeleton(12, 0.4, rng=77)
        certain = from_skeleton(skeleton, lambda u, v: 1.0)
        expected = set(bron_kerbosch_pivot(skeleton))
        for alpha in (0.9, 0.5, 0.01):
            assert mule(certain, alpha).vertex_sets() == expected

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("name", ["fast-mule", "dfs-noip"])
    def test_other_enumerators_equal_bron_kerbosch(self, name, seed):
        skeleton = erdos_renyi_skeleton(14, 0.35, rng=seed)
        certain = from_skeleton(skeleton, lambda u, v: 1.0)
        result = ENUMERATORS[name](certain, 1.0)
        assert result.vertex_sets() == set(bron_kerbosch_pivot(skeleton))

    @pytest.mark.parametrize("seed", range(4))
    def test_large_mule_equals_large_bron_kerbosch_cliques(self, seed):
        skeleton = erdos_renyi_skeleton(14, 0.35, rng=seed)
        certain = from_skeleton(skeleton, lambda u, v: 1.0)
        expected = {c for c in bron_kerbosch_pivot(skeleton) if len(c) >= 3}
        assert large_mule(certain, 1.0, 3).vertex_sets() == expected

    @pytest.mark.parametrize("case", SMALL_CERTAIN_GRAPHS)
    @pytest.mark.parametrize("name", ENUMERATORS)
    def test_small_certain_graphs(self, name, case):
        edges, vertices, expected = SMALL_CERTAIN_GRAPHS[case]
        result = ENUMERATORS[name](certain_graph(edges, vertices), 1.0)
        assert result.vertex_sets() == {frozenset(c) for c in expected}


class TestDeterministicSummaries:
    """On a certain graph at α = 1, result summaries describe its maximal cliques."""

    @pytest.fixture
    def sample(self) -> UncertainGraph:
        # Two triangles sharing vertex 3 plus a pendant vertex 6.
        return certain_graph([(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5), (5, 6)])

    def test_maximum_clique_size(self, sample):
        assert mule(sample, 1.0).largest().size == 3

    def test_clique_number(self, sample):
        assert clique_statistics(mule(sample, 1.0)).max_size == 3

    def test_empty_graph(self):
        result = mule(UncertainGraph(), 1.0)
        assert result.largest() is None
        assert clique_statistics(result).max_size == 0

    def test_maximum_clique_is_a_clique(self, sample):
        assert sample.is_clique(mule(sample, 1.0).largest().vertices)

    def test_size_histogram(self, sample):
        assert mule(sample, 1.0).size_histogram() == {2: 1, 3: 2}

    def test_count_matches_histogram_total(self, sample):
        result = mule(sample, 1.0)
        assert result.num_cliques == sum(result.size_histogram().values())

    def test_complete_graph_single_clique(self):
        result = mule(certain_graph(itertools.combinations(range(1, 5), 2)), 1.0)
        assert result.num_cliques == 1
        assert result.size_histogram() == {4: 1}


class TestLargeMuleConsistency:
    @pytest.mark.parametrize("seed", range(6))
    def test_large_mule_equals_filtered_mule_on_domain_graphs(self, seed):
        graph = collaboration_graph(40, 30, rng=seed)
        alpha, t = 0.05, 3
        full = {c for c in mule(graph, alpha).vertex_sets() if len(c) >= t}
        assert large_mule(graph, alpha, t).vertex_sets() == full


class TestPlantedStructureRecovery:
    def test_planted_cliques_recovered(self):
        planted = [frozenset(range(1, 6)), frozenset(range(6, 10))]
        background = random_uncertain_graph(
            60, 0.01, min_edge_probability=0.05, max_edge_probability=0.4, rng=8
        )
        graph = with_cliques(background, planted, 0.95)
        alpha = 0.5
        found = mule(graph, alpha).vertex_sets()
        for clique in planted:
            # The planted clique must survive as (a subset of) a reported
            # α-maximal clique; with sparse low-probability background the
            # planted set itself is almost always the maximal one.
            assert any(clique <= reported for reported in found)

    def test_planted_communities_found_as_large_cliques(self):
        communities = [range(1, 6), range(6, 11), range(11, 16)]
        graph = with_cliques(UncertainGraph(), communities, 0.95)
        result = mule(graph, 0.5)
        sizes = sorted(record.size for record in result)
        assert sizes[-3:] == [5, 5, 5]


class TestVerificationLayerOnRealisticInputs:
    @pytest.mark.parametrize(
        "maker",
        [
            lambda: ppi_like_graph(120, rng=1),
            lambda: collaboration_graph(60, 45, rng=2),
            lambda: random_uncertain_graph(25, 0.3, rng=3),
        ],
    )
    def test_mule_output_verifies_cleanly(self, maker):
        graph = maker()
        for alpha in (0.5, 0.05):
            result = mule(graph, alpha)
            result.verify(graph)
            # Theorem 1: at most C(n, ⌊n/2⌋) α-maximal cliques for α < 1.
            assert result.num_cliques <= uncertain_clique_bound(graph.num_vertices, alpha)


class TestEndToEndFileRoundTrip:
    def test_enumeration_results_stable_across_serialization(self, tmp_path):
        from repro.uncertain.io import read_edge_list, write_edge_list

        graph = random_uncertain_graph(15, 0.4, rng=13)
        path = tmp_path / "graph.edges"
        write_edge_list(graph, path)
        reloaded = read_edge_list(path, vertex_type=int)
        assert mule(graph, 0.2).vertex_sets() == mule(reloaded, 0.2).vertex_sets()
