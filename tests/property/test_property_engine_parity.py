"""Engine parity: all strategies agree on every graph (hypothesis + golden).

The tentpole guarantee of the engine refactor is that the four enumeration
strategies — MULE, the non-incremental baseline, LARGE-MULE and top-k — and
the legacy public wrappers all enumerate **exactly** the same α-maximal
cliques with identical probabilities.  The properties below check that on
random uncertain graphs; the golden test pins the worked example by hand.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dfs_noip import dfs_noip
from repro.core.engine import (
    LargeCliqueStrategy,
    MuleStrategy,
    NoIncrementalStrategy,
    TopKStrategy,
    compile_graph,
    run_search,
)
from repro.core.fast_mule import fast_mule
from repro.core.large_mule import large_mule
from repro.core.mule import mule
from repro.core.top_k import top_k_maximal_cliques
from repro.uncertain.graph import UncertainGraph

from .strategies import alphas, uncertain_graphs

RELAXED = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _run(graph, alpha, strategy, **compile_kwargs):
    """Run the kernel directly and return {clique labels: probability}."""
    compiled = compile_graph(graph, alpha=alpha, **compile_kwargs)
    return {
        compiled.decode(indices): probability
        for indices, probability in run_search(compiled, alpha, strategy)
    }


class TestStrategyParity:
    @RELAXED
    @given(graph=uncertain_graphs(), alpha=alphas)
    def test_incremental_and_baseline_strategies_agree(self, graph, alpha):
        """MuleStrategy and NoIncrementalStrategy: same cliques, same probabilities."""
        if graph.num_vertices == 0:
            return
        by_mule = _run(graph, alpha, MuleStrategy())
        by_noip = _run(graph, alpha, NoIncrementalStrategy())
        assert set(by_mule) == set(by_noip)
        for clique, probability in by_mule.items():
            assert by_noip[clique] == pytest.approx(probability)

    @RELAXED
    @given(
        graph=uncertain_graphs(),
        alpha=alphas,
        threshold=st.integers(min_value=2, max_value=5),
    )
    def test_large_strategy_is_filtered_mule(self, graph, alpha, threshold):
        if graph.num_vertices == 0:
            return
        by_mule = _run(graph, alpha, MuleStrategy())
        by_large = _run(
            graph,
            alpha,
            LargeCliqueStrategy(threshold),
            size_threshold=threshold,
        )
        expected = {c: p for c, p in by_mule.items() if len(c) >= threshold}
        assert set(by_large) == set(expected)
        for clique, probability in expected.items():
            assert by_large[clique] == pytest.approx(probability)

    @RELAXED
    @given(
        graph=uncertain_graphs(),
        alpha=alphas,
        min_size=st.integers(min_value=1, max_value=4),
    )
    def test_top_k_strategy_is_size_filtered_mule(self, graph, alpha, min_size):
        if graph.num_vertices == 0:
            return
        by_mule = _run(graph, alpha, MuleStrategy())
        by_top_k = _run(graph, alpha, TopKStrategy(min_size=min_size))
        assert set(by_top_k) == {c for c in by_mule if len(c) >= min_size}


class TestWrapperParity:
    @RELAXED
    @given(graph=uncertain_graphs(), alpha=alphas)
    def test_all_full_enumeration_wrappers_agree(self, graph, alpha):
        """mule, fast_mule and dfs_noip: identical sets and probabilities."""
        results = [mule(graph, alpha), fast_mule(graph, alpha), dfs_noip(graph, alpha)]
        reference = {r.vertices: r.probability for r in results[0]}
        for result in results[1:]:
            assert result.vertex_sets() == set(reference)
            for record in result:
                assert record.probability == pytest.approx(
                    reference[record.vertices]
                )

    @RELAXED
    @given(
        graph=uncertain_graphs(),
        alpha=alphas,
        threshold=st.integers(min_value=2, max_value=5),
    )
    def test_large_mule_wrapper_agrees(self, graph, alpha, threshold):
        expected = {
            c for c in mule(graph, alpha).vertex_sets() if len(c) >= threshold
        }
        assert large_mule(graph, alpha, threshold).vertex_sets() == expected


class TestWorkedExample:
    """Golden test: the 5-vertex worked example, solved by hand.

    Edges: 1–2 (0.8), 1–3 (0.9), 2–3 (0.7), 2–4 (0.6), 3–4 (0.9), 4–5 (0.5).

    At α = 0.25 the α-maximal cliques are
      {1,2,3} with clq = 0.8·0.9·0.7 = 0.504,
      {2,3,4} with clq = 0.7·0.6·0.9 = 0.378,
      {4,5}   with clq = 0.5
    ({1,2,3,4} requires the absent edge 1–4; every pair inside the triangles
    is non-maximal because its triangle stays above α).

    At α = 0.45 the triangle {2,3,4} falls below the threshold and splits:
      {1,2,3} (0.504), {3,4} (0.9), {2,4} (0.6), {4,5} (0.5).
    """

    @pytest.fixture
    def worked_example(self) -> UncertainGraph:
        return UncertainGraph(
            edges=[
                (1, 2, 0.8),
                (1, 3, 0.9),
                (2, 3, 0.7),
                (2, 4, 0.6),
                (3, 4, 0.9),
                (4, 5, 0.5),
            ]
        )

    EXPECTED_LOW = {
        frozenset({1, 2, 3}): 0.504,
        frozenset({2, 3, 4}): 0.378,
        frozenset({4, 5}): 0.5,
    }
    EXPECTED_HIGH = {
        frozenset({1, 2, 3}): 0.504,
        frozenset({3, 4}): 0.9,
        frozenset({2, 4}): 0.6,
        frozenset({4, 5}): 0.5,
    }

    @pytest.mark.parametrize(
        "alpha,expected",
        [(0.25, "EXPECTED_LOW"), (0.45, "EXPECTED_HIGH")],
    )
    @pytest.mark.parametrize("runner", [mule, fast_mule, dfs_noip])
    def test_full_enumerators_match_hand_solution(
        self, worked_example, alpha, expected, runner
    ):
        expected = getattr(self, expected)
        result = runner(worked_example, alpha)
        assert result.vertex_sets() == set(expected)
        for record in result:
            assert record.probability == pytest.approx(
                expected[record.vertices]
            )

    def test_large_mule_matches_hand_solution(self, worked_example):
        result = large_mule(worked_example, 0.25, 3)
        assert result.vertex_sets() == {
            frozenset({1, 2, 3}),
            frozenset({2, 3, 4}),
        }

    def test_top_k_matches_hand_solution(self, worked_example):
        top2 = top_k_maximal_cliques(worked_example, 2, 0.25)
        assert [r.vertices for r in top2] == [
            frozenset({1, 2, 3}),
            frozenset({4, 5}),
        ]
        assert top2[0].probability == pytest.approx(0.504)
        assert top2[1].probability == pytest.approx(0.5)
