"""Unit tests for the shared enumeration engine (compiled graph, kernel, controls)."""

from __future__ import annotations

import sys

import pytest

from repro.core.engine import (
    CompiledGraph,
    MuleStrategy,
    RunControls,
    RunReport,
    StopReason,
    compile_graph,
    run_search,
)
from repro.core.engine.strategies import bit_list
from repro.core.dfs_noip import dfs_noip
from repro.core.fast_mule import fast_mule
from repro.core.large_mule import large_mule
from repro.core.mule import mule
from repro.core.result import SearchStatistics
from repro.core.top_k import top_k_maximal_cliques
from repro.errors import ParameterError
from repro.uncertain.graph import UncertainGraph


class TestCompiledGraph:
    def test_labels_sorted_and_indexed(self):
        g = UncertainGraph(edges=[(3, 1, 0.5), (1, 2, 0.9)])
        cg = CompiledGraph.from_graph(g)
        assert cg.labels == [1, 2, 3]
        assert cg.index_of == {1: 0, 2: 1, 3: 2}
        assert cg.n == 3

    def test_adjacency_masks_symmetric(self):
        g = UncertainGraph(edges=[(1, 2, 0.5), (2, 3, 0.5)])
        cg = CompiledGraph.from_graph(g)
        for i in range(cg.n):
            for j in range(cg.n):
                assert bool(cg.adjacency_mask[i] >> j & 1) == bool(
                    cg.adjacency_mask[j] >> i & 1
                )

    def test_probabilities_stored_both_directions(self):
        g = UncertainGraph(edges=[(1, 2, 0.75)])
        cg = CompiledGraph.from_graph(g)
        assert cg.probability(0, 1) == 0.75
        assert cg.probability(1, 0) == 0.75
        assert cg.probability(0, 0) == 0.0

    def test_min_probability_filter_drops_light_edges(self):
        g = UncertainGraph(edges=[(1, 2, 0.9), (2, 3, 0.1)])
        cg = CompiledGraph.from_graph(g, min_probability=0.5)
        assert cg.n == 3  # vertices always survive
        assert cg.adjacency_mask[cg.index_of[3]] == 0

    def test_decode_round_trip(self):
        g = UncertainGraph(edges=[("b", "a", 0.5)])
        cg = CompiledGraph.from_graph(g)
        assert cg.decode([0, 1]) == frozenset({"a", "b"})

    def test_subset_probability_matches_graph(self):
        g = UncertainGraph(edges=[(1, 2, 0.5), (2, 3, 0.4), (1, 3, 0.25)])
        cg = CompiledGraph.from_graph(g)
        indices = [cg.index_of[v] for v in (1, 2, 3)]
        assert cg.subset_probability(indices) == pytest.approx(
            g.clique_probability([1, 2, 3])
        )

    def test_subset_probability_zero_on_missing_edge(self):
        g = UncertainGraph(edges=[(1, 2, 0.5)], vertices=[3])
        cg = CompiledGraph.from_graph(g)
        assert cg.subset_probability([0, 2]) == 0.0

    def test_higher_masks(self):
        g = UncertainGraph(vertices=[1, 2, 3, 4])
        cg = CompiledGraph.from_graph(g)
        assert bit_list(cg.higher_masks[1]) == [2, 3]
        assert cg.higher_masks[3] == 0

    def test_compile_graph_with_size_threshold_prunes(self):
        # 3-4 cannot be in a clique of size >= 3, so SNF removes it.
        g = UncertainGraph(
            edges=[(1, 2, 0.9), (2, 3, 0.9), (1, 3, 0.9), (3, 4, 0.9)]
        )
        cg = compile_graph(g, alpha=0.5, size_threshold=3)
        assert cg.labels == [1, 2, 3]


class TestRunControls:
    def test_rejects_non_positive_max_cliques(self):
        with pytest.raises(ParameterError):
            RunControls(max_cliques=0)

    @pytest.mark.parametrize("budget", [-1.0, float("nan")])
    def test_rejects_negative_time_budget(self, budget):
        # NaN compares false against everything, so ``budget < 0`` alone
        # does not catch it; its deadline would never expire.
        with pytest.raises(ParameterError, match="must be non-negative"):
            RunControls(time_budget_seconds=budget)

    def test_rejects_non_positive_check_interval(self):
        with pytest.raises(ParameterError):
            RunControls(check_every_frames=0)

    def test_unlimited(self):
        assert RunControls().unlimited
        assert not RunControls(max_cliques=5).unlimited


class TestMaxCliques:
    def test_truncates_to_prefix_of_full_enumeration(self, two_cliques):
        full = [c for c, _ in run_search(
            compile_graph(two_cliques, alpha=0.5), 0.5, MuleStrategy()
        )]
        report = RunReport()
        partial = [c for c, _ in run_search(
            compile_graph(two_cliques, alpha=0.5),
            0.5,
            MuleStrategy(),
            controls=RunControls(max_cliques=1),
            report=report,
        )]
        assert partial == full[:1]
        assert report.stop_reason == StopReason.MAX_CLIQUES
        assert report.truncated
        assert report.cliques_emitted == 1

    def test_reused_report_is_reset_between_runs(self, two_cliques):
        """A RunReport carried across runs must not leak counters: stale
        cliques_emitted would trip the max_cliques check prematurely."""
        report = RunReport()
        compiled = compile_graph(two_cliques, alpha=0.5)
        controls = RunControls(max_cliques=2)
        first = list(
            run_search(compiled, 0.5, MuleStrategy(), controls=controls, report=report)
        )
        second = list(
            run_search(compiled, 0.5, MuleStrategy(), controls=controls, report=report)
        )
        assert [c for c, _ in second] == [c for c, _ in first]
        assert report.cliques_emitted == 2

    def test_wrappers_record_stop_reason(self, two_cliques):
        result = mule(two_cliques, 0.5, controls=RunControls(max_cliques=1))
        assert result.num_cliques == 1
        assert result.stop_reason == StopReason.MAX_CLIQUES
        assert result.truncated

    def test_limit_above_output_size_completes(self, two_cliques):
        result = mule(two_cliques, 0.5, controls=RunControls(max_cliques=100))
        assert result.stop_reason == StopReason.COMPLETED
        assert not result.truncated

    @pytest.mark.parametrize("runner", [mule, fast_mule, dfs_noip])
    def test_all_wrappers_accept_controls(self, two_cliques, runner):
        result = runner(two_cliques, 0.5, controls=RunControls(max_cliques=1))
        assert result.num_cliques == 1
        assert result.truncated

    def test_large_mule_accepts_controls(self, two_cliques):
        result = large_mule(
            two_cliques, 0.5, 3, controls=RunControls(max_cliques=1)
        )
        assert result.num_cliques == 1
        assert result.truncated


class TestTimeBudget:
    def test_exhausted_budget_stops_run(self, random_graph_factory):
        graph = random_graph_factory(14, density=0.6, seed=11)
        report = RunReport()
        list(
            run_search(
                compile_graph(graph, alpha=0.01),
                0.01,
                MuleStrategy(),
                controls=RunControls(
                    time_budget_seconds=0.0, check_every_frames=1
                ),
                report=report,
            )
        )
        assert report.stop_reason == StopReason.TIME_BUDGET

    def test_generous_budget_completes(self, two_cliques):
        result = mule(
            two_cliques, 0.5, controls=RunControls(time_budget_seconds=60.0)
        )
        assert result.stop_reason == StopReason.COMPLETED
        assert result.vertex_sets() == {
            frozenset({1, 2, 3}),
            frozenset({4, 5, 6}),
        }


class TestStreaming:
    def test_kernel_is_lazy(self, two_cliques):
        compiled = compile_graph(two_cliques, alpha=0.5)
        iterator = run_search(compiled, 0.5, MuleStrategy())
        first_clique, first_probability = next(iterator)
        # The kernel yields vertex indices; decode maps them to labels.
        assert isinstance(first_clique, tuple)
        assert all(type(index) is int for index in first_clique)
        assert compiled.decode(first_clique) in {
            frozenset({1, 2, 3}),
            frozenset({4, 5, 6}),
        }
        assert 0.0 < first_probability <= 1.0
        # Abandoning the iterator mid-run must be safe (pause/early stop).
        iterator.close()

    def test_emission_order_is_depth_first(self):
        g = UncertainGraph(
            vertices=[3], edges=[(1, 2, 0.9), (4, 5, 0.9)]
        )
        compiled = compile_graph(g, alpha=0.5)
        emitted = [
            sorted(compiled.decode(c))
            for c, _ in run_search(compiled, 0.5, MuleStrategy())
        ]
        assert emitted == [[1, 2], [3], [4, 5]]


class TestInterpreterStateUntouched:
    """Satellite requirement: no enumerator mutates interpreter state."""

    @pytest.mark.parametrize(
        "runner",
        [
            lambda g: mule(g, 0.5),
            lambda g: fast_mule(g, 0.5),
            lambda g: dfs_noip(g, 0.5),
            lambda g: large_mule(g, 0.5, 2),
            lambda g: top_k_maximal_cliques(g, 2, 0.5),
        ],
    )
    def test_recursion_limit_unchanged(self, two_cliques, runner):
        before = sys.getrecursionlimit()
        runner(two_cliques)
        assert sys.getrecursionlimit() == before

    def test_search_deeper_than_recursion_limit(self):
        """A certain 150-clique under a recursion limit of 80: the first
        depth-first chain is 150 frames deep, which would crash any
        recursive implementation but is a plain list for the iterative
        kernel.  ``max_cliques=1`` stops after that first chain (a full
        enumeration of a complete certain graph visits exponentially many
        search nodes)."""
        n = 150
        g = UncertainGraph(
            edges=[(u, v, 1.0) for u in range(n) for v in range(u + 1, n)]
        )
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(80)
        try:
            result = mule(g, 0.5, controls=RunControls(max_cliques=1))
        finally:
            sys.setrecursionlimit(old_limit)
        assert result.vertex_sets() == {frozenset(range(n))}


class TestStrategyPluggability:
    def test_custom_strategy_via_subclassing(self, two_cliques):
        """The documented extension point: override the emission test."""

        class EvenSizeStrategy(MuleStrategy):
            algorithm = "even-only"

            def expand(self, state, clique):
                candidates, probability = super().expand(state, clique)
                if probability is not None and len(clique) % 2 != 0:
                    return candidates, None
                return candidates, probability

        compiled = compile_graph(two_cliques, alpha=0.5)
        emitted = {
            compiled.decode(c)
            for c, _ in run_search(compiled, 0.5, EvenSizeStrategy())
        }
        full = mule(two_cliques, 0.5).vertex_sets()
        assert emitted == {c for c in full if len(c) % 2 == 0}

    def test_statistics_shared_across_strategies(self, two_cliques):
        stats = SearchStatistics()
        list(
            run_search(
                compile_graph(two_cliques, alpha=0.5),
                0.5,
                MuleStrategy(),
                statistics=stats,
            )
        )
        assert stats.recursive_calls > 0
        assert stats.candidates_examined > 0
        assert stats.probability_multiplications > 0

    def test_report_frame_counter(self, two_cliques):
        report = RunReport()
        list(
            run_search(
                compile_graph(two_cliques, alpha=0.5),
                0.5,
                MuleStrategy(),
                report=report,
            )
        )
        assert report.frames_expanded > 0
        assert report.cliques_emitted == 2


class TestTimeBudgetOnPrunedDescents:
    """Regression: the deadline check used to run only after a *successful*
    descend, so a search whose strategy pruned every branch (descend
    returning None) never saw the check and blew past its budget."""

    @staticmethod
    def _prune_heavy_graph():
        # Dense 40-vertex certain graph: a LARGE-MULE run with an
        # unreachable size threshold prunes every one of the ~40 root
        # descents without ever expanding a child frame.
        return UncertainGraph(
            edges=[
                (u, v, 0.9)
                for u in range(1, 41)
                for v in range(u + 1, 41)
                if (u + v) % 3
            ]
        )

    def test_deadline_fires_while_only_pruning(self):
        from repro.core.engine import LargeCliqueStrategy

        # Drive the kernel directly (the large_mule wrapper's shared
        # neighborhood filter would empty the graph before the search):
        # with an unreachable size threshold every root descend prunes.
        graph = self._prune_heavy_graph()
        report = RunReport()
        emitted = list(
            run_search(
                compile_graph(graph, alpha=0.5),
                0.5,
                LargeCliqueStrategy(1000),
                controls=RunControls(time_budget_seconds=0.0, check_every_frames=1),
                report=report,
            )
        )
        assert emitted == []
        assert report.stop_reason == StopReason.TIME_BUDGET

    def test_prune_only_search_completes_within_generous_budget(self):
        from repro.core.engine import LargeCliqueStrategy

        graph = self._prune_heavy_graph()
        report = RunReport()
        emitted = list(
            run_search(
                compile_graph(graph, alpha=0.5),
                0.5,
                LargeCliqueStrategy(1000),
                controls=RunControls(time_budget_seconds=60.0),
                report=report,
            )
        )
        assert emitted == []
        assert report.stop_reason == StopReason.COMPLETED

    def test_sharded_root_skips_count_toward_deadline(self, random_graph_factory):
        # A shard view prunes every root branch outside its mask; those
        # skips must also count toward the check window.
        graph = random_graph_factory(16, density=0.6, seed=19)
        compiled = compile_graph(graph, alpha=0.05).restrict_roots(0)
        report = RunReport()
        list(
            run_search(
                compiled,
                0.05,
                MuleStrategy(),
                controls=RunControls(time_budget_seconds=0.0, check_every_frames=1),
                report=report,
            )
        )
        assert report.stop_reason == StopReason.TIME_BUDGET


class TestRootMaskRestriction:
    def test_restrict_roots_shares_arrays(self, two_cliques):
        compiled = compile_graph(two_cliques, alpha=0.5)
        view = compiled.restrict_roots(0b11)
        assert view.root_mask == 0b11
        assert view.adjacency_mask is compiled.adjacency_mask
        assert view.labels is compiled.labels
        assert compiled.root_mask == compiled.all_mask  # original untouched

    def test_restrict_roots_clips_to_vertex_range(self, triangle):
        compiled = compile_graph(triangle, alpha=0.5)
        view = compiled.restrict_roots(~0)
        assert view.root_mask == compiled.all_mask

    def test_shard_union_equals_full_search(self, random_graph_factory):
        graph = random_graph_factory(14, density=0.5, seed=23)
        compiled = compile_graph(graph, alpha=0.1)
        decode = compiled.decode
        full = {
            decode(members): probability
            for members, probability in run_search(compiled, 0.1, MuleStrategy())
        }
        merged: dict = {}
        half = compiled.n // 2
        low = (1 << half) - 1
        for mask in (low, compiled.all_mask ^ low):
            for members, probability in run_search(
                compiled.restrict_roots(mask), 0.1, MuleStrategy()
            ):
                assert decode(members) not in merged, "shards emitted a duplicate"
                merged[decode(members)] = probability
        assert merged == full

    def test_empty_root_mask_emits_nothing(self, two_cliques):
        compiled = compile_graph(two_cliques, alpha=0.5)
        assert list(run_search(compiled.restrict_roots(0), 0.5, MuleStrategy())) == []
