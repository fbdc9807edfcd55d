"""Unit tests for the sharded parallel runner."""

from __future__ import annotations

import itertools

import pytest

from repro.api import EnumerationRequest, MiningSession
from repro.core.engine import RunControls, StopReason, compile_graph
from repro.core.mule import mule
from repro.errors import ParameterError
from repro.generators import erdos_renyi_uncertain
from repro.parallel import ShardPlanner, parallel_mule, run_shards
from repro.parallel.runner import (
    _STOP_PRECEDENCE,
    _merge_stop_reasons,
    _process_backend_available,
    _strongest,
)
from repro.uncertain.graph import UncertainGraph

#: Every StopReason member, read from the class so a new one is included.
STOP_REASONS = tuple(
    value for name, value in vars(StopReason).items() if not name.startswith("_")
)


def records_by_vertices(result):
    return {record.vertices: record.probability for record in result}


class TestParallelMuleInline:
    """Shard/merge correctness on the deterministic in-process backend."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_identical_to_serial(self, random_graph_factory, workers):
        graph = random_graph_factory(18, density=0.5, seed=11)
        serial = mule(graph, 0.1)
        parallel = parallel_mule(graph, 0.1, workers=workers, backend="inline")
        assert records_by_vertices(parallel) == records_by_vertices(serial)
        assert parallel.stop_reason == StopReason.COMPLETED
        assert parallel.algorithm == "parallel-mule"

    def test_statistics_are_merged(self, random_graph_factory):
        graph = random_graph_factory(15, density=0.5, seed=4)
        serial = mule(graph, 0.2)
        parallel = parallel_mule(graph, 0.2, workers=4, backend="inline")
        # Root candidates are partitioned across shards, so the merged
        # candidate count matches serial exactly; each shard expands the
        # root frame once, and the merge counts it once.
        assert (
            parallel.statistics.candidates_examined
            == serial.statistics.candidates_examined
        )
        assert parallel.statistics.recursive_calls == serial.statistics.recursive_calls

    def test_empty_graph(self):
        result = parallel_mule(UncertainGraph(), 0.5, workers=4)
        assert len(result) == 0
        assert result.stop_reason == StopReason.COMPLETED

    def test_singleton_graph(self):
        result = parallel_mule(UncertainGraph(vertices=["a"]), 0.5, workers=4)
        assert [sorted(r.vertices) for r in result] == [["a"]]

    def test_invalid_workers(self, triangle):
        with pytest.raises(ParameterError):
            parallel_mule(triangle, 0.5, workers=0)

    def test_invalid_backend(self, triangle):
        with pytest.raises(ParameterError):
            parallel_mule(triangle, 0.5, workers=2, backend="threads")

    def test_num_shards_override_does_not_change_output(self, random_graph_factory):
        graph = random_graph_factory(16, density=0.5, seed=8)
        serial = mule(graph, 0.15)
        for num_shards in (1, 3, 7, 16, 40):
            parallel = parallel_mule(
                graph, 0.15, workers=2, backend="inline", num_shards=num_shards
            )
            assert records_by_vertices(parallel) == records_by_vertices(serial)

    def test_max_cliques_caps_merged_output(self, random_graph_factory):
        graph = random_graph_factory(15, density=0.6, seed=6)
        full = mule(graph, 0.1)
        assert full.num_cliques > 5
        capped = parallel_mule(
            graph,
            0.1,
            workers=2,
            backend="inline",
            controls=RunControls(max_cliques=5),
        )
        assert capped.num_cliques == 5
        assert capped.stop_reason == StopReason.MAX_CLIQUES
        assert capped.truncated
        # Every retained clique is genuinely alpha-maximal (a subset of the
        # full output), even though the prefix is sorted, not depth-first.
        assert capped.vertex_sets() <= full.vertex_sets()

    def test_exhausted_time_budget_flags_truncation(self, random_graph_factory):
        graph = random_graph_factory(20, density=0.6, seed=3)
        result = parallel_mule(
            graph,
            0.05,
            workers=2,
            backend="inline",
            controls=RunControls(time_budget_seconds=0.0, check_every_frames=1),
        )
        assert result.stop_reason == StopReason.TIME_BUDGET
        assert result.truncated

    def test_generous_controls_complete(self, two_cliques):
        serial = mule(two_cliques, 0.5)
        parallel = parallel_mule(
            two_cliques,
            0.5,
            workers=2,
            backend="inline",
            controls=RunControls(max_cliques=10_000, time_budget_seconds=60.0),
        )
        assert records_by_vertices(parallel) == records_by_vertices(serial)
        assert parallel.stop_reason == StopReason.COMPLETED


@pytest.mark.skipif(
    not _process_backend_available(), reason="fork start method unavailable"
)
class TestParallelMuleProcesses:
    """The real ProcessPoolExecutor path (fork platforms only)."""

    @pytest.mark.parametrize("workers", [2, 4])
    def test_identical_to_serial(self, random_graph_factory, workers):
        graph = random_graph_factory(25, density=0.4, seed=13)
        serial = mule(graph, 0.1)
        parallel = parallel_mule(graph, 0.1, workers=workers, backend="process")
        assert records_by_vertices(parallel) == records_by_vertices(serial)
        assert parallel.stop_reason == StopReason.COMPLETED

    def test_auto_backend_matches_serial(self, random_graph_factory):
        graph = random_graph_factory(20, density=0.5, seed=21)
        serial = mule(graph, 0.15)
        parallel = parallel_mule(graph, 0.15, workers=2)
        assert records_by_vertices(parallel) == records_by_vertices(serial)

    def test_string_labels_cross_process(self):
        graph = UncertainGraph(
            edges=[("a", "b", 0.9), ("b", "c", 0.9), ("a", "c", 0.9), ("c", "d", 0.4)]
        )
        serial = mule(graph, 0.5)
        parallel = parallel_mule(graph, 0.5, workers=2, backend="process")
        assert records_by_vertices(parallel) == records_by_vertices(serial)


class TestShardedRunsMatchSerial:
    """Outcome parity, counters included, however the roots are split."""

    @pytest.mark.parametrize("backend", ["inline", "process"])
    @pytest.mark.parametrize("num_shards", [1, 2, 4, 8])
    def test_counters_equal_serial(self, backend, num_shards):
        if backend == "process" and not _process_backend_available():
            pytest.skip("fork start method unavailable")
        session = MiningSession(erdos_renyi_uncertain(40, 0.3, rng=7))
        serial = session.enumerate(EnumerationRequest(algorithm="mule", alpha=0.01))
        sharded = session.enumerate(
            EnumerationRequest(
                algorithm="mule",
                alpha=0.01,
                workers=2,
                num_shards=num_shards,
                backend=backend,
                execution="parallel",
            )
        )
        sharded.assert_matches(serial)


class TestRunShards:
    def test_outcomes_arrive_in_shard_order(self, random_graph_factory):
        graph = random_graph_factory(14, density=0.5, seed=2)
        compiled = compile_graph(graph, alpha=0.2)
        shards = ShardPlanner(4).plan(compiled)
        outcomes = run_shards(compiled, 0.2, shards, workers=1)
        assert [outcome.shard.index for outcome in outcomes] == [
            shard.index for shard in shards
        ]

    def test_shards_emit_disjoint_cliques(self, random_graph_factory):
        graph = random_graph_factory(16, density=0.5, seed=7)
        compiled = compile_graph(graph, alpha=0.15)
        shards = ShardPlanner(4).plan(compiled)
        outcomes = run_shards(compiled, 0.15, shards, workers=1)
        seen = set()
        for outcome in outcomes:
            for members, _ in outcome.pairs:
                assert members not in seen
                seen.add(members)
        assert seen == mule(graph, 0.15).vertex_sets()

    def test_each_shard_reports_its_own_stop_reason(self, random_graph_factory):
        graph = random_graph_factory(14, density=0.6, seed=5)
        compiled = compile_graph(graph, alpha=0.1)
        shards = ShardPlanner(2).plan(compiled)
        outcomes = run_shards(
            compiled,
            0.1,
            shards,
            workers=1,
            controls=RunControls(max_cliques=1),
        )
        assert all(
            outcome.report.stop_reason
            in (StopReason.MAX_CLIQUES, StopReason.COMPLETED)
            for outcome in outcomes
        )


class TestMergeStopReasons:
    def test_completed_when_all_complete(self):
        assert _merge_stop_reasons(["completed", "completed"]) == StopReason.COMPLETED

    def test_time_budget_dominates(self):
        assert (
            _merge_stop_reasons(["completed", "max-cliques", "time-budget"])
            == StopReason.TIME_BUDGET
        )

    def test_max_cliques_propagates(self):
        assert (
            _merge_stop_reasons(["completed", "max-cliques"])
            == StopReason.MAX_CLIQUES
        )

    def test_cancelled_dominates_every_other_reason(self):
        # Historically a cancelled shard collapsed to COMPLETED because the
        # merge only special-cased TIME_BUDGET; cancellation is the
        # strongest reason and must survive any mix.
        assert (
            _merge_stop_reasons(
                ["completed", "max-cliques", "cancelled", "time-budget"]
            )
            == StopReason.CANCELLED
        )

    def test_cap_trim_does_not_mask_cancellation(self):
        assert (
            _strongest(StopReason.CANCELLED, StopReason.MAX_CLIQUES)
            == StopReason.CANCELLED
        )

    def test_unknown_reason_is_never_downgraded(self):
        assert _merge_stop_reasons(["completed", "wedged"]) == "wedged"


class TestStopReasonPrecedence:
    def test_precedence_lists_every_stop_reason(self):
        # A member left out would rank above every listed one (unknown
        # reasons are never downgraded), so a new StopReason must be
        # placed in the precedence explicitly.
        assert set(_STOP_PRECEDENCE) == set(STOP_REASONS)

    @pytest.mark.parametrize(
        "first, second", list(itertools.product(STOP_REASONS, repeat=2))
    )
    def test_strongest_is_the_reason_listed_first(self, first, second):
        expected = min(first, second, key=_STOP_PRECEDENCE.index)
        assert _strongest(first, second) == expected

    def test_time_budget_survives_merged_cap_trim(self, random_graph_factory):
        # A run that hit the time budget must not be relabelled max-cliques
        # by the merged-output trim: its output is not the cap-bounded set.
        graph = random_graph_factory(20, density=0.6, seed=3)
        result = parallel_mule(
            graph,
            0.05,
            workers=2,
            backend="inline",
            controls=RunControls(
                max_cliques=1, time_budget_seconds=0.0, check_every_frames=6
            ),
        )
        assert result.truncated
        assert result.stop_reason == StopReason.TIME_BUDGET
        assert result.num_cliques <= 1


class TestShardingIsStrategyAgnostic:
    def test_custom_strategy_honours_root_mask(self, random_graph_factory):
        # The kernel, not the strategy, enforces the shard restriction: a
        # strategy that overrides descend without any shard-awareness still
        # produces a duplicate-free union across shards.
        from repro.core.engine import MuleStrategy, run_search
        from repro.core.engine.kernel import run_search as kernel_run

        class PlainStrategy(MuleStrategy):
            algorithm = "custom-no-shard-code"

            def descend(self, state, u, clique):
                return MuleStrategy.descend(self, state, u, clique)

        graph = random_graph_factory(14, density=0.5, seed=31)
        compiled = compile_graph(graph, alpha=0.1)
        decode = compiled.decode
        full = {decode(m): p for m, p in run_search(compiled, 0.1, PlainStrategy())}
        merged = {}
        half = (1 << (compiled.n // 2)) - 1
        for mask in (half, compiled.all_mask ^ half):
            for members, probability in kernel_run(
                compiled.restrict_roots(mask), 0.1, PlainStrategy()
            ):
                assert decode(members) not in merged
                merged[decode(members)] = probability
        assert merged == full


class TestPrecompiledForwarding:
    """parallel_mule(compiled=...) skips every compilation (satellite of the
    session-API PR: the artifact is adopted by the session and shipped to
    the shard workers as-is)."""

    def test_precompiled_parity(self, random_graph_factory):
        graph = random_graph_factory(16, density=0.5, seed=13)
        precompiled = compile_graph(graph, alpha=0.1)
        reference = parallel_mule(graph, 0.1, workers=2, backend="inline")
        result = parallel_mule(
            graph, 0.1, workers=2, backend="inline", compiled=precompiled
        )
        assert records_by_vertices(result) == records_by_vertices(reference)
        assert result.statistics == reference.statistics

    def test_precompiled_skips_compilation(self, random_graph_factory, monkeypatch):
        graph = random_graph_factory(12, density=0.5, seed=14)
        precompiled = compile_graph(graph, alpha=0.2)
        expected = mule(graph, 0.2).num_cliques
        monkeypatch.setattr(
            "repro.api.cache.compile_graph",
            lambda *args, **kwargs: pytest.fail(
                "parallel_mule(compiled=...) must not compile"
            ),
        )
        result = parallel_mule(
            graph, 0.2, workers=2, backend="inline", compiled=precompiled
        )
        assert result.num_cliques == expected

    def test_parallel_enumerate_is_compile_free(self, random_graph_factory):
        from repro.parallel import parallel_enumerate

        graph = random_graph_factory(12, density=0.5, seed=15)
        compiled = compile_graph(graph, alpha=0.1)
        records, statistics, stop_reason = parallel_enumerate(
            compiled, 0.1, workers=2, backend="inline"
        )
        serial = mule(graph, 0.1)
        assert {r.vertices: r.probability for r in records} == records_by_vertices(
            serial
        )
        assert stop_reason == StopReason.COMPLETED
        assert statistics.candidates_examined == serial.statistics.candidates_examined
