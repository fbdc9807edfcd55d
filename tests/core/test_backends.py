"""The kernel backend layer: dispatch, the shared native form, parity.

The vector backend's contract is *bit-identical observability*: for every
algorithm it supports, ``run_vector_search`` must emit the same cliques in
the same order with the same float probabilities, the same
:class:`SearchStatistics` counters and the same :class:`RunReport` as the
reference python kernel.  These tests pin that on fixed graphs (the
property suite covers random ones), plus the plumbing around it: kernel
resolution and the native form shard views share on the compiled graph.
The build, the fallback and the cache live in ``test_native.py``.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core.engine import (
    KERNELS,
    LargeCliqueStrategy,
    MuleStrategy,
    NoIncrementalStrategy,
    RunControls,
    RunReport,
    TopKStrategy,
    compile_graph,
    resolve_kernel,
    run_kernel_search,
    run_search,
    run_vector_search,
)
from repro.core.result import SearchStatistics
from repro.errors import ParameterError
from repro.uncertain.graph import UncertainGraph


@pytest.fixture
def medium_graph() -> UncertainGraph:
    """A 70-vertex pseudo-random graph (bitmasks wider than 64 bits)."""
    import random

    rng = random.Random(20150413)
    graph = UncertainGraph(vertices=range(70))
    for u in range(70):
        for v in range(u + 1, 70):
            if rng.random() < 0.12:
                graph.add_edge(u, v, round(rng.uniform(0.05, 1.0), 6))
    return graph


def _observed(kernel_run):
    """Full observable behaviour of one run: emissions, stats, report."""
    stats = SearchStatistics()
    report = RunReport()
    pairs = list(kernel_run(stats, report))
    return pairs, stats, report


def _assert_bit_identical(compiled, alpha, strategy_factory, controls=None):
    py = _observed(
        lambda s, r: run_search(
            compiled, alpha, strategy_factory(),
            statistics=s, controls=controls, report=r,
        )
    )
    vec = _observed(
        lambda s, r: run_vector_search(
            compiled, alpha, strategy_factory(),
            statistics=s, controls=controls, report=r,
        )
    )
    assert vec[0] == py[0]  # same cliques, same order, same exact floats
    assert vec[1] == py[1]
    assert vec[2].stop_reason == py[2].stop_reason
    assert vec[2].cliques_emitted == py[2].cliques_emitted
    assert vec[2].frames_expanded == py[2].frames_expanded
    return py


class TestResolution:
    def test_known_kernels_constant(self):
        assert KERNELS == ("auto", "python", "vector")

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ParameterError, match="unknown kernel"):
            resolve_kernel("simd", MuleStrategy())

    @pytest.mark.parametrize(
        "strategy",
        [MuleStrategy(), TopKStrategy(min_size=2), LargeCliqueStrategy(3)],
    )
    def test_auto_prefers_vector_for_supported(self, strategy):
        assert resolve_kernel("auto", strategy) == "vector"
        assert resolve_kernel("vector", strategy) == "vector"
        assert resolve_kernel("python", strategy) == "python"

    def test_auto_falls_back_for_baseline(self):
        assert resolve_kernel("auto", NoIncrementalStrategy()) == "python"

    def test_vector_rejected_for_baseline(self):
        with pytest.raises(ParameterError, match="dfs-noip"):
            resolve_kernel("vector", NoIncrementalStrategy())

    def test_strategy_subclasses_are_not_assumed_supported(self):
        # The drivers bake in the exact semantics of the stock strategies;
        # a subclass may override any hook, so only exact types vectorise.
        class Sneaky(MuleStrategy):
            pass

        assert resolve_kernel("auto", Sneaky()) == "python"
        with pytest.raises(ParameterError):
            resolve_kernel("vector", Sneaky())

    def test_run_vector_search_rejects_unsupported(self, triangle):
        compiled = compile_graph(triangle, alpha=0.5)
        with pytest.raises(ParameterError):
            list(run_vector_search(compiled, 0.5, NoIncrementalStrategy()))


class TestKernelCaches:
    """The native form (sorted CSR rows and adjacency bitsets) the vector
    kernel keeps on the compiled graph's ``_kernel_caches``."""

    def test_caches_live_on_compiled(self, triangle):
        compiled = compile_graph(triangle, alpha=0.5)
        assert compiled._kernel_caches.native is None
        list(run_vector_search(compiled, 0.5, MuleStrategy()))
        native = compiled._kernel_caches.native
        assert native is not None
        list(run_vector_search(compiled, 0.5, MuleStrategy()))
        assert compiled._kernel_caches.native is native

    def test_native_rows_roundtrip_adjacency(self, medium_graph):
        compiled = compile_graph(medium_graph, alpha=0.1)
        list(run_vector_search(compiled, 0.1, MuleStrategy()))
        native = compiled._kernel_caches.native
        assert native.maxdeg == max(
            len(row) for row in compiled.adjacency_probability
        )
        for u, row in enumerate(compiled.adjacency_probability):
            start, end = native.offsets[u], native.offsets[u + 1]
            neighbours = list(native.nbrs[start:end])
            assert neighbours == sorted(row)
            assert list(native.probs[start:end]) == [row[w] for w in neighbours]
            bits = bytes(native.bits[u * native.rowbytes : (u + 1) * native.rowbytes])
            assert int.from_bytes(bits, "little") == compiled.adjacency_mask[u]

    def test_shards_inherit_caches(self, medium_graph):
        compiled = compile_graph(medium_graph, alpha=0.1)
        list(run_vector_search(compiled, 0.1, MuleStrategy()))
        shard = compiled.restrict_roots(0b1111)
        assert shard._kernel_caches is compiled._kernel_caches
        native = compiled._kernel_caches.native
        list(run_vector_search(shard, 0.1, MuleStrategy()))
        assert shard._kernel_caches.native is native

    def test_shard_views_made_before_a_run_share_caches(self, medium_graph):
        # A fleet worker cuts one view of its cached base artifact per shard
        # job, and the base itself never runs the kernel.  The first shard's
        # run must build the native form for every view.
        compiled = compile_graph(medium_graph, alpha=0.1)
        first = compiled.restrict_roots(compiled.all_mask & 0x3FF)
        second = compiled.restrict_roots(compiled.all_mask & ~0x3FF)
        list(run_vector_search(first, 0.1, MuleStrategy()))
        caches = compiled._kernel_caches
        native = caches.native
        assert native is not None
        list(run_vector_search(second, 0.1, MuleStrategy()))
        assert second._kernel_caches.native is native

    def test_restricted_probability_starts_with_empty_caches(self, medium_graph):
        compiled = compile_graph(medium_graph, alpha=0.1)
        list(run_vector_search(compiled, 0.1, MuleStrategy()))
        caches = compiled.restrict_probability(0.5)._kernel_caches
        assert caches is not compiled._kernel_caches
        assert caches.native is None

    def test_restricted_probability_builds_from_its_own_edges(self, medium_graph):
        compiled = compile_graph(medium_graph, alpha=0.1)
        list(run_vector_search(compiled, 0.1, MuleStrategy()))
        derived = compiled.restrict_probability(0.5)
        _assert_bit_identical(derived, 0.5, MuleStrategy)
        native = derived._kernel_caches.native
        assert native is not compiled._kernel_caches.native
        assert all(p >= 0.5 for p in native.probs)

    def test_one_native_form_serves_every_alpha(self, medium_graph):
        # The form holds the artifact's edges, not an α: one build serves
        # every threshold the artifact is searched at.
        compiled = compile_graph(medium_graph, alpha=None)
        list(run_vector_search(compiled, 0.9, MuleStrategy()))
        native = compiled._kernel_caches.native
        for alpha in (0.5, 0.1, 0.01):
            _assert_bit_identical(compiled, alpha, MuleStrategy)
        assert compiled._kernel_caches.native is native

    def test_concurrent_first_runs_share_caches_safely(self, medium_graph):
        # Shard jobs of one graph may start on several scheduler threads at
        # once.  The cache takes no lock, so each thread may build the form;
        # every run must still match the python kernel on its shard.
        masks = [((1 << 12) - 1) << (12 * k) for k in range(6)]
        reference = compile_graph(medium_graph, alpha=0.1)
        expected = [
            list(run_search(reference.restrict_roots(m), 0.1, MuleStrategy()))
            for m in masks
        ]
        compiled = compile_graph(medium_graph, alpha=0.1)
        views = [compiled.restrict_roots(m) for m in masks]
        results: list = [None] * len(views)
        barrier = threading.Barrier(len(views))

        def run(k):
            barrier.wait(timeout=10)
            results[k] = list(run_vector_search(views[k], 0.1, MuleStrategy()))

        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(views))]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert results == expected
        assert compiled._kernel_caches.native is not None


class TestParity:
    ALPHAS = [0.9, 0.5, 0.1, 0.01]

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_mule_bit_identical(self, medium_graph, alpha):
        compiled = compile_graph(medium_graph, alpha=alpha)
        pairs, _, _ = _assert_bit_identical(compiled, alpha, MuleStrategy)
        assert pairs  # the cell must exercise real work

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_mule_bit_identical_without_edge_pruning(self, medium_graph, alpha):
        compiled = compile_graph(medium_graph, alpha=None)
        _assert_bit_identical(compiled, alpha, MuleStrategy)

    @pytest.mark.parametrize("threshold", [2, 3, 4])
    def test_large_bit_identical(self, medium_graph, threshold):
        compiled = compile_graph(medium_graph, alpha=0.1)
        _assert_bit_identical(
            compiled, 0.1, lambda: LargeCliqueStrategy(threshold)
        )

    @pytest.mark.parametrize("min_size", [1, 2, 3])
    def test_top_k_bit_identical(self, medium_graph, min_size):
        compiled = compile_graph(medium_graph, alpha=0.1)
        _assert_bit_identical(
            compiled, 0.1, lambda: TopKStrategy(min_size=min_size)
        )

    @pytest.mark.parametrize("max_cliques", [1, 7, 50])
    def test_max_cliques_bit_identical(self, medium_graph, max_cliques):
        compiled = compile_graph(medium_graph, alpha=0.05)
        _assert_bit_identical(
            compiled,
            0.05,
            MuleStrategy,
            controls=RunControls(max_cliques=max_cliques),
        )

    @pytest.mark.parametrize("check_every", [1, 3, 64])
    def test_expired_time_budget_bit_identical(self, medium_graph, check_every):
        # A zero budget makes the deadline path deterministic: both kernels
        # must stop at exactly the same frame for every check cadence.
        compiled = compile_graph(medium_graph, alpha=0.05)
        _assert_bit_identical(
            compiled,
            0.05,
            MuleStrategy,
            controls=RunControls(
                time_budget_seconds=0.0, check_every_frames=check_every
            ),
        )

    def test_sharded_roots_bit_identical(self, medium_graph):
        compiled = compile_graph(medium_graph, alpha=0.1)
        full_mask = compiled.all_mask
        shard_masks = [full_mask & 0x3FF, full_mask & ~0x3FF]
        merged = []
        for mask in shard_masks:
            shard = compiled.restrict_roots(mask)
            pairs, _, _ = _assert_bit_identical(shard, 0.1, MuleStrategy)
            merged.extend(pairs)
        reference = list(run_search(compiled, 0.1, MuleStrategy()))
        decode = compiled.decode
        assert sorted(
            (tuple(sorted(decode(c), key=repr)), p) for c, p in merged
        ) == sorted((tuple(sorted(decode(c), key=repr)), p) for c, p in reference)

    def test_empty_graph(self):
        compiled = compile_graph(UncertainGraph(), alpha=0.5)
        stats = SearchStatistics()
        assert list(
            run_vector_search(compiled, 0.5, MuleStrategy(), statistics=stats)
        ) == []
        assert stats == SearchStatistics()


class TestFrontDoor:
    def test_run_kernel_search_dispatches(self, two_cliques):
        compiled = compile_graph(two_cliques, alpha=0.5)
        runs = {
            kernel: list(
                run_kernel_search(compiled, 0.5, MuleStrategy(), kernel=kernel)
            )
            for kernel in KERNELS
        }
        assert runs["auto"] == runs["python"] == runs["vector"]
        assert runs["auto"]

    def test_front_door_propagates_resolution_errors(self, two_cliques):
        compiled = compile_graph(two_cliques, alpha=0.5)
        with pytest.raises(ParameterError):
            run_kernel_search(
                compiled, 0.5, NoIncrementalStrategy(), kernel="vector"
            )
