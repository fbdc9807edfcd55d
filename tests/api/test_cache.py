"""Tests for the compiled-graph cache (keys, derivation, accounting, LRU)."""

from __future__ import annotations

import itertools
import random
import threading
import time

import pytest

import repro.api.cache as cache_module
from repro.api import EnumerationRequest, GraphStore, MiningSession
from repro.api.cache import CacheInfo, CompiledGraphCache
from repro.core.engine import compile_graph
from repro.core.pruning import PruningReport
from repro.errors import ParameterError
from repro.uncertain.graph import UncertainGraph


@pytest.fixture
def graph():
    return UncertainGraph(
        edges=[(1, 2, 0.9), (2, 3, 0.7), (1, 3, 0.5), (3, 4, 0.3)]
    )


def compiled_equal(a, b):
    return (
        a.labels == b.labels
        and a.adjacency_mask == b.adjacency_mask
        and a.adjacency_probability == b.adjacency_probability
    )


class TestLookup:
    def test_exact_hit(self, graph):
        cache = CompiledGraphCache()
        fp = graph.fingerprint()
        first = cache.get(graph, fp, alpha=0.5)
        second = cache.get(graph, fp, alpha=0.5)
        assert first is second
        info = cache.info()
        assert (info.hits, info.compilations, info.derivations) == (1, 1, 0)
        assert info.misses == info.compilations + info.derivations

    def test_derivation_matches_full_compilation(self, graph):
        cache = CompiledGraphCache()
        fp = graph.fingerprint()
        cache.get(graph, fp)  # unpruned base
        derived = cache.get(graph, fp, alpha=0.6)
        assert compiled_equal(derived, compile_graph(graph, alpha=0.6))
        assert cache.info().compilations == 1
        assert cache.info().derivations == 1

    def test_derivation_prefers_highest_legal_base(self, graph):
        cache = CompiledGraphCache()
        fp = graph.fingerprint()
        cache.get(graph, fp)             # alpha=None base
        cache.get(graph, fp, alpha=0.4)  # derived, now also a base
        derived = cache.get(graph, fp, alpha=0.6)  # must derive from 0.4 legally
        assert compiled_equal(derived, compile_graph(graph, alpha=0.6))

    def test_no_derivation_downward(self, graph):
        # A base pruned at 0.6 must not serve alpha=0.4 (edges are gone).
        cache = CompiledGraphCache()
        fp = graph.fingerprint()
        cache.get(graph, fp, alpha=0.6)
        lower = cache.get(graph, fp, alpha=0.4)
        assert compiled_equal(lower, compile_graph(graph, alpha=0.4))
        assert cache.info().compilations == 2
        assert cache.info().derivations == 0

    def test_snf_entries_never_derive(self, graph):
        cache = CompiledGraphCache()
        fp = graph.fingerprint()
        cache.get(graph, fp)  # plain base present
        filtered = cache.get(graph, fp, alpha=0.4, size_threshold=3)
        assert compiled_equal(
            filtered, compile_graph(graph, alpha=0.4, size_threshold=3)
        )
        assert cache.info().derivations == 0
        assert cache.info().compilations == 2
        # ...and an SNF entry is never used as a derivation base.
        plain = cache.get(graph, fp, alpha=0.45)
        assert compiled_equal(plain, compile_graph(graph, alpha=0.45))

    def test_distinct_graphs_do_not_collide(self, graph):
        other = UncertainGraph(edges=[(1, 2, 0.9)])
        cache = CompiledGraphCache()
        a = cache.get(graph, graph.fingerprint(), alpha=0.5)
        b = cache.get(other, other.fingerprint(), alpha=0.5)
        assert a.n != b.n
        assert cache.info().compilations == 2

    def test_pruning_report_forces_compile(self, graph):
        cache = CompiledGraphCache()
        fp = graph.fingerprint()
        cache.get(graph, fp, alpha=0.4, size_threshold=3)
        report = PruningReport()
        cache.get(graph, fp, alpha=0.4, size_threshold=3, pruning_report=report)
        # The filter genuinely ran again and filled the fresh report: the
        # 0.3 edge is pruned at alpha=0.4, leaving vertex 4 isolated, so the
        # t=3 filter removes it.
        assert report.rounds >= 1
        assert report.vertices_removed >= 1
        assert cache.info().compilations == 2


class TestStore:
    def test_adopt_is_served_as_hit(self, graph):
        cache = CompiledGraphCache()
        fp = graph.fingerprint()
        precompiled = compile_graph(graph, alpha=0.5)
        cache.adopt(fp, precompiled, alpha=0.5)
        assert cache.get(graph, fp, alpha=0.5) is precompiled
        assert cache.info().compilations == 0

    def test_lru_eviction(self, graph):
        cache = CompiledGraphCache(maxsize=2)
        fp = graph.fingerprint()
        cache.get(graph, fp, alpha=0.3)
        cache.get(graph, fp, alpha=0.5)  # derived; 0.3 touched as base
        cache.get(graph, fp, alpha=0.7)  # derived from 0.5; evicts 0.3
        assert len(cache) == 2
        before = cache.info().misses
        cache.get(graph, fp, alpha=0.5)  # still cached
        assert cache.info().misses == before
        cache.get(graph, fp, alpha=0.3)  # evicted → miss (recompiled)
        assert cache.info().misses == before + 1

    def test_derivation_base_stays_resident_under_lru_pressure(self, graph):
        # Deriving from a base must refresh its recency: a wide sweep
        # evicts its one-shot derived artifacts, never the base, so it
        # keeps compiling exactly once.
        cache = CompiledGraphCache(maxsize=2)
        fp = graph.fingerprint()
        cache.get(graph, fp, alpha=0.1)  # the base
        cache.get(graph, fp, alpha=0.5)  # derived (touches the base)
        cache.get(graph, fp, alpha=0.2)  # derives from 0.1 → evicts 0.5
        cache.get(graph, fp, alpha=0.3)  # still derivable from the base
        assert cache.info().compilations == 1
        assert cache.info().derivations == 3

    def test_concurrent_gets_are_safe(self, graph):
        # The cache is documented as shareable across sessions: hammer it
        # from several threads (hits, derivations, evictions) and require
        # consistent counters and no OrderedDict-mutation errors.
        import threading

        cache = CompiledGraphCache(maxsize=4)
        fp = graph.fingerprint()
        alphas = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]
        errors = []

        def worker(offset):
            try:
                for i in range(60):
                    cache.get(graph, fp, alpha=alphas[(i + offset) % len(alphas)])
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        info = cache.info()
        assert info.misses == info.compilations + info.derivations
        assert info.hits + info.misses == 4 * 60
        assert len(cache) <= 4

    def test_invalid_maxsize(self):
        with pytest.raises(ParameterError):
            CompiledGraphCache(maxsize=0)

    def test_clear(self, graph):
        cache = CompiledGraphCache()
        cache.get(graph, graph.fingerprint(), alpha=0.5)
        cache.clear()
        assert len(cache) == 0
        assert cache.info() == (0, 0, 0, 0, 0)


def slow_down_compiles(monkeypatch, seconds):
    """Make every compile take ``seconds`` more; return the list of calls."""
    real = cache_module.compile_graph
    calls = []

    def slowed(*args, **kwargs):
        calls.append(kwargs)
        time.sleep(seconds)
        return real(*args, **kwargs)

    monkeypatch.setattr(cache_module, "compile_graph", slowed)
    return calls


def run_together(count, target):
    """Run ``target`` on ``count`` threads released at once; return results.

    Each result is the value ``target`` returned or the exception it raised.
    """
    barrier = threading.Barrier(count)
    results = []

    def call():
        barrier.wait(timeout=5)
        try:
            results.append(target())
        except Exception as exc:
            results.append(exc)

    threads = [threading.Thread(target=call) for _ in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive(), "a thread never returned"
    return results


class TestSingleFlight:
    """Concurrent misses of one key build it once; waits count no lookup."""

    @pytest.fixture
    def compiles(self, monkeypatch):
        """Slow every compile down by 50 ms; the list of calls made."""
        return slow_down_compiles(monkeypatch, 0.05)

    def test_threads_sharing_a_store_session_compile_once(self, compiles):
        from repro.generators.erdos_renyi import random_uncertain_graph

        graph = random_uncertain_graph(16, 0.5, rng=random.Random(11))
        store = GraphStore()
        store.add(graph)
        session = store.session()
        request = EnumerationRequest(algorithm="mule", alpha=0.4)
        outcomes = run_together(6, lambda: session.enumerate(request))
        info = store.cache_info()
        assert (info.compilations, info.hits + info.misses) == (1, 6), info
        assert store.cache.single_flight_waits() >= 1
        reference = MiningSession(graph).enumerate(request)
        for outcome in outcomes:
            outcome.assert_matches(reference)

    def test_failed_build_leaves_no_waiter_hanging(self, graph, compiles, monkeypatch):
        slowed = cache_module.compile_graph
        tickets = itertools.count()

        def fail_first(*args, **kwargs):
            ticket = next(tickets)
            artifact = slowed(*args, **kwargs)
            if ticket == 0:
                raise RuntimeError("first build failed")
            return artifact

        monkeypatch.setattr(cache_module, "compile_graph", fail_first)
        cache = CompiledGraphCache()
        fp = graph.fingerprint()
        results = run_together(6, lambda: cache.get(graph, fp, alpha=0.4))
        errors = [r for r in results if isinstance(r, Exception)]
        artifacts = {id(r) for r in results if not isinstance(r, Exception)}
        assert len(results) == 6 and len(errors) == 1, results
        assert len(artifacts) == 1
        assert len(compiles) == 2
        info = cache.info()
        assert info.misses == info.compilations == 1, info
        assert info.hits == 4, info

    def test_clear_resets_the_wait_count(self, graph, compiles):
        cache = CompiledGraphCache()
        fp = graph.fingerprint()
        run_together(3, lambda: cache.get(graph, fp, alpha=0.4))
        assert cache.single_flight_waits() >= 1
        cache.clear()
        assert cache.single_flight_waits() == 0

    def test_pruning_report_calls_are_not_deduplicated(self, graph, compiles):
        cache = CompiledGraphCache()
        fp = graph.fingerprint()
        run_together(
            3, lambda: cache.get(graph, fp, alpha=0.4, pruning_report=PruningReport())
        )
        assert len(compiles) == 3
        assert cache.single_flight_waits() == 0

    def test_mixed_alphas_under_eviction_match_serial(self, monkeypatch):
        from repro.generators.erdos_renyi import random_uncertain_graph

        slow_down_compiles(monkeypatch, 0.01)
        graph = random_uncertain_graph(16, 0.5, rng=random.Random(11))
        store = GraphStore(cache_maxsize=3)
        store.add(graph)
        session = store.session()
        alphas = [0.6, 0.2, 0.5, 0.3, 0.7, 0.4, 0.25, 0.45]
        requests = [
            EnumerationRequest(algorithm="mule", alpha=alpha, prune_edges=i % 3 != 0)
            for i, alpha in enumerate(alphas)
        ]
        serial = [MiningSession(graph).enumerate(r) for r in requests]
        offsets = itertools.count()

        def worker():
            offset = next(offsets)
            return [
                (i, session.enumerate(requests[i]))
                for i in ((offset + step) % len(requests) for step in range(12))
            ]

        for result in run_together(6, worker):
            assert not isinstance(result, Exception), result
            for i, outcome in result:
                outcome.assert_matches(serial[i])
        info = store.cache_info()
        assert info.hits + info.misses == 6 * 12, info
        assert info.misses == info.compilations + info.derivations, info
        assert info.entries <= 3, info


class TestPerFingerprintCounters:
    """The per-graph view behind multi-graph service stats."""

    def test_counters_separate_by_fingerprint(self, graph):
        import random

        from repro.generators.erdos_renyi import random_uncertain_graph

        other = random_uncertain_graph(10, 0.5, rng=random.Random(3))
        cache = CompiledGraphCache()
        fp, other_fp = graph.fingerprint(), other.fingerprint()
        cache.get(graph, fp, alpha=0.3)
        cache.get(graph, fp, alpha=0.3)  # hit
        cache.get(graph, fp, alpha=0.5)  # derived
        cache.get(other, other_fp, alpha=0.3)
        mine, theirs = cache.info_for(fp), cache.info_for(other_fp)
        assert (mine.hits, mine.compilations, mine.derivations) == (1, 1, 1)
        assert (theirs.hits, theirs.compilations, theirs.derivations) == (0, 1, 0)
        assert cache.info().compilations == 2
        assert cache.info_for("unseen").entries == 0

    def test_discard_drops_entries_and_counters(self, graph):
        cache = CompiledGraphCache()
        fp = graph.fingerprint()
        cache.get(graph, fp, alpha=0.3)
        removed = cache.discard(fp)
        assert removed == 1
        assert len(cache) == 0
        assert cache.info_for(fp) == CacheInfo(0, 0, 0, 0, 0)
        # Global history survives a discard.
        assert cache.info().compilations == 1

    def test_counters_pruned_when_last_artifact_evicts(self, graph):
        import random

        from repro.generators.erdos_renyi import random_uncertain_graph

        cache = CompiledGraphCache(maxsize=2)
        fp = graph.fingerprint()
        cache.get(graph, fp, alpha=0.3)
        assert cache.info_for(fp).compilations == 1
        # Two fresh graphs push the first graph's only artifact out; its
        # per-fingerprint counters must leave with it (bounded counter map).
        for seed in (5, 6):
            g = random_uncertain_graph(8, 0.5, rng=random.Random(seed))
            cache.get(g, g.fingerprint(), alpha=0.3)
        assert cache.info_for(fp) == CacheInfo(0, 0, 0, 0, 0)
