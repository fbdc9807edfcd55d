"""GraphStore tests — resolution, CRUD, budgeted eviction, shared caching.

The resource-layer guarantees pinned here:

* references resolve by name, full fingerprint or unambiguous 8+-char
  prefix; everything else is a :class:`GraphNotFoundError`;
* registration is idempotent by content (two ``==`` graphs share a
  session) and the first graph becomes the default;
* the LRU budget evicts only unpinned, non-default graphs — and eviction
  drops the victim's compiled artifacts and per-graph counters;
* all sessions share one cache, yet per-graph counters stay separable.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.api import EnumerationRequest, GraphStore
from repro.errors import GraphNotFoundError, StoreError
from repro.generators.erdos_renyi import random_uncertain_graph
from repro.uncertain.graph import UncertainGraph


def graph_a():
    return UncertainGraph(edges=[(1, 2, 0.9), (2, 3, 0.8), (1, 3, 0.7)])


def graph_b():
    return UncertainGraph(edges=[("x", "y", 0.5), ("y", "z", 0.6)])


@pytest.fixture
def store():
    return GraphStore()


class TestRegistration:
    def test_first_graph_becomes_default(self, store):
        info = store.add(graph_a())
        assert info.default
        assert store.default_fingerprint == info.fingerprint
        assert store.get(None).fingerprint == info.fingerprint

    def test_add_is_idempotent_by_content(self, store):
        first = store.add(graph_a(), name="a")
        second = store.add(graph_a())
        assert first.fingerprint == second.fingerprint
        assert len(store) == 1
        assert store.session("a") is store.session(first.fingerprint)

    def test_readding_merges_metadata(self, store):
        info = store.add(graph_a())
        assert not info.pinned and info.name is None
        info = store.add(graph_a(), name="a", pin=True)
        assert info.pinned and info.name == "a"

    def test_name_collision_with_different_graph_rejected(self, store):
        store.add(graph_a(), name="taken")
        with pytest.raises(StoreError, match="already refers"):
            store.add(graph_b(), name="taken")

    def test_invalid_names_rejected(self, store):
        for bad in ("", "has space", "/slash", "-leading", "a" * 200):
            with pytest.raises(StoreError, match="invalid graph name"):
                store.add(graph_a(), name=bad)

    def test_add_dataset_registers_under_canonical_name(self, store):
        info = store.add_dataset("PPI", scale=0.01, seed=3)
        assert info.name == "ppi"
        assert info.pinned
        assert store.graph("ppi").num_vertices > 0

    def test_add_dataset_resolves_aliases(self, store):
        info = store.add_dataset("dblp", scale=0.001, seed=3)
        assert info.name == "dblp10"


class TestHashing:
    """Registering a graph hashes it once; its session keeps the hash."""

    @pytest.fixture
    def hashes(self, monkeypatch):
        calls = []
        original = UncertainGraph.fingerprint

        def counting(graph):
            calls.append(graph)
            return original(graph)

        monkeypatch.setattr(UncertainGraph, "fingerprint", counting)
        return calls

    def test_add_then_enumerate_hashes_once(self, store, hashes):
        info = store.add(graph_a(), name="a")
        session = store.session("a")
        assert session.fingerprint == info.fingerprint
        session.enumerate(EnumerationRequest(algorithm="mule", alpha=0.4))
        assert len(hashes) == 1

    def test_ensure_hashes_a_new_graph_once(self, store, hashes):
        session = store.ensure(graph_a())
        assert session.fingerprint == store.default_fingerprint
        assert len(hashes) == 1


class TestResolution:
    def test_resolve_by_name_fingerprint_and_prefix(self, store):
        info = store.add(graph_a(), name="a")
        fp = info.fingerprint
        assert store.resolve("a") == fp
        assert store.resolve(fp) == fp
        assert store.resolve(fp[:12]) == fp

    def test_short_prefix_rejected(self, store):
        info = store.add(graph_a())
        with pytest.raises(GraphNotFoundError):
            store.resolve(info.fingerprint[:6])

    def test_ambiguous_prefix_rejected(self, store, monkeypatch):
        a = store.add(graph_a()).fingerprint
        b = store.add(graph_b()).fingerprint
        shared = 0
        while shared < len(a) and a[shared] == b[shared]:
            shared += 1
        if shared >= 8:  # pragma: no cover - astronomically unlikely
            with pytest.raises(StoreError, match="ambiguous"):
                store.resolve(a[:shared])

    def test_name_colliding_with_another_graphs_prefix_is_ambiguous(
        self, store
    ):
        """Regression: exact-name used to win silently over a prefix.

        A ref that is the registered name of one graph *and* a valid
        ≥8-char fingerprint prefix of a different graph is claimed by
        two graphs at once — that must raise the ambiguity
        :class:`StoreError`, not quietly answer the named graph.
        """
        a = store.add(graph_a()).fingerprint
        collider = a[:8]  # hex prefix is a valid graph name
        store.add(graph_b(), name=collider)
        with pytest.raises(StoreError, match="ambiguous"):
            store.resolve(collider)
        # Unambiguous references to either graph still work.
        assert store.resolve(a) == a
        assert store.resolve(a[:12]) == a

    def test_name_colliding_with_own_fingerprint_resolves(self, store):
        """Exact-name wins when the collision is with the graph itself."""
        a = store.add(graph_a()).fingerprint
        info = store.add(graph_a(), name=a[:8])
        assert info.fingerprint == a
        assert store.resolve(a[:8]) == a

    def test_name_colliding_with_full_fingerprint_is_ambiguous(self, store):
        """A name equal to a *different* graph's full fingerprint raises."""
        a = store.add(graph_a()).fingerprint
        store.add(graph_b(), name=a)
        with pytest.raises(StoreError, match="ambiguous"):
            store.resolve(a)

    def test_unknown_reference_names_available(self, store):
        store.add(graph_a(), name="a")
        with pytest.raises(GraphNotFoundError, match="registered names: a"):
            store.session("missing")

    def test_empty_store_has_no_default(self, store):
        with pytest.raises(StoreError, match="no default"):
            store.session(None)

    def test_contains(self, store):
        store.add(graph_a(), name="a")
        assert "a" in store
        assert "missing" not in store
        assert 42 not in store


class TestRemoval:
    def test_remove_drops_session_names_and_artifacts(self, store):
        store.add(graph_a(), name="a")
        info = store.add(graph_b(), name="b")
        store.session("b").enumerate(EnumerationRequest(algorithm="mule", alpha=0.4))
        assert store.cache_info_for("b").entries > 0
        removed = store.remove("b")
        assert removed.fingerprint == info.fingerprint
        assert "b" not in store
        assert store.cache.info_for(info.fingerprint).entries == 0

    def test_default_graph_cannot_be_removed_while_others_resident(self, store):
        store.add(graph_a(), name="a")
        store.add(graph_b(), name="b")
        with pytest.raises(StoreError, match="default"):
            store.remove("a")
        store.set_default("b")
        store.remove("a")
        assert "a" not in store

    def test_removing_the_only_graph_clears_the_default(self, store):
        store.add(graph_a(), name="a")
        store.remove("a")
        assert store.default_fingerprint is None
        assert len(store) == 0


class TestEviction:
    def bulk(self, n):
        return [
            random_uncertain_graph(6, 0.5, rng=random.Random(seed))
            for seed in range(n)
        ]

    def test_lru_eviction_beyond_budget(self):
        store = GraphStore(max_graphs=3)
        infos = [store.add(g) for g in self.bulk(3)]
        # Touch the second graph so the third is the LRU victim... but the
        # first is the (protected) default, so victim = graphs[2].
        store.session(infos[1].fingerprint)
        store.add(graph_b())
        assert len(store) == 3
        assert infos[1].fingerprint in store
        assert infos[2].fingerprint not in store

    def test_eviction_skips_pinned_graphs(self):
        store = GraphStore(max_graphs=2)
        store.add(graph_a(), name="keep", pin=True)
        victim = store.add(self.bulk(1)[0])
        store.add(graph_b())
        assert "keep" in store
        assert victim.fingerprint not in store

    def test_all_pinned_budget_exhausted_raises(self):
        store = GraphStore(max_graphs=2)
        store.add(graph_a(), pin=True)
        store.add(graph_b(), pin=True)
        with pytest.raises(StoreError, match="pinned"):
            store.add(self.bulk(1)[0])

    def test_eviction_drops_cache_entries(self):
        store = GraphStore(max_graphs=2)
        store.add(graph_a(), pin=True)
        victim = store.add(self.bulk(1)[0])
        store.session(victim.fingerprint).enumerate(
            EnumerationRequest(algorithm="mule", alpha=0.4)
        )
        assert store.cache.info_for(victim.fingerprint).entries > 0
        store.add(graph_b())
        assert store.cache.info_for(victim.fingerprint).entries == 0

    def test_invalid_budget_rejected(self):
        with pytest.raises(StoreError):
            GraphStore(max_graphs=0)


class TestSharedCache:
    def test_sessions_share_one_cache_with_separable_counters(self, store):
        request = EnumerationRequest(algorithm="mule", alpha=0.4)
        store.add(graph_a(), name="a")
        store.add(graph_b(), name="b")
        store.session("a").sweep([0.2, 0.3, 0.4, 0.5, 0.6])
        store.session("b").enumerate(request)
        assert store.cache_info().compilations == 2
        assert store.cache_info_for("a").compilations == 1
        assert store.cache_info_for("b").compilations == 1
        assert store.cache_info_for("a").derivations >= 4

    def test_ensure_registers_ad_hoc_graphs_once(self, store):
        session = store.ensure(graph_a())
        assert store.ensure(graph_a()) is session
        assert len(store) == 1

    def test_outcomes_do_not_cross_contaminate(self, store):
        request = EnumerationRequest(algorithm="mule", alpha=0.4)
        store.add(graph_a(), name="a")
        store.add(graph_b(), name="b")
        out_a = store.session("a").enumerate(request)
        out_b = store.session("b").enumerate(request)
        assert out_a.vertex_sets() != out_b.vertex_sets()

    def test_concurrent_registration_is_safe(self):
        store = GraphStore()
        graphs = [
            random_uncertain_graph(8, 0.5, rng=random.Random(seed))
            for seed in range(4)
        ]
        errors = []
        barrier = threading.Barrier(8)

        def register(graph):
            try:
                barrier.wait(timeout=5)
                for _ in range(10):
                    store.ensure(graph)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [
            threading.Thread(target=register, args=(graphs[i % 4],))
            for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert len(store) == 4

    def test_concurrent_reads_race_eviction_safely(self):
        # len()/default_fingerprint read the registry the writers mutate
        # under the store lock; hammering them against a stream of
        # evicting registrations must never raise (dict-changed-during-
        # iteration, KeyError on a just-evicted default) or tear state.
        store = GraphStore(max_graphs=2)
        graphs = [
            random_uncertain_graph(6, 0.5, rng=random.Random(seed))
            for seed in range(6)
        ]
        errors = []
        barrier = threading.Barrier(4)
        done = threading.Event()

        def churn():
            try:
                barrier.wait(timeout=5)
                for _ in range(20):
                    for graph in graphs:
                        store.ensure(graph)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)
            finally:
                done.set()

        def observe():
            try:
                barrier.wait(timeout=5)
                while not done.is_set():
                    assert 0 <= len(store) <= 2
                    fingerprint = store.default_fingerprint
                    assert fingerprint is None or isinstance(fingerprint, str)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=churn)] + [
            threading.Thread(target=observe) for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert 1 <= len(store) <= 2
