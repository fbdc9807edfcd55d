"""Multi-graph hosting tests — v2 endpoints, per-graph parity, v1 freeze.

The acceptance criteria of the resource-model redesign, pinned end to end
over real sockets:

* one server hosting **two datasets** answers v2 enumerate/sweep on both
  with cliques and counters bit-identical to local ``MiningSession`` runs;
* a ≥5-α remote sweep against either graph compiles exactly once,
  asserted via the **per-graph** ``/v1/stats`` counters (not the global
  total, which legitimately grows as other graphs compile);
* the ``/v2/graphs`` resource surface (upload by edge set, build by
  dataset name, list, get, delete) round-trips through
  :class:`RemoteStore`;
* the ``/v1`` surface keeps serving the default graph unchanged while all
  of the above happens.
"""

from __future__ import annotations

import threading

import pytest

from repro.api import EnumerationRequest, GraphStore, MiningSession
from repro.datasets.registry import load_dataset
from repro.errors import GraphNotFoundError, StoreError
from repro.service import MiningServer, RemoteSession, RemoteStore, connect
from repro.uncertain.graph import UncertainGraph

SWEEP_ALPHAS = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
DATASETS = {"ppi": 0.012, "dblp-small": 1.0}


@pytest.fixture(scope="module")
def graphs():
    return {
        name: load_dataset(name, scale=scale, seed=7)
        for name, scale in DATASETS.items()
    }


@pytest.fixture()
def server(graphs):
    store = GraphStore()
    for name, graph in graphs.items():
        store.add(graph, name=name, pin=True)
    with MiningServer(store, port=0) as srv:
        yield srv


@pytest.fixture()
def remote(server) -> RemoteStore:
    return connect(server.url)


class TestAcceptance:
    def test_two_datasets_one_process_parity_and_per_graph_compiles(
        self, remote, graphs
    ):
        """The headline criterion: both graphs served concurrently, sweeps
        bit-identical to local sessions, exactly one compilation each."""
        assert len(SWEEP_ALPHAS) >= 5
        sessions = {name: remote.session(name) for name in graphs}
        outcomes = {name: sessions[name].sweep(SWEEP_ALPHAS) for name in graphs}

        for name, graph in graphs.items():
            # Per-graph counters: each graph compiled exactly once, even
            # though the server compiled len(graphs) times in total.
            info = sessions[name].cache_info()
            assert info.compilations == 1, (name, info)
            local = MiningSession(graph).sweep(SWEEP_ALPHAS)
            for ours, theirs in zip(outcomes[name], local):
                ours.assert_matches(theirs)

        stats = remote.stats()
        assert stats["cache"]["compilations"] == len(graphs)
        assert len(stats["graphs"]) == len(graphs)

    def test_concurrent_sweeps_across_graphs_stay_isolated(self, remote, graphs):
        results: dict[str, list] = {}
        errors: list = []
        barrier = threading.Barrier(len(graphs))

        def sweep(name):
            try:
                barrier.wait(timeout=10)
                results[name] = remote.session(name).sweep(SWEEP_ALPHAS)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [
            threading.Thread(target=sweep, args=(name,)) for name in graphs
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        for name, graph in graphs.items():
            local = MiningSession(graph).sweep(SWEEP_ALPHAS)
            for ours, theirs in zip(results[name], local):
                ours.assert_matches(theirs)
            assert remote.session(name).cache_info().compilations == 1

    def test_v1_surface_still_serves_the_default_graph(self, remote, server, graphs):
        # Busy the non-default graphs first, then speak plain v1.
        names = list(graphs)
        remote.session(names[-1]).sweep(SWEEP_ALPHAS)
        v1 = RemoteSession(server.url)
        default_name = names[0]
        outcome = v1.enumerate(EnumerationRequest(algorithm="mule", alpha=0.4))
        outcome.assert_matches(
            MiningSession(graphs[default_name]).enumerate(
                EnumerationRequest(algorithm="mule", alpha=0.4)
            )
        )
        health = v1.health()
        assert health["graph"]["fingerprint"] == graphs[default_name].fingerprint()


class TestResourceEndpoints:
    def test_list_and_get(self, remote, graphs):
        infos = {info.name: info for info in remote.list()}
        assert set(infos) == set(graphs)
        for name, graph in graphs.items():
            assert infos[name].num_vertices == graph.num_vertices
            assert infos[name].fingerprint == graph.fingerprint()
            assert remote.get(name) == infos[name]
            # Fingerprint and 12-char prefix address the same resource.
            assert remote.get(infos[name].fingerprint[:12]) == infos[name]

    def test_upload_enumerate_delete_lifecycle(self, remote):
        graph = UncertainGraph(
            edges=[("a", "b", 0.9), ("b", "c", 0.8), ("a", "c", 0.7), ("c", "d", 0.4)]
        )
        info = remote.add(graph, name="uploaded")
        assert info.fingerprint == graph.fingerprint()
        assert not info.pinned

        outcome = remote.session("uploaded").enumerate(
            EnumerationRequest(algorithm="mule", alpha=0.5)
        )
        outcome.assert_matches(
            MiningSession(graph).enumerate(
                EnumerationRequest(algorithm="mule", alpha=0.5)
            )
        )
        removed = remote.remove("uploaded")
        assert removed.fingerprint == info.fingerprint
        assert "uploaded" not in remote
        with pytest.raises(GraphNotFoundError):
            remote.get("uploaded")

    def test_server_side_dataset_build(self, remote):
        info = remote.add_dataset("ba5000", scale=0.01, seed=11, name="ba-small")
        local = load_dataset("ba5000", scale=0.01, seed=11)
        assert info.fingerprint == local.fingerprint()
        assert info.num_edges == local.num_edges
        remote.session("ba-small").sweep(SWEEP_ALPHAS)
        assert remote.session("ba-small").cache_info().compilations == 1

    def test_unknown_graph_is_404_not_found_error(self, remote):
        with pytest.raises(GraphNotFoundError, match="unknown graph"):
            remote.session("nope").enumerate(
                EnumerationRequest(algorithm="mule", alpha=0.5)
            )
        with pytest.raises(GraphNotFoundError):
            remote.remove("nope")

    def test_body_ref_contradicting_url_rejected(self, remote, graphs):
        from repro.service import codec

        names = list(graphs)
        session = remote.session(names[0])
        payload = codec.ref_request_to_wire(
            EnumerationRequest(algorithm="mule", alpha=0.5), graph=names[1]
        )
        with pytest.raises(StoreError, match="body names graph"):
            session._post(f"/v2/graphs/{names[0]}/enumerate", payload)

    def test_default_graph_delete_rejected(self, remote, graphs):
        default = list(graphs)[0]
        with pytest.raises(StoreError, match="default"):
            remote.remove(default)

    def test_default_graph_delete_rejected_on_a_one_graph_server(self):
        # The store alone lets its last graph go; the server keeps the
        # graph that backs /v1 and answers 400, leaving the store as it was.
        graph = UncertainGraph(edges=[(1, 2, 0.9), (2, 3, 0.8), (1, 3, 0.7)])
        store = GraphStore()
        info = store.add(graph, name="only")
        with MiningServer(store, port=0) as server:
            remote = connect(server.url)
            for ref in ("only", info.fingerprint):
                with pytest.raises(StoreError, match="default graph"):
                    remote.remove(ref)
            assert remote.get("only") == info
            assert remote.health()["graph"] is not None
            outcome = RemoteSession(server.url).enumerate(
                EnumerationRequest(algorithm="mule", alpha=0.5)
            )
        outcome.assert_matches(
            MiningSession(graph).enumerate(EnumerationRequest(algorithm="mule", alpha=0.5))
        )

    def test_per_graph_stats_sections(self, remote, graphs):
        name = list(graphs)[0]
        remote.session(name).sweep(SWEEP_ALPHAS)
        stats = remote.stats()
        fingerprint = graphs[name].fingerprint()
        section = stats["graphs"][fingerprint]
        assert section["name"] == name
        assert section["cache"]["compilations"] == 1
        assert section["cache"]["derivations"] == len(SWEEP_ALPHAS) - 1
        # Scheduler queue depth is part of the stats contract.
        assert "queued" in stats["scheduler"]
