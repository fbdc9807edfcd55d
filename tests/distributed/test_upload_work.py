"""What shipping a graph to a fleet costs, counted.

A fleet run packs its graph once, each worker hashes an upload once
(the first job on the graph reuses that hash), the uploads to the workers
run at the same time, and a worker that gets no shard gets no graph.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.api import EnumerationRequest, GraphStore, MiningSession
from repro.distributed import DistributedSession
from repro.errors import StoreError
from repro.service import codec
from repro.service.client import RemoteSession
from repro.uncertain.graph import UncertainGraph

REQUEST = EnumerationRequest(algorithm="mule", alpha=0.3)


def urls_of(servers):
    return [server.url for server in servers]


def counting(monkeypatch, owner, name):
    """Wrap ``owner.name`` so every call is appended to the returned list."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_one_encode_per_run(graph, fleet, monkeypatch):
    serial = MiningSession(graph).enumerate(REQUEST)
    encodes = counting(monkeypatch, codec, "graph_columns_to_wire")
    rows = counting(monkeypatch, codec, "graph_to_wire")
    with DistributedSession(graph, urls_of(fleet(2))) as dist:
        dist.enumerate(REQUEST).assert_matches(serial)
    assert len(encodes) == 1
    assert rows == []


def test_one_fingerprint_per_upload_and_first_job(graph, fleet, monkeypatch):
    servers = fleet(2)
    hashes = counting(monkeypatch, UncertainGraph, "fingerprint")
    with DistributedSession(graph, urls_of(servers)) as dist:
        dist.enumerate(REQUEST)
    # The coordinator's own session never hashes; each worker hashes the
    # upload once and its jobs key their compilations by that hash.
    assert len(hashes) == len(servers)
    assert all(len(server.store) == 1 for server in servers)


def test_uploads_to_both_workers_are_in_flight_together(graph, fleet, monkeypatch):
    serial = MiningSession(graph).enumerate(REQUEST)
    servers = fleet(2)
    barrier = threading.Barrier(len(servers))
    original_add = GraphStore.add

    def add_once_both_arrived(store, *args, **kwargs):
        barrier.wait(timeout=5)  # sequential uploads time out here
        return original_add(store, *args, **kwargs)

    monkeypatch.setattr(GraphStore, "add", add_once_both_arrived)
    with DistributedSession(graph, urls_of(servers)) as dist:
        merged = dist.enumerate(REQUEST)
    merged.assert_matches(serial)
    assert not barrier.broken


def test_concurrent_uploads_record_every_worker_once(graph, fleet, monkeypatch):
    """More upload threads than cores, switching often: no lost update.

    A fingerprint the coordinator failed to record would send the graph
    again on the submit path or on the second run.
    """
    serial = MiningSession(graph).enumerate(REQUEST)
    servers = fleet(4)
    adds = counting(monkeypatch, GraphStore, "add")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with DistributedSession(graph, urls_of(servers)) as dist:
            for _ in range(2):
                dist.enumerate(REQUEST).assert_matches(serial)
    finally:
        sys.setswitchinterval(interval)
    assert len(adds) == len(servers)
    assert all(len(server.store) == 1 for server in servers)


def test_worker_given_no_shard_receives_no_graph(graph, fleet):
    serial = MiningSession(graph).enumerate(REQUEST)
    servers = fleet(2)
    with DistributedSession(graph, urls_of(servers), num_shards=1) as dist:
        dist.enumerate(REQUEST).assert_matches(serial)
    assert [len(server.store) for server in servers] == [1, 0]


def test_upload_refused_by_a_worker_propagates_and_submits_nothing(
    graph, fleet, monkeypatch
):
    servers = fleet(2)
    submits = counting(monkeypatch, RemoteSession, "submit")

    def refuse(store, *args, **kwargs):
        raise StoreError("graph budget exhausted")

    monkeypatch.setattr(GraphStore, "add", refuse)
    with DistributedSession(graph, urls_of(servers)) as dist:
        with pytest.raises(StoreError, match="graph budget exhausted"):
            dist.enumerate(REQUEST)
    assert submits == []
