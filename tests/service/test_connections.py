"""Persistent connections between the in-repo clients and the server.

Every client in a process takes its connections from one pool of
kept-alive HTTP/1.1 connections (RFC 9112 §9), and the server keeps a
connection open after every response but an error.  These tests count the
connections each server accepts, and pin the reuse rules:

* sequential calls, a waited job's stream and a second fleet run reuse
  pooled connections;
* a connection returns to the pool only after its whole response was read,
  so an error response or an abandoned result stream closes it;
* a pooled connection the server closed is replaced before use, and no
  request is ever sent twice;
* per-call timeouts apply to reused sockets;
* a forked child opens its own connections and leaves the parent's open;
* a closed server answers nothing on a kept-alive connection, and the pool
  keeps no socket of it.
"""

from __future__ import annotations

import http.client
import os
import random
import socket
import threading
import time
import warnings

import pytest

from repro.api import EnumerationRequest, MiningSession
from repro.api.store import GraphStore
from repro.distributed import DistributedSession
from repro.errors import GraphNotFoundError, ReproError, ServiceError
from repro.generators.erdos_renyi import random_uncertain_graph
from repro.service import MiningServer, RemoteSession, RemoteStore, codec
from repro.service import client as client_module
from repro.service import server as server_module

# 85 records at alpha=0.2.
REQUEST = EnumerationRequest(algorithm="mule", alpha=0.2)


@pytest.fixture(scope="module")
def graph():
    return random_uncertain_graph(20, 0.5, rng=random.Random(7))


@pytest.fixture()
def server(graph):
    with MiningServer(graph, port=0) as srv:
        yield srv


@pytest.fixture()
def accepted(monkeypatch):
    """The server of every connection accepted from now on, in order."""
    servers = []
    real = server_module._ServiceHTTPServer.process_request

    def spy(httpd, request, client_address):
        servers.append(httpd)
        return real(httpd, request, client_address)

    monkeypatch.setattr(server_module._ServiceHTTPServer, "process_request", spy)
    return servers


def connections_to(server: MiningServer, accepted: list) -> int:
    return accepted.count(server._httpd)


class TestReuse:
    def test_twenty_sequential_enumerates_share_one_connection(
        self, server, accepted
    ):
        remote = RemoteSession(server.url)
        expected = MiningSession(server.graph).enumerate(REQUEST)
        for _ in range(20):
            remote.enumerate(REQUEST).assert_matches(expected)
        assert connections_to(server, accepted) == 1

    def test_a_waited_job_returns_its_connection(self, server, accepted):
        remote = RemoteSession(server.url)
        job = remote.submit(REQUEST, page_size=7)
        job.wait().assert_matches(MiningSession(server.graph).enumerate(REQUEST))
        job.status()
        remote.enumerate(REQUEST)
        assert connections_to(server, accepted) == 1

    def test_a_second_fleet_run_opens_no_connection(self, graph, accepted):
        servers = [MiningServer(GraphStore(), port=0).start() for _ in range(2)]
        try:
            with DistributedSession(graph, [s.url for s in servers]) as dist:
                first = dist.enumerate(REQUEST)
                opened = len(accepted)
                second = dist.enumerate(REQUEST)
            assert len(accepted) == opened
            assert all(connections_to(s, accepted) >= 1 for s in servers)
            second.assert_matches(first)
            first.assert_matches(MiningSession(graph).enumerate(REQUEST))
        finally:
            for s in servers:
                s.close()


class TestWhatIsNotReused:
    def test_an_error_response_closes_its_connection(self, server, accepted):
        remote = RemoteSession(server.url)
        remote.health()
        with pytest.raises(GraphNotFoundError):
            RemoteStore(server.url).get("no-such-graph")
        assert connections_to(server, accepted) == 1
        remote.health()
        assert connections_to(server, accepted) == 2

    def test_breaking_out_of_a_stream_closes_it_without_waiting(
        self, server, accepted, monkeypatch
    ):
        real = server_module._Handler._write_http_chunk

        def slow_write(handler, data):
            time.sleep(0.1)  # 86 chunks: reading them all would take 8.6 s
            real(handler, data)

        monkeypatch.setattr(server_module._Handler, "_write_http_chunk", slow_write)
        remote = RemoteSession(server.url)
        job = remote.submit(REQUEST, page_size=1)
        started = time.monotonic()
        results = job.iter_results()
        next(results)
        results.close()
        assert time.monotonic() - started < 2.0
        remote.health()
        assert connections_to(server, accepted) == 2

    def test_a_connection_the_server_closed_is_replaced(
        self, graph, accepted, monkeypatch
    ):
        monkeypatch.setattr(server_module._Handler, "timeout", 0.2)
        with MiningServer(graph, port=0) as server:
            remote = RemoteSession(server.url)
            remote.health()
            time.sleep(0.6)  # the server closes the idle connection
            job = remote.submit(REQUEST)
            assert connections_to(server, accepted) == 2
            assert [j.id for j in server.scheduler.jobs.list()] == [job.id]

    def test_a_request_is_never_sent_twice(self, server, monkeypatch):
        """A POST that may have reached the server is not resent.

        ``POST /v2/jobs`` is not idempotent (RFC 9110 §9.2.2): sent twice,
        it makes two jobs.  The server here creates the job and then drops
        the pooled connection without answering.
        """
        remote = RemoteSession(server.url)
        remote.health()  # the submit goes out on this pooled connection
        real = server_module._Handler._respond
        submits = []

        def drop_submit_answers(handler, status, payload, **headers):
            if handler.command == "POST" and handler.path == "/v2/jobs":
                submits.append(payload)
                handler.close_connection = True
                return
            real(handler, status, payload, **headers)

        monkeypatch.setattr(server_module._Handler, "_respond", drop_submit_answers)
        with pytest.raises(ServiceError, match="transport failure"):
            remote.submit(REQUEST)
        assert len(submits) == 1
        assert len(server.scheduler.jobs.list()) == 1

    def test_per_call_timeouts_apply_to_a_reused_connection(
        self, server, accepted, monkeypatch
    ):
        remote = RemoteSession(server.url)
        remote.health()
        real = server.stats_payload

        def slow_stats():
            time.sleep(1.0)
            return real()

        monkeypatch.setattr(server, "stats_payload", slow_stats)
        started = time.monotonic()
        with pytest.raises(ServiceError, match="timed out"):
            remote.stats(timeout=0.2)
        assert time.monotonic() - started < 0.9
        assert connections_to(server, accepted) == 1


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_opens_its_own_connection(server, accepted):
    """The child closes its copy of the pooled socket, never shutting it
    down (that would end the parent's connection), and connects anew."""
    remote = RemoteSession(server.url)
    remote.health()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # threads are running
        pid = os.fork()
    if pid == 0:  # the child: one call, then out without pytest's teardown
        code = 1
        try:
            code = 0 if remote.health()["status"] == "ok" else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while (waited := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(waited[1]) == 0
    assert connections_to(server, accepted) == 2
    remote.health()  # the parent's pooled connection is still open
    assert connections_to(server, accepted) == 2


class TestClosedServer:
    def test_a_closed_server_answers_nothing_on_a_kept_alive_connection(
        self, graph
    ):
        server = MiningServer(graph, port=0).start()
        body = codec.encode(codec.request_to_wire(REQUEST))
        requests = [
            ("GET", "/v1/health", None),
            ("GET", "/v1/stats", None),
            ("POST", "/v1/enumerate", body),
        ]
        connections = []
        for _ in requests:
            connection = http.client.HTTPConnection(server.host, server.port, timeout=5)
            connection.request("GET", "/v1/health")
            response = connection.getresponse()
            response.read()
            assert response.status == 200 and not response.will_close
            connections.append(connection)
        server.close()
        for connection, (method, path, payload) in zip(connections, requests):
            with pytest.raises((OSError, http.client.HTTPException)):
                connection.request(method, path, body=payload)
                connection.getresponse()
            connection.close()

    def test_the_pool_keeps_no_socket_of_a_closed_server(self, graph):
        closed = []
        for _ in range(5):
            with MiningServer(graph, port=0) as server:
                RemoteSession(server.url).health()
                closed.append(("http", server.host, server.port))
        with MiningServer(graph, port=0) as server:
            RemoteSession(server.url).health()
            assert ("http", server.host, server.port) in client_module._POOL._idle
            assert not set(closed) & set(client_module._POOL._idle)


class TestBaseUrls:
    def test_a_base_url_path_prefixes_every_request(self, server):
        with pytest.raises(ReproError, match="unknown endpoint /api/v1/health"):
            RemoteSession(server.url + "/api/").health()

    def test_an_https_base_url_speaks_tls(self):
        received = []
        with socket.create_server(("127.0.0.1", 0)) as listener:
            listener.settimeout(5)

            def accept_one():
                connection, _ = listener.accept()
                with connection:
                    connection.settimeout(5)
                    received.append(connection.recv(1))

            thread = threading.Thread(target=accept_one, daemon=True)
            thread.start()
            port = listener.getsockname()[1]
            with pytest.raises(ServiceError, match="cannot reach"):
                RemoteSession(f"https://127.0.0.1:{port}", timeout=5).health()
            thread.join(5)
            assert not thread.is_alive()
        assert received == [b"\x16"]  # the first byte of a TLS handshake record

    @pytest.mark.parametrize(
        "url", ["ftp://127.0.0.1:21", "localhost:8765", "http://127.0.0.1:99999"]
    )
    def test_a_base_url_the_clients_cannot_speak_to_is_refused(self, url):
        with pytest.raises(ServiceError, match="invalid base URL"):
            RemoteSession(url)
