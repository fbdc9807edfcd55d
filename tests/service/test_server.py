"""Server + client tests — endpoints, error mapping, the acceptance sweep.

These run a real :class:`MiningServer` on an ephemeral port and talk to it
over actual sockets.  The headline assertions:

* a ≥5-α remote sweep compiles exactly once **server-side**, asserted via
  ``GET /v1/stats`` (the PR's acceptance criterion);
* ``RemoteSession.sweep`` outcomes are clique/counter-identical to a local
  ``MiningSession.sweep``;
* protocol failures surface as the right exception types client-side
  (``ParameterError`` for bad requests, ``FormatError`` for malformed
  payloads, ``ServiceError`` for transport problems).
"""

from __future__ import annotations

import http.client
import json
import random
import re
import socket
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.api import EnumerationRequest, MiningSession
from repro.errors import FormatError, JobError, ParameterError, ReproError, ServiceError
from repro.generators.erdos_renyi import random_uncertain_graph
from repro.service import MiningServer, RemoteSession, codec
from repro.service import server as server_module
from repro.uncertain.graph import UncertainGraph

from .test_metrics import settle

SWEEP_ALPHAS = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7]


@pytest.fixture(scope="module")
def graph():
    return random_uncertain_graph(14, 0.5, rng=random.Random(21))


@pytest.fixture()
def server(graph):
    with MiningServer(graph, port=0) as srv:
        yield srv


@pytest.fixture()
def remote(server):
    return RemoteSession(server.url)


def post_raw(server, path: str, body: bytes, content_type="application/json"):
    """POST raw bytes, returning (status, payload-dict)."""
    request = urllib.request.Request(
        server.url + path,
        data=body,
        headers={"Content-Type": content_type},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestHealthAndStats:
    def test_health(self, remote, graph):
        payload = remote.health()
        assert payload["status"] == "ok"
        assert payload["schema"] == codec.SCHEMA_VERSION
        assert payload["graph"]["num_vertices"] == graph.num_vertices
        assert payload["graph"]["fingerprint"] == graph.fingerprint()

    def test_stats_shape(self, remote):
        payload = remote.stats()
        assert payload["kind"] == "service-stats"
        assert set(payload["cache"]) == {
            "hits",
            "misses",
            "compilations",
            "derivations",
            "entries",
        }
        assert payload["scheduler"]["max_workers"] >= 1
        assert payload["http"]["received"] >= 0

    def test_port_zero_resolves(self, server):
        assert server.port > 0
        assert str(server.port) in server.url


class TestRemoteSweep:
    def test_remote_sweep_compiles_exactly_once_serverside(self, remote, graph):
        """Acceptance criterion: ≥5 α values over the wire, one server-side
        compilation, asserted via /v1/stats."""
        assert len(SWEEP_ALPHAS) >= 5
        outcomes = remote.sweep(SWEEP_ALPHAS)
        stats = remote.stats()
        assert stats["cache"]["compilations"] == 1, stats
        assert remote.cache_info().compilations == 1

        local = MiningSession(graph).sweep(SWEEP_ALPHAS)
        for ours, theirs in zip(outcomes, local):
            ours.assert_matches(theirs)

    def test_sweep_then_other_algorithms_reuse_the_artifact(self, remote):
        remote.sweep(SWEEP_ALPHAS)
        remote.enumerate(EnumerationRequest(algorithm="noip", alpha=0.4))
        info = remote.cache_info()
        # The DFS-NOIP pass at α=0.4 derives from the α=0.2 base.
        assert info.compilations == 1, info

    def test_empty_sweep_returns_empty(self, remote):
        assert remote.sweep([]) == []


class TestRequestKernel:
    def test_kernel_travels_with_the_request(self, remote):
        a, b = (
            remote.enumerate(EnumerationRequest(algorithm="mule", alpha=0.4, kernel=k))
            for k in ("python", "vector")
        )
        assert (a.request.kernel, b.request.kernel) == ("python", "vector")
        assert [(r.vertices, r.probability) for r in a.records] == [
            (r.vertices, r.probability) for r in b.records
        ]
        assert a.statistics == b.statistics


class TestErrorMapping:
    def test_bad_parameters_reraise_original_type(self, remote):
        payload = codec.request_to_wire(EnumerationRequest(algorithm="mule", alpha=0.5))
        payload["algorithm"] = "quantum"
        with pytest.raises(ParameterError, match="unknown algorithm"):
            remote._post("/v1/enumerate", payload)

    def test_unknown_key_reraise_format_error(self, remote):
        payload = codec.request_to_wire(EnumerationRequest(algorithm="mule", alpha=0.5))
        payload["surprise"] = True
        with pytest.raises(FormatError, match="unknown keys"):
            remote._post("/v1/enumerate", payload)

    def test_invalid_json_body(self, server):
        status, payload = post_raw(server, "/v1/enumerate", b"{nope")
        assert status == 400
        assert payload["kind"] == "error"
        assert payload["type"] == "FormatError"

    def test_empty_body(self, server):
        status, payload = post_raw(server, "/v1/enumerate", b"")
        assert status == 400
        assert payload["type"] == "FormatError"

    def test_upload_with_non_finite_numbers_is_refused(self, server):
        # The server could never send such a graph's cliques back.
        resident = len(server.store)
        body = (
            b'{"schema":2,"kind":"graph-upload","dataset":null,"scale":null,'
            b'"seed":null,"name":"bad","graph":{"schema":2,"kind":"graph",'
            b'"vertices":[NaN,Infinity,1,2],'
            b'"edges":[[1,NaN,0.5],[2,Infinity,0.5]]}}'
        )
        status, payload = post_raw(server, "/v2/graphs", body)
        assert status == 400
        assert payload["type"] == "FormatError"
        assert "NaN is not a JSON number" in payload["message"]
        assert len(server.store) == resident

    def test_unknown_post_route_is_404(self, server):
        body = codec.encode(
            codec.request_to_wire(EnumerationRequest(algorithm="mule", alpha=0.5))
        )
        status, payload = post_raw(server, "/v1/nope", body)
        assert status == 404
        assert payload["kind"] == "error"

    def test_unknown_get_route_is_404(self, server):
        request = urllib.request.Request(server.url + "/nope", method="GET")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 404

    def test_unreachable_server_raises_service_error(self):
        remote = RemoteSession("http://127.0.0.1:9", timeout=2)
        with pytest.raises(ServiceError, match="cannot reach"):
            remote.enumerate(EnumerationRequest(algorithm="mule", alpha=0.5))

    def test_error_closes_keepalive_connection(self, server):
        # Regression: an error response may leave unread body bytes on the
        # socket; under HTTP/1.1 keep-alive a follow-up request on the same
        # connection would read them as a request line.  The server must
        # close after an error (and say so).
        import http.client

        connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            # Declared length far beyond what is sent (and over the cap).
            connection.putrequest("POST", "/v1/enumerate")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", str(2 * 1024 * 1024))
            connection.endheaders()
            connection.send(b"{ partial")
            response = connection.getresponse()
            assert response.status == 400
            assert response.getheader("Connection") == "close"
            response.read()
        finally:
            connection.close()
        # And the server itself is still healthy on a fresh connection.
        assert RemoteSession(server.url).health()["status"] == "ok"

    def test_chunked_transfer_encoding_is_refused_with_411(self, server, graph):
        """Chunked uploads must fail loudly, not decode to an empty body.

        Regression: ``http.server`` never decodes chunked transfer
        encoding, so ``POST /v2/graphs`` trusted the (absent)
        Content-Length, read an empty body, and blamed the payload with a
        confusing ``FormatError``.  The framing problem itself must be
        reported: HTTP 411 with a clear error envelope.
        """
        import http.client

        body = codec.encode(codec.upload_to_wire(codec.GraphUpload(graph=graph)))
        connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            connection.request(
                "POST",
                "/v2/graphs",
                body=iter([body]),
                headers={
                    "Content-Type": "application/json",
                    "Transfer-Encoding": "chunked",
                },
                encode_chunked=True,
            )
            response = connection.getresponse()
            payload = json.loads(response.read())
            assert response.status == 411
            # Unread chunked bytes are on the socket: keep-alive must end.
            assert response.getheader("Connection") == "close"
            assert payload["kind"] == "error"
            assert payload["type"] == "ServiceError"
            assert "chunked" in payload["message"]
            assert "Content-Length" in payload["message"]
        finally:
            connection.close()
        assert RemoteSession(server.url).health()["status"] == "ok"

    def test_missing_content_length_is_411(self, server):
        """A body-carrying POST without Content-Length is refused as 411."""
        import http.client

        connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            connection.putrequest("POST", "/v2/graphs")
            connection.putheader("Content-Type", "application/json")
            connection.endheaders()
            response = connection.getresponse()
            payload = json.loads(response.read())
            assert response.status == 411
            assert payload["type"] == "ServiceError"
            assert "Content-Length" in payload["message"]
        finally:
            connection.close()
        assert RemoteSession(server.url).health()["status"] == "ok"

    def test_explicit_zero_content_length_is_format_error(self, server):
        """Content-Length: 0 is a framing-correct but empty request: 400."""
        status, payload = post_raw(server, "/v2/graphs", b"")
        assert status == 400
        assert payload["type"] == "FormatError"
        assert "body is required" in payload["message"]

    def test_failed_requests_counted(self, server, remote):
        with pytest.raises(ReproError):
            remote._post("/v1/nope", {"schema": 1, "kind": "x"})
        assert remote.stats()["http"]["failed"] >= 1


class TestLifecycle:
    def test_close_is_idempotent(self, graph):
        server = MiningServer(graph, port=0).start()
        server.close()
        server.close()

    def test_close_without_start(self, graph):
        # Never served: close() must not hang on shutdown().
        server = MiningServer(graph, port=0)
        server.close()

    def test_server_on_empty_graph(self):
        with MiningServer(UncertainGraph(), port=0) as server:
            remote = RemoteSession(server.url)
            outcome = remote.enumerate(EnumerationRequest(algorithm="mule", alpha=0.5))
        assert outcome.num_cliques == 0

    def test_requests_after_close_fail_with_service_error(self, graph):
        with MiningServer(graph, port=0) as server:
            url = server.url
        remote = RemoteSession(url, timeout=2)
        with pytest.raises(ServiceError):
            remote.health()


def exchange(server, method: str, path: str, body: bytes | None = None):
    """One request on a fresh connection: (status, raw body bytes)."""
    connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        connection.request(method, path, body=body)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


REQUEST = EnumerationRequest(algorithm="mule", alpha=0.3)


class TestRecordsParameter:
    """``?records=columns`` asks the v2 record endpoints for columns."""

    @pytest.fixture()
    def ref(self, server):
        return server.store.default_fingerprint

    def enumerate_body(self, ref) -> bytes:
        return codec.encode(codec.ref_request_to_wire(REQUEST, graph=ref))

    def sweep_body(self, ref) -> bytes:
        return codec.encode(codec.ref_sweep_to_wire(REQUEST, SWEEP_ALPHAS, graph=ref))

    def test_enumerate_answers_columns_when_asked(self, server, ref, graph):
        status, raw = exchange(
            server, "POST", f"/v2/graphs/{ref}/enumerate?records=columns",
            self.enumerate_body(ref),
        )
        assert status == 200
        payload = codec.decode(raw)
        assert payload["schema"] == codec.SCHEMA_VERSION_V2
        assert payload["records"] == []
        assert payload["columns"]["kind"] == "clique-columns"
        outcome = codec.outcome_from_wire(payload)
        outcome.assert_matches(MiningSession(graph).enumerate(REQUEST))

    @pytest.mark.parametrize("query", ["", "?records=rows"])
    def test_enumerate_answers_rows_otherwise(self, server, ref, query):
        status, raw = exchange(
            server, "POST", f"/v2/graphs/{ref}/enumerate{query}", self.enumerate_body(ref)
        )
        assert status == 200
        payload = codec.decode(raw)
        assert "columns" not in payload
        assert payload["schema"] == codec.SCHEMA_VERSION
        outcome = codec.outcome_from_wire(payload)
        assert raw == codec.encode(codec.outcome_to_wire(outcome))

    def test_sweep_answers_columns_when_asked(self, server, ref, graph):
        status, raw = exchange(
            server, "POST", f"/v2/graphs/{ref}/sweep?records=columns", self.sweep_body(ref)
        )
        assert status == 200
        payload = codec.decode(raw)
        assert all("columns" in outcome for outcome in payload["outcomes"])
        local = MiningSession(graph).sweep(SWEEP_ALPHAS, algorithm="mule")
        for ours, theirs in zip(codec.outcomes_from_wire(payload), local):
            ours.assert_matches(theirs)
        status, raw = exchange(server, "POST", f"/v2/graphs/{ref}/sweep", self.sweep_body(ref))
        assert status == 200
        assert not any("columns" in o for o in codec.decode(raw)["outcomes"])

    @pytest.mark.parametrize(
        "query", ["?records=column", "?records=", "?records", "?format=columns"]
    )
    def test_unknown_value_or_parameter_is_a_format_error(self, server, ref, query):
        for path in (f"/v2/graphs/{ref}/enumerate", f"/v2/graphs/{ref}/sweep"):
            body = self.enumerate_body(ref) if path.endswith("enumerate") else self.sweep_body(ref)
            status, raw = exchange(server, "POST", path + query, body)
            assert status == 400
            assert codec.decode(raw)["type"] == "FormatError"

    @pytest.mark.parametrize("path", ["/v1/enumerate", "/v1/sweep", "/v2/jobs"])
    def test_other_posts_take_no_query(self, server, path):
        body = codec.encode(codec.request_to_wire(REQUEST))
        status, raw = exchange(server, "POST", path + "?records=columns", body)
        assert status == 400
        assert codec.decode(raw)["type"] == "FormatError"


class TestKeepAlive:
    def test_kept_alive_connection_answers_without_a_delayed_ack_stall(self, server):
        """Headers and body leave in two writes; with Nagle's algorithm on,
        every request after the first on one connection waited ~40 ms for
        the client's delayed ACK."""
        body = codec.encode(codec.request_to_wire(REQUEST))
        connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            connection.request("GET", "/v1/health")  # connect outside the clock
            connection.getresponse().read()
            started = time.perf_counter()
            for index in range(20):
                if index == 10:
                    connection.request("POST", "/v1/enumerate", body=body)
                else:
                    connection.request("GET", "/v1/health")
                response = connection.getresponse()
                response.read()
                assert response.status == 200
            elapsed = time.perf_counter() - started
        finally:
            connection.close()
        assert elapsed < 0.5, elapsed


class TestConnectionTimeout:
    """A stalled or idle connection cannot hold a handler thread forever."""

    @pytest.fixture()
    def server(self, graph, monkeypatch):
        monkeypatch.setattr(server_module._Handler, "timeout", 0.5)
        with MiningServer(graph, port=0) as srv:
            yield srv

    def test_connections_time_out_by_default(self):
        assert server_module.CONNECTION_TIMEOUT_SECONDS == 60.0
        assert server_module._Handler.timeout == server_module.CONNECTION_TIMEOUT_SECONDS

    @staticmethod
    def read_until_closed(sock: socket.socket) -> bytes:
        """Everything the server sends before it closes; the socket's own
        timeout fails the test instead of hanging it."""
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
        return data

    def test_stalled_headers_are_closed(self, server):
        with socket.create_connection((server.host, server.port), timeout=3) as sock:
            sock.sendall(b"GET /v1/health HTTP/1.1\r\n")
            started = time.monotonic()
            assert self.read_until_closed(sock) == b""
            assert time.monotonic() - started < 3
        assert RemoteSession(server.url).health()["status"] == "ok"

    def test_idle_kept_alive_connection_is_closed(self, server):
        with socket.create_connection((server.host, server.port), timeout=3) as sock:
            sock.sendall(b"GET /v1/health HTTP/1.1\r\nHost: test\r\n\r\n")
            answer = self.read_until_closed(sock)
        assert answer.startswith(b"HTTP/1.1 200")

    def test_short_body_gets_408(self, server):
        body = codec.encode(codec.job_request_to_wire(REQUEST))
        head = (
            f"POST /v2/jobs HTTP/1.1\r\nHost: test\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        with socket.create_connection((server.host, server.port), timeout=3) as sock:
            sock.sendall(head + body[:-10])
            started = time.monotonic()
            answer = self.read_until_closed(sock)
            assert time.monotonic() - started < 3
        assert answer == b"" or answer.startswith(b"HTTP/1.1 408")
        if answer:
            payload = codec.decode(answer.split(b"\r\n\r\n", 1)[1])
            assert payload["kind"] == "error"
            assert payload["type"] == "ServiceError"
        assert server.scheduler.jobs.list() == []
        assert RemoteSession(server.url).health()["status"] == "ok"

    @pytest.mark.parametrize(
        "error", [TimeoutError("timed out"), JobError("cursor 1 was released")]
    )
    def test_a_stream_error_closes_without_an_error_envelope(
        self, server, monkeypatch, error
    ):
        """An error once a chunked stream has begun closes the connection:
        a timed-out write is a disconnect, and no error response is written
        into the stream for any error.  The page that was not delivered is
        not released."""
        remote = RemoteSession(server.url)
        job = remote.submit(REQUEST, page_size=2)
        deadline = time.monotonic() + 10
        while job.status().state != "done":
            assert time.monotonic() < deadline
            time.sleep(0.01)
        real = server_module._Handler._write_http_chunk
        calls = []

        def write_then_time_out(handler, data):
            calls.append(data)
            if len(calls) == 1:
                raise error
            real(handler, data)

        monkeypatch.setattr(server_module._Handler, "_write_http_chunk", write_then_time_out)
        with socket.create_connection((server.host, server.port), timeout=3) as sock:
            sock.sendall(
                f"GET /v2/jobs/{job.id}/results?cursor=0 HTTP/1.1\r\n"
                f"Host: test\r\n\r\n".encode("ascii")
            )
            answer = self.read_until_closed(sock)
        assert answer.startswith(b"HTTP/1.1 200")
        assert answer.count(b"HTTP/1.1") == 1
        assert b'"kind":"error"' not in answer
        monkeypatch.setattr(server_module._Handler, "_write_http_chunk", real)
        # Chunk 0 never left, so it was not released: a reconnect at
        # cursor 0 still reads the whole result.
        resumed = remote.job(job.id).wait()
        resumed.assert_matches(MiningSession(server.graph).enumerate(REQUEST))


ROUTES = server_module._ROUTES
DOCS = Path(__file__).resolve().parents[2] / "docs" / "service.md"


def answer(server, method: str, path: str, body: bytes | None = None):
    """One request on a fresh connection: (status, Allow header, payload)."""
    connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        connection.request(method, path, body=body)
        response = connection.getresponse()
        return response.status, response.getheader("Allow"), codec.decode(response.read())
    finally:
        connection.close()


class TestRouteTable:
    """One matcher over one table: every route answers an unknown query
    parameter, another method and a trailing slash by the same rule."""

    BODY = codec.encode(codec.request_to_wire(REQUEST))

    @pytest.fixture()
    def job_id(self, server):
        job = RemoteSession(server.url).submit(REQUEST)
        job.wait()
        return job.id

    @pytest.mark.parametrize("route", ROUTES, ids=lambda r: f"{r.method} {r.template}")
    def test_every_route_follows_the_same_rules(self, server, job_id, route):
        ref = server.store.default_fingerprint
        path = route.template.replace("{ref}", ref).replace("{id}", job_id)
        body = self.BODY if route.method == "POST" else None

        status, _, payload = answer(server, route.method, path + "?bogus=1", body)
        assert (status, payload["type"]) == (400, "FormatError")
        assert "bogus" in payload["message"]

        served = {r.method for r in ROUTES if r.template == route.template}
        for method in {"GET", "POST", "DELETE"} - served:
            status, allow, payload = answer(server, method, path, self.BODY)
            assert (status, payload["type"]) == (405, "ServiceError")
            assert set(allow.split(", ")) == served

        status, _, payload = answer(server, route.method, path + "/", body)
        assert (status, payload["kind"]) == (404, "error")
        # Nothing above reached a handler: the graph and the job are intact.
        assert server.store.get(ref).default
        assert server.scheduler.jobs.get(job_id).state == "done"

    def test_delete_with_an_unknown_parameter_leaves_the_resource(self, server):
        # 85 records at alpha=0.2: a page_size=1 job parks its producer
        # when its 64-page buffer fills, still running and cancellable.
        big = random_uncertain_graph(20, 0.5, rng=random.Random(7))
        server.store.add(big, name="big")
        remote = RemoteSession(server.url, graph="big")
        job = remote.submit(EnumerationRequest(algorithm="mule", alpha=0.2), page_size=1)
        deadline = time.monotonic() + 10
        while job.status().records < 64:
            assert time.monotonic() < deadline
            time.sleep(0.01)

        for path in (f"/v2/jobs/{job.id}?bogus=1", "/v2/graphs/big?bogus=1"):
            status, _, payload = answer(server, "DELETE", path)
            assert (status, payload["type"]) == (400, "FormatError")
        assert job.status().state == "running"
        assert server.store.get("big").name == "big"

    def test_draining_refuses_post_routes_only(self, server):
        server.drain()
        status, _, payload = answer(server, "POST", "/nope", self.BODY)
        assert (status, payload["kind"]) == (404, "error")
        status, _, payload = answer(server, "POST", "/v1/enumerate", self.BODY)
        assert (status, payload["type"]) == (503, "ServiceError")
        assert answer(server, "GET", "/v1/health")[0] == 200

    def test_405s_count_under_their_template_and_404s_under_unknown(self, server):
        answer(server, "DELETE", "/v1/health")
        answer(server, "DELETE", "/v2/graphs/whatever/enumerate")
        answer(server, "DELETE", "/v1/health/")
        # A target urlsplit cannot parse is one more path no route serves.
        assert answer(server, "DELETE", "//[")[0] == 404
        settle(server, 4)
        counters = server.metrics_payload()["counters"]
        for endpoint, status, count in (
            ("/v1/health", 405, 1),
            ("/v2/graphs/{ref}/enumerate", 405, 1),
            ("(unknown)", 404, 2),
        ):
            labels = f"endpoint={endpoint},method=DELETE,status={status}"
            assert counters[f"http_requests_total{{{labels}}}"] == count

    def test_docs_endpoint_tables_match_the_route_table(self):
        rows = re.findall(
            r"^\| `([A-Z]+) ([^`\[ ]+)((?:\[[?&][^\]]*\])*)` \|", DOCS.read_text(), re.M
        )
        documented = {
            (method, template, frozenset(re.findall(r"\[[?&](\w+)=", query)))
            for method, template, query in rows
        }
        assert documented == {
            (route.method, route.template, frozenset(route.query)) for route in ROUTES
        }
        assert len(rows) == len(ROUTES)


class TestUnreadBody:
    """An error answered before the request body is read still reaches
    the client: the server drains the declared body before it closes,
    where closing on unread bytes would reset the connection."""

    @pytest.mark.parametrize("path, status", [("/v2/graphz", 404), ("/v1/health", 405)])
    def test_an_early_error_survives_a_large_body(self, server, path, status):
        body = b"x" * (1 << 20)
        for _ in range(5):
            connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
            try:
                connection.connect()
                # A small send buffer keeps the client sending until the
                # server reads, as on a real network.
                connection.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 65536)
                connection.request("POST", path, body=body)
                response = connection.getresponse()
                assert response.status == status
                assert codec.decode(response.read())["kind"] == "error"
            finally:
                connection.close()
