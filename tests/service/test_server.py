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

import json
import random
import urllib.error
import urllib.request

import pytest

from repro.api import EnumerationRequest, MiningSession
from repro.errors import FormatError, ParameterError, ReproError, ServiceError
from repro.generators.erdos_renyi import random_uncertain_graph
from repro.service import MiningServer, RemoteSession, codec
from repro.uncertain.graph import UncertainGraph

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
