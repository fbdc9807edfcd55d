"""The HTTP serving surface — ``repro-mule serve`` and :class:`MiningServer`.

A deliberately dependency-free server (stdlib ``http.server`` only) that
exposes one graph-agnostic
:class:`~repro.service.scheduler.EnumerationScheduler` over a
:class:`~repro.api.store.GraphStore` of named graphs.

Each endpoint is one entry of the route table :data:`_ROUTES`: its method,
its path template, the query parameters it reads and its handler.  One
matcher over that table drives dispatch, the metrics ``endpoint`` label and
the query check.  ``docs/service.md`` documents the same routes (a test
keeps the two in step), with the wire schema and curl-able examples.

Paths match exactly: ``{ref}`` (a registered name, or a fingerprint or an
unambiguous prefix of it of 8+ characters) and ``{id}`` match one non-empty
segment, and a trailing ``/`` matches nothing.  A path no route serves is
``404``; a served path under another method is ``405`` with an ``Allow``
header; a query parameter the route does not read is ``400``.  Library
errors map to ``400`` with an ``error`` envelope (the client re-raises the
original exception type); unknown graph references and unknown job ids to
``404``; a draining server answers every POST route with ``503``; a body
without a usable Content-Length gets ``411``, and one that stalls past
:data:`CONNECTION_TIMEOUT_SECONDS` gets ``408``; anything unexpected maps
to ``500``.  An error response closes the connection, after draining a
declared request body the handler never read, so the client gets to read
the status.

Records answer as rows (one ``clique-record`` envelope each, the bytes v1
and v2 have always answered) unless the request asks for
``?records=columns``, which the in-repo clients always do on v2.

The server is concurrency-correct by construction: each connection gets a
handler thread (``ThreadingHTTPServer``) which *blocks* on the scheduler's
bounded pool, so enumeration concurrency — and therefore memory — is
bounded by ``max_workers`` no matter how many clients connect.  Responses
go out with ``TCP_NODELAY``, so a client reusing its connection does not
wait on a delayed ACK, and a connection idle or stalled for
:data:`CONNECTION_TIMEOUT_SECONDS` is closed.  Every response but an
error keeps its connection, a result stream included once its terminating
chunk is out; a stream cut short closes it.  Closing the server ends
every connection it accepted: an idle one at once, one with a response
under way after that response.
"""

from __future__ import annotations

import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, NamedTuple
from urllib.parse import parse_qs, urlsplit

from ..api.cache import CacheInfo
from ..api.store import GraphStore
from ..errors import (
    FormatError,
    GraphNotFoundError,
    JobNotFoundError,
    ReproError,
    ServiceError,
    StoreError,
)
from ..obs import render_prometheus, tracer as _obs_tracer, write_chrome_trace
from ..uncertain.graph import UncertainGraph
from . import codec
from .jobs import Job, JobState
from .scheduler import EnumerationScheduler

__all__ = ["MiningServer", "DEFAULT_PORT"]

#: Default TCP port of ``repro-mule serve``.
DEFAULT_PORT = 8765

#: Largest enumeration/sweep request body accepted, in bytes.  Those
#: requests are tiny (an envelope of scalars); the cap exists so a
#: misbehaving client cannot make a handler thread buffer arbitrary data.
#: It also bounds how much of an unread body an error response drains.
MAX_REQUEST_BYTES = 1 << 20

#: Largest ``POST /v2/graphs`` body accepted — graph uploads legitimately
#: carry whole edge lists, so their cap is wider.
MAX_UPLOAD_BYTES = 64 << 20

#: Seconds a connection may sit in one socket read or write: an idle
#: keep-alive connection, a request line, headers or a body that stalls
#: this long closes (a stalled body is answered ``408`` first), so no
#: client can hold a handler thread forever.
CONNECTION_TIMEOUT_SECONDS = 60.0


class _ServiceHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying a backreference to the MiningServer.

    It tracks every connection it accepted, so that :meth:`server_close`
    can end them: stopping the listener alone would leave the handler
    threads of kept-alive connections serving after the server closed.
    """

    daemon_threads = True
    service: "MiningServer"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._connections_lock = threading.Lock()
        #: Each open accepted connection, and whether a response is under way.
        self._connections: dict[socket.socket, bool] = {}
        self._closed = False

    def process_request(self, request: Any, client_address: Any) -> None:
        with self._connections_lock:
            self._connections[request] = False
        super().process_request(request, client_address)

    def shutdown_request(self, request: Any) -> None:
        # Under the lock, so server_close never shuts down a descriptor
        # that was closed here and reused.
        with self._connections_lock:
            self._connections.pop(request, None)
            super().shutdown_request(request)

    def begin_response(self, connection: socket.socket) -> bool:
        """Mark a response under way on ``connection``; False once closed."""
        with self._connections_lock:
            if self._closed:
                return False
            self._connections[connection] = True
            return True

    def end_response(self, connection: socket.socket) -> None:
        with self._connections_lock:
            self._connections[connection] = False

    def server_close(self) -> None:
        """Stop listening and end every accepted connection.

        An idle connection ends at once (both directions shut down, so its
        client sees the close and nothing more can be answered on it); one
        with a response under way stops reading, so it ends after that
        response.  A request that arrives later is never answered.
        """
        super().server_close()
        with self._connections_lock:
            self._closed = True
            for connection, busy in self._connections.items():
                try:
                    connection.shutdown(socket.SHUT_RD if busy else socket.SHUT_RDWR)
                except OSError:
                    pass


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-mule"
    # Headers and body leave in separate writes; with Nagle's algorithm on,
    # a client reusing its connection would wait for its own delayed ACK.
    disable_nagle_algorithm = True
    timeout = CONNECTION_TIMEOUT_SECONDS

    #: Status of the last response written on this connection; 0 means no
    #: response made it out (the socket died mid-handler).
    _response_status = 0
    #: Whether the current request's body is still on the socket, unread.
    _body_unread = False

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def _handle(self) -> None:
        """Answer one request through the route table.

        A path no route matches is a 404, a matched path under a method it
        does not serve a 405, and a POST route on a draining server a 503;
        otherwise the route's query is checked and its handler runs, under
        the uniform error→status mapping.  Every request is counted once
        it is answered, by endpoint (its route template, or ``(unknown)``),
        method and status, and timed; when the server was given a trace
        directory it also leaves a Chrome trace file behind.  A request
        that arrives after the server closed is not answered.
        """
        if not self.server.begin_response(self.connection):
            self.close_connection = True
            return
        service = self.server.service
        try:
            split = urlsplit(self.path)
        except ValueError:  # an unbalanced "[" in a netloc: no route matches
            split = urlsplit("")
        endpoint, routes, segments = _match(split.path)
        started = perf_counter()
        self._response_status = 0
        self._body_unread = True
        root = None
        try:
            with _obs_tracer().span(
                "http.request", endpoint=endpoint, method=self.command
            ) as root:
                route = routes.get(self.command)
                try:
                    if not routes:
                        self._respond_error(
                            404, ReproError(f"unknown endpoint {self.path}")
                        )
                    elif route is None:
                        allow = ", ".join(routes)
                        message = f"{endpoint} serves {allow}, not {self.command}"
                        self._respond_error(405, ServiceError(message), Allow=allow)
                    elif self.command == "POST" and service.draining:
                        self._respond_error(
                            503,
                            ServiceError("server is draining; not accepting new work"),
                        )
                    else:
                        query = _parse_query(split.query, route.query)
                        route.handler(self, service, query, *segments)
                except BaseException as exc:  # noqa: BLE001 — a handler must not die
                    if self._response_status:
                        # The response has begun (a chunked stream): an
                        # error envelope now would corrupt it, so the
                        # connection just closes.
                        self.close_connection = True
                        self.log_error("response aborted: %r", exc)
                    elif isinstance(exc, _LengthRequired):
                        self._respond_error(411, ServiceError(str(exc)))
                    elif isinstance(exc, _RequestTimeout):
                        self._respond_error(408, ServiceError(str(exc)))
                    elif isinstance(exc, (GraphNotFoundError, JobNotFoundError)):
                        self._respond_error(404, exc)
                    elif isinstance(exc, ReproError):
                        self._respond_error(400, exc)
                    else:
                        self._respond_error(500, exc)
        finally:
            self.server.end_response(self.connection)
            elapsed = perf_counter() - started
            status = self._response_status or 500
            service._observe_request(endpoint, self.command, status, elapsed, root)
            if not service.quiet:
                # The access line shares its clock with the latency
                # histogram: one measurement, two sinks.
                self.log_message(
                    '"%s" %d %.4fs', self.requestline, status, elapsed
                )

    do_GET = do_POST = do_DELETE = _handle

    # ------------------------------------------------------------------ #
    # Handlers: one per route, each called with the service, the route's
    # parsed query and the path's {ref}/{id} segment, if any
    # ------------------------------------------------------------------ #
    def _enumerate(self, service: MiningServer, query: dict) -> None:
        request = codec.request_from_wire(codec.decode(self._read_body()))
        self._respond(200, codec.outcome_to_wire(service.scheduler.run(request)))

    def _sweep(self, service: MiningServer, query: dict) -> None:
        base, alphas = codec.sweep_from_wire(codec.decode(self._read_body()))
        requests = [base.with_alpha(alpha) for alpha in alphas]
        self._respond(200, codec.outcomes_to_wire(service.scheduler.batch(requests)))

    def _health(self, service: MiningServer, query: dict) -> None:
        self._respond(200, service.health_payload())

    def _stats(self, service: MiningServer, query: dict) -> None:
        self._respond(200, service.stats_payload())

    def _metrics(self, service: MiningServer, query: dict) -> None:
        if query["format"] == "prometheus":
            self._respond_text(200, render_prometheus(service.scheduler.metrics))
        else:
            self._respond(200, service.metrics_payload())

    def _create_graph(self, service: MiningServer, query: dict) -> None:
        payload = codec.decode(self._read_body(limit=MAX_UPLOAD_BYTES))
        info = service.create_graph(codec.upload_from_wire(payload))
        self._respond(200, codec.graph_info_to_wire(info))

    def _list_graphs(self, service: MiningServer, query: dict) -> None:
        self._respond(200, codec.graph_list_to_wire(service.store.list()))

    def _get_graph(self, service: MiningServer, query: dict, ref: str) -> None:
        self._respond(200, codec.graph_info_to_wire(service.store.get(ref)))

    def _delete_graph(self, service: MiningServer, query: dict, ref: str) -> None:
        store = service.store
        # The default graph backs /v1, so the server never deletes it, not
        # even as the last graph (which the store alone would allow).
        if store.resolve(ref) == store.default_fingerprint:
            raise StoreError("cannot remove the default graph: it serves /v1")
        self._respond(200, codec.graph_info_to_wire(store.remove(ref)))

    def _enumerate_ref(self, service: MiningServer, query: dict, ref: str) -> None:
        payload = codec.decode(self._read_body())
        body_ref, request = codec.ref_request_from_wire(payload)
        _check_body_ref(service.store, ref, body_ref)
        outcome = service.scheduler.run(request, ref=ref)
        columns = query["records"] == "columns"
        self._respond(200, codec.outcome_to_wire(outcome, columns=columns))

    def _sweep_ref(self, service: MiningServer, query: dict, ref: str) -> None:
        payload = codec.decode(self._read_body())
        body_ref, base, alphas = codec.ref_sweep_from_wire(payload)
        _check_body_ref(service.store, ref, body_ref)
        requests = [base.with_alpha(alpha) for alpha in alphas]
        outcomes = service.scheduler.batch(requests, ref=ref)
        columns = query["records"] == "columns"
        self._respond(200, codec.outcomes_to_wire(outcomes, columns=columns))

    def _submit_job(self, service: MiningServer, query: dict) -> None:
        payload = codec.decode(self._read_body())
        ref, request, page_size = codec.job_request_from_wire(payload)
        job = service.scheduler.submit_job(request, ref=ref, page_size=page_size)
        self._respond(200, codec.job_status_to_wire(_job_status(job)))

    def _list_jobs(self, service: MiningServer, query: dict) -> None:
        statuses = [_job_status(job) for job in service.scheduler.jobs.list()]
        self._respond(200, codec.job_list_to_wire(statuses))

    def _get_job(self, service: MiningServer, query: dict, job_id: str) -> None:
        job = service.scheduler.jobs.get(job_id)
        self._respond(200, codec.job_status_to_wire(_job_status(job)))

    def _stream_job(self, service: MiningServer, query: dict, job_id: str) -> None:
        job = service.scheduler.jobs.get(job_id)
        try:
            cursor = int(query.get("cursor", "0"))
        except ValueError as exc:
            raise FormatError(
                f"cursor must be an integer, got {query['cursor']!r}"
            ) from exc
        columns = query["records"] == "columns"
        # Eager cursor validation happens here, *before* any response
        # bytes — a bad cursor is still a clean 400.
        self._stream_ndjson(job.stream_chunks(cursor), columns)

    def _cancel_job(self, service: MiningServer, query: dict, job_id: str) -> None:
        job = service.scheduler.jobs.get(job_id)
        job.cancel()
        self._respond(200, codec.job_status_to_wire(_job_status(job)))

    # ------------------------------------------------------------------ #
    # I/O helpers
    # ------------------------------------------------------------------ #
    def _read_body(self, *, limit: int = MAX_REQUEST_BYTES) -> bytes:
        encoding = self.headers.get("Transfer-Encoding", "")
        if "chunked" in encoding.lower():
            # stdlib http.server does not decode chunked bodies: reading
            # per Content-Length (absent for chunked requests) would hand
            # the codec an empty body and blame the *payload*.  Refuse
            # the transfer encoding itself instead.
            raise _LengthRequired(
                "chunked transfer encoding is not supported; send the "
                "request body with a Content-Length header"
            )
        raw_length = self.headers.get("Content-Length")
        if raw_length is None:
            raise _LengthRequired(
                f"{self.command} {self.path} requires a request body with "
                f"a Content-Length header"
            )
        try:
            length = int(raw_length)
        except ValueError as exc:
            raise FormatError("invalid Content-Length header") from exc
        if length <= 0:
            raise FormatError("request body is required")
        if length > limit:
            raise FormatError(
                f"request body of {length} bytes exceeds the {limit}-byte limit"
            )
        self._body_unread = False
        try:
            return self.rfile.read(length)
        except TimeoutError as exc:
            raise _RequestTimeout(
                f"request body stalled for {self.timeout:g} s before its "
                f"{length} bytes arrived"
            ) from exc

    def _drain_request_body(self) -> None:
        """Best-effort discard of a declared body the handler never read.

        Closing a connection with unread bytes in its receive buffer makes
        the kernel reset it, which can discard the response before the
        client reads it.  At most the declared Content-Length is read (a
        chunked body: whatever arrives), never more than
        :data:`MAX_REQUEST_BYTES`, under a short socket timeout, so a
        client streaming an unbounded body cannot pin the handler thread.
        A request that declared no body is left alone.
        """
        if "chunked" in self.headers.get("Transfer-Encoding", "").lower():
            limit = MAX_REQUEST_BYTES
        else:
            try:
                declared = int(self.headers.get("Content-Length", 0))
            except ValueError:
                return
            limit = min(declared, MAX_REQUEST_BYTES)
        try:
            self.connection.settimeout(0.2)
            while limit > 0:
                data = self.rfile.read1(min(65536, limit))
                if not data:
                    break
                limit -= len(data)
        except OSError:
            pass

    def _respond(self, status: int, payload: dict, **headers: str) -> None:
        self._send_body(status, "application/json", codec.encode(payload), **headers)

    def _respond_text(self, status: int, text: str) -> None:
        """Plain-text response (the Prometheus exposition format)."""
        self._send_body(
            status, "text/plain; version=0.0.4; charset=utf-8", text.encode("utf-8")
        )

    def _send_body(
        self, status: int, content_type: str, body: bytes, **headers: str
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers.items():
            self.send_header(name, value)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _stream_ndjson(self, chunks, columns: bool) -> None:
        """Write a job's result chunks as a chunked NDJSON response.

        One wire envelope per HTTP chunk, flushed immediately, so the
        client observes records as the producer emits them; ``columns``
        picks the records' form.  A stream that ends with its terminating
        chunk keeps the connection for the client's next request.  A
        consumer that disconnects mid-write (any socket error, a timed-out
        write included) never acknowledged the chunk it was reading — the
        connection closes and the generator is closed without releasing
        that page, so a reconnect at the same cursor resumes exactly there.
        """
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        try:
            for chunk in chunks:
                wire = codec.job_chunk_to_wire(chunk, columns=columns)
                self._write_http_chunk(codec.encode(wire))
            self._write_http_chunk(b"")
        except OSError:
            self.close_connection = True
        finally:
            chunks.close()

    def _write_http_chunk(self, data: bytes) -> None:
        self.wfile.write(f"{len(data):X}\r\n".encode("ascii") + data + b"\r\n")
        self.wfile.flush()

    def _respond_error(self, status: int, exc: BaseException, **headers: str) -> None:
        # An error may leave an unread (or unreadable) request body on the
        # socket; under HTTP/1.1 keep-alive those bytes would be parsed as
        # the next request line, desynchronising the connection.  Closing
        # after an error response is always safe, once the body is drained.
        self.close_connection = True
        self._respond(status, codec.error_to_wire(exc), **headers)
        if self._body_unread:
            self._drain_request_body()

    def send_response(self, code: int, message: "str | None" = None) -> None:
        self._response_status = int(code)
        BaseHTTPRequestHandler.send_response(self, code, message)

    def log_request(self, code: object = "-", size: object = "-") -> None:
        # Suppress the stdlib per-response line: the timed access line in
        # ``_handle`` (status + wall duration, sharing the latency
        # histogram's measurement) replaces it.
        pass

    def log_message(self, format: str, *args: object) -> None:
        # Route access logs through the server's quiet flag instead of
        # unconditionally spamming stderr (the default behaviour).
        if not self.server.service.quiet:
            BaseHTTPRequestHandler.log_message(self, format, *args)


class _Route(NamedTuple):
    """One endpoint: ``handler`` answers ``method`` on ``template``.

    ``query`` names the query parameters the route reads; any other is a
    400.  A ``{...}`` segment of the template matches one non-empty path
    segment, which the handler receives after the parsed query.
    """

    method: str
    template: str
    query: tuple[str, ...]
    handler: Callable[..., None]


#: Every endpoint the server answers; ``docs/service.md`` lists the same.
_ROUTES = (
    _Route("POST", "/v1/enumerate", (), _Handler._enumerate),
    _Route("POST", "/v1/sweep", (), _Handler._sweep),
    _Route("GET", "/v1/health", (), _Handler._health),
    _Route("GET", "/v1/stats", (), _Handler._stats),
    _Route("GET", "/v1/metrics", ("format",), _Handler._metrics),
    _Route("POST", "/v2/graphs", (), _Handler._create_graph),
    _Route("GET", "/v2/graphs", (), _Handler._list_graphs),
    _Route("GET", "/v2/graphs/{ref}", (), _Handler._get_graph),
    _Route("DELETE", "/v2/graphs/{ref}", (), _Handler._delete_graph),
    _Route("POST", "/v2/graphs/{ref}/enumerate", ("records",), _Handler._enumerate_ref),
    _Route("POST", "/v2/graphs/{ref}/sweep", ("records",), _Handler._sweep_ref),
    _Route("POST", "/v2/jobs", (), _Handler._submit_job),
    _Route("GET", "/v2/jobs", (), _Handler._list_jobs),
    _Route("GET", "/v2/jobs/{id}", (), _Handler._get_job),
    _Route("GET", "/v2/jobs/{id}/results", ("cursor", "records"), _Handler._stream_job),
    _Route("DELETE", "/v2/jobs/{id}", (), _Handler._cancel_job),
)

def describe_routes() -> str:
    """The route table on one line, as ``repro-mule serve`` prints it.

    One entry per route, in table order: ``METHOD /template``, then each
    query parameter the route reads as ``[?name=]`` (``[&name=]`` after
    the first).
    """
    return "  ".join(
        f"{route.method} {route.template}"
        + "".join(f"[{'&' if i else '?'}{name}=]" for i, name in enumerate(route.query))
        for route in _ROUTES
    )


#: The values a choice-valued query parameter accepts, its default first.
_CHOICES = {"format": ("json", "prometheus"), "records": ("rows", "columns")}


def _match(path: str) -> tuple[str, dict[str, _Route], list[str]]:
    """Match a request path against the route table.

    Returns the template it matches (``(unknown)`` for none, the metrics
    label either way), the routes served there by method, and the path's
    ``{...}`` segments.
    """
    parts = path.split("/")
    for route in _ROUTES:
        pattern = route.template.split("/")
        if len(pattern) == len(parts) and all(
            want == got or (want.startswith("{") and got)
            for want, got in zip(pattern, parts)
        ):
            routes = {r.method: r for r in _ROUTES if r.template == route.template}
            segments = [
                got for want, got in zip(pattern, parts) if want.startswith("{")
            ]
            return route.template, routes, segments
    return "(unknown)", {}, []


def _parse_query(query: str, names: tuple[str, ...]) -> dict[str, str]:
    """Each query parameter's last value, checked against the route's names.

    A name not in ``names`` is a 400, and so is a value outside a choice
    parameter's :data:`_CHOICES`; an absent choice parameter reads as its
    default.
    """
    params = {
        name: values[-1]
        for name, values in parse_qs(query, keep_blank_values=True).items()
    }
    unknown = set(params) - set(names)
    if unknown:
        raise FormatError(f"unknown query parameters {sorted(unknown)}")
    for name in names:
        choices = _CHOICES.get(name)
        if choices is not None and params.setdefault(name, choices[0]) not in choices:
            raise FormatError(
                f"unknown {name} {params[name]!r}; expected "
                + " or ".join(repr(choice) for choice in choices)
            )
    return params


class _RequestTimeout(Exception):
    """A request body that stopped short of its Content-Length — HTTP 408."""


class _LengthRequired(Exception):
    """Body-carrying request without a usable Content-Length — HTTP 411.

    ``http.server`` never decodes chunked transfer encoding, so trusting
    a missing/zero Content-Length would silently read an *empty* body
    (and leave the chunked payload on the socket to corrupt the next
    keep-alive request).  Refusing with 411 up front turns that silent
    misread into an actionable client error.
    """


def _job_status(job: Job) -> codec.JobStatus:
    """Snapshot one job as its wire status.

    ``state`` is read before ``error``: a job can only flip to ``failed``
    with its error already stored (both happen under the job's lock), so
    this ordering can never observe the half-written pair the wire
    encoder rejects.
    """
    state = job.state
    snapshot = job.progress()
    return codec.JobStatus(
        id=job.id,
        state=state,
        cliques_emitted=snapshot.cliques_emitted,
        frames_expanded=snapshot.frames_expanded,
        elapsed_seconds=snapshot.elapsed_seconds,
        records=job.records_total,
        error=job.error if state == JobState.FAILED else None,
    )


def _check_body_ref(store: GraphStore, path_ref: str, body_ref: str | None) -> None:
    """Reject a body whose graph reference contradicts the URL's.

    A v2 body may omit its ``graph`` field (the path is authoritative) or
    repeat it; naming a *different* graph is a client bug worth failing
    loudly instead of silently trusting one of the two.
    """
    if body_ref is None:
        return
    if store.resolve(body_ref) != store.resolve(path_ref):
        raise StoreError(
            f"request body names graph {body_ref!r} but the URL names "
            f"{path_ref!r}"
        )


class MiningServer:
    """A catalog of graphs served over HTTP.

    Parameters
    ----------
    target:
        What to serve: an :class:`~repro.uncertain.graph.UncertainGraph`
        (the classic single-graph server — it becomes the store's pinned
        default graph) or a pre-populated
        :class:`~repro.api.store.GraphStore` (multi-graph hosting; its
        default graph answers the ``/v1`` surface).
    host, port:
        Bind address; ``port=0`` picks a free ephemeral port (the bound
        port is available as :attr:`port` — what the tests use).
    max_workers:
        Enumeration thread-pool bound, forwarded to the scheduler.
    quiet:
        Suppress per-request access logging (default ``True``; the CLI
        turns logging on).  Access lines carry the response status and
        wall duration, measured by the same clock as the request latency
        histograms.
    trace_dir:
        When set, every HTTP request writes its span tree as a Chrome
        trace-event JSON file (``request-NNNNNN.json``) into this
        directory — load them in ``chrome://tracing`` or Perfetto.  The
        directory is created on demand.

    >>> g = UncertainGraph(edges=[(1, 2, 0.9), (2, 3, 0.9), (1, 3, 0.9)])
    >>> with MiningServer(g, port=0) as server:
    ...     server.url.startswith("http://127.0.0.1:")
    True
    """

    def __init__(
        self,
        target: "UncertainGraph | GraphStore",
        *,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        max_workers: int | None = None,
        quiet: bool = True,
        trace_dir: "str | Path | None" = None,
    ) -> None:
        self.quiet = quiet
        self._scheduler = EnumerationScheduler(target, max_workers=max_workers)
        self._httpd = _ServiceHTTPServer((host, port), _Handler)
        self._httpd.service = self
        self._serve_thread: threading.Thread | None = None
        self._entered_serve = False
        self._closed = False
        self._draining = False
        self._http_lock = threading.Lock()
        #: Answered requests by (endpoint, method, status).
        self._http_requests: dict[tuple[str, str, int], int] = {}
        self._scheduler.metrics.counter(
            "http_requests_total",
            "HTTP requests served, by normalised endpoint, method and status.",
            labelnames=("endpoint", "method", "status"),
            read=self._http_counts,
        )
        self._request_seconds = self._scheduler.metrics.histogram(
            "http_request_seconds",
            "Wall seconds per HTTP request, by normalised endpoint.",
            labelnames=("endpoint",),
        )
        self._trace_dir = Path(trace_dir) if trace_dir is not None else None
        self._trace_lock = threading.Lock()
        self._trace_seq = 0
        if self._trace_dir is not None:
            self._trace_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def scheduler(self) -> EnumerationScheduler:
        """The scheduler executing this server's requests."""
        return self._scheduler

    @property
    def store(self) -> GraphStore:
        """The graph store this server hosts."""
        return self._scheduler.store

    @property
    def graph(self) -> UncertainGraph:
        """The default graph (the one the ``/v1`` surface serves)."""
        return self._scheduler.graph

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound TCP port (resolved even when constructed with 0)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL clients should connect to."""
        return f"http://{self.host}:{self.port}"

    @property
    def draining(self) -> bool:
        """Whether the server is refusing new submissions (HTTP 503)."""
        return self._draining

    def create_graph(self, upload: "codec.GraphUpload"):
        """Materialise a ``graph-upload`` into the store (POST /v2/graphs)."""
        store = self.store
        if upload.graph is not None:
            return store.add(upload.graph, name=upload.name)
        kwargs: dict = {}
        if upload.scale is not None:
            kwargs["scale"] = upload.scale
        if upload.seed is not None:
            kwargs["seed"] = upload.seed
        # Uploaded datasets are *not* pinned: only the operator's CLI
        # catalog is; client-created graphs stay subject to the LRU budget.
        return store.add_dataset(
            upload.dataset, name=upload.name, pin=False, **kwargs
        )

    def health_payload(self) -> dict:
        store = self.store
        if store.default_fingerprint is None:
            graph_section = None
        else:
            session = store.session(None)
            graph = session.graph
            graph_section = {
                "num_vertices": graph.num_vertices,
                "num_edges": graph.num_edges,
                "fingerprint": session.fingerprint,
            }
        return {
            "schema": codec.SCHEMA_VERSION,
            "kind": "health",
            "status": "ok",
            "graph": graph_section,
        }

    def stats_payload(self) -> dict:
        """Assemble the ``/v1/stats`` payload.

        Each component section is an *atomic* snapshot of that component:
        the aggregate cache counters and every per-graph breakdown come
        from a single lock acquisition
        (:meth:`~repro.api.cache.CompiledGraphCache.counters_snapshot`),
        so within one payload the per-graph sums can never exceed the
        aggregate; scheduler, HTTP and job counters are likewise each
        read under their own lock.  *Cross*-component consistency is
        deliberately best-effort — the sections are sampled one after
        another without a global pause, so a request landing mid-assembly
        may appear in one section and not yet in another.
        """
        store = self.store
        # One lock acquisition yields the aggregate *and* every per-graph
        # breakdown (the old aggregate-then-per-graph pair of reads could
        # tear: a compile landing between them made the per-graph sums
        # exceed the aggregate).  A graph deleted between list() and here
        # simply reports zero counters instead of 404-ing the poll.
        cache, per_graph = store.cache.counters_snapshot()
        scheduler = self._scheduler.stats()
        zero = CacheInfo(
            hits=0, misses=0, compilations=0, derivations=0, entries=0
        )
        graphs = {
            info.fingerprint: {
                "name": info.name,
                "default": info.default,
                "cache": dict(per_graph.get(info.fingerprint, zero)._asdict()),
            }
            for info in store.list()
        }
        # The v1 accounting: answered POST/DELETE requests, and those of
        # them answered with a status of 400 or more.
        received = failed = 0
        for (_, method, status), count in self._http_counts().items():
            if method in ("POST", "DELETE"):
                received += count
                failed += count if status >= 400 else 0
        return {
            "schema": codec.SCHEMA_VERSION,
            "kind": "service-stats",
            "cache": dict(cache._asdict()),
            "scheduler": dict(scheduler._asdict()),
            "http": {"received": received, "failed": failed},
            "graphs": graphs,
            "jobs": self._scheduler.jobs.counts(),
        }

    def metrics_payload(self) -> dict:
        """This server's metrics registry as a ``metrics`` wire envelope."""
        return codec.metrics_to_wire(self._scheduler.metrics.snapshot())

    def _http_counts(self) -> dict[tuple[str, str, int], int]:
        with self._http_lock:
            return dict(self._http_requests)

    def _observe_request(
        self, endpoint: str, method: str, status: int, elapsed: float, span: object
    ) -> None:
        """Count and time one answered request; persist its span when tracing."""
        key = (endpoint, method, status)
        with self._http_lock:
            self._http_requests[key] = self._http_requests.get(key, 0) + 1
        self._request_seconds.labels(endpoint=endpoint).observe(elapsed)
        if span is None or self._trace_dir is None:
            return
        with self._trace_lock:
            self._trace_seq += 1
            seq = self._trace_seq
        try:
            write_chrome_trace(self._trace_dir / f"request-{seq:06d}.json", [span])
        except OSError:  # pragma: no cover - tracing must never fail a request
            pass

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`close` (or Ctrl-C)."""
        self._entered_serve = True
        self._httpd.serve_forever(poll_interval=0.1)

    def start(self) -> "MiningServer":
        """Serve on a daemon background thread; returns ``self``."""
        if self._serve_thread is None:
            # Flag before launching: close() must know a serve loop is (or
            # is about to be) running, or its shutdown() call would hang.
            self._entered_serve = True
            self._serve_thread = threading.Thread(
                target=self._httpd.serve_forever,
                kwargs={"poll_interval": 0.1},
                name="repro-mule-serve",
                daemon=True,
            )
            self._serve_thread.start()
        return self

    def drain(self) -> None:
        """Enter drain mode without stopping the HTTP loop.

        New submissions (every POST route) are refused with ``503``; queued
        jobs settle as ``failed("server shutdown")``, and a synchronous
        request waiting on one gets that ``ServiceError`` as a ``400``;
        producers blocked on a full result buffer are woken to fail the
        same way.  Running jobs keep executing and status/result GETs keep
        working, so attached consumers can finish their streams.
        """
        self._draining = True
        self._scheduler.shutdown(wait=False, drain=True)

    def close(self) -> None:
        """Drain, wait for in-flight jobs, then stop serving.

        Drain-first ordering: submissions arriving during the wait get a
        clean ``503`` instead of a connection error, and every in-flight
        job reaches a persistent terminal state (``done``/``cancelled``,
        or ``failed("server shutdown")`` for work the drain cut off)
        before the socket goes away.
        """
        if self._closed:
            return
        self._closed = True
        self._draining = True
        self._scheduler.shutdown(wait=True, drain=True)
        if self._entered_serve:
            # shutdown() blocks until the serve_forever loop exits; it is
            # only safe once the loop has actually been entered.
            self._httpd.shutdown()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)
        self._httpd.server_close()

    def __enter__(self) -> "MiningServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"MiningServer(url={self.url!r}, graphs={len(self.store)})"
