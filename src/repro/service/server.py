"""The HTTP serving surface — ``repro-mule serve`` and :class:`MiningServer`.

A deliberately dependency-free server (stdlib ``http.server`` only) that
exposes one graph-agnostic
:class:`~repro.service.scheduler.EnumerationScheduler` over a
:class:`~repro.api.store.GraphStore` of named graphs:

================================--  ================================================
endpoint                            semantics
================================--  ================================================
``POST /v1/enumerate``              run against the *default* graph (v1, frozen)
``POST /v1/sweep``                  sweep the default graph; one shared compilation
``GET /v1/health``                  liveness + the default graph's shape/fingerprint
``GET /v1/stats``                   cache, scheduler, HTTP and per-graph counters
``GET /v1/metrics``                 this server's metrics registry — a ``metrics``
                                    envelope, or Prometheus text with
                                    ``?format=prometheus``
``POST /v2/graphs``                 create a graph: upload an edge set, or build a
                                    named dataset analog server-side
``GET /v2/graphs``                  list resident graphs (``graph-list`` envelope)
``GET /v2/graphs/{ref}``            one graph's ``graph-info``
``DELETE /v2/graphs/{ref}``         unregister a graph (and its cached artifacts)
``POST /v2/graphs/{ref}/enumerate`` run against the referenced graph
``POST /v2/graphs/{ref}/sweep``     sweep the referenced graph
``POST /v2/jobs``                   submit an enumeration asynchronously; returns
                                    its ``job-status`` immediately
``GET /v2/jobs``                    list registered jobs (``job-list`` envelope)
``GET /v2/jobs/{id}``               one job's live ``job-status``
``GET /v2/jobs/{id}/results``       stream result pages as NDJSON chunks
                                    (``?cursor=N`` resumes mid-stream)
``DELETE /v2/jobs/{id}``            cancel a job; returns its post-cancel status
================================--  ================================================

``{ref}`` is a registered name or a fingerprint (unambiguous prefixes of
8+ characters accepted).  Library errors map to ``400`` with an ``error``
envelope (the client re-raises the original exception type); unknown
routes, unknown graph references *and* unknown job ids to ``404``; a
draining server answers every POST with ``503``; anything unexpected maps
to ``500``.  See ``docs/service.md`` for the wire schema and curl-able
examples.

The server is concurrency-correct by construction: each connection gets a
handler thread (``ThreadingHTTPServer``) which *blocks* on the scheduler's
bounded pool, so enumeration concurrency — and therefore memory — is
bounded by ``max_workers`` no matter how many clients connect.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from time import perf_counter
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
MAX_REQUEST_BYTES = 1 << 20

#: Largest ``POST /v2/graphs`` body accepted — graph uploads legitimately
#: carry whole edge lists, so their cap is wider.
MAX_UPLOAD_BYTES = 64 << 20


class _ServiceHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying a backreference to the MiningServer."""

    daemon_threads = True
    service: "MiningServer"


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-mule"

    #: Status of the last response written on this connection; 0 means no
    #: response made it out (the socket died mid-handler).
    _response_status = 0

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def _handle(self, route) -> None:
        """Run one route with the uniform error→status mapping.

        Every request is counted once it is answered, by endpoint, method
        and status, and timed; when the server was given a trace
        directory it also leaves a Chrome trace file behind.
        """
        service = self.server.service
        endpoint = _endpoint_label(self.path)
        started = perf_counter()
        self._response_status = 0
        root = None
        try:
            with _obs_tracer().span(
                "http.request", endpoint=endpoint, method=self.command
            ) as root:
                try:
                    route(service)
                except BaseException as exc:  # noqa: BLE001 — a handler must not die
                    if isinstance(exc, _RouteError):
                        self._respond_error(404, ReproError(str(exc)))
                    elif isinstance(exc, _ServerDraining):
                        self._respond_error(
                            503,
                            ServiceError(
                                "server is draining; not accepting new work"
                            ),
                        )
                    elif isinstance(exc, _LengthRequired):
                        # The request body is still sitting unread on the
                        # socket; keeping the connection would desync the
                        # next request.  Drain it (bounded) after
                        # responding: closing with unread bytes in the
                        # receive buffer makes the kernel RST the
                        # connection, which can discard the 411 response
                        # before the client reads it.
                        self.close_connection = True
                        self._respond_error(411, ServiceError(str(exc)))
                        self._drain_request_body()
                    elif isinstance(exc, (GraphNotFoundError, JobNotFoundError)):
                        self._respond_error(404, exc)
                    elif isinstance(exc, ReproError):
                        self._respond_error(400, exc)
                    else:
                        self._respond_error(500, exc)
        finally:
            elapsed = perf_counter() - started
            status = self._response_status or 500
            service._observe_request(endpoint, self.command, status, elapsed, root)
            if not service.quiet:
                # The access line shares its clock with the latency
                # histogram: one measurement, two sinks.
                self.log_message(
                    '"%s" %d %.4fs', self.requestline, status, elapsed
                )

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._handle(self._route_get)

    def do_DELETE(self) -> None:  # noqa: N802 (http.server API)
        self._handle(self._route_delete)

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        self._handle(self._route_post)

    def _route_get(self, service: "MiningServer") -> None:
        split = urlsplit(self.path)
        path = split.path
        if path == "/v1/health":
            self._respond(200, service.health_payload())
        elif path == "/v1/stats":
            self._respond(200, service.stats_payload())
        elif path == "/v1/metrics":
            if _metrics_format(split.query) == "prometheus":
                self._respond_text(200, render_prometheus(service.scheduler.metrics))
            else:
                self._respond(200, service.metrics_payload())
        elif path == "/v2/graphs":
            self._respond(200, codec.graph_list_to_wire(service.store.list()))
        elif path == "/v2/jobs":
            statuses = [_job_status(job) for job in service.scheduler.jobs.list()]
            self._respond(200, codec.job_list_to_wire(statuses))
        else:
            ref = _graph_ref(path)
            if ref is not None:
                self._respond(200, codec.graph_info_to_wire(service.store.get(ref)))
                return
            target = _job_path(path)
            if target is None:
                raise _RouteError(f"unknown endpoint {self.path}")
            job_id, results = target
            job = service.scheduler.jobs.get(job_id)
            if results:
                cursor = _cursor_param(split.query)
                # Eager cursor validation happens here, *before* any
                # response bytes — a bad cursor is still a clean 400.
                self._stream_ndjson(job.stream_chunks(cursor))
            else:
                self._respond(200, codec.job_status_to_wire(_job_status(job)))

    def _route_delete(self, service: "MiningServer") -> None:
        target = _job_path(self.path)
        if target is not None and not target[1]:
            job = service.scheduler.jobs.get(target[0])
            job.cancel()
            self._respond(200, codec.job_status_to_wire(_job_status(job)))
            return
        ref = _graph_ref(self.path)
        if ref is None:
            raise _RouteError(f"unknown endpoint {self.path}")
        self._respond(200, codec.graph_info_to_wire(service.store.remove(ref)))

    def _route_post(self, service: "MiningServer") -> None:
        if service.draining:
            raise _ServerDraining
        if self.path == "/v1/enumerate":
            payload = codec.decode(self._read_body())
            request = codec.request_from_wire(payload)
            outcome = service.scheduler.run(request)
            self._respond(200, codec.outcome_to_wire(outcome))
        elif self.path == "/v1/sweep":
            payload = codec.decode(self._read_body())
            base, alphas = codec.sweep_from_wire(payload)
            requests = [base.with_alpha(alpha) for alpha in alphas]
            outcomes = service.scheduler.batch(requests)
            self._respond(200, codec.outcomes_to_wire(outcomes))
        elif self.path == "/v2/graphs":
            payload = codec.decode(self._read_body(limit=MAX_UPLOAD_BYTES))
            upload = codec.upload_from_wire(payload)
            self._respond(200, codec.graph_info_to_wire(service.create_graph(upload)))
        elif self.path == "/v2/jobs":
            payload = codec.decode(self._read_body())
            ref, request, page_size = codec.job_request_from_wire(payload)
            job = service.scheduler.submit_job(request, ref=ref, page_size=page_size)
            self._respond(200, codec.job_status_to_wire(_job_status(job)))
        else:
            target = _graph_action(self.path)
            if target is None:
                raise _RouteError(f"unknown endpoint {self.path}")
            ref, action = target
            payload = codec.decode(self._read_body())
            if action == "enumerate":
                body_ref, request = codec.ref_request_from_wire(payload)
                _check_body_ref(service.store, ref, body_ref)
                outcome = service.scheduler.run(request, ref=ref)
                self._respond(200, codec.outcome_to_wire(outcome))
            else:
                body_ref, base, alphas = codec.ref_sweep_from_wire(payload)
                _check_body_ref(service.store, ref, body_ref)
                requests = [base.with_alpha(alpha) for alpha in alphas]
                outcomes = service.scheduler.batch(requests, ref=ref)
                self._respond(200, codec.outcomes_to_wire(outcomes))

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
        return self.rfile.read(length)

    def _drain_request_body(self, *, limit: int = MAX_REQUEST_BYTES) -> None:
        """Best-effort discard of an unread request body.

        Bounded by ``limit`` and a short socket timeout so a client
        streaming an unbounded body cannot pin the handler thread.
        """
        try:
            self.connection.settimeout(0.2)
            while limit > 0:
                data = self.connection.recv(min(65536, limit))
                if not data:
                    break
                limit -= len(data)
        except OSError:
            pass

    def _respond(self, status: int, payload: dict) -> None:
        body = codec.encode(payload)
        self._send_body(status, "application/json", body)

    def _respond_text(self, status: int, text: str) -> None:
        """Plain-text response (the Prometheus exposition format)."""
        self._send_body(
            status, "text/plain; version=0.0.4; charset=utf-8", text.encode("utf-8")
        )

    def _send_body(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _stream_ndjson(self, chunks) -> None:
        """Write a job's result chunks as a chunked NDJSON response.

        One wire envelope per HTTP chunk, flushed immediately, so the
        client observes records as the producer emits them.  A consumer
        that disconnects mid-write never acknowledged the chunk it was
        reading — the generator is closed without releasing that page, so
        a reconnect at the same cursor resumes exactly there.
        """
        self.close_connection = True
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.send_header("Connection", "close")
        self.end_headers()
        try:
            for chunk in chunks:
                self._write_http_chunk(codec.encode(codec.job_chunk_to_wire(chunk)))
            self._write_http_chunk(b"")
        except (BrokenPipeError, ConnectionResetError):
            pass
        finally:
            chunks.close()

    def _write_http_chunk(self, data: bytes) -> None:
        self.wfile.write(f"{len(data):X}\r\n".encode("ascii") + data + b"\r\n")
        self.wfile.flush()

    def _respond_error(self, status: int, exc: BaseException) -> None:
        # An error may leave an unread (or unreadable) request body on the
        # socket; under HTTP/1.1 keep-alive those bytes would be parsed as
        # the next request line, desynchronising the connection.  Closing
        # after an error response is always safe.
        self.close_connection = True
        self._respond(status, codec.error_to_wire(exc))

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


class _RouteError(Exception):
    """Request for a path the service does not serve."""


class _ServerDraining(Exception):
    """Submission while the server is draining — mapped to HTTP 503."""


class _LengthRequired(Exception):
    """Body-carrying request without a usable Content-Length — HTTP 411.

    ``http.server`` never decodes chunked transfer encoding, so trusting
    a missing/zero Content-Length would silently read an *empty* body
    (and leave the chunked payload on the socket to corrupt the next
    keep-alive request).  Refusing with 411 up front turns that silent
    misread into an actionable client error.
    """


def _job_path(path: str) -> "tuple[str, bool] | None":
    """Parse ``/v2/jobs/{id}`` or ``/v2/jobs/{id}/results``.

    Returns ``(job_id, wants_results)``, or ``None`` for non-job paths.
    """
    parts = path.strip("/").split("/")
    if len(parts) < 3 or parts[0] != "v2" or parts[1] != "jobs" or not parts[2]:
        return None
    if len(parts) == 3:
        return parts[2], False
    if len(parts) == 4 and parts[3] == "results":
        return parts[2], True
    return None


def _endpoint_label(path: str) -> str:
    """Collapse a request path to its route template.

    Metric labels must have bounded cardinality, so per-resource segments
    (graph refs, job ids) are collapsed to placeholders and paths the
    router does not serve collapse to one ``(unknown)`` bucket.
    """
    path = urlsplit(path).path
    if path in _KNOWN_ENDPOINTS:
        return path
    action = _graph_action(path)
    if action is not None:
        return f"/v2/graphs/{{ref}}/{action[1]}"
    if _graph_ref(path) is not None:
        return "/v2/graphs/{ref}"
    target = _job_path(path)
    if target is not None:
        return "/v2/jobs/{id}/results" if target[1] else "/v2/jobs/{id}"
    return "(unknown)"


_KNOWN_ENDPOINTS = frozenset(
    {
        "/v1/enumerate",
        "/v1/sweep",
        "/v1/health",
        "/v1/stats",
        "/v1/metrics",
        "/v2/graphs",
        "/v2/jobs",
    }
)


def _metrics_format(query: str) -> str:
    """Parse ``?format=json|prometheus`` (default ``json``), strictly."""
    params = parse_qs(query, keep_blank_values=True)
    unknown = set(params) - {"format"}
    if unknown:
        raise FormatError(f"unknown query parameters {sorted(unknown)}")
    values = params.get("format")
    if not values:
        return "json"
    chosen = values[-1]
    if chosen not in ("json", "prometheus"):
        raise FormatError(
            f"unknown metrics format {chosen!r}; expected 'json' or 'prometheus'"
        )
    return chosen


def _cursor_param(query: str) -> int:
    """Parse the ``?cursor=N`` resume position (default 0)."""
    params = parse_qs(query, keep_blank_values=True)
    unknown = set(params) - {"cursor"}
    if unknown:
        raise FormatError(f"unknown query parameters {sorted(unknown)}")
    values = params.get("cursor")
    if not values:
        return 0
    try:
        return int(values[-1])
    except ValueError as exc:
        raise FormatError(f"cursor must be an integer, got {values[-1]!r}") from exc


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


def _graph_ref(path: str) -> str | None:
    """Parse ``/v2/graphs/{ref}`` (no trailing action) or return ``None``."""
    parts = path.strip("/").split("/")
    if len(parts) == 3 and parts[0] == "v2" and parts[1] == "graphs" and parts[2]:
        return parts[2]
    return None


def _graph_action(path: str) -> "tuple[str, str] | None":
    """Parse ``/v2/graphs/{ref}/enumerate|sweep`` or return ``None``."""
    parts = path.strip("/").split("/")
    if (
        len(parts) == 4
        and parts[0] == "v2"
        and parts[1] == "graphs"
        and parts[2]
        and parts[3] in ("enumerate", "sweep")
    ):
        return parts[2], parts[3]
    return None


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

        New submissions (every POST) are refused with ``503``; queued jobs
        settle as ``failed("server shutdown")``, and a synchronous request
        waiting on one gets that ``ServiceError`` as a ``400``; producers
        blocked on a full result buffer are woken to fail the same way.
        Running jobs keep executing and status/result GETs keep working,
        so attached consumers can finish their streams.
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
