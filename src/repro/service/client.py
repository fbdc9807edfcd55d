"""The remote clients — drop-in mirrors of the local session API.

:class:`RemoteStore` mirrors :class:`~repro.api.store.GraphStore` over the
wire (nothing beyond the stdlib's ``http.client``): register graphs or
server-built dataset analogs, list/get/remove them, and open a
:class:`RemoteSession` on any of them by name or fingerprint.  Local and
remote code become interchangeable::

    store = GraphStore();  store.add_dataset("ppi", scale=0.05)   # local
    store = connect("http://host:8765")                           # remote
    session = store.session("ppi")          # same call sites either way

:class:`RemoteSession` keeps its original single-graph shape —
``enumerate(request)``, ``sweep(alphas, ...)``, ``cache_info()`` — so
callers swap a local :class:`~repro.api.session.MiningSession` for a
remote one by changing a constructor.  A session without a graph reference
speaks the frozen ``/v1`` surface against the server's default graph; one
opened via ``RemoteStore.session("name")`` speaks ``/v2`` against exactly
that graph, and its ``cache_info()`` returns that graph's *per-graph*
counters — which is what lets "this graph compiled exactly once" be
asserted per graph on a busy multi-graph server.

Outcomes decode to real :class:`~repro.api.outcome.EnumerationOutcome`
objects: clique sets, probabilities, counters and stop provenance are
identical to a local run of the same request (the remote-parity suites and
the throughput benchmark assert this bit-for-bit).  On v2 the clients ask
for records as columns (``?records=columns``): one ``clique-columns``
block per outcome or result page instead of one envelope per record, about
a quarter of the bytes.  The decoders accept rows too.

:class:`RemoteJob` is the client face of the async job pipeline: submit
with :meth:`RemoteSession.submit`, poll :meth:`RemoteJob.status`, stream
records as the server produces them with :meth:`RemoteJob.iter_results`
(NDJSON over ``GET /v2/jobs/{id}/results``, with transparent cursor-based
reconnection), or block with :meth:`RemoteJob.wait` — whose reassembled
outcome is bit-identical to a local run of the same request.

Connections: every client in the process draws on one pool of kept-alive
HTTP/1.1 connections, keyed by the server's scheme, host and port, so
sessions, stores, jobs and the fleet coordinator reuse sockets with no
code of their own.  A connection carries one request at a time.  It goes
back to the pool only once its response was read to the end, so an error
response or a result stream abandoned mid-way closes it; one the server
has closed is dropped before reuse; and no request is ever sent twice.  A
forked child closes the idle sockets it inherited and opens its own.  The
clients connect directly: unlike ``urllib``, they read no
``http_proxy``-style environment variable.

Error behaviour: application-level failures re-raise the server-side
exception type (``except ParameterError`` works unchanged, as does
``except GraphNotFoundError`` for dangling references); transport and
protocol failures raise :class:`~repro.errors.ServiceError`.
"""

from __future__ import annotations

import http.client
import os
import select
import threading
import time
from collections.abc import Iterator, Sequence
from urllib.parse import urlsplit

from ..api.cache import CacheInfo
from ..api.outcome import EnumerationOutcome
from ..api.request import EnumerationRequest
from ..api.store import GraphInfo
from ..core.result import CliqueRecord
from ..errors import FormatError, JobError, ServiceError, StoreError
from ..uncertain.graph import UncertainGraph
from . import codec
from .jobs import JobState

__all__ = ["RemoteJob", "RemoteSession", "RemoteStore", "connect"]

#: Default per-request timeout.  Generous — enumeration requests can
#: legitimately run for a while; bound them server-side with
#: ``RunControls.time_budget_seconds`` rather than client socket timeouts.
DEFAULT_TIMEOUT_SECONDS = 300.0

#: Default timeout for cheap control-plane calls (health, stats, job
#: status polls, cancellation).  These answer from memory without running
#: an enumeration, so they must *not* inherit the generous data-plane
#: default — a dead server should fail a liveness probe in seconds.
DEFAULT_CONTROL_TIMEOUT_SECONDS = 10.0

#: Consecutive result-stream reconnects tolerated without the cursor
#: advancing before the client gives up.  The budget only burns once the
#: job has been observed past ``queued`` — a job parked in the server's
#: submit queue is waiting, not stalled.
_MAX_STALLED_RECONNECTS = 5

#: First delay before re-opening a result stream that did not advance;
#: doubles per consecutive idle reconnect, up to the cap.  Without this a
#: queued job's empty streams would burn the whole stall budget in
#: milliseconds (and hammer the server with reconnects while doing it).
_RECONNECT_BACKOFF_SECONDS = 0.05

#: Upper bound on the reconnect delay.
_RECONNECT_BACKOFF_CAP_SECONDS = 2.0

#: The connection class of each base URL scheme the clients speak.
_CONNECTION_CLASSES = {
    "http": http.client.HTTPConnection,
    "https": http.client.HTTPSConnection,
}

#: A server's origin: the scheme, host and port of its base URL.
_Origin = tuple[str, str, int]

_JSON_HEADERS = {"Content-Type": "application/json"}


class _ConnectionPool:
    """Idle kept-alive connections, shared by every client in the process.

    Client objects are cheap and short-lived (the fleet coordinator makes
    one per upload and one per submit), so the pool lives outside them,
    keyed by origin (scheme, host and port).  A connection carries one
    request at a time and comes back only after its response was read to
    the end.  An idle connection has nothing to read, so one whose socket
    polls readable was closed by the server (its idle timeout, or a server
    shut down) and is dropped before use.  Each new connection first sweeps
    such connections from every origin, so a process that outlives many
    servers keeps no socket of theirs.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._idle: dict[_Origin, list[http.client.HTTPConnection]] = {}

    def connection(
        self, origin: _Origin, timeout: float
    ) -> http.client.HTTPConnection:
        """An idle open connection to ``origin``, else a new unconnected one.

        Its socket operations time out after ``timeout`` seconds either way.
        """
        with self._lock:
            idle = self._idle.get(origin, [])
            while idle:
                connection = idle.pop()
                if _is_open(connection):
                    connection.sock.settimeout(timeout)
                    return connection
                connection.close()
            self._sweep_locked()
        scheme, host, port = origin
        return _CONNECTION_CLASSES[scheme](host, port, timeout=timeout)

    def release(
        self, origin: _Origin, connection: http.client.HTTPConnection
    ) -> None:
        """Keep ``connection``, whose last response was read to its end.

        One the server ended (``Connection: close``) has no socket left.
        """
        if connection.sock is None:
            return
        with self._lock:
            self._idle.setdefault(origin, []).append(connection)

    def _sweep_locked(self) -> None:
        """Close and forget every idle connection the server has ended."""
        for origin, idle in list(self._idle.items()):
            kept = []
            for connection in idle:
                if _is_open(connection):
                    kept.append(connection)
                else:
                    connection.close()
            if kept:
                self._idle[origin] = kept
            else:
                del self._idle[origin]

    def _after_fork(self) -> None:
        """In a forked child, close the inherited idle sockets.

        ``close()`` drops only the child's copy of each descriptor, where a
        ``shutdown()`` would end the parent's connection too; the child
        then opens its own.  The lock is new: another thread of the parent
        may have held the old one at the fork.
        """
        self._lock = threading.Lock()
        with self._lock:
            for idle in self._idle.values():
                for connection in idle:
                    connection.close()
            self._idle = {}


def _is_open(connection: http.client.HTTPConnection) -> bool:
    """Whether an idle connection's socket polls neither readable nor hung up."""
    poller = select.poll()
    poller.register(connection.sock, select.POLLIN)
    return not poller.poll(0)


#: The one connection pool of this process.
_POOL = _ConnectionPool()
os.register_at_fork(after_in_child=_POOL._after_fork)


class _LineStream:
    """A streamed response: iterate it for its lines, ``close()`` it after.

    Its connection goes back to the pool once the response was read to its
    end; a stream closed before that closes the connection.
    """

    def __init__(
        self,
        origin: _Origin,
        connection: http.client.HTTPConnection,
        response: http.client.HTTPResponse,
    ) -> None:
        self._origin = origin
        self._connection: http.client.HTTPConnection | None = connection
        self._response = response

    def __iter__(self) -> Iterator[bytes]:
        yield from self._response
        connection, self._connection = self._connection, None
        _POOL.release(self._origin, connection)

    def close(self) -> None:
        if self._connection is not None:
            self._response.close()
            self._connection.close()
            self._connection = None


class _HttpClient:
    """Shared HTTP/1.1 transport, and the control-plane calls every client has.

    Every request goes through :meth:`_send`, the one place that maps
    transport failures.  Every verb accepts a per-call ``timeout``
    override; ``None`` (the default) falls back to the client-wide timeout
    the constructor set.
    """

    def __init__(self, base_url: str, timeout: float) -> None:
        self._base_url = base_url.rstrip("/")
        self._timeout = timeout
        split = urlsplit(self._base_url)
        try:
            port = split.port
        except ValueError as exc:  # a port that is no number in range
            raise ServiceError(f"invalid base URL {base_url!r}: {exc}") from exc
        connection_class = _CONNECTION_CLASSES.get(split.scheme)
        if connection_class is None or not split.hostname:
            raise ServiceError(
                f"invalid base URL {base_url!r}: expected http://host[:port] "
                f"or https://host[:port]"
            )
        self._origin: _Origin = (
            split.scheme, split.hostname, port or connection_class.default_port
        )
        self._path = split.path

    @property
    def base_url(self) -> str:
        """The server's base URL (no trailing slash)."""
        return self._base_url

    def _get(self, path: str, *, timeout: float | None = None) -> dict:
        return self._call("GET", path, timeout=timeout)

    def _post(
        self, path: str, envelope: dict, *, timeout: float | None = None
    ) -> dict:
        return self._post_body(path, codec.encode(envelope), timeout=timeout)

    def _post_body(
        self, path: str, body: bytes, *, timeout: float | None = None
    ) -> dict:
        return self._call("POST", path, body=body, timeout=timeout)

    def _delete(self, path: str, *, timeout: float | None = None) -> dict:
        return self._call("DELETE", path, timeout=timeout)

    def _call(
        self,
        method: str,
        path: str,
        *,
        body: bytes | None = None,
        timeout: float | None = None,
    ) -> dict:
        raw = self._send(method, path, body=body, timeout=timeout)
        try:
            return codec.decode(raw)
        except FormatError as exc:
            raise ServiceError(f"malformed server response: {exc}") from exc

    def _open_stream(self, path: str, *, timeout: float | None = None):
        """Open a streaming GET and return its lines as a closable iterable.

        The caller owns the stream and must close it.  http.client decodes
        the chunked transfer encoding, so iterating the stream yields NDJSON
        lines as the server flushes them.
        """
        return self._send("GET", path, timeout=timeout, stream=True)

    def _get_text(self, path: str, *, timeout: float | None = None) -> str:
        """GET a plain-text resource (the Prometheus exposition format)."""
        return self._send("GET", path, timeout=timeout).decode("utf-8")

    def _send(
        self,
        method: str,
        path: str,
        *,
        body: bytes | None = None,
        timeout: float | None = None,
        stream: bool = False,
    ):
        """Send one request; return its body, or a :class:`_LineStream`.

        The request runs on a pooled connection to the server when an open
        one is idle, else on a new one, and is never sent twice: a failure
        after it may have reached the server raises, even for a request
        that would be safe to repeat.  An HTTP error re-raises the
        exception the server sent; a transport failure, while connecting
        or while reading the body, raises
        :class:`~repro.errors.ServiceError`.  The connection goes back to
        the pool once a successful response was read to its end; an error
        closes it.
        """
        if timeout is None:
            timeout = self._timeout
        connection = _POOL.connection(self._origin, timeout)
        try:
            if connection.sock is None:
                try:
                    connection.connect()
                except OSError as exc:
                    raise ServiceError(
                        f"cannot reach {self._base_url}: {exc}"
                    ) from exc
            headers = _JSON_HEADERS if body is not None else {}
            connection.request(method, self._path + path, body=body, headers=headers)
            response = connection.getresponse()
            if response.status >= 400:
                raise self._error_from_response(response)
            if stream:
                return _LineStream(self._origin, connection, response)
            data = response.read()
        except (OSError, http.client.HTTPException) as exc:
            connection.close()
            raise ServiceError(f"transport failure: {exc}") from exc
        except BaseException:
            connection.close()
            raise
        _POOL.release(self._origin, connection)
        return data

    # ------------------------------------------------------------------ #
    # Control plane (shared by sessions and stores)
    # ------------------------------------------------------------------ #
    def health(self, *, timeout: float | None = None) -> dict:
        """The server's ``/v1/health`` payload (raises if unreachable).

        Control-plane call: defaults to the snappy
        :data:`DEFAULT_CONTROL_TIMEOUT_SECONDS`, not the client-wide
        data-plane timeout — a liveness probe must fail fast.
        """
        if timeout is None:
            timeout = DEFAULT_CONTROL_TIMEOUT_SECONDS
        return self._get("/v1/health", timeout=timeout)

    def stats(self, *, timeout: float | None = None) -> dict:
        """The server's ``/v1/stats`` payload (control-plane timeout)."""
        if timeout is None:
            timeout = DEFAULT_CONTROL_TIMEOUT_SECONDS
        return self._get("/v1/stats", timeout=timeout)

    def job(self, job_id: str) -> "RemoteJob":
        """Attach to a server-side job by id (``RemoteJob`` handle)."""
        return RemoteJob(self, job_id)

    def jobs(self, *, timeout: float | None = None) -> list[codec.JobStatus]:
        """List every job registered on the server (control-plane timeout)."""
        if timeout is None:
            timeout = DEFAULT_CONTROL_TIMEOUT_SECONDS
        return codec.job_list_from_wire(self._get("/v2/jobs", timeout=timeout))

    def metrics(self, *, timeout: float | None = None) -> dict:
        """The server's metrics snapshot (``GET /v1/metrics``).

        Returns the decoded registry snapshot — ``counters``/``gauges``
        flat series maps plus per-series ``histograms`` with bucket
        bounds, counts and derived p50/p99.  Control-plane timeout.
        """
        if timeout is None:
            timeout = DEFAULT_CONTROL_TIMEOUT_SECONDS
        return codec.metrics_from_wire(self._get("/v1/metrics", timeout=timeout))

    def metrics_text(self, *, timeout: float | None = None) -> str:
        """The Prometheus text form (``GET /v1/metrics?format=prometheus``)."""
        if timeout is None:
            timeout = DEFAULT_CONTROL_TIMEOUT_SECONDS
        return self._get_text("/v1/metrics?format=prometheus", timeout=timeout)

    @staticmethod
    def _error_from_response(response: http.client.HTTPResponse) -> Exception:
        """Map an HTTP error to the exception the server meant to raise."""
        try:
            payload = codec.decode(response.read())
            return codec.error_from_wire(payload)
        except FormatError:
            return ServiceError(
                f"server returned HTTP {response.status}: {response.reason}"
            )


class RemoteJob:
    """A handle on one server-side asynchronous job.

    Obtained from :meth:`RemoteSession.submit` (fresh submission) or
    :meth:`RemoteStore.job` / :meth:`RemoteSession.job` (re-attach by id).
    The handle accumulates every record it streams, so after the stream is
    drained :meth:`outcome` reassembles the full
    :class:`~repro.api.outcome.EnumerationOutcome` — bit-identical to a
    local run, including the ``stop_reason`` provenance of a cancelled or
    budget-stopped run.
    """

    def __init__(self, client: _HttpClient, job_id: str) -> None:
        self._client = client
        self.id = job_id
        self._cursor = 0
        self._records: list[CliqueRecord] = []
        self._summary: EnumerationOutcome | None = None
        self._error: BaseException | None = None

    # ------------------------------------------------------------------ #
    # Control plane
    # ------------------------------------------------------------------ #
    def status(self, *, timeout: float | None = None) -> codec.JobStatus:
        """Poll the job's live status (state, progress counters, records)."""
        if timeout is None:
            timeout = DEFAULT_CONTROL_TIMEOUT_SECONDS
        return codec.job_status_from_wire(
            self._client._get(f"/v2/jobs/{self.id}", timeout=timeout)
        )

    def cancel(self, *, timeout: float | None = None) -> codec.JobStatus:
        """Request cancellation; returns the post-cancel status snapshot."""
        if timeout is None:
            timeout = DEFAULT_CONTROL_TIMEOUT_SECONDS
        return codec.job_status_from_wire(
            self._client._delete(f"/v2/jobs/{self.id}", timeout=timeout)
        )

    # ------------------------------------------------------------------ #
    # Result streaming
    # ------------------------------------------------------------------ #
    def iter_results(self) -> Iterator[CliqueRecord]:
        """Yield clique records live, as the server's producer emits them.

        Reconnects transparently on dropped connections: the resume
        cursor only advances past a chunk once it was fully received, so
        no record is lost or duplicated.  Every stream it opens asks for
        the records as columns.  When the stream ends, a failed
        job's error is re-raised; a ``done``/``cancelled`` job returns
        normally (check :meth:`outcome` for the ``stop_reason``).

        Idle reconnects (the cursor did not advance) back off with a
        capped exponential delay, and only count against the stall budget
        once the job has been observed past ``queued`` — a job waiting in
        the server's submit queue produces nothing for as long as the
        queue ahead of it takes, which is patience, not a stall.
        """
        stalled = 0
        idle = 0
        observed_running = False
        while self._summary is None and self._error is None:
            before = self._cursor
            stream = self._client._open_stream(
                f"/v2/jobs/{self.id}/results?records=columns&cursor={self._cursor}"
            )
            try:
                yield from self._consume(stream)
            except (OSError, http.client.HTTPException):
                pass  # dropped mid-chunk: reconnect at the same cursor
            finally:
                stream.close()
            if (
                self._cursor != before
                or self._summary is not None
                or self._error is not None
            ):
                stalled = 0
                idle = 0
                observed_running = True  # records flowed: it ran
                continue
            idle += 1
            if not observed_running:
                try:
                    observed_running = self.status().state != JobState.QUEUED
                except ServiceError:
                    # Can't ask — charge the budget rather than wait on a
                    # server that answers neither streams nor polls.
                    observed_running = True
            if observed_running:
                stalled += 1
                if stalled >= _MAX_STALLED_RECONNECTS:
                    raise ServiceError(
                        f"result stream of job {self.id} stalled at cursor "
                        f"{self._cursor} after {stalled} reconnects"
                    )
            time.sleep(
                min(
                    _RECONNECT_BACKOFF_CAP_SECONDS,
                    _RECONNECT_BACKOFF_SECONDS * (2 ** (idle - 1)),
                )
            )
        if self._error is not None:
            raise self._error

    def _consume(self, stream) -> Iterator[CliqueRecord]:
        """Process one connection's NDJSON lines until final chunk or drop."""
        lines = iter(stream)
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                chunk = codec.job_chunk_from_wire(codec.decode(line))
            except FormatError as exc:
                raise ServiceError(f"malformed result chunk: {exc}") from exc
            if chunk.job != self.id:
                raise ServiceError(
                    f"result stream for job {self.id} delivered a chunk of "
                    f"job {chunk.job}"
                )
            if chunk.final:
                self._summary = chunk.summary
                self._error = chunk.error
                # The response's terminating HTTP chunk follows at once;
                # reading it lets the connection carry the next request.
                for _ in lines:
                    pass
                return
            self._records.extend(chunk.records)
            self._cursor = chunk.seq + 1
            yield from chunk.records

    def wait(self) -> EnumerationOutcome:
        """Drain the result stream and return the reassembled outcome.

        Blocks until the job is terminal; raises the job's error if it
        failed.  The remote analog of :meth:`repro.service.jobs.Job.wait`.
        """
        for _ in self.iter_results():
            pass
        return self.outcome()

    def outcome(self) -> EnumerationOutcome:
        """The reassembled outcome of a fully streamed job.

        Only available once :meth:`iter_results` / :meth:`wait` consumed
        the final chunk; raises :class:`~repro.errors.JobError` before
        that, and the job's own error if it failed.
        """
        if self._error is not None:
            raise self._error
        if self._summary is None:
            raise JobError(
                f"job {self.id} has not been streamed to completion; call "
                f"wait() or drain iter_results() first"
            )
        outcome = self._summary
        outcome.records = list(self._records)
        return outcome

    def __repr__(self) -> str:
        return f"RemoteJob(id={self.id!r}, base_url={self._client.base_url!r})"


class RemoteSession(_HttpClient):
    """A mining session served by a remote ``repro-mule serve`` process.

    Parameters
    ----------
    base_url:
        The server's base URL, e.g. ``"http://127.0.0.1:8765"``.
    graph:
        Optional graph reference (registered name or fingerprint).  When
        omitted the session speaks the v1 surface against the server's
        default graph; when given it speaks v2 against that graph, and
        asks for records as columns.
    timeout:
        Socket timeout per request, in seconds.
    """

    def __init__(
        self,
        base_url: str,
        *,
        graph: str | None = None,
        timeout: float = DEFAULT_TIMEOUT_SECONDS,
    ) -> None:
        super().__init__(base_url, timeout)
        self._graph_ref = graph

    @property
    def graph_ref(self) -> str | None:
        """The graph reference this session targets (``None`` = default)."""
        return self._graph_ref

    # ------------------------------------------------------------------ #
    # The MiningSession-shaped surface
    # ------------------------------------------------------------------ #
    def enumerate(self, request: EnumerationRequest) -> EnumerationOutcome:
        """Run one request remotely; mirrors :meth:`MiningSession.enumerate`."""
        if self._graph_ref is None:
            payload = self._post("/v1/enumerate", codec.request_to_wire(request))
        else:
            payload = self._post(
                f"/v2/graphs/{self._graph_ref}/enumerate?records=columns",
                codec.ref_request_to_wire(request, graph=self._graph_ref),
            )
        return codec.outcome_from_wire(payload)

    def sweep(
        self,
        alphas: Sequence[float],
        *,
        algorithm: str = "mule",
        **options: object,
    ) -> list[EnumerationOutcome]:
        """Run one request per α remotely over a single server compilation.

        Mirrors :meth:`MiningSession.sweep`: the α points travel as one
        request, so the server pre-plans a shared derivation base and the
        whole sweep compiles exactly once (observable in :meth:`stats` /
        :meth:`cache_info`).
        """
        alphas = list(alphas)
        if not alphas:
            return []
        base = EnumerationRequest(algorithm=algorithm, alpha=alphas[0], **options)
        if self._graph_ref is None:
            payload = self._post("/v1/sweep", codec.sweep_to_wire(base, alphas))
        else:
            payload = self._post(
                f"/v2/graphs/{self._graph_ref}/sweep?records=columns",
                codec.ref_sweep_to_wire(base, alphas, graph=self._graph_ref),
            )
        return codec.outcomes_from_wire(payload)

    def submit(
        self,
        request: EnumerationRequest,
        *,
        page_size: int | None = None,
        timeout: float | None = None,
    ) -> RemoteJob:
        """Submit one request asynchronously; returns immediately.

        The async sibling of :meth:`enumerate`: the server queues the
        enumeration as a job and answers with its id without running
        anything first.  ``page_size`` overrides the server's result-page
        granularity (records per streamed chunk).
        """
        if timeout is None:
            timeout = DEFAULT_CONTROL_TIMEOUT_SECONDS
        payload = self._post(
            "/v2/jobs",
            codec.job_request_to_wire(
                request, graph=self._graph_ref, page_size=page_size
            ),
            timeout=timeout,
        )
        status = codec.job_status_from_wire(payload)
        return RemoteJob(self, status.id)

    def cache_info(self) -> CacheInfo:
        """The server-side compiled-graph cache counters.

        Mirrors :meth:`MiningSession.cache_info`.  A session bound to a
        graph reference returns that graph's **per-graph** counters, so
        "a remote sweep of graph X compiled exactly once" holds even while
        other graphs are being compiled on the same server; an unbound
        (v1) session returns the global counters, as it always has.
        """
        stats = self.stats()
        if self._graph_ref is None:
            return self._cache_info_from(stats.get("cache"))
        info = self.graph_info()
        graphs = stats.get("graphs")
        if not isinstance(graphs, dict) or info.fingerprint not in graphs:
            raise ServiceError(
                f"stats payload has no per-graph counters for "
                f"{info.fingerprint[:12]}…"
            )
        return self._cache_info_from(graphs[info.fingerprint].get("cache"))

    @staticmethod
    def _cache_info_from(cache: object) -> CacheInfo:
        if not isinstance(cache, dict):
            raise ServiceError(f"malformed stats payload: cache={cache!r}")
        try:
            return CacheInfo(**cache)
        except TypeError as exc:
            raise ServiceError(f"malformed cache counters: {cache!r}") from exc

    def graph_info(self) -> GraphInfo:
        """The served graph's :class:`GraphInfo` (v2; any session may ask)."""
        ref = self._graph_ref
        if ref is None:
            health = self.health()
            graph = health.get("graph")
            if not isinstance(graph, dict):
                raise ServiceError("server has no default graph")
            ref = graph["fingerprint"]
        return codec.graph_info_from_wire(self._get(f"/v2/graphs/{ref}"))

    def __repr__(self) -> str:
        return (
            f"RemoteSession(base_url={self._base_url!r}, "
            f"graph={self._graph_ref!r})"
        )


class RemoteStore(_HttpClient):
    """The client mirror of :class:`~repro.api.store.GraphStore`.

    Usually constructed via :func:`connect`.  Every method round-trips
    through the ``/v2/graphs`` resource endpoints; graph references are
    registered names or fingerprints (unambiguous 8+-character prefixes
    accepted), exactly as on the server.
    """

    def __init__(
        self, base_url: str, *, timeout: float = DEFAULT_TIMEOUT_SECONDS
    ) -> None:
        super().__init__(base_url, timeout)

    # ------------------------------------------------------------------ #
    # The GraphStore-shaped surface
    # ------------------------------------------------------------------ #
    def add(self, graph: UncertainGraph, *, name: str | None = None) -> GraphInfo:
        """Upload a graph (lossless edge-set transfer) and register it.

        The graph travels as packed ``graph-columns``.
        """
        upload = codec.GraphUpload(graph=graph, name=name)
        return self.add_encoded(codec.encode(codec.upload_to_wire(upload, columns=True)))

    def add_encoded(self, body: bytes) -> GraphInfo:
        """Register a graph from an already serialised upload body.

        ``body`` is ``codec.encode(codec.upload_to_wire(upload, columns=True))``
        (or without ``columns``: the server decodes both forms).  A caller
        that ships one graph to several servers serialises it once and
        posts the same bytes to each.
        """
        return codec.graph_info_from_wire(self._post_body("/v2/graphs", body))

    def add_dataset(
        self,
        dataset: str,
        *,
        scale: float | None = None,
        seed: int | None = None,
        name: str | None = None,
    ) -> GraphInfo:
        """Have the *server* build a named Table 1 analog and register it.

        Only the dataset name and knobs travel — the graph is generated
        server-side, so registering ``dblp10`` does not ship two million
        edges over the wire.
        """
        upload = codec.GraphUpload(dataset=dataset, scale=scale, seed=seed, name=name)
        return codec.graph_info_from_wire(
            self._post("/v2/graphs", codec.upload_to_wire(upload))
        )

    def get(self, ref: str) -> GraphInfo:
        """Return one stored graph's info (404 → ``GraphNotFoundError``)."""
        return codec.graph_info_from_wire(self._get(f"/v2/graphs/{ref}"))

    def list(self) -> list[GraphInfo]:
        """Return every graph resident on the server."""
        return codec.graph_list_from_wire(self._get("/v2/graphs"))

    def remove(self, ref: str) -> GraphInfo:
        """Unregister a graph server-side; returns its final info."""
        return codec.graph_info_from_wire(self._delete(f"/v2/graphs/{ref}"))

    def session(self, ref: str | None = None) -> RemoteSession:
        """Open a :class:`RemoteSession` on the referenced graph.

        ``None`` returns a default-graph (v1) session — the drop-in
        equivalent of ``GraphStore.session()``.
        """
        return RemoteSession(self._base_url, graph=ref, timeout=self._timeout)

    def __contains__(self, ref: object) -> bool:
        # StoreError (not just GraphNotFoundError): an ambiguous prefix
        # answers False here exactly as GraphStore.__contains__ does —
        # transport failures still propagate as ServiceError.
        if not isinstance(ref, str):
            return False
        try:
            self.get(ref)
        except StoreError:
            return False
        return True

    def __repr__(self) -> str:
        return f"RemoteStore(base_url={self._base_url!r})"


def connect(
    url: str, *, timeout: float = DEFAULT_TIMEOUT_SECONDS
) -> RemoteStore:
    """Open a :class:`RemoteStore` on a running ``repro-mule serve``.

    The one-liner that makes remote hosting read like local code::

        session = connect("http://host:8765").session("ppi")
    """
    return RemoteStore(url, timeout=timeout)
