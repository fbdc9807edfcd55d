"""Concurrent request scheduling over a shared graph store.

:class:`EnumerationScheduler` is the execution layer between the HTTP
server and the session API: requests run on a bounded thread pool, and the
sessions live in one :class:`~repro.api.store.GraphStore`, all behind one
shared :class:`~repro.api.cache.CompiledGraphCache`.  The scheduler only
queues jobs.  Every other decision has one owner elsewhere: the cache
single-flights concurrent compilations of one (fingerprint, compile
options) key, the session picks the base a batch derives from, and the
request names its engine kernel.

The scheduler is graph-agnostic: it holds no graph of its own.  Every
submission names its target — a store reference (``ref="ppi"`` / a
fingerprint), an ad-hoc graph object (registered in the store on first
use), or nothing at all, which resolves to the store's *default* graph
(how the frozen ``/v1`` wire surface keeps serving its one implicit
graph).

The scheduler never forks: a parallel request runs its shards in-process
on its pool thread, because forking a process whose other threads may hold
locks hands the children those locks held.  An explicit
``backend="process"`` is refused with :class:`~repro.errors.ParameterError`.

Execution is job-shaped all the way down (see :mod:`repro.service.jobs`):
:meth:`submit_job` registers a :class:`~repro.service.jobs.Job` — state
machine, paged result buffer, cancellation token — and the synchronous
:meth:`submit`/:meth:`run`/:meth:`batch`/:meth:`sweep` surface is
``submit + job.wait()`` over that same pipeline with an unbounded buffer,
so sync and async callers exercise one execution path.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Sequence
from concurrent.futures import CancelledError, ThreadPoolExecutor
from dataclasses import replace
from typing import NamedTuple

from ..api.cache import CacheInfo
from ..api.outcome import EnumerationOutcome
from ..api.request import EnumerationRequest
from ..api.session import MiningSession
from ..api.store import GraphStore
from ..errors import ParameterError, ServiceError
from ..obs import MetricsRegistry, registry as _obs_registry
from ..uncertain.graph import UncertainGraph
from .jobs import DEFAULT_MAX_PENDING_PAGES, Job, JobCancelled, JobRegistry, JobState

__all__ = ["EnumerationScheduler", "SchedulerStats"]

#: Default size of the request thread pool.  The vector kernel releases the
#: GIL while it walks, so two jobs' kernels overlap on two cores; the rest
#: of a job (collection, encoding) is Python and holds it.  A small pool
#: keeps queueing behaviour predictable.
DEFAULT_MAX_WORKERS = 4


class SchedulerStats(NamedTuple):
    """A snapshot of scheduler load and effectiveness counters.

    Every job count is read from the job registry: ``submitted`` counts
    jobs created (a submission the executor refused included);
    ``queued`` and ``inflight`` are the jobs now queued and running; and
    ``done``, ``failed`` and ``cancelled`` are cumulative terminal counts,
    with ``completed = done + cancelled``.  A job drained while queued
    counts as failed.  ``single_flight_waits`` is read from the store's
    cache: lookups that waited for another thread's build of their key
    instead of repeating it.  ``sessions`` is the number of graphs
    resident in the backing store.
    """

    submitted: int
    completed: int
    failed: int
    done: int
    cancelled: int
    inflight: int
    queued: int
    single_flight_waits: int
    max_workers: int
    sessions: int


class EnumerationScheduler:
    """A bounded thread pool running enumeration requests over a store.

    Parameters
    ----------
    target:
        What this scheduler serves: a :class:`GraphStore` (multi-graph
        hosting — the scheduler adopts it), an
        :class:`~repro.uncertain.graph.UncertainGraph` (the classic
        single-graph form; a private store is created around it), or
        ``None`` (an empty private store — graphs arrive per call or via
        :attr:`store`).
    max_workers:
        Thread-pool bound (default :data:`DEFAULT_MAX_WORKERS`).

    :attr:`metrics` is this scheduler's registry, layered over the process
    registry; its series read the counts their owners keep.
    """

    def __init__(
        self,
        target: "GraphStore | UncertainGraph | None" = None,
        *,
        max_workers: int | None = None,
    ) -> None:
        if max_workers is None:
            max_workers = DEFAULT_MAX_WORKERS
        if max_workers < 1:
            raise ParameterError(f"max_workers must be positive, got {max_workers}")
        self._max_workers = max_workers
        if isinstance(target, GraphStore):
            self._store = target
        elif isinstance(target, UncertainGraph):
            self._store = GraphStore()
            self._store.add(target, pin=True)
        elif target is None:
            self._store = GraphStore()
        else:
            raise ParameterError(
                f"scheduler target must be a GraphStore or UncertainGraph, "
                f"got {type(target).__name__}"
            )
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-enumerate"
        )
        self.metrics = MetricsRegistry(parent=_obs_registry())
        self._registry = JobRegistry(self.metrics)
        self._lock = threading.Lock()
        self._closed = False
        self.metrics.counter(
            "sched_jobs_submitted_total",
            "Jobs accepted by the scheduler.",
            read=lambda: {(): self.stats().submitted},
        )
        self.metrics.gauge(
            "sched_queue_depth",
            "Submitted jobs no pool worker has picked up yet.",
            read=lambda: {(): self.stats().queued},
        )
        self.metrics.gauge(
            "sched_inflight_jobs",
            "Jobs currently executing on the pool.",
            read=lambda: {(): self.stats().inflight},
        )
        self.metrics.counter(
            "sched_single_flight_waits_total",
            "Cache lookups that waited for another thread's build of their key.",
            read=lambda: {(): self.stats().single_flight_waits},
        )
        self.metrics.counter(
            "cache_lookups_total",
            "Compiled-graph cache lookups by outcome (hit/derive/compile).",
            labelnames=("outcome",),
            read=self._cache_lookups,
        )

    # ------------------------------------------------------------------ #
    # Sessions
    # ------------------------------------------------------------------ #
    @property
    def store(self) -> GraphStore:
        """The graph store owning every session this scheduler runs over."""
        return self._store

    @property
    def session(self) -> MiningSession:
        """The default graph's session (raises ``StoreError`` when empty)."""
        return self._store.session(None)

    @property
    def graph(self) -> UncertainGraph:
        """The default graph."""
        return self.session.graph

    def session_for(
        self, graph: UncertainGraph | None, ref: str | None = None
    ) -> MiningSession:
        """Resolve a submission target to its session.

        ``ref`` (store name/fingerprint) wins over ``graph`` (an ad-hoc
        object, registered in the store on first use); both ``None``
        resolves to the default graph.  Sessions are keyed by content
        fingerprint, so two equal graphs share one session — and two
        different graphs can never share artifacts, however interleaved
        their requests are.
        """
        if ref is not None:
            return self._store.session(ref)
        if graph is not None:
            return self._store.ensure(graph)
        return self._store.session(None)

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(
        self,
        request: EnumerationRequest,
        *,
        graph: UncertainGraph | None = None,
        ref: str | None = None,
    ) -> Job:
        """Queue one request as a job that retains every result page.

        This is :meth:`submit_job` with an *unbounded* result buffer, which
        :meth:`Job.wait` needs to assemble the outcome: the synchronous
        surface is a thin await over the pipeline the async endpoints use.
        """
        return self.submit_job(request, graph=graph, ref=ref, max_pending_pages=None)

    def submit_job(
        self,
        request: EnumerationRequest,
        *,
        graph: UncertainGraph | None = None,
        ref: str | None = None,
        page_size: int | None = None,
        max_pending_pages: int | None = DEFAULT_MAX_PENDING_PAGES,
    ) -> Job:
        """Register and queue one request as a :class:`Job`.

        ``max_pending_pages`` bounds the result buffer (``None`` retains
        every page, which synchronous awaiting requires); streaming
        consumers keep the default bound so a slow reader pauses the
        producer instead of growing the server heap.
        """
        if request.parallel and request.backend == "process":
            raise ParameterError(
                "backend='process' is not served: a server never forks; "
                "use backend='auto' or 'inline'"
            )
        session = self.session_for(graph, ref)
        # Closed-check, registration and executor hand-off are one atomic
        # step under the scheduler lock: shutdown() takes the same lock to
        # flip _closed, so a submission racing a drain either fails the
        # closed-check up front or lands before the drain sweep — it can
        # never register a job the sweep has already passed over (a zombie
        # stuck queued forever).
        with self._lock:
            if self._closed:
                raise ServiceError("server shutdown: not accepting new jobs")
            job = self._registry.create(
                request, page_size=page_size, max_pending_pages=max_pending_pages
            )
            try:
                self._executor.submit(self._run_job, session, job)
            except RuntimeError as exc:
                # The executor refused (interpreter/executor shutdown via a
                # path that bypassed _closed): settle the job as failed so
                # it can never sit queued forever, then surface the
                # refusal in service terms.
                job._shutdown()
                raise ServiceError(
                    "server shutdown: not accepting new jobs"
                ) from exc
        return job

    def run(
        self,
        request: EnumerationRequest,
        *,
        graph: UncertainGraph | None = None,
        ref: str | None = None,
    ) -> EnumerationOutcome:
        """Run one request through the pool and block for its outcome."""
        return self.submit(request, graph=graph, ref=ref).wait()

    def batch(
        self,
        requests: Iterable[EnumerationRequest],
        *,
        graph: UncertainGraph | None = None,
        ref: str | None = None,
    ) -> list[EnumerationOutcome]:
        """Run many requests concurrently, sharing one compilation.

        Mirrors :meth:`MiningSession.batch`: :meth:`MiningSession.prepare`
        builds one derivation base before any job starts, so N concurrent
        α points cost one compilation plus cheap per-α derivations.  The
        base compile runs *on the pool* — compilation is the expensive step
        ``max_workers`` exists to bound, so it must not run on the
        (unbounded) calling thread.  Outcomes are returned in request order.
        """
        requests = list(requests)
        session = self.session_for(graph, ref)
        try:
            self._executor.submit(session.prepare, requests).result()
        except CancelledError:
            raise ServiceError("server shutdown") from None
        jobs = [self.submit(request, graph=graph, ref=ref) for request in requests]
        return [job.wait() for job in jobs]

    def sweep(
        self,
        alphas: Sequence[float],
        *,
        algorithm: str = "mule",
        graph: UncertainGraph | None = None,
        ref: str | None = None,
        **options: object,
    ) -> list[EnumerationOutcome]:
        """Run one request per α concurrently over a single compilation."""
        requests = [
            EnumerationRequest(algorithm=algorithm, alpha=alpha, **options)
            for alpha in alphas
        ]
        return self.batch(requests, graph=graph, ref=ref)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _run_job(self, session: MiningSession, job: Job) -> None:
        try:
            if job._begin():
                self._execute(session, job)
        except BaseException as exc:
            job._fail(exc)

    def _execute(self, session: MiningSession, job: Job) -> None:
        """Drive one running job to a terminal state.

        Streamable requests (serial, unranked) fill the job's pages from
        the kernel's column blocks (:meth:`MiningSession._pages`), with
        the job's token checked in the kernel (run-controls cadence),
        before each clique is kept (in C on the native kernel) and while
        a producer is blocked on a full buffer.
        Ranked/parallel requests materialise through
        :meth:`MiningSession.enumerate`, parallel shards in-process, and
        adopt the outcome whole.
        """
        request = job.request
        if self._streamable(request):
            pages = session._pages(
                request, job.statistics, job.report, job.token, job._page_size
            )
            try:
                for page in pages:
                    job._hand_over(page)
            except JobCancelled:
                pass
            finally:
                pages.close()
            job._finish()
        elif job.token.cancelled:
            job._finish()  # cancelled before the buffered run started
        else:
            job._adopt(session.enumerate(replace(request, backend="inline")))

    @staticmethod
    def _streamable(request: EnumerationRequest) -> bool:
        """Serial single-process requests stream; ranked/parallel buffer.

        ``top_k`` output is ranked (stream order would not match the
        outcome), and parallel requests merge shards — both run through
        the materialising path and page their records at completion.
        """
        return not request.parallel and request.algorithm != "top_k"

    # ------------------------------------------------------------------ #
    # Introspection and lifecycle
    # ------------------------------------------------------------------ #
    @property
    def jobs(self) -> JobRegistry:
        """The job registry (lookup, listing, per-state counts)."""
        return self._registry

    def stats(self) -> SchedulerStats:
        """Return the current :class:`SchedulerStats` snapshot."""
        counts = self._registry.counts()
        return SchedulerStats(
            submitted=sum(counts.values()),
            completed=counts[JobState.DONE] + counts[JobState.CANCELLED],
            failed=counts[JobState.FAILED],
            done=counts[JobState.DONE],
            cancelled=counts[JobState.CANCELLED],
            inflight=counts[JobState.RUNNING],
            queued=counts[JobState.QUEUED],
            single_flight_waits=self._store.cache.single_flight_waits(),
            max_workers=self._max_workers,
            sessions=len(self._store),
        )

    def cache_info(self) -> CacheInfo:
        """Hit/miss/compilation/derivation counters of the shared cache."""
        return self._store.cache_info()

    def _cache_lookups(self) -> dict[tuple, int]:
        info = self._store.cache_info()
        return {
            ("hit",): info.hits,
            ("derive",): info.derivations,
            ("compile",): info.compilations,
        }

    def shutdown(self, *, wait: bool = True, drain: bool = False) -> None:
        """Stop accepting work and (optionally) wait for running jobs.

        ``drain=True`` is the server-shutdown mode: queued jobs settle as
        ``failed("server shutdown")`` without running, producers blocked
        on a full result buffer (their consumer is gone) are woken to fail
        the same way, and unstarted executor callables are cancelled.
        Running jobs that are not blocked finish normally.
        """
        with self._lock:
            self._closed = True
        if drain:
            self._registry.drain()
        self._executor.shutdown(wait=wait, cancel_futures=drain)

    def __enter__(self) -> "EnumerationScheduler":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"EnumerationScheduler(max_workers={stats.max_workers}, "
            f"sessions={stats.sessions}, submitted={stats.submitted}, "
            f"inflight={stats.inflight})"
        )
