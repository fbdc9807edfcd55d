"""The asynchronous job pipeline: per-job state machines and paged results.

Every enumeration the service executes — including the synchronous
``/v1/enumerate`` path, which is now ``submit + await`` over this module —
runs as a :class:`Job`:

* a **persistent state machine** ``queued → running → done | failed |
  cancelled`` (terminal states stick; ``cancel()`` returning ``True``
  guarantees the job ends ``cancelled``, returning ``False`` guarantees the
  already-reached terminal state is untouched, so a cancel racing
  completion always settles deterministically);
* a **bounded page buffer with backpressure** — the producer thread cuts
  fixed-size pages, each one :class:`~repro.core.result.CliqueColumns`
  block, from the kernel's column blocks outside the job's lock, hands
  each over under the lock, and blocks once ``max_pending_pages`` pages
  are waiting, so a slow streaming consumer pauses the kernel instead of
  letting the server buffer an unbounded outcome.  Synchronous jobs use
  an unbounded buffer (their consumer is ``wait()``, which needs every
  page).  No
  :class:`~repro.core.result.CliqueRecord` is built on the server unless
  a reader asks for rows, so the finished jobs a registry retains keep
  columns, not one object per clique;
* a **live progress view** — the kernel mutates the job's
  :class:`~repro.core.engine.controls.RunReport` in place and only ever
  increments it, so :meth:`Job.progress` snapshots are monotonically
  non-decreasing without any extra synchronisation in the hot loop;
* **cooperative cancellation** — the job owns a
  :class:`~repro.core.engine.controls.CancellationToken` checked by the
  kernel on the run-controls cadence, before each clique is kept (by the
  C walk itself on the native kernel, through the token's one-byte flag)
  and by a producer blocked on a full buffer, so cancelling takes effect
  at the next clique, a backpressure-blocked producer wakes immediately,
  and the truncation is at a deterministic record count
  (``acked + max_pending_pages`` pages, for page_size-1 buffers).

:class:`JobRegistry` owns the id space, the retention policy and every
job count: terminal jobs stay fetchable (status and un-streamed results)
until the finished backlog exceeds ``max_finished``, then the oldest are
evicted — which is why an unknown id maps to
:class:`~repro.errors.JobNotFoundError` (HTTP 404), not a protocol error.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Iterator
from time import perf_counter

from ..api.outcome import EnumerationOutcome
from ..api.request import EnumerationRequest
from ..core.engine.controls import (
    CancellationToken,
    ProgressSnapshot,
    RunReport,
    StopReason,
)
from ..core.result import CliqueColumns, SearchStatistics
from ..errors import JobError, JobNotFoundError, ParameterError, ServiceError
from ..obs import MetricsRegistry
from .codec import JobChunk

__all__ = [
    "DEFAULT_MAX_PENDING_PAGES",
    "DEFAULT_PAGE_SIZE",
    "Job",
    "JobCancelled",
    "JobRegistry",
    "JobState",
]

#: Records per result page (and therefore per NDJSON chunk).
DEFAULT_PAGE_SIZE = 256

#: Pages a producer may have pending before it blocks (streaming jobs).
DEFAULT_MAX_PENDING_PAGES = 64

#: Terminal jobs retained by a registry before the oldest are evicted.
DEFAULT_MAX_FINISHED = 256


class JobState:
    """Job lifecycle states (string constants, mirroring ``StopReason``)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    ALL = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)
    TERMINAL = (DONE, FAILED, CANCELLED)


class JobCancelled(Exception):
    """Internal signal: a producer blocked on a full buffer was cancelled.

    Never escapes the scheduler's job runner — it only unwinds the
    enumeration loop so the job can settle into its ``cancelled`` state.
    """


class Job:
    """One enumeration's state machine, result buffer and progress view.

    Built by :meth:`JobRegistry.create`; driven by the scheduler's worker
    thread through the underscore-prefixed producer hooks; consumed by
    :meth:`wait` (synchronous await) or :meth:`stream_chunks` (paged
    streaming with cursor resume).
    """

    def __init__(
        self,
        job_id: str,
        request: EnumerationRequest,
        registry: "JobRegistry",
        *,
        page_size: int | None = None,
        max_pending_pages: int | None = None,
    ) -> None:
        page_size = DEFAULT_PAGE_SIZE if page_size is None else page_size
        if page_size < 1:
            raise ParameterError(f"page_size must be positive, got {page_size}")
        if max_pending_pages is not None and max_pending_pages < 1:
            raise ParameterError(
                f"max_pending_pages must be positive, got {max_pending_pages}"
            )
        self.id = job_id
        self.request = request
        self.statistics = SearchStatistics()
        self.report = RunReport()
        self._token = CancellationToken()
        self._cond = threading.Condition()
        self._state = JobState.QUEUED
        self._error: BaseException | None = None
        self._page_size = page_size
        self._max_pending = max_pending_pages
        self._pages: "OrderedDict[int, CliqueColumns]" = OrderedDict()
        self._next_seq = 0
        self._released = 0  # all pages below this seq have been streamed out
        self._records_total = 0
        self._draining = False
        self._started_at: float | None = None
        self._elapsed = 0.0
        self._algorithm = request.label
        self._alpha = request.alpha
        self._registry = registry

    # ------------------------------------------------------------------ #
    # Observer surface
    # ------------------------------------------------------------------ #
    @property
    def state(self) -> str:
        with self._cond:
            return self._state

    @property
    def error(self) -> BaseException | None:
        with self._cond:
            return self._error

    @property
    def records_total(self) -> int:
        """Records in the pages handed over so far (whole pages mid-run)."""
        with self._cond:
            return self._records_total

    @property
    def token(self) -> CancellationToken:
        """The cancellation token the kernel polls for this job."""
        return self._token

    def progress(self) -> ProgressSnapshot:
        """A monotonic snapshot of the live run counters."""
        with self._cond:
            if self._state in JobState.TERMINAL:
                elapsed = self._elapsed
            elif self._started_at is not None:
                elapsed = perf_counter() - self._started_at
            else:
                elapsed = 0.0
            return ProgressSnapshot(
                cliques_emitted=self.report.cliques_emitted,
                frames_expanded=self.report.frames_expanded,
                elapsed_seconds=elapsed,
            )

    # ------------------------------------------------------------------ #
    # Consumer surface
    # ------------------------------------------------------------------ #
    def cancel(self) -> bool:
        """Request cancellation; ``True`` iff the job will end ``cancelled``.

        A ``True`` return is a guarantee: the job's terminal state will be
        ``cancelled`` (with ``stop_reason`` provenance), even if the
        enumeration finishes its last record while the token propagates.
        ``False`` means a terminal state was already reached and stands.
        """
        with self._cond:
            if self._state in JobState.TERMINAL:
                return False
            self._token.cancel()
            if self._state == JobState.QUEUED:
                # Never ran: settle immediately as an empty cancelled
                # outcome (the worker observes ``_begin() == False``).
                self.report.stop_reason = StopReason.CANCELLED
                self._enter_locked(JobState.CANCELLED)
            self._cond.notify_all()
        return True

    def wait(self, timeout: float | None = None) -> EnumerationOutcome:
        """Block until terminal; return the assembled outcome or raise.

        Raises the job's error for ``failed`` jobs, and
        :class:`~repro.errors.JobError` if the timeout expires or the
        result pages were already streamed out and released.
        """
        with self._cond:
            if not self._cond.wait_for(
                lambda: self._state in JobState.TERMINAL, timeout
            ):
                raise JobError(
                    f"job {self.id} still {self._state} after {timeout}s"
                )
            if self._state == JobState.FAILED:
                assert self._error is not None
                raise self._error
            return self._assemble_locked()

    def stream_chunks(self, cursor: int = 0) -> Iterator[JobChunk]:
        """Stream result pages from ``cursor``, ending with a final chunk.

        Pages are **released** one step behind delivery: when the consumer
        asks for chunk ``seq + 1``, chunk ``seq`` is known to have been
        fully handed over, its page is dropped and a backpressure-blocked
        producer is woken.  A consumer that dies mid-chunk can therefore
        resume at its last unacknowledged cursor.  Requesting a cursor
        below the released floor raises :class:`~repro.errors.JobError`
        eagerly (before any chunk is produced).
        """
        with self._cond:
            self._check_cursor_locked(cursor)
        return self._stream_chunks(cursor)

    def _stream_chunks(self, cursor: int) -> Iterator[JobChunk]:
        seq = cursor
        while True:
            with self._cond:
                while True:
                    page = self._pages.get(seq)
                    if page is not None:
                        break
                    self._check_cursor_locked(seq)
                    if self._state in JobState.TERMINAL and seq >= self._next_seq:
                        break
                    self._cond.wait()
                if page is None:
                    if self._state == JobState.FAILED:
                        summary, error = None, self._error
                    else:
                        summary, error = self._summary_locked(), None
            if page is None:
                yield JobChunk(
                    job=self.id,
                    seq=seq,
                    records=(),
                    final=True,
                    summary=summary,
                    error=error,
                )
                return
            yield JobChunk(job=self.id, seq=seq, records=page, final=False)
            # Resumed: the previous chunk was fully delivered — ack it.
            self._release(seq)
            seq += 1

    # ------------------------------------------------------------------ #
    # Producer surface (scheduler worker thread)
    # ------------------------------------------------------------------ #
    def _begin(self) -> bool:
        """queued → running; ``False`` when the job was settled while queued."""
        with self._cond:
            if self._state != JobState.QUEUED:
                return False
            self._started_at = perf_counter()
            self._enter_locked(JobState.RUNNING)
        return True

    def _hand_over(self, page: CliqueColumns) -> None:
        """Buffer one filled page, honouring backpressure.

        The producer fills each page outside the lock (the token is read
        before each clique is kept) and hands it over here, under the
        lock once per page.  Raises :class:`JobCancelled` when the token
        is cancelled while the buffer is full — at once, or while blocked
        on it — and :class:`~repro.errors.ServiceError` when the server
        drains under a blocked producer (the job then settles as
        ``failed``).  The page itself is kept either way.
        """
        with self._cond:
            self._flush_locked(page)
            parked_at: "float | None" = None
            try:
                while (
                    self._max_pending is not None
                    and len(self._pages) >= self._max_pending
                ):
                    if self._token.cancelled:
                        raise JobCancelled
                    if self._draining:
                        raise ServiceError("server shutdown")
                    if parked_at is None:
                        parked_at = perf_counter()
                    self._cond.wait()
            finally:
                if parked_at is not None:
                    self._registry._park_seconds.observe(
                        perf_counter() - parked_at
                    )

    def _finish(self) -> None:
        """running → done (or cancelled, when the token was accepted)."""
        with self._cond:
            if self._started_at is not None:
                self._elapsed = perf_counter() - self._started_at
            # Reconcile the count of an abandoned run with what was kept:
            # the native kernel counts a whole step's cliques before they
            # are paged, and the python kernel counts each clique only when
            # resumed *after* its yield.
            self.report.cliques_emitted = self._records_total
            if self._token.cancelled:
                self.report.stop_reason = StopReason.CANCELLED
                self._enter_locked(JobState.CANCELLED)
            else:
                self._enter_locked(JobState.DONE)

    def _adopt(self, outcome: EnumerationOutcome) -> None:
        """Finish a buffered (non-streamable) run from its whole outcome.

        Used for ``top_k`` (ranked output ≠ stream order) and parallel
        requests: the outcome's column block is paged for streaming
        consumers and the outcome's own counters/labels become the job's.
        """
        pages = outcome.clique_columns.split(self._page_size)
        with self._cond:
            for page in pages:
                self._flush_locked(page)
            self.statistics = outcome.statistics
            self.report = outcome.report
            self._algorithm = outcome.algorithm
            self._alpha = outcome.alpha
            self._elapsed = outcome.elapsed_seconds
            if self._token.cancelled:
                self.report.stop_reason = StopReason.CANCELLED
                self._enter_locked(JobState.CANCELLED)
            else:
                self._enter_locked(JobState.DONE)

    def _fail(self, error: BaseException) -> bool:
        """Transition to failed unless already terminal; ``True`` on change."""
        with self._cond:
            if self._state in JobState.TERMINAL:
                return False
            if self._started_at is not None:
                self._elapsed = perf_counter() - self._started_at
            self._error = error
            self._enter_locked(JobState.FAILED)
        return True

    def _shutdown(self) -> None:
        """Drain-mode nudge: fail queued jobs, unblock stalled producers.

        Running jobs whose producer is not blocked are left alone to
        finish; a producer blocked on a full buffer (its consumer is gone)
        wakes up and fails with ``ServiceError("server shutdown")``.
        """
        with self._cond:
            if self._state == JobState.QUEUED:
                self._error = ServiceError("server shutdown")
                self._enter_locked(JobState.FAILED)
            elif self._state == JobState.RUNNING:
                self._draining = True
            else:
                # Terminal (done/failed/cancelled): the outcome stands;
                # the notify_all below still wakes any parked consumer.
                pass
            self._cond.notify_all()

    # ------------------------------------------------------------------ #
    # Internals (all called with the condition held)
    # ------------------------------------------------------------------ #
    def _enter_locked(self, state: str) -> None:
        """Move to ``state``, counting the transition before waiters wake."""
        source, self._state = self._state, state
        self._registry._note(source, state)
        self._cond.notify_all()

    def _flush_locked(self, page: CliqueColumns) -> None:
        if self._next_seq == 0 and self._started_at is not None:
            self._registry._first_result_seconds.observe(
                perf_counter() - self._started_at
            )
        self._pages[self._next_seq] = page
        self._next_seq += 1
        self._records_total += len(page)
        self._cond.notify_all()

    def _release(self, seq: int) -> None:
        with self._cond:
            if self._pages.pop(seq, None) is not None:
                self._released = max(self._released, seq + 1)
                self._cond.notify_all()

    def _check_cursor_locked(self, cursor: int) -> None:
        if cursor < 0:
            raise JobError(f"cursor must be non-negative, got {cursor}")
        if cursor < self._released:
            raise JobError(
                f"cursor {cursor} precedes the released floor "
                f"{self._released} of job {self.id}; streamed pages are "
                f"discarded once acknowledged"
            )

    def _summary_locked(self) -> EnumerationOutcome:
        return EnumerationOutcome(
            algorithm=self._algorithm,
            alpha=self._alpha,
            records=[],
            statistics=self.statistics,
            report=self.report,
            elapsed_seconds=self._elapsed,
            request=self.request,
        )

    def _assemble_locked(self) -> EnumerationOutcome:
        if self._released:
            raise JobError(
                f"job {self.id} streamed and released its first "
                f"{self._released} page(s); reassemble from the stream "
                f"instead of wait()"
            )
        outcome = self._summary_locked()
        outcome.records = CliqueColumns.concat(self._pages.values())
        return outcome

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Job(id={self.id!r}, state={self.state!r}, "
            f"records={self.records_total})"
        )


class JobRegistry:
    """Id space, lookup, retention policy and counts of :class:`Job` instances.

    Thread-safe, and the one owner of every job count: jobs per state
    (queued and running are live levels; terminal counts are cumulative,
    so eviction never lowers them) and transitions by destination state.
    A job records each transition under its own condition, so a caller
    woken by :meth:`Job.wait` already sees it counted; the only lock
    order is job → registry.  The ``jobs_*`` series go on ``metrics``.
    """

    def __init__(
        self, metrics: MetricsRegistry, *, max_finished: int = DEFAULT_MAX_FINISHED
    ) -> None:
        if max_finished < 1:
            raise ParameterError(
                f"max_finished must be positive, got {max_finished}"
            )
        self._lock = threading.Lock()
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._counter = 0
        self._started = 0
        self._states = dict.fromkeys(JobState.ALL, 0)
        self._max_finished = max_finished
        metrics.counter(
            "jobs_transitions_total",
            "Job state-machine transitions by destination state.",
            labelnames=("state",),
            read=self._transitions,
        )
        self._first_result_seconds = metrics.histogram(
            "jobs_time_to_first_result_seconds",
            "Wall seconds from job start to its first flushed result page.",
        )
        self._park_seconds = metrics.histogram(
            "jobs_backpressure_park_seconds",
            "Wall seconds producers spent parked on a full result buffer.",
        )

    def create(
        self,
        request: EnumerationRequest,
        *,
        page_size: int | None = None,
        max_pending_pages: int | None = None,
    ) -> Job:
        with self._lock:
            self._counter += 1
            job_id = f"job-{self._counter:06d}"
            job = Job(
                job_id,
                request,
                self,
                page_size=page_size,
                max_pending_pages=max_pending_pages,
            )
            self._states[JobState.QUEUED] += 1
            self._jobs[job_id] = job
        return job

    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise JobNotFoundError(f"no such job: {job_id!r}")
        return job

    def list(self) -> list[Job]:
        with self._lock:
            return list(self._jobs.values())

    def drain(self) -> None:
        """Shutdown sweep: fail queued jobs, unblock stalled producers."""
        for job in self.list():
            job._shutdown()

    def counts(self) -> dict[str, int]:
        """Jobs per state (live states exact, terminal cumulative).

        Every job ever created is in exactly one state, so the values sum
        to the jobs created.
        """
        with self._lock:
            return dict(self._states)

    def _transitions(self) -> dict[tuple, int]:
        with self._lock:
            entered = {(state,): self._states[state] for state in JobState.TERMINAL}
            entered[(JobState.RUNNING,)] = self._started
        return entered

    def _note(self, source: str, state: str) -> None:
        """Count one job's ``source → state`` transition (job → registry)."""
        with self._lock:
            self._states[source] -= 1
            self._states[state] += 1
            if state == JobState.RUNNING:
                self._started += 1
                return
            finished = [
                job_id
                for job_id, job in self._jobs.items()
                if job._state in JobState.TERMINAL
            ]
            excess = len(finished) - self._max_finished
            for job_id in finished[: max(excess, 0)]:
                del self._jobs[job_id]

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)
