"""The distributed enumeration coordinator.

:class:`DistributedSession` fans one enumeration out across a fleet of
``repro-mule serve`` workers and merges the shard outcomes back into a
single :class:`~repro.api.outcome.EnumerationOutcome` that is
**bit-identical to serial MULE** on the same graph: same clique set with
the same probabilities, search counters summed across shards, stop-reason
provenance merged under the precedence of :mod:`repro.parallel.runner`.

The pipeline per :meth:`DistributedSession.enumerate` call:

1. compile the graph locally (cache-backed) and plan root shards with the
   degree-weighted :class:`~repro.parallel.planner.ShardPlanner` — the
   same partition primitive the in-process parallel path uses, so shard
   union = serial output holds by construction;
2. serialise the graph once per session and send those bytes
   concurrently to the workers the first round-robin pass gives shards
   to, and to no idle worker (``POST /v2/graphs`` is content-keyed and
   idempotent by fingerprint, so re-runs and shared workers cost one
   upload each);
3. submit every shard as an asynchronous job (``POST /v2/jobs``) whose
   request carries the shard's root vertices in the additive v2
   ``root_shard`` field, round-robin over the usable workers;
4. await the jobs and merge, in shard-index order for determinism.

Robustness: a shard whose worker fails mid-flight (submit or stream) is
reassigned to the next usable worker with capped exponential backoff and
at-most-once merging (a shard id enters the merge exactly once, no matter
how many submissions it took).  Failures are reported to the
:class:`~repro.distributed.pool.WorkerPool`, so repeat offenders degrade
to *dead* and leave the rotation.  When no usable worker remains, the run
raises :class:`~repro.errors.DegradedError`; when a single shard exhausts
its attempt budget while workers remain, the last transport error
propagates as :class:`~repro.errors.ServiceError`.  :meth:`cancel` fans
cooperative cancellation out to every in-flight job.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

from ..api.outcome import EnumerationOutcome
from ..api.request import EnumerationRequest
from ..api.session import MiningSession
from ..core.engine.compiled import CompiledGraph
from ..core.engine.controls import RunReport, StopReason
from ..core.result import CliqueRecord, SearchStatistics, Stopwatch
from ..errors import DegradedError, ParameterError, ServiceError
from ..obs import registry as _obs_registry
from ..parallel.planner import Shard, ShardPlanner
from ..parallel.runner import _merge_stop_reasons, _strongest
from ..service import codec
from ..service.client import (
    DEFAULT_TIMEOUT_SECONDS,
    RemoteJob,
    RemoteSession,
    RemoteStore,
)
from ..uncertain.graph import UncertainGraph
from .pool import WorkerPool

__all__ = [
    "DEFAULT_MAX_ATTEMPTS",
    "DEFAULT_RETRY_BACKOFF_CAP_SECONDS",
    "DEFAULT_RETRY_BACKOFF_SECONDS",
    "DistributedSession",
]

#: Submissions allowed per shard before its last error propagates.
DEFAULT_MAX_ATTEMPTS = 3

#: First retry delay; doubles per subsequent attempt of the same shard.
DEFAULT_RETRY_BACKOFF_SECONDS = 0.05

#: Upper bound on the per-retry delay.
DEFAULT_RETRY_BACKOFF_CAP_SECONDS = 2.0

#: Default oversubscription: shards per usable worker.  More shards than
#: workers lets reassignment move work in units smaller than "half the
#: graph" when a worker dies.
_SHARDS_PER_WORKER = 2

_DIST_SHARD_ATTEMPTS = _obs_registry().counter(
    "dist_shard_attempts_total", "Shard placements accepted by a worker."
)
_DIST_SHARD_RETRIES = _obs_registry().counter(
    "dist_shard_retries_total",
    "Shard placements that were retries of an earlier failed attempt.",
)


class DistributedSession:
    """Enumerate one graph across a fleet of remote workers.

    Parameters
    ----------
    graph:
        The uncertain graph to mine.  It is compiled locally for shard
        planning and shipped to each worker over the wire.
    workers:
        A :class:`~repro.distributed.pool.WorkerPool` (shared, caller owns
        its lifecycle) or an iterable of worker base URLs (a private pool
        is created and closed with the session).
    num_shards:
        Shard count override; default ``2 × usable workers`` (a request's
        own ``num_shards`` field wins over both).
    max_attempts:
        Submissions allowed per shard before giving up.
    retry_backoff_seconds / retry_backoff_cap_seconds:
        Capped exponential delay between retries of the same shard.
    page_size:
        Result-page granularity forwarded to each worker job.
    timeout:
        Data-plane socket timeout per worker call.
    """

    def __init__(
        self,
        graph: UncertainGraph,
        workers: "WorkerPool | Iterable[str]",
        *,
        num_shards: int | None = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        retry_backoff_seconds: float = DEFAULT_RETRY_BACKOFF_SECONDS,
        retry_backoff_cap_seconds: float = DEFAULT_RETRY_BACKOFF_CAP_SECONDS,
        page_size: int | None = None,
        timeout: float = DEFAULT_TIMEOUT_SECONDS,
    ) -> None:
        if max_attempts < 1:
            raise ParameterError(f"max_attempts must be positive, got {max_attempts}")
        if num_shards is not None and num_shards < 1:
            raise ParameterError(f"num_shards must be positive, got {num_shards}")
        if retry_backoff_seconds < 0 or retry_backoff_cap_seconds < 0:
            raise ParameterError("retry backoff delays must be non-negative")
        self._graph = graph
        if isinstance(workers, WorkerPool):
            self._pool = workers
            self._owns_pool = False
        else:
            self._pool = WorkerPool(workers)
            self._owns_pool = True
        if not len(self._pool):
            raise ParameterError("a distributed session needs at least one worker")
        self._num_shards = num_shards
        self._max_attempts = max_attempts
        self._backoff = retry_backoff_seconds
        self._backoff_cap = retry_backoff_cap_seconds
        self._page_size = page_size
        self._timeout = timeout
        self._local = MiningSession(graph)
        self._body: bytes | None = None
        # Coordinator state shared with cancel() callers and upload
        # threads; everything below is written only under the lock.
        self._lock = threading.Lock()
        self._cancelled = False
        self._active: dict[int, RemoteJob] = {}
        self._uploaded: dict[str, str] = {}

    @property
    def pool(self) -> WorkerPool:
        """The worker pool backing this session."""
        return self._pool

    # ------------------------------------------------------------------ #
    # The MiningSession-shaped surface
    # ------------------------------------------------------------------ #
    def enumerate(self, request: EnumerationRequest) -> EnumerationOutcome:
        """Fan ``request`` out over the fleet and merge the shard outcomes.

        The merged outcome satisfies
        ``outcome.assert_matches(serial_outcome)`` for an untruncated run:
        identical cliques and probabilities, summed counters, merged stop
        reason.  Records are concatenated in shard-index order (the
        deterministic analog of the in-process parallel merge).
        """
        self._check_request(request)
        with self._lock:
            self._cancelled = False
            self._active = {}
        statistics = SearchStatistics()
        report = RunReport()
        records: list[CliqueRecord] = []
        with Stopwatch() as timer:
            if self._graph.num_vertices > 0:
                outcomes = self._run(request)
                for index in sorted(outcomes):
                    shard_outcome = outcomes[index]
                    statistics = statistics.merge(shard_outcome.statistics)
                    records.extend(shard_outcome.records)
                # Every shard kernel that ran counted its own root frame,
                # where one serial run counts exactly one; deduplicate the
                # extras so the summed counters are bit-identical to serial
                # MULE (a kernel that ran always has >= 1 recursive call —
                # shards cancelled before starting contribute zeros and no
                # root frame).
                started = sum(
                    1
                    for outcome in outcomes.values()
                    if outcome.statistics.recursive_calls > 0
                )
                if started > 1:
                    statistics.recursive_calls -= started - 1
                stop = _merge_stop_reasons(
                    outcomes[index].stop_reason for index in sorted(outcomes)
                )
                with self._lock:
                    if self._cancelled:
                        stop = _strongest(stop, StopReason.CANCELLED)
                max_cliques = (
                    request.controls.max_cliques if request.controls else None
                )
                if max_cliques is not None and len(records) > max_cliques:
                    # Mirror the in-process parallel merge: the cap binds on
                    # the merged, sorted records; truncation anywhere still
                    # outranks it under the merge precedence.
                    records = sorted(records)[:max_cliques]
                    stop = _strongest(stop, StopReason.MAX_CLIQUES)
                report.stop_reason = stop
                report.cliques_emitted = len(records)
        return EnumerationOutcome(
            algorithm="distributed-mule",
            alpha=request.alpha,
            records=records,
            statistics=statistics,
            report=report,
            elapsed_seconds=timer.elapsed,
            request=request,
        )

    def cancel(self) -> None:
        """Cooperatively cancel the in-flight run: fan-out to every job.

        Safe from any thread.  Workers finish their shards with
        ``cancelled`` provenance; the merged outcome reports
        ``stop_reason="cancelled"`` with whatever records were already
        emitted.
        """
        with self._lock:
            self._cancelled = True
            jobs = list(self._active.values())
        for job in jobs:
            try:
                job.cancel()
            except ServiceError:
                # A vanished worker's job needs no cancellation; its shard
                # is not resubmitted once the run is cancelled.
                pass

    def close(self) -> None:
        """Release the session (closes a privately-owned pool)."""
        if self._owns_pool:
            self._pool.close()

    def __enter__(self) -> "DistributedSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # The fan-out pipeline
    # ------------------------------------------------------------------ #
    def _run(self, request: EnumerationRequest) -> dict[int, EnumerationOutcome]:
        compiled = self._local.compiled(alpha=request.compile_alpha())
        urls = self._pool.usable_urls()
        if not urls:
            raise DegradedError("no usable worker remains in the pool")
        num_shards = (
            request.num_shards
            or self._num_shards
            or max(1, _SHARDS_PER_WORKER * len(urls))
        )
        shards = ShardPlanner(num_shards).plan(compiled)
        attempts = {shard.index: 0 for shard in shards}
        last_errors: dict[int, ServiceError] = {}
        active: dict[int, tuple[str, RemoteJob]] = {}
        merged: dict[int, EnumerationOutcome] = {}
        rotation = 0

        # The first round-robin pass places shard i on urls[i]: ship the
        # graph to exactly those workers, all at once, before any submit.
        first_pass = urls[: len(shards)]
        failed = self._upload_concurrently(first_pass)
        for shard, url in zip(shards, first_pass):
            if url in failed:
                last_errors[shard.index] = failed[url]

        def submit(shard: Shard) -> bool:
            """Place ``shard`` on some usable worker; False once cancelled.

            ``max_attempts`` bounds successful *placements* (a placement
            whose stream later dies consumes one attempt); submissions that
            fail outright only mark the worker, so a dying box cannot eat a
            shard's whole budget — the loop still terminates because every
            failed contact pushes some worker toward *dead*, and an empty
            rotation raises :class:`~repro.errors.DegradedError`.
            """
            nonlocal rotation
            while True:
                with self._lock:
                    if self._cancelled:
                        return False
                workers = self._pool.usable_urls()
                if not workers:
                    raise DegradedError(
                        f"no usable worker remains to run shard "
                        f"{shard.index} (last error: "
                        f"{last_errors.get(shard.index)})"
                    )
                attempt = attempts[shard.index]
                if attempt >= self._max_attempts:
                    raise ServiceError(
                        f"shard {shard.index} failed after {attempt} "
                        f"attempt(s): {last_errors.get(shard.index)}"
                    )
                if attempt > 0:
                    time.sleep(self._retry_delay(attempt))
                url = workers[rotation % len(workers)]
                rotation += 1
                try:
                    fingerprint = self._ensure_uploaded(url)
                    session = RemoteSession(
                        url, graph=fingerprint, timeout=self._timeout
                    )
                    job = session.submit(
                        self._shard_request(request, compiled, shard),
                        page_size=self._page_size,
                    )
                except ServiceError as exc:
                    last_errors[shard.index] = exc
                    self._pool.mark_failure(url, exc)
                    continue
                attempts[shard.index] = attempt + 1
                _DIST_SHARD_ATTEMPTS.inc()
                if attempt > 0:
                    _DIST_SHARD_RETRIES.inc()
                active[shard.index] = (url, job)
                with self._lock:
                    self._active[shard.index] = job
                return True

        # Fan out every shard up-front: the jobs run concurrently across
        # the fleet while this coordinator awaits them in shard order.  A
        # run that aborts (no workers left, retry budget blown) first fans
        # cancellation out to whatever is still in flight.
        try:
            for shard in shards:
                submit(shard)
            for shard in shards:
                while shard.index not in merged:
                    assignment = active.get(shard.index)
                    if assignment is None:
                        # Submission was skipped (cancelled): synthesise the
                        # empty cancelled outcome so the merge stays total.
                        merged[shard.index] = _cancelled_outcome(request)
                        break
                    url, job = assignment
                    try:
                        outcome = job.wait()
                    except ServiceError as exc:
                        # The worker died mid-shard: report it, drop the
                        # assignment and resubmit elsewhere (at-most-once
                        # merge holds — the failed job contributed nothing).
                        last_errors[shard.index] = exc
                        self._pool.mark_failure(url, exc)
                        active.pop(shard.index, None)
                        with self._lock:
                            self._active.pop(shard.index, None)
                        submit(shard)
                        continue
                    with self._lock:
                        self._active.pop(shard.index, None)
                    merged[shard.index] = outcome
        except ServiceError:
            # DegradedError included: release the fleet before propagating.
            self.cancel()
            raise
        return merged

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _check_request(self, request: EnumerationRequest) -> None:
        if request.algorithm not in ("mule", "fast"):
            raise ParameterError(
                f"distributed enumeration supports mule/fast only, "
                f"got {request.algorithm!r}"
            )
        if request.parallel:
            raise ParameterError(
                "distributed requests must be serial (workers=1): the "
                "coordinator owns the fan-out; per-worker process pools "
                "would shard twice"
            )
        if request.root_shard is not None:
            raise ParameterError(
                "root_shard is assigned by the coordinator; submit the "
                "request without it"
            )

    def _retry_delay(self, attempt: int) -> float:
        """Capped exponential backoff before attempt ``attempt + 1``."""
        return min(self._backoff_cap, self._backoff * (2 ** (attempt - 1)))

    def _upload_body(self) -> bytes:
        """The graph's ``POST /v2/graphs`` body, serialised once per session."""
        if self._body is None:
            upload = codec.GraphUpload(graph=self._graph)
            self._body = codec.encode(codec.upload_to_wire(upload))
        return self._body

    def _ensure_uploaded(self, url: str) -> str:
        """Upload the graph to ``url`` once; returns its fingerprint."""
        with self._lock:
            fingerprint = self._uploaded.get(url)
        if fingerprint is not None:
            return fingerprint
        store = RemoteStore(url, timeout=self._timeout)
        info = store.add_encoded(self._upload_body())
        with self._lock:
            self._uploaded[url] = info.fingerprint
        return info.fingerprint

    def _upload_concurrently(self, urls: list[str]) -> dict[str, ServiceError]:
        """Upload the graph to every worker in ``urls`` that lacks it, at once.

        Each upload runs on its own thread, all posting the same bytes.  A
        worker whose upload fails with a :class:`ServiceError` is marked in
        the pool; its shards take the lazy :meth:`_ensure_uploaded` path,
        which retries or reassigns them.  Returns those failures by URL.
        Any other error is raised here, once every upload has finished.
        """
        with self._lock:
            pending = [url for url in urls if url not in self._uploaded]
        if not pending:
            return {}
        self._upload_body()  # serialise before the upload threads read it
        with ThreadPoolExecutor(
            max_workers=len(pending), thread_name_prefix="repro-dist-upload"
        ) as executor:
            futures = [executor.submit(self._ensure_uploaded, url) for url in pending]
        failed: dict[str, ServiceError] = {}
        for url, future in zip(pending, futures):
            exc = future.exception()
            if isinstance(exc, ServiceError):
                self._pool.mark_failure(url, exc)
                failed[url] = exc
            elif exc is not None:
                raise exc
        return failed

    @staticmethod
    def _shard_request(
        request: EnumerationRequest, compiled: CompiledGraph, shard: Shard
    ) -> EnumerationRequest:
        """The per-worker request: the original plus this shard's roots."""
        labels = tuple(compiled.labels[index] for index in shard.roots)
        return replace(
            request,
            root_shard=labels,
            workers=1,
            num_shards=None,
            execution="serial",
        )

    def __repr__(self) -> str:
        return (
            f"DistributedSession(graph={self._graph!r}, "
            f"pool={self._pool!r})"
        )


def _cancelled_outcome(request: EnumerationRequest) -> EnumerationOutcome:
    """The empty outcome of a shard whose submission was cancelled."""
    return EnumerationOutcome(
        algorithm=request.label,
        alpha=request.alpha,
        report=RunReport(stop_reason=StopReason.CANCELLED),
        request=request,
    )
