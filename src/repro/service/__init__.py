"""The mining service — wire codec, scheduler, HTTP server and clients.

This package makes the compiled-graph cache a **multi-client,
multi-graph** resource: one server process hosts a catalog of named
graphs (a :class:`~repro.api.store.GraphStore`), and any number of
processes (or machines) run enumerations against any of them while
sharing one server-side :class:`~repro.api.cache.CompiledGraphCache`.

* :mod:`repro.service.codec` — lossless, schema-versioned, strictly
  validated JSON round-trips for the session vocabulary
  (:func:`to_wire` / :func:`from_wire`, canonical :func:`encode` bytes).
  Schema v2 adds graphs as wire values (``graph``), resource metadata
  (``graph-info`` / ``graph-list`` / ``graph-upload``),
  graph-referencing requests and the async job vocabulary
  (``job-request`` / ``job-status`` / ``job-result-chunk`` /
  ``job-summary`` / ``job-list``); every v1 payload still decodes
  unchanged.
* :mod:`repro.service.jobs` — the asynchronous job pipeline every
  enumeration runs through: :class:`Job` (persistent state machine
  ``queued → running → done | failed | cancelled``, bounded page buffer
  with backpressure, cooperative cancellation, live progress) and
  :class:`JobRegistry` (id space, lookup, retention).
* :class:`EnumerationScheduler` — graph-agnostic bounded thread pool that
  queues jobs over a shared :class:`~repro.api.store.GraphStore` (whose
  cache single-flights compilations), with load/cache counters;
  synchronous ``run``/``batch``/``sweep`` are submit + ``job.wait()``
  over the job pipeline.
* :class:`MiningServer` — the stdlib HTTP server behind
  ``repro-mule serve``: the frozen ``/v1`` surface (default graph), the
  ``/v2/graphs`` resource endpoints (upload, list, get, delete,
  per-graph enumerate/sweep) and the ``/v2/jobs`` async endpoints
  (submit, status, NDJSON result streaming, cancel) with graceful
  drain-on-close.
* :class:`RemoteStore` / :func:`connect` — the client mirror of
  ``GraphStore``: register and address graphs by name over the wire.
* :class:`RemoteSession` — the client mirror of ``MiningSession``:
  ``enumerate()`` / ``sweep()`` / ``cache_info()`` against a remote
  server (default graph via v1, or any named graph via v2), returning
  real :class:`~repro.api.outcome.EnumerationOutcome` objects
  bit-identical to local runs — plus ``submit()`` for async jobs.
* :class:`RemoteJob` — the client handle on a server-side job: poll
  ``status()``, stream ``iter_results()`` live with cursor-resumable
  reconnection, ``cancel()``, or block on ``wait()`` for an outcome
  bit-identical to the synchronous path.

See ``docs/service.md`` for the wire schema, endpoint table and
versioning policy.
"""

from .client import RemoteJob, RemoteSession, RemoteStore, connect
from .codec import (
    SCHEMA_VERSION,
    SCHEMA_VERSION_V2,
    decode,
    encode,
    from_wire,
    to_wire,
)
from .jobs import Job, JobRegistry, JobState
from .scheduler import EnumerationScheduler, SchedulerStats
from .server import MiningServer

__all__ = [
    "MiningServer",
    "RemoteJob",
    "RemoteSession",
    "RemoteStore",
    "connect",
    "EnumerationScheduler",
    "SchedulerStats",
    "Job",
    "JobRegistry",
    "JobState",
    "SCHEMA_VERSION",
    "SCHEMA_VERSION_V2",
    "encode",
    "decode",
    "to_wire",
    "from_wire",
]
