"""Distributed enumeration: fan shards out across a worker fleet.

The distributed layer turns N independent ``repro-mule serve`` processes
into one logical enumerator:

* :class:`~repro.distributed.pool.WorkerPool` — the fleet registry:
  liveness probes, healthy/suspect/dead states, failure thresholds;
* :class:`~repro.distributed.coordinator.DistributedSession` — the
  coordinator: plans root shards locally, serialises the graph once per
  session and sends it concurrently to the workers that get shards, runs
  one async job per shard over the v2 wire protocol, retries and
  reassigns shards when workers fail, and merges the outcomes into a
  result bit-identical to serial MULE.

See ``docs/architecture.md`` ("Distributed enumeration") for the topology
and the failure/retry semantics, and ``tests/distributed`` for the
in-process fleet parity and fault-injection suites.
"""

from __future__ import annotations

from .coordinator import (
    DEFAULT_MAX_ATTEMPTS,
    DEFAULT_RETRY_BACKOFF_CAP_SECONDS,
    DEFAULT_RETRY_BACKOFF_SECONDS,
    DistributedSession,
)
from .pool import (
    DEFAULT_FAILURE_THRESHOLD,
    DEFAULT_PROBE_INTERVAL_SECONDS,
    WorkerPool,
    WorkerState,
    WorkerStatus,
)

__all__ = [
    "DEFAULT_FAILURE_THRESHOLD",
    "DEFAULT_MAX_ATTEMPTS",
    "DEFAULT_PROBE_INTERVAL_SECONDS",
    "DEFAULT_RETRY_BACKOFF_CAP_SECONDS",
    "DEFAULT_RETRY_BACKOFF_SECONDS",
    "DistributedSession",
    "WorkerPool",
    "WorkerState",
    "WorkerStatus",
]
