"""Observability: metrics registry, histograms and span-based tracing.

This package is the cross-cutting instrumentation layer of the stack
(see ``docs/observability.md``): a dependency-free, thread-safe
:class:`MetricsRegistry` holding :class:`Counter` / :class:`Gauge` /
fixed-bucket :class:`Histogram` instruments, plus a lightweight
:func:`trace_span` tracer that builds per-request span trees exportable
as Chrome ``chrome://tracing`` JSON.

Metrics live in two kinds of registry:

* :func:`registry` — the process-wide :class:`MetricsRegistry`, for what
  library code records with no server in sight (``engine_*``,
  ``cache_compile_seconds``, ``dist_*``).  Modules register these **once
  at module scope** (the ``metrics-discipline`` check rule enforces it).
* ``EnumerationScheduler.metrics`` — one registry per scheduler (so per
  server), layered over the process registry.  Its ``sched_*``,
  ``jobs_*``, ``cache_lookups_total`` and ``http_*`` series read the
  counts the job registry, cache, scheduler and server keep; a server's
  ``GET /v1/metrics`` and ``repro-mule metrics`` serve it.

:func:`tracer` is the shared :class:`Tracer`; ``repro-mule serve
--trace-dir`` writes one Chrome trace file per handled request.

Setting ``REPRO_DISABLE_METRICS=1`` in the environment turns every pushed
instrument into a cheap no-op branch (``benchmarks/bench_obs_overhead.py``
pins the enabled/disabled gap); read-through series keep reporting.
Enumeration output is bit-identical either way because instruments only
*observe* completed work.
"""

from __future__ import annotations

from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    DISABLE_METRICS_ENV,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    registry,
    render_prometheus,
    set_registry,
)
from .tracing import (
    Span,
    Tracer,
    chrome_trace_events,
    set_tracer,
    trace_span,
    tracer,
    write_chrome_trace,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "DISABLE_METRICS_ENV",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "chrome_trace_events",
    "registry",
    "render_prometheus",
    "set_registry",
    "set_tracer",
    "trace_span",
    "tracer",
    "write_chrome_trace",
]
