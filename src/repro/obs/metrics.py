"""Thread-safe metric instruments and the registries that hold them.

Three instrument kinds, Prometheus-shaped but dependency-free:

* :class:`Counter` — monotonically increasing totals (``_total`` names);
* :class:`Gauge` — point-in-time levels, read from the level's owner;
* :class:`Histogram` — fixed-bucket latency/size distributions.  Bucket
  bounds are **deterministic per instrument** (chosen at registration,
  never adapted to data), so quantile summaries are reproducible: two
  runs that observe the same values report identical bucket counts, and
  the p50/p99 estimates derived from them are pure functions of those
  counts.

Every instrument supports ``labels(...)`` dimensions.  A counter or gauge
registered with ``read=`` keeps no values: each collection asks the
object that owns the count, so no fact is counted twice.  Pushed series
are guarded by a per-instrument lock and degrade to one predicate branch
when the registry is disabled (``REPRO_DISABLE_METRICS=1``); read-through
series report either way.

:func:`registry` is the process-wide registry; each
:class:`~repro.service.scheduler.EnumerationScheduler` layers its own
over it.  Metric names are ``snake_case`` (registration refuses anything
else) with a layer prefix (``engine_``, ``cache_``, ``sched_``, ``jobs_``,
``http_``, ``dist_``), as ``tests/obs/test_metric_names.py`` checks.
"""

from __future__ import annotations

import math
import os
import re
import threading
from collections.abc import Callable, Iterable, Mapping

from ..errors import ParameterError

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "DISABLE_METRICS_ENV",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
    "render_prometheus",
    "set_registry",
]

#: Environment variable that disables every instrument at registry
#: construction time (the value ``"0"`` or an empty string keeps metrics on).
DISABLE_METRICS_ENV = "REPRO_DISABLE_METRICS"

#: Default histogram bounds (seconds): sub-millisecond to 10 s, the span of
#: one enumeration request across the paper's scaled datasets.  Fixed and
#: shared so latency histograms are comparable across endpoints and runs.
DEFAULT_LATENCY_BUCKETS = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")


def _metrics_disabled_by_env() -> bool:
    return os.environ.get(DISABLE_METRICS_ENV, "") not in ("", "0")


def _flat_name(name: str, labelnames: tuple, key: tuple) -> str:
    """The deterministic flattened series name: ``name{k=v,...}``."""
    if not labelnames:
        return name
    inner = ",".join(f"{k}={v}" for k, v in zip(labelnames, key))
    return f"{name}{{{inner}}}"


class _Instrument:
    """Shared registration + label plumbing of every instrument kind."""

    kind = "instrument"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        description: str,
        labelnames: Iterable[str] = (),
    ) -> None:
        self._registry = registry
        self.name = name
        self.description = description
        self.labelnames = tuple(labelnames)
        for label in self.labelnames:
            if not _NAME_RE.match(label):
                raise ParameterError(
                    f"label name {label!r} of metric {name!r} is not snake_case"
                )
        self._lock = threading.Lock()

    def _label_key(self, labelvalues: Mapping[str, object]) -> tuple:
        if set(labelvalues) != set(self.labelnames):
            raise ParameterError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        return tuple(str(labelvalues[label]) for label in self.labelnames)

    def _check_unlabelled(self) -> None:
        if self.labelnames:
            raise ParameterError(
                f"metric {self.name!r} is labelled by {self.labelnames}; "
                f"use .labels(...)"
            )


class _Scalar(_Instrument):
    """One value per label key: the body counters and gauges share.

    With ``read`` the instrument keeps no values: every collection calls
    ``read()``, which maps label-value tuples (``()`` when unlabelled) to
    the owner's current values.
    """

    def __init__(self, registry, name, description, labelnames=(), read=None):
        super().__init__(registry, name, description, labelnames)
        self._values: dict[tuple, float] = {}
        self._read = read

    def value(self, **labelvalues: object) -> float:
        """Current value of one series (0.0 when it has none)."""
        key = self._label_key(labelvalues) if labelvalues else ()
        if not labelvalues:
            self._check_unlabelled()
        return self._items().get(key, 0.0)

    def collect(self) -> dict[str, float]:
        """Snapshot of every series, flattened-name -> value."""
        return {
            _flat_name(self.name, self.labelnames, key): value
            for key, value in sorted(self._items().items())
        }

    def _items(self) -> dict[tuple, float]:
        if self._read is not None:
            return {
                tuple(str(label) for label in key): float(value)
                for key, value in self._read().items()
            }
        with self._lock:
            return dict(self._values)

    def _reset(self) -> None:
        with self._lock:
            self._values.clear()


class Counter(_Scalar):
    """A monotonically increasing total (optionally labelled)."""

    kind = "counter"

    def labels(self, **labelvalues: object) -> "_BoundCounter":
        """The child series for these label values (created lazily)."""
        return _BoundCounter(self, self._label_key(labelvalues))

    def inc(self, amount: float = 1.0) -> None:
        """Increment the unlabelled series by ``amount`` (must be >= 0)."""
        self._check_unlabelled()
        self._inc((), amount)

    def _inc(self, key: tuple, amount: float) -> None:
        if not self._registry.enabled:
            return
        if amount < 0:
            raise ParameterError(
                f"counter {self.name!r} cannot decrease (inc by {amount})"
            )
        if self._read is not None:
            raise ParameterError(
                f"counter {self.name!r} reads its owner's counts; "
                f"it cannot be incremented"
            )
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount


class _BoundCounter:
    """One labelled child series of a :class:`Counter`."""

    __slots__ = ("_parent", "_key")

    def __init__(self, parent: Counter, key: tuple) -> None:
        self._parent = parent
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        self._parent._inc(self._key, amount)


class Gauge(_Scalar):
    """A point-in-time level, read from its owner on every collection."""

    kind = "gauge"


class _Series:
    """Mutable per-label-key histogram state (guarded by the parent lock)."""

    __slots__ = ("counts", "sum", "count")

    def __init__(self, num_buckets: int) -> None:
        self.counts = [0] * num_buckets
        self.sum = 0.0
        self.count = 0


class Histogram(_Instrument):
    """A fixed-bucket distribution with deterministic quantile estimates.

    ``bounds`` are the strictly increasing upper bucket edges; one
    implicit overflow bucket (``+Inf``) catches everything above the last
    edge.  ``quantile(q)`` linearly interpolates inside the bucket that
    holds rank ``q * count`` — a pure function of the bucket counts, so
    two runs observing the same values report identical quantiles.
    """

    kind = "histogram"

    def __init__(
        self,
        registry,
        name,
        description,
        labelnames=(),
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
    ):
        super().__init__(registry, name, description, labelnames)
        bounds = tuple(float(edge) for edge in buckets)
        if not bounds:
            raise ParameterError(f"histogram {name!r} needs at least one bucket")
        if any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ParameterError(
                f"histogram {name!r} bounds must be strictly increasing: {bounds}"
            )
        self.bounds = bounds
        self._series: dict[tuple, _Series] = {}

    def labels(self, **labelvalues: object) -> "_BoundHistogram":
        return _BoundHistogram(self, self._label_key(labelvalues))

    def observe(self, value: float) -> None:
        self._check_unlabelled()
        self._observe((), value)

    def _observe(self, key: tuple, value: float) -> None:
        if not self._registry.enabled:
            return
        value = float(value)
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _Series(len(self.bounds) + 1)
            series.counts[index] += 1
            series.sum += value
            series.count += 1

    def quantile(self, q: float, **labelvalues: object) -> float:
        """Deterministic quantile estimate for one series (0.0 when empty)."""
        if not 0.0 <= q <= 1.0:
            raise ParameterError(f"quantile must be in [0, 1], got {q}")
        key = self._label_key(labelvalues) if labelvalues else ()
        if not labelvalues:
            self._check_unlabelled()
        with self._lock:
            series = self._series.get(key)
            counts = list(series.counts) if series is not None else None
        if not counts or sum(counts) == 0:
            return 0.0
        return _quantile_from_buckets(self.bounds, counts, q)

    def collect(self) -> dict[str, dict]:
        """Snapshot: flattened-name -> bounds/counts/sum/count/p50/p99."""
        with self._lock:
            items = [
                (key, list(series.counts), series.sum, series.count)
                for key, series in self._series.items()
            ]
        out: dict[str, dict] = {}
        for key, counts, total, count in sorted(items):
            out[_flat_name(self.name, self.labelnames, key)] = {
                "bounds": list(self.bounds),
                "counts": counts,
                "sum": total,
                "count": count,
                "p50": _quantile_from_buckets(self.bounds, counts, 0.5),
                "p99": _quantile_from_buckets(self.bounds, counts, 0.99),
            }
        return out

    def _reset(self) -> None:
        with self._lock:
            self._series.clear()


class _BoundHistogram:
    """One labelled child series of a :class:`Histogram`."""

    __slots__ = ("_parent", "_key")

    def __init__(self, parent: Histogram, key: tuple) -> None:
        self._parent = parent
        self._key = key

    def observe(self, value: float) -> None:
        self._parent._observe(self._key, value)


def _quantile_from_buckets(
    bounds: tuple, counts: list, q: float
) -> float:
    """Linear-interpolation quantile over fixed buckets (pure, deterministic)."""
    if not 0.0 <= q <= 1.0:
        raise ParameterError(f"quantile must be in [0, 1], got {q}")
    total = sum(counts)
    if total == 0:
        return 0.0
    rank = q * total
    cumulative = 0.0
    lower = 0.0
    for i, count in enumerate(counts):
        upper = bounds[i] if i < len(bounds) else math.inf
        if count and cumulative + count >= rank:
            if math.isinf(upper):
                # Overflow bucket: the last finite edge is the best bound.
                return float(bounds[-1])
            fraction = max(0.0, rank - cumulative) / count
            return lower + (upper - lower) * fraction
        cumulative += count
        lower = upper if not math.isinf(upper) else lower
    return float(bounds[-1])


class MetricsRegistry:
    """A named collection of instruments with atomic snapshot export.

    Registration is idempotent: re-registering the same ``(kind, name,
    labelnames)`` returns the existing instrument (so module reloads and
    shared seams are safe), while a conflicting re-registration raises.
    A read-through series has one owner, so registering its name again
    raises.  ``snapshot()`` / :func:`render_prometheus` read every
    instrument of this registry and of its ``parent`` (a name registered
    here shadows the parent's); ``reset()`` zeroes this registry's pushed
    series but keeps the registrations, which is what determinism tests
    and the golden fixture builder rely on.
    """

    def __init__(
        self, *, enabled: bool | None = None, parent: "MetricsRegistry | None" = None
    ) -> None:
        self._parent = parent
        self._lock = threading.Lock()
        self._metrics: dict[str, _Instrument] = {}
        self._enabled = (
            not _metrics_disabled_by_env() if enabled is None else bool(enabled)
        )

    @property
    def enabled(self) -> bool:
        """False when every instrument is a no-op (REPRO_DISABLE_METRICS)."""
        return self._enabled

    def set_enabled(self, flag: bool) -> None:
        """Flip instrumentation on/off (used by the overhead benchmark)."""
        self._enabled = bool(flag)

    def counter(
        self,
        name: str,
        description: str,
        labelnames: Iterable[str] = (),
        *,
        read: "Callable[[], Mapping[tuple, float]] | None" = None,
    ) -> Counter:
        """Register (or fetch) a counter; ``read`` makes it read-through."""
        instrument = self._register(
            Counter, name, description, tuple(labelnames), read=read
        )
        assert isinstance(instrument, Counter)
        return instrument

    def gauge(
        self,
        name: str,
        description: str,
        labelnames: Iterable[str] = (),
        *,
        read: "Callable[[], Mapping[tuple, float]]",
    ) -> Gauge:
        """Register a gauge that reads its owner's levels."""
        instrument = self._register(
            Gauge, name, description, tuple(labelnames), read=read
        )
        assert isinstance(instrument, Gauge)
        return instrument

    def histogram(
        self,
        name: str,
        description: str,
        labelnames: Iterable[str] = (),
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        """Register (or fetch) a fixed-bucket histogram."""
        instrument = self._register(
            Histogram, name, description, tuple(labelnames), buckets=tuple(buckets)
        )
        assert isinstance(instrument, Histogram)
        return instrument

    def _register(self, cls, name, description, labelnames, **extra):
        if not _NAME_RE.match(name):
            raise ParameterError(
                f"metric name {name!r} is not snake_case ([a-z][a-z0-9_]*)"
            )
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if (
                    type(existing) is not cls
                    or existing.labelnames != labelnames
                    or extra.get("read") is not None
                ):
                    raise ParameterError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}{existing.labelnames}"
                    )
                return existing
            instrument = cls(self, name, description, labelnames, **extra)
            self._metrics[name] = instrument
            return instrument

    def get(self, name: str) -> "_Instrument | None":
        """The instrument registered here under this name, or ``None``."""
        with self._lock:
            return self._metrics.get(name)

    def instruments(self) -> list:
        """Every instrument of this registry and its parent, sorted by name."""
        merged = {} if self._parent is None else {
            instrument.name: instrument for instrument in self._parent.instruments()
        }
        with self._lock:
            merged.update(self._metrics)
        return [merged[name] for name in sorted(merged)]

    def reset(self) -> None:
        """Zero this registry's series; registrations (names, bounds) survive."""
        with self._lock:
            own = list(self._metrics.values())
        for instrument in own:
            instrument._reset()

    def snapshot(self) -> dict:
        """One deterministic, JSON-shaped view of every instrument.

        ``{"counters": {name: total}, "gauges": {name: level},
        "histograms": {name: {bounds, counts, sum, count, p50, p99}}}``
        with labelled series flattened to ``name{k=v,...}`` keys in sorted
        order.  Each instrument is read atomically under its own lock;
        the cross-instrument view is best-effort (metrics keep moving
        while the snapshot walks the registry).
        """
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict] = {}
        for instrument in self.instruments():
            if isinstance(instrument, Counter):
                counters.update(instrument.collect())
            elif isinstance(instrument, Gauge):
                gauges.update(instrument.collect())
            elif isinstance(instrument, Histogram):
                histograms.update(instrument.collect())
        return {
            "counters": dict(sorted(counters.items())),
            "gauges": dict(sorted(gauges.items())),
            "histograms": dict(sorted(histograms.items())),
        }


def _prometheus_pairs(inner: str) -> list[str]:
    """``k=v,k2=v2`` (flattened form) -> ['k="v"', 'k2="v2"'] escaped."""
    if not inner:
        return []
    pairs = []
    for part in inner.split(","):
        label, _, value = part.partition("=")
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        pairs.append(f'{label}="{escaped}"')
    return pairs


def _prometheus_series(flat: str) -> str:
    """Convert a flattened series key to Prometheus exposition syntax."""
    if "{" not in flat:
        return flat
    name, _, inner = flat.partition("{")
    return f"{name}{{{','.join(_prometheus_pairs(inner.rstrip('}')))}}}"


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def render_prometheus(source: "MetricsRegistry | None" = None) -> str:
    """Render a registry in the Prometheus text exposition format (v0.0.4).

    Counters and gauges emit one sample per series; histograms emit the
    conventional cumulative ``_bucket{le=...}`` samples plus ``_sum`` and
    ``_count``.  Series order is deterministic (sorted names).
    """
    reg = source if source is not None else registry()
    lines: list[str] = []
    for instrument in reg.instruments():
        lines.append(f"# HELP {instrument.name} {instrument.description}")
        lines.append(f"# TYPE {instrument.name} {instrument.kind}")
        if isinstance(instrument, _Scalar):
            for flat, value in instrument.collect().items():
                lines.append(f"{_prometheus_series(flat)} {_format_value(value)}")
        elif isinstance(instrument, Histogram):
            for flat, data in instrument.collect().items():
                name, _, inner = flat.partition("{")
                pairs = _prometheus_pairs(inner.rstrip("}"))
                suffix = f"{{{','.join(pairs)}}}" if pairs else ""
                cumulative = 0
                for bound, count in zip(
                    list(data["bounds"]) + [math.inf], data["counts"]
                ):
                    cumulative += count
                    le = "+Inf" if math.isinf(bound) else _format_value(bound)
                    labels = ",".join(pairs + [f'le="{le}"'])
                    lines.append(f"{name}_bucket{{{labels}}} {cumulative}")
                lines.append(f"{name}_sum{suffix} {_format_value(data['sum'])}")
                lines.append(f"{name}_count{suffix} {data['count']}")
    return "\n".join(lines) + "\n"


_GLOBAL_LOCK = threading.Lock()
_GLOBAL: "MetricsRegistry | None" = None


def registry() -> MetricsRegistry:
    """The process-wide registry; each scheduler's registry is layered over it."""
    global _GLOBAL
    with _GLOBAL_LOCK:
        if _GLOBAL is None:
            _GLOBAL = MetricsRegistry()
        return _GLOBAL


def set_registry(replacement: "MetricsRegistry | None") -> MetricsRegistry:
    """Swap the process-global registry (tests); returns the active one.

    Passing ``None`` resets the seam so the next :func:`registry` call
    builds a fresh default registry.  Module-scope instruments bound
    before the swap keep writing to the registry they were created in —
    prefer :meth:`MetricsRegistry.reset` for isolation and this seam only
    for hermetic unit tests of export paths.
    """
    global _GLOBAL
    with _GLOBAL_LOCK:
        if replacement is not None:
            _GLOBAL = replacement
        else:
            _GLOBAL = None
            _GLOBAL = MetricsRegistry()
        return _GLOBAL
