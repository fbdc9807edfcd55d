"""Compiled-graph caching — the artifact store behind the session API.

Compilation (:func:`~repro.core.engine.compiled.compile_graph`) is the one
preprocessing pipeline every enumerator shares, and before the session API
every public entry point re-ran it per call.  :class:`CompiledGraphCache`
makes the compiled artifact reusable:

* entries are keyed by ``(fingerprint, α-pruning level, SNF threshold)`` —
  :meth:`UncertainGraph.fingerprint` is a stable content hash, so one cache
  instance can safely serve many sessions (and many graphs);
* a miss at pruning level α is satisfied **without recompiling** whenever a
  plain entry pruned at α′ ≤ α (or unpruned) exists: the artifact is
  *derived* via :meth:`CompiledGraph.restrict_probability`, which only
  filters the already-compiled arrays.  Derived artifacts are bit-identical
  to fresh compilations, so searches over them produce identical cliques
  *and* identical counters;
* shared-neighborhood-filtered entries (LARGE-MULE) are never derived — the
  Modani–Dey filter is an iterative graph computation, not an edge filter —
  so those keys always full-compile on a miss;
* hit/derivation/compilation accounting is exposed via :meth:`info`
  (surfaced as ``MiningSession.cache_info()``), which is how the batch
  tests assert "a five-α sweep performs exactly one compilation".
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from time import perf_counter
from typing import NamedTuple

from ..core.engine.compiled import CompiledGraph, compile_graph
from ..core.pruning import PruningReport
from ..errors import ParameterError
from ..obs import registry as _obs_registry
from ..uncertain.graph import UncertainGraph

__all__ = ["CacheInfo", "CompiledGraphCache"]

#: Wall seconds of the full compilations the cache could not avoid.
_CACHE_COMPILE_SECONDS = _obs_registry().histogram(
    "cache_compile_seconds",
    "Wall seconds per full compile_graph run on a cache miss.",
)

#: Cache key: (graph fingerprint, α-pruning level or None, SNF threshold or None).
_Key = tuple[str, "float | None", "int | None"]


class CacheInfo(NamedTuple):
    """A snapshot of cache effectiveness counters.

    ``hits`` counts exact-key reuse; every miss is resolved either by
    ``derivations`` (cheap α-restriction of a cached base) or by
    ``compilations`` (full :func:`compile_graph` runs — the expensive
    event batching exists to minimise); ``entries`` is the current store
    size.  ``misses == derivations + compilations`` always holds.
    """

    hits: int
    misses: int
    compilations: int
    derivations: int
    entries: int


class CompiledGraphCache:
    """An LRU store of compiled graphs with derivation-aware lookup.

    Thread-safe: the store and its counters are guarded by a lock, so one
    cache may serve concurrent sessions.  The expensive work (compilation,
    derivation) runs *outside* the lock, so a slow compile never blocks
    other keys' hits, and misses are single-flighted: concurrent lookups of
    a key another thread is building wait for that build instead of
    repeating it.

    Derivation bases are touched on every use, so under LRU pressure a
    wide α sweep keeps its single base resident and evicts the derived
    one-shot artifacts instead.

    Parameters
    ----------
    maxsize:
        Maximum number of artifacts kept (least recently used evicted
        first); ``None`` (default) means unbounded.  Long-lived caches —
        a session that sweeps many α values, or a shared service cache —
        should be bounded (`MiningSession`'s private cache is, by
        default).

    >>> g = UncertainGraph(edges=[(1, 2, 0.9), (2, 3, 0.4)])
    >>> cache = CompiledGraphCache()
    >>> fp = g.fingerprint()
    >>> base = cache.get(g, fp, alpha=0.3)            # full compilation
    >>> derived = cache.get(g, fp, alpha=0.5)         # derived from base
    >>> again = cache.get(g, fp, alpha=0.5)           # exact hit
    >>> cache.info().compilations, cache.info().derivations, cache.info().hits
    (1, 1, 1)
    """

    def __init__(self, maxsize: int | None = None) -> None:
        if maxsize is not None and maxsize < 1:
            raise ParameterError(f"maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._entries: OrderedDict[_Key, CompiledGraph] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._compilations = 0
        self._derivations = 0
        # Per-fingerprint [hits, misses, compilations, derivations] — what
        # lets a multi-graph service assert "this graph compiled exactly
        # once" instead of only the global total.  Counters live and die
        # with the graph's residency (see :meth:`discard`).
        self._by_fingerprint: dict[str, list[int]] = {}
        # Keys being built right now; lookups of such a key wait on its event.
        self._building: dict[_Key, threading.Event] = {}
        self._waits = 0

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def get(
        self,
        graph: UncertainGraph,
        fingerprint: str,
        *,
        alpha: float | None = None,
        size_threshold: int | None = None,
        pruning_report: PruningReport | None = None,
    ) -> CompiledGraph:
        """Return the compiled artifact for these options, building it on miss.

        One thread builds a missing key; concurrent lookups of that key
        wait for it (one :meth:`single_flight_waits` each, no lookup
        counted) and then look again — a hit, or a build of their own when
        that build failed or its artifact was already evicted.
        ``pruning_report`` forces a full compile even on a hit — the report
        is filled by the filter actually running, which a cached artifact
        cannot replay — and the fresh artifact replaces the cached entry
        (such calls are not deduplicated).
        """
        key: _Key = (fingerprint, alpha, size_threshold)
        base: CompiledGraph | None = None
        building: threading.Event | None = None
        while pruning_report is None:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._hits += 1
                    self._count_locked(fingerprint, 0)
                    self._entries.move_to_end(key)
                    return entry
                inflight = self._building.get(key)
                if inflight is None:
                    building = self._building[key] = threading.Event()
                    if size_threshold is None and alpha is not None:
                        base_key = self._best_base_key_locked(fingerprint, alpha)
                        if base_key is not None:
                            base = self._entries[base_key]
                            # Keep derivation bases hot: a wide sweep must
                            # evict its derived one-shot artifacts under LRU
                            # pressure, never the one base serving them all.
                            self._entries.move_to_end(base_key)
                    break
                self._waits += 1
            inflight.wait()

        # The expensive work happens outside the lock (compiled graphs are
        # immutable, so a base may be read even if concurrently evicted).
        try:
            if base is not None:
                derived = base.restrict_probability(alpha)
                with self._lock:
                    self._misses += 1
                    self._derivations += 1
                    self._count_locked(fingerprint, 1)
                    self._count_locked(fingerprint, 3)
                    self._store_locked(key, derived)
                return derived

            started = perf_counter()
            compiled = compile_graph(
                graph,
                alpha=alpha,
                size_threshold=size_threshold,
                pruning_report=pruning_report,
            )
            _CACHE_COMPILE_SECONDS.observe(perf_counter() - started)
            with self._lock:
                self._misses += 1
                self._compilations += 1
                self._count_locked(fingerprint, 1)
                self._count_locked(fingerprint, 2)
                self._store_locked(key, compiled)
            return compiled
        finally:
            if building is not None:
                with self._lock:
                    del self._building[key]
                building.set()

    def adopt(
        self,
        fingerprint: str,
        compiled: CompiledGraph,
        *,
        alpha: float | None = None,
        size_threshold: int | None = None,
    ) -> None:
        """Insert a caller-precompiled artifact under the given options.

        The caller vouches that ``compiled`` was produced by
        ``compile_graph(graph, alpha=alpha, size_threshold=size_threshold)``
        for the graph with this fingerprint — this is how
        :func:`repro.parallel.parallel_mule` forwards a precompiled graph
        into the session without a recompile.
        """
        with self._lock:
            self._store_locked((fingerprint, alpha, size_threshold), compiled)

    def _best_base_key_locked(self, fingerprint: str, alpha: float) -> _Key | None:
        """Find the cheapest legal derivation base for pruning level ``alpha``.

        Legal: a plain (non-SNF) entry of the same graph pruned at α′ ≤ α
        (an unpruned entry counts as α′ = 0).  Cheapest: the largest such
        α′ — fewer surviving edges to filter.  Caller holds the lock.
        """
        best_key: _Key | None = None
        best_level = -1.0
        for key in self._entries:
            fp, base_alpha, st = key
            if fp != fingerprint or st is not None:
                continue
            level = 0.0 if base_alpha is None else base_alpha
            if level <= alpha and level > best_level:
                best_key = key
                best_level = level
        return best_key

    def _store_locked(self, key: _Key, compiled: CompiledGraph) -> None:
        self._entries[key] = compiled
        self._entries.move_to_end(key)
        if self.maxsize is not None:
            while len(self._entries) > self.maxsize:
                evicted_key, _ = self._entries.popitem(last=False)
                fingerprint = evicted_key[0]
                # A fingerprint's counters live exactly as long as its
                # residency: when LRU pressure (or a discard racing an
                # in-flight job) expels a graph's last artifact, its
                # per-graph view goes with it — which also bounds the
                # counter map for long-lived multi-tenant caches.
                if not any(k[0] == fingerprint for k in self._entries):
                    self._by_fingerprint.pop(fingerprint, None)

    def _count_locked(self, fingerprint: str, index: int) -> None:
        """Bump one per-fingerprint counter (caller holds the lock).

        Indices follow :class:`CacheInfo` order: 0=hits, 1=misses,
        2=compilations, 3=derivations.
        """
        counters = self._by_fingerprint.get(fingerprint)
        if counters is None:
            counters = self._by_fingerprint[fingerprint] = [0, 0, 0, 0]
        counters[index] += 1

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def info(self) -> CacheInfo:
        """Return the current :class:`CacheInfo` counters."""
        with self._lock:
            return CacheInfo(
                hits=self._hits,
                misses=self._misses,
                compilations=self._compilations,
                derivations=self._derivations,
                entries=len(self._entries),
            )

    def single_flight_waits(self) -> int:
        """Lookups that waited for another thread's build of their key."""
        with self._lock:
            return self._waits

    def info_for(self, fingerprint: str) -> CacheInfo:
        """Return the counters attributable to one graph fingerprint.

        ``entries`` counts the artifacts of that graph currently resident;
        the event counters cover the graph's current residency (they reset
        when the graph is :meth:`discard`-ed).  This is what a multi-graph
        service exposes as per-graph stats, so "graph X compiled exactly
        once" can be asserted even while other graphs churn the cache.
        """
        with self._lock:
            hits, misses, compilations, derivations = self._by_fingerprint.get(
                fingerprint, (0, 0, 0, 0)
            )
            entries = sum(1 for key in self._entries if key[0] == fingerprint)
            return CacheInfo(
                hits=hits,
                misses=misses,
                compilations=compilations,
                derivations=derivations,
                entries=entries,
            )

    def counters_snapshot(self) -> "tuple[CacheInfo, dict[str, CacheInfo]]":
        """Aggregate plus per-fingerprint counters, read atomically.

        Both views come from **one** lock acquisition, so within the
        returned pair the per-graph counters always sum to at most the
        aggregate (``info()`` followed by per-graph ``info_for()`` calls
        cannot promise that — mining between the two reads can push a
        graph's counters past an aggregate read earlier).  This is the
        snapshot ``MiningServer.stats_payload`` builds its cache component
        from.
        """
        with self._lock:
            fingerprints = set(self._by_fingerprint)
            fingerprints.update(key[0] for key in self._entries)
            per_graph: dict[str, CacheInfo] = {}
            for fingerprint in fingerprints:
                hits, misses, compilations, derivations = self._by_fingerprint.get(
                    fingerprint, (0, 0, 0, 0)
                )
                per_graph[fingerprint] = CacheInfo(
                    hits=hits,
                    misses=misses,
                    compilations=compilations,
                    derivations=derivations,
                    entries=sum(1 for key in self._entries if key[0] == fingerprint),
                )
            aggregate = CacheInfo(
                hits=self._hits,
                misses=self._misses,
                compilations=self._compilations,
                derivations=self._derivations,
                entries=len(self._entries),
            )
            return aggregate, per_graph

    def discard(self, fingerprint: str) -> int:
        """Drop every artifact (and the counters) of one graph.

        Returns the number of entries removed.  The global counters keep
        their history; only the per-fingerprint view resets — a re-added
        graph starts its residency accounting from zero.
        """
        with self._lock:
            stale = [key for key in self._entries if key[0] == fingerprint]
            for key in stale:
                del self._entries[key]
            self._by_fingerprint.pop(fingerprint, None)
            return len(stale)

    def clear(self) -> None:
        """Drop every artifact and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._hits = self._misses = self._waits = 0
            self._compilations = self._derivations = 0
            self._by_fingerprint.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        info = self.info()
        return (
            f"CompiledGraphCache(entries={info.entries}, hits={info.hits}, "
            f"compilations={info.compilations}, derivations={info.derivations})"
        )
