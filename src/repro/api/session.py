"""The mining session — one owner of compilation, caching and dispatch.

:class:`MiningSession` is the serving surface of the library: construct it
once per graph and every enumeration request — any algorithm, any α, serial
or sharded-parallel — runs through :meth:`MiningSession.enumerate`, reusing
one compiled artifact wherever legal instead of recompiling per call.  The
legacy free functions (:func:`repro.core.mule.mule` and friends) are thin
delegates over a throwaway session, so the engine has exactly one
compilation owner either way.

Caching model
-------------
The session owns a :class:`~repro.api.cache.CompiledGraphCache` (optionally
shared between sessions) keyed by the graph's stable content hash
(:meth:`UncertainGraph.fingerprint`) plus the compile options.  A request at
pruning level α reuses any cached artifact pruned at α′ ≤ α by *deriving*
(filtering the compiled arrays — no re-sort, no graph traversal), which is
what makes :meth:`sweep` compile once for a whole α sweep while returning
cliques **and counters** bit-identical to per-α calls of :func:`mule`.

With a *private* cache (the default) the key skips the content hash — the
cache serves exactly one graph, so hashing would only add cost to one-shot
sessions; a *shared* cache keys by the fingerprint, computed lazily, once
per session.  Either way: do not mutate the graph while a session (or a
shared cache holding its artifacts) is alive.

>>> from repro.uncertain.graph import UncertainGraph
>>> g = UncertainGraph(edges=[(1, 2, 0.9), (2, 3, 0.9), (1, 3, 0.9), (3, 4, 0.4)])
>>> session = MiningSession(g)
>>> outcome = session.enumerate(EnumerationRequest(algorithm="mule", alpha=0.5))
>>> sorted(sorted(r.vertices) for r in outcome)
[[1, 2, 3], [4]]
>>> outcomes = session.sweep([0.5, 0.6, 0.7, 0.8, 0.9])
>>> [o.num_cliques for o in outcomes]
[2, 2, 2, 4, 4]
>>> session.cache_info().compilations
1
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import replace
from time import monotonic
from typing import Any

from ..core.engine.backends import resolve_kernel, run_kernel_blocks, run_kernel_search
from ..core.engine.compiled import CompiledGraph
from ..core.engine.controls import CancellationToken, RunControls, RunReport
from ..core.engine.strategies import (
    EnumerationStrategy,
    LargeCliqueStrategy,
    MuleStrategy,
    NoIncrementalStrategy,
    TopKStrategy,
)
from ..core.pruning import PruningReport
from ..core.result import (
    CliqueColumns,
    CliqueRecord,
    SearchStatistics,
    Stopwatch,
    rank_by_probability,
)
from ..errors import ParameterError
from ..obs import registry as _obs_registry
from ..uncertain.graph import UncertainGraph
from .cache import CacheInfo, CompiledGraphCache
from .outcome import EnumerationOutcome
from .request import EnumerationRequest

__all__ = ["MiningSession"]

# Engine progress is observed *here*, from the RunReport/SearchStatistics a
# finished kernel run hands back — never inside ``core/engine`` itself, so
# the kernel keeps ``perf_counter`` as its only clock seam and the
# ``kernel-determinism`` check rule holds.
_ENGINE_RUNS = _obs_registry().counter(
    "engine_runs_total", "Completed (fully consumed) kernel runs."
)
_ENGINE_FRAMES = _obs_registry().counter(
    "engine_frames_expanded_total", "Search frames expanded across runs."
)
_ENGINE_CLIQUES = _obs_registry().counter(
    "engine_cliques_emitted_total", "Maximal cliques emitted across runs."
)
_ENGINE_PRUNES = _obs_registry().counter(
    "engine_pruned_branches_total", "Branches pruned across runs."
)


def _observe_engine_run(
    statistics: SearchStatistics, report: "RunReport | None"
) -> None:
    """Fold one finished run's counters into the ``engine_*`` metrics.

    Serial runs report frames via :class:`RunReport`; merged parallel runs
    leave ``frames_expanded`` at zero, so the recursive-call count (the
    same quantity, merged to serial's) stands in.  Emissions are only
    known when a report was attached — bare ``stream()`` callers without
    one contribute frames and prunes but no emission count.
    """
    frames = (
        report.frames_expanded
        if report is not None and report.frames_expanded
        else statistics.recursive_calls
    )
    _ENGINE_RUNS.inc()
    _ENGINE_FRAMES.inc(frames)
    if report is not None:
        _ENGINE_CLIQUES.inc(report.cliques_emitted)
    _ENGINE_PRUNES.inc(statistics.pruned_branches)


class MiningSession:
    """A compile-once facade over every enumeration algorithm.

    Parameters
    ----------
    graph:
        The uncertain graph this session mines.  Treated as immutable for
        the session's lifetime (the cache key is a content hash computed
        once).
    cache:
        Optional :class:`~repro.api.cache.CompiledGraphCache` to share
        compiled artifacts across sessions (e.g. one bounded cache for a
        whole service; the cache is thread-safe); by default each session
        owns a private cache bounded at 128 artifacts.
    """

    #: Cache key used with a session-private cache: such a cache only ever
    #: holds artifacts of this session's one graph, so a content hash would
    #: cost a full edge sort + SHA-256 per one-shot session (roughly the
    #: price of a compilation) without discriminating anything.
    _PRIVATE_KEY = "<session-private>"

    #: Bound of the default private cache.  Wide sweeps derive one
    #: artifact per α; the bound keeps a long-lived session from pinning
    #: hundreds of one-shot artifacts (derivation bases stay resident —
    #: the cache touches them on every use — so even a 500-α sweep still
    #: compiles exactly once).
    _PRIVATE_CACHE_MAXSIZE = 128

    def __init__(
        self, graph: UncertainGraph, *, cache: CompiledGraphCache | None = None
    ) -> None:
        self._graph = graph
        self._shared_cache = cache is not None
        self._cache = (
            cache
            if cache is not None
            else CompiledGraphCache(maxsize=self._PRIVATE_CACHE_MAXSIZE)
        )
        self._fingerprint: str | None = None

    @property
    def graph(self) -> UncertainGraph:
        """The graph this session mines."""
        return self._graph

    @property
    def fingerprint(self) -> str:
        """The graph's content hash (computed lazily, once per session)."""
        if self._fingerprint is None:
            self._fingerprint = self._graph.fingerprint()
        return self._fingerprint

    @property
    def _cache_key(self) -> str:
        """The graph component of the cache key.

        Only a *shared* cache needs the content hash to tell graphs apart;
        a private cache serves exactly one graph, so one-shot sessions (the
        legacy free functions) skip the fingerprint entirely.
        """
        return self.fingerprint if self._shared_cache else self._PRIVATE_KEY

    # ------------------------------------------------------------------ #
    # Compilation and cache plumbing
    # ------------------------------------------------------------------ #
    def compiled(
        self,
        *,
        alpha: float | None = None,
        size_threshold: int | None = None,
        pruning_report: PruningReport | None = None,
    ) -> CompiledGraph:
        """Return the compiled artifact for these options, cached.

        ``alpha`` is the Observation 3 pruning level (``None`` = keep every
        edge) and ``size_threshold`` the Modani–Dey filter threshold — the
        same options :func:`~repro.core.engine.compiled.compile_graph`
        takes.  Misses are satisfied by derivation from a compatible cached
        base when possible, by a full compilation otherwise.
        """
        return self._cache.get(
            self._graph,
            self._cache_key,
            alpha=alpha,
            size_threshold=size_threshold,
            pruning_report=pruning_report,
        )

    def adopt(
        self,
        compiled: CompiledGraph,
        *,
        alpha: float | None = None,
        size_threshold: int | None = None,
    ) -> None:
        """Seed the cache with a caller-precompiled artifact.

        The caller vouches the artifact matches this session's graph and
        the given compile options; :func:`repro.parallel.parallel_mule`
        uses this to forward its optional precompiled graph.
        """
        self._cache.adopt(
            self._cache_key, compiled, alpha=alpha, size_threshold=size_threshold
        )

    def cache_info(self) -> CacheInfo:
        """Hit/miss/compilation/derivation counters of the backing cache."""
        return self._cache.info()

    def cache_clear(self) -> None:
        """Drop every cached artifact and reset the counters."""
        self._cache.clear()

    # ------------------------------------------------------------------ #
    # Streaming
    # ------------------------------------------------------------------ #
    def stream(
        self,
        request: EnumerationRequest,
        *,
        statistics: SearchStatistics | None = None,
        report: RunReport | None = None,
        pruning_report: PruningReport | None = None,
        cancel: CancellationToken | None = None,
    ) -> Iterator[tuple[frozenset, float]]:
        """Lazily yield ``(clique, probability)`` pairs for a serial request.

        This is the streaming core the legacy ``iter_*`` functions delegate
        to: compilation happens (or is served from cache) on first
        iteration, and emissions arrive in depth-first discovery order.
        Parallel requests cannot stream (shards finish out of order) and a
        ``top_k`` request streams its *qualifying* cliques unranked; both
        restrictions are enforced eagerly, at the call, not at the first
        ``next()``.
        """
        if request.parallel:
            raise ParameterError("parallel requests cannot stream; use enumerate()")
        if request.algorithm == "top_k" and request.alpha is None:
            raise ParameterError("top_k threshold search cannot stream; use enumerate()")
        return self._stream(request, statistics, report, pruning_report, cancel)

    def _stream(
        self,
        request: EnumerationRequest,
        statistics: SearchStatistics | None,
        report: RunReport | None,
        pruning_report: PruningReport | None,
        cancel: CancellationToken | None = None,
    ) -> Iterator[tuple[frozenset, float]]:
        stats = statistics if statistics is not None else SearchStatistics()
        if self._graph.num_vertices == 0:
            return
        compiled, strategy = self._start(request, pruning_report)
        found = run_kernel_search(
            compiled,
            request.alpha,
            strategy,
            kernel=request.kernel,
            statistics=stats,
            controls=request.controls,
            report=report,
            cancel=cancel,
        )
        decode = compiled.decode
        for indices, probability in found:
            yield decode(indices), probability
        # Reached only when the consumer drains the stream: abandoned
        # generators (early close, cancellation mid-iteration) do not fold
        # partial counters into the engine metrics.
        _observe_engine_run(stats, report)

    def _pages(
        self,
        request: EnumerationRequest,
        statistics: SearchStatistics,
        report: RunReport,
        cancel: CancellationToken | None = None,
        page_size: int | None = None,
    ) -> Iterator[CliqueColumns]:
        """Run a streamable request; yield its cliques as column blocks.

        Each block holds ``page_size`` cliques, the last one fewer (and no
        block is empty); ``page_size=None`` yields one block with every
        clique, or none.  With the parallel runner's shards, this consumes
        :func:`~repro.core.engine.backends.run_kernel_blocks`: each kernel
        block's labels are looked up in one pass and its columns added in
        bulk, and pages are sliced from the pending columns, so no Python
        runs per clique on the native kernel.  ``cancel`` is read before
        each clique is kept (in C on the native kernel), so a cancelled run
        stops at the next clique, keeping those before it.
        """
        if self._graph.num_vertices == 0:
            return
        compiled, strategy = self._start(request)
        blocks = run_kernel_blocks(
            compiled,
            request.alpha,
            strategy,
            kernel=request.kernel,
            statistics=statistics,
            controls=request.controls,
            report=report,
            cancel=cancel,
        )
        # Each clique's labels stand in ``CliqueRecord.as_tuple()`` order
        # when the vector kernel runs (it adds vertices in ascending index
        # order) on labels that sorted naturally.
        in_order = compiled.labels_sorted and (
            resolve_kernel(request.kernel, strategy) == "vector"
        )
        label_of = compiled.labels.__getitem__
        vertices: list[Any] = []
        sizes: list[int] = []
        probabilities = array("d")
        try:
            for block_indices, block_sizes, block_probabilities in blocks:
                vertices += map(label_of, block_indices)
                sizes += block_sizes
                probabilities += block_probabilities
                if page_size is None or len(sizes) < page_size:
                    continue
                start = first = 0
                while len(sizes) - first >= page_size:
                    stop = first + page_size
                    end = start + sum(sizes[first:stop])
                    yield CliqueColumns(
                        vertices[start:end],
                        sizes[first:stop],
                        probabilities[first:stop],
                        in_order,
                    )
                    start, first = end, stop
                del vertices[:start], sizes[:first], probabilities[:first]
            _observe_engine_run(statistics, report)
        finally:
            blocks.close()
        if sizes:
            yield CliqueColumns(vertices, sizes, probabilities, in_order)

    def _start(
        self, request: EnumerationRequest, pruning_report: PruningReport | None = None
    ) -> tuple[CompiledGraph, EnumerationStrategy]:
        """Compile (or fetch) the artifact a request runs on, and its strategy."""
        compiled = self.compiled(
            alpha=request.compile_alpha(),
            size_threshold=request.compile_size_threshold(),
            pruning_report=pruning_report,
        )
        if request.root_shard is not None:
            compiled = compiled.restrict_roots(
                _root_shard_mask(compiled, request.root_shard)
            )
        return compiled, _strategy_for(request)

    # ------------------------------------------------------------------ #
    # The single entry point
    # ------------------------------------------------------------------ #
    def enumerate(self, request: EnumerationRequest) -> EnumerationOutcome:
        """Run one request and return its uniform outcome.

        Dispatch: ``top_k`` requests rank their emissions (descending the
        threshold first when ``alpha`` is omitted); requests whose
        ``workers``/``execution`` select the parallel path run the
        shard/merge pipeline of :mod:`repro.parallel` over the cached
        artifact; everything else is one serial kernel run.
        """
        if request.parallel:
            return self._enumerate_parallel(request)
        if request.algorithm == "top_k":
            if request.alpha is None:
                outcome = self.top_k_search(
                    request.k,
                    min_size=request.min_size,
                    prune_edges=request.prune_edges,
                    controls=request.controls,
                )
                outcome.request = request
                return outcome
            return self._enumerate_top_k(request)
        return self._enumerate_serial(request)

    # ------------------------------------------------------------------ #
    # Batched entry points
    # ------------------------------------------------------------------ #
    def batch(self, requests: Iterable[EnumerationRequest]) -> list[EnumerationOutcome]:
        """Run many requests, sharing one compilation wherever legal.

        Before dispatching, the batch is scanned for plain (non-SNF)
        compile targets and a single base artifact is ensured — unpruned if
        any request needs it, pruned at the batch's minimum α otherwise —
        so every other plain request is served by cheap derivation instead
        of recompiling.  Outcomes are returned in request order and are
        bit-identical (cliques and counters) to running each request on a
        cold session.
        """
        requests = list(requests)
        self.prepare(requests)
        return [self.enumerate(request) for request in requests]

    def sweep(
        self,
        alphas: Sequence[float],
        *,
        algorithm: str = "mule",
        **options: object,
    ) -> list[EnumerationOutcome]:
        """Run one request per α over a single compilation.

        Builds an :class:`EnumerationRequest` per threshold (``options``
        are passed through, e.g. ``controls=``, ``workers=``,
        ``prune_edges=``) and delegates to :meth:`batch` — a five-α MULE
        sweep therefore performs exactly one graph compilation, which is
        what accelerates ``analysis.comparison.alpha_sweep`` and the CLI
        ``compare`` command.
        """
        requests = [
            EnumerationRequest(algorithm=algorithm, alpha=alpha, **options)
            for alpha in alphas
        ]
        return self.batch(requests)

    def prepare(self, requests: Sequence[EnumerationRequest]) -> None:
        """Ensure one derivation base covers every plain compile in ``requests``.

        Only plain (non-SNF) requests with a threshold count.  If any of
        them needs an unpruned artifact, that is the base (it derives every
        other level); otherwise the base is pruned at their minimum α.

        :meth:`batch` calls this automatically; callers that dispatch the
        requests themselves (interleaved with other work, in their own
        order — e.g. the sweep loops of :mod:`repro.analysis.comparison`)
        invoke it up front so a descending or unsorted α sequence still
        compiles only once instead of recompiling at every point that no
        cached base can legally derive.
        """
        levels = [
            request.compile_alpha()
            for request in requests
            if request.compile_size_threshold() is None and request.alpha is not None
        ]
        if not levels or self._graph.num_vertices == 0:
            return
        if any(level is None for level in levels):
            self.compiled()
        else:
            self.compiled(alpha=min(levels))

    # ------------------------------------------------------------------ #
    # Top-k threshold search
    # ------------------------------------------------------------------ #
    def top_k_search(
        self,
        k: int,
        *,
        initial_alpha: float = 0.5,
        shrink_factor: float = 0.1,
        min_alpha: float = 1e-9,
        min_size: int = 2,
        prune_edges: bool = True,
        controls: RunControls | None = None,
    ) -> EnumerationOutcome:
        """Rank the ``k`` most probable maximal cliques without a chosen α.

        Implements the geometric threshold descent of
        :func:`repro.core.top_k.top_k_by_threshold_search` (which delegates
        here): start at ``initial_alpha``, multiply by ``shrink_factor``
        until at least ``k`` qualifying cliques are found or ``min_alpha``
        is reached.  ``controls.time_budget_seconds`` spans *all* passes; a
        truncated pass ends the descent.  The outcome's ``alpha`` is the
        final threshold tried and its statistics/report describe the final
        pass (the enumeration that produced the ranking).
        """
        if not 0.0 < shrink_factor < 1.0:
            raise ParameterError(
                f"shrink_factor must be in (0, 1), got {shrink_factor}"
            )
        if not 0.0 < initial_alpha <= 1.0:
            raise ParameterError(
                f"initial_alpha must be in (0, 1], got {initial_alpha}"
            )

        deadline = None
        if controls is not None and controls.time_budget_seconds is not None:
            deadline = monotonic() + controls.time_budget_seconds

        alpha = initial_alpha
        with Stopwatch() as timer:
            while True:
                pass_controls = controls
                if deadline is not None:
                    pass_controls = replace(
                        controls, time_budget_seconds=max(0.0, deadline - monotonic())
                    )
                outcome = self._enumerate_top_k(
                    EnumerationRequest(
                        algorithm="top_k",
                        alpha=alpha,
                        k=k,
                        min_size=min_size,
                        prune_edges=prune_edges,
                        controls=pass_controls,
                    )
                )
                if len(outcome.records) >= k or alpha <= min_alpha or outcome.truncated:
                    break
                alpha = max(alpha * shrink_factor, min_alpha)
        # Stopwatch only fills .elapsed on exit, so the descent total must be
        # stamped outside the context.
        outcome.elapsed_seconds = timer.elapsed
        return outcome

    # ------------------------------------------------------------------ #
    # Dispatch targets
    # ------------------------------------------------------------------ #
    def _enumerate_serial(self, request: EnumerationRequest) -> EnumerationOutcome:
        statistics = SearchStatistics()
        report = RunReport()
        with Stopwatch() as timer:
            cliques = CliqueColumns.concat(self._pages(request, statistics, report))
        return EnumerationOutcome(
            algorithm=request.label,
            alpha=request.alpha,
            records=cliques,
            statistics=statistics,
            report=report,
            elapsed_seconds=timer.elapsed,
            request=request,
        )

    def _enumerate_top_k(self, request: EnumerationRequest) -> EnumerationOutcome:
        outcome = self._enumerate_serial(request)
        outcome.records = rank_by_probability(outcome.records, request.k)
        return outcome

    def _enumerate_parallel(self, request: EnumerationRequest) -> EnumerationOutcome:
        # The parallel layer builds on the session (one compilation owner),
        # so the import is deferred to keep the module graph acyclic.
        from ..parallel.runner import default_workers, parallel_enumerate

        workers = request.workers if request.workers is not None else default_workers()
        statistics = SearchStatistics()
        report = RunReport()
        cliques: list[CliqueRecord] | CliqueColumns = []
        with Stopwatch() as timer:
            if self._graph.num_vertices > 0:
                compiled = self.compiled(alpha=request.compile_alpha())
                cliques, statistics, stop_reason = parallel_enumerate(
                    compiled,
                    request.alpha,
                    workers=workers,
                    controls=request.controls,
                    num_shards=request.num_shards,
                    backend=request.backend,
                    kernel=request.kernel,
                )
                report.stop_reason = stop_reason
                report.cliques_emitted = len(cliques)
                _observe_engine_run(statistics, report)
        return EnumerationOutcome(
            algorithm=request.label,
            alpha=request.alpha,
            records=cliques,
            statistics=statistics,
            report=report,
            elapsed_seconds=timer.elapsed,
            request=request,
        )

    def __repr__(self) -> str:
        return f"MiningSession(graph={self._graph!r}, cache={self._cache!r})"


def _root_shard_mask(compiled: CompiledGraph, labels: Sequence) -> int:
    """Translate a request's ``root_shard`` labels into a root bitmask.

    Labels are resolved against the compiled artifact's stable vertex
    indexing (pruning never drops vertices, so the mapping is the same at
    every α); a label the graph does not contain is a caller error.
    """
    mask = 0
    for label in labels:
        index = compiled.index_of.get(label)
        if index is None:
            raise ParameterError(
                f"root_shard names vertex {label!r}, which is not in the graph"
            )
        mask |= 1 << index
    return mask


def _strategy_for(request: EnumerationRequest) -> EnumerationStrategy:
    """Instantiate the engine strategy a serial request dispatches to."""
    algorithm = request.algorithm
    if algorithm in ("mule", "fast"):
        return MuleStrategy()
    if algorithm == "noip":
        return NoIncrementalStrategy()
    if algorithm == "large":
        return LargeCliqueStrategy(request.size_threshold)
    if algorithm == "top_k":
        return TopKStrategy(min_size=request.min_size)
    raise ParameterError(f"no strategy for algorithm {algorithm!r}")
