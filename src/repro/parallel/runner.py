"""Sharded parallel enumeration of α-maximal cliques.

:func:`parallel_mule` compiles the graph **once**, splits the root candidate
set into balanced shards (:class:`~repro.parallel.planner.ShardPlanner`),
runs one MULE search per shard — across a ``ProcessPoolExecutor`` when real
parallelism is available, sequentially in-process otherwise — and merges the
per-shard emissions, :class:`~repro.core.result.SearchStatistics` and
:class:`~repro.core.engine.controls.RunReport` objects into one
:class:`~repro.core.result.EnumerationResult`.

Correctness rests on the shard semantics of
:meth:`CompiledGraph.restrict_roots`: shards own disjoint root subtrees,
every α-maximal clique is emitted by exactly one shard (the one owning its
smallest vertex), and the merged clique set — probabilities included — is
**bit-identical** to serial :func:`repro.core.mule.mule` whenever no run
control truncates a shard.

Run-control semantics under sharding:

* ``time_budget_seconds`` is a *global* wall-clock budget: the parent
  computes an absolute deadline before dispatch and every shard receives
  only the time remaining when it actually starts, so queued shards cannot
  stretch the total run far past the budget (the overrun stays bounded by
  one ``check_every_frames`` window per in-flight shard).
* ``max_cliques`` bounds the merged output size: each shard is individually
  capped, then the merged, sorted records are trimmed to the cap.  Unlike
  the serial enumerator the retained subset is the *sorted* prefix, not the
  depth-first prefix — shards finish in nondeterministic order, so a DFS
  prefix is not meaningful across them.  ``stop_reason`` still reports the
  truncation.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_all_start_methods, get_context
from time import monotonic
from typing import NamedTuple, Sequence

from ..core.engine.backends import resolve_kernel, run_kernel_search
from ..core.engine.compiled import CompiledGraph
from ..core.engine.controls import RunControls, RunReport, StopReason
from ..core.engine.strategies import MuleStrategy
from ..core.mule import MuleConfig
from ..core.result import CliqueRecord, EnumerationResult, SearchStatistics
from ..errors import ParameterError
from ..uncertain.graph import UncertainGraph, validate_probability
from .planner import Shard, ShardPlanner

__all__ = [
    "ShardOutcome",
    "merge_shard_outcomes",
    "parallel_enumerate",
    "parallel_mule",
    "run_shards",
    "default_workers",
]

#: Oversubscription factor: shards per worker.  More shards than workers lets
#: the pool rebalance when subtree costs defy the planner's degree estimate.
_SHARDS_PER_WORKER = 4


class ShardOutcome(NamedTuple):
    """What one shard produced: its emissions, counters and stop report."""

    shard: Shard
    pairs: list[tuple[frozenset, float]]
    statistics: SearchStatistics
    report: RunReport


def default_workers() -> int:
    """Default worker count: the CPUs this process may actually use.

    ``sched_getaffinity`` respects container/cgroup pinning (a pool sized
    by raw ``cpu_count`` would oversubscribe a 2-of-64-core cpuset);
    platforms without it fall back to ``cpu_count``.  Always at least 1.
    """
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count() or 1
    return max(1, usable)


def _enumerate_shard(
    compiled: CompiledGraph,
    alpha: float,
    shard: Shard,
    max_cliques: int | None,
    deadline: float | None,
    check_every: int,
    kernel: str = "auto",
) -> ShardOutcome:
    """Run one shard to completion (or until its run controls stop it)."""
    time_budget = None
    if deadline is not None:
        # The deadline is absolute (time.monotonic in the parent); convert
        # to the time remaining *now* so late-starting shards get less.
        time_budget = max(0.0, deadline - monotonic())
    controls = RunControls(
        max_cliques=max_cliques,
        time_budget_seconds=time_budget,
        check_every_frames=check_every,
    )
    statistics = SearchStatistics()
    report = RunReport()
    restricted = compiled.restrict_roots(shard.root_mask)
    decode = restricted.decode
    pairs = [
        (decode(indices), probability)
        for indices, probability in run_kernel_search(
            restricted,
            alpha,
            MuleStrategy(),
            kernel=kernel,
            statistics=statistics,
            controls=controls,
            report=report,
        )
    ]
    return ShardOutcome(shard, pairs, statistics, report)


# ----------------------------------------------------------------------- #
# Process-pool plumbing.  The compiled graph is shipped once per worker via
# the pool initializer (not once per shard task), so the per-task payload is
# just the shard and the scalar controls.
# ----------------------------------------------------------------------- #
_WORKER_STATE: tuple[CompiledGraph, float, int, str] | None = None


def _worker_initializer(
    compiled: CompiledGraph, alpha: float, check_every: int, kernel: str
) -> None:
    global _WORKER_STATE
    _WORKER_STATE = (compiled, alpha, check_every, kernel)


def _worker_run_shard(
    task: tuple[Shard, int | None, float | None],
) -> ShardOutcome:
    shard, max_cliques, deadline = task
    assert _WORKER_STATE is not None, "worker used before initialization"
    compiled, alpha, check_every, kernel = _WORKER_STATE
    return _enumerate_shard(
        compiled, alpha, shard, max_cliques, deadline, check_every, kernel
    )


def _process_backend_available() -> bool:
    """True when a fork-based process pool can be used on this platform.

    ``fork`` shares the parent's memory pages, making worker start-up cheap
    and sidestepping import-order issues; on platforms without it (Windows,
    and macOS's default since 3.8 is spawn) the runner falls back to the
    in-process sequential path rather than paying spawn's per-worker
    interpreter boot on every call.
    """
    return "fork" in get_all_start_methods()


def run_shards(
    compiled: CompiledGraph,
    alpha: float,
    shards: list[Shard],
    *,
    workers: int,
    controls: RunControls | None = None,
    backend: str = "auto",
    kernel: str = "auto",
) -> list[ShardOutcome]:
    """Execute ``shards`` and return their outcomes in shard order.

    Parameters
    ----------
    compiled:
        The compiled graph (shared by every shard; never copied per shard —
        the process backend ships it once per worker).
    alpha:
        The probability threshold, already validated.
    shards:
        The plan from :class:`~repro.parallel.planner.ShardPlanner`.
    workers:
        Process-pool size.  ``1`` always runs in-process.
    controls:
        Optional global run controls (see the module docstring for their
        sharded semantics).
    backend:
        ``"auto"`` (processes when ``workers > 1`` and fork is available),
        ``"process"`` (force the pool; raises
        :class:`~repro.errors.ParameterError` on fork-less platforms), or
        ``"inline"`` (sequential, in-process — deterministic and cheap,
        used by the property tests).
    kernel:
        Engine kernel each shard's inner loop runs on (``"auto"`` /
        ``"python"`` / ``"vector"``); orthogonal to ``backend``, which
        picks where the shards run.  Forwarded to
        :func:`repro.core.engine.backends.run_kernel_search`.
    """
    if backend not in ("auto", "process", "inline"):
        raise ParameterError(f"unknown backend {backend!r}")
    if backend == "process" and not _process_backend_available():
        # Refuse rather than silently degrade to a spawn pool (a fresh
        # interpreter boot per worker); "auto" picks the sensible fallback.
        raise ParameterError(
            "backend='process' requires the fork start method; "
            "use backend='auto' or 'inline' on this platform"
        )
    controls = controls or RunControls()
    deadline = (
        monotonic() + controls.time_budget_seconds
        if controls.time_budget_seconds is not None
        else None
    )
    max_cliques = controls.max_cliques
    check_every = controls.check_every_frames

    use_processes = backend == "process" or (
        backend == "auto" and workers > 1 and _process_backend_available()
    )
    if not use_processes or len(shards) <= 1:
        return [
            _enumerate_shard(
                compiled, alpha, shard, max_cliques, deadline, check_every, kernel
            )
            for shard in shards
        ]

    # Resolve the kernel before forking, so the children inherit the
    # decided (and loaded) native kernel rather than a build lock another
    # thread may hold at the fork.
    kernel = resolve_kernel(kernel, MuleStrategy())
    context = get_context("fork")
    tasks = [(shard, max_cliques, deadline) for shard in shards]
    with ProcessPoolExecutor(
        max_workers=min(workers, len(shards)),
        mp_context=context,
        initializer=_worker_initializer,
        initargs=(compiled, alpha, check_every, kernel),
    ) as pool:
        # Executor.map preserves task order, so the merge is deterministic
        # regardless of which shard finishes first.
        return list(pool.map(_worker_run_shard, tasks))


def parallel_enumerate(
    compiled: CompiledGraph,
    alpha: float,
    *,
    workers: int,
    controls: RunControls | None = None,
    num_shards: int | None = None,
    backend: str = "auto",
    kernel: str = "auto",
) -> tuple[list[CliqueRecord], SearchStatistics, str]:
    """Run the shard/merge pipeline over an already-compiled graph.

    This is the compile-free core of :func:`parallel_mule`, used by the
    session API (:class:`repro.api.MiningSession`) so the sharded path runs
    over the session's cached artifact.  Returns the records, statistics
    and stop reason :func:`merge_shard_outcomes` makes of the shards; the
    global deadline is documented on the module.
    """
    if num_shards is None:
        num_shards = workers * _SHARDS_PER_WORKER if workers > 1 else 1
    shards = ShardPlanner(num_shards).plan(compiled)
    outcomes = run_shards(
        compiled,
        alpha,
        shards,
        workers=workers,
        controls=controls,
        backend=backend,
        kernel=kernel,
    )
    results = [
        ([CliqueRecord(v, p) for v, p in o.pairs], o.statistics, o.report.stop_reason)
        for o in outcomes
    ]
    max_cliques = controls.max_cliques if controls is not None else None
    return merge_shard_outcomes(results, max_cliques=max_cliques)


def merge_shard_outcomes(
    shards: Sequence[tuple[list[CliqueRecord], SearchStatistics, str]],
    *,
    max_cliques: int | None = None,
    cancelled: bool = False,
) -> tuple[list[CliqueRecord], SearchStatistics, str]:
    """Merge ``(records, statistics, stop_reason)`` per shard, in shard order.

    The one merge of the process pool and the worker fleet.  Counters are
    summed less the root frame each shard kernel after the first counts
    again (a kernel that ran made at least one recursive call; a shard
    cancelled before it started adds zeros), so they equal serial MULE's.
    Stop reasons merge by precedence, ``cancelled`` included when the
    caller cancelled; a cap trim makes ``max-cliques`` binding, but
    cancellation or a blown deadline anywhere still outranks it.
    """
    records = [record for shard, _, _ in shards for record in shard]
    statistics = SearchStatistics()
    for _, counters, _ in shards:
        statistics = statistics.merge(counters)
    started = sum(1 for _, counters, _ in shards if counters.recursive_calls > 0)
    statistics.recursive_calls -= max(0, started - 1)
    stop_reason = _merge_stop_reasons([reason for _, _, reason in shards])
    if cancelled:
        stop_reason = _strongest(stop_reason, StopReason.CANCELLED)
    if max_cliques is not None and len(records) > max_cliques:
        records = sorted(records)[:max_cliques]
        stop_reason = _strongest(stop_reason, StopReason.MAX_CLIQUES)
    return records, statistics, stop_reason


def parallel_mule(
    graph: UncertainGraph,
    alpha: float,
    *,
    workers: int | None = None,
    controls: RunControls | None = None,
    config: MuleConfig | None = None,
    num_shards: int | None = None,
    backend: str = "auto",
    kernel: str = "auto",
    compiled: CompiledGraph | None = None,
) -> EnumerationResult:
    """Enumerate all α-maximal cliques with sharded parallel MULE.

    The clique set (and every probability, bit for bit) is identical to
    serial :func:`repro.core.mule.mule` whenever no run control truncates
    the enumeration; only the recorded ``algorithm`` label and the division
    of the search across OS processes differ.

    Since the session-API refactor this is a thin delegate over
    :class:`repro.api.MiningSession`: the session owns compilation and
    caching, and the shard/merge pipeline (:func:`parallel_enumerate`) runs
    over its artifact.

    Parameters
    ----------
    graph:
        The uncertain graph.
    alpha:
        The probability threshold ``0 < α ≤ 1``.
    workers:
        Number of worker processes (default: the machine's CPU count).
        ``workers=1`` — and any platform without ``fork`` — runs the shards
        sequentially in-process; the result is identical either way.
    controls:
        Optional :class:`~repro.core.engine.controls.RunControls`; see the
        module docstring for how each limit behaves under sharding.
    config:
        Optional :class:`~repro.core.mule.MuleConfig` (preprocessing knobs).
    num_shards:
        Override the shard count (default ``workers × 4``, capped at the
        number of vertices); the output does not depend on it.
    backend:
        Execution backend passed through to :func:`run_shards`.
    kernel:
        Engine kernel each shard runs on (``"auto"`` / ``"python"`` /
        ``"vector"``); independent of ``backend``.  Either way the
        results are bit-identical.
    compiled:
        Optional precompiled graph.  Must have been produced by
        ``compile_graph(graph, alpha=alpha if config.prune_edges else None)``
        (the caller vouches for the match); when given, no compilation
        happens here at all — the artifact is adopted by the session and
        shipped to the shard workers as-is.

    Examples
    --------
    >>> g = UncertainGraph(edges=[(1, 2, 0.9), (2, 3, 0.9), (1, 3, 0.9)])
    >>> sorted(sorted(r.vertices) for r in parallel_mule(g, 0.5, workers=2))
    [[1, 2, 3]]
    """
    # The api layer builds on this module's pipeline, so import it lazily.
    from ..api.request import EnumerationRequest
    from ..api.session import MiningSession

    alpha = validate_probability(alpha, what="alpha")
    if workers is None:
        workers = default_workers()
    if workers < 1:
        raise ParameterError(f"workers must be positive, got {workers}")
    config = config or MuleConfig()

    session = MiningSession(graph)
    if compiled is not None:
        session.adopt(compiled, alpha=alpha if config.prune_edges else None)
    request = EnumerationRequest(
        algorithm="mule",
        alpha=alpha,
        prune_edges=config.prune_edges,
        controls=controls,
        workers=workers,
        num_shards=num_shards,
        backend=backend,
        kernel=kernel,
        # Force the shard/merge path so workers=1 keeps the parallel-mule
        # label and merge semantics it has always had.
        execution="parallel",
    )
    return session.enumerate(request).to_result()


#: Merge precedence, strongest first: cancellation is a caller decision
#: and outranks everything; ``time-budget`` wins over ``max-cliques``
#: because a run that ran out of time anywhere cannot claim its output
#: is the full cap-bounded set; ``completed`` only survives when every
#: shard completed.  Listing every member keeps the merge total — a new
#: StopReason cannot silently collapse to ``completed``
#: (``tests/parallel/test_runner.py::TestStopReasonPrecedence`` pins this
#: against the StopReason vocabulary).
_STOP_PRECEDENCE = (
    StopReason.CANCELLED,
    StopReason.TIME_BUDGET,
    StopReason.MAX_CLIQUES,
    StopReason.COMPLETED,
)


def _strongest(*reasons: str) -> str:
    """The highest-precedence reason among ``reasons``."""
    return min(
        reasons,
        key=lambda reason: (
            _STOP_PRECEDENCE.index(reason)
            if reason in _STOP_PRECEDENCE
            else -1  # unknown reasons are preserved, never downgraded
        ),
    )


def _merge_stop_reasons(reasons) -> str:
    """Combine per-shard stop reasons: any truncation marks the whole run."""
    merged = StopReason.COMPLETED
    for reason in reasons:
        merged = _strongest(merged, reason)
    return merged
