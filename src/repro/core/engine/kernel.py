"""The explicit-stack iterative search kernel.

:func:`run_search` performs the depth-first exploration shared by every
enumeration algorithm in the repository.  Compared to the recursive
``enum()`` closures it replaces, the kernel:

* **never recurses** — search depth is bounded by memory, not by the
  interpreter's recursion limit, so no enumerator mutates
  ``sys.setrecursionlimit`` anymore and 10⁵-vertex clique chains are fine;
* **streams** — it is a generator yielding one ``(indices, probability)``
  pair per clique in depth-first discovery order, ``indices`` being the
  clique's vertex indices in the order the search added them; callers can
  pause, interleave, or abandon the search at any point, and map indices
  to labels themselves (:meth:`CompiledGraph.decode`, or in bulk through
  ``compiled.labels``);
* **honours run controls** — ``max_cliques`` and ``time_budget_seconds``
  stop the walk early with the reason recorded on a
  :class:`~repro.core.engine.controls.RunReport`.

The per-node bookkeeping (candidate generation, pruning, emission) is
delegated to an :class:`~repro.core.engine.strategies.EnumerationStrategy`.
The correspondence to the recursive formulation of Algorithm 2:

* pushing a frame = entering ``Enum-Uncertain-MC``;
* ``strategy.expand`` = the emission test at the top of the call plus the
  (single!) sort of the candidate set — the seed implementation re-sorted
  the candidates of every ancestor on every visit;
* ``strategy.descend`` = lines 5–7 (``GenerateI``/``GenerateX``);
* ``strategy.retire`` = line 9 (move the branched-on vertex into ``X``),
  deferred until the subtree finishes, exactly as the recursion does.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import Any
from time import perf_counter

from ..result import SearchStatistics
from .compiled import CompiledGraph
from .controls import CancellationToken, RunControls, RunReport, StopReason
from .strategies import EnumerationStrategy

__all__ = ["run_search"]

_UNLIMITED = RunControls()


def run_search(
    compiled: CompiledGraph,
    alpha: float,
    strategy: EnumerationStrategy,
    *,
    statistics: SearchStatistics | None = None,
    controls: RunControls | None = None,
    report: RunReport | None = None,
    cancel: CancellationToken | None = None,
) -> Iterator[tuple[tuple[int, ...], float]]:
    """Run one iterative depth-first enumeration and yield its emissions.

    Parameters
    ----------
    compiled:
        The compiled graph (see :func:`~repro.core.engine.compiled.compile_graph`).
    alpha:
        The probability threshold, already validated by the caller.
    strategy:
        The enumeration strategy; bound to this run via ``strategy.bind``.
    statistics:
        Optional :class:`~repro.core.result.SearchStatistics` updated in place.
    controls:
        Optional :class:`~repro.core.engine.controls.RunControls`; ``None``
        means unlimited.
    report:
        Optional :class:`~repro.core.engine.controls.RunReport` filled in
        place with the stop reason and progress counters.
    cancel:
        Optional :class:`~repro.core.engine.controls.CancellationToken`
        polled on the ``check_every_frames`` cadence (same window as the
        time budget; cancellation wins when both fire in one window).

    Yields
    ------
    tuple(tuple[int, ...], float)
        Each emitted clique as its vertex indices, in the order the search
        added them, with its probability, in depth-first discovery order.
    """
    statistics = statistics if statistics is not None else SearchStatistics()
    report = report if report is not None else RunReport()
    controls = controls if controls is not None else _UNLIMITED
    # A report object may be reused across runs: reset all of it, not just
    # the stop reason, or stale counters would trip the max_cliques check.
    report.stop_reason = StopReason.COMPLETED
    report.cliques_emitted = 0
    report.frames_expanded = 0

    strategy.bind(compiled, alpha, statistics)
    if compiled.n == 0:
        return

    # Shard restriction (CompiledGraph.restrict_roots): first-level branches
    # outside root_mask are skipped without calling the strategy — but still
    # retired into the exclusion side below — so *every* strategy honours
    # sharding and maximality stays global within a shard.  Unrestricted
    # searches skip the per-branch check entirely.
    root_mask = compiled.root_mask
    root_restricted = root_mask != compiled.all_mask
    max_cliques = controls.max_cliques
    deadline = (
        perf_counter() + controls.time_budget_seconds
        if controls.time_budget_seconds is not None
        else None
    )
    check_every = controls.check_every_frames
    check_limits = deadline is not None or cancel is not None

    expand = strategy.expand
    descend = strategy.descend
    retire = strategy.retire

    clique: list[int] = []
    root = strategy.root()
    candidates, probability = expand(root, clique)
    report.frames_expanded += 1
    if probability is not None:
        yield tuple(clique), probability
        report.cliques_emitted += 1
        if max_cliques is not None and report.cliques_emitted >= max_cliques:
            report.stop_reason = StopReason.MAX_CLIQUES
            return
    if not candidates:
        return

    # Frame layout: [state, candidates, n_candidates, next_index,
    # pending_retire_vertex].  ``pending`` is the candidate whose subtree
    # just finished (or was pruned); it is retired exactly once, when the
    # frame next surfaces.
    stack: list[list[Any]] = [[root, candidates, len(candidates), 0, -1]]
    frames_since_check = 0

    while stack:
        frame = stack[-1]
        pending = frame[4]
        if pending >= 0:
            retire(frame[0], pending)
            frame[4] = -1

        index = frame[3]
        if index >= frame[2]:
            stack.pop()
            if clique:
                clique.pop()
            continue
        frame[3] = index + 1
        u = frame[1][index]
        frame[4] = u

        if root_restricted and not clique and not (root_mask >> u) & 1:
            child = None
        else:
            child = descend(frame[0], u, clique)
        # Every descent — pruned or not — counts toward the time-budget
        # check window.  Checking only after successful descents (the old
        # behaviour) made the deadline unreachable on prune-dominated
        # stretches: a strategy refusing millions of branches in a row
        # never surfaced at the check below and blew past the budget.
        if check_limits:
            frames_since_check += 1
            if frames_since_check >= check_every:
                frames_since_check = 0
                # Cancellation is checked first so that a token cancelled
                # before an already-expired deadline is observed still wins
                # deterministically within the shared check window.
                if cancel is not None and cancel.cancelled:
                    report.stop_reason = StopReason.CANCELLED
                    return
                if deadline is not None and perf_counter() >= deadline:
                    report.stop_reason = StopReason.TIME_BUDGET
                    return
        if child is None:
            continue

        clique.append(u)
        child_candidates, probability = expand(child, clique)
        report.frames_expanded += 1
        if probability is not None:
            yield tuple(clique), probability
            report.cliques_emitted += 1
            if max_cliques is not None and report.cliques_emitted >= max_cliques:
                report.stop_reason = StopReason.MAX_CLIQUES
                return
        if child_candidates:
            stack.append([child, child_candidates, len(child_candidates), 0, -1])
        else:
            clique.pop()
