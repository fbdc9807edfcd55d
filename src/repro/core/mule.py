"""MULE — Maximal Uncertain cLique Enumeration (Algorithms 1–4 of the paper).

MULE enumerates every α-maximal clique of an uncertain graph using a
depth-first search over vertex subsets in increasing vertex-identifier
order, with three optimizations over the naive search (Section 4):

1. **Candidate tracking** — the search carries the set ``I`` of vertices
   that can still extend the current clique, so adjacency never has to be
   re-verified from scratch.
2. **Incremental probability maintenance** — every candidate ``u`` carries
   the factor ``r`` such that ``clq(C ∪ {u}, G) = clq(C, G) · r``; extending
   the clique therefore costs O(1) multiplications per candidate instead of
   Θ(|C|).
3. **O(n) maximality checking** — the exclusion set ``X`` (vertices smaller
   than ``max(C)`` that could extend ``C`` but belong to other search paths)
   is maintained incrementally; ``C`` is α-maximal exactly when both ``I``
   and ``X`` are empty.

The worst-case running time is ``O(n · 2^n)`` (Theorem 3), within a
``O(√n)`` factor of the output-size lower bound ``Ω(√n · 2^n)``
(Observation 5 / Lemma 12).

Since the engine refactor this module is a thin wrapper over the shared
iterative kernel (:mod:`repro.core.engine`) driven by
:class:`~repro.core.engine.strategies.MuleStrategy`: the search is
non-recursive (no ``sys.setrecursionlimit`` mutation), streams its results,
and honours :class:`~repro.core.engine.controls.RunControls`.  Since the
session-API refactor both entry points delegate to
:class:`repro.api.MiningSession` — the one owner of compilation and
compiled-graph caching — and produce output (cliques, counters, labels)
bit-identical to the pre-refactor implementation.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterator

from ..api.request import EnumerationRequest
from ..api.session import MiningSession
from ..uncertain.graph import UncertainGraph
from .engine.controls import RunControls, RunReport
from .result import EnumerationResult, SearchStatistics

__all__ = ["mule", "iter_alpha_maximal_cliques", "MuleConfig"]

Vertex = Hashable


class MuleConfig:
    """Tunable knobs of the MULE enumerator.

    Parameters
    ----------
    prune_edges:
        Apply the Observation 3 preprocessing (drop edges with
        ``p(e) < α``) before the search.  On by default; turning it off is
        only useful for the ablation benchmark.
    """

    def __init__(self, *, prune_edges: bool = True) -> None:
        self.prune_edges = prune_edges


def iter_alpha_maximal_cliques(
    graph: UncertainGraph,
    alpha: float,
    *,
    config: MuleConfig | None = None,
    statistics: SearchStatistics | None = None,
    controls: RunControls | None = None,
    report: RunReport | None = None,
) -> Iterator[tuple[frozenset, float]]:
    """Lazily yield ``(clique, probability)`` pairs for every α-maximal clique.

    This is the streaming core of MULE; :func:`mule` wraps it into an
    :class:`~repro.core.result.EnumerationResult`.  Cliques are yielded in
    the order the depth-first search discovers them.

    Parameters
    ----------
    graph:
        The uncertain graph; vertex labels may be arbitrary hashables.
    alpha:
        The probability threshold ``0 < α ≤ 1``.
    config:
        Optional :class:`MuleConfig`.
    statistics:
        Optional counter object that will be updated in place.
    controls:
        Optional :class:`~repro.core.engine.controls.RunControls` bounding
        the run (maximum cliques, wall-clock budget).
    report:
        Optional :class:`~repro.core.engine.controls.RunReport` recording
        how the run ended.

    Yields
    ------
    tuple(frozenset, float)
        The α-maximal clique (original vertex labels) and its exact clique
        probability as maintained incrementally during the search.
    """
    config = config or MuleConfig()
    request = EnumerationRequest(
        algorithm="mule",
        alpha=alpha,
        prune_edges=config.prune_edges,
        controls=controls,
    )
    yield from MiningSession(graph).stream(
        request, statistics=statistics, report=report
    )


def mule(
    graph: UncertainGraph,
    alpha: float,
    *,
    config: MuleConfig | None = None,
    controls: RunControls | None = None,
) -> EnumerationResult:
    """Enumerate all α-maximal cliques of ``graph`` with MULE (Algorithm 1).

    Parameters
    ----------
    graph:
        The uncertain graph.
    alpha:
        The probability threshold ``0 < α ≤ 1``.  With ``α = 1`` the output
        coincides with deterministic maximal cliques of the subgraph of
        certain edges.
    config:
        Optional :class:`MuleConfig` controlling preprocessing.
    controls:
        Optional :class:`~repro.core.engine.controls.RunControls`; when the
        run is truncated the result's ``stop_reason`` says why.

    Returns
    -------
    EnumerationResult
        The α-maximal cliques, with search statistics and wall-clock time.

    Examples
    --------
    >>> g = UncertainGraph(edges=[(1, 2, 0.9), (2, 3, 0.9), (1, 3, 0.9)])
    >>> result = mule(g, 0.5)
    >>> sorted(sorted(r.vertices) for r in result)
    [[1, 2, 3]]
    """
    config = config or MuleConfig()
    request = EnumerationRequest(
        algorithm="mule",
        alpha=alpha,
        prune_edges=config.prune_edges,
        controls=controls,
    )
    return MiningSession(graph).enumerate(request).to_result()
