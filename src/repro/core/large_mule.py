"""LARGE-MULE — enumerate only large α-maximal cliques (Algorithms 5–6).

For a user-provided size threshold ``t``, LARGE-MULE enumerates every
α-maximal clique with **at least** ``t`` vertices while skipping most of the
search space that can only produce smaller cliques.  Two mechanisms provide
the speed-up reported in Figures 5–6 of the paper:

1. **Shared Neighborhood Filtering** (Modani & Dey) prunes edges and
   vertices that cannot belong to any clique of size ≥ t before the search
   starts.  It runs on the compiled graph
   (:meth:`~repro.core.engine.compiled.CompiledGraph.restrict_shared_neighborhood`),
   as the last stage of the shared
   :func:`~repro.core.engine.compiled.compile_graph` pipeline.
2. **Search-space pruning**: before descending into an extended clique
   ``C'``, the strategy checks ``|C'| + |I'| ≥ t``; when the bound fails, no
   clique of size ≥ t can be reached along this branch, so it is skipped
   (Algorithm 6, line 8 — implemented by
   :class:`~repro.core.engine.strategies.LargeCliqueStrategy`).

Note on semantics: the paper's Lemma 13 phrases the guarantee as
"enumerates every α-maximal clique with more than t vertices" while the
pseudo-code prunes branches with ``|C'| + |I'| < t``, i.e. it retains
cliques of size exactly ``t`` as well.  We follow the pseudo-code — the
output is every α-maximal clique of size **≥ t** — and the test suite pins
this behaviour by comparing against filtered MULE output.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterator

from ..api.request import EnumerationRequest
from ..api.session import MiningSession
from ..uncertain.graph import UncertainGraph
from .engine.controls import RunControls, RunReport
from .pruning import PruningReport
from .result import EnumerationResult, SearchStatistics

__all__ = ["large_mule", "iter_large_alpha_maximal_cliques", "LargeMuleConfig"]

Vertex = Hashable


class LargeMuleConfig:
    """Tunable knobs of the LARGE-MULE enumerator.

    Parameters
    ----------
    prune_edges:
        Apply Observation 3 edge pruning (drop ``p(e) < α``) first.
    shared_neighborhood_filtering:
        Apply the Modani--Dey pre-filter.  Disabling it keeps the output
        identical but removes the pre-pruning speed-up; the ablation
        benchmark toggles this flag.
    """

    def __init__(
        self,
        *,
        prune_edges: bool = True,
        shared_neighborhood_filtering: bool = True,
    ) -> None:
        self.prune_edges = prune_edges
        self.shared_neighborhood_filtering = shared_neighborhood_filtering


def iter_large_alpha_maximal_cliques(
    graph: UncertainGraph,
    alpha: float,
    size_threshold: int,
    *,
    config: LargeMuleConfig | None = None,
    statistics: SearchStatistics | None = None,
    pruning_report: PruningReport | None = None,
    controls: RunControls | None = None,
    report: RunReport | None = None,
) -> Iterator[tuple[frozenset, float]]:
    """Lazily yield every α-maximal clique with at least ``size_threshold`` vertices.

    Parameters
    ----------
    graph:
        The uncertain graph.
    alpha:
        The probability threshold ``0 < α ≤ 1``.
    size_threshold:
        The minimum clique size ``t ≥ 2``.
    config:
        Optional :class:`LargeMuleConfig`.
    statistics, pruning_report:
        Optional counter objects updated in place.
    controls, report:
        Optional run controls and stop-reason report (see
        :mod:`repro.core.engine.controls`).

    Yields
    ------
    tuple(frozenset, float)
        Each large α-maximal clique with its clique probability.
    """
    config = config or LargeMuleConfig()
    request = EnumerationRequest(
        algorithm="large",
        alpha=alpha,
        size_threshold=size_threshold,
        prune_edges=config.prune_edges,
        shared_neighborhood_filtering=config.shared_neighborhood_filtering,
        controls=controls,
    )
    yield from MiningSession(graph).stream(
        request,
        statistics=statistics,
        report=report,
        pruning_report=pruning_report,
    )


def large_mule(
    graph: UncertainGraph,
    alpha: float,
    size_threshold: int,
    *,
    config: LargeMuleConfig | None = None,
    controls: RunControls | None = None,
) -> EnumerationResult:
    """Enumerate every α-maximal clique with at least ``size_threshold`` vertices.

    Returns the same cliques as ``mule(graph, alpha)`` filtered to size
    ≥ ``size_threshold`` but is typically much faster because of the
    pre-pruning and the branch-and-bound cut (Figures 5–6 of the paper).

    Examples
    --------
    >>> g = UncertainGraph(edges=[(1, 2, 0.9), (2, 3, 0.9), (1, 3, 0.9), (4, 5, 0.9)])
    >>> result = large_mule(g, 0.5, 3)
    >>> sorted(sorted(r.vertices) for r in result)
    [[1, 2, 3]]
    """
    config = config or LargeMuleConfig()
    request = EnumerationRequest(
        algorithm="large",
        alpha=alpha,
        size_threshold=size_threshold,
        prune_edges=config.prune_edges,
        shared_neighborhood_filtering=config.shared_neighborhood_filtering,
        controls=controls,
    )
    return MiningSession(graph).enumerate(request).to_result()
