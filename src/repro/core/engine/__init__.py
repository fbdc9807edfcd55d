"""The shared enumeration engine behind every clique-mining algorithm.

The paper's algorithms — MULE (Algorithms 1–4), DFS-NOIP (Algorithm 7),
LARGE-MULE (Algorithms 5–6) and the related-work top-k problem — are all
depth-first searches over vertex subsets that differ only in bookkeeping
and pruning.  This subsystem factors the shared machinery into three layers:

* :mod:`repro.core.engine.compiled` — :class:`CompiledGraph`, an immutable
  search-ready representation of an :class:`~repro.uncertain.graph.UncertainGraph`
  (0..n-1 relabeling, integer-bitmask adjacency, flat probability arrays)
  plus :func:`compile_graph`, the shared preprocessing pipeline: one
  relabel-and-prune-edges pass, then LARGE-MULE's shared-neighborhood
  filter on the bitmasks.
* :mod:`repro.core.engine.kernel` — :func:`run_search`, an explicit-stack
  **iterative** depth-first kernel.  It replaces the recursive ``enum()``
  closures of the seed implementation, eliminating the
  ``sys.setrecursionlimit`` mutation and enabling pause (it is a generator),
  early stop and time budgets via :class:`RunControls`.
* :mod:`repro.core.engine.strategies` — the pluggable
  :class:`EnumerationStrategy` protocol (candidate generation, branch
  pruning, emission test) with four implementations:
  :class:`MuleStrategy`, :class:`NoIncrementalStrategy`,
  :class:`LargeCliqueStrategy` and :class:`TopKStrategy`.

The public wrappers (:func:`repro.core.mule.mule`,
:func:`repro.core.fast_mule.fast_mule`, :func:`repro.core.dfs_noip.dfs_noip`,
:func:`repro.core.large_mule.large_mule`, :mod:`repro.core.top_k`) are thin
shims over these layers; see ``docs/architecture.md`` for how to add a new
strategy.
"""

from .backends import (
    KERNELS,
    resolve_kernel,
    run_kernel_search,
    run_vector_search,
)
from .compiled import CompiledGraph, compile_graph
from .controls import (
    CancellationToken,
    ProgressSnapshot,
    RunControls,
    RunReport,
    StopReason,
)
from .kernel import run_search
from .strategies import (
    EnumerationStrategy,
    LargeCliqueStrategy,
    MuleStrategy,
    NoIncrementalStrategy,
    TopKStrategy,
)

__all__ = [
    "CompiledGraph",
    "compile_graph",
    "CancellationToken",
    "ProgressSnapshot",
    "RunControls",
    "RunReport",
    "StopReason",
    "run_search",
    "KERNELS",
    "resolve_kernel",
    "run_kernel_search",
    "run_vector_search",
    "EnumerationStrategy",
    "MuleStrategy",
    "NoIncrementalStrategy",
    "LargeCliqueStrategy",
    "TopKStrategy",
]
