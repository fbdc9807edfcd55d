"""The paper's primary contribution: α-maximal clique mining algorithms.

Public entry points:

* :func:`repro.core.mule.mule` — enumerate all α-maximal cliques (MULE).
* :func:`repro.core.large_mule.large_mule` — enumerate only α-maximal
  cliques with at least ``t`` vertices (LARGE-MULE).
* :func:`repro.core.dfs_noip.dfs_noip` — the non-incremental DFS baseline.
* :func:`repro.core.brute_force.brute_force_alpha_maximal_cliques` — the
  exhaustive oracle used for validation.
* :func:`repro.core.top_k.top_k_maximal_cliques` — the related-work top-k
  problem.
* :mod:`repro.core.bounds` — Theorem 1 bounds and extremal constructions.

All enumerators are thin wrappers over the shared iterative search engine
(:mod:`repro.core.engine`): a compiled bitmask graph stage, an
explicit-stack kernel with run controls (``max_cliques``,
``time_budget_seconds``), and pluggable enumeration strategies.
"""

from .bounds import (
    extremal_clique_size,
    extremal_uncertain_graph,
    is_non_redundant_family,
    moon_moser_bound,
    moon_moser_graph,
    stirling_output_lower_bound,
    uncertain_clique_bound,
)
from .brute_force import brute_force_alpha_maximal_cliques, is_alpha_maximal_clique
from .dfs_noip import dfs_noip, iter_alpha_maximal_cliques_noip
from .engine import (
    CompiledGraph,
    EnumerationStrategy,
    LargeCliqueStrategy,
    MuleStrategy,
    NoIncrementalStrategy,
    RunControls,
    RunReport,
    StopReason,
    TopKStrategy,
    compile_graph,
    run_search,
)
from .fast_mule import fast_mule, iter_alpha_maximal_cliques_fast
from .large_mule import LargeMuleConfig, iter_large_alpha_maximal_cliques, large_mule
from .mule import MuleConfig, iter_alpha_maximal_cliques, mule
from .pruning import PruningReport
from .result import CliqueRecord, EnumerationResult, SearchStatistics, Stopwatch
from .top_k import top_k_by_threshold_search, top_k_maximal_cliques

__all__ = [
    "mule",
    "MuleConfig",
    "iter_alpha_maximal_cliques",
    "large_mule",
    "LargeMuleConfig",
    "iter_large_alpha_maximal_cliques",
    "dfs_noip",
    "iter_alpha_maximal_cliques_noip",
    "fast_mule",
    "iter_alpha_maximal_cliques_fast",
    "brute_force_alpha_maximal_cliques",
    "is_alpha_maximal_clique",
    "top_k_maximal_cliques",
    "top_k_by_threshold_search",
    "CompiledGraph",
    "compile_graph",
    "run_search",
    "RunControls",
    "RunReport",
    "StopReason",
    "EnumerationStrategy",
    "MuleStrategy",
    "NoIncrementalStrategy",
    "LargeCliqueStrategy",
    "TopKStrategy",
    "PruningReport",
    "CliqueRecord",
    "EnumerationResult",
    "SearchStatistics",
    "Stopwatch",
    "moon_moser_bound",
    "uncertain_clique_bound",
    "extremal_uncertain_graph",
    "extremal_clique_size",
    "moon_moser_graph",
    "is_non_redundant_family",
    "stirling_output_lower_bound",
]
