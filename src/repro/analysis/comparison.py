"""Measurement harness used by the benchmark suite.

Every figure in the paper's evaluation is a sweep of one of three shapes:

* **algorithm comparison** (Figure 1): run MULE and DFS-NOIP on the same
  graph/α and compare runtimes;
* **α sweep** (Figures 2–4): run MULE across a range of thresholds and
  record runtime and output size;
* **size-threshold sweep** (Figures 5–6): run LARGE-MULE across a range of
  ``t`` values for several thresholds.

This module implements those sweeps once, returning plain list-of-dict rows
(the same rows the paper plots), plus a small text-table formatter so the
benchmarks can print paper-style summaries into ``bench_output.txt``.

Every sweep runs through one :class:`~repro.api.MiningSession` per graph,
so the graph is compiled once per sweep (α points are served by cheap
derivation, algorithms at the same α share the artifact outright) while the
recorded rows — counters included — stay bit-identical to calling the free
functions per point.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

from ..api import EnumerationRequest, MiningSession
from ..core.engine import RunControls
from ..core.result import EnumerationResult
from ..errors import ReproError
from ..uncertain.graph import UncertainGraph

__all__ = [
    "MeasurementRow",
    "compare_algorithms",
    "alpha_sweep",
    "size_threshold_sweep",
    "runtime_vs_output_size",
    "parallel_scaling",
    "format_table",
]

MeasurementRow = dict[str, object]

_REQUESTS: dict[str, Callable[[float, RunControls | None], EnumerationRequest]] = {
    "mule": lambda alpha, controls: EnumerationRequest(
        algorithm="mule", alpha=alpha, controls=controls
    ),
    "fast-mule": lambda alpha, controls: EnumerationRequest(
        algorithm="fast-mule", alpha=alpha, controls=controls
    ),
    "dfs-noip": lambda alpha, controls: EnumerationRequest(
        algorithm="dfs-noip", alpha=alpha, controls=controls
    ),
    # The sharded runner at its default worker count; use parallel_scaling
    # for a controlled worker sweep.
    "parallel-mule": lambda alpha, controls: EnumerationRequest(
        algorithm="mule", alpha=alpha, controls=controls, workers=None
    ),
}


def compare_algorithms(
    graphs: dict[str, UncertainGraph],
    alphas: Sequence[float],
    *,
    algorithms: Sequence[str] = ("mule", "dfs-noip"),
    controls: RunControls | None = None,
) -> list[MeasurementRow]:
    """Reproduce the Figure 1 comparison rows.

    For every (graph, α, algorithm) combination, run the enumerator and
    record its runtime, output size and search-effort counters.  All
    algorithms enumerate the same cliques, so ``num_cliques`` must agree
    within each (graph, α) pair — the benchmark asserts this.

    Parameters
    ----------
    graphs:
        Mapping of display name → uncertain graph.
    alphas:
        The probability thresholds to test.
    algorithms:
        Subset of ``{"mule", "fast-mule", "dfs-noip"}``.
    controls:
        Optional :class:`~repro.core.engine.controls.RunControls` applied to
        every run, so a sweep over large graphs can be bounded; truncated
        rows carry their ``stop_reason``.
    """
    rows: list[MeasurementRow] = []
    for graph_name, graph in graphs.items():
        points = [(alpha, algorithm) for alpha in alphas for algorithm in algorithms]
        # One batch per graph: session.batch pre-warms a single derivation
        # base, so the sweep compiles once regardless of the α order.
        outcomes = MiningSession(graph).batch(
            _REQUESTS[algorithm](alpha, controls) for alpha, algorithm in points
        )
        for (alpha, _), outcome in zip(points, outcomes):
            rows.append(_row(graph_name, graph, alpha, outcome.to_result()))
    return rows


def alpha_sweep(
    graphs: dict[str, UncertainGraph],
    alphas: Sequence[float],
    *,
    prune_edges: bool = True,
    controls: RunControls | None = None,
) -> list[MeasurementRow]:
    """Reproduce the Figure 2/3 sweeps: MULE runtime and output size vs α.

    Implemented as :meth:`~repro.api.MiningSession.sweep`, so each graph is
    compiled exactly once for the whole α range (the rows are bit-identical
    to per-α :func:`mule` calls; only the wall-clock column benefits).
    """
    rows: list[MeasurementRow] = []
    for graph_name, graph in graphs.items():
        outcomes = MiningSession(graph).sweep(
            alphas, algorithm="mule", prune_edges=prune_edges, controls=controls
        )
        for alpha, outcome in zip(alphas, outcomes):
            rows.append(_row(graph_name, graph, alpha, outcome.to_result()))
    return rows


def size_threshold_sweep(
    graphs: dict[str, UncertainGraph],
    alphas: Sequence[float],
    size_thresholds: Sequence[int],
    *,
    shared_neighborhood_filtering: bool = True,
    controls: RunControls | None = None,
) -> list[MeasurementRow]:
    """Reproduce the Figure 5/6 sweeps: LARGE-MULE vs the size threshold ``t``.

    The batch compiles once: each α derives from one base, and with
    shared-neighborhood filtering on, each (α, t) combination derives its
    own filtered artifact from it (the Modani–Dey filter depends on both).
    """
    rows: list[MeasurementRow] = []
    for graph_name, graph in graphs.items():
        points = [(alpha, t) for alpha in alphas for t in size_thresholds]
        outcomes = MiningSession(graph).batch(
            EnumerationRequest(
                algorithm="large",
                alpha=alpha,
                size_threshold=t,
                shared_neighborhood_filtering=shared_neighborhood_filtering,
                controls=controls,
            )
            for alpha, t in points
        )
        for (alpha, t), outcome in zip(points, outcomes):
            row = _row(graph_name, graph, alpha, outcome.to_result())
            row["size_threshold"] = t
            rows.append(row)
    return rows


def runtime_vs_output_size(
    graphs: dict[str, UncertainGraph], alphas: Sequence[float]
) -> list[MeasurementRow]:
    """Reproduce Figure 4: MULE runtime against the number of cliques output.

    The rows are the same as :func:`alpha_sweep`; this wrapper exists so the
    Figure 4 bench reads naturally and can later diverge (e.g. adding
    regression fits) without touching the other figures.
    """
    return alpha_sweep(graphs, alphas)


def parallel_scaling(
    graphs: dict[str, UncertainGraph],
    alphas: Sequence[float],
    worker_counts: Sequence[int] = (1, 2, 4),
    *,
    controls: RunControls | None = None,
) -> list[MeasurementRow]:
    """Measure sharded-parallel speedup against the serial enumerator.

    For every (graph, α) pair this runs serial :func:`mule` once as the
    baseline and :func:`~repro.parallel.parallel_mule` at each worker
    count, recording a ``workers`` column (0 for the serial baseline row)
    and the ``speedup`` relative to the baseline.  Complete (untruncated)
    runs additionally assert that the parallel clique set is identical to
    the serial one, so the sweep doubles as a parity check.

    Parameters
    ----------
    graphs:
        Mapping of display name → uncertain graph.
    alphas:
        The probability thresholds to test.
    worker_counts:
        Worker-process counts to measure (default ``(1, 2, 4)``).
    controls:
        Optional run controls applied to every run; truncated rows skip the
        parity assertion and carry their ``stop_reason``.
    """
    rows: list[MeasurementRow] = []
    for graph_name, graph in graphs.items():
        session = MiningSession(graph)
        # The baseline/parallel runs interleave per α, so pre-warm one
        # derivation base covering the whole α range up front.
        session.prepare(
            [
                EnumerationRequest(algorithm="mule", alpha=alpha, controls=controls)
                for alpha in alphas
            ]
        )
        for alpha in alphas:
            baseline = session.enumerate(
                EnumerationRequest(algorithm="mule", alpha=alpha, controls=controls)
            ).to_result()
            row = _row(graph_name, graph, alpha, baseline)
            row["workers"] = 0
            row["speedup"] = 1.0
            rows.append(row)
            for workers in worker_counts:
                # execution="parallel" keeps the shard/merge path (and the
                # parallel-mule label) even for the workers=1 row; every
                # run reuses the session's single compiled artifact.
                result = session.enumerate(
                    EnumerationRequest(
                        algorithm="mule",
                        alpha=alpha,
                        controls=controls,
                        workers=workers,
                        execution="parallel",
                    )
                ).to_result()
                if not baseline.truncated and not result.truncated:
                    # Bit-identical means probabilities too, not just the
                    # vertex sets; and a real exception, not assert — the
                    # parity guarantee must survive `python -O`, which is
                    # exactly how people run performance sweeps.
                    expected = {r.vertices: r.probability for r in baseline}
                    produced = {r.vertices: r.probability for r in result}
                    if produced != expected:
                        raise ReproError(
                            f"parallel-mule(workers={workers}) disagrees with "
                            f"serial mule on {graph_name} at alpha={alpha}"
                        )
                row = _row(graph_name, graph, alpha, result)
                row["workers"] = workers
                row["speedup"] = baseline.elapsed_seconds / max(
                    result.elapsed_seconds, 1e-9
                )
                rows.append(row)
    return rows


def _row(
    graph_name: str,
    graph: UncertainGraph,
    alpha: float,
    result: EnumerationResult,
) -> MeasurementRow:
    return {
        "graph": graph_name,
        "n": graph.num_vertices,
        "m": graph.num_edges,
        "alpha": alpha,
        "algorithm": result.algorithm,
        "num_cliques": result.num_cliques,
        "elapsed_seconds": result.elapsed_seconds,
        "recursive_calls": result.statistics.recursive_calls,
        "candidates_examined": result.statistics.candidates_examined,
        "probability_multiplications": result.statistics.probability_multiplications,
        "stop_reason": result.stop_reason,
    }


def format_table(rows: Iterable[MeasurementRow], *, columns: Sequence[str] | None = None) -> str:
    """Format measurement rows as an aligned text table.

    Floating point cells are rendered with 6 significant digits; missing
    cells render as ``-``.
    """
    rows = list(rows)
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())

    def render(value: object) -> str:
        if value is None:
            return "-"
        if isinstance(value, float):
            return f"{value:.6g}"
        return str(value)

    table = [[render(row.get(column)) for column in columns] for row in rows]
    widths = [
        max(len(str(column)), *(len(line[i]) for line in table))
        for i, column in enumerate(columns)
    ]
    header = "  ".join(str(column).ljust(widths[i]) for i, column in enumerate(columns))
    separator = "  ".join("-" * widths[i] for i in range(len(columns)))
    body = "\n".join(
        "  ".join(line[i].ljust(widths[i]) for i in range(len(columns))) for line in table
    )
    return "\n".join([header, separator, body])
