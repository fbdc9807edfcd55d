"""Engine kernel backends: the python reference kernel and the vector kernel.

The engine has two interchangeable implementations of the enumeration
hot path:

``python``
    The reference: :func:`~repro.core.engine.kernel.run_search` driving a
    pluggable :class:`~repro.core.engine.strategies.EnumerationStrategy`.
    Supports every strategy, including user-defined ones.
``vector``
    The native kernel of :mod:`~repro.core.engine.backends.native`: the
    stock strategy hooks fused into one depth-first walk in C
    (``_mule.c``), compiled on first use by the system C compiler into a
    per-user cache and run with the GIL released.  Supports exactly the
    MULE family (:class:`MuleStrategy`, :class:`TopKStrategy`,
    :class:`LargeCliqueStrategy`) and is bit-identical to the python
    kernel on them: cliques, probabilities, stop reasons and statistics.

Both kernels yield one ``(indices, probability)`` pair per clique:
``indices`` is a tuple of the clique's vertex indices in the order the
search added them, never a set of labels.  Callers map indices to labels
where they need them: :meth:`~repro.api.MiningSession.stream` through
:meth:`CompiledGraph.decode` per clique, the session's and the job
pipeline's column blocks (:class:`~repro.core.result.CliqueColumns`) in
bulk through ``compiled.labels``.  The vector kernel adds vertices in
ascending index order, so on a graph whose labels sorted naturally
(``CompiledGraph.labels_sorted``) its cliques come out in
``CliqueRecord.as_tuple()`` order and a columns encoder need not sort
them again.

The kernel axis is deliberately independent of the parallel *execution*
backend (``process``/``inline`` in :mod:`repro.parallel`): one picks how
each shard's inner loop runs, the other picks where shards run, and the
two compose freely.

Selection (:func:`resolve_kernel`) depends on the strategy and on whether
the native kernel is available in this process (a C compiler is found,
the build succeeds and the cache is safe; decided once, at the first
resolution that asks).  ``auto`` picks the vector kernel whenever both
hold and quietly stays on python otherwise (DFS-NOIP is *defined* by
recomputing every probability, so the baseline always runs on the python
kernel); an explicit ``vector`` request that cannot be served is a
:class:`~repro.errors.ParameterError` saying why.
"""

from __future__ import annotations

from collections.abc import Iterator

from ....errors import ParameterError
from ...result import SearchStatistics
from ..compiled import CompiledGraph
from ..controls import CancellationToken, RunControls, RunReport
from ..kernel import run_search
from ..strategies import (
    EnumerationStrategy,
    LargeCliqueStrategy,
    MuleStrategy,
    TopKStrategy,
)
from . import native
from .native import run_vector_search

__all__ = [
    "KERNELS",
    "resolve_kernel",
    "run_kernel_search",
    "run_vector_search",
]

#: Valid values of every ``kernel`` parameter in the stack (requests,
#: CLI flags, wire schema v2, scheduler defaults).
KERNELS = ("auto", "python", "vector")

# Exact types the native walk implements.  Subclasses are excluded on
# purpose: they may override hooks the walk never calls.
_VECTOR_STRATEGIES = (MuleStrategy, TopKStrategy, LargeCliqueStrategy)


def resolve_kernel(kernel: str, strategy: EnumerationStrategy) -> str:
    """Resolve a requested kernel name against a strategy and this process.

    Returns ``"python"`` or ``"vector"``.  ``auto`` prefers the vector
    kernel when the strategy is one the native walk implements and the
    kernel is available here, and falls back to python otherwise; an
    *explicit* ``vector`` request for an unsupported strategy, or where the
    kernel is unavailable, is a :class:`~repro.errors.ParameterError` —
    silently ignoring it would misreport what was measured.
    """
    if kernel not in KERNELS:
        raise ParameterError(
            f"unknown kernel {kernel!r}; expected one of {', '.join(KERNELS)}"
        )
    if kernel == "python":
        return "python"
    supported = type(strategy) in _VECTOR_STRATEGIES
    if kernel == "vector":
        if not supported:
            raise ParameterError(
                f"the vector kernel does not support strategy "
                f"{type(strategy).__name__!r} (algorithm "
                f"{strategy.algorithm!r}); use kernel='python' or 'auto'"
            )
        reason = native.unavailable_reason()
        if reason is not None:
            raise ParameterError(
                f"the vector kernel is unavailable: {reason}; "
                f"use kernel='python' or 'auto'"
            )
        return "vector"
    return "vector" if supported and native.available() else "python"


def run_kernel_search(
    compiled: CompiledGraph,
    alpha: float,
    strategy: EnumerationStrategy,
    *,
    kernel: str = "auto",
    statistics: SearchStatistics | None = None,
    controls: RunControls | None = None,
    report: RunReport | None = None,
    cancel: CancellationToken | None = None,
) -> Iterator[tuple[tuple[int, ...], float]]:
    """Run one enumeration on the resolved kernel backend.

    The single front door of kernel selection: same contract as
    :func:`~repro.core.engine.kernel.run_search` plus the ``kernel``
    parameter (one of :data:`KERNELS`).  Both backends yield identical
    streams, so callers never need to know which one ran.
    """
    if resolve_kernel(kernel, strategy) == "vector":
        return run_vector_search(
            compiled,
            alpha,
            strategy,
            statistics=statistics,
            controls=controls,
            report=report,
            cancel=cancel,
        )
    return run_search(
        compiled,
        alpha,
        strategy,
        statistics=statistics,
        controls=controls,
        report=report,
        cancel=cancel,
    )
