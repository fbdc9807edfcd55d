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

Each kernel has two front doors here, and both speak vertex indices,
never sets of labels:

:func:`run_kernel_search`
    One ``(indices, probability)`` pair per clique, ``indices`` a tuple of
    the clique's vertex indices in the order the search added them, with
    the counters at each yield.  :meth:`~repro.api.MiningSession.stream`
    decodes each one through :meth:`CompiledGraph.decode`.
:func:`run_kernel_blocks`
    Column blocks ``(indices, sizes, probabilities)``: many cliques' flat
    vertex indices, one size and one probability per clique.  The vector
    kernel hands over each C step's output as one block, with no Python
    per clique; the python kernel's pairs are grouped into blocks of the
    same bound.  The session's and the job pipeline's pages
    (:class:`~repro.core.result.CliqueColumns`) are cut from them, their
    labels mapped in bulk through ``compiled.labels``.

The vector kernel adds vertices in ascending index order, so on a graph
whose labels sorted naturally (``CompiledGraph.labels_sorted``) its
cliques come out in ``CliqueRecord.as_tuple()`` order and a columns
encoder need not sort them again.

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

from array import array
from collections.abc import Generator, Iterator, Sequence
from typing import TypeAlias

from ....errors import ParameterError
from ...result import SearchStatistics
from ..compiled import CompiledGraph
from ..controls import CancellationToken, RunControls, RunReport, StopReason
from ..kernel import run_search
from ..strategies import (
    EnumerationStrategy,
    LargeCliqueStrategy,
    MuleStrategy,
    TopKStrategy,
)
from . import native
from .native import run_vector_blocks, run_vector_search

__all__ = [
    "KERNELS",
    "Block",
    "resolve_kernel",
    "run_kernel_blocks",
    "run_kernel_search",
    "run_vector_search",
]

#: One column block of cliques: their flat vertex indices, one size per
#: clique and one probability per clique.  Each block is new, the
#: consumer's to keep.
Block: TypeAlias = "tuple[Sequence[int], Sequence[int], array[float]]"

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


def run_kernel_blocks(
    compiled: CompiledGraph,
    alpha: float,
    strategy: EnumerationStrategy,
    *,
    kernel: str = "auto",
    statistics: SearchStatistics | None = None,
    controls: RunControls | None = None,
    report: RunReport | None = None,
    cancel: CancellationToken | None = None,
) -> Generator[Block, None, None]:
    """Run one enumeration on the resolved kernel; yield its cliques as blocks.

    The column-block front door beside :func:`run_kernel_search`: the same
    run, the same cliques in the same order, and at the end the same
    counters and stop reason on either kernel, handed over as
    :data:`Block` tuples (no block is empty).  The vector kernel yields one
    block per C step (:func:`~repro.core.engine.backends.native.run_vector_blocks`);
    the python kernel's pairs are grouped into blocks of at most the C
    step's clique count.  ``cancel`` is read before each clique is kept,
    in C on the vector kernel: a cancelled run ends at the next clique with
    :attr:`StopReason.CANCELLED`, its blocks holding exactly the cliques
    produced before the cancel and its counters where the kernel stood at
    that clique.  Mid-run, the counters are set at least once per block.
    """
    if resolve_kernel(kernel, strategy) == "vector":
        return run_vector_blocks(
            compiled,
            alpha,
            strategy,
            statistics=statistics,
            controls=controls,
            report=report,
            cancel=cancel,
        )
    report = report if report is not None else RunReport()
    found = run_search(
        compiled,
        alpha,
        strategy,
        statistics=statistics,
        controls=controls,
        report=report,
        cancel=cancel,
    )
    return _grouped(found, report, cancel)


def _grouped(
    found: Iterator[tuple[tuple[int, ...], float]],
    report: RunReport,
    cancel: CancellationToken | None,
) -> Generator[Block, None, None]:
    """The python kernel's pairs as blocks, reading ``cancel.flag`` per clique."""
    size = native._BATCH_CLIQUES
    flag = cancel.flag if cancel is not None else None
    indices: list[int] = []
    sizes: list[int] = []
    probabilities = array("d")
    for clique, probability in found:
        if flag is not None and flag[0]:
            report.stop_reason = StopReason.CANCELLED
            break
        indices += clique
        sizes.append(len(clique))
        probabilities.append(probability)
        if len(sizes) == size:
            yield indices, sizes, probabilities
            indices, sizes, probabilities = [], [], array("d")
    if sizes:
        yield indices, sizes, probabilities
