"""The compiled graph stage of the enumeration engine.

Every enumerator used to repeat the same preprocessing pipeline —
validate α, drop edges with ``p(e) < α`` (Observation 3), optionally apply
Shared Neighborhood Filtering (LARGE-MULE), relabel vertices to integers —
and :mod:`repro.core.fast_mule` privately built bitmask adjacency on top.
:class:`CompiledGraph` makes that representation a first-class, shared
artifact, compiled once and then pruned on the integer form:

* vertices are relabelled to ``0..n-1`` in sorted label order (``repr``
  order for non-orderable labels), so the lexicographic exploration order of
  Algorithm 2 becomes plain ascending-integer order;
* each neighborhood is an **integer bitmask**, so the "candidates adjacent
  to the new vertex ``m`` and larger than ``m``" filter of ``GenerateI``
  is two bitwise ANDs;
* edge probabilities live in flat per-vertex dictionaries keyed by the
  integer index, preserving the O(1) lookup the paper's Lemma 10 assumes.

A compiled graph is immutable by convention: strategies read it, never
write it, so one compilation can back many searches and parallel shards,
and three derivations make new artifacts from it without the graph:
:meth:`CompiledGraph.restrict_probability` (Observation 3 at a higher α),
:meth:`CompiledGraph.restrict_shared_neighborhood` (LARGE-MULE's
pre-filter) and :meth:`CompiledGraph.restrict_roots` (a parallel shard).
The only state it gains after construction is the vector kernel's native
form of it (sorted neighbour rows and adjacency bitsets,
:mod:`repro.core.engine.backends.native`), a pure function of the artifact
built on its first run.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from typing import Any

from ...errors import ParameterError
from ...uncertain.graph import UncertainGraph
from ..pruning import PruningReport

__all__ = ["CompiledGraph", "compile_graph"]

Vertex = Hashable


def _mask_of(indices: Iterable[int]) -> int:
    """The bitmask with exactly the bits ``indices`` set."""
    mask = 0
    for j in indices:
        mask |= 1 << j
    return mask


def _sorted_labels(vertices: Iterable[Vertex]) -> tuple[list[Vertex], bool]:
    """Order labels as vertex indices follow them, and say which rule applied.

    The natural ``<`` order when the labels compare (the flag is True),
    otherwise the ``(type name, repr)`` order (the flag is False).
    """
    labels = list(vertices)
    try:
        return sorted(labels), True
    except TypeError:
        return sorted(labels, key=lambda v: (type(v).__name__, repr(v))), False


class _KernelCaches:
    """The vector kernel's native form of the artifact, built on its first run.

    One instance is shared by an artifact and every :meth:`CompiledGraph.
    restrict_roots` view of it, so whichever view runs first builds for all
    of them.  There is no lock: the form is a pure function of the
    artifact, so a race only builds the same value twice.
    """

    __slots__ = ("native",)

    def __init__(self) -> None:
        self.native: object | None = None


class CompiledGraph:
    """A search-ready, integer-indexed snapshot of an uncertain graph.

    Attributes
    ----------
    n:
        Number of vertices.
    labels:
        ``labels[i]`` is the original label of vertex index ``i``; indices
        are assigned in sorted label order.
    labels_sorted:
        True when ``labels`` is in the labels' natural ``<`` order, that is
        when ``sorted()`` accepted them; False when they fell back to the
        ``(type name, repr)`` order (mixed ``int``/``str`` labels, say).
        When it holds, ascending indices are ascending labels, so a clique
        the vector kernel emits is already in ``CliqueRecord.as_tuple()``
        order.
    index_of:
        Inverse mapping original label → index.
    adjacency_mask:
        ``adjacency_mask[i]`` is an integer whose bit ``j`` is set when
        ``{i, j}`` is a possible edge.
    adjacency_probability:
        ``adjacency_probability[i][j]`` is ``p({i, j})`` for every possible
        edge; both directions are stored.
    all_mask:
        ``(1 << n) - 1`` — the bitmask of all vertices.
    higher_masks:
        ``higher_masks[i]`` has exactly the bits of indices strictly greater
        than ``i`` set; used for the ``u > max(C)`` filter of ``GenerateI``.
    root_mask:
        Bitmask of the vertices the search may branch on at the **root** of
        the depth-first tree (``all_mask`` by default).  Restricting it via
        :meth:`restrict_roots` confines a search to the subtrees rooted at a
        subset of first-branch vertices — the sharding primitive of the
        parallel runner (:mod:`repro.parallel`).  Vertices outside the mask
        are still *retired* into the exclusion set as the root frame
        advances, so maximality tests inside the shard remain global and
        every emitted clique is genuinely α-maximal.
    pruning_report:
        What :meth:`restrict_shared_neighborhood` removed to make this
        artifact, or ``None`` when the filter did not make it.
    """

    __slots__ = (
        "n",
        "labels",
        "labels_sorted",
        "index_of",
        "adjacency_mask",
        "adjacency_probability",
        "all_mask",
        "higher_masks",
        "root_mask",
        "pruning_report",
        "_kernel_caches",
    )

    def __init__(
        self,
        labels: list[Vertex],
        adjacency_mask: list[int],
        adjacency_probability: list[dict[int, float]],
        labels_sorted: bool,
    ) -> None:
        self.n = len(labels)
        self.labels = labels
        self.labels_sorted = labels_sorted
        self.index_of = {v: i for i, v in enumerate(labels)}
        self.adjacency_mask = adjacency_mask
        self.adjacency_probability = adjacency_probability
        self.all_mask = (1 << self.n) - 1
        self.higher_masks = [
            self.all_mask ^ ((1 << (i + 1)) - 1) for i in range(self.n)
        ]
        self.root_mask = self.all_mask
        self.pruning_report: PruningReport | None = None
        # The vector kernel's native form.  restrict_roots hands the same
        # container to its views, so shards of one artifact build it once;
        # restrict_probability artifacts start with an empty one.
        self._kernel_caches = _KernelCaches()

    @classmethod
    def from_graph(
        cls, graph: UncertainGraph, *, min_probability: float | None = None
    ) -> "CompiledGraph":
        """Compile ``graph`` into the bitmask representation.

        Row ``i`` is built from ``graph.adjacency(labels[i])``.  When
        ``min_probability`` is given, each row keeps only the edges with
        ``p(e) >= min_probability``, as :meth:`restrict_probability` does —
        the Observation 3 preprocessing fused into the compile pass
        (vertices are always kept, so singleton α-maximal cliques survive).

        >>> g = UncertainGraph(edges=[(2, 1, 0.5)])
        >>> cg = CompiledGraph.from_graph(g)
        >>> cg.labels, cg.adjacency_mask
        ([1, 2], [2, 1])
        """
        ordered, labels_sorted = _sorted_labels(graph.vertices())
        index_of = {v: i for i, v in enumerate(ordered)}
        # Every stored probability lies in (0, 1], so a floor of 0 keeps all.
        floor = 0.0 if min_probability is None else min_probability
        adjacency_mask: list[int] = []
        adjacency_probability: list[dict[int, float]] = []
        for label in ordered:
            row = graph.adjacency(label)
            kept = {index_of[v]: p for v, p in row.items() if p >= floor}
            adjacency_mask.append(_mask_of(kept))
            adjacency_probability.append(kept)
        return cls(ordered, adjacency_mask, adjacency_probability, labels_sorted)

    def restrict_probability(self, min_probability: float) -> "CompiledGraph":
        """Return a new compiled graph without edges below ``min_probability``.

        Produces exactly the artifact ``compile_graph(graph, alpha=p)``
        would — same labels, same indexing, same floats — but derives it
        from the already-compiled arrays: no vertex re-sort, no traversal of
        the original ``UncertainGraph``.  This is the cheap path that lets
        one base compilation back a whole α sweep
        (:meth:`repro.api.MiningSession.sweep`): searches over the derived
        artifact are bit-identical — counters included — to searches over a
        fresh compilation at that α.

        Only restriction is supported: ``min_probability`` must be at least
        as large as the threshold the base was compiled with (dropped edges
        cannot be recovered); callers are responsible for honouring that.

        >>> g = UncertainGraph(edges=[(1, 2, 0.9), (2, 3, 0.4)])
        >>> base = CompiledGraph.from_graph(g)
        >>> base.restrict_probability(0.5).adjacency_mask
        [2, 1, 0]
        """
        masks: list[int] = []
        probabilities: list[dict[int, float]] = []
        for row in self.adjacency_probability:
            kept = {j: p for j, p in row.items() if p >= min_probability}
            masks.append(_mask_of(kept))
            probabilities.append(kept)
        return CompiledGraph(self.labels, masks, probabilities, self.labels_sorted)

    def restrict_shared_neighborhood(self, size_threshold: int) -> "CompiledGraph":
        """Apply LARGE-MULE's pre-filter for cliques of ``size_threshold`` or more.

        Modani and Dey's Shared Neighborhood Filtering, run to a fixed point
        on the bitmasks.  With ``t = size_threshold``, each round

        * drops every edge ``{u, v}`` whose endpoints share fewer than
          ``t - 2`` neighbours (one popcount of ``adjacency_mask[u] &
          adjacency_mask[v]``), decided on the round's graph before any
          edge goes: the other members of a clique of ``t`` or more
          vertices are shared neighbours of each of its edges;
        * then drops every vertex with fewer than ``t - 1`` neighbours it
          shares at least ``t - 2`` neighbours with, decided after the edge
          step and before any vertex goes: a member of such a clique has
          its ``t - 1`` fellow members as those neighbours.

        Rounds repeat until one changes nothing, since a removal can fail
        an edge or a vertex that passed before.  No edge or vertex of a
        clique of ``t`` or more vertices is ever removed, so every
        α-maximal clique of that size survives unchanged.  The survivors
        are re-indexed by the rule :meth:`from_graph` orders labels with,
        so the result equals a compile of the filtered graph, and its
        :attr:`pruning_report` counts the rounds (the last, unchanged one
        included), the edges the edge steps dropped and the vertices
        dropped.

        Raises
        ------
        ParameterError
            If ``size_threshold`` is smaller than 2.

        >>> g = UncertainGraph(
        ...     edges=[(1, 2, 0.9), (2, 3, 0.9), (1, 3, 0.9), (3, 4, 0.9)]
        ... )
        >>> filtered = CompiledGraph.from_graph(g).restrict_shared_neighborhood(3)
        >>> filtered.labels, filtered.pruning_report
        ([1, 2, 3], PruningReport(rounds=2, edges_removed=1, vertices_removed=1))
        """
        if size_threshold < 2:
            raise ParameterError(
                f"size_threshold must be at least 2, got {size_threshold}"
            )
        shared, strong_needed = size_threshold - 2, size_threshold - 1
        masks = list(self.adjacency_mask)
        rows = [dict(row) for row in self.adjacency_probability]
        alive = list(range(self.n))
        report = PruningReport()
        while True:
            report.rounds += 1
            weak = [
                (u, v)
                for u in alive
                for v in rows[u]
                if v > u and (masks[u] & masks[v]).bit_count() < shared
            ]
            for u, v in weak:
                del rows[u][v], rows[v][u]
                masks[u] &= ~(1 << v)
                masks[v] &= ~(1 << u)
            doomed: list[int] = []
            for v in alive:
                row = masks[v]
                strong = 0
                for u in rows[v]:
                    if (row & masks[u]).bit_count() >= shared:
                        strong += 1
                        if strong == strong_needed:
                            break
                if strong < strong_needed:
                    doomed.append(v)
            for v in doomed:
                for u in rows[v]:
                    del rows[u][v]
                    masks[u] &= ~(1 << v)
                rows[v].clear()
            report.edges_removed += len(weak)
            report.vertices_removed += len(doomed)
            if not weak and not doomed:
                break
            gone = set(doomed)
            alive = [v for v in alive if v not in gone]

        labels, labels_sorted = _sorted_labels(self.labels[i] for i in alive)
        kept = [self.index_of[label] for label in labels]
        index = {old: new for new, old in enumerate(kept)}
        probabilities = [{index[j]: p for j, p in rows[i].items()} for i in kept]
        filtered = CompiledGraph(
            labels,
            [_mask_of(row) for row in probabilities],
            probabilities,
            labels_sorted,
        )
        filtered.pruning_report = report
        return filtered

    def restrict_roots(self, root_mask: int) -> "CompiledGraph":
        """Return a shallow shard view confined to ``root_mask`` first branches.

        The view shares every array with ``self`` (compilation is never
        repeated), and the vector kernel's native form with it, differing
        only in :attr:`root_mask`.  The search kernel descends only into
        root-level branches whose bit is set (strategies
        never see the others); all other root candidates are still retired
        for exclusion-set bookkeeping.  The union of searches
        over a partition of ``all_mask`` therefore emits exactly the cliques
        of the unrestricted search, each exactly once (a clique is emitted
        under the root branch of its smallest vertex).

        >>> g = UncertainGraph(edges=[(1, 2, 0.9)])
        >>> compiled = CompiledGraph.from_graph(g)
        >>> shard = compiled.restrict_roots(0b01)
        >>> shard.root_mask, shard.adjacency_mask is compiled.adjacency_mask
        (1, True)
        """
        view = object.__new__(CompiledGraph)
        for slot in CompiledGraph.__slots__:
            setattr(view, slot, getattr(self, slot))
        view.root_mask = root_mask & self.all_mask
        return view

    # ------------------------------------------------------------------ #
    # Queries used by strategies and tests
    # ------------------------------------------------------------------ #
    def decode(self, indices: Iterable[int]) -> frozenset[Any]:
        """Translate vertex indices back to a frozenset of original labels.

        :meth:`MiningSession.stream` calls this once per clique the kernel
        emits, so it avoids the generator-expression frame a naive
        ``frozenset(labels[i] for i in indices)`` would allocate per call
        (``benchmarks/bench_emission_decode.py`` measures the difference).
        """
        return frozenset(map(self.labels.__getitem__, indices))

    def probability(self, i: int, j: int) -> float:
        """Return ``p({i, j})`` for vertex indices, or ``0.0`` when absent."""
        return self.adjacency_probability[i].get(j, 0.0)

    def __repr__(self) -> str:
        edges = sum(mask.bit_count() for mask in self.adjacency_mask) // 2
        return f"CompiledGraph(n={self.n}, m={edges})"


def compile_graph(
    graph: UncertainGraph,
    *,
    alpha: float | None = None,
    size_threshold: int | None = None,
) -> CompiledGraph:
    """Compile ``graph`` in one pass, then apply LARGE-MULE's filter if asked.

    Parameters
    ----------
    graph:
        The input uncertain graph (never modified).
    alpha:
        When given, the pass applies the Observation 3 preprocessing: edges
        with ``p(e) < α`` cannot appear in any α-clique of size ≥ 2 and are
        dropped.  Pass ``None`` to keep every edge (the ablation
        configuration).
    size_threshold:
        When given, the compiled graph then goes through
        :meth:`CompiledGraph.restrict_shared_neighborhood` for cliques of at
        least this many vertices (LARGE-MULE's pre-filter), and the result
        carries the filter's :attr:`~CompiledGraph.pruning_report`.
    """
    compiled = CompiledGraph.from_graph(graph, min_probability=alpha)
    if size_threshold is None:
        return compiled
    return compiled.restrict_shared_neighborhood(size_threshold)
